"""Cayley-table bundles and their defining laws.

A structure is a finite carrier {0, .., n-1} together with one n-by-n
multiplication table per gamma operation, so ``tables[g][a][b]`` is the
product of a and b under the g-th operation.  Elements and gamma operations
are 0-based indices everywhere in this package; display labels live on the
structure and matter only for parsing and reports.  Subsets of the carrier
are plain int bitmasks (bit i set <=> element i present).
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Literal, Optional

MAX_ORDER = 64  # one bit per element in a subset mask
MAX_LAW_INSTANCES = MAX_ORDER ** 4  # every single-gamma law scan of a valid carrier


class LimitExceededError(ValueError):
    """An exhaustive scan was refused because the input is too large."""


def _refuse_beyond(count: int, bound: int, what: str, **fields) -> None:
    """The one refusal rule: a count above its bound raises "{what} refused beyond
    {bound}", the template ``what`` formatted, only then, with the count and fields."""
    if count > bound:
        raise LimitExceededError(f"{what.format(count, **fields)} refused beyond {bound}")


@dataclass(frozen=True)
class LawVerdict:
    """Result of an exhaustive law check.

    ``witness`` is None when the law holds, otherwise the first violating
    instance in scan order: the law's variables in reading order of its
    left-hand term, alternating elements and gamma indices, e.g. (a, g, b, d, c)
    for (a g b) d c.
    """
    holds: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class RegularityWitness:
    x: int
    beta: int
    gamma: int


def _no_ws(token: str) -> bool:
    return bool(token) and "#" not in token and token == "".join(token.split())


@dataclass(frozen=True)
class GammaGroupoid:
    """Immutable bundle of Cayley tables over a common carrier."""

    tables: tuple[tuple[tuple[int, ...], ...], ...]
    labels: tuple[str, ...]
    gamma_names: tuple[str, ...]

    def __post_init__(self):
        n, m = self._set_shape()
        if n < 1 or m < 1:
            raise ValueError("carrier and gamma set must be non-empty")
        if n > MAX_ORDER:
            raise ValueError(f"carrier size {n} exceeds supported maximum {MAX_ORDER}")
        if len(self.tables) != m:
            raise ValueError("need exactly one table per gamma operation")
        for t in self.tables:
            if len(t) != n or any(len(row) != n for row in t):
                raise ValueError("every table must be n-by-n")
            for row in t:
                for v in row:
                    if not 0 <= v < n:
                        raise ValueError(f"table entry {v} outside carrier [0, {n})")
        if len(set(self.labels)) != n:
            raise ValueError("element labels must be unique")
        if len(set(self.gamma_names)) != m:
            raise ValueError("gamma names must be unique")
        for tok in (*self.labels, *self.gamma_names):
            if not _no_ws(tok):
                raise ValueError(f"bad display token {tok!r}: whitespace and '#' are reserved")

    def _set_shape(self) -> tuple[int, int]:
        """Set ``order``, ``gamma_count`` and the ``carrier`` bitmask once, when built."""
        n, m = len(self.labels), len(self.gamma_names)
        self.__dict__.update(order=n, gamma_count=m, carrier=(1 << n) - 1)
        return n, m

    @classmethod
    def from_tables(cls, tables) -> "GammaGroupoid":
        """Build from nested sequences, with labels 1..n and gamma names g1..gm."""
        tt = tuple(tuple(tuple(int(v) for v in row) for row in t) for t in tables)
        return cls(tt, default_labels(len(tt[0]) if tt else 0), default_gamma_names(len(tt)))

    @classmethod
    def _trusted(cls, tables, labels=None, gamma_names=None) -> "GammaGroupoid":
        """Valid tuple tables and names, unchecked; names default as in ``from_tables``."""
        G = object.__new__(cls)
        G.__dict__.update(tables=tables, labels=labels or default_labels(len(tables[0])),
                          gamma_names=gamma_names or default_gamma_names(len(tables)))
        G._set_shape()
        return G

    def apply(self, a: int, g: int, b: int) -> int:
        if not 0 <= a < self.order or not 0 <= b < self.order:
            raise IndexError(f"element index out of range: ({a}, {b}) for order {self.order}")
        if not 0 <= g < self.gamma_count:
            raise IndexError(f"gamma index {g} out of range for {self.gamma_count} operations")
        return self.tables[g][a][b]

    def element_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown element label {label!r}") from None

    def gamma_index(self, name: str) -> int:
        try:
            return self.gamma_names.index(name)
        except ValueError:
            raise KeyError(f"unknown gamma name {name!r}") from None

    def subset_of_labels(self, labels: Iterable[str]) -> int:
        return subset_of(self.element_index(t) for t in labels)

    def labels_of_subset(self, mask: int) -> tuple[str, ...]:
        _check_width(self, mask)
        return tuple(self.labels[i] for i in members(mask))

    def __repr__(self):
        return f"GammaGroupoid(order={self.order}, gammas={self.gamma_count})"


# one tuple per size, shared by every structure of that size (a search builds
# one per leaf); the tuples are immutable, so sharing them is safe
@lru_cache(maxsize=16)
def default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n))


@lru_cache(maxsize=16)
def default_gamma_names(m: int) -> tuple[str, ...]:
    return tuple(f"g{i + 1}" for i in range(m))


def _fact(G: GammaGroupoid, key, compute=None):
    """The fact ``key`` of G's immutable tables, from ``compute()`` on first use and
    then kept in a dict on G, made lazily so that building G costs nothing more;
    without ``compute``, the fact if G holds it, else None, found without raising."""
    if compute is None:
        return G.__dict__.get("_facts", {}).get(key)
    try:
        return G.__dict__["_facts"][key]
    except KeyError:
        value = G.__dict__.setdefault("_facts", {})[key] = compute()
        return value


class _LazyMap(dict):
    """A dict that makes a missing key's value with ``make(key)`` and keeps it."""
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# ---------------------------------------------------------------------------
# subsets as bitmasks

def subset_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


# members reads a mask a byte at a time: _BYTE_MEMBERS[k][byte] is the tuple of
# elements 8k + i for the set bits i of byte, over the MAX_ORDER // 8 bytes of a
# mask.  Its 2,048 tuples are built on first use, not at import, where they would
# add about 4 ms to every start, and fill this one list in place: never rebound.
_BYTE_MEMBERS: list = []


def _byte_members() -> list:
    _BYTE_MEMBERS[:] = (tuple(tuple(8 * k + i for i in range(8) if byte >> i & 1)
                              for byte in range(256)) for k in range(MAX_ORDER // 8))
    return _BYTE_MEMBERS


def members(mask: int) -> tuple[int, ...]:
    """The set bits of a subset mask, ascending."""
    if mask < 0:
        raise ValueError(f"subset mask {mask:#x} is negative")
    tables = _BYTE_MEMBERS or _byte_members()
    out = tables[0][mask & 255]
    mask >>= 8
    k = 1
    try:
        while mask:
            out += tables[k][mask & 255]
            mask >>= 8
            k += 1
    except IndexError:
        raise ValueError(f"subset mask is wider than {MAX_ORDER} bits") from None
    return out


def _check_width(G: GammaGroupoid, mask: int, what: str = "subset"):
    if mask < 0 or mask >> G.order:
        raise ValueError(f"{what} {mask:#x} does not fit carrier of size {G.order}")


def _product_kernel(G: GammaGroupoid):
    """``(cell, row, col)``: ``cell[a][b]`` the mask of a g b over every gamma g,
    ``row[a]`` the mask of aΓG, ``col[b]`` of GΓb."""
    n = G.order
    cell = [[0] * n for _ in range(n)]
    for table in G.tables:
        for masks, values in zip(cell, table):
            for b, v in enumerate(values):
                masks[b] |= 1 << v
    row = [0] * n
    col = [0] * n
    for a, masks in enumerate(cell):
        for b, mask in enumerate(masks):
            row[a] |= mask
            col[b] |= mask
    return cell, row, col


def _powerset_kernel(G: GammaGroupoid):
    """``(GS, SG, SS)``: for every subset mask S, ``GS[S]`` the mask of GΓS, ``SG[S]``
    of SΓG and ``SS[S]`` of SΓS; three ``array('Q')``, 24·2ⁿ bytes.  The masks with
    highest element b extend those below b (read from a copy, as an array extended
    from its own iterator never stops) by b's column, row and cells."""
    cell, row, col = _fact(G, "product", lambda: _product_kernel(G))
    GS, SG, SS = array("Q", [0]), array("Q", [0]), array("Q", [0])
    for b, cells in enumerate(cell):
        cross = array("Q", [cells[b]])  # cross[X]: bΓb ∪ bΓX ∪ XΓb, X below b
        for c in range(b):
            cross.extend(map((cells[c] | cell[c][b]).__or__, cross[:]))
        GS.extend(map(col[b].__or__, GS[:]))
        SG.extend(map(row[b].__or__, SG[:]))
        SS.extend(map(int.__or__, SS[:], cross))
    return GS, SG, SS


def subset_product(G: GammaGroupoid, A: int, B: int) -> int:
    """All products a g b with a in A, g ranging over every gamma, b in B: AΓG, GΓB
    and AΓA are one read of G's powerset kernel when G keeps it, and every product
    is otherwise read from G's product kernel, a member at a time."""
    full = G.carrier
    if (A | B) & ~full:  # either mask is negative or wider than the carrier
        _check_width(G, A, "left operand")
        _check_width(G, B, "right operand")
    if (kernel := _fact(G, "powerset")) and (B == full or A == full or A == B):
        GS, SG, SS = kernel
        return SG[A] if B == full else GS[B] if A == full else SS[A]
    cell, row, col = _fact(G, "product", lambda: _product_kernel(G))
    result = 0
    if B == full:
        for a in members(A):
            result |= row[a]
    elif A == full:
        for b in members(B):
            result |= col[b]
    else:
        bs = members(B)
        for a in members(A):
            masks = cell[a]
            for b in bs:
                result |= masks[b]
    return result


# ---------------------------------------------------------------------------
# laws as terms
#
# A term is an element variable (a string) or a (left, gamma, right) triple
# whose middle entry names a gamma variable; (("a", "g", "b"), "d", "c") reads
# (a g b) d c.  Terms are compiled into nested Python loops on first use:
# walking the term tree at every instance makes check_law several times
# slower, and compiling at import would be a large share of the import time.
# Terms compile through one loop-nest emitter, compile_scan, in three loop
# orders; it hoists each lookup out of the loops it does not read.  A law's
# verdict pass loops over the gammas outermost; its witness scan, and each
# ideal clause's, loops over the elements outermost, keeps the documented scan
# order and, for a law, runs only when the verdict pass fails.  The verdict
# pass's vector form drops the loop over the last element variable: each
# lookup that reads it is a bytes vector of its values over that variable,
# made by bytes.translate through a row or column of the structure, so each
# instance of the other variables is one comparison of two vectors.  A row or
# column translated through a row picked by a looked-up value (medial, paramedial)
# is read from the structure's table of all such translations, whose slice for a
# pair of gammas is made when a pass first reads it, so a pass that fails early
# makes few; a row picked by a loop variable is translated in the loop, as a table
# of those would cost as many translates and keep them all.  Both verdict passes take
# one instance per mirror pair of the law, the witness scans every instance.

# Law.holds takes the vector form from this many instances of the scalar pass on
# (n^e·m^g, as check_law_size counts them), since the structure's byte tables cost more
# than the vector form saves on short scans.  Measured whole passes, tables built in
# them, up to (8,4): left-invertive, AG** and associative (n³·m²) lose at 125 instances
# and win from 216-256; medial (n⁴·m³) wins from 256; paramedial alone wins from (5,1),
# but after medial, whose RRT slices it shares, the two win together from (4,1).  No
# search leaf and no check of a hunt up to (3,2), at most 108 instances, takes it.
# Commutative (n²·m) repays the build alone only from about (26,1) on, but it is checked
# after left invertivity, which builds its rows and columns, and reading those it is
# 3 to 30 times faster.  Order 1 stays scalar: one lane saves nothing, and medial and
# paramedial at (1,256) took 22 s and 41 MB on the vector form against 13 s and 16 MB.
VECTOR_INSTANCES = 7 ** 3


def _reading(term, is_gamma=False) -> list[tuple[str, bool]]:
    """A term's variables in reading order, as (name, is_gamma) pairs."""
    if isinstance(term, str):
        return [(term, is_gamma)]
    return _reading(term[0]) + _reading(term[1], True) + _reading(term[2])


def _variables(*terms) -> tuple[tuple[str, bool], ...]:
    """Variables in order of first appearance, as (name, is_gamma) pairs."""
    return tuple(dict.fromkeys(v for term in terms for v in _reading(term)))


def _match(p, t, env: dict) -> bool:
    """Bind the pattern term p's variables in env so that p reads the term t."""
    return env.setdefault(p, t) == t if isinstance(p, str) else (
        not isinstance(t, str) and env.setdefault(p[1], t[1]) == t[1]
        and _match(p[0], t[0], env) and _match(p[2], t[2], env))


def _mirror(lhs, rhs) -> Optional[dict]:
    """The variable involution that maps lhs onto rhs and rhs onto lhs, or None: a
    variable matched to a compound term one way meets it as a pattern the other."""
    env = {}
    return env if _match(lhs, rhs, env) and _match(rhs, lhs, env) else None


def _byte_table(G: GammaGroupoid, name: str):
    """One of the structure's byte tables, each a fact of its own: ``R[g][a]`` row a of
    table g as bytes, ``C[g][b]`` column b, ``RT``, ``CT`` those as 256-byte translate
    tables, ``RRT[g][b][v][a]`` row a of g translated through row v of b, ``CCT`` columns,
    whose slice ``RRT[g][b]`` is made when first read."""
    def build():
        if len(name) == 3:
            rows, through = _byte_table(G, name[0]), _byte_table(G, name[1:])
            return [_LazyMap(lambda b, vs=vs: [[v.translate(r) for v in vs] for r in through[b]])
                    for vs in rows]
        if name in ("RT", "CT"):
            pad = bytes(256 - G.order)
            return [[v + pad for v in vectors] for vectors in _byte_table(G, name[0])]
        return [[bytes(v) for v in (table if name == "R" else zip(*table))]
                for table in G.tables]
    return _fact(G, name, build)


# _TAILS[n][k] is range(k, n), the loop that a verdict pass restricts to one instance
# per mirror pair; made once per order, as a list made per pass costs about 0.5 µs
_TAILS = _LazyMap(lambda n: [range(k, n) for k in range(n + 1)])


def _define(lines: list[str]):
    scope = {"members": members, "_byte_table": _byte_table, "_TAILS": _TAILS}
    exec("\n".join(lines), scope)
    return scope["f"]


def compile_scan(terms, violated: str, over_s=(), gammas_outer=False, vector=False,
                 mirror=None):
    """Compile ``f(G, S=0)``, a scan for an instance of the terms' variables at
    which ``violated`` (a condition on the terms' values ``{0}``, ``{1}``, ...
    and the subset mask ``S``) holds.

    The loops run over the variables in order of first appearance, element
    variables outermost and gamma variables innermost, or the other way round
    when ``gammas_outer``; element variables in ``over_s`` range over the
    members of S, the others over the carrier.  Every lookup, and every table
    and row that it reads, is made once, in the shallowest loop that binds all
    the variables it reads.  With the elements outermost, f returns the first
    hit in this scan order, as the variables in order of first appearance, or
    None; with the gammas outermost the first hit is not the first in scan
    order, so it names no witness and f returns False at it, else True.

    ``vector`` gives the gammas-outermost form without the loop over the last element
    variable, the lanes: a value that reads the lanes is the bytes of its values over
    all of them, and ``violated`` compares those vectors.  f builds only the byte tables
    (``_byte_table``) that its lookups read.  It needs the lanes exactly once in each
    term, so that every lookup reads them on one side at most, and refuses other terms
    with ``ValueError``.

    ``mirror``, an involution of the variables that swaps the two terms (``_mirror``),
    restricts the gammas-outermost form to one instance per mirror pair: of the first
    pair of element loops u, w that it swaps, w bound inside u and neither the lanes,
    w runs from u's value on.  An instance with w below u is skipped, as its image,
    which the pass checks, states the same equation with its sides swapped.  When the
    mirror fixes every other variable, an instance with equal u and w is its own image,
    its two sides one lookup, so w runs from u's value + 1.
    """
    variables = _variables(*terms)
    gammas_outer = gammas_outer or vector
    # a stable sort keeps the order of first appearance within each kind
    loops = sorted(variables, key=lambda v: v[1] != gammas_outer)
    lanes = loops.pop()[0] if vector else None
    if vector and any(_reading(term).count((lanes, False)) != 1 for term in terms):
        raise ValueError(f"the vector form needs the last element variable {lanes!r} "
                         f"exactly once in each term, not in {terms!r}")
    tails = {}  # the restricted loop's variable: its range, from the loop that binds u
    if mirror and gammas_outer:
        elements = [v for v, is_gamma in loops if not is_gamma]
        for i, u in enumerate(elements):
            if (w := mirror[u]) in elements[i + 1:]:
                strict = all(mirror[v] == v for v, _ in variables if v not in (u, w))
                tails[w] = f"TL[v_{u}{' + 1' if strict else ''}]"
                break
    depth_of = {v: depth for depth, (v, _) in enumerate(loops, 1)}
    bound = [[] for _ in range(len(loops) + 1)]  # the assignments made at each depth
    names = {}
    tables = set()  # the byte tables that the vector form reads

    def bind(expr, depth):
        if depth == len(loops):  # read once per instance, so left inline
            return expr, depth
        if expr not in names:
            names[expr] = f"t{len(names)}", depth
            bound[depth].append(f"{names[expr][0]} = {expr}")
        return names[expr]

    def value(term):
        """The local name holding a term's value, the depth that binds it, and
        whether it is a vector over the lanes."""
        if term == lanes:
            return "L", 0, True
        if isinstance(term, str):
            return "v_" + term, depth_of[term], False
        left, g, right = term
        on_left = (lanes, False) in _reading(left)
        vec, index = (left, right) if on_left else (right, left)
        table, path, through = "T", (g, left, right), None
        if isinstance(vec, tuple) and lanes in vec[::2] and not isinstance(index, str):
            # a row or column translated through a row picked by a looked-up value, read
            # from the structure's table of them all: RRT[row's gamma][g][value][row]
            row, rows = (vec[2], "C") if vec[0] == lanes else (vec[0], "R")
            table, path = rows + ("C" if on_left else "R") + "T", (vec[1], g, index, row)
        elif (lanes, False) in _reading(term):
            # the lanes read on the left run down a column, on the right along a row;
            # a lookup of the lanes themselves is that column or row, and any other
            # vector is translated through it
            through = None if vec == lanes else value(vec)
            table, path = ("C" if on_left else "R") + ("T" if through else ""), (g, index)
        tables.add(table)
        at, depth = table, 0
        for part, part_depth, _ in [value(part) for part in path]:
            at, depth = bind(f"{at}[{part}]", max(depth, part_depth))
        if through:
            at, depth = bind(f"{through[0]}.translate({at})", max(depth, through[1]))
        return at, depth, table != "T"

    values = [value(term)[0] for term in terms]
    lines = ["def f(G, S=0):", "    T = G.tables", "    E = range(G.order)",
             "    M = range(G.gamma_count)"]
    lines += [f'    {t} = _byte_table(G, "{t}")' for t in sorted(tables - {"T"})]
    if lanes in terms:
        lines.append("    L = bytes(E)")
    if any(name in over_s for name, is_gamma in variables if not is_gamma):
        lines.append("    SE = members(S)")
    if tails:
        lines.append("    TL = _TAILS[G.order]")
    for depth, assignments in enumerate(bound):
        if depth:
            name, is_gamma = loops[depth - 1]
            domain = tails.get(name) or ("M" if is_gamma else "SE" if name in over_s else "E")
            lines.append("    " * depth + f"for v_{name} in {domain}:")
        lines += ["    " * (depth + 1) + line for line in assignments]
    instance = "(" + "".join(f"v_{v}, " for v, _ in variables) + ")"
    hit, miss = ("False", "True") if gammas_outer else (instance, "None")
    lines.append("    " * (len(loops) + 1) + f"if {violated.format(*values)}: return {hit}")
    lines.append(f"    return {miss}")
    return _define(lines)


class Law(Enum):
    """An identity lhs == rhs over all elements and gammas, given by its terms.

    ``holds(G)`` decides whether the law holds and ``scan(G)`` finds the first
    violated instance; both come from the one loop-nest emitter,
    ``compile_scan``, and each compiles on first use.  ``scan`` loops over the
    elements outermost.  ``holds`` refuses the structure as ``check_law_size``
    does and loops over the gammas outermost: below ``VECTOR_INSTANCES``
    instances, or at order 1, it is the scalar pass ``holds_scalar``, else the
    vector form ``holds_vector``, which decides every value of the last element
    variable at once.  ``mirror`` is the variable involution that swaps the two
    terms, or None (``_mirror``); both verdict passes take one instance per mirror
    pair from it, and so does the search (``search._instances``).  Adding a law is
    one line here; the vector form takes a law whose last element variable occurs
    once in each term.
    """
    LEFT_INVERTIVE = "left-invertive", (("a", "g", "b"), "d", "c"), (("c", "g", "b"), "d", "a")
    AG_STAR_STAR = "ag-star-star", ("a", "g", ("b", "d", "c")), ("b", "g", ("a", "d", "c"))
    MEDIAL = ("medial", (("x", "a", "y"), "b", ("l", "g", "m")),
              (("x", "a", "l"), "b", ("y", "g", "m")))
    PARAMEDIAL = ("paramedial", (("x", "a", "y"), "b", ("l", "g", "m")),
                  (("m", "a", "l"), "b", ("y", "g", "x")))
    ASSOCIATIVE = "associative", (("a", "g", "b"), "d", "c"), ("a", "g", ("b", "d", "c"))
    COMMUTATIVE = "commutative", ("a", "g", "b"), ("b", "g", "a")

    def __new__(cls, value, lhs, rhs):
        law = object.__new__(cls)
        law._value_ = value
        law.terms = lhs, rhs
        law.variables = _variables(lhs, rhs)
        law.mirror = _mirror(lhs, rhs)
        law.gamma_variables = sum(is_gamma for _, is_gamma in law.variables)
        law.element_variables = len(law.variables) - law.gamma_variables
        return law

    __hash__ = object.__hash__  # each member is one object, compared by identity

    def holds(self, G: GammaGroupoid) -> bool:
        vector = check_law_size(G, self) >= VECTOR_INSTANCES and G.order > 1
        return (self.holds_vector if vector else self.holds_scalar)(G)

    @cached_property
    def holds_scalar(self):
        return compile_scan(self.terms, "{0} != {1}", gammas_outer=True, mirror=self.mirror)

    @cached_property
    def holds_vector(self):
        return compile_scan(self.terms, "{0} != {1}", vector=True, mirror=self.mirror)

    @cached_property
    def scan(self):
        return compile_scan(self.terms, "{0} != {1}")


# ---------------------------------------------------------------------------
# law checking

def check_law(G: GammaGroupoid, law: Law) -> LawVerdict:
    """Exhaustively check one law; report the first violation in scan order.

    Scan order is element variables outer, gamma variables inner, each in
    order of first appearance in the law's left-hand term and ascending, so
    the reported witness is reproducible.  The law's verdict pass runs first,
    and the scan only when that pass fails.  A check over more than
    ``MAX_LAW_INSTANCES`` instances is refused before it starts.  The verdict is
    a fact of G, so each call on one structure and law returns one object.
    """
    def verdict():
        witness = None if law.holds(G) else law.scan(G)
        return LawVerdict(witness is None, witness)
    return _fact(G, law, verdict)


def check_law_size(G: GammaGroupoid, law: Law) -> int:
    """The number of instances of ``law`` over G; a scan of more than
    ``MAX_LAW_INSTANCES`` is refused."""
    count = G.order ** law.element_variables * G.gamma_count ** law.gamma_variables
    _refuse_beyond(count, MAX_LAW_INSTANCES, "{law} scan over {} instances", law=law.value)
    return count


def law_sides(G: GammaGroupoid, law: Law, witness: tuple) -> tuple[int, int]:
    """Evaluate both sides of ``law`` at a witness-shaped tuple."""
    env = dict(zip((v for v, _ in law.variables), witness))

    def value(term):
        if isinstance(term, str):
            return env[term]
        left, g, right = term
        return G.tables[env[g]][value(left)][value(right)]
    return tuple(map(value, law.terms))


def derives(hypotheses: Iterable[Law], law: Law) -> bool:
    """Whether ``law`` holds in every structure that meets the ``hypotheses``: a
    breadth-first search from its left term to its right one by one hypothesis a
    step, either way round at any subterm.  Each step is an inference, so True is
    sound; each keeps a linear law's leaves, so the search ends, and False is
    sound too by Birkhoff's completeness theorem (1935)."""
    rules = [sides for h in hypotheses for sides in (h.terms, h.terms[::-1])]

    def put(p, env):
        return env[p] if isinstance(p, str) else (put(p[0], env), env[p[1]], put(p[2], env))

    def steps(t):  # every term one step from t
        yield from (put(rhs, env) for lhs, rhs in rules for env in [{}] if _match(lhs, t, env))
        if not isinstance(t, str):
            yield from ((s, t[1], t[2]) for s in steps(t[0]))
            yield from ((t[0], t[1], s) for s in steps(t[2]))
    frontier, goal = [law.terms[0]], law.terms[1]
    seen = set(frontier)
    while frontier and goal not in seen:
        frontier = [s for t in frontier for s in steps(t) if s not in seen and not seen.add(s)]
    return goal in seen


def identities(G: GammaGroupoid, side: Literal["left", "right"]) -> set[int]:
    """Elements e with e g a == a for all a, g (side="left"), or a g e == a (side="right")."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = G.order
    if side == "left":
        return {e for e in range(n) if all(t[e][a] == a for t in G.tables for a in range(n))}
    return {e for e in range(n) if all(t[a][e] == a for t in G.tables for a in range(n))}


def regular_witness(G: GammaGroupoid, a: int) -> Optional[RegularityWitness]:
    """First (x, beta, gamma) in lexicographic order with (a beta x) gamma a == a."""
    if not 0 <= a < G.order:
        raise IndexError(f"element index {a} out of range")
    T = G.tables
    m = G.gamma_count
    for x in range(G.order):
        for b in range(m):
            t = T[b][a][x]
            for g in range(m):
                if T[g][t][a] == a:
                    return RegularityWitness(x, b, g)
    return None


def is_regular(G: GammaGroupoid) -> bool:
    return _fact(G, "regular",
                 lambda: all(regular_witness(G, a) is not None for a in range(G.order)))
