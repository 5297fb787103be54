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
from itertools import product
from math import prod
from typing import Iterable, Literal, Optional

MAX_ORDER = 64  # one bit per element in a subset mask
MAX_LAW_INSTANCES = MAX_ORDER ** 4  # every single-gamma law scan of a valid carrier


class LimitExceededError(ValueError):
    """An exhaustive scan was refused because the input is too large."""


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
    def _trusted(cls, tables) -> "GammaGroupoid":
        """``from_tables`` of valid tuple tables, skipping ``__post_init__``'s checks."""
        G = object.__new__(cls)
        G.__dict__.update(tables=tables, labels=default_labels(len(tables[0])),
                          gamma_names=default_gamma_names(len(tables)))
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


def _fact(G: GammaGroupoid, key, compute):
    """The fact ``key`` of G's immutable tables, from ``compute()`` on first use and
    then kept in a dict on G, made lazily so that building G costs nothing more."""
    try:
        return G.__dict__["_facts"][key]
    except KeyError:
        value = G.__dict__.setdefault("_facts", {})[key] = compute()
        return value


# ---------------------------------------------------------------------------
# subsets as bitmasks

def subset_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def members(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise ValueError(f"subset mask {mask:#x} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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
    """All products a g b with a in A, g ranging over every gamma, b in B,
    read from G's product kernel."""
    cell, row, col = _fact(G, "product", lambda: _product_kernel(G))
    full = G.carrier
    if (A | B) & ~full:  # either mask is negative or wider than the carrier
        _check_width(G, A, "left operand")
        _check_width(G, B, "right operand")
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
# A law compiles into three forms: the verdict pass (compile_holds), which
# loops over the gammas outermost and hoists each lookup out of the loops it
# does not read; the witness scan (compile_scan), which keeps the documented
# scan order and runs only when the verdict pass fails; and the search's
# propagate step (compile_propagate), one per tuple of pruned laws, with every
# instance's probe written inline and both outermost cells watched.  The search
# takes one instance per mirror pair (Law.instances): the mirror swaps the two
# terms, so an instance and its image state one equation, and an instance that
# is its own image holds on every table and is dropped.

def _variables(*terms) -> tuple[tuple[str, bool], ...]:
    """Variables in order of first appearance, as (name, is_gamma) pairs."""
    def reading(term, is_gamma=False):
        if isinstance(term, str):
            return [(term, is_gamma)]
        return reading(term[0]) + reading(term[1], True) + reading(term[2])
    return tuple(dict.fromkeys(v for term in terms for v in reading(term)))


def _expr(term) -> str:
    if isinstance(term, str):
        return "v_" + term
    left, g, right = term
    return f"T[v_{g}][{_expr(left)}][{_expr(right)}]"


def _define(lines: list[str]):
    scope = {"members": members}
    exec("\n".join(lines), scope)
    return scope["f"]


def compile_scan(terms, violated: str, over_s=()):
    """Compile ``f(G, S=0)``, the first instance of the terms' variables at
    which ``violated`` (a condition on the terms' values ``{0}``, ``{1}``, ...
    and the subset mask ``S``) holds, or None.

    Element variables are the outer loops and gamma variables the inner ones,
    each in order of first appearance; element variables in ``over_s`` range
    over the members of S, the others over the carrier.  The instance is the
    variables in order of first appearance.
    """
    variables = _variables(*terms)
    loops = [v for v in variables if not v[1]] + [v for v in variables if v[1]]
    lines = ["def f(G, S=0):", "    T = G.tables", "    E = range(G.order)",
             "    M = range(G.gamma_count)", "    SE = members(S)"]
    for depth, (name, is_gamma) in enumerate(loops, 1):
        domain = "M" if is_gamma else "SE" if name in over_s else "E"
        lines.append("    " * depth + f"for v_{name} in {domain}:")
    pad = "    " * (len(loops) + 1)
    lines.append(pad + "if " + violated.format(*map(_expr, terms)) + ":")
    lines.append(pad + "    return (" + "".join(f"v_{v}, " for v, _ in variables) + ")")
    return _define(lines)


def compile_holds(terms):
    """Compile ``f(G)``, whether the two terms agree at every instance.

    Gamma variables are the outer loops and element variables the inner ones,
    each in order of first appearance.  Every lookup, and every table and row
    that it reads, is made once, in the shallowest loop that binds all the
    variables it reads.  The result is False at the first disagreement in
    this order, which is not the scan order, so it names no witness.
    """
    variables = _variables(*terms)
    gammas = [v for v, is_gamma in variables if is_gamma]
    loops = gammas + [v for v, is_gamma in variables if not is_gamma]
    depth_of = {v: depth for depth, v in enumerate(loops, 1)}
    bound = [[] for _ in range(len(loops) + 1)]  # the assignments made at each depth
    names = {}

    def bind(expr, depth):
        if depth == len(loops):  # read once per instance, so left inline
            return expr, depth
        if expr not in names:
            names[expr] = f"t{len(names)}", depth
            bound[depth].append(f"{names[expr][0]} = {expr}")
        return names[expr]

    def value(term):
        """The local name holding a term's value and the depth that binds it."""
        if isinstance(term, str):
            return "v_" + term, depth_of[term]
        left, g, right = term
        at, depth = bind(f"T[v_{g}]", depth_of[g])
        for index, index_depth in (value(left), value(right)):
            at, depth = bind(f"{at}[{index}]", max(depth, index_depth))
        return at, depth

    (lhs, _), (rhs, _) = map(value, terms)
    lines = ["def f(G):", "    T = G.tables", "    E = range(G.order)",
             "    M = range(G.gamma_count)"]
    for depth, assignments in enumerate(bound):
        if depth:
            domain = "M" if depth <= len(gammas) else "E"
            lines.append("    " * depth + f"for v_{loops[depth - 1]} in {domain}:")
        lines += ["    " * (depth + 1) + line for line in assignments]
    lines.append("    " * (len(loops) + 1) + f"if {lhs} != {rhs}: return False")
    lines.append("    return True")
    return _define(lines)


def compile_propagate(laws):
    """Compile ``f(T, W, n, moved, forced)``, which returns the search's
    ``propagate(batch)`` over instances of ``laws``, a sequence of term pairs.

    T holds ``n`` in every unassigned cell and in a spare row and column, and
    ``W[g][r][c]`` lists the instances waiting on unassigned cell (g, r, c).  An
    instance is ``(k, *values)``: the index of its law and values of that law's
    variables.  ``propagate`` runs each instance of ``batch``, with its lookups
    written inline, and then those waiting on each cell it forces; False at the
    first instance whose sides are known and unequal.  An instance waits on its
    first unassigned inner lookup; with every inner lookup known it forces an
    unassigned outermost cell to the other side's known value, or waits on both
    outermost cells when both are unassigned (Chaff's two watched literals).
    A wait appends the instance to the bucket and the bucket to ``moved``; a
    force assigns the cell, appends ``(row, column)`` to ``forced`` and queues
    the cell's bucket.
    """
    lines = ["def f(T, W, n, moved, forced):",
             "    def propagate(batch):",
             "        todo = [batch]",
             "        for batch in todo:",
             "            for inst in batch:"]
    for k, terms in enumerate(laws):
        pad = " " * 16
        if len(laws) > 1:
            lines.append(f"{pad}{'elif' if k else 'if'} inst[0] == {k}:")
            pad += "    "
        lines.append(pad + "_, " + "".join(f"v_{v}, " for v, _ in _variables(*terms)) + "= inst")

        def wait(at):
            return f"w = W[{at[0]}][{at[1]}][{at[2]}]; w.append(inst); moved.append(w)"

        def cell(term):
            left, g, right = term
            return "v_" + g, value(left), value(right)

        def value(term):
            """Emit the lookups of a term, each waiting at once when unassigned."""
            if isinstance(term, str):
                return "v_" + term
            at = cell(term)
            var = f"x{len(lines)}"
            lines.append(f"{pad}{var} = T[{at[0]}][{at[1]}][{at[2]}]")
            lines.append(f"{pad}if {var} == n: {wait(at)}; continue")
            return var

        # the outermost lookups come last, so that a known side can force the other's
        roots = [(i, cell(term)) for i, term in enumerate(terms) if not isinstance(term, str)]
        lines += [f"{pad}r{i} = T[{at[0]}][{at[1]}]; s{i} = r{i}[{at[2]}]" for i, at in roots]
        sides = ["v_" + term if isinstance(term, str) else f"s{i}" for i, term in enumerate(terms)]
        lhs, rhs = sides
        lines.append(f"{pad}if {lhs} != {rhs}:")
        for branch, (i, at) in enumerate(roots):  # a side reading n: the other is known
            lines.append(f"{pad}    {'elif' if branch else 'if'} s{i} == n:")
            lines.append(f"{pad}        r{i}[{at[2]}] = {sides[1 - i]}; forced.append((r{i}, {at[2]}))")
            lines.append(f"{pad}        todo.append(W[{at[0]}][{at[1]}][{at[2]}])")
        lines.append(f"{pad}    {'else: ' if roots else ''}return False")
        if len(roots) == 2:  # equal sides: both known, or both unassigned
            lines.append(f"{pad}elif s0 == n:")
            lines += [f"{pad}    {wait(at)}" for _, at in roots]
    if not laws:
        lines.append(" " * 16 + "pass")
    lines += ["        return True", "    return propagate"]
    return _define(lines)


def _mirror(lhs, rhs) -> Optional[dict]:
    """The variable involution that maps lhs onto rhs and rhs onto lhs, or None."""
    image = {}

    def onto(s, t):
        if isinstance(s, str) or isinstance(t, str):
            return isinstance(s, str) and isinstance(t, str) and image.setdefault(s, t) == t
        return onto(s[0], t[0]) and image.setdefault(s[1], t[1]) == t[1] and onto(s[2], t[2])
    return image if onto(lhs, rhs) and onto(rhs, lhs) else None


class Law(Enum):
    """An identity lhs == rhs over all elements and gammas, given by its terms.

    ``holds(G)`` (its ``compile_holds``) decides whether the law holds and
    ``scan(G)`` (its ``compile_scan``) finds the first violated instance; each
    compiles on first use.  ``mirror`` is the variable involution that swaps the
    terms, found by unifying them (None when there is none), and ``instances``
    the search's values of the law's ``variables``: one per mirror pair, with
    the self-mirror ones dropped.  The search runs them through
    ``compile_propagate``, probes inline and both outermost cells watched.
    Adding a law is one line here.
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
        return law

    @cached_property
    def mirror(self) -> Optional[dict]:
        return _mirror(*self.terms)

    def instances(self, n: int, m: int) -> list[tuple]:
        """Values of ``variables`` over n elements and m gammas, each smaller than
        its mirror image (where ``x`` takes the value of ``mirror[x]``)."""
        values = product(*(range(m) if is_gamma else range(n) for _, is_gamma in self.variables))
        if self.mirror is None:
            return list(values)
        names = [v for v, _ in self.variables]
        image = [names.index(self.mirror[v]) for v in names]
        return [v for v in values if v < tuple(v[i] for i in image)]

    @cached_property
    def holds(self):
        return compile_holds(self.terms)

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
    ``MAX_LAW_INSTANCES`` instances is refused before it starts.
    """
    def scan():
        instances = prod(G.gamma_count if is_gamma else G.order for _, is_gamma in law.variables)
        if instances > MAX_LAW_INSTANCES:
            raise LimitExceededError(f"{law.value} scan over {instances} instances refused "
                                     f"beyond {MAX_LAW_INSTANCES}")
        return None if law.holds(G) else law.scan(G)
    witness = _fact(G, law, scan)
    return LawVerdict(witness is None, witness)


def law_sides(G: GammaGroupoid, law: Law, witness: tuple) -> tuple[int, int]:
    """Evaluate both sides of ``law`` at a witness-shaped tuple."""
    env = dict(zip((v for v, _ in law.variables), witness))

    def value(term):
        if isinstance(term, str):
            return env[term]
        left, g, right = term
        return G.tables[env[g]][value(left)][value(right)]
    return tuple(map(value, law.terms))


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
