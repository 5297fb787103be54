"""Cayley-table bundles and their defining laws.

A structure is a finite carrier {0, .., n-1} together with one n-by-n
multiplication table per gamma operation, so ``tables[g][a][b]`` is the
product of a and b under the g-th operation.  Elements and gamma operations
are 0-based indices everywhere in this package; display labels live on the
structure and matter only for parsing and reports.  Subsets of the carrier
are plain int bitmasks (bit i set <=> element i present).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Literal, Optional

MAX_ORDER = 64  # one bit per element in a subset mask


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
        n = len(self.labels)
        m = len(self.gamma_names)
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

    @classmethod
    def from_tables(cls, tables, labels=None, gamma_names=None) -> "GammaGroupoid":
        """Build from nested sequences, defaulting labels to 1..n and gamma names to g1..gm."""
        tt = tuple(tuple(tuple(int(v) for v in row) for row in t) for t in tables)
        n = len(tt[0]) if tt else 0
        if labels is None:
            labels = default_labels(n)
        if gamma_names is None:
            gamma_names = default_gamma_names(len(tt))
        return cls(tt, tuple(labels), tuple(gamma_names))

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def gamma_count(self) -> int:
        return len(self.gamma_names)

    @property
    def carrier(self) -> int:
        """Bitmask of the whole carrier."""
        return (1 << self.order) - 1

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
        return tuple(self.labels[i] for i in members(mask))

    def __repr__(self):
        return f"GammaGroupoid(order={self.order}, gammas={self.gamma_count})"


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n))


def default_gamma_names(m: int) -> tuple[str, ...]:
    return tuple(f"g{i + 1}" for i in range(m))


# ---------------------------------------------------------------------------
# subsets as bitmasks

def subset_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def members(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _check_width(G: GammaGroupoid, mask: int, what: str = "subset"):
    if mask < 0 or mask >> G.order:
        raise ValueError(f"{what} {mask:#x} does not fit carrier of size {G.order}")


def subset_product(G: GammaGroupoid, A: int, B: int) -> int:
    """All products a g b with a in A, g ranging over every gamma, b in B."""
    _check_width(G, A, "left operand")
    _check_width(G, B, "right operand")
    result = 0
    bs = members(B)
    for a in members(A):
        for table in G.tables:
            row = table[a]
            for b in bs:
                result |= 1 << row[b]
    return result


# ---------------------------------------------------------------------------
# laws as terms
#
# A term is an element variable (a string) or a (left, gamma, right) triple
# whose middle entry names a gamma variable; (("a", "g", "b"), "d", "c") reads
# (a g b) d c.  Terms are compiled into nested Python loops on first use:
# walking the term tree at every instance makes check_law several times
# slower, and compiling at import would be a large share of the import time.

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


class Law(Enum):
    """An identity lhs == rhs over all elements and gammas, given by its terms.

    ``sides(T, values)`` evaluates both terms on the tables T at values of the
    law's ``variables``; ``scan(G)`` is its ``compile_scan``.  Adding a law is
    one line here.
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
    def sides(self):
        lhs, rhs = self.terms
        unpack = "".join(f"v_{v}, " for v, _ in self.variables)
        return _define(["def f(T, values):", f"    {unpack}= values",
                        f"    return {_expr(lhs)}, {_expr(rhs)}"])

    @cached_property
    def scan(self):
        return compile_scan(self.terms, "{0} != {1}")


# ---------------------------------------------------------------------------
# law checking

def check_law(G: GammaGroupoid, law: Law) -> LawVerdict:
    """Exhaustively check one law; report the first violation in scan order.

    Scan order is element variables outer, gamma variables inner, each in
    order of first appearance in the law's left-hand term and ascending, so
    the reported witness is reproducible.
    """
    witness = law.scan(G)
    return LawVerdict(witness is None, witness)


def law_sides(G: GammaGroupoid, law: Law, witness: tuple) -> tuple[int, int]:
    """Evaluate both sides of ``law`` at a witness-shaped tuple."""
    return law.sides(G.tables, witness)


def identities(G: GammaGroupoid, side: Literal["left", "right"]) -> set[int]:
    """Elements e with e g a == a for all a, g (side="left"), or a g e == a (side="right")."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = G.order
    out = set()
    for e in range(n):
        if side == "left":
            ok = all(t[e][a] == a for t in G.tables for a in range(n))
        else:
            ok = all(t[a][e] == a for t in G.tables for a in range(n))
        if ok:
            out.add(e)
    return out


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
    return all(regular_witness(G, a) is not None for a in range(G.order))
