"""Ideal predicates, enumeration, closures, primeness and the ideal semilattice.

Every predicate works on subsets given as bitmasks and reports, on failure,
which clause broke and a first witness in a fixed scan order (element
variables outer, gamma variables inner, all ascending).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Optional

from .core import (
    GammaGroupoid,
    LimitExceededError,
    _check_width,
    compile_scan,
    is_regular,
    members,
    subset_product,
)

DEFAULT_ENUM_LIMIT = 20  # 2**20 subsets is the worst case we accept by default

# clause labels used in verdicts
NON_EMPTY = "NonEmpty"
SUB_GROUPOID = "SubGroupoid"
LEFT_ABSORB = "LeftAbsorb"
RIGHT_ABSORB = "RightAbsorb"
BI_ABSORB = "BiAbsorb"
QUASI_INTERSECTION = "QuasiIntersection"
INTERIOR_ABSORB = "InteriorAbsorb"
PRIME = "Prime"
SEMIPRIME = "Semiprime"


class IdealKind(Enum):
    SUB_GROUPOID = "sub"
    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two-sided"
    BI = "bi"
    QUASI = "quasi"
    INTERIOR = "interior"


@dataclass(frozen=True)
class IdealVerdict:
    """holds, or the first failed clause plus a witness violating it.

    Clause witnesses alternate elements and gamma indices, e.g. (g, gamma, s)
    for LeftAbsorb meaning g gamma s lands outside the subset; the quasi
    clause reports the single offending element.  Prime/semiprime witnesses
    are the violating ideal masks instead.
    """
    holds: bool
    failed_clause: Optional[str] = None
    witness: Optional[tuple] = None


def _clause_scan(term, over_s):
    """First instance of ``term``'s variables valued outside S; compiled on first use."""
    scan = cache(lambda: compile_scan((term,), "not S >> {0} & 1", over_s))
    return lambda G, S: scan()(G, S)


# witness scans, run only after the cheap mask check failed
_sub_witness = _clause_scan(("a", "g", "b"), "ab")
_left_witness = _clause_scan(("x", "g", "s"), "s")
_right_witness = _clause_scan(("s", "g", "x"), "s")
_bi_witness = _clause_scan((("s", "g", "x"), "d", "t"), "st")
_interior_witness = _clause_scan((("x", "g", "s"), "d", "y"), "s")


def _clauses(G: GammaGroupoid, S: int, kind: IdealKind):
    """Yield (label, holds, witness_fn) per clause of the given kind, in report order."""
    full = G.carrier
    if kind in (IdealKind.SUB_GROUPOID, IdealKind.BI, IdealKind.QUASI, IdealKind.INTERIOR):
        yield SUB_GROUPOID, subset_product(G, S, S) & ~S == 0, _sub_witness
    if kind in (IdealKind.LEFT, IdealKind.TWO_SIDED):
        yield LEFT_ABSORB, subset_product(G, full, S) & ~S == 0, _left_witness
    if kind in (IdealKind.RIGHT, IdealKind.TWO_SIDED):
        yield RIGHT_ABSORB, subset_product(G, S, full) & ~S == 0, _right_witness
    if kind is IdealKind.BI:
        prod = subset_product(G, subset_product(G, S, full), S)
        yield BI_ABSORB, prod & ~S == 0, _bi_witness
    if kind is IdealKind.QUASI:
        inter = subset_product(G, full, S) & subset_product(G, S, full)
        bad = inter & ~S
        yield QUASI_INTERSECTION, bad == 0, lambda G, S, bad=bad: (members(bad)[0],)
    if kind is IdealKind.INTERIOR:
        prod = subset_product(G, subset_product(G, full, S), G.carrier)
        yield INTERIOR_ABSORB, prod & ~S == 0, _interior_witness


def is_ideal(G: GammaGroupoid, S: int, kind: IdealKind) -> IdealVerdict:
    """Check the clauses defining ``kind`` for subset S; empty subsets are rejected."""
    _check_width(G, S)
    if S == 0:
        return IdealVerdict(False, NON_EMPTY)
    for label, ok, witness_fn in _clauses(G, S, kind):
        if not ok:
            return IdealVerdict(False, label, witness_fn(G, S))
    return IdealVerdict(True)


def _holds(G: GammaGroupoid, S: int, kind: IdealKind) -> bool:
    return S != 0 and all(ok for _, ok, _ in _clauses(G, S, kind))


def enumerate_ideals(G: GammaGroupoid, kind: IdealKind,
                     limit: int = DEFAULT_ENUM_LIMIT) -> list[int]:
    """All subsets passing ``kind``, ascending by bitmask value."""
    if G.order > limit:
        raise LimitExceededError(
            f"subset enumeration over {G.order} elements exceeds the limit of {limit}; "
            "pass a larger limit explicitly to override")
    return [S for S in range(1, 1 << G.order) if _holds(G, S, kind)]


_CLOSURE_KINDS = (IdealKind.SUB_GROUPOID, IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED)


def ideal_closure(G: GammaGroupoid, A: int, kind: IdealKind) -> int:
    """Smallest superset of A closed under the kind's absorbing clauses."""
    if kind not in _CLOSURE_KINDS:
        raise ValueError(f"no closure for kind {kind.value!r}")
    _check_width(G, A)
    if A == 0:
        raise ValueError("closure of the empty subset is undefined")
    full = G.carrier
    S = A
    while True:
        new = S
        if kind is IdealKind.SUB_GROUPOID:
            new |= subset_product(G, S, S)
        if kind in (IdealKind.LEFT, IdealKind.TWO_SIDED):
            new |= subset_product(G, full, S)
        if kind in (IdealKind.RIGHT, IdealKind.TWO_SIDED):
            new |= subset_product(G, S, full)
        if new == S:
            return S
        S = new


def is_idempotent(G: GammaGroupoid, A: int) -> bool:
    return subset_product(G, A, A) == A


def principal_left(G: GammaGroupoid, a: int) -> int:
    """The product of the whole carrier with {a}."""
    if not 0 <= a < G.order:
        raise IndexError(f"element index {a} out of range")
    return subset_product(G, G.carrier, 1 << a)


def is_prime(G: GammaGroupoid, P: int,
             limit: int = DEFAULT_ENUM_LIMIT) -> IdealVerdict:
    """P prime: for all two-sided ideals A, B, A.B <= P forces A <= P or B <= P."""
    base = is_ideal(G, P, IdealKind.TWO_SIDED)
    if not base.holds:
        return base
    ideals = enumerate_ideals(G, IdealKind.TWO_SIDED, limit)
    for A in ideals:
        if A & ~P == 0:
            continue
        for B in ideals:
            if B & ~P and subset_product(G, A, B) & ~P == 0:
                return IdealVerdict(False, PRIME, (A, B))
    return IdealVerdict(True)


def is_semiprime(G: GammaGroupoid, P: int,
                 limit: int = DEFAULT_ENUM_LIMIT) -> IdealVerdict:
    """P semiprime: for every two-sided ideal A, A.A <= P forces A <= P."""
    base = is_ideal(G, P, IdealKind.TWO_SIDED)
    if not base.holds:
        return base
    for A in enumerate_ideals(G, IdealKind.TWO_SIDED, limit):
        if A & ~P and subset_product(G, A, A) & ~P == 0:
            return IdealVerdict(False, SEMIPRIME, (A,))
    return IdealVerdict(True)


@dataclass(frozen=True)
class SemilatticeReport:
    """Two-sided ideals under the subset product, with exhaustively checked flags.

    ``products[i][j]`` is the product mask of ideals i and j; ``table[i][j]``
    is its index in ``ideals`` or None when the product is not itself in the
    list (possible only when ``closed`` is False).  The four flags are
    computed from the products directly, so they are meaningful either way.
    """
    ideals: tuple[int, ...]
    products: tuple[tuple[int, ...], ...]
    table: tuple[tuple[Optional[int], ...], ...]
    closed: bool
    commutative: bool
    associative: bool
    idempotent: bool
    regular: bool


def build_ideal_semilattice(G: GammaGroupoid,
                            limit: int = DEFAULT_ENUM_LIMIT) -> SemilatticeReport:
    ideals = enumerate_ideals(G, IdealKind.TWO_SIDED, limit)
    position = {S: i for i, S in enumerate(ideals)}
    products = tuple(tuple(subset_product(G, A, B) for B in ideals) for A in ideals)
    table = tuple(tuple(position.get(p) for p in row) for row in products)
    closed = all(idx is not None for row in table for idx in row)
    k = len(ideals)
    commutative = all(products[i][j] == products[j][i] for i in range(k) for j in range(k))
    idempotent = all(products[i][i] == ideals[i] for i in range(k))
    associative = all(
        subset_product(G, products[i][j], ideals[l]) ==
        subset_product(G, ideals[i], products[j][l])
        for i in range(k) for j in range(k) for l in range(k))
    return SemilatticeReport(tuple(ideals), products, table, closed,
                             commutative, associative, idempotent, is_regular(G))
