"""Ideal predicates, enumeration, closures, primeness and the ideal semilattice.

Every predicate works on subsets given as bitmasks and reports, on failure,
which clause broke and a first witness in a fixed scan order (element
variables outer, gamma variables inner, all ascending).

Each clause is stated once, as a term like a law's, compiled into its witness
scan and into a product of S and the carrier G, read through ``subset_product``
for one subset and, to enumerate, from the structure's powerset kernel
(24·2ⁿ bytes), refused above ``MAX_ENUM_ORDER`` elements.  Whatever pairs or
triples the two-sided ideals, primeness and the semilattice, refuses more than
``MAX_PAIRED_IDEALS`` of them.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from typing import Optional

from .core import (
    GammaGroupoid,
    LimitExceededError,
    _check_width,
    _fact,
    _powerset_kernel,
    compile_scan,
    is_regular,
    subset_product,
)

MAX_ENUM_ORDER = 20  # the powerset kernel takes 24·2**20 bytes, about 25 MB
# the semilattice's associativity check takes two products per triple of ideals,
# 2·64³ at this bound, about 1 s
MAX_PAIRED_IDEALS = 64

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


# (label, term whose values must lie in S, the variables ranging over S); a term
# is written like a law's, each variable once, or is (term, "&", term) for the
# intersection, which reports the least element outside S as its witness
_SUB = ((SUB_GROUPOID, ("a", "g", "b"), "ab"),)
_LEFT = ((LEFT_ABSORB, ("x", "g", "s"), "s"),)
_RIGHT = ((RIGHT_ABSORB, ("s", "g", "x"), "s"),)
_BI = ((BI_ABSORB, (("s", "g", "x"), "d", "t"), "st"),)
_QUASI = ((QUASI_INTERSECTION, (("x", "g", "s"), "&", ("s", "g", "x")), "s"),)
_INTERIOR = ((INTERIOR_ABSORB, (("x", "g", "s"), "d", "y"), "s"),)


def _source(term, over_s, kernel: bool) -> str:
    """Python source of the mask of ``term``'s values, each variable of ``over_s``
    read as S and every other element variable as the carrier F, a product read
    from the powerset kernel's GS, SG and SS where ``kernel`` allows, else through P."""
    if isinstance(term, str):
        return "S" if term in over_s else "F"
    a, b = (_source(t, over_s, kernel) for t in term[::2])
    if term[1] == "&":
        return f"{a} & {b}"
    if not kernel or "F" not in (a, b) and (a, b) != ("S", "S"):
        return f"P({a}, {b})"
    return f"GS[{b}]" if a == "F" else f"SG[{a}]" if b == "F" else "SS[S]"


class IdealKind(Enum):
    """A kind of ideal, given by its clauses in report order.  Per clause, ``inside``
    is ``f(P, F, S)``, the mask that must lie inside S, and ``witness`` is ``f(G, S)``,
    the first instance of the term valued outside S (None for an intersection);
    ``scan`` is ``f(GS, SG, SS, P, F, N)``, every S in 1..N-1 that passes,
    ascending.  All three compile from the clause terms on first use."""
    SUB_GROUPOID = "sub", _SUB
    LEFT = "left", _LEFT
    RIGHT = "right", _RIGHT
    TWO_SIDED = "two-sided", _LEFT + _RIGHT
    BI = "bi", _SUB + _BI
    QUASI = "quasi", _SUB + _QUASI
    INTERIOR = "interior", _SUB + _INTERIOR

    def __new__(cls, value, clauses):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.clauses = clauses
        return kind

    @cached_property
    def inside(self):
        return tuple(eval(f"lambda P, F, S: {_source(*c, False)}") for _, *c in self.clauses)

    @cached_property
    def witness(self):
        return tuple(None if term[1] == "&" else compile_scan((term,), "not S >> {0} & 1", over_s)
                     for _, term, over_s in self.clauses)

    @cached_property
    def scan(self):
        passes = " and ".join(f"not ({_source(*c, True)}) & ~S" for _, *c in self.clauses)
        return eval(f"lambda GS, SG, SS, P, F, N: [S for S in range(1, N) if {passes}]")


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


def is_ideal(G: GammaGroupoid, S: int, kind: IdealKind) -> IdealVerdict:
    """Check the clauses defining ``kind`` for subset S; empty subsets are rejected."""
    _check_width(G, S)
    if S == 0:
        return IdealVerdict(False, NON_EMPTY)
    P = partial(subset_product, G)
    for (label, _, _), inside, scan in zip(kind.clauses, kind.inside, kind.witness):
        if outside := inside(P, G.carrier, S) & ~S:
            witness = scan(G, S) if scan else ((outside & -outside).bit_length() - 1,)
            return IdealVerdict(False, label, witness)
    return IdealVerdict(True)


def check_enum_order(G: GammaGroupoid) -> None:
    """Refuse a carrier of more than ``MAX_ENUM_ORDER`` elements, whose subsets
    are not enumerated."""
    if G.order > MAX_ENUM_ORDER:
        raise LimitExceededError(
            f"subset enumeration over {G.order} elements refused beyond {MAX_ENUM_ORDER}")


def enumerate_ideals(G: GammaGroupoid, kind: IdealKind) -> list[int]:
    """All subsets passing ``kind``, ascending by bitmask value; found once per
    structure and kind from its powerset kernel, with the order bound checked
    first and a new list on every call."""
    check_enum_order(G)
    return list(_fact(G, kind, lambda: array("Q", kind.scan(
        *_fact(G, "powerset", lambda: _powerset_kernel(G)),
        partial(subset_product, G), G.carrier, 1 << G.order))))


def paired_ideals(G: GammaGroupoid) -> list[int]:
    """The two-sided ideals, for a caller that pairs or triples them: more than
    ``MAX_PAIRED_IDEALS`` are refused before the first product."""
    ideals = enumerate_ideals(G, IdealKind.TWO_SIDED)
    if len(ideals) > MAX_PAIRED_IDEALS:
        raise LimitExceededError(f"pairing {len(ideals)} two-sided ideals refused "
                                 f"beyond {MAX_PAIRED_IDEALS}")
    return ideals


_CLOSURE_KINDS = (IdealKind.SUB_GROUPOID, IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED)


def ideal_closure(G: GammaGroupoid, A: int, kind: IdealKind) -> int:
    """Smallest superset of A closed under the kind's absorbing clauses."""
    if kind not in _CLOSURE_KINDS:
        raise ValueError(f"no closure for kind {kind.value!r}")
    _check_width(G, A)
    if A == 0:
        raise ValueError("closure of the empty subset is undefined")
    P = partial(subset_product, G)
    S, new = 0, A
    while new != S:
        S = new
        for inside in kind.inside:
            new |= inside(P, G.carrier, S)
    return S


def is_idempotent(G: GammaGroupoid, A: int) -> bool:
    return subset_product(G, A, A) == A


def principal_left(G: GammaGroupoid, a: int) -> int:
    """The product of the whole carrier with {a}."""
    if not 0 <= a < G.order:
        raise IndexError(f"element index {a} out of range")
    return subset_product(G, G.carrier, 1 << a)


def is_prime(G: GammaGroupoid, P: int) -> IdealVerdict:
    """P prime: for all two-sided ideals A, B, A.B <= P forces A <= P or B <= P."""
    base = is_ideal(G, P, IdealKind.TWO_SIDED)
    if not base.holds:
        return base
    ideals = paired_ideals(G)
    for A in ideals:
        if A & ~P == 0:
            continue
        for B in ideals:
            if B & ~P and subset_product(G, A, B) & ~P == 0:
                return IdealVerdict(False, PRIME, (A, B))
    return IdealVerdict(True)


def is_semiprime(G: GammaGroupoid, P: int) -> IdealVerdict:
    """P semiprime: for every two-sided ideal A, A.A <= P forces A <= P."""
    base = is_ideal(G, P, IdealKind.TWO_SIDED)
    if not base.holds:
        return base
    for A in enumerate_ideals(G, IdealKind.TWO_SIDED):
        if A & ~P and subset_product(G, A, A) & ~P == 0:
            return IdealVerdict(False, SEMIPRIME, (A,))
    return IdealVerdict(True)


@dataclass(frozen=True)
class SemilatticeReport:
    """Two-sided ideals under the subset product, with exhaustively checked flags.

    ``products[i][j]`` is the product mask of ideals i and j; ``closed`` says
    whether every product is itself in ``ideals``.  The other flags are
    computed from the products directly, so they are meaningful either way.
    """
    ideals: tuple[int, ...]
    products: tuple[tuple[int, ...], ...]
    closed: bool
    commutative: bool
    associative: bool
    idempotent: bool
    regular: bool


def build_ideal_semilattice(G: GammaGroupoid) -> SemilatticeReport:
    ideals = paired_ideals(G)
    products = tuple(tuple(subset_product(G, A, B) for B in ideals) for A in ideals)
    closed = {p for row in products for p in row} <= set(ideals)
    k = len(ideals)
    commutative = all(products[i][j] == products[j][i] for i in range(k) for j in range(k))
    idempotent = all(products[i][i] == ideals[i] for i in range(k))
    associative = all(
        subset_product(G, products[i][j], ideals[l]) ==
        subset_product(G, ideals[i], products[j][l])
        for i in range(k) for j in range(k) for l in range(k))
    return SemilatticeReport(tuple(ideals), products, closed,
                             commutative, associative, idempotent, is_regular(G))
