"""Ideal predicates, enumeration, closures, primeness and the ideal semilattice.

Every predicate works on subsets given as bitmasks and reports, on failure,
which clause broke and a first witness in a fixed scan order (element
variables outer, gamma variables inner, all ascending).

Each clause is stated once, as a term like a law's, compiled into its witness
scan and into one form of its product of S and the carrier G, read from the
structure's powerset kernel (24·2ⁿ bytes) when it holds one, else from lookups
through ``subset_product``; only enumeration builds the kernel, refused above
``MAX_ENUM_ORDER`` elements.  Primeness, the semilattice and the catalog read one
kept table of the products of two-sided ideals, refused beyond ``MAX_PAIRED_IDEALS``.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from typing import Optional

from .core import (
    GammaGroupoid,
    _LazyMap,
    _check_width,
    _fact,
    _powerset_kernel,
    _refuse_beyond,
    compile_scan,
    is_regular,
    subset_product,
)

MAX_ENUM_ORDER = 20  # the powerset kernel takes 24·2**20 bytes, about 25 MB
# the semilattice's associativity check computes the products that are not in the
# paired table, at most two per triple of ideals: 2·64³ at this bound, about 1 s
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


def _source(term, over_s) -> str:
    """Python source of the mask of ``term``'s values, each variable of ``over_s``
    read as S and every other element variable as the carrier F: a product of F
    or of S with itself is read from GS, SG or SS, any other through P."""
    if isinstance(term, str):
        return "S" if term in over_s else "F"
    a, b = (_source(t, over_s) for t in term[::2])
    if term[1] == "&":
        return f"{a} & {b}"
    if "F" not in (a, b) and (a, b) != ("S", "S"):
        return f"P({a}, {b})"
    return f"GS[{b}]" if a == "F" else f"SG[{a}]" if b == "F" else "SS[S]"


class IdealKind(Enum):
    """A kind of ideal, given by its clauses in report order.  Per clause, ``inside``
    is ``f(GS, SG, SS, P, S)``, the mask that must lie inside S, and ``witness`` is
    ``f(G, S)``, the first instance of the term valued outside S (None for an
    intersection); ``scan`` is ``f(GS, SG, SS, P, N)``, every S in 1..N-1 that
    passes, ascending.  All three compile from the clause terms on first use."""
    SUB_GROUPOID = "sub", _SUB
    LEFT = "left", _LEFT
    RIGHT = "right", _RIGHT
    TWO_SIDED = "two-sided", _LEFT + _RIGHT
    BI = "bi", _SUB + _BI
    QUASI = "quasi", _SUB + _QUASI
    INTERIOR = "interior", _SUB + _INTERIOR

    __hash__ = object.__hash__  # each member is one object, compared by identity

    def __new__(cls, value, clauses):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.clauses = clauses
        return kind

    @cached_property
    def inside(self):
        return tuple(eval(f"lambda GS, SG, SS, P, S: {_source(*c)}") for _, *c in self.clauses)

    @cached_property
    def witness(self):
        return tuple(None if term[1] == "&" else compile_scan((term,), "not S >> {0} & 1", over_s)
                     for _, term, over_s in self.clauses)

    @cached_property
    def scan(self):
        passes = " and ".join(f"not ({_source(*c)}) & ~S" for _, *c in self.clauses)
        return eval(f"lambda GS, SG, SS, P, N: [S for S in range(1, N) if {passes}]")


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


_HOLDS = IdealVerdict(True)  # shared, so a subset that passes allocates nothing


def _products(G: GammaGroupoid) -> tuple:
    """``(GS, SG, SS, P)`` for ``IdealKind.inside``: G's powerset kernel if G holds
    it, else lookups through ``subset_product``, so one subset builds no kernel."""
    P, F = partial(subset_product, G), G.carrier
    kernel = _fact(G, "powerset") or (
        _LazyMap(partial(P, F)), _LazyMap(lambda S: P(S, F)), _LazyMap(lambda S: P(S, S)))
    return (*kernel, P)


def is_ideal(G: GammaGroupoid, S: int, kind: IdealKind) -> IdealVerdict:
    """Check the clauses defining ``kind`` for subset S; empty subsets are rejected."""
    _check_width(G, S)
    if S == 0:
        return IdealVerdict(False, NON_EMPTY)
    products = _products(G)
    for (label, _, _), inside, scan in zip(kind.clauses, kind.inside, kind.witness):
        if outside := inside(*products, S) & ~S:
            witness = scan(G, S) if scan else ((outside & -outside).bit_length() - 1,)
            return IdealVerdict(False, label, witness)
    return _HOLDS


def check_enum_order(order: int) -> None:
    """Refuse a carrier of more than ``MAX_ENUM_ORDER`` elements, whose subsets
    are not enumerated."""
    _refuse_beyond(order, MAX_ENUM_ORDER, "subset enumeration over {} elements")


def enumerate_ideals(G: GammaGroupoid, kind: IdealKind) -> list[int]:
    """All subsets passing ``kind``, ascending by bitmask value; found once per
    structure and kind from its powerset kernel, with the order bound checked
    first and a new list on every call."""
    check_enum_order(G.order)
    return list(_fact(G, kind, lambda: array("Q", kind.scan(
        *_fact(G, "powerset", lambda: _powerset_kernel(G)),
        partial(subset_product, G), 1 << G.order))))


def paired_ideals(G: GammaGroupoid) -> tuple:
    """``(ideals, products)``: the two-sided ideals, ascending, and ``products[i][j]``,
    the product of ideal i with ideal j, as tuples built once per structure; more
    than ``MAX_PAIRED_IDEALS`` ideals are refused before the first product."""
    def pair():
        ideals = tuple(enumerate_ideals(G, IdealKind.TWO_SIDED))
        _refuse_beyond(len(ideals), MAX_PAIRED_IDEALS, "pairing {} two-sided ideals")
        return ideals, tuple(tuple(subset_product(G, A, B) for B in ideals) for A in ideals)
    return _fact(G, "paired", pair)


_CLOSURE_KINDS = (IdealKind.SUB_GROUPOID, IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED)


def ideal_closure(G: GammaGroupoid, A: int, kind: IdealKind) -> int:
    """Smallest superset of A closed under the kind's absorbing clauses."""
    if kind not in _CLOSURE_KINDS:
        raise ValueError(f"no closure for kind {kind.value!r}")
    _check_width(G, A)
    if A == 0:
        raise ValueError("closure of the empty subset is undefined")
    products = _products(G)
    S, new = 0, A
    while new != S:
        S = new
        for inside in kind.inside:
            new |= inside(*products, S)
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
    ideals, products = paired_ideals(G)
    for A, row in zip(ideals, products):
        for B, AB in zip(ideals, row):
            if A & ~P and B & ~P and AB & ~P == 0:
                return IdealVerdict(False, PRIME, (A, B))
    return _HOLDS


def is_semiprime(G: GammaGroupoid, P: int) -> IdealVerdict:
    """P semiprime: for every two-sided ideal A, A.A <= P forces A <= P."""
    base = is_ideal(G, P, IdealKind.TWO_SIDED)
    if not base.holds:
        return base
    for A in enumerate_ideals(G, IdealKind.TWO_SIDED):
        if A & ~P and subset_product(G, A, A) & ~P == 0:
            return IdealVerdict(False, SEMIPRIME, (A,))
    return _HOLDS


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
    ideals, products = paired_ideals(G)
    index = {A: i for i, A in enumerate(ideals)}
    closed = {p for row in products for p in row} <= index.keys()
    k = len(ideals)
    commutative = all(products[i][j] == products[j][i] for i in range(k) for j in range(k))
    idempotent = all(products[i][i] == ideals[i] for i in range(k))

    def times(A, B):  # read from the table when both factors are ideals
        if A in index and B in index:
            return products[index[A]][index[B]]
        return subset_product(G, A, B)
    associative = all(times(products[i][j], ideals[l]) == times(ideals[i], products[j][l])
                      for i in range(k) for j in range(k) for l in range(k))
    return SemilatticeReport(ideals, products, closed,
                             commutative, associative, idempotent, is_regular(G))
