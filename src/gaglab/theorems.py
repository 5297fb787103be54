"""Executable catalog of the ideal-theoretic statements, one ``LemmaId`` row per entry.

``verify`` returns a LemmaVerdict: NOT_APPLICABLE when the structure fails
the statement's hypotheses (with the failed hypothesis named), HOLDS when the
exhaustively checked conclusion is true, COUNTEREXAMPLE with a structured
witness otherwise; it raises ``LimitExceededError`` when a limit refuses the
check.  ``verify_all`` reports that refusal as a REFUSED verdict
carrying the limit's message, so one refused entry leaves the others decided,
but still refuses a carrier above the enumeration bound whole.
``hunt`` scans a stream of structures for the first counterexample to a given
entry, passing over the structures whose check is refused.

Witnesses are dicts whose values follow a small vocabulary: the keys in
``MASK_KEYS`` hold subset bitmasks, "element" holds an element index,
"gamma"/"gamma_b" hold gamma indices, "at" holds an alternating
element/gamma tuple as produced by the law and clause checkers,
"clause"/"law"/"side" hold strings, and remaining keys hold booleans.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable, Optional

from .core import (
    GammaGroupoid,
    Law,
    LimitExceededError,
    check_law,
    identities,
    is_regular,
    regular_witness,
    subset_product,
)
from .ideals import (
    IdealKind,
    build_ideal_semilattice,
    check_enum_order,
    enumerate_ideals,
    is_ideal,
    is_idempotent,
    is_semiprime,
    paired_ideals,
    principal_left,
)
from .search import Filter


MASK_KEYS = frozenset({"subset", "subset_b", "union", "product", "left_side", "right_side"})


class LemmaStatus(Enum):
    HOLDS = "holds"
    COUNTEREXAMPLE = "counterexample"
    NOT_APPLICABLE = "not-applicable"
    REFUSED = "refused"


@dataclass(frozen=True)
class LemmaVerdict:
    status: LemmaStatus
    hypothesis_failed: Optional[str] = None
    witness: Optional[dict] = None
    refusal: Optional[str] = None  # the message of the limit that refused the check


_HOLDS = LemmaVerdict(LemmaStatus.HOLDS)


def _na(which: str):
    return LemmaVerdict(LemmaStatus.NOT_APPLICABLE, hypothesis_failed=which)


def _cx(witness: dict):
    return LemmaVerdict(LemmaStatus.COUNTEREXAMPLE, witness=witness)


def _all_ideals(kind: IdealKind, candidates):
    """Verifier: every candidate is a ``kind`` ideal.

    ``candidates(G)`` yields (S, tested, extra); the first ``tested``
    that fails is reported as subset S, the failed clause, its witness and
    the extra witness keys.
    """
    def run(G):
        for S, tested, extra in candidates(G):
            v = is_ideal(G, tested, kind)
            if not v.holds:
                return _cx({"subset": S, "clause": v.failed_clause, "at": v.witness, **extra})
        return _HOLDS
    return run


def _ideals_of(kind: IdealKind):
    return lambda G: ((S, S, {}) for S in enumerate_ideals(G, kind))


def _one_sided(G):
    seen = set()
    for kind in (IdealKind.LEFT, IdealKind.RIGHT):
        for S in enumerate_ideals(G, kind):
            if S not in seen:
                seen.add(S)
                yield S, S, {"side": kind.value}


def _t1_unions(G):
    full = G.carrier
    for L in enumerate_ideals(G, IdealKind.LEFT):
        union = L | subset_product(G, L, full)
        yield L, union, {"union": union, "side": "left"}
    for R in enumerate_ideals(G, IdealKind.RIGHT):
        union = R | subset_product(G, full, R)
        yield R, union, {"union": union, "side": "right"}


def _idempotent_quasi(G):
    return ((Q, Q, {}) for Q in enumerate_ideals(G, IdealKind.QUASI)
            if is_idempotent(G, Q))


def _gG_and_Gg(G):
    full = G.carrier
    for g in range(G.order):
        for S, side in ((subset_product(G, 1 << g, full), "gG"),
                        (subset_product(G, full, 1 << g), "Gg")):
            yield S, S, {"element": g, "side": side}


def _aG(G):
    for a in range(G.order):
        S = subset_product(G, 1 << a, G.carrier)
        yield S, S, {"element": a}


def _principal_lefts(G):
    for a in range(G.order):
        S = principal_left(G, a)
        yield S, S, {"element": a}


def _verify_l1(G):
    base = G.tables[0]
    for g, a, b in product(range(1, G.gamma_count), range(G.order), range(G.order)):
        if G.tables[g][a][b] != base[a][b]:
            return _cx({"gamma": 0, "gamma_b": g, "at": (a, g, b)})
    # collapsed table is left invertive because the bundle already is
    return _HOLDS


def _verify_right_identity(G):
    rights = identities(G, "right")
    if not rights:
        return _na("right-identity")
    lefts = identities(G, "left")
    for e in sorted(rights):
        if e not in lefts:
            return _cx({"element": e, "side": "left"})
    return _law_lemma(Law.COMMUTATIVE, Law.ASSOCIATIVE)(G)


def _law_lemma(*laws: Law):
    def run(G):
        for law in laws:
            v = check_law(G, law)
            if not v.holds:
                return _cx({"law": law.value, "at": v.witness})
        return _HOLDS
    return run


def _verify_bi_product(G):
    full = G.carrier
    bis = enumerate_ideals(G, IdealKind.BI)
    passed = set()  # products already checked, each of which passed
    for B1 in bis:
        for B2 in bis:
            P = subset_product(G, B1, B2)
            if P in passed:
                continue
            if subset_product(G, subset_product(G, P, full), P) & ~P:
                return _cx({"subset": B1, "subset_b": B2, "product": P})
            passed.add(P)
    return _HOLDS


def _same_ideals(kind_a: IdealKind, kind_b: IdealKind):
    """Every subset is a kind_a ideal exactly when it is a kind_b ideal."""
    def run(G):
        a = set(enumerate_ideals(G, kind_a))
        b = set(enumerate_ideals(G, kind_b))
        if a == b:
            return _HOLDS
        S = min(a ^ b)
        return _cx({"subset": S, kind_a.value: S in a, kind_b.value: S in b})
    return run


def _equal_products(*checks):
    """Verifier: for each (kind, product, extra) in turn, every ``kind`` ideal S
    equals ``product(G, S)``; the first that does not is reported with its
    product and the extra witness keys."""
    def run(G):
        for kind, product_of, extra in checks:
            for S in enumerate_ideals(G, kind):
                p = product_of(G, S)
                if p != S:
                    return _cx({"subset": S, "product": p, **extra})
        return _HOLDS
    return run


def _verify_gg_regular(G):
    p = subset_product(G, G.carrier, G.carrier)
    if p != G.carrier:
        return _cx({"product": p})
    return _HOLDS


def _verify_regular_iff_idempotent_left(G):
    regular = is_regular(G)
    bad = None
    for L in enumerate_ideals(G, IdealKind.LEFT):
        if not is_idempotent(G, L):
            bad = L
            break
    if regular and bad is not None:
        return _cx({"regular": True, "subset": bad,
                    "product": subset_product(G, bad, bad)})
    if not regular and bad is None:
        elem = next(a for a in range(G.order) if regular_witness(G, a) is None)
        return _cx({"regular": False, "element": elem})
    return _HOLDS


def _verify_semiprime_regular(G):
    for P in paired_ideals(G):
        v = is_semiprime(G, P)
        if not v.holds:
            return _cx({"subset": P, "subset_b": v.witness[0]})
    return _HOLDS


def _verify_semilattice(G):
    rep = build_ideal_semilattice(G)
    if rep.closed and rep.commutative and rep.associative and rep.idempotent:
        return _HOLDS
    return _cx({"closed": rep.closed, "commutative": rep.commutative,
                "associative": rep.associative, "idempotent": rep.idempotent})


def _verify_comm_ideals_regular(G):
    ideals = paired_ideals(G)
    for A in ideals:
        for B in ideals:
            ab = subset_product(G, A, B)
            ba = subset_product(G, B, A)
            if ab != ba:
                return _cx({"subset": A, "subset_b": B,
                            "left_side": ab, "right_side": ba})
    return _HOLDS


_LI = (Filter.LEFT_INVERTIVE,)
_AGSS = _LI + (Filter.AG_STAR_STAR,)
_REG = _LI + (Filter.REGULAR,)
_AGSS_REG = _AGSS + (Filter.REGULAR,)


class LemmaId(Enum):
    """The catalog, one row per entry: id, hypotheses, verifier.

    The hypotheses are search filters in gate order: ``verify`` reports the
    first that fails as not-applicable and otherwise runs the verifier,
    ``HUNT_FILTERS`` restricts a hunt stream to them.  Adding a lemma is one
    row here.
    """
    L1_LEFT_IDENTITY_COLLAPSE = ("l1-left-identity-collapse",
                                 _LI + (Filter.HAS_LEFT_IDENTITY,), _verify_l1)
    L_RIGHT_IDENTITY = "l-right-identity", _LI, _verify_right_identity
    T1_UNION_CONSTRUCTION = ("t1-union-construction", _AGSS,
                             _all_ideals(IdealKind.TWO_SIDED, _t1_unions))
    L_MEDIAL = "l-medial", _LI, _law_lemma(Law.MEDIAL)
    L_PARAMEDIAL = "l-paramedial", _AGSS, _law_lemma(Law.PARAMEDIAL)
    L_ONE_SIDED_QUASI = "l-one-sided-quasi", _LI, _all_ideals(IdealKind.QUASI, _one_sided)
    L_RLB_ONE_SIDED_BI = "l-rlb-one-sided-bi", _LI, _all_ideals(IdealKind.BI, _one_sided)
    C_IDEAL_BI = ("c-ideal-bi", _LI,
                  _all_ideals(IdealKind.BI, _ideals_of(IdealKind.TWO_SIDED)))
    L_BI_PRODUCT = "l-bi-product", _AGSS, _verify_bi_product
    L_IDEM_QUASI_BI = "l-idem-quasi-bi", _LI, _all_ideals(IdealKind.BI, _idempotent_quasi)
    L_IDEAL_INTERIOR = ("l-ideal-interior", _LI,
                        _all_ideals(IdealKind.INTERIOR, _ideals_of(IdealKind.TWO_SIDED)))
    L_INTERIOR_IFF_RIGHT = ("l-interior-iff-right", _AGSS,
                            _same_ideals(IdealKind.INTERIOR, IdealKind.RIGHT))
    L_ABSORPTION_REGULAR = ("l-absorption-regular", _REG, _equal_products(
        (IdealKind.RIGHT, lambda G, S: subset_product(G, S, G.carrier), {"side": "right"}),
        (IdealKind.LEFT, lambda G, S: subset_product(G, G.carrier, S), {"side": "left"})))
    L_GG_BI = "l-gg-bi", _AGSS, _all_ideals(IdealKind.BI, _gG_and_Gg)
    C_AG_BI_REGULAR = "c-ag-bi-regular", _AGSS_REG, _all_ideals(IdealKind.BI, _aG)
    L_BGB_REGULAR = ("l-bgb-regular", _REG, _equal_products(
        (IdealKind.BI, lambda G, S: subset_product(G, subset_product(G, S, G.carrier), S), {})))
    L_GG_REGULAR = "l-gg-regular", _REG, _verify_gg_regular
    L_LEFT_IFF_RIGHT_REGULAR = ("l-left-iff-right-regular", _AGSS_REG,
                                _same_ideals(IdealKind.LEFT, IdealKind.RIGHT))
    T_REGULAR_IFF_IDEMPOTENT_LEFT = ("t-regular-iff-idempotent-left", _AGSS,
                                     _verify_regular_iff_idempotent_left)
    L_SEMIPRIME_REGULAR = "l-semiprime-regular", _REG, _verify_semiprime_regular
    T_SEMILATTICE = "t-semilattice", _REG, _verify_semilattice
    L_COMM_IDEALS_REGULAR = "l-comm-ideals-regular", _REG, _verify_comm_ideals_regular
    L_IDEM_IDEALS_REGULAR = ("l-idem-ideals-regular", _REG, _equal_products(
        (IdealKind.TWO_SIDED, lambda G, S: subset_product(G, S, S), {})))
    L_PRINCIPAL_LEFT_AGSS = ("l-principal-left-agss", _AGSS,
                             _all_ideals(IdealKind.LEFT, _principal_lefts))

    def __new__(cls, value, hypotheses, verifier):
        lid = object.__new__(cls)
        lid._value_ = value
        lid.hypotheses = hypotheses
        lid.verifier = verifier
        return lid


# search filters restricting a hunt stream to each entry's hypotheses
HUNT_FILTERS: dict[LemmaId, tuple[str, ...]] = {
    lid: tuple(f.value for f in lid.hypotheses) for lid in LemmaId}

# hypothesis names reported where they differ from the filter's name
_HYPOTHESIS_LABELS = {Filter.HAS_LEFT_IDENTITY: "left-identity"}


def verify(G: GammaGroupoid, lid: LemmaId) -> LemmaVerdict:
    """Check one catalog entry on a structure."""
    for f in lid.hypotheses:
        if not f.holds(G):
            return _na(_HYPOTHESIS_LABELS.get(f, f.value))
    return lid.verifier(G)


def _decide(G: GammaGroupoid, lid: LemmaId) -> LemmaVerdict:
    """``verify``, with a check that a limit refuses reported as REFUSED."""
    try:
        return verify(G, lid)
    except LimitExceededError as exc:
        return LemmaVerdict(LemmaStatus.REFUSED, refusal=str(exc))


def verify_all(G: GammaGroupoid) -> dict[LemmaId, LemmaVerdict]:
    """Every entry's verdict, a refused check reported as REFUSED.  A carrier
    above the enumeration bound, which refuses the catalog's ideal scans, is
    refused whole before any entry runs."""
    check_enum_order(G)
    return {lid: _decide(G, lid) for lid in LemmaId}


def hunt(source: Iterable[GammaGroupoid], lid: LemmaId, refused: Optional[list] = None
         ) -> Optional[tuple[GammaGroupoid, LemmaVerdict]]:
    """First structure in the stream whose verdict is a counterexample, if any.
    A structure whose check is refused is passed over, and appended to
    ``refused`` when a list is given; one above the enumeration bound is
    refused as in ``verify_all``, ending the hunt."""
    for G in source:
        check_enum_order(G)
        v = _decide(G, lid)
        if v.status is LemmaStatus.COUNTEREXAMPLE:
            return G, v
        if v.status is LemmaStatus.REFUSED and refused is not None:
            refused.append(G)
    return None
