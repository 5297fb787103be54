"""Executable catalog of the ideal-theoretic statements, one verifier per entry.

Each verifier returns a LemmaVerdict: NOT_APPLICABLE when the structure fails
the statement's hypotheses (with the failed hypothesis named), HOLDS when the
exhaustively checked conclusion is true, COUNTEREXAMPLE with a structured
witness otherwise.  ``hunt`` scans a stream of structures for the first
counterexample to a given entry.

Witnesses are dicts whose values follow a small vocabulary: subset-valued
keys (subset, subset_b, union, product, left_side, right_side) hold bitmasks,
"element" holds an element index, "at" holds an alternating element/gamma
tuple as produced by the law and clause checkers, "clause"/"law"/"side" hold
strings, and remaining keys hold booleans.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .core import (
    GammaGroupoid,
    Law,
    check_law,
    identities,
    is_regular,
    members,
    regular_witness,
    subset_product,
)
from .ideals import (
    DEFAULT_ENUM_LIMIT,
    IdealKind,
    build_ideal_semilattice,
    enumerate_ideals,
    is_ideal,
    is_idempotent,
    is_semiprime,
    principal_left,
)


class LemmaStatus(Enum):
    HOLDS = "holds"
    COUNTEREXAMPLE = "counterexample"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class LemmaVerdict:
    status: LemmaStatus
    hypothesis_failed: Optional[str] = None
    witness: Optional[dict] = None
    note: Optional[str] = None


class LemmaId(Enum):
    L1_LEFT_IDENTITY_COLLAPSE = "l1-left-identity-collapse"
    L_RIGHT_IDENTITY = "l-right-identity"
    T1_UNION_CONSTRUCTION = "t1-union-construction"
    L_MEDIAL = "l-medial"
    L_PARAMEDIAL = "l-paramedial"
    L_ONE_SIDED_QUASI = "l-one-sided-quasi"
    L_RLB_ONE_SIDED_BI = "l-rlb-one-sided-bi"
    C_IDEAL_BI = "c-ideal-bi"
    L_BI_PRODUCT = "l-bi-product"
    L_IDEM_QUASI_BI = "l-idem-quasi-bi"
    L_IDEAL_INTERIOR = "l-ideal-interior"
    L_INTERIOR_IFF_RIGHT = "l-interior-iff-right"
    L_ABSORPTION_REGULAR = "l-absorption-regular"
    L_GG_BI = "l-gg-bi"
    C_AG_BI_REGULAR = "c-ag-bi-regular"
    L_BGB_REGULAR = "l-bgb-regular"
    L_GG_REGULAR = "l-gg-regular"
    L_LEFT_IFF_RIGHT_REGULAR = "l-left-iff-right-regular"
    T_REGULAR_IFF_IDEMPOTENT_LEFT = "t-regular-iff-idempotent-left"
    L_SEMIPRIME_REGULAR = "l-semiprime-regular"
    T_SEMILATTICE = "t-semilattice"
    L_COMM_IDEALS_REGULAR = "l-comm-ideals-regular"
    L_IDEM_IDEALS_REGULAR = "l-idem-ideals-regular"
    L_PRINCIPAL_LEFT_AGSS = "l-principal-left-agss"


# hypothesis labels (also usable as search filter names where a filter exists)
H_LEFT_INVERTIVE = "left-invertive"
H_AG_STAR_STAR = "ag-star-star"
H_REGULAR = "regular"
H_LEFT_IDENTITY = "left-identity"
H_RIGHT_IDENTITY = "right-identity"

_NEEDS_AGSS = {
    LemmaId.T1_UNION_CONSTRUCTION,
    LemmaId.L_PARAMEDIAL,
    LemmaId.L_BI_PRODUCT,
    LemmaId.L_INTERIOR_IFF_RIGHT,
    LemmaId.L_GG_BI,
    LemmaId.C_AG_BI_REGULAR,
    LemmaId.L_LEFT_IFF_RIGHT_REGULAR,
    LemmaId.T_REGULAR_IFF_IDEMPOTENT_LEFT,
    LemmaId.L_PRINCIPAL_LEFT_AGSS,
}
_NEEDS_REGULAR = {
    LemmaId.L_ABSORPTION_REGULAR,
    LemmaId.C_AG_BI_REGULAR,
    LemmaId.L_BGB_REGULAR,
    LemmaId.L_GG_REGULAR,
    LemmaId.L_LEFT_IFF_RIGHT_REGULAR,
    LemmaId.L_SEMIPRIME_REGULAR,
    LemmaId.T_SEMILATTICE,
    LemmaId.L_COMM_IDEALS_REGULAR,
    LemmaId.L_IDEM_IDEALS_REGULAR,
}

# filters (by search-filter name) restricting a hunt stream to the hypotheses
HUNT_FILTERS: dict[LemmaId, tuple[str, ...]] = {
    lid: (H_LEFT_INVERTIVE,)
    + ((H_AG_STAR_STAR,) if lid in _NEEDS_AGSS else ())
    + ((H_REGULAR,) if lid in _NEEDS_REGULAR else ())
    for lid in LemmaId
}
HUNT_FILTERS[LemmaId.L1_LEFT_IDENTITY_COLLAPSE] = (H_LEFT_INVERTIVE, "has-left-identity")


def _holds():
    return LemmaVerdict(LemmaStatus.HOLDS)


def _na(which: str):
    return LemmaVerdict(LemmaStatus.NOT_APPLICABLE, hypothesis_failed=which)


def _cx(witness: dict, note: Optional[str] = None):
    return LemmaVerdict(LemmaStatus.COUNTEREXAMPLE, witness=witness, note=note)


def _gate(G: GammaGroupoid, lid: LemmaId) -> Optional[LemmaVerdict]:
    if not check_law(G, Law.LEFT_INVERTIVE).holds:
        return _na(H_LEFT_INVERTIVE)
    if lid in _NEEDS_AGSS and not check_law(G, Law.AG_STAR_STAR).holds:
        return _na(H_AG_STAR_STAR)
    if lid in _NEEDS_REGULAR and not is_regular(G):
        return _na(H_REGULAR)
    return None


def _ideal_cx(S: int, verdict, **extra) -> LemmaVerdict:
    w = {"subset": S, "clause": verdict.failed_clause, "at": verdict.witness}
    w.update(extra)
    return _cx(w)


def _verify_l1(G, limit):
    if not identities(G, "left"):
        return _na(H_LEFT_IDENTITY)
    base = G.tables[0]
    for g in range(1, G.gamma_count):
        for a in range(G.order):
            for b in range(G.order):
                if G.tables[g][a][b] != base[a][b]:
                    return _cx({"gamma": 0, "gamma_b": g, "at": (a, g, b)})
    # collapsed table is left invertive because the bundle already is
    return _holds()


def _verify_right_identity(G, limit):
    rights = identities(G, "right")
    if not rights:
        return _na(H_RIGHT_IDENTITY)
    lefts = identities(G, "left")
    for e in sorted(rights):
        if e not in lefts:
            return _cx({"element": e, "side": "left"})
    return _law_lemma(Law.COMMUTATIVE, Law.ASSOCIATIVE)(G, limit)


def _verify_t1(G, limit):
    full = G.carrier
    for L in enumerate_ideals(G, IdealKind.LEFT, limit):
        union = L | subset_product(G, L, full)
        v = is_ideal(G, union, IdealKind.TWO_SIDED)
        if not v.holds:
            return _ideal_cx(L, v, union=union, side="left")
    for R in enumerate_ideals(G, IdealKind.RIGHT, limit):
        union = R | subset_product(G, full, R)
        v = is_ideal(G, union, IdealKind.TWO_SIDED)
        if not v.holds:
            return _ideal_cx(R, v, union=union, side="right")
    return _holds()


def _law_lemma(*laws: Law):
    def run(G, limit):
        for law in laws:
            v = check_law(G, law)
            if not v.holds:
                return _cx({"law": law.value, "at": v.witness})
        return _holds()
    return run


def _every_ideal_is(source_kind: IdealKind, target_kind: IdealKind):
    def run(G, limit):
        for S in enumerate_ideals(G, source_kind, limit):
            v = is_ideal(G, S, target_kind)
            if not v.holds:
                return _ideal_cx(S, v)
        return _holds()
    return run


def _one_sided_into(target_kind: IdealKind):
    def run(G, limit):
        seen = set()
        for kind in (IdealKind.LEFT, IdealKind.RIGHT):
            for S in enumerate_ideals(G, kind, limit):
                if S in seen:
                    continue
                seen.add(S)
                v = is_ideal(G, S, target_kind)
                if not v.holds:
                    return _ideal_cx(S, v, side=kind.value)
        return _holds()
    return run


def _verify_bi_product(G, limit):
    full = G.carrier
    bis = enumerate_ideals(G, IdealKind.BI, limit)
    non_sub = []
    for B1 in bis:
        for B2 in bis:
            P = subset_product(G, B1, B2)
            absorbed = subset_product(G, subset_product(G, P, full), P)
            if absorbed & ~P:
                return _cx({"subset": B1, "subset_b": B2, "product": P})
            if subset_product(G, P, P) & ~P:
                non_sub.append((B1, B2))
    note = None
    if non_sub:
        B1, B2 = non_sub[0]
        note = (f"absorption held for all {len(bis) * len(bis)} products, but "
                f"{len(non_sub)} of them are not sub-groupoids (first: "
                f"{sorted(members(B1))} with {sorted(members(B2))}, 0-based)")
    return LemmaVerdict(LemmaStatus.HOLDS, note=note)


def _verify_idem_quasi_bi(G, limit):
    for Q in enumerate_ideals(G, IdealKind.QUASI, limit):
        if not is_idempotent(G, Q):
            continue
        v = is_ideal(G, Q, IdealKind.BI)
        if not v.holds:
            return _ideal_cx(Q, v)
    return _holds()


def _same_ideals(kind_a: IdealKind, kind_b: IdealKind):
    """Every subset is a kind_a ideal exactly when it is a kind_b ideal."""
    def run(G, limit):
        a = set(enumerate_ideals(G, kind_a, limit))
        b = set(enumerate_ideals(G, kind_b, limit))
        if a == b:
            return _holds()
        S = min(a ^ b)
        return _cx({"subset": S, kind_a.value: S in a, kind_b.value: S in b})
    return run


def _verify_absorption_regular(G, limit):
    full = G.carrier
    for A in enumerate_ideals(G, IdealKind.RIGHT, limit):
        p = subset_product(G, A, full)
        if p != A:
            return _cx({"subset": A, "product": p, "side": "right"})
    for B in enumerate_ideals(G, IdealKind.LEFT, limit):
        p = subset_product(G, full, B)
        if p != B:
            return _cx({"subset": B, "product": p, "side": "left"})
    return _holds()


def _verify_gg_bi(G, limit):
    full = G.carrier
    for g in range(G.order):
        for S, side in ((subset_product(G, 1 << g, full), "gG"),
                        (subset_product(G, full, 1 << g), "Gg")):
            v = is_ideal(G, S, IdealKind.BI)
            if not v.holds:
                return _ideal_cx(S, v, element=g, side=side)
    return _holds()


def _verify_ag_bi_regular(G, limit):
    full = G.carrier
    for a in range(G.order):
        S = subset_product(G, 1 << a, full)
        v = is_ideal(G, S, IdealKind.BI)
        if not v.holds:
            return _ideal_cx(S, v, element=a)
    return _holds()


def _verify_bgb_regular(G, limit):
    full = G.carrier
    for B in enumerate_ideals(G, IdealKind.BI, limit):
        p = subset_product(G, subset_product(G, B, full), B)
        if p != B:
            return _cx({"subset": B, "product": p})
    return _holds()


def _verify_gg_regular(G, limit):
    p = subset_product(G, G.carrier, G.carrier)
    if p != G.carrier:
        return _cx({"product": p})
    return _holds()


def _verify_regular_iff_idempotent_left(G, limit):
    regular = is_regular(G)
    bad = None
    for L in enumerate_ideals(G, IdealKind.LEFT, limit):
        if not is_idempotent(G, L):
            bad = L
            break
    if regular and bad is not None:
        return _cx({"regular": True, "subset": bad,
                    "product": subset_product(G, bad, bad)})
    if not regular and bad is None:
        elem = next(a for a in range(G.order) if regular_witness(G, a) is None)
        return _cx({"regular": False, "element": elem})
    return _holds()


def _verify_semiprime_regular(G, limit):
    for P in enumerate_ideals(G, IdealKind.TWO_SIDED, limit):
        v = is_semiprime(G, P, limit)
        if not v.holds:
            return _cx({"subset": P, "subset_b": v.witness[0]})
    return _holds()


def _verify_semilattice(G, limit):
    rep = build_ideal_semilattice(G, limit)
    if rep.closed and rep.commutative and rep.associative and rep.idempotent:
        return _holds()
    return _cx({"closed": rep.closed, "commutative": rep.commutative,
                "associative": rep.associative, "idempotent": rep.idempotent})


def _verify_comm_ideals_regular(G, limit):
    ideals = enumerate_ideals(G, IdealKind.TWO_SIDED, limit)
    for A in ideals:
        for B in ideals:
            ab = subset_product(G, A, B)
            ba = subset_product(G, B, A)
            if ab != ba:
                return _cx({"subset": A, "subset_b": B,
                            "left_side": ab, "right_side": ba})
    return _holds()


def _verify_idem_ideals_regular(G, limit):
    for A in enumerate_ideals(G, IdealKind.TWO_SIDED, limit):
        if not is_idempotent(G, A):
            return _cx({"subset": A, "product": subset_product(G, A, A)})
    return _holds()


def _verify_principal_left(G, limit):
    for a in range(G.order):
        S = principal_left(G, a)
        v = is_ideal(G, S, IdealKind.LEFT)
        if not v.holds:
            return _ideal_cx(S, v, element=a)
    return _holds()


_VERIFIERS = {
    LemmaId.L1_LEFT_IDENTITY_COLLAPSE: _verify_l1,
    LemmaId.L_RIGHT_IDENTITY: _verify_right_identity,
    LemmaId.T1_UNION_CONSTRUCTION: _verify_t1,
    LemmaId.L_MEDIAL: _law_lemma(Law.MEDIAL),
    LemmaId.L_PARAMEDIAL: _law_lemma(Law.PARAMEDIAL),
    LemmaId.L_ONE_SIDED_QUASI: _one_sided_into(IdealKind.QUASI),
    LemmaId.L_RLB_ONE_SIDED_BI: _one_sided_into(IdealKind.BI),
    LemmaId.C_IDEAL_BI: _every_ideal_is(IdealKind.TWO_SIDED, IdealKind.BI),
    LemmaId.L_BI_PRODUCT: _verify_bi_product,
    LemmaId.L_IDEM_QUASI_BI: _verify_idem_quasi_bi,
    LemmaId.L_IDEAL_INTERIOR: _every_ideal_is(IdealKind.TWO_SIDED, IdealKind.INTERIOR),
    LemmaId.L_INTERIOR_IFF_RIGHT: _same_ideals(IdealKind.INTERIOR, IdealKind.RIGHT),
    LemmaId.L_ABSORPTION_REGULAR: _verify_absorption_regular,
    LemmaId.L_GG_BI: _verify_gg_bi,
    LemmaId.C_AG_BI_REGULAR: _verify_ag_bi_regular,
    LemmaId.L_BGB_REGULAR: _verify_bgb_regular,
    LemmaId.L_GG_REGULAR: _verify_gg_regular,
    LemmaId.L_LEFT_IFF_RIGHT_REGULAR: _same_ideals(IdealKind.LEFT, IdealKind.RIGHT),
    LemmaId.T_REGULAR_IFF_IDEMPOTENT_LEFT: _verify_regular_iff_idempotent_left,
    LemmaId.L_SEMIPRIME_REGULAR: _verify_semiprime_regular,
    LemmaId.T_SEMILATTICE: _verify_semilattice,
    LemmaId.L_COMM_IDEALS_REGULAR: _verify_comm_ideals_regular,
    LemmaId.L_IDEM_IDEALS_REGULAR: _verify_idem_ideals_regular,
    LemmaId.L_PRINCIPAL_LEFT_AGSS: _verify_principal_left,
}


def verify(G: GammaGroupoid, lid: LemmaId,
           limit: int = DEFAULT_ENUM_LIMIT) -> LemmaVerdict:
    """Check one catalog entry on a structure."""
    gated = _gate(G, lid)
    if gated is not None:
        return gated
    return _VERIFIERS[lid](G, limit)


def verify_all(G: GammaGroupoid,
               limit: int = DEFAULT_ENUM_LIMIT) -> dict[LemmaId, LemmaVerdict]:
    return {lid: verify(G, lid, limit) for lid in LemmaId}


def hunt(source: Iterable[GammaGroupoid], lid: LemmaId,
         limit: int = DEFAULT_ENUM_LIMIT
         ) -> Optional[tuple[GammaGroupoid, LemmaVerdict]]:
    """First structure in the stream whose verdict is a counterexample, if any."""
    for G in source:
        v = verify(G, lid, limit)
        if v.status is LemmaStatus.COUNTEREXAMPLE:
            return G, v
    return None
