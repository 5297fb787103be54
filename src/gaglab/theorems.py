"""Executable catalog of the ideal-theoretic statements, one ``LemmaId`` row per entry.

Each verifier returns the witness dict of its first counterexample, or None
when the entry holds, and ``verify`` alone turns that into a LemmaVerdict:
NOT_APPLICABLE when the structure fails the statement's hypotheses (the
failed filter named without its ``has-`` prefix), HOLDS when the exhaustively
checked conclusion is true, or when ``core.derives`` proves it from the
hypotheses (``LemmaId.proved``), COUNTEREXAMPLE with the witness otherwise, and
REFUSED, carrying the limit's message, when a limit refuses the check, in the
hypotheses or in the verifier; a proved conclusion is refused where its check
would be, so the verdicts are those of the check.  ``verify_all`` runs every
entry, so a refused entry leaves the others decided: above the enumeration
bound, the entries that enumerate ideals are refused and the rest are decided.
``hunt`` scans a stream of structures for the first counterexample to a given
entry, passing over the structures whose check is refused, or answers at once
for a proved entry.

Witnesses are dicts whose values follow a small vocabulary: the keys in
``MASK_KEYS`` hold subset bitmasks, "element" holds an element index,
"gamma"/"gamma_b" hold gamma indices, "at" holds an alternating
element/gamma tuple as produced by the law and clause checkers,
"clause"/"law"/"side" hold strings, and remaining keys hold booleans.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Iterable, Optional

from .core import (
    GammaGroupoid,
    Law,
    LimitExceededError,
    _fact,
    check_law,
    check_law_size,
    derives,
    identities,
    is_regular,
    members,
    regular_witness,
    subset_product,
)
from .ideals import (
    IdealKind,
    build_ideal_semilattice,
    enumerate_ideals,
    is_ideal,
    is_idempotent,
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


_HOLDS = LemmaVerdict(LemmaStatus.HOLDS)  # shared, as is each filter's not-applicable verdict
_NOT_APPLICABLE = {f: LemmaVerdict(LemmaStatus.NOT_APPLICABLE, f.value.removeprefix("has-"))
                   for f in Filter}


# Up to this order an entry that needs each candidate to be one kind of ideal
# enumerates that kind, a pass over at most 512 subsets, and looks the candidates up;
# above it only a kind that the structure already keeps is looked up, as a pass over
# 2**10 to 2**20 subsets can cost more than the candidates' own checks (left-invertive
# products: no faster at order 12, up to 15 % slower at orders 16 and 20).
_LOOKUP_ORDER = 9


def _all_ideals(kind: IdealKind, candidates):
    """Verifier: every candidate is a ``kind`` ideal.

    ``candidates(G)`` yields (S, tested, extra); each ``tested`` is looked up
    among the kind's ideals (see ``_LOOKUP_ORDER``), or else checked on its
    own.  The first that is none is reported as subset S, with the clause that
    ``is_ideal`` finds failed, its witness and the extra witness keys.
    """
    def run(G):
        kept = enumerate_ideals(G, kind) if G.order <= _LOOKUP_ORDER else _fact(G, kind)
        is_one = (frozenset(kept).__contains__ if kept is not None
                  else lambda S: is_ideal(G, S, kind).holds)
        for S, tested, extra in candidates(G):
            if not is_one(tested):
                v = is_ideal(G, tested, kind)
                return {"subset": S, "clause": v.failed_clause, "at": v.witness, **extra}
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


def _per_element(*sides):
    """Candidates: for each element a in turn, the subset ``make(G, a)`` of each
    (make, side) pair, with a as "element" and the side, unless None, as "side"."""
    def candidates(G):
        for a in range(G.order):
            for make, side in sides:
                S = make(G, a)
                yield S, S, {"element": a, "side": side} if side else {"element": a}
    return candidates


def _aG(G, a):
    return subset_product(G, 1 << a, G.carrier)


def _verify_l1(G):
    base = G.tables[0]
    for g, a, b in product(range(1, G.gamma_count), range(G.order), range(G.order)):
        if G.tables[g][a][b] != base[a][b]:
            return {"gamma": 0, "gamma_b": g, "at": (a, g, b)}
    # collapsed table is left invertive because the bundle already is


def _verify_right_identity(G):
    lefts = identities(G, "left")
    for e in sorted(identities(G, "right")):
        if e not in lefts:
            return {"element": e, "side": "left"}
    return _law_lemma(Law.COMMUTATIVE, Law.ASSOCIATIVE)(G)


def _law_lemma(*laws: Law):
    def run(G):
        for law in laws:
            v = check_law(G, law)
            if not v.holds:
                return {"law": law.value, "at": v.witness}
    return run


def _verify_bi_product(G):
    full = G.carrier
    bis = enumerate_ideals(G, IdealKind.BI)
    passed = set()  # products already checked, each of which passed
    rows = set()  # the rows of each B1 that passed with every B2: the same products again
    for B1 in bis:
        by = tuple([subset_product(G, B1, 1 << b) for b in range(G.order)])  # B1Γb for each b
        if by in rows:
            continue
        for B2 in bis:
            P = 0
            for b in members(B2):
                P |= by[b]
            if P in passed:
                continue
            if subset_product(G, subset_product(G, P, full), P) & ~P:
                return {"subset": B1, "subset_b": B2, "product": P}
            passed.add(P)
        rows.add(by)


def _same_ideals(kind_a: IdealKind, kind_b: IdealKind):
    """Every subset is a kind_a ideal exactly when it is a kind_b ideal."""
    def run(G):
        a = set(enumerate_ideals(G, kind_a))
        b = set(enumerate_ideals(G, kind_b))
        if a != b:
            S = min(a ^ b)
            return {"subset": S, kind_a.value: S in a, kind_b.value: S in b}
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
                    return {"subset": S, "product": p, **extra}
    return run


def _verify_gg_regular(G):
    p = subset_product(G, G.carrier, G.carrier)
    if p != G.carrier:
        return {"product": p}


def _verify_regular_iff_idempotent_left(G):
    regular = is_regular(G)
    bad = None
    for L in enumerate_ideals(G, IdealKind.LEFT):
        if not is_idempotent(G, L):
            bad = L
            break
    if regular and bad is not None:
        return {"regular": True, "subset": bad, "product": subset_product(G, bad, bad)}
    if not regular and bad is None:
        elem = next(a for a in range(G.order) if regular_witness(G, a) is None)
        return {"regular": False, "element": elem}


def _verify_semiprime_regular(G):
    ideals, products = paired_ideals(G)
    for P in ideals:
        for i, A in enumerate(ideals):
            if A & ~P and products[i][i] & ~P == 0:
                return {"subset": P, "subset_b": A}


def _verify_semilattice(G):
    rep = build_ideal_semilattice(G)
    if not (rep.closed and rep.commutative and rep.associative and rep.idempotent):
        return {"closed": rep.closed, "commutative": rep.commutative,
                "associative": rep.associative, "idempotent": rep.idempotent}


def _verify_comm_ideals_regular(G):
    ideals, products = paired_ideals(G)
    for i, A in enumerate(ideals):
        for j, B in enumerate(ideals):
            ab, ba = products[i][j], products[j][i]
            if ab != ba:
                return {"subset": A, "subset_b": B, "left_side": ab, "right_side": ba}


_LI = (Filter.LEFT_INVERTIVE,)
_AGSS = _LI + (Filter.AG_STAR_STAR,)
_REG = _LI + (Filter.REGULAR,)
_AGSS_REG = _AGSS + (Filter.REGULAR,)


class LemmaId(Enum):
    """The catalog, one row per entry: id, hypotheses, verifier.

    The hypotheses are search filters in gate order: ``verify`` reports the
    first that fails as not-applicable and otherwise runs the verifier, and
    ``gaglab hunt`` searches only structures that meet them.  The verifier
    takes a structure and returns its first counterexample's witness, or None.
    A row whose conclusion is one law names that ``Law`` as its verifier, which
    checks it, and keeps it as ``law`` (else None), as ``Filter.law`` does.
    Adding a lemma is one row here.
    """
    L1_LEFT_IDENTITY_COLLAPSE = ("l1-left-identity-collapse",
                                 _LI + (Filter.HAS_LEFT_IDENTITY,), _verify_l1)
    L_RIGHT_IDENTITY = ("l-right-identity", _LI + (Filter.HAS_RIGHT_IDENTITY,),
                        _verify_right_identity)
    T1_UNION_CONSTRUCTION = ("t1-union-construction", _AGSS,
                             _all_ideals(IdealKind.TWO_SIDED, _t1_unions))
    L_MEDIAL = "l-medial", _LI, Law.MEDIAL
    L_PARAMEDIAL = "l-paramedial", _AGSS, Law.PARAMEDIAL
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
    L_GG_BI = "l-gg-bi", _AGSS, _all_ideals(IdealKind.BI, _per_element(
        (_aG, "gG"), (principal_left, "Gg")))
    C_AG_BI_REGULAR = ("c-ag-bi-regular", _AGSS_REG,
                       _all_ideals(IdealKind.BI, _per_element((_aG, None))))
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
                             _all_ideals(IdealKind.LEFT, _per_element((principal_left, None))))

    __hash__ = object.__hash__  # each member is one object, compared by identity

    def __new__(cls, value, hypotheses, verifier):
        lid = object.__new__(cls)
        lid._value_ = value
        lid.hypotheses = hypotheses
        lid.law = verifier if isinstance(verifier, Law) else None
        lid.verifier = _law_lemma(verifier) if lid.law else verifier
        return lid

    @cached_property
    def proved(self) -> bool:  # the entry and its hypotheses are laws, and derives proves it
        laws = [f.law for f in self.hypotheses]
        return self.law is not None and all(laws) and derives(laws, self.law)


# each entry's hypotheses by filter name; nothing in the package reads it
HUNT_FILTERS: dict[LemmaId, tuple[str, ...]] = {
    lid: tuple(f.value for f in lid.hypotheses) for lid in LemmaId}


def verify(G: GammaGroupoid, lid: LemmaId) -> LemmaVerdict:
    """Check one catalog entry on a structure: the only builder of a verdict.  The
    first hypothesis that fails, or None, is a fact of G per tuple of hypotheses; past
    it a proved entry's conclusion is sized, as ``check_law`` sizes it, not checked."""
    try:
        failed = _fact(G, lid.hypotheses, lambda: next(
            (f for f in lid.hypotheses if not f.holds(G)), None))
        if failed is not None:
            return _NOT_APPLICABLE[failed]
        witness = None if lid.proved and check_law_size(G, lid.law) else lid.verifier(G)
    except LimitExceededError as exc:
        return LemmaVerdict(LemmaStatus.REFUSED, refusal=str(exc))
    return _HOLDS if witness is None else LemmaVerdict(LemmaStatus.COUNTEREXAMPLE,
                                                      witness=witness)


def verify_all(G: GammaGroupoid) -> dict[LemmaId, LemmaVerdict]:
    """Every entry's verdict, each as ``verify`` gives it."""
    return {lid: verify(G, lid) for lid in LemmaId}


def hunt(source: Iterable[GammaGroupoid], lid: LemmaId, refused: Optional[list] = None
         ) -> Optional[tuple[GammaGroupoid, LemmaVerdict]]:
    """First structure in the stream whose verdict is a counterexample, if any.
    A structure whose check is refused is passed over, and appended to
    ``refused`` when a list is given.  Above the enumeration bound every
    structure is refused for an entry that enumerates ideals, so a caller who
    wants such a hunt refused before it searches checks the spec's order
    against ``ideals.MAX_ENUM_ORDER`` first, as ``gaglab hunt`` does.  A proved
    entry holds at every shape, so its hunt returns None and draws nothing."""
    if lid.proved:
        return None
    for G in source:
        v = verify(G, lid)
        if v.status is LemmaStatus.COUNTEREXAMPLE:
            return G, v
        if v.status is LemmaStatus.REFUSED and refused is not None:
            refused.append(G)
    return None
