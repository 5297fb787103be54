import time
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings

import gaglab as gl
from gaglab import core, ideals, theorems
from gaglab.core import GammaGroupoid, Law
from gaglab.theorems import (
    HUNT_FILTERS,
    LemmaId,
    LemmaStatus,
    LemmaVerdict,
    hunt,
    verify,
    verify_all,
)

from conftest import fresh, oracle_members, oracle_product, structures


REGULAR_ONLY = {
    LemmaId.L_ABSORPTION_REGULAR, LemmaId.C_AG_BI_REGULAR, LemmaId.L_BGB_REGULAR,
    LemmaId.L_GG_REGULAR, LemmaId.L_LEFT_IFF_RIGHT_REGULAR,
    LemmaId.L_SEMIPRIME_REGULAR, LemmaId.T_SEMILATTICE,
    LemmaId.L_COMM_IDEALS_REGULAR, LemmaId.L_IDEM_IDEALS_REGULAR,
}


def test_verify_all_gamma5(gamma5):
    verdicts = verify_all(gamma5)
    for lid, v in verdicts.items():
        assert v.status is not LemmaStatus.COUNTEREXAMPLE, lid
        if lid is LemmaId.L1_LEFT_IDENTITY_COLLAPSE:
            assert v.status is LemmaStatus.NOT_APPLICABLE
            assert v.hypothesis_failed == "left-identity"
        elif lid is LemmaId.L_RIGHT_IDENTITY:
            assert v.hypothesis_failed == "right-identity"
        elif lid in REGULAR_ONLY:
            assert v.status is LemmaStatus.NOT_APPLICABLE
            assert v.hypothesis_failed == "regular"
        else:
            assert v.status is LemmaStatus.HOLDS, lid


def test_verify_all_dot5(dot5):
    # regular, AG**, with a left identity: everything holds except the
    # right-identity lemma, which does not apply
    for lid, v in verify_all(dot5).items():
        if lid is LemmaId.L_RIGHT_IDENTITY:
            assert v.status is LemmaStatus.NOT_APPLICABLE
        else:
            assert v.status is LemmaStatus.HOLDS, lid


def test_verify_all_singleton(singleton):
    for lid, v in verify_all(singleton).items():
        assert v.status in (LemmaStatus.HOLDS, LemmaStatus.NOT_APPLICABLE)


def test_l1_holds_on_dot5(dot5):
    v = verify(dot5, LemmaId.L1_LEFT_IDENTITY_COLLAPSE)
    assert v.status is LemmaStatus.HOLDS


def test_l1_requires_bundle_left_identity():
    # two constant tables: left invertive as a bundle, tables differ, and no
    # element is a left identity, so the collapse statement does not apply
    G = GammaGroupoid.from_tables([[[0, 0], [0, 0]], [[1, 1], [1, 1]]])
    assert gl.check_law(G, gl.Law.LEFT_INVERTIVE).holds
    v = verify(G, LemmaId.L1_LEFT_IDENTITY_COLLAPSE)
    assert v.status is LemmaStatus.NOT_APPLICABLE
    assert v.hypothesis_failed == "left-identity"


def test_gating_non_invertive_structure():
    G = GammaGroupoid.from_tables([[[0, 0], [1, 1]]])
    assert not gl.check_law(G, gl.Law.LEFT_INVERTIVE).holds
    for lid in LemmaId:
        v = verify(G, lid)
        assert v.status is LemmaStatus.NOT_APPLICABLE
        assert v.hypothesis_failed == "left-invertive"


def test_right_identity_lemma_applies_somewhere():
    # commutative monoid-like tables do occur in the left-invertive stream;
    # whenever a right identity exists the lemma must certify commutativity
    spec = gl.SearchSpec(order=2, gammas=1,
                         filters=frozenset({gl.Filter.LEFT_INVERTIVE}))
    applied = 0
    for G in gl.enumerate_structures(spec):
        v = verify(G, LemmaId.L_RIGHT_IDENTITY)
        if v.status is LemmaStatus.HOLDS:
            applied += 1
            assert gl.check_law(G, gl.Law.COMMUTATIVE).holds
            assert gl.check_law(G, gl.Law.ASSOCIATIVE).holds
    assert applied > 0


def _oracle_bi_ideals(G):
    """Non-empty S with S.S and (S.G).S inside S, by set arithmetic alone."""
    full = set(range(G.order))
    for mask in range(1, 1 << G.order):
        S = oracle_members(mask)
        if oracle_product(G, S, S) <= S and oracle_product(G, oracle_product(G, S, full), S) <= S:
            yield S


def test_products_of_bi_ideals_are_sub_groupoids():
    # the medial law of every left-invertive structure turns a product of two
    # elements of P = B1.B2 into an element of P, so l-bi-product needs only
    # its absorption check
    products = 0
    for G in _stream([(2, 2), (3, 1), (3, 2)], ("left-invertive",)):
        bis = list(_oracle_bi_ideals(G))
        for B1 in bis:
            for B2 in bis:
                P = oracle_product(G, B1, B2)
                assert oracle_product(G, P, P) <= P, (G.tables, B1, B2)
                products += 1
    assert products == 8546


def _reference_verify_bi_product(G):
    """l-bi-product as it was before repeated products were skipped: all
    three products for every ordered pair of bi-ideals."""
    full = G.carrier
    bis = ideals.enumerate_ideals(G, ideals.IdealKind.BI)
    for B1 in bis:
        for B2 in bis:
            P = core.subset_product(G, B1, B2)
            if core.subset_product(G, core.subset_product(G, P, full), P) & ~P:
                return LemmaVerdict(LemmaStatus.COUNTEREXAMPLE,
                                    witness={"subset": B1, "subset_b": B2, "product": P})
    return LemmaVerdict(LemmaStatus.HOLDS)


@settings(max_examples=150, deadline=None)
@given(structures())
def test_bi_product_verifier_matches_the_three_product_loop(G):
    # no hypotheses are imposed, so both verdicts and first witnesses occur
    assert LemmaId.L_BI_PRODUCT.verifier(G) == _reference_verify_bi_product(G)


def test_bi_product_verifier_checks_each_distinct_product_once(monkeypatch, gamma5):
    G = fresh(gamma5)
    calls = []

    def counting_product(G, A, B):
        calls.append((A, B))
        return core.subset_product(G, A, B)
    monkeypatch.setattr(theorems, "subset_product", counting_product)
    assert LemmaId.L_BI_PRODUCT.verifier(G).status is LemmaStatus.HOLDS
    bis = ideals.enumerate_ideals(G, ideals.IdealKind.BI)
    products = {core.subset_product(G, B1, B2) for B1 in bis for B2 in bis}
    assert len(products) < len(bis) ** 2
    assert len(calls) == len(bis) ** 2 + 2 * len(products)


# ---------------------------------------------------------------------------
# hunts

def _stream(sizes, filter_names):
    for n, m in sizes:
        spec = gl.SearchSpec(order=n, gammas=m,
                             filters=frozenset(gl.Filter(f) for f in filter_names))
        yield from gl.enumerate_structures(spec)


def test_hunt_medial_order_two_clean():
    found = hunt(_stream([(1, 1), (1, 2), (2, 1), (2, 2)], ("left-invertive",)),
                 LemmaId.L_MEDIAL)
    assert found is None


def test_hunt_returns_first_counterexample(gamma5):
    cx = gl.load_fixture("interior_not_right3")
    source = [gamma5, cx, cx]
    found = hunt(iter(source), LemmaId.L_INTERIOR_IFF_RIGHT)
    assert found is not None
    G, v = found
    assert G is source[1]
    assert v.status is LemmaStatus.COUNTEREXAMPLE


def test_hunt_interior_iff_right_finds_the_shipped_fixture():
    found = hunt(_stream([(1, 1), (2, 1), (3, 1)],
                         HUNT_FILTERS[LemmaId.L_INTERIOR_IFF_RIGHT]),
                 LemmaId.L_INTERIOR_IFF_RIGHT)
    assert found is not None
    G, v = found
    assert G.tables == gl.load_fixture("interior_not_right3").tables
    assert v.witness == {"subset": 0b101, "interior": True, "right": False}


def test_hunt_left_iff_right_regular_finds_the_shipped_fixture():
    found = hunt(_stream([(1, 1), (2, 1), (3, 1)],
                         HUNT_FILTERS[LemmaId.L_LEFT_IFF_RIGHT_REGULAR]),
                 LemmaId.L_LEFT_IFF_RIGHT_REGULAR)
    assert found is not None
    G, v = found
    assert G.tables == gl.load_fixture("left_not_right_regular3").tables
    assert v.witness == {"subset": 0b011, "left": True, "right": False}


def test_hunt_regular_iff_idempotent_left_finds_the_shipped_fixture():
    found = hunt(_stream([(1, 1), (2, 1), (3, 1)],
                         HUNT_FILTERS[LemmaId.T_REGULAR_IFF_IDEMPOTENT_LEFT]),
                 LemmaId.T_REGULAR_IFF_IDEMPOTENT_LEFT)
    assert found is not None
    G, v = found
    assert G.tables == gl.load_fixture("left_not_right_regular3").tables
    assert v.witness == {"regular": True, "subset": 0b011, "product": 0b001}


# ---------------------------------------------------------------------------
# the shipped counterexamples re-verify with raw set arithmetic

def test_interior_not_right_fixture_reverifies():
    G = gl.load_fixture("interior_not_right3")
    assert gl.check_law(G, gl.Law.LEFT_INVERTIVE).holds
    assert gl.check_law(G, gl.Law.AG_STAR_STAR).holds
    full = set(range(3))
    S = {0, 2}
    assert oracle_product(G, S, S) <= S
    assert oracle_product(G, oracle_product(G, full, S), full) <= S  # interior
    assert not oracle_product(G, S, full) <= S                       # not right


def test_left_not_right_regular_fixture_reverifies():
    G = gl.load_fixture("left_not_right_regular3")
    assert gl.check_law(G, gl.Law.LEFT_INVERTIVE).holds
    assert gl.check_law(G, gl.Law.AG_STAR_STAR).holds
    assert gl.is_regular(G)
    full = set(range(3))
    S = {0, 1}
    assert oracle_product(G, full, S) <= S        # left ideal
    assert not oracle_product(G, S, full) <= S    # not right
    assert oracle_product(G, S, S) != S           # not idempotent either


def test_principal_left_not_left9_fixture_reverifies():
    G = gl.load_fixture("principal_left_not_left9")
    assert gl.check_law(G, gl.Law.LEFT_INVERTIVE).holds
    assert gl.check_law(G, gl.Law.AG_STAR_STAR).holds
    full = set(range(9))
    Ga = oracle_product(G, full, {1})              # a = 2 (0-based 1)
    assert Ga == {0, 3, 6, 8}                      # {1,4,7,9}
    assert 5 in oracle_product(G, full, Ga)        # 6 in G(Ga): not a left ideal
    v = verify(G, LemmaId.L_PRINCIPAL_LEFT_AGSS)
    assert v.witness == {"subset": 0b101001001, "clause": "LeftAbsorb",
                         "at": (1, 1, 8), "element": 1}


# ---------------------------------------------------------------------------
# plumbing

def test_hunt_filters_table():
    assert HUNT_FILTERS[LemmaId.L1_LEFT_IDENTITY_COLLAPSE] == \
        ("left-invertive", "has-left-identity")
    assert HUNT_FILTERS[LemmaId.L_MEDIAL] == ("left-invertive",)
    assert set(HUNT_FILTERS[LemmaId.C_AG_BI_REGULAR]) == \
        {"left-invertive", "ag-star-star", "regular"}
    for lid in LemmaId:
        assert "left-invertive" in HUNT_FILTERS[lid]
        for name in HUNT_FILTERS[lid]:
            gl.Filter(name)  # every name is a real search filter


@pytest.mark.parametrize("lid", list(LemmaId), ids=lambda lid: lid.value)
def test_hunt_filters_pass_the_gate(lid):
    # a stream restricted to a lemma's hypotheses never reaches a failed gate;
    # l-right-identity checks its right identity inside the verifier
    for G in _stream([(2, 2), (3, 1)], HUNT_FILTERS[lid]):
        v = verify(G, lid)
        if lid is LemmaId.L_RIGHT_IDENTITY and v.status is LemmaStatus.NOT_APPLICABLE:
            assert v.hypothesis_failed == "right-identity"
        else:
            assert v.status is not LemmaStatus.NOT_APPLICABLE, v.hypothesis_failed


def test_lemma_id_strings_are_stable():
    assert {lid.value for lid in LemmaId} == {
        "l1-left-identity-collapse", "l-right-identity", "t1-union-construction",
        "l-medial", "l-paramedial", "l-one-sided-quasi", "l-rlb-one-sided-bi",
        "c-ideal-bi", "l-bi-product", "l-idem-quasi-bi", "l-ideal-interior",
        "l-interior-iff-right", "l-absorption-regular", "l-gg-bi",
        "c-ag-bi-regular", "l-bgb-regular", "l-gg-regular",
        "l-left-iff-right-regular", "t-regular-iff-idempotent-left",
        "l-semiprime-regular", "t-semilattice", "l-comm-ideals-regular",
        "l-idem-ideals-regular", "l-principal-left-agss"}
    assert len(LemmaId) == 24


def test_interior_iff_right_refuses_large_carrier():
    G = GammaGroupoid.from_tables([[[0] * 26 for _ in range(26)]])
    with pytest.raises(gl.LimitExceededError):
        verify(G, LemmaId.L_INTERIOR_IFF_RIGHT)


# ---------------------------------------------------------------------------
# facts kept on a structure

def _catalog_inputs():
    fixtures = sorted(Path(gl.fixture_path("gamma5")).parent.glob("*.gag"))
    yield from (gl.parse_file(p) for p in fixtures)
    yield GammaGroupoid.from_tables([[[0]]])
    yield from islice(_stream([(3, 2)], ("left-invertive",)), 300)


def test_verify_all_equals_verify_on_fresh_copies():
    # the slow oracle for the kept facts: each lemma on its own copy
    for G in _catalog_inputs():
        assert verify_all(G) == {lid: verify(fresh(G), lid) for lid in LemmaId}


@pytest.mark.parametrize("lid", list(LemmaId), ids=lambda lid: lid.value)
def test_hunt_equals_hunt_over_fresh_copies(lid):
    # stream structures carry the leaf re-check's verdicts into the hunt
    found = hunt(_stream([(3, 1)], HUNT_FILTERS[lid]), lid)
    assert found == hunt((fresh(G) for G in _stream([(3, 1)], HUNT_FILTERS[lid])), lid)


def test_verify_all_derives_each_fact_once(monkeypatch, gamma5, singleton):
    # counted below the kept facts: law verdict passes and witness scans,
    # powerset kernel builds and ideal enumerations, one per kind's compiled scan
    passes, scans, enumerations = Counter(), Counter(), Counter()
    for law in Law:
        def verdict(G, law=law, compiled=law.holds):
            passes[law] += 1
            return compiled(G)
        monkeypatch.setattr(law, "holds", verdict)

        def scan(G, law=law, compiled=law.scan):
            scans[law] += 1
            return compiled(G)
        monkeypatch.setattr(law, "scan", scan)
    for kind in ideals.IdealKind:
        def enumerate_kind(*args, kind=kind, compiled=kind.scan):
            enumerations[kind] += 1
            return compiled(*args)
        monkeypatch.setattr(kind, "scan", enumerate_kind)
    kernel, built = ideals._powerset_kernel, []

    def counting_kernel(G):
        built.append(G)
        return kernel(G)
    monkeypatch.setattr(ideals, "_powerset_kernel", counting_kernel)
    # the session fixtures may already carry facts, so count on fresh copies;
    # the singleton has a right identity, so l-right-identity checks two more
    # laws; a law is scanned for its witness only after its verdict pass fails
    for G, most_laws in ((fresh(gamma5), 4), (fresh(singleton), 6)):
        passes.clear()
        scans.clear()
        enumerations.clear()
        built.clear()
        verify_all(G)
        assert built == [G]
        assert max(passes.values()) == 1 and sum(passes.values()) <= most_laws
        failed = {law for law in passes if not gl.check_law(G, law).holds}
        assert set(scans) == failed and max(scans.values(), default=1) == 1
        assert max(enumerations.values()) == 1


# ---------------------------------------------------------------------------
# every verifier's counterexample path, driven with the hypotheses skipped

CX_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1))

# entries that hold in every groupoid, whatever its laws
ALWAYS_HOLD = {LemmaId.L_ONE_SIDED_QUASI, LemmaId.L_RLB_ONE_SIDED_BI,
               LemmaId.C_IDEAL_BI, LemmaId.L_IDEAL_INTERIOR}

# first counterexample of each other verifier over the CX_SHAPES streams:
# (shape, index in that shape's stream, witness)
FIRST_CX = {
    LemmaId.L1_LEFT_IDENTITY_COLLAPSE: ((2, 2), 1, {"gamma": 0, "gamma_b": 1, "at": (1, 1, 1)}),
    LemmaId.L_RIGHT_IDENTITY: ((2, 1), 2, {"element": 0, "side": "left"}),
    LemmaId.T1_UNION_CONSTRUCTION: ((3, 1), 15, {"subset": 1, "clause": "LeftAbsorb",
                                                 "at": (2, 0, 1), "union": 3,
                                                 "side": "right"}),
    LemmaId.L_MEDIAL: ((2, 1), 2, {"law": "medial", "at": (1, 0, 0, 0, 1, 0, 1)}),
    LemmaId.L_PARAMEDIAL: ((2, 1), 2, {"law": "paramedial", "at": (0, 0, 0, 0, 0, 0, 1)}),
    LemmaId.L_BI_PRODUCT: ((3, 1), 7, {"subset": 7, "subset_b": 3, "product": 5}),
    LemmaId.L_IDEM_QUASI_BI: ((3, 1), 14, {"subset": 4, "clause": "BiAbsorb",
                                           "at": (2, 0, 0, 0, 2)}),
    LemmaId.L_INTERIOR_IFF_RIGHT: ((2, 1), 2, {"subset": 1, "interior": False, "right": True}),
    LemmaId.L_ABSORPTION_REGULAR: ((2, 1), 0, {"subset": 3, "product": 1, "side": "right"}),
    LemmaId.L_GG_BI: ((2, 1), 8, {"subset": 1, "clause": "SubGroupoid", "at": (0, 0, 0),
                                  "element": 1, "side": "gG"}),
    LemmaId.C_AG_BI_REGULAR: ((2, 1), 8, {"subset": 1, "clause": "SubGroupoid",
                                          "at": (0, 0, 0), "element": 1}),
    LemmaId.L_BGB_REGULAR: ((2, 1), 0, {"subset": 3, "product": 1}),
    LemmaId.L_GG_REGULAR: ((2, 1), 0, {"product": 1}),
    LemmaId.L_LEFT_IFF_RIGHT_REGULAR: ((2, 1), 2, {"subset": 1, "left": False, "right": True}),
    LemmaId.T_REGULAR_IFF_IDEMPOTENT_LEFT: ((2, 1), 2, {"regular": False, "element": 1}),
    LemmaId.L_SEMIPRIME_REGULAR: ((2, 1), 0, {"subset": 1, "subset_b": 3}),
    LemmaId.T_SEMILATTICE: ((2, 1), 0, {"closed": True, "commutative": True,
                                        "associative": True, "idempotent": False}),
    LemmaId.L_COMM_IDEALS_REGULAR: ((3, 1), 3, {"subset": 3, "subset_b": 7,
                                                "left_side": 1, "right_side": 3}),
    LemmaId.L_IDEM_IDEALS_REGULAR: ((2, 1), 0, {"subset": 3, "product": 1}),
    LemmaId.L_PRINCIPAL_LEFT_AGSS: ((2, 1), 2, {"subset": 1, "clause": "LeftAbsorb",
                                                "at": (1, 0, 0), "element": 1}),
}


def _claimed_products(G, lid, w):
    """Each product-valued key of a witness, recomputed by the set-based oracle."""
    full = set(range(G.order))
    S = oracle_members(w.get("subset", 0))
    T = oracle_members(w.get("subset_b", 0))
    if lid is LemmaId.L_ABSORPTION_REGULAR:
        right = w["side"] == "right"
        return {"product": oracle_product(G, S, full) if right else oracle_product(G, full, S)}
    if lid is LemmaId.T1_UNION_CONSTRUCTION:
        right = w["side"] == "right"
        return {"union": S | (oracle_product(G, full, S) if right
                              else oracle_product(G, S, full))}
    if lid is LemmaId.L_BGB_REGULAR:
        return {"product": oracle_product(G, oracle_product(G, S, full), S)}
    if lid is LemmaId.L_GG_REGULAR:
        return {"product": oracle_product(G, full, full)}
    if lid is LemmaId.L_BI_PRODUCT:
        return {"product": oracle_product(G, S, T)}
    if lid is LemmaId.L_COMM_IDEALS_REGULAR:
        return {"left_side": oracle_product(G, S, T), "right_side": oracle_product(G, T, S)}
    if lid in (LemmaId.L_IDEM_IDEALS_REGULAR, LemmaId.T_REGULAR_IFF_IDEMPOTENT_LEFT):
        return {"product": oracle_product(G, S, S)} if "product" in w else {}
    return {}


@pytest.fixture(scope="module")
def cx_streams():
    return {shape: list(gl.enumerate_structures(gl.SearchSpec(*shape)))
            for shape in CX_SHAPES}


def test_every_fallible_verifier_is_pinned():
    assert set(FIRST_CX) == set(LemmaId) - ALWAYS_HOLD


@pytest.mark.parametrize("lid", list(FIRST_CX), ids=lambda lid: lid.value)
def test_first_counterexample_of_each_verifier(cx_streams, lid):
    found = next((shape, i, v.witness)
                 for shape in CX_SHAPES for i, G in enumerate(cx_streams[shape])
                 for v in (lid.verifier(G),)
                 if v.status is LemmaStatus.COUNTEREXAMPLE)
    assert found == FIRST_CX[lid]
    shape, i, w = found
    G = cx_streams[shape][i]
    claimed = _claimed_products(G, lid, w)
    assert set(claimed) == {"product", "union", "left_side", "right_side"} & set(w)
    for key, expected in claimed.items():
        assert oracle_members(w[key]) == expected, key


def test_always_holding_entries_hold_on_every_bundle(cx_streams):
    for shape, stream in cx_streams.items():
        for G in stream:
            for lid in ALWAYS_HOLD:
                assert lid.verifier(G).status is LemmaStatus.HOLDS, (lid, shape, G.tables)


# ---------------------------------------------------------------------------
# refused checks

PAIRING_REFUSAL = "pairing 128 two-sided ideals refused beyond 64"
# the entries that pair the two-sided ideals
PAIRING = [LemmaId.L_SEMIPRIME_REGULAR, LemmaId.T_SEMILATTICE, LemmaId.L_COMM_IDEALS_REGULAR]


def _diagonal(n):
    # x·y = x if x = y, else 0: every subset holding 0 is a two-sided ideal
    return GammaGroupoid.from_tables([[[x if x == y else 0 for y in range(n)]
                                       for x in range(n)]])


def test_a_refused_entry_is_a_verdict_and_every_other_entry_is_decided():
    G = _diagonal(8)
    t0 = time.perf_counter()
    verdicts = verify_all(G)
    assert time.perf_counter() - t0 < 1.0
    refused = LemmaVerdict(LemmaStatus.REFUSED, refusal=PAIRING_REFUSAL)
    assert [lid for lid, v in verdicts.items() if v == refused] == PAIRING
    decided = {lid: v for lid, v in verdicts.items() if lid not in PAIRING}
    assert len(decided) == 21
    # each decided as on its own, on a structure that kept no facts
    assert decided == {lid: verify(fresh(G), lid) for lid in decided}
    for lid in PAIRING:
        assert theorems._decide(G, lid) == refused
        with pytest.raises(gl.LimitExceededError, match=f"^{PAIRING_REFUSAL}$"):
            verify(G, lid)


def test_verify_all_refuses_a_carrier_above_the_enumeration_bound_whole():
    G = GammaGroupoid.from_tables([[[0] * 21 for _ in range(21)]])
    with pytest.raises(gl.LimitExceededError,
                       match="^subset enumeration over 21 elements refused beyond 20$"):
        verify_all(G)
    # one entry alone reports it as its verdict; a hunt stops at it
    assert theorems._decide(G, LemmaId.C_IDEAL_BI).status is LemmaStatus.REFUSED
    with pytest.raises(gl.LimitExceededError, match="^subset enumeration over 21"):
        hunt(iter([G]), LemmaId.L_MEDIAL, [])


def test_hunt_passes_over_refused_structures(gamma5):
    G = _diagonal(8)
    refused = []
    assert hunt(iter([G, gamma5, G]), LemmaId.T_SEMILATTICE, refused) is None
    assert refused == [G, G]
    assert hunt(iter([G]), LemmaId.T_SEMILATTICE) is None
    cx = gl.load_fixture("interior_not_right3")
    refused = []
    found = hunt(iter([G, cx, G]), LemmaId.L_INTERIOR_IFF_RIGHT, refused)
    assert found is not None and found[0] is cx and refused == []
