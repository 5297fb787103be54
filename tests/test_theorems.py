import pytest

import gaglab as gl
from gaglab.core import GammaGroupoid
from gaglab.theorems import (
    HUNT_FILTERS,
    LemmaId,
    LemmaStatus,
    hunt,
    verify,
    verify_all,
)

from conftest import oracle_product


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


def test_verify_propagates_enumeration_limit(gamma5):
    with pytest.raises(gl.LimitExceededError):
        verify(gamma5, LemmaId.C_IDEAL_BI, limit=3)


@pytest.mark.parametrize("lid,fixture", [
    (LemmaId.L_INTERIOR_IFF_RIGHT, "interior_not_right3"),
    (LemmaId.L_LEFT_IFF_RIGHT_REGULAR, "left_not_right_regular3"),
])
def test_ideal_comparing_lemmas_respect_limit(lid, fixture):
    G = gl.load_fixture(fixture)  # order 3, passes the lemma's hypotheses
    with pytest.raises(gl.LimitExceededError):
        verify(G, lid, limit=2)


def test_interior_iff_right_refuses_large_carrier():
    G = GammaGroupoid.from_tables([[[0] * 26 for _ in range(26)]])
    with pytest.raises(gl.LimitExceededError):
        verify(G, LemmaId.L_INTERIOR_IFF_RIGHT)
