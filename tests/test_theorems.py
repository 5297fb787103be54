import time
from collections import Counter
from itertools import islice, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaglab as gl
from gaglab import core, ideals, theorems
from gaglab.core import GammaGroupoid, Law, LimitExceededError
from gaglab.ideals import IdealKind
from gaglab.theorems import (
    HUNT_FILTERS,
    LemmaId,
    LemmaStatus,
    LemmaVerdict,
    hunt,
    verify,
    verify_all,
)

from conftest import (ENUMERATING, ENUMERATING_UNLESS_REGULAR, corpus_products, fresh,
                      oracle_all_ideals, oracle_members, oracle_product, structures)


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
        assert v == LemmaVerdict(LemmaStatus.NOT_APPLICABLE, hypothesis_failed="left-invertive")
        assert v is verify(fresh(G), LemmaId.L_MEDIAL)  # one verdict per failed filter


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
    three products for every ordered pair of bi-ideals; the first
    counterexample's witness, or None."""
    full = G.carrier
    bis = ideals.enumerate_ideals(G, ideals.IdealKind.BI)
    for B1 in bis:
        for B2 in bis:
            P = core.subset_product(G, B1, B2)
            if core.subset_product(G, core.subset_product(G, P, full), P) & ~P:
                return {"subset": B1, "subset_b": B2, "product": P}
    return None


@settings(max_examples=150, deadline=None)
@given(structures())
def test_bi_product_verifier_matches_the_three_product_loop(G):
    # no hypotheses are imposed, so both outcomes and first witnesses occur
    assert LemmaId.L_BI_PRODUCT.verifier(G) == _reference_verify_bi_product(G)


@st.composite
def near_constant_structures(draw):
    """A constant table with a few cells changed: most bi-ideals B1 then share
    their rows B1Γb, and both outcomes occur."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 2))
    element = st.integers(0, n - 1)
    tables = [[[c] * n for _ in range(n)] for c in (draw(element) for _ in range(m))]
    for _ in range(draw(st.integers(0, 3))):
        tables[draw(st.integers(0, m - 1))][draw(element)][draw(element)] = draw(element)
    return GammaGroupoid.from_tables(tables)


@settings(max_examples=150, deadline=None)
@given(near_constant_structures())
def test_bi_product_verifier_matches_the_three_product_loop_where_rows_repeat(G):
    assert LemmaId.L_BI_PRODUCT.verifier(G) == _reference_verify_bi_product(G)


def test_bi_product_verifier_checks_each_distinct_product_once(monkeypatch, gamma5):
    G = fresh(gamma5)
    calls = []

    def counting_product(G, A, B):
        calls.append((A, B))
        return core.subset_product(G, A, B)
    monkeypatch.setattr(theorems, "subset_product", counting_product)
    assert LemmaId.L_BI_PRODUCT.verifier(G) is None
    bis = ideals.enumerate_ideals(G, ideals.IdealKind.BI)
    products = {core.subset_product(G, B1, B2) for B1 in bis for B2 in bis}
    assert len(products) < len(bis) ** 2
    # one row B1Γb per bi-ideal B1 and element b, then two products per distinct B1ΓB2
    assert len(calls) == len(bis) * G.order + 2 * len(products)
    assert calls[:G.order] == [(bis[0], 1 << b) for b in range(G.order)]


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


@pytest.mark.parametrize("lid,refusals", [(LemmaId.L_INTERIOR_IFF_RIGHT, 3),
                                          (LemmaId.L_MEDIAL, 63)])
def test_a_lex_pruned_hunt_refuses_the_same_classes_as_the_labelled_hunt(
        lid, refusals, monkeypatch):
    # refuse every commutative structure, a property that relabelling keeps, as a
    # limit refuses checks; l-interior-iff-right has a counterexample at (3,1),
    # l-medial none.  l-medial is proved, so its hunt would draw nothing: the
    # refusing verifier is not a proved entry's, and both hunts search
    real = lid.verifier

    def refusing(G):
        if core.check_law(G, Law.COMMUTATIVE).holds:
            raise core.LimitExceededError("commutative refused")
        return real(G)
    monkeypatch.setattr(lid, "verifier", refusing)
    monkeypatch.setattr(lid, "proved", False)
    filters = frozenset(lid.hypotheses)
    labelled, pruned = [], []
    want = hunt(gl.enumerate_structures(gl.SearchSpec(3, 1, filters)), lid, labelled)
    got = hunt(gl.enumerate_structures(gl.SearchSpec(3, 1, filters, lex_pruned=True)),
               lid, pruned)
    assert (want is None) is (lid is LemmaId.L_MEDIAL)
    assert got == want
    # every class refused before the counterexample has its least member among
    # the pruned stream's refusals, and the pruned stream holds one member of
    # each class, so the pruned hunt counts the refused classes
    classes = {gl.canonical_form(G).tables for G in labelled}
    assert {gl.canonical_form(G).tables for G in pruned} == classes
    refused_tables = [G.tables for G in labelled]
    assert all(G.tables in refused_tables for G in pruned)
    assert len(pruned) == len(classes)
    assert len(labelled) == refusals


@pytest.mark.parametrize("lid", list(LemmaId))
def test_a_lex_pruned_hunt_finds_the_labelled_hunts_counterexample(lid):
    # the labelled stream is the oracle: its first counterexample is the least
    # of its class, so the class stream meets it first too
    for n, m in ((2, 2), (3, 1)):
        spec = gl.SearchSpec(n, m, frozenset(lid.hypotheses))
        found = [hunt(gl.enumerate_structures(s), lid)
                 for s in (spec, gl.SearchSpec(n, m, spec.filters, lex_pruned=True))]
        want, got = [None if f is None else (f[0].tables, f[1].status, f[1].witness)
                     for f in found]
        assert got == want, (n, m)


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


def _oracle_left_invertive_and_agss(G):
    """Both defining laws, by direct substitution into the tables."""
    T, n, gs = G.tables, range(G.order), range(G.gamma_count)
    return all(T[d][T[g][a][b]][c] == T[d][T[g][c][b]][a] and
               T[g][a][T[d][b][c]] == T[g][b][T[d][a][c]]
               for g in gs for d in gs for a in n for b in n for c in n)


def test_principal_left_not_left4_fixture_reverifies():
    G = gl.load_fixture("principal_left_not_left4")
    assert _oracle_left_invertive_and_agss(G)
    full = set(range(4))
    lefts = [oracle_product(G, full, {a}) for a in range(4)]
    # Ga is a left ideal for a = 1, 2, 3, but not for a = 4 (0-based 3)
    assert [oracle_product(G, full, Ga) <= Ga for Ga in lefts] == [True] * 3 + [False]
    assert lefts[3] == {0, 2}                         # {1,3}
    assert 1 in oracle_product(G, full, lefts[3])     # 4·3 = 2 escapes
    v = verify(G, LemmaId.L_PRINCIPAL_LEFT_AGSS)
    assert v.witness == {"subset": 0b101, "clause": "LeftAbsorb", "at": (3, 0, 2),
                         "element": 3}


def test_union_not_ideal5_fixture_reverifies():
    G = gl.load_fixture("union_not_ideal5")
    assert _oracle_left_invertive_and_agss(G)
    full = set(range(5))
    R = {0, 3}                                        # {1,4}
    assert oracle_product(G, R, full) <= R            # a right ideal
    union = R | oracle_product(G, full, R)
    assert union == {0, 2, 3}                         # {1,3,4}
    assert oracle_product(G, union, full) <= union    # a right ideal,
    assert 1 in oracle_product(G, full, union)        # not a left one: 5·3 = 2
    v = verify(G, LemmaId.T1_UNION_CONSTRUCTION)
    assert v.witness == {"subset": 0b1001, "clause": "LeftAbsorb", "at": (4, 0, 2),
                         "union": 0b1101, "side": "right"}


# ---------------------------------------------------------------------------
# plumbing

def test_hunt_filters_table():
    assert HUNT_FILTERS[LemmaId.L1_LEFT_IDENTITY_COLLAPSE] == \
        ("left-invertive", "has-left-identity")
    assert HUNT_FILTERS[LemmaId.L_RIGHT_IDENTITY] == ("left-invertive", "has-right-identity")
    assert HUNT_FILTERS[LemmaId.L_MEDIAL] == ("left-invertive",)
    assert set(HUNT_FILTERS[LemmaId.C_AG_BI_REGULAR]) == \
        {"left-invertive", "ag-star-star", "regular"}
    for lid in LemmaId:
        assert "left-invertive" in HUNT_FILTERS[lid]
        for name in HUNT_FILTERS[lid]:
            gl.Filter(name)  # every name is a real search filter


@pytest.mark.parametrize("lid", list(LemmaId), ids=lambda lid: lid.value)
def test_hunt_filters_pass_the_gate(lid):
    # a stream restricted to a lemma's hypotheses never reaches a failed gate
    for G in _stream([(2, 2), (3, 1)], HUNT_FILTERS[lid]):
        v = verify(G, lid)
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
    assert verify(G, LemmaId.L_INTERIOR_IFF_RIGHT) == LemmaVerdict(
        LemmaStatus.REFUSED, refusal="subset enumeration over 26 elements refused beyond 20")


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


def test_each_hypothesis_set_is_checked_once_per_structure(monkeypatch):
    # x·y = y is not left invertive: every entry is not applicable, and the gate of
    # each of the six distinct hypothesis sets runs once, its verdict kept
    gates, passes = [], []
    check = gl.Filter.LEFT_INVERTIVE.holds
    monkeypatch.setattr(gl.Filter.LEFT_INVERTIVE, "holds",
                        lambda G: gates.append(G) or check(G))
    compiled = Law.LEFT_INVERTIVE.holds
    monkeypatch.setattr(Law.LEFT_INVERTIVE, "holds", lambda G: passes.append(G) or compiled(G))
    G = GammaGroupoid.from_tables([[[0, 1, 2]] * 3])
    not_applicable = LemmaVerdict(LemmaStatus.NOT_APPLICABLE, "left-invertive")
    assert list(verify_all(G).values()) == [not_applicable] * 24
    assert len(passes) == 1
    assert len(gates) == len({lid.hypotheses for lid in LemmaId}) == 6
    assert list(verify_all(G).values()) == [not_applicable] * 24
    assert len(passes) == 1 and len(gates) == 6


# ---------------------------------------------------------------------------
# the entries whose candidates must each be one kind of ideal, against the
# per-candidate oracle that runs every candidate through is_ideal

ALL_IDEALS = {
    LemmaId.T1_UNION_CONSTRUCTION: (IdealKind.TWO_SIDED, theorems._t1_unions),
    LemmaId.L_ONE_SIDED_QUASI: (IdealKind.QUASI, theorems._one_sided),
    LemmaId.L_RLB_ONE_SIDED_BI: (IdealKind.BI, theorems._one_sided),
    LemmaId.C_IDEAL_BI: (IdealKind.BI, theorems._ideals_of(IdealKind.TWO_SIDED)),
    LemmaId.L_IDEM_QUASI_BI: (IdealKind.BI, theorems._idempotent_quasi),
    LemmaId.L_IDEAL_INTERIOR: (IdealKind.INTERIOR, theorems._ideals_of(IdealKind.TWO_SIDED)),
    LemmaId.L_GG_BI: (IdealKind.BI, theorems._per_element(
        (theorems._aG, "gG"), (ideals.principal_left, "Gg"))),
    LemmaId.C_AG_BI_REGULAR: (IdealKind.BI, theorems._per_element((theorems._aG, None))),
    LemmaId.L_PRINCIPAL_LEFT_AGSS: (IdealKind.LEFT, theorems._per_element(
        (ideals.principal_left, None))),
}


def _direct_product(A, B):
    """The direct product of two single-gamma bundles."""
    (T,), (U,), n = A.tables, B.tables, B.order
    N = A.order * n
    return GammaGroupoid.from_tables([[[T[x // n][y // n] * n + U[x % n][y % n]
                                        for y in range(N)] for x in range(N)]])


def test_the_oracle_covers_every_entry_built_by_all_ideals():
    assert set(ALL_IDEALS) == {lid for lid in LemmaId
                               if lid.verifier.__qualname__.startswith("_all_ideals.")}


@pytest.mark.parametrize("lid", list(ALL_IDEALS), ids=lambda lid: lid.value)
def test_each_all_ideals_entry_gives_the_per_candidate_verdict(lid):
    # the shipped fixtures, the entry's hypothesis streams, the corpus's order-9
    # products, outside the hypotheses, where each fallible entry fails, the first
    # bundles of orders 2 and 3, and above theorems._LOOKUP_ORDER two order-12
    # products of fixtures; the oracle runs on a copy that keeps no facts
    oracle = oracle_all_ideals(*ALL_IDEALS[lid])
    fixtures = sorted(Path(gl.fixture_path("gamma5")).parent.glob("*.gag"))
    four = gl.load_fixture("principal_left_not_left4")
    inputs = [*map(gl.parse_file, fixtures),
              *_stream(((2, 2), (3, 1), (3, 2)), HUNT_FILTERS[lid]), *corpus_products(),
              *islice(_stream(((2, 1), (3, 1)), ()), 200),
              *(_direct_product(gl.load_fixture(name), four)
                for name in ("interior_not_right3", "left_not_right_regular3"))]
    kind = ALL_IDEALS[lid][0]
    outcomes = Counter()
    for G in inputs:
        expected = oracle(fresh(G))
        # above the lookup order each candidate is checked on its own unless the
        # structure keeps the kind's ideals; at or below it they are looked up
        assert lid.verifier(fresh(G)) == expected, G.tables
        ideals.enumerate_ideals(G, kind)
        assert lid.verifier(G) == expected, G.tables
        outcomes[expected is None] += 1
    assert outcomes[True] and (outcomes[False] or lid in ALWAYS_HOLD)


def test_the_per_element_entries_are_decided_above_the_enumeration_bound(product24):
    # order 24: the entries whose candidates are made per element are decided
    # one candidate at a time, as the oracle decides them; the others are refused
    for lid, (kind, candidates) in ALL_IDEALS.items():
        oracle = oracle_all_ideals(kind, candidates)
        if lid in ENUMERATING:
            for check in oracle, lid.verifier:
                with pytest.raises(LimitExceededError, match=ENUM_REFUSAL.format(24)):
                    check(fresh(product24))
        else:
            assert lid.verifier(fresh(product24)) == oracle(fresh(product24)), lid
    statuses = [verify(fresh(product24), lid).status for lid in (
        LemmaId.L_GG_BI, LemmaId.C_AG_BI_REGULAR, LemmaId.L_PRINCIPAL_LEFT_AGSS)]
    assert statuses == [LemmaStatus.HOLDS, LemmaStatus.NOT_APPLICABLE,
                        LemmaStatus.COUNTEREXAMPLE]


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
    found = next((shape, i, w)
                 for shape in CX_SHAPES for i, G in enumerate(cx_streams[shape])
                 for w in (lid.verifier(G),)
                 if w is not None)
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
                assert lid.verifier(G) is None, (lid, shape, G.tables)


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
    # each refused as on its own
    assert [verify(fresh(G), lid) for lid in PAIRING] == [refused] * 3


ENUM_REFUSAL = "subset enumeration over {} elements refused beyond 20"


def test_above_the_enumeration_bound_only_the_entries_that_enumerate_are_refused():
    # x·y = 1 at order 21: left-invertive and AG**, not regular
    G = GammaGroupoid.from_tables([[[0] * 21 for _ in range(21)]])
    verdicts = verify_all(G)
    assert verdicts == {lid: verify(fresh(G), lid) for lid in LemmaId}
    refused = LemmaVerdict(LemmaStatus.REFUSED, refusal=ENUM_REFUSAL.format(21))
    assert [lid for lid, v in verdicts.items() if v == refused] == ENUMERATING_UNLESS_REGULAR
    assert all(v.status is not LemmaStatus.REFUSED for lid, v in verdicts.items()
               if lid not in ENUMERATING)
    # a hunt decides an entry that does not enumerate and passes over one that does
    r = []
    assert hunt(iter([G]), LemmaId.L_MEDIAL, r) is None and r == []
    assert hunt(iter([G]), LemmaId.C_IDEAL_BI, r) is None and r == [G]
    # Z64 under x∘y = y - x is left-invertive, AG** and regular: every entry that
    # enumerates is refused, and the other 8 are decided
    Z = GammaGroupoid.from_tables([[[(y - x) % 64 for y in range(64)] for x in range(64)]])
    verdicts = verify_all(Z)
    refused = LemmaVerdict(LemmaStatus.REFUSED, refusal=ENUM_REFUSAL.format(64))
    assert [lid for lid, v in verdicts.items() if v == refused] == ENUMERATING
    assert all(verdicts[lid].status is not LemmaStatus.REFUSED
               for lid in LemmaId if lid not in ENUMERATING)


def test_the_whole_catalog_finds_the_order_24_counterexample(product24):
    G = product24
    assert _oracle_left_invertive_and_agss(G)
    full = set(range(24))
    G19 = oracle_product(G, full, {18})
    assert G19 == {0, 12}                             # G·19 = {1,13}
    assert oracle_product(G, full, G19) == {0, 6}     # 19·13 = 7 escapes
    cx = verify(G, LemmaId.L_PRINCIPAL_LEFT_AGSS)
    assert cx.witness == {"subset": 1 | 1 << 12, "clause": "LeftAbsorb",
                          "at": (18, 0, 12), "element": 18}
    verdicts = verify_all(G)
    assert verdicts[LemmaId.L_PRINCIPAL_LEFT_AGSS] == cx
    refused = LemmaVerdict(LemmaStatus.REFUSED, refusal=ENUM_REFUSAL.format(24))
    assert [lid for lid, v in verdicts.items() if v == refused] == ENUMERATING_UNLESS_REGULAR
    assert sum(v.status is LemmaStatus.REFUSED for v in verdicts.values()) == 9
    found = hunt(iter([G]), LemmaId.L_PRINCIPAL_LEFT_AGSS)
    assert found == (G, cx) and found[0] is G


def test_a_hypothesis_refused_by_a_limit_is_a_refused_verdict(monkeypatch):
    # one element under 4,097 gammas: the left-invertive gate that every entry
    # checks first has 4097**2 instances, above core.MAX_LAW_INSTANCES; a refused
    # gate is not kept, so each entry's gate is refused anew, before any law's pass
    passes, gates = [], []
    for law in Law:
        for form in ("holds_scalar", "holds_vector", "scan"):
            monkeypatch.setattr(law, form, lambda G, law=law: passes.append(law))
    check = gl.Filter.LEFT_INVERTIVE.holds
    monkeypatch.setattr(gl.Filter.LEFT_INVERTIVE, "holds",
                        lambda G: gates.append(G) or check(G))
    G = GammaGroupoid.from_tables([[[0]]] * 4097)
    refused = LemmaVerdict(LemmaStatus.REFUSED, refusal="left-invertive scan over "
                           "16785409 instances refused beyond 16777216")
    assert list(verify_all(G).values()) == [refused] * 24
    assert passes == [] and len(gates) == 24


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


# ---------------------------------------------------------------------------
# the proved law entries: hunts that answer without searching

PROVED = [LemmaId.L_MEDIAL, LemmaId.L_PARAMEDIAL]


def test_the_law_entries_keep_their_law_and_are_the_proved_entries():
    assert {lid: lid.law for lid in LemmaId if lid.law is not None} == {
        LemmaId.L_MEDIAL: Law.MEDIAL, LemmaId.L_PARAMEDIAL: Law.PARAMEDIAL}
    assert [lid for lid in LemmaId if lid.proved] == PROVED


def _drawn(structures, drawn):
    """The structures as a stream that appends each to ``drawn`` as it is drawn."""
    for G in structures:
        drawn.append(G)
        yield G


@pytest.mark.parametrize("lid", PROVED, ids=lambda lid: lid.value)
def test_a_proved_hunt_draws_nothing_from_its_stream(lid):
    def untouchable():
        raise AssertionError("a proved hunt drew from its stream")
        yield
    refused = []
    assert hunt(untouchable(), lid, refused) is None
    assert refused == []
    # a stream whose every structure a limit refuses: the proved entry has no
    # counterexample at any shape, so nothing is refused either
    wide = GammaGroupoid.from_tables([[[0]]] * 300)
    assert verify(wide, lid).status is LemmaStatus.REFUSED
    drawn = []
    assert hunt(_drawn([wide], drawn), lid, refused) is None
    assert drawn == refused == []


@pytest.mark.parametrize("lid", [lid for lid in LemmaId if lid not in PROVED],
                         ids=lambda lid: lid.value)
def test_every_other_hunt_draws_from_its_stream(lid, gamma5):
    drawn = []
    found = hunt(_drawn([gamma5, gamma5], drawn), lid)
    assert drawn == ([gamma5] if found else [gamma5, gamma5])


# ---------------------------------------------------------------------------
# metamorphic: every status is invariant under relabelling

def _relabelled(G, s, t):
    """G with element a renamed s[a] and gamma g renamed t[g]."""
    n, m = G.order, G.gamma_count
    out = [[[0] * n for _ in range(n)] for _ in range(m)]
    for g, table in enumerate(G.tables):
        for a, row in enumerate(table):
            for b, v in enumerate(row):
                out[t[g]][s[a]][s[b]] = s[v]
    return GammaGroupoid.from_tables(out)


def test_every_status_is_invariant_under_relabelling():
    # the premise of every class-stream hunt: each relabelling of the carrier and
    # the gammas of a structure gets the structure's status from every entry
    li = frozenset({gl.Filter.LEFT_INVERTIVE})
    specs = (gl.SearchSpec(2, 2), gl.SearchSpec(3, 1, li, lex_pruned=True),
             gl.SearchSpec(3, 2, li, lex_pruned=True))
    seen = Counter()
    for spec in specs:
        for G in gl.enumerate_structures(spec):
            want = [v.status for v in verify_all(G).values()]
            seen.update(want)
            for s in permutations(range(G.order)):
                for t in permutations(range(G.gamma_count)):
                    H = _relabelled(G, s, t)
                    assert [v.status for v in verify_all(H).values()] == want, (G, s, t)
    # the streams reach every status but a refusal
    assert set(seen) == set(LemmaStatus) - {LemmaStatus.REFUSED}


def test_every_status_is_invariant_under_duplicated_gammas():
    # each gamma taken twice leaves every product AΓB, and every law's truth,
    # as it was; the corpus products become four-gamma order-9 bundles, so the
    # vector pass's kept translation tables run at four gammas
    li = frozenset({gl.Filter.LEFT_INVERTIVE})
    specs = (gl.SearchSpec(2, 2), gl.SearchSpec(3, 1, li, lex_pruned=True),
             gl.SearchSpec(3, 2, li, lex_pruned=True))
    bundles = [G for spec in specs for G in gl.enumerate_structures(spec)] + corpus_products()
    seen = Counter()
    for G in bundles:
        want = [v.status for v in verify_all(G).values()]
        seen.update(want)
        twice = GammaGroupoid.from_tables(G.tables * 2)
        assert [v.status for v in verify_all(twice).values()] == want, G
    assert len(bundles) == 412
    assert set(seen) == set(LemmaStatus) - {LemmaStatus.REFUSED}
