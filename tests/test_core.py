import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaglab as gl
from gaglab.core import GammaGroupoid, Law, _variables, compile_propagate, members, subset_of
from gaglab.search import SearchSpec, enumerate_structures

from conftest import fresh, oracle_product, oracle_members, structures, structure_with_subsets


# ---------------------------------------------------------------------------
# construction

def test_construction_rejects_bad_entries():
    with pytest.raises(ValueError):
        GammaGroupoid.from_tables([[[0, 2], [0, 0]]])  # entry 2 outside order 2
    with pytest.raises(ValueError):
        GammaGroupoid.from_tables([[[0, 0]]])  # not square
    with pytest.raises(ValueError):
        GammaGroupoid.from_tables([])  # no gamma operation
    with pytest.raises(ValueError):
        GammaGroupoid(((((0,),),)), ("a", "a"), ("g",))  # duplicate labels


def test_default_labels(singleton):
    assert singleton.labels == ("1",)
    assert singleton.gamma_names == ("g1",)
    G = GammaGroupoid.from_tables([[[0, 1], [1, 0]], [[0, 0], [0, 0]]])
    assert G.labels == ("1", "2")
    assert G.gamma_names == ("g1", "g2")


def test_search_leaves_share_one_label_tuple_per_size():
    a, b = enumerate_structures(SearchSpec(order=2, gammas=2, limit=2))
    assert a.labels is b.labels and a.gamma_names is b.gamma_names
    assert a.labels == ("1", "2") and a.gamma_names == ("g1", "g2")
    # the cache keeps a few sizes, not every size ever built
    for size in range(1, 40):
        assert gl.core.default_labels(size) == tuple(str(i + 1) for i in range(size))
        assert gl.core.default_gamma_names(size) == tuple(f"g{i + 1}" for i in range(size))
    for cached in (gl.core.default_labels, gl.core.default_gamma_names):
        assert cached.cache_info().currsize <= cached.cache_info().maxsize < 39


def test_immutability(gamma5):
    with pytest.raises(AttributeError):
        gamma5.labels = ("x",) * 5
    # the shape is kept after its first read, and stays read-only
    G = fresh(gamma5)
    shape = {"order": 5, "gamma_count": 3, "carrier": 0b11111}
    for name, value in shape.items():
        assert getattr(G, name) == value
        with pytest.raises(AttributeError):
            setattr(G, name, value + 1)
        assert getattr(G, name) == value


# ---------------------------------------------------------------------------
# apply

def test_apply_fixture_values(gamma5, singleton):
    gam = gamma5.gamma_index("γ")
    alf = gamma5.gamma_index("α")
    assert gamma5.apply(gamma5.element_index("5"), gam, gamma5.element_index("4")) == \
        gamma5.element_index("3")
    assert gamma5.apply(0, alf, 1) == 0  # 1 α 2 = 1
    assert singleton.apply(0, 0, 0) == 0


def test_apply_out_of_range(gamma5):
    with pytest.raises(IndexError):
        gamma5.apply(5, 0, 0)
    with pytest.raises(IndexError):
        gamma5.apply(0, 3, 0)
    with pytest.raises(IndexError):
        gamma5.apply(0, 0, -1)


# ---------------------------------------------------------------------------
# law checks on the fixtures (frozen first-witness values)

def test_gamma5_laws(gamma5):
    assert gl.check_law(gamma5, Law.LEFT_INVERTIVE).holds
    assert gl.check_law(gamma5, Law.AG_STAR_STAR).holds
    assert gl.check_law(gamma5, Law.MEDIAL).holds
    assert gl.check_law(gamma5, Law.PARAMEDIAL).holds
    v = gl.check_law(gamma5, Law.ASSOCIATIVE)
    assert not v.holds and v.witness == (0, 0, 0, 1, 0)  # (1 α 1) β 1 != 1 α (1 β 1)
    v = gl.check_law(gamma5, Law.COMMUTATIVE)
    assert not v.holds and v.witness == (3, 2, 4)  # 4 γ 5 != 5 γ 4


def test_gamma5_cited_associativity_instance(gamma5):
    # (1 α 2) β 3 != 1 α (2 β 3), evaluated straight off the tables
    a, b, c = 0, 1, 2
    al, be = gamma5.gamma_index("α"), gamma5.gamma_index("β")
    lhs = gamma5.tables[be][gamma5.tables[al][a][b]][c]
    rhs = gamma5.tables[al][a][gamma5.tables[be][b][c]]
    assert lhs != rhs


def test_dot5_laws(dot5):
    assert gl.check_law(dot5, Law.LEFT_INVERTIVE).holds
    assert gl.check_law(dot5, Law.AG_STAR_STAR).holds
    assert gl.check_law(dot5, Law.MEDIAL).holds
    assert gl.check_law(dot5, Law.PARAMEDIAL).holds
    v = gl.check_law(dot5, Law.ASSOCIATIVE)
    assert not v.holds and v.witness == (0, 0, 0, 0, 0)
    assert not gl.check_law(dot5, Law.COMMUTATIVE).holds


def test_singleton_satisfies_everything(singleton):
    for law in Law:
        assert gl.check_law(singleton, law).holds


def test_law_scan_bound():
    # 257 one-element gammas: 257**3 medial and paramedial instances, just
    # over the bound of 64**4 = 256**3
    G = GammaGroupoid.from_tables([[[0]]] * 257)
    assert gl.check_law(G, Law.LEFT_INVERTIVE).holds  # 257**2 instances
    for law in (Law.MEDIAL, Law.PARAMEDIAL):
        with pytest.raises(gl.LimitExceededError,
                           match=f"^{law.value} scan over 16974593 instances refused"):
            gl.check_law(G, law)


def test_check_law_refuses_an_oversized_scan_before_it_starts(monkeypatch):
    monkeypatch.setattr("gaglab.core.MAX_LAW_INSTANCES", 100)
    # (3,2) has 3**3 * 2**2 = 108 instances of either law, and 3 * 3 * 2 = 18
    # commutative ones
    G = GammaGroupoid.from_tables([[[0] * 3] * 3] * 2)
    for law in (Law.LEFT_INVERTIVE, Law.AG_STAR_STAR):
        monkeypatch.setattr(law, "scan", lambda G: pytest.fail("the scan started"))
        with pytest.raises(gl.LimitExceededError,
                           match=f"^{law.value} scan over 108 instances refused beyond 100$"):
            gl.check_law(G, law)
    assert gl.check_law(G, Law.COMMUTATIVE).holds


def _oracle_law_holds(G, law):
    """Naive re-implementation used as an independent oracle."""
    n, m = G.order, G.gamma_count
    t = G.tables
    R, M = range(n), range(m)
    if law is Law.LEFT_INVERTIVE:
        return all(t[d][t[g][a][b]][c] == t[d][t[g][c][b]][a]
                   for a in R for b in R for c in R for g in M for d in M)
    if law is Law.AG_STAR_STAR:
        return all(t[g][a][t[d][b][c]] == t[g][b][t[d][a][c]]
                   for a in R for b in R for c in R for g in M for d in M)
    if law is Law.ASSOCIATIVE:
        return all(t[d][t[g][a][b]][c] == t[g][a][t[d][b][c]]
                   for a in R for b in R for c in R for g in M for d in M)
    if law is Law.COMMUTATIVE:
        return all(t[g][a][b] == t[g][b][a] for a in R for b in R for g in M)
    if law is Law.MEDIAL:
        return all(t[gb][t[ga][x][y]][t[gg][l][mm]] == t[gb][t[ga][x][l]][t[gg][y][mm]]
                   for x in R for y in R for l in R for mm in R
                   for ga in M for gb in M for gg in M)
    return all(t[gb][t[ga][x][y]][t[gg][l][mm]] == t[gb][t[ga][mm][l]][t[gg][y][x]]
               for x in R for y in R for l in R for mm in R
               for ga in M for gb in M for gg in M)


@settings(max_examples=60, deadline=None)
@given(structures(max_order=3, max_gammas=2))
def test_check_law_agrees_with_oracle(G):
    for law in Law:
        assert gl.check_law(G, law).holds == _oracle_law_holds(G, law)


@settings(max_examples=80, deadline=None)
@given(structures())
def test_law_witnesses_reverify(G):
    for law in Law:
        v = gl.check_law(G, law)
        if not v.holds:
            lhs, rhs = gl.law_sides(G, law, v.witness)
            assert lhs != rhs


def _walk(term, T, env, n):
    """A term on partial tables, by recursion: its value (None while unknown),
    the unassigned cells it reaches, and its outermost cell when both
    arguments of that lookup are known."""
    if isinstance(term, str):
        return env[term], [], None
    left, g, right = term
    a, reach_a, _ = _walk(left, T, env, n)
    b, reach_b, _ = _walk(right, T, env, n)
    if a is None or b is None:
        return None, reach_a + reach_b, None
    v = T[env[g]][a][b]
    return (None, [(env[g], a, b)], (env[g], a, b)) if v == n else (v, [], (env[g], a, b))


# every law, plus a side that is a bare variable on either side
_PROBE_TERMS = [law.terms for law in Law] + [("a", ("a", "g", "a")), (("a", "g", "b"), "b")]


def _propagate_one(terms, T, values, n, m):
    """The search's compiled propagate step, run on one instance while no other
    waits: its verdict, the cells it waits on and the cells it forces."""
    W = [[[[] for _ in range(n)] for _ in range(n)] for _ in range(m)]
    moved, forced = [], []
    inst = (0, *values)
    holds = compile_propagate([terms])(T, W, n, moved, forced)([inst])
    waits = [(g, r, c) for g, r, c in product(range(m), range(n), range(n))
             for _ in W[g][r][c]]
    assert len(moved) == len(waits) and all(bucket[-1] is inst for bucket in moved)
    cells = [(g, r, c) for row, c in forced for g, t in enumerate(T) for r in range(n)
             if t[r] is row]
    return holds, sorted(waits), cells


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_probe_meets_its_contract(data):
    terms = data.draw(st.sampled_from(_PROBE_TERMS))
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    T = [[[data.draw(st.integers(0, n)) for _ in range(n)] + [n] for _ in range(n)]
         + [[n] * (n + 1)] for _ in range(m)]
    before = [[row[:] for row in t] for t in T]
    variables = _variables(*terms)
    values = tuple(data.draw(st.integers(0, (m if is_gamma else n) - 1))
                   for _, is_gamma in variables)
    env = dict(zip((v for v, _ in variables), values))
    sides = [_walk(t, T, env, n) for t in terms]
    (lv, l_reach, l_root), (rv, r_reach, r_root) = sides
    holds, waits, cells = _propagate_one(terms, T, values, n, m)
    if None not in (lv, rv):
        assert (holds, waits, cells) == (lv == rv, [], [])
        assert T == before
        return
    assert holds
    forceable = [(root, w) for (v, _, root), (w, _, _) in (sides, sides[::-1])
                 if v is None and w is not None and root is not None]
    if forceable:
        (cell, known), = forceable
        assert (waits, cells) == ([], [cell])
        g, r, c = cell
        before[g][r][c] = known
    elif l_root and r_root and lv is None and rv is None:
        # blocked only at both outermost lookups: it waits on both cells
        assert (waits, cells) == (sorted([l_root, r_root]), [])
    else:
        assert len(waits) == 1 and waits[0] in l_reach + r_reach and cells == []
    assert T == before


def test_propagate_waits_on_both_outermost_cells():
    # (0 g 0) d 1 = (1 g 0) d 0 with 0·0 = 1·0 = 2 known and 2·1, 2·0 unassigned
    n, law = 3, Law.LEFT_INVERTIVE
    T = [[[2, n, n, n], [2, n, n, n], [n, n, n, n], [n] * 4]]
    W = [[[[] for _ in range(n)] for _ in range(n)]]
    moved, forced = [], []
    propagate = compile_propagate([law.terms])(T, W, n, moved, forced)
    inst = (0, 0, 0, 0, 0, 1)
    assert propagate([inst])
    assert W[0][2][1] == W[0][2][0] == [inst] and forced == []
    # the right cell is assigned first: the second watch wakes the instance,
    # which forces the left cell to the same value
    T[0][2][0] = 1
    assert propagate(W[0][2][0])
    assert T[0][2][1] == 1 and forced == [(T[0][2], 1)]


_SWAPS = {Law.LEFT_INVERTIVE: {"a": "c"}, Law.AG_STAR_STAR: {"a": "b"},
          Law.MEDIAL: {"y": "l"}, Law.PARAMEDIAL: {"x": "m", "y": "l"},
          Law.ASSOCIATIVE: None, Law.COMMUTATIVE: {"a": "b"}}


def _substitute(term, image):
    if isinstance(term, str):
        return image[term]
    left, g, right = term
    return _substitute(left, image), image[g], _substitute(right, image)


@pytest.mark.parametrize("law", list(Law))
def test_instances_take_one_per_mirror_pair(law):
    n, m = 3, 2
    names = [v for v, _ in law.variables]
    everything = list(product(*(range(m) if g else range(n) for _, g in law.variables)))
    kept = law.instances(n, m)
    if _SWAPS[law] is None:
        assert law.mirror is None and kept == everything
        return
    mirror = law.mirror
    assert {v: w for v, w in mirror.items() if v != w} == \
        {**_SWAPS[law], **{w: v for v, w in _SWAPS[law].items()}}
    lhs, rhs = law.terms
    assert _substitute(lhs, mirror) == rhs and _substitute(rhs, mirror) == lhs

    def image(values):
        env = dict(zip(names, values))
        return tuple(env[mirror[v]] for v in names)
    images = [image(v) for v in kept]
    self_mirror = [v for v in everything if image(v) == v]
    assert sorted(kept + images + self_mirror) == everything
    # both sides of a self-mirror instance are the same lookup
    rng = random.Random(law.value)
    for _ in range(20):
        T = [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(m)]
        for values in self_mirror:
            env = dict(zip(names, values))
            assert _walk(lhs, T, env, n)[0] == _walk(rhs, T, env, n)[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_law_sides_evaluate_both_terms(data):
    # law_sides reads the probe, which is exact on complete tables
    G = data.draw(structures(max_order=3, max_gammas=2))
    law = data.draw(st.sampled_from(list(Law)))
    values = tuple(data.draw(st.integers(0, (G.gamma_count if is_gamma else G.order) - 1))
                   for _, is_gamma in law.variables)
    env = dict(zip((v for v, _ in law.variables), values))
    assert gl.law_sides(G, law, values) == \
        tuple(_walk(t, G.tables, env, G.order)[0] for t in law.terms)


# ---------------------------------------------------------------------------
# identities

def test_identities(gamma5, dot5, singleton):
    assert gl.identities(gamma5, "left") == set()
    assert gl.identities(gamma5, "right") == set()
    assert gl.identities(dot5, "left") == {dot5.element_index("4")}
    assert gl.identities(dot5, "right") == set()
    assert gl.identities(singleton, "left") == {0}
    with pytest.raises(ValueError):
        gl.identities(gamma5, "middle")


# ---------------------------------------------------------------------------
# subset products

def test_subset_product_fixture_values(gamma5):
    lbl = gamma5.subset_of_labels
    assert gl.subset_product(gamma5, lbl(["4"]), lbl(["5"])) == lbl(["1", "2"])
    assert gl.subset_product(gamma5, gamma5.carrier, lbl(["1", "2", "3"])) == lbl(["1", "2"])
    assert gl.subset_product(gamma5, 0, lbl(["3"])) == 0
    assert gl.subset_product(gamma5, lbl(["3"]), 0) == 0


def test_subset_product_width_check(gamma5):
    with pytest.raises(ValueError, match="^left operand 0x20 does not fit carrier of size 5$"):
        gl.subset_product(gamma5, 1 << 5, 1)
    with pytest.raises(ValueError, match="^right operand -0x1 does not fit carrier of size 5$"):
        gl.subset_product(gamma5, 1, -1)
    # with both operands bad, the left one is named first
    for A, B in ((1 << 5, -1), (-1, 1 << 5), (-1, -1)):
        with pytest.raises(ValueError, match="^left operand"):
            gl.subset_product(gamma5, A, B)


def _assert_every_product_matches_the_oracle(G):
    subsets = [oracle_members(S) for S in range(G.carrier + 1)]
    for A, As in enumerate(subsets):
        for B, Bs in enumerate(subsets):
            assert oracle_members(gl.subset_product(G, A, B)) == oracle_product(G, As, Bs), \
                (G.tables, A, B)


_SMALL_FIXTURES = [p.stem for p in sorted(Path(gl.fixture_path("gamma5")).parent.glob("*.gag"))
                   if gl.parse_file(p).order <= 5]


@pytest.mark.parametrize("name", _SMALL_FIXTURES)
def test_subset_product_matches_the_oracle_on_every_pair_of_a_fixture(name):
    _assert_every_product_matches_the_oracle(gl.load_fixture(name))


@pytest.mark.parametrize("order,gammas", [(2, 2), (3, 1)])
def test_subset_product_matches_the_oracle_on_every_pair_of_a_stream(order, gammas):
    # a fresh copy of each structure builds its own product kernel
    for G in enumerate_structures(SearchSpec(order, gammas)):
        _assert_every_product_matches_the_oracle(fresh(G))


@settings(max_examples=80, deadline=None)
@given(structure_with_subsets(count=3))
def test_subset_product_matches_set_oracle(data):
    G, A, B, _ = data
    got = gl.subset_product(G, A, B)
    assert oracle_members(got) == oracle_product(G, oracle_members(A), oracle_members(B))


@settings(max_examples=80, deadline=None)
@given(structure_with_subsets(count=3))
def test_subset_product_monotone_and_distributes(data):
    G, A, B, C = data
    prod = gl.subset_product
    # monotone: A subset of A|C
    assert prod(G, A, B) & ~prod(G, A | C, B) == 0
    assert prod(G, B, A) & ~prod(G, B, A | C) == 0
    # distributes over union in each argument
    assert prod(G, A | C, B) == prod(G, A, B) | prod(G, C, B)
    assert prod(G, B, A | C) == prod(G, B, A) | prod(G, B, C)


# ---------------------------------------------------------------------------
# regularity

def test_regular_witness_fixture_values(gamma5, singleton):
    assert gl.regular_witness(singleton, 0) == gl.RegularityWitness(0, 0, 0)
    # element 1 of the bundle: first witness in (x, beta, gamma) scan order
    assert gl.regular_witness(gamma5, 0) == gl.RegularityWitness(0, 0, 0)
    assert gl.regular_witness(gamma5, 1) == gl.RegularityWitness(0, 0, 1)
    for idx in (2, 3, 4):  # labels 3, 4, 5 have no witness
        assert gl.regular_witness(gamma5, idx) is None


def test_is_regular(gamma5, dot5, singleton):
    assert not gl.is_regular(gamma5)
    assert gl.is_regular(dot5)
    assert gl.is_regular(singleton)


@settings(max_examples=80, deadline=None)
@given(structures())
def test_regular_witness_satisfies_equation(G):
    for a in range(G.order):
        w = gl.regular_witness(G, a)
        if w is not None:
            assert G.apply(G.apply(a, w.beta, w.x), w.gamma, a) == a
        else:
            assert all(G.tables[g][G.tables[b][a][x]][a] != a
                       for x in range(G.order)
                       for b in range(G.gamma_count)
                       for g in range(G.gamma_count))


# ---------------------------------------------------------------------------
# law consequences on enumerated structures (small, fast version)

def test_left_invertive_implies_medial_small():
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        spec = gl.SearchSpec(order=n, gammas=m,
                             filters=frozenset({gl.Filter.LEFT_INVERTIVE}))
        for G in gl.enumerate_structures(spec):
            assert gl.check_law(G, Law.MEDIAL).holds


def test_left_invertive_agss_implies_paramedial_small():
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        spec = gl.SearchSpec(order=n, gammas=m,
                             filters=frozenset({gl.Filter.LEFT_INVERTIVE,
                                                gl.Filter.AG_STAR_STAR}))
        for G in gl.enumerate_structures(spec):
            assert gl.check_law(G, Law.PARAMEDIAL).holds


# ---------------------------------------------------------------------------
# mask helpers

def test_mask_helpers():
    assert subset_of([0, 2, 3]) == 0b1101
    assert members(0b1101) == (0, 2, 3)
    assert members(0) == ()


def test_members_refuses_a_negative_mask():
    # a negative mask has infinitely many set bits; members must not walk them
    for mask in (-1, -2, -(1 << 70)):
        with pytest.raises(ValueError, match="negative"):
            members(mask)


def test_labels_of_subset_refuses_a_mask_outside_the_carrier(gamma5):
    assert gamma5.labels_of_subset(0b10001) == ("1", "5")
    for mask in (-1, 1 << 5, -(1 << 70)):
        with pytest.raises(ValueError, match="does not fit carrier of size 5"):
            gamma5.labels_of_subset(mask)


def test_members_matches_the_oracle_below_2_to_the_12():
    for mask in range(1 << 12):
        assert list(members(mask)) == sorted(oracle_members(mask))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 64) - 1))
def test_members_matches_the_oracle_up_to_64_bits(mask):
    assert list(members(mask)) == sorted(oracle_members(mask))
