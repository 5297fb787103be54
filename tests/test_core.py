import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaglab as gl
from gaglab import core
from gaglab.core import GammaGroupoid, Law, check_law_size, compile_scan, members, subset_of
from gaglab.search import SearchSpec, enumerate_structures

from conftest import (corpus_products, fresh, oracle_members, oracle_product, oracle_walk,
                      random_bundles, structures, structure_with_subsets)


# ---------------------------------------------------------------------------
# construction

def test_construction_rejects_bad_entries():
    with pytest.raises(ValueError, match="table entry 2 outside carrier"):
        GammaGroupoid.from_tables([[[0, 2], [0, 0]]])
    with pytest.raises(ValueError, match="n-by-n"):
        GammaGroupoid.from_tables([[[0, 0]]])  # not square
    with pytest.raises(ValueError, match="must be non-empty"):
        GammaGroupoid.from_tables([])  # no gamma operation
    with pytest.raises(ValueError, match="carrier size 65 exceeds supported maximum 64"):
        GammaGroupoid((), tuple(map(str, range(65))), ("g",))
    with pytest.raises(ValueError, match="exactly one table per gamma"):
        GammaGroupoid((((0,),),), ("a",), ("g", "h"))
    with pytest.raises(ValueError, match="element labels must be unique"):
        GammaGroupoid((((0, 0), (0, 0)),), ("a", "a"), ("g",))
    with pytest.raises(ValueError, match="gamma names must be unique"):
        GammaGroupoid((((0,),), ((0,),)), ("a",), ("g", "g"))
    for labels, names in (("a b",), ("g",)), (("a",), ("g#",)):
        with pytest.raises(ValueError, match="bad display token"):
            GammaGroupoid((((0,),),), labels, names)


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


def test_unknown_gamma_name(gamma5):
    with pytest.raises(KeyError, match="unknown gamma name 'δ'"):
        gamma5.gamma_index("δ")


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


def test_a_law_verdict_is_kept_on_the_structure(gamma5):
    G = fresh(gamma5)
    for law in Law:
        assert gl.check_law(G, law) is gl.check_law(G, law)


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


@pytest.mark.parametrize("law", list(Law))
def test_the_law_size_is_the_product_over_the_laws_variables(monkeypatch, law):
    # (3,2): each element variable takes 3 values and each gamma variable 2
    G = GammaGroupoid.from_tables([[[0] * 3] * 3] * 2)
    instances = 1
    for _, is_gamma in law.variables:
        instances *= 2 if is_gamma else 3
    monkeypatch.setattr("gaglab.core.MAX_LAW_INSTANCES", instances)
    check_law_size(G, law)
    monkeypatch.setattr("gaglab.core.MAX_LAW_INSTANCES", instances - 1)
    with pytest.raises(gl.LimitExceededError, match=f"^{law.value} scan over {instances} "
                       f"instances refused beyond {instances - 1}$"):
        check_law_size(G, law)


def test_the_vector_form_takes_every_law_and_refuses_other_terms(gamma5):
    ag_star = (("a", "g", "b"), "d", "c"), ("b", "g", ("a", "d", "c"))
    right_invertive = ("a", "g", ("b", "d", "c")), ("c", "g", ("b", "d", "a"))
    every_left_identity = ("e", "g", "a"), "a"  # a whole term that is the lanes
    # the lanes three lookups deep: a translated row translated again in the loop
    deep = ("a", "g", ("b", "d", ("e", "h", "c"))), ((("a", "g", "b"), "d", "e"), "h", "c")
    # a column translated through a row (CRT), and a row through a column (RCT)
    mixed = [(("a", "d", ("b", "g", "c")), rhs)
             for rhs in (("a", "d", ("c", "g", "b")), (("b", "g", "c"), "d", "a"))]
    right_zero = GammaGroupoid.from_tables([[list(range(4))] * 4] * 2)  # a g b = b
    plus = GammaGroupoid.from_tables([[[(x + y + g) % 4 for y in range(4)] for x in range(4)]
                                      for g in range(2)])
    for terms in (*(law.terms for law in Law), ag_star, right_invertive, every_left_identity,
                  *mixed, deep, deep[::-1]):
        vector = compile_scan(terms, "{0} != {1}", vector=True)
        scalar = compile_scan(terms, "{0} != {1}", gammas_outer=True)
        for G in (gamma5, right_zero, plus):
            assert vector(G) == scalar(G), (terms, G)
    assert compile_scan(every_left_identity, "{0} != {1}", vector=True)(right_zero)
    assert all(compile_scan(terms, "{0} != {1}", vector=True)(plus) for terms in mixed)
    # the last element variable twice on the left, and not at all on the right
    for terms in ((("a", "g", "a"), "a"), (("a", "g", "b"), "a")):
        with pytest.raises(ValueError, match="exactly once in each term"):
            compile_scan(terms, "{0} != {1}", vector=True)


def test_the_vector_and_scalar_verdicts_agree():
    # the vector form decides every value of the last element variable in one
    # comparison: another code path from the scalar pass's, never another verdict
    products = corpus_products()
    assert len(products) == 24 and {G.order for G in products} == {9}
    verdicts = Counter()
    for G in (*products, *random_bundles()):
        for law in Law:
            holds = law.holds_scalar(G)
            assert law.holds_vector(G) == holds, (law, G.tables)
            verdicts[law, holds] += 1
    # both verdicts of every law occur, medial's and paramedial's among them
    assert len(verdicts) == 2 * len(Law)


def test_the_vector_pass_reads_translation_tables_kept_on_the_structure(monkeypatch):
    # every law loops over its variables in order of first appearance, gammas first,
    # and translates its vectors in the loop through the rows and columns that the
    # structure keeps, R, C, RT and CT, n·m of each
    emitted, define = [], core._define
    monkeypatch.setattr(core, "_define", lambda lines: emitted.append(lines) or define(lines))
    vector = {law: compile_scan(law.terms, "{0} != {1}", vector=True) for law in Law}
    assert len(emitted) == len(Law)
    for law, lines in zip(Law, emitted):
        assert not [line for line in lines if " for " in line.strip()], law
        loops = [line.split()[1] for line in lines if line.strip().startswith("for ")]
        gammas = [v for v, is_gamma in law.variables if is_gamma]
        elements = [v for v, is_gamma in law.variables if not is_gamma]
        assert loops == ["v_" + v for v in gammas + elements[:-1]], law
    # x g y = 2x + 7y + g mod 9, medial and paramedial (2² = 7² mod 9)
    G = GammaGroupoid.from_tables([[[(2 * x + 7 * y + g) % 9 for y in range(9)]
                                    for x in range(9)] for g in range(2)])
    assert vector[Law.MEDIAL](G) and vector[Law.PARAMEDIAL](G)
    assert set(G._facts) <= {"R", "C", "RT", "CT"}
    # a repeated pass reads the kept tables and builds nothing
    facts = dict(G._facts)
    assert vector[Law.MEDIAL](G) and vector[Law.PARAMEDIAL](G)
    assert G._facts.keys() == facts.keys()
    assert all(G._facts[k] is v for k, v in facts.items())


# per law, the loop that its scalar and its vector verdict pass restrict to one
# instance per mirror pair, and the range it runs over: from u's value + 1 when the
# mirror fixes every other variable (an instance with equal u and w is its own
# image), else from u's value; no loop where the mirror swaps the lanes or is None
_RESTRICTED = {
    Law.LEFT_INVERTIVE: ({"c": "TL[v_a + 1]"}, {}),
    Law.AG_STAR_STAR: ({"b": "TL[v_a + 1]"}, {"b": "TL[v_a + 1]"}),
    Law.MEDIAL: ({"l": "TL[v_y + 1]"}, {"l": "TL[v_y + 1]"}),
    Law.PARAMEDIAL: ({"m": "TL[v_x]"}, {"l": "TL[v_y]"}),
    Law.ASSOCIATIVE: ({}, {}),
    Law.COMMUTATIVE: ({"b": "TL[v_a + 1]"}, {}),
}


def test_each_verdict_pass_restricts_one_loop_to_one_instance_per_mirror_pair(monkeypatch):
    # the scalar and vector verdict passes, compiled afresh, restrict exactly the
    # listed loop; the witness scan keeps full loops, so every witness stays the first
    emitted, define = [], core._define
    monkeypatch.setattr(core, "_define", lambda lines: emitted.append(lines) or define(lines))
    for law in Law:
        assert law.mirror == core._mirror(*law.terms)
        loops = []
        for name in ("holds_scalar", "holds_vector", "scan"):
            monkeypatch.delitem(law.__dict__, name, raising=False)
            emitted.clear()
            getattr(law, name)
            (lines,) = emitted
            loops.append(dict(line.strip()[len("for v_"):-1].split(" in ")
                              for line in lines if line.strip().startswith("for ")))
        scalar, vector, scan = loops
        lanes = law.variables[-1][0]
        assert lanes not in vector and lanes in scalar and lanes in scan, law
        assert _RESTRICTED[law] == tuple({v: r for v, r in by.items() if r not in ("E", "M")}
                                         for by in (scalar, vector)), law
        assert set(scan.values()) <= {"E", "M"}, law
        for by, restricted in zip((scalar, vector), _RESTRICTED[law]):
            for w, bound in restricted.items():  # u, whose value bounds w, loops outside w
                u = re.fullmatch(r"TL\[v_(\w+)( \+ 1)?\]", bound).group(1)
                assert law.mirror[u] == w and list(by).index(u) < list(by).index(w), law
    # a pass is only restricted under its gammas outermost, where no hit is a witness
    emitted.clear()
    compile_scan(Law.MEDIAL.terms, "{0} != {1}", mirror=Law.MEDIAL.mirror)
    assert not [line for line in emitted[0] if "TL" in line]


def test_a_holding_left_invertive_pass_keeps_tables_linear_in_the_gammas():
    # the m² or m³ gamma tuples of these laws are bounded only by MAX_LAW_INSTANCES;
    # every translated vector is made in the loop, so a pass that holds keeps rows and
    # columns, n·m of each, and no table indexed by a pair of gammas
    for law, gammas, tables in ((Law.LEFT_INVERTIVE, 300, {"R", "C", "CT"}),
                                (Law.MEDIAL, 40, {"R", "RT"}),
                                (Law.PARAMEDIAL, 40, {"R", "C", "RT", "CT"})):
        G = GammaGroupoid.from_tables([[[0] * 2] * 2] * gammas)
        assert check_law_size(G, law) >= core.VECTOR_INSTANCES
        assert law.holds(G)
        assert set(G._facts) == tables, law


def test_order_one_decides_every_law_without_a_pass(monkeypatch):
    # at order 1 every product is the one element, so once its size is checked a law
    # holds: no pass runs and no byte table is built, up to the bound and
    # (1,256), where medial and paramedial have 256³ = MAX_LAW_INSTANCES instances;
    # beyond it every law with two gammas or more is still refused
    def no_pass(G):
        raise AssertionError("a verdict pass ran at order 1")
    for law in Law:
        for name in ("holds_scalar", "holds_vector"):
            monkeypatch.setitem(law.__dict__, name, no_pass)
    for m in (1, 7, 256):
        G = GammaGroupoid.from_tables([[[0]]] * m)
        assert all(gl.check_law(G, law).holds for law in Law)
        assert set(G._facts) == set(Law)
    G = GammaGroupoid.from_tables([[[0]]] * 16000)
    for law in Law:
        if law.gamma_variables > 1:
            with pytest.raises(gl.LimitExceededError, match=f"^{law.value} scan over "):
                law.holds(G)
        else:
            assert law.holds(G)


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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_law_sides_evaluate_both_terms(data):
    # law_sides evaluates the terms; the partial-table oracle must agree on
    # complete tables
    G = data.draw(structures(max_order=3, max_gammas=2))
    law = data.draw(st.sampled_from(list(Law)))
    values = tuple(data.draw(st.integers(0, (G.gamma_count if is_gamma else G.order) - 1))
                   for _, is_gamma in law.variables)
    env = dict(zip((v for v, _ in law.variables), values))
    assert gl.law_sides(G, law, values) == \
        tuple(oracle_walk(t, G.tables, env, G.order)[0] for t in law.terms)


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


def _with_and_without_a_kept_kernel(G):
    """Two fresh copies of G: one without a kept powerset kernel, whose products are
    read a member at a time, and one that keeps it, from which AΓG, GΓB and AΓA are
    read."""
    kept = fresh(G)
    core._fact(kept, "powerset", lambda: core._powerset_kernel(kept))
    return fresh(G), kept


def _assert_every_product_matches_the_oracle(G):
    subsets = [oracle_members(S) for S in range(G.carrier + 1)]
    copies = _with_and_without_a_kept_kernel(G)
    for A, As in enumerate(subsets):
        for B, Bs in enumerate(subsets):
            want = oracle_product(G, As, Bs)
            assert all(oracle_members(gl.subset_product(H, A, B)) == want for H in copies), \
                (G.tables, A, B)


_SMALL_FIXTURES = [p.stem for p in sorted(Path(gl.fixture_path("gamma5")).parent.glob("*.gag"))
                   if gl.parse_file(p).order <= 5]


@pytest.mark.parametrize("name", _SMALL_FIXTURES)
def test_subset_product_matches_the_oracle_on_every_pair_of_a_fixture(name):
    _assert_every_product_matches_the_oracle(gl.load_fixture(name))


@pytest.mark.parametrize("order,gammas", [(2, 2), (3, 1)])
def test_subset_product_matches_the_oracle_on_every_pair_of_a_stream(order, gammas):
    # fresh copies of each structure build their own kernels
    for G in enumerate_structures(SearchSpec(order, gammas)):
        _assert_every_product_matches_the_oracle(G)


def test_subset_product_with_the_carrier_or_itself_matches_the_oracle_at_order_9():
    # the order-9 corpus products: AΓG, GΓA and AΓA for every mask A
    for G in corpus_products():
        copies = _with_and_without_a_kept_kernel(G)
        F, Fs = G.carrier, oracle_members(G.carrier)
        for A in range(F + 1):
            As = oracle_members(A)
            for X, Xs, Y, Ys in ((A, As, F, Fs), (F, Fs, A, As), (A, As, A, As)):
                want = oracle_product(G, Xs, Ys)
                assert all(oracle_members(gl.subset_product(H, X, Y)) == want
                           for H in copies), (G.tables, X, Y)


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
    for idx in (-1, 5):
        with pytest.raises(IndexError, match=f"element index {idx} out of range"):
            gl.regular_witness(gamma5, idx)


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


def test_members_refuses_a_mask_wider_than_64_bits():
    for mask in (1 << 64, (1 << 70) | 1):
        with pytest.raises(ValueError, match="wider than 64 bits"):
            members(mask)


def test_importing_gaglab_builds_no_byte_table():
    # members builds its 2,048-tuple table on first use, not at every start
    code = "import gaglab.core as c; assert not c._BYTE_MEMBERS; c.members(1); assert c._BYTE_MEMBERS"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(Path(gl.__file__).parents[1])})
