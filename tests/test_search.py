import random
import time
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaglab as gl
from gaglab import core, search
from gaglab.core import GammaGroupoid, Law, _variables
from gaglab.search import (Filter, SearchSpec, _instances, _mirror, canonical_form,
                           compile_propagate, count, enumerate_structures)

from conftest import fresh, oracle_walk, structures


# ---------------------------------------------------------------------------
# independent naive oracle: materialize every bundle, filter by direct scans

def _naive_bundles(n, m):
    cells = n * n * m
    for assign in product(range(n), repeat=cells):
        yield tuple(tuple(tuple(assign[g * n * n + r * n + c] for c in range(n))
                          for r in range(n)) for g in range(m))


def _naive_law(T, n, m, law):
    R, M = range(n), range(m)
    if law == "li":
        return all(T[d][T[g][a][b]][c] == T[d][T[g][c][b]][a]
                   for a in R for b in R for c in R for g in M for d in M)
    return all(T[g][a][T[d][b][c]] == T[g][b][T[d][a][c]]
               for a in R for b in R for c in R for g in M for d in M)


@cache
def _naive_stream(n, m, laws):
    """Every bundle passing the laws, in lexicographic order of its cells."""
    return [T for T in _naive_bundles(n, m) if all(_naive_law(T, n, m, law) for law in laws)]


# pinned after running the naive oracle; the oracle still runs live below
PINNED = {
    (1, 1, ("li",)): 1,
    (1, 2, ("li",)): 1,
    (2, 1, ("li",)): 6,
    (2, 2, ("li",)): 14,
    (2, 2, ("li", "ss")): 14,
    (3, 1, ("li",)): 105,
    (3, 1, ("li", "ss")): 81,
    # AG** alone, whose mirror swaps a and b (appended, so the ids above stay)
    (2, 2, ("ss",)): 32,
    (3, 1, ("ss",)): 573,
}

_FILTER_OF = {"li": Filter.LEFT_INVERTIVE, "ss": Filter.AG_STAR_STAR}


def _spec(n, m, laws, **kw):
    return SearchSpec(order=n, gammas=m, filters=frozenset(_FILTER_OF[l] for l in laws), **kw)


@pytest.mark.parametrize("n,m,laws", list(PINNED))
def test_pruned_counts_equal_naive_full_scan(n, m, laws):
    got = [G.tables for G in enumerate_structures(_spec(n, m, laws))]
    assert len(got) == PINNED[(n, m, laws)]
    assert got == _naive_stream(n, m, laws)


@pytest.mark.parametrize("limit", [0, 1, 5])
@pytest.mark.parametrize("n,m,laws", list(PINNED))
def test_limit_cuts_the_naive_stream(n, m, laws, limit):
    got = [G.tables for G in enumerate_structures(_spec(n, m, laws, limit=limit))]
    assert got == _naive_stream(n, m, laws)[:limit]


@pytest.mark.parametrize("n,m,laws", [(3, 2, ("li",)), (3, 2, ("li", "ss")), (3, 1, ("ss",))])
def test_leaf_recheck_never_rejects_a_prunable_law(monkeypatch, n, m, laws):
    # every instance was checked on the way down, so the leaf re-check of the
    # pruned laws always holds
    verdicts = []
    real = search.check_law

    def recording(G, law):
        verdict = real(G, law)
        verdicts.append(verdict.holds)
        return verdict
    monkeypatch.setattr(search, "check_law", recording)
    assert count(_spec(n, m, laws)) * len(laws) == len(verdicts)
    assert all(verdicts)


@pytest.mark.parametrize("n,m,filters", [(3, 2, {Filter.LEFT_INVERTIVE}), (2, 2, set())])
def test_leaves_equal_validated_structures(n, m, filters):
    # leaves skip the checks of __post_init__, as the search wrote every cell
    leaves = 0
    for G in enumerate_structures(SearchSpec(order=n, gammas=m, filters=frozenset(filters))):
        built = GammaGroupoid.from_tables(G.tables)
        # tuples compare unequal to lists, so equal tables are tuples all through
        attributes = {k: v for k, v in G.__dict__.items() if k != "_facts"}
        assert attributes == built.__dict__
        assert attributes.keys() >= {"tables", "labels", "gamma_names", "order",
                                     "gamma_count", "carrier"}
        assert fresh(G) == G == built
        leaves += 1
    assert leaves == {3: 1095, 2: 256}[n]


def test_order_4_left_invertive_counts():
    assert count(_spec(4, 1, ("li",))) == 7336
    assert count(_spec(4, 1, ("li",), up_to_iso=True)) == 331


def test_large_shape_starts_with_the_zero_bundle():
    spec = _spec(10, 3, ("li",), allow_large=True, limit=1)
    (G,) = enumerate_structures(spec)
    assert G.tables == ((((0,) * 10,) * 10,) * 3)


def test_leaf_checks_run_in_a_fixed_order(monkeypatch):
    # leaf-only filters first, then the prunable ones, each in declaration
    # order, whatever the hash seed makes of the frozenset's order
    calls = []
    for f in Filter:
        monkeypatch.setattr(f, "holds", lambda G, f=f: calls.append(f) or True)
    filters = frozenset(Filter) - {Filter.HAS_LEFT_IDENTITY}
    assert count(SearchSpec(order=1, gammas=1, filters=filters)) == 1
    assert calls == [Filter.REGULAR, Filter.NO_LEFT_IDENTITY, Filter.NON_ASSOCIATIVE,
                     Filter.LEFT_INVERTIVE, Filter.AG_STAR_STAR]


def test_emission_is_lexicographic_and_starts_at_zero_tables():
    spec = SearchSpec(order=2, gammas=1, filters=frozenset({Filter.LEFT_INVERTIVE}))
    out = list(enumerate_structures(spec))
    keys = [tuple(v for t in G.tables for row in t for v in row) for G in out]
    assert keys == sorted(keys)
    assert out[0].tables == (((0, 0), (0, 0)),)


def test_emitted_structures_satisfy_all_filters():
    spec = SearchSpec(order=2, gammas=2,
                      filters=frozenset({Filter.LEFT_INVERTIVE,
                                         Filter.NO_LEFT_IDENTITY,
                                         Filter.NON_ASSOCIATIVE}))
    got = list(enumerate_structures(spec))
    for G in got:
        assert gl.check_law(G, Law.LEFT_INVERTIVE).holds
        assert not gl.identities(G, "left")
        assert not gl.check_law(G, Law.ASSOCIATIVE).holds
    # cross-check against the naive scan with the same leaf predicates
    naive = [T for T in _naive_bundles(2, 2)
             if _naive_law(T, 2, 2, "li")
             and not any(all(T[g][e][a] == a for g in range(2) for a in range(2))
                         for e in range(2))
             and not all(T[d][T[g][a][b]][c] == T[g][a][T[d][b][c]]
                         for a in range(2) for b in range(2) for c in range(2)
                         for g in range(2) for d in range(2))]
    assert [G.tables for G in got] == naive


def test_regular_filter():
    spec = SearchSpec(order=2, gammas=1,
                      filters=frozenset({Filter.LEFT_INVERTIVE, Filter.REGULAR}))
    got = list(enumerate_structures(spec))
    assert len(got) == 4
    assert all(gl.is_regular(G) for G in got)


def test_left_identity_filters_partition_the_stream():
    base = SearchSpec(order=2, gammas=2, filters=frozenset({Filter.LEFT_INVERTIVE}))
    with_id = SearchSpec(order=2, gammas=2,
                         filters=frozenset({Filter.LEFT_INVERTIVE,
                                            Filter.HAS_LEFT_IDENTITY}))
    without = SearchSpec(order=2, gammas=2,
                         filters=frozenset({Filter.LEFT_INVERTIVE,
                                            Filter.NO_LEFT_IDENTITY}))
    assert count(with_id) + count(without) == count(base) == 14
    assert count(without) == 10


def test_left_identity_free_bundles_exist_beyond_single_gamma():
    # a left-invertive bundle with several gammas need not keep a left identity
    spec = SearchSpec(order=2, gammas=2,
                      filters=frozenset({Filter.LEFT_INVERTIVE,
                                         Filter.NO_LEFT_IDENTITY}))
    assert count(spec) >= 1


def test_filter_checks_call_the_module_bindings(monkeypatch, gamma5):
    # each filter's check looks up check_law, is_regular or identities in the
    # search module at call time, so a patched binding sees every call
    calls = []
    for name in ("check_law", "is_regular", "identities"):
        real = getattr(search, name)
        monkeypatch.setattr(search, name,
                            lambda *a, real=real: calls.append(1) or real(*a))
    for f in Filter:
        calls.clear()
        f.holds(gamma5)
        assert len(calls) == 1, f


@settings(max_examples=60, deadline=None)
@given(structures(max_order=3, max_gammas=2))
def test_exactly_the_law_filters_carry_their_law(G):
    # the search prunes by exactly these filters
    assert [f for f in Filter if f.law] == [Filter.LEFT_INVERTIVE, Filter.AG_STAR_STAR]
    for f in (Filter.LEFT_INVERTIVE, Filter.AG_STAR_STAR):
        assert f.law is Law(f.value)
        assert f.holds(G) == core.check_law(G, f.law).holds


def test_limit_short_circuits():
    spec = SearchSpec(order=2, gammas=2, filters=frozenset({Filter.LEFT_INVERTIVE}),
                      limit=5)
    assert len(list(enumerate_structures(spec))) == 5
    assert count(SearchSpec(order=2, gammas=2, limit=0)) == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(order=0, gammas=1)
    with pytest.raises(ValueError):
        SearchSpec(order=1, gammas=1, limit=-1)
    with pytest.raises(ValueError):
        SearchSpec(order=2, gammas=1,
                   filters={Filter.HAS_LEFT_IDENTITY, Filter.NO_LEFT_IDENTITY})


def test_search_guard_refuses_large_shapes():
    with pytest.raises(gl.LimitExceededError):
        enumerate_structures(SearchSpec(order=5, gammas=1))
    with pytest.raises(gl.LimitExceededError):
        enumerate_structures(SearchSpec(order=2, gammas=4))
    # override flag admits the shape (only probe the first emission)
    spec = SearchSpec(order=5, gammas=1, filters=frozenset({Filter.LEFT_INVERTIVE}),
                      limit=1, allow_large=True)
    assert len(list(enumerate_structures(spec))) == 1


def test_search_refuses_a_canonical_order_before_it_starts():
    spec = SearchSpec(order=9, gammas=1, up_to_iso=True, limit=0, allow_large=True)
    with pytest.raises(gl.LimitExceededError,
                       match="^canonical form over 9!·1! relabellings refused beyond 40320$"):
        enumerate_structures(spec)
    # the raw search of the same shape, and 8! relabellings up to isomorphism,
    # over the carrier or over the gammas, are admitted
    for spec in (SearchSpec(order=9, gammas=1, limit=0, allow_large=True),
                 SearchSpec(order=8, gammas=1, up_to_iso=True, limit=0, allow_large=True),
                 SearchSpec(order=1, gammas=8, up_to_iso=True, limit=0, allow_large=True)):
        assert list(enumerate_structures(spec)) == []


def test_search_counts_the_gamma_relabellings_only_when_it_permutes_the_gammas():
    spec = SearchSpec(order=1, gammas=9, up_to_iso=True, limit=0, allow_large=True)
    with pytest.raises(gl.LimitExceededError,
                       match="^canonical form over 1!·9! relabellings refused beyond 40320$"):
        enumerate_structures(spec)
    spec = SearchSpec(order=1, gammas=9, up_to_iso=True, limit=0, allow_large=True,
                      iso_include_gamma=False)
    assert list(enumerate_structures(spec)) == []


def test_the_cell_bound_keeps_every_search_within_the_order_and_law_bounds():
    # every shape with n^2·m <= MAX_SEARCH_CELLS, so the search needs no
    # refusal of its own for the carrier bound or for a law a filter checks
    shapes = [(n, m) for n in range(1, search.MAX_SEARCH_CELLS + 1)
              for m in range(1, search.MAX_SEARCH_CELLS // (n * n) + 1)]
    for n, m in shapes:
        assert n <= core.MAX_ORDER
        for law in (Law.LEFT_INVERTIVE, Law.AG_STAR_STAR, Law.ASSOCIATIVE):
            instances = prod(m if is_gamma else n for _, is_gamma in law.variables)
            assert instances <= core.MAX_LAW_INSTANCES, (n, m, law)


def test_search_refuses_an_order_beyond_the_carrier_bound():
    # the cell bound refuses it: n > 64 gives n^2 > 900
    spec = SearchSpec(order=65, gammas=1, limit=0, allow_large=True)
    with pytest.raises(gl.LimitExceededError,
                       match="^search over 4225 table cells refused beyond 900$"):
        enumerate_structures(spec)


def test_search_refuses_a_shape_deeper_than_the_cell_bound():
    # one backtracking frame per cell: (31,1) and (18,3) have 961 and 972 cells
    for order, gammas in ((31, 1), (18, 3)):
        cells = order * order * gammas
        with pytest.raises(gl.LimitExceededError,
                           match=f"^search over {cells} table cells refused beyond 900$"):
            enumerate_structures(SearchSpec(order, gammas, limit=1, allow_large=True))
    # a shape at the bound still descends to its first leaf
    (G,) = enumerate_structures(SearchSpec(30, 1, limit=1, allow_large=True))
    assert G.tables == (((0,) * 30,) * 30,)


# ---------------------------------------------------------------------------
# propagation

# every law, plus a side that is a bare variable on either side
_PROBE_TERMS = [law.terms for law in Law] + [("a", ("a", "g", "a")), (("a", "g", "b"), "b")]


def _propagate_one(terms, T, values, n, m):
    """The search's compiled propagate step, run on one instance while no other
    waits: its verdict, the cells it waits on and the cells it forces."""
    W = [[[[] for _ in range(n)] for _ in range(n)] for _ in range(m)]
    moved, forced = [], []
    inst = (0, *values)
    holds = compile_propagate((terms,))(T, W, n, moved, forced)([inst])
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
    sides = [oracle_walk(t, T, env, n) for t in terms]
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
    propagate = compile_propagate((law.terms,))(T, W, n, moved, forced)
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
    kept = _instances(law, n, m)
    mirror = _mirror(*law.terms)
    if _SWAPS[law] is None:
        assert mirror is None and kept == everything
        return
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
            assert oracle_walk(lhs, T, env, n)[0] == oracle_walk(rhs, T, env, n)[0]

def test_propagate_compiles_once_per_tuple_of_laws(monkeypatch):
    # two searches with the same laws emit the propagate step's source once
    compiled, define = [], core._define
    monkeypatch.setattr(search, "_define", lambda lines: compiled.append(lines) or define(lines))
    search.compile_propagate.cache_clear()
    spec = _spec(3, 1, ("li", "ss"))
    assert count(spec) == count(spec) == PINNED[(3, 1, ("li", "ss"))]
    assert len(compiled) == 1


# ---------------------------------------------------------------------------
# canonical forms

def _brute_force_canonical(G, include_gamma):
    """The least relabelled cell sequence, with every relabelling built in full."""
    def inverse(perm):
        return [perm.index(i) for i in range(len(perm))]
    T, n, m = G.tables, G.order, G.gamma_count
    return min(tuple(sigma[T[g][a][b]]
                     for g in inverse(tau) for a in inverse(sigma) for b in inverse(sigma))
               for tau in (permutations(range(m)) if include_gamma else [tuple(range(m))])
               for sigma in permutations(range(n)))


def _cells(G):
    return tuple(v for t in G.tables for row in t for v in row)


@pytest.mark.parametrize("include_gamma", [True, False])
def test_canonical_form_equals_brute_force_on_a_search_stream(include_gamma):
    # every labelled (3,2) left-invertive leaf, and the first 300 at order 5
    for spec in (SearchSpec(order=3, gammas=2, filters=frozenset({Filter.LEFT_INVERTIVE})),
                 SearchSpec(order=5, gammas=1, filters=frozenset({Filter.LEFT_INVERTIVE}),
                            limit=300, allow_large=True)):
        for G in enumerate_structures(spec):
            assert _cells(canonical_form(G, include_gamma)) == \
                _brute_force_canonical(G, include_gamma)


@settings(max_examples=60, deadline=None)
@given(structures(max_order=4, max_gammas=3), st.booleans())
def test_canonical_form_equals_brute_force(G, include_gamma):
    C = canonical_form(G, include_gamma)
    assert _cells(C) == _brute_force_canonical(G, include_gamma)
    # built without __post_init__'s checks, as its tables relabel valid ones
    assert C.__dict__ == GammaGroupoid.from_tables(C.tables).__dict__


def test_canonical_form_fixes_singleton(singleton):
    assert canonical_form(singleton).tables == singleton.tables


def test_canonical_form_is_idempotent_and_orbit_invariant(gamma5):
    c = canonical_form(gamma5)
    assert canonical_form(c).tables == c.tables

    # relabel the carrier by a fixed permutation and the gammas by a rotation
    sigma = [2, 0, 4, 1, 3]
    inv = [sigma.index(i) for i in range(5)]
    tau = [1, 2, 0]
    tabs = [None] * 3
    for g in range(3):
        tabs[tau[g]] = [[sigma[gamma5.tables[g][inv[a]][inv[b]]]
                         for b in range(5)] for a in range(5)]
    H = GammaGroupoid.from_tables(tabs)
    assert canonical_form(H).tables == c.tables


def test_carrier_swap_gives_same_canonical_form():
    A = GammaGroupoid.from_tables([[[0, 0], [0, 0]]])
    B = GammaGroupoid.from_tables([[[1, 1], [1, 1]]])
    assert canonical_form(A).tables == canonical_form(B).tables == (((0, 0), (0, 0)),)


@settings(max_examples=40, deadline=None)
@given(structures(max_order=3, max_gammas=2), st.randoms(use_true_random=False))
def test_canonical_form_orbit_property(G, rnd):
    sigma = list(range(G.order))
    rnd.shuffle(sigma)
    inv = [sigma.index(i) for i in range(G.order)]
    taus = list(permutations(range(G.gamma_count)))
    tau = taus[rnd.randrange(len(taus))]
    tabs = [None] * G.gamma_count
    for g in range(G.gamma_count):
        tabs[tau[g]] = [[sigma[G.tables[g][inv[a]][inv[b]]]
                         for b in range(G.order)] for a in range(G.order)]
    H = GammaGroupoid.from_tables(tabs)
    assert canonical_form(H).tables == canonical_form(G).tables


def test_canonical_form_guard():
    big = GammaGroupoid.from_tables([[[0] * 9 for _ in range(9)]])
    with pytest.raises(gl.LimitExceededError):
        canonical_form(big)


@pytest.mark.parametrize("n,m,include_gamma,message", [
    (1, 12, True, "canonical form over 1!·12! relabellings refused beyond 40320"),
    (1, 100_000, True, "canonical form over 1!·100000! relabellings refused beyond 40320"),
    (8, 4, False, "canonical form over 10321920 relabelled cells refused beyond 8388608"),
])
def test_canonical_form_refuses_an_oversized_table_at_once(n, m, include_gamma, message):
    # the refusal multiplies the factorials only up to the bound and builds no table
    G = GammaGroupoid._trusted(((tuple([0] * n),) * n,) * m)
    t0 = time.perf_counter()
    with pytest.raises(gl.LimitExceededError, match=f"^{message}$"):
        canonical_form(G, include_gamma)
    assert time.perf_counter() - t0 < 1.0


def test_canonical_form_keeps_the_tables_of_the_last_two_shapes():
    search._relabellings.cache_clear()
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (2, 1)):
        G = GammaGroupoid._trusted(((tuple([0] * n),) * n,) * m)
        for include_gamma in (True, False):
            assert canonical_form(G, include_gamma).tables == G.tables
            assert search._relabellings.cache_info().currsize <= 2


def test_every_shape_that_permutes_the_gammas_fits_the_table_bound():
    # the cell bound only refuses carrier permutations over many gammas
    shapes = [(n, m) for n in range(1, 9) for m in range(1, 9)
              if factorial(n) * factorial(m) <= search.MAX_RELABELLINGS]
    assert max(factorial(n) * factorial(m) * n * n * m for n, m in shapes) == 4_445_280
    assert 4_445_280 <= search.MAX_TABLE_CELLS


def test_up_to_iso_counts_and_coverage():
    raw_spec = SearchSpec(order=2, gammas=2, filters=frozenset({Filter.LEFT_INVERTIVE}))
    iso_spec = SearchSpec(order=2, gammas=2, filters=frozenset({Filter.LEFT_INVERTIVE}),
                          up_to_iso=True)
    raw = list(enumerate_structures(raw_spec))
    reps = list(enumerate_structures(iso_spec))
    assert len(reps) == 6 <= len(raw) == 14
    rep_tables = {G.tables for G in reps}
    for G in raw:
        assert canonical_form(G).tables in rep_tables


# ---------------------------------------------------------------------------
# up to isomorphism: lex-leader pruning against two independent oracles

# every pinned shape, the unfiltered (2,2) and the (4,1) and (3,2) left-invertive census
ISO_SHAPES = [*PINNED, (2, 2, ()), (4, 1, ("li",)), (3, 2, ("li",))]


@cache
def _filtered_stream(n, m, laws, include_gamma):
    """The labelled stream kept where canonical_form fixes the leaf: no pruning by symmetry."""
    return [G.tables for G in enumerate_structures(_spec(n, m, laws))
            if canonical_form(G, include_gamma).tables == G.tables]


@pytest.mark.parametrize("limit", [None, 0, 1, 5])
@pytest.mark.parametrize("include_gamma", [True, False])
@pytest.mark.parametrize("n,m,laws", ISO_SHAPES)
def test_up_to_iso_stream_equals_the_filtered_labelled_stream(n, m, laws, include_gamma, limit):
    spec = _spec(n, m, laws, up_to_iso=True, iso_include_gamma=include_gamma, limit=limit)
    got = [G.tables for G in enumerate_structures(spec)]
    assert got == _filtered_stream(n, m, laws, include_gamma)[:limit]


def _cycle_type(sigma):
    seen, lengths = set(), []
    for start in range(len(sigma)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = sigma[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def _fixes(T, sigma, tau):
    """Whether relabelling the carrier by sigma and the gammas by tau maps T onto itself."""
    R = range(len(sigma))
    return all(T[tau[g]][sigma[a]][sigma[b]] == sigma[T[g][a][b]]
               for g in range(len(tau)) for a in R for b in R)


@cache
def _burnside(n, m, laws, include_gamma):
    """The orbit count (1/|G|)·Σ Fix(σ) over the labelled stream, and Fix per group element."""
    taus = permutations(range(m)) if include_gamma else [tuple(range(m))]
    group = [(sigma, tau) for tau in taus for sigma in permutations(range(n))]
    fixed = Counter({g: 0 for g in group})
    for G in enumerate_structures(_spec(n, m, laws)):
        fixed.update(g for g in group if _fixes(G.tables, *g))
    total = sum(fixed.values())
    assert total % len(group) == 0
    return total // len(group), fixed


@pytest.mark.parametrize("n,m,laws,include_gamma,classes", [
    (4, 1, ("li",), True, 331),
    (3, 2, ("li",), True, 112),
    (3, 2, ("li",), False, 187),
    (2, 2, (), True, 76),
    (2, 2, (), False, 136),
])
def test_up_to_iso_count_equals_burnside(n, m, laws, include_gamma, classes):
    # no canonical_form and no lex-leader code: Burnside's lemma on the labelled stream
    orbits, _ = _burnside(n, m, laws, include_gamma)
    assert orbits == classes
    assert count(_spec(n, m, laws, up_to_iso=True, iso_include_gamma=include_gamma)) == classes


def test_burnside_fixed_counts_per_cycle_type_at_order_4():
    # conjugate permutations fix equally many tables
    _, fixed = _burnside(4, 1, ("li",), True)
    per_type = {}
    for (sigma, _), k in fixed.items():
        per_type.setdefault(_cycle_type(sigma), set()).add(k)
    assert per_type == {(1, 1, 1, 1): {7336}, (1, 1, 2): {88}, (1, 3): {7}, (2, 2): {8},
                        (4,): {0}}


def test_lex_leader_prunes_partial_tables_and_leaves_complete_ones_to_canonical_form(
        monkeypatch):
    calls = []
    real = search.canonical_form

    def counting(G, include_gamma=True):
        calls.append(G.tables)
        return real(G, include_gamma)
    monkeypatch.setattr(search, "canonical_form", counting)
    # the one non-identity relabelling of (2,1) reads the last cell first, so no
    # partial table is pruned and all six labelled leaves reach canonical_form
    assert count(_spec(2, 1, ("li",), up_to_iso=True)) == 3
    assert len(calls) == 6
    calls.clear()
    assert count(_spec(4, 1, ("li",), up_to_iso=True)) == 331
    assert 331 <= len(calls) < 7336 // 10


def test_the_lex_leader_step_is_a_pure_function_of_the_table_and_the_walks():
    n = 3
    tables = [[[n] * (n + 1) for _ in range(n + 1)]]  # (3,1), every cell unassigned
    step = search._lex_leader(tables, n, 1, True)
    root = (0, (), ())
    # swapping 1 and 2 reads cell 0 first and relabels T[0][0] = 2 as 1: smaller
    tables[0][0][0] = 2
    assert step(1, root) is None
    # with T[0][0] = 0 the swap agrees up to the unassigned cell 1, where it
    # resumes; the other four relabellings read cell 4 or 8 first and have not joined
    tables[0][0][0] = 0
    walks = step(1, root)
    k, undecided, resume = walks
    table = sorted(search._relabellings(n, 1, True)[1:], key=lambda entry: entry[1][0])
    assert k == 1
    assert [table[t][0] for t in undecided] == [(0, 2, 1, n)]
    assert list(resume) == [1]
    # the step keeps no state of its own: the same call gives the same walks
    assert step(1, root) == walks
    tables[0][0][0] = 2
    assert step(1, root) is None


def test_the_lex_leader_state_fits_its_16_bit_arrays():
    # relabelling indexes and walk positions are kept as array("H")
    assert search.MAX_RELABELLINGS <= 2 ** 16
    assert search.MAX_SEARCH_CELLS <= 2 ** 16


def test_a_labelled_search_builds_no_lex_leader_step(monkeypatch):
    def refuse(*args):
        raise AssertionError("lex-leader step built for a labelled search")
    monkeypatch.setattr(search, "_lex_leader", refuse)
    assert count(_spec(3, 1, ("li",))) == PINNED[(3, 1, ("li",))]
    with pytest.raises(AssertionError, match="lex-leader"):
        count(_spec(3, 1, ("li",), up_to_iso=True))


# ---------------------------------------------------------------------------
# the lex-pruned stream: lex-leader pruning without the leaf's canonical_form check

LEX_SHAPES = [(2, 2, ()), (3, 1, ()), (3, 2, ("li",)), (4, 1, ("li",))]


@cache
def _leaf_stream(n, m, laws, leaf, **kw):
    filters = {_FILTER_OF[law] for law in laws} | {leaf}
    return [G.tables for G in enumerate_structures(SearchSpec(n, m, filters, **kw))]


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(x in rest for x in part)  # each membership test consumes rest up to x


@pytest.mark.parametrize("include_gamma", [True, False])
@pytest.mark.parametrize("leaf", [Filter.REGULAR, Filter.HAS_LEFT_IDENTITY])
@pytest.mark.parametrize("n,m,laws", LEX_SHAPES)
def test_the_lex_pruned_stream_lies_between_the_class_stream_and_the_labelled_stream(
        n, m, laws, leaf, include_gamma):
    labelled = _leaf_stream(n, m, laws, leaf)
    pruned = _leaf_stream(n, m, laws, leaf, lex_pruned=True, iso_include_gamma=include_gamma)
    classes = _leaf_stream(n, m, laws, leaf, up_to_iso=True, iso_include_gamma=include_gamma)
    # the least member of every class, found without the lex-leader step
    least = [T for T in labelled
             if canonical_form(GammaGroupoid.from_tables(T), include_gamma).tables == T]
    assert classes == least
    # in labelled order, and holding the least member of every class
    assert _is_subsequence(pruned, labelled)
    assert _is_subsequence(least, pruned)


def test_the_lex_pruned_stream_prunes():
    labelled = _leaf_stream(4, 1, ("li",), Filter.REGULAR)
    pruned = _leaf_stream(4, 1, ("li",), Filter.REGULAR, lex_pruned=True)
    classes = _leaf_stream(4, 1, ("li",), Filter.REGULAR, up_to_iso=True)
    assert len(classes) < len(pruned) < len(labelled) // 4


def test_a_lex_pruned_search_never_calls_canonical_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("canonical_form called by a lex_pruned search")
    monkeypatch.setattr(search, "canonical_form", refuse)
    for n, m, laws in LEX_SHAPES:
        assert count(_spec(n, m, laws, lex_pruned=True)) > 0
    with pytest.raises(AssertionError, match="canonical_form"):
        count(_spec(2, 1, ("li",), up_to_iso=True))


@pytest.mark.parametrize("n,m,include_gamma", [(9, 1, True), (8, 4, False)])
def test_a_lex_pruned_search_over_a_refused_table_streams_the_labelled_tables(
        n, m, include_gamma):
    # 9! relabellings, and 8! relabellings of 256 cells each, are refused
    with pytest.raises(gl.LimitExceededError, match="^canonical form over"):
        search._relabellings(n, m, include_gamma)
    spec = SearchSpec(n, m, limit=3, allow_large=True, iso_include_gamma=include_gamma)
    pruned = replace(spec, lex_pruned=True)
    labelled = [G.tables for G in enumerate_structures(spec)]
    assert [G.tables for G in enumerate_structures(pruned)] == labelled
    assert len(labelled) == 3


def test_a_lex_pruned_search_builds_its_table_only_once_it_streams(monkeypatch):
    def refuse(*args):
        raise AssertionError("relabelling table built")
    monkeypatch.setattr(search, "_relabellings", refuse)
    stream = enumerate_structures(_spec(3, 1, ("li",), lex_pruned=True))
    with pytest.raises(AssertionError, match="relabelling table built"):
        next(stream)


def test_up_to_iso_carrier_only_is_coarser_or_equal():
    iso_full = SearchSpec(order=2, gammas=2, filters=frozenset({Filter.LEFT_INVERTIVE}),
                          up_to_iso=True)
    iso_carrier = SearchSpec(order=2, gammas=2,
                             filters=frozenset({Filter.LEFT_INVERTIVE}),
                             up_to_iso=True, iso_include_gamma=False)
    assert count(iso_full) == 6
    assert count(iso_carrier) == 7
