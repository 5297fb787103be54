import random
from functools import partial

import pytest
from hypothesis import given, settings

import gaglab as gl
from gaglab import ideals
from gaglab.ideals import (
    _CLOSURE_KINDS,
    MAX_ENUM_ORDER,
    MAX_PAIRED_IDEALS,
    IdealKind,
    IdealVerdict,
    LEFT_ABSORB,
    NON_EMPTY,
    PRIME,
    SEMIPRIME,
    build_ideal_semilattice,
    enumerate_ideals,
    ideal_closure,
    is_ideal,
    is_idempotent,
    is_prime,
    is_semiprime,
    paired_ideals,
    principal_left,
)

from conftest import fresh, oracle_members, oracle_product, structures, \
    structure_with_subsets


def mask(G, labels):
    return G.subset_of_labels(labels)


# ---------------------------------------------------------------------------
# is_ideal on the bundle fixture

def test_fixture_ideal_claims(gamma5):
    A = mask(gamma5, ["1", "2", "3"])
    B = mask(gamma5, ["1", "2", "4"])
    C = mask(gamma5, ["1", "2", "3", "4"])
    assert is_ideal(gamma5, A, IdealKind.TWO_SIDED).holds
    assert is_ideal(gamma5, B, IdealKind.RIGHT).holds
    v = is_ideal(gamma5, B, IdealKind.LEFT)
    assert not v.holds
    assert v.failed_clause == LEFT_ABSORB
    assert v.witness == (4, 2, 3)  # 5 γ 4 = 3, outside {1,2,4}
    assert is_ideal(gamma5, A, IdealKind.BI).holds
    assert is_ideal(gamma5, B, IdealKind.BI).holds
    assert is_ideal(gamma5, C, IdealKind.INTERIOR).holds


def test_empty_subset_rejected(gamma5):
    for kind in IdealKind:
        v = is_ideal(gamma5, 0, kind)
        assert not v.holds and v.failed_clause == NON_EMPTY and v.witness is None


def test_width_mismatch_rejected(gamma5):
    with pytest.raises(ValueError):
        is_ideal(gamma5, 1 << 5, IdealKind.LEFT)


@settings(max_examples=150, deadline=None)
@given(structure_with_subsets(count=1))
def test_witness_scan_finds_nothing_exactly_when_the_product_lies_inside(data):
    # the witness scan and the mask check are compiled from one clause term
    G, S = data
    products = ideals._products(G)
    for kind in IdealKind:
        for (_, term, _), inside, witness in zip(kind.clauses, kind.inside, kind.witness):
            if term[1] != "&":
                assert (witness(G, S) is None) == (inside(*products, S) & ~S == 0), kind


def test_clause_witnesses_reverify(gamma5):
    # every failing verdict carries a witness that breaks the named clause
    for kind in IdealKind:
        for S in range(1, 1 << 5):
            v = is_ideal(gamma5, S, kind)
            if v.holds:
                continue
            w = v.witness
            if v.failed_clause == "QuasiIntersection":
                (e,) = w
                full = set(range(5))
                inter = oracle_product(gamma5, full, oracle_members(S)) & \
                    oracle_product(gamma5, oracle_members(S), full)
                assert e in inter and not S >> e & 1
            else:
                elems = w[0::2]
                gammas = w[1::2]
                acc = elems[0]
                for g, e in zip(gammas, elems[1:]):
                    acc = gamma5.tables[g][acc][e]
                assert not S >> acc & 1


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_ideals_gamma5(gamma5):
    want_two_sided = [0b00011, 0b00111, 0b01111, 0b10111, 0b11111]
    assert enumerate_ideals(gamma5, IdealKind.TWO_SIDED) == want_two_sided
    assert enumerate_ideals(gamma5, IdealKind.LEFT) == want_two_sided
    want_right = sorted(want_two_sided + [0b01011])
    assert enumerate_ideals(gamma5, IdealKind.RIGHT) == want_right
    for kind in (IdealKind.SUB_GROUPOID, IdealKind.BI, IdealKind.QUASI,
                 IdealKind.INTERIOR):
        assert enumerate_ideals(gamma5, kind) == want_right


def test_enumerate_ideals_always_contains_carrier(gamma5, dot5, singleton):
    for G in (gamma5, dot5, singleton):
        for kind in (IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED):
            assert G.carrier in enumerate_ideals(G, kind)


def test_dot5_is_simple(dot5):
    # only the whole carrier absorbs on either side
    for kind in (IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED):
        assert enumerate_ideals(dot5, kind) == [dot5.carrier]


def test_singleton_ideals(singleton):
    assert enumerate_ideals(singleton, IdealKind.TWO_SIDED) == [1]


def test_enumeration_limit(monkeypatch):
    # above the bound enumeration is refused, and the kernel is never built
    monkeypatch.setattr(ideals, "_powerset_kernel", None)
    n = MAX_ENUM_ORDER + 1
    with pytest.raises(gl.LimitExceededError,
                       match=r"^subset enumeration over 21 elements refused beyond 20$"):
        enumerate_ideals(gl.GammaGroupoid.from_tables([[[0] * n] * n]), IdealKind.LEFT)


def test_pairing_two_sided_ideals_is_refused_beyond_the_bound(monkeypatch):
    # x·y = x if x = y, else 0: every subset holding 0 is a two-sided ideal, so
    # order n has 2**(n - 1); every path that pairs them refuses them at order 8
    def diagonal(n):
        return gl.GammaGroupoid.from_tables(
            [[[x if x == y else 0 for y in range(n)] for x in range(n)]])
    assert len(paired_ideals(diagonal(7))[0]) == MAX_PAIRED_IDEALS == 64
    G = diagonal(8)
    message = "pairing 128 two-sided ideals refused beyond 64"
    # refused before the first product, and the refusal is not kept as the fact
    calls = []
    monkeypatch.setattr(ideals, "subset_product",
                        lambda *args: calls.append(args) or gl.subset_product(*args))
    for _ in range(2):
        with pytest.raises(gl.LimitExceededError, match=f"^{message}$"):
            paired_ideals(G)
    assert calls == []
    for call in (partial(is_prime, G, G.carrier), partial(build_ideal_semilattice, G)):
        with pytest.raises(gl.LimitExceededError, match=f"^{message}$"):
            call()
    # the catalog reports the refusal as the entry's verdict
    for lid in (gl.LemmaId.T_SEMILATTICE, gl.LemmaId.L_COMM_IDEALS_REGULAR,
                gl.LemmaId.L_SEMIPRIME_REGULAR):
        assert gl.verify(G, lid) == gl.LemmaVerdict(gl.LemmaStatus.REFUSED, refusal=message)


def _oracle_is_ideal(G, S, kind):
    """The containments defining ``kind`` for the set S, by set arithmetic alone."""
    full = set(range(G.order))

    def P(A, B):
        return oracle_product(G, A, B)
    sub = P(S, S) <= S
    return bool(S) and {
        IdealKind.SUB_GROUPOID: sub,
        IdealKind.LEFT: P(full, S) <= S,
        IdealKind.RIGHT: P(S, full) <= S,
        IdealKind.TWO_SIDED: P(full, S) <= S and P(S, full) <= S,
        IdealKind.BI: sub and P(P(S, full), S) <= S,
        IdealKind.QUASI: sub and P(full, S) & P(S, full) <= S,
        IdealKind.INTERIOR: sub and P(P(full, S), full) <= S,
    }[kind]


def _assert_kernel_paths_equal_the_oracle(G):
    for kind in IdealKind:
        want = [S for S in range(1 << G.order) if _oracle_is_ideal(G, oracle_members(S), kind)]
        assert enumerate_ideals(G, kind) == want, kind
        assert [S for S in range(1 << G.order) if is_ideal(G, S, kind).holds] == want, kind


@settings(max_examples=150, deadline=None)
@given(structures(max_order=5, max_gammas=3))
def test_enumeration_and_is_ideal_equal_a_set_oracle(G):
    _assert_kernel_paths_equal_the_oracle(G)


def test_enumeration_and_is_ideal_equal_a_set_oracle_at_order_9():
    _assert_kernel_paths_equal_the_oracle(fresh(gl.load_fixture("principal_left_not_left9")))


def _oracle_verdict(G, S, kind):
    """``is_ideal``'s (holds, failed clause, witness) by set arithmetic and a
    brute-force scan: each clause's first instance valued outside S, element
    variables outer, gamma variables inner, all ascending; the quasi clause
    names the least element of its intersection outside S."""
    if not S:
        return False, NON_EMPTY, None
    T, E, M = G.tables, range(G.order), range(G.gamma_count)
    inside, full = oracle_members(S), set(E)
    SE = sorted(inside)

    def first(instances, value):
        return next((w for w in instances if value(*w) not in inside), None)
    clauses = {
        "SubGroupoid": lambda: first(((a, g, b) for a in SE for b in SE for g in M),
                                     lambda a, g, b: T[g][a][b]),
        "LeftAbsorb": lambda: first(((x, g, s) for x in E for s in SE for g in M),
                                    lambda x, g, s: T[g][x][s]),
        "RightAbsorb": lambda: first(((s, g, x) for s in SE for x in E for g in M),
                                     lambda s, g, x: T[g][s][x]),
        "BiAbsorb": lambda: first(((s, g, x, d, t) for s in SE for x in E for t in SE
                                   for g in M for d in M),
                                  lambda s, g, x, d, t: T[d][T[g][s][x]][t]),
        "InteriorAbsorb": lambda: first(((x, g, s, d, y) for x in E for s in SE for y in E
                                         for g in M for d in M),
                                        lambda x, g, s, d, y: T[d][T[g][x][s]][y]),
        "QuasiIntersection": lambda: next(
            ((e,) for e in sorted(oracle_product(G, full, SE) & oracle_product(G, SE, full))
             if e not in SE), None),
    }
    for label, _, _ in kind.clauses:
        if (witness := clauses[label]()) is not None:
            return False, label, witness
    return True, None, None


def _random_structure(order, gammas, seed):
    """Each entry the least of three uniform draws, so that small subsets absorb
    often enough for every clause of every kind to both pass and fail."""
    rng = random.Random(seed)
    return gl.GammaGroupoid.from_tables([[[min(rng.randrange(order) for _ in range(3))
                                           for _ in range(order)] for _ in range(order)]
                                         for _ in range(gammas)])


@pytest.mark.parametrize("name", ["gamma5", "random6"])
def test_is_ideal_and_closure_read_the_kernel_or_lookups_alike(name):
    # one clause form, read from the powerset kernel when the structure holds it
    # and otherwise from lookups: each path alone must equal the set oracle
    G = gl.load_fixture("gamma5") if name == "gamma5" else _random_structure(6, 2, 0)
    subsets = range(1 << G.order)
    verdicts = {(kind, S): _oracle_verdict(G, S, kind) for kind in IdealKind for S in subsets}
    closures = {(kind, A): _oracle_closure(G, oracle_members(A), kind)
                for kind in _CLOSURE_KINDS for A in subsets[1:]}
    kernel = fresh(G)
    enumerate_ideals(kernel, IdealKind.SUB_GROUPOID)
    for H, holds_kernel in ((fresh(G), False), (kernel, True)):
        for (kind, S), want in verdicts.items():
            v = is_ideal(H, S, kind)
            assert (v.holds, v.failed_clause, v.witness) == want, (kind, S, holds_kernel)
        for (kind, A), want in closures.items():
            assert oracle_members(ideal_closure(H, A, kind)) == want, (kind, A, holds_kernel)
        assert ("powerset" in H.__dict__.get("_facts", {})) == holds_kernel
    if name == "random6":  # every clause of every kind both passes and fails
        assert {(kind, label) for kind in IdealKind for label, _, _ in kind.clauses} <= \
            {(kind, want[1]) for (kind, _), want in verdicts.items()}
        assert all(sum(want[0] for (k, _), want in verdicts.items() if k is kind) > 1
                   for kind in IdealKind)


def test_one_subset_above_the_enumeration_bound_builds_no_kernel():
    # x·y = 1 at order 21: one is_ideal and one closure are decided through
    # subset_product, although enumeration is refused at this order
    G = gl.GammaGroupoid.from_tables([[[0] * 21 for _ in range(21)]])
    assert is_ideal(G, 1, IdealKind.LEFT).holds
    assert is_ideal(G, 1 << 5, IdealKind.TWO_SIDED) == \
        ideals.IdealVerdict(False, LEFT_ABSORB, (0, 0, 5))
    assert ideal_closure(G, 1 << 5, IdealKind.LEFT) == 1 | 1 << 5
    assert "powerset" not in G.__dict__.get("_facts", {})


def test_a_holding_verdict_is_shared(gamma5):
    full = gamma5.carrier
    v = is_ideal(gamma5, full, IdealKind.LEFT)
    assert v == ideals.IdealVerdict(True)
    assert is_ideal(gamma5, full, IdealKind.BI) is is_prime(gamma5, full) is \
        is_semiprime(gamma5, full) is v


def test_enumerate_ideals_returns_a_new_list_each_call(gamma5):
    G = fresh(gamma5)
    first = enumerate_ideals(G, IdealKind.RIGHT)
    want = list(first)
    first.append(0)
    first.reverse()
    assert enumerate_ideals(G, IdealKind.RIGHT) == want


# ---------------------------------------------------------------------------
# closures

def test_closure_fixture_values(gamma5):
    assert ideal_closure(gamma5, mask(gamma5, ["5"]), IdealKind.LEFT) == \
        mask(gamma5, ["1", "2", "3", "5"])
    assert ideal_closure(gamma5, mask(gamma5, ["1"]), IdealKind.LEFT) == \
        mask(gamma5, ["1", "2"])
    for I in enumerate_ideals(gamma5, IdealKind.TWO_SIDED):
        assert ideal_closure(gamma5, I, IdealKind.TWO_SIDED) == I


def test_closure_rejects_bad_input(gamma5):
    with pytest.raises(ValueError):
        ideal_closure(gamma5, 0, IdealKind.LEFT)
    with pytest.raises(ValueError):
        ideal_closure(gamma5, 1, IdealKind.BI)


@settings(max_examples=80, deadline=None)
@given(structure_with_subsets(count=2, max_order=4, max_gammas=2))
def test_closure_properties(data):
    G, A, B = data
    if A == 0:
        A = 1
    if B == 0:
        B = 1
    for kind in (IdealKind.SUB_GROUPOID, IdealKind.LEFT, IdealKind.RIGHT,
                 IdealKind.TWO_SIDED):
        cl = ideal_closure(G, A, kind)
        assert A & ~cl == 0                                   # extensive
        assert ideal_closure(G, cl, kind) == cl               # idempotent
        assert cl & ~ideal_closure(G, A | B, kind) == 0       # monotone
        assert is_ideal(G, cl, kind).holds                    # actually closed


def _oracle_closure(G, A, kind):
    """Intersection of every superset of A that absorbs the kind's products,
    found by trying all subsets of the carrier with set arithmetic."""
    full = set(range(G.order))

    def closed(T):
        if kind is IdealKind.SUB_GROUPOID:
            return oracle_product(G, T, T) <= T
        left = oracle_product(G, full, T) <= T
        right = oracle_product(G, T, full) <= T
        return {IdealKind.LEFT: left, IdealKind.RIGHT: right,
                IdealKind.TWO_SIDED: left and right}[kind]

    least = set(full)
    for T in map(oracle_members, range(1 << G.order)):
        if A <= T and closed(T):
            least &= T
    return least


@settings(max_examples=80, deadline=None)
@given(structure_with_subsets(count=1, max_order=4, max_gammas=2))
def test_closure_is_the_least_closed_superset(data):
    G, A = data
    A = A or 1
    for kind in (IdealKind.SUB_GROUPOID, IdealKind.LEFT, IdealKind.RIGHT,
                 IdealKind.TWO_SIDED):
        expected = _oracle_closure(G, oracle_members(A), kind)
        assert oracle_members(ideal_closure(G, A, kind)) == expected, kind


# ---------------------------------------------------------------------------
# idempotency, primeness, principal subsets

def test_is_idempotent(gamma5, singleton):
    assert is_idempotent(gamma5, mask(gamma5, ["1", "2"]))
    assert not is_idempotent(gamma5, mask(gamma5, ["1", "2", "3"]))
    assert is_idempotent(singleton, 1)


def test_prime_trivial_cases(gamma5, singleton):
    assert is_prime(gamma5, gamma5.carrier).holds
    assert is_prime(singleton, 1).holds
    assert is_semiprime(singleton, 1).holds


def test_semiprime_gamma5(gamma5):
    v = is_semiprime(gamma5, mask(gamma5, ["1", "2", "3"]))
    assert not v.holds
    assert v.failed_clause == SEMIPRIME
    assert v.witness == (mask(gamma5, ["1", "2", "3", "4"]),)


def test_prime_gamma5(gamma5):
    v = is_prime(gamma5, mask(gamma5, ["1", "2", "3"]))
    assert not v.holds and v.failed_clause == PRIME
    A, B = v.witness
    assert A == mask(gamma5, ["1", "2", "3", "4"]) == B


def test_prime_requires_ideal(gamma5):
    S = mask(gamma5, ["4"])
    v = is_prime(gamma5, S)
    assert not v.holds and v.failed_clause in ("LeftAbsorb", "RightAbsorb")
    # semiprimeness of a non-ideal is the same base verdict
    assert is_semiprime(gamma5, S) == v == is_ideal(gamma5, S, IdealKind.TWO_SIDED)


def test_principal_left(gamma5, singleton):
    assert principal_left(gamma5, gamma5.element_index("4")) == \
        mask(gamma5, ["1", "2", "3"])
    assert principal_left(gamma5, gamma5.element_index("1")) == \
        mask(gamma5, ["1", "2"])
    assert principal_left(singleton, 0) == 1
    for a in (-1, 5):
        with pytest.raises(IndexError, match=f"element index {a} out of range"):
            principal_left(gamma5, a)


# ---------------------------------------------------------------------------
# semilattice report

def test_semilattice_gamma5(gamma5):
    rep = build_ideal_semilattice(gamma5)
    assert rep.ideals == (0b00011, 0b00111, 0b01111, 0b10111, 0b11111)
    assert rep.closed and not rep.commutative and rep.associative \
        and not rep.idempotent
    assert not rep.regular
    assert all(p in rep.ideals for row in rep.products for p in row)


def test_semilattice_singleton(singleton):
    rep = build_ideal_semilattice(singleton)
    assert rep.ideals == (1,)
    assert rep.closed and rep.commutative and rep.associative and rep.idempotent
    assert rep.regular


def test_semilattice_dot5(dot5):
    rep = build_ideal_semilattice(dot5)
    assert rep.ideals == (dot5.carrier,)
    assert rep.closed and rep.commutative and rep.associative and rep.idempotent
    assert rep.regular


# ---------------------------------------------------------------------------
# the kept table of products of two-sided ideals, against set-based restatements

def _mask(elements):
    return sum(1 << x for x in elements)


def _pairing_cases():
    """Every shipped fixture and every left-invertive regular structure at (2,2)
    and (3,1)."""
    for path in sorted(gl.fixture_path("gamma5").parent.glob("*.gag")):
        yield gl.load_fixture(path.stem)
    for n, m in ((2, 2), (3, 1)):
        yield from gl.enumerate_structures(gl.SearchSpec(order=n, gammas=m, filters=frozenset(
            {gl.Filter.LEFT_INVERTIVE, gl.Filter.REGULAR})))


def test_paired_products_and_their_readers_match_set_oracles():
    cases = 0
    for G in _pairing_cases():
        cases += 1
        full = set(range(G.order))
        sets = [s for s in map(oracle_members, range(1, 1 << G.order))
                if oracle_product(G, full, s) | oracle_product(G, s, full) <= s]
        prod = [[oracle_product(G, a, b) for b in sets] for a in sets]
        ideals, products = paired_ideals(G)
        assert ideals == tuple(map(_mask, sets))
        assert products == tuple(tuple(map(_mask, row)) for row in prod)
        pairs = [(i, j) for i in range(len(sets)) for j in range(len(sets))]
        comm = next(({"subset": ideals[i], "subset_b": ideals[j], "left_side": _mask(prod[i][j]),
                      "right_side": _mask(prod[j][i])}
                     for i, j in pairs if prod[i][j] != prod[j][i]), None)
        semiprime = next(({"subset": ideals[p], "subset_b": ideals[a]} for p, a in pairs
                          if not sets[a] <= sets[p] and prod[a][a] <= sets[p]), None)
        for lid, witness in ((gl.LemmaId.L_COMM_IDEALS_REGULAR, comm),
                             (gl.LemmaId.L_SEMIPRIME_REGULAR, semiprime)):
            assert lid.verifier(G) == witness, lid
            if all(f.holds(G) for f in lid.hypotheses):
                assert gl.verify(G, lid) == gl.LemmaVerdict(
                    gl.LemmaStatus.HOLDS if witness is None else gl.LemmaStatus.COUNTEREXAMPLE,
                    witness=witness)
        for P, p in zip(ideals, sets):
            AB = next(((ideals[i], ideals[j]) for i, j in pairs if not sets[i] <= p
                       and not sets[j] <= p and prod[i][j] <= p), None)
            assert is_prime(G, P) == (IdealVerdict(True) if AB is None
                                      else IdealVerdict(False, PRIME, AB))
    assert cases > 7


def test_semilattice_associativity_matches_a_set_oracle(monkeypatch):
    # a structure of each class at (3,1): closed and associative, closed and not
    # associative, and not closed (some product of two ideals is no ideal)
    calls = []
    monkeypatch.setattr(ideals, "subset_product", lambda G, A, B: calls.append((A, B))
                        or gl.subset_product(G, A, B))
    kinds = set()
    for G in gl.enumerate_structures(gl.SearchSpec(order=3, gammas=1, up_to_iso=True)):
        full = set(range(G.order))
        sets = [s for s in map(oracle_members, range(1, 1 << G.order))
                if oracle_product(G, full, s) | oracle_product(G, s, full) <= s]
        prod = [[oracle_product(G, a, b) for b in sets] for a in sets]
        closed = all(p in sets for row in prod for p in row)
        associative = all(oracle_product(G, prod[i][j], c) == oracle_product(G, a, prod[j][l])
                          for i, a in enumerate(sets) for j in range(len(sets))
                          for l, c in enumerate(sets))
        paired_ideals(G)
        calls.clear()
        rep = build_ideal_semilattice(G)
        assert (rep.closed, rep.associative) == (closed, associative), G.tables
        # the products of two ideals are read from the paired table
        assert all(A not in rep.ideals or B not in rep.ideals for A, B in calls)
        assert not closed or calls == []
        kinds.add((closed, associative))
    assert kinds == {(True, True), (True, False), (False, False)}


def test_paired_products_are_kept_once(gamma5):
    G = fresh(gamma5)
    assert paired_ideals(G) is paired_ideals(G)
    assert build_ideal_semilattice(G).products is paired_ideals(G)[1]
    assert build_ideal_semilattice(G).ideals is paired_ideals(G)[0]


# ---------------------------------------------------------------------------
# structural implications that hold for arbitrary bundles (pure containment)

@settings(max_examples=40, deadline=None)
@given(structures(max_order=3, max_gammas=2))
def test_one_sided_implies_quasi_and_bi(G):
    for kind in (IdealKind.LEFT, IdealKind.RIGHT):
        for S in enumerate_ideals(G, kind):
            assert is_ideal(G, S, IdealKind.QUASI).holds
            assert is_ideal(G, S, IdealKind.BI).holds


@settings(max_examples=40, deadline=None)
@given(structures(max_order=3, max_gammas=2))
def test_two_sided_implies_interior(G):
    for S in enumerate_ideals(G, IdealKind.TWO_SIDED):
        assert is_ideal(G, S, IdealKind.INTERIOR).holds


def test_interior_iff_right_only_up_to_order_two():
    # the equivalence survives exhaustive checking at order <= 2 ...
    for (n, m) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        spec = gl.SearchSpec(order=n, gammas=m,
                             filters=frozenset({gl.Filter.LEFT_INVERTIVE,
                                                gl.Filter.AG_STAR_STAR}))
        for G in gl.enumerate_structures(spec):
            for S in range(1, 1 << n):
                assert is_ideal(G, S, IdealKind.INTERIOR).holds == \
                    is_ideal(G, S, IdealKind.RIGHT).holds
    # ... and is refuted at order 3 by the shipped counterexample
    cx = gl.load_fixture("interior_not_right3")
    S = cx.subset_of_labels(["1", "3"])
    assert is_ideal(cx, S, IdealKind.INTERIOR).holds
    assert not is_ideal(cx, S, IdealKind.RIGHT).holds


def test_absorption_in_regular_structures():
    for (n, m) in [(2, 1), (2, 2), (3, 1)]:
        spec = gl.SearchSpec(order=n, gammas=m,
                             filters=frozenset({gl.Filter.LEFT_INVERTIVE,
                                                gl.Filter.REGULAR}))
        for G in gl.enumerate_structures(spec):
            for A in enumerate_ideals(G, IdealKind.RIGHT):
                assert gl.subset_product(G, A, G.carrier) == A
            for B in enumerate_ideals(G, IdealKind.LEFT):
                assert gl.subset_product(G, G.carrier, B) == B
