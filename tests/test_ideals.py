from functools import partial

import pytest
from hypothesis import given, settings

import gaglab as gl
from gaglab import ideals
from gaglab.ideals import (
    MAX_ENUM_ORDER,
    MAX_PAIRED_IDEALS,
    IdealKind,
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
    P = partial(gl.subset_product, G)
    for kind in IdealKind:
        for (_, term, _), inside, witness in zip(kind.clauses, kind.inside, kind.witness):
            if term[1] != "&":
                assert (witness(G, S) is None) == (inside(P, G.carrier, S) & ~S == 0), kind


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


def test_pairing_two_sided_ideals_is_refused_beyond_the_bound():
    # x·y = x if x = y, else 0: every subset holding 0 is a two-sided ideal, so
    # order n has 2**(n - 1); every path that pairs them refuses them at order 8
    def diagonal(n):
        return gl.GammaGroupoid.from_tables(
            [[[x if x == y else 0 for y in range(n)] for x in range(n)]])
    assert len(paired_ideals(diagonal(7))) == MAX_PAIRED_IDEALS == 64
    G = diagonal(8)
    message = "pairing 128 two-sided ideals refused beyond 64"
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
