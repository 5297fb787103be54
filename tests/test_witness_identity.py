"""Witness identity of the term-compiled scans against hand-written loops.

The reference code below is the nested-loop ``check_law`` and the five
clause witness scanners that the law terms in ``gaglab.core`` and the clause
terms in ``gaglab.ideals`` replaced, kept verbatim so that every witness, not
only every verdict, is compared.  Each law's verdict pass, which visits the
instances in another order, is compared with the reference verdict.
"""
import random
from functools import cache
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import gaglab as gl
from gaglab.core import VECTOR_INSTANCES, Law, LawVerdict, check_law_size, compile_scan, members
from gaglab.ideals import IdealKind

from conftest import corpus_products, fresh, random_bundles, structure_with_subsets, structures


# ---------------------------------------------------------------------------
# reference code

def reference_check_law(G, law):
    n, m = G.order, G.gamma_count
    T = G.tables
    rng, grng = range(n), range(m)
    if law in (Law.LEFT_INVERTIVE, Law.AG_STAR_STAR, Law.ASSOCIATIVE):
        for a in rng:
            for b in rng:
                for c in rng:
                    for g in grng:
                        for d in grng:
                            if law is Law.LEFT_INVERTIVE:
                                l, r = T[d][T[g][a][b]][c], T[d][T[g][c][b]][a]
                            elif law is Law.AG_STAR_STAR:
                                l, r = T[g][a][T[d][b][c]], T[g][b][T[d][a][c]]
                            else:
                                l, r = T[d][T[g][a][b]][c], T[g][a][T[d][b][c]]
                            if l != r:
                                return LawVerdict(False, (a, g, b, d, c))
    elif law in (Law.MEDIAL, Law.PARAMEDIAL):
        for x in rng:
            for y in rng:
                for l_ in rng:
                    for m_ in rng:
                        for ga in grng:
                            for gb in grng:
                                for gg in grng:
                                    lhs = T[gb][T[ga][x][y]][T[gg][l_][m_]]
                                    if law is Law.MEDIAL:
                                        rhs = T[gb][T[ga][x][l_]][T[gg][y][m_]]
                                    else:
                                        rhs = T[gb][T[ga][m_][l_]][T[gg][y][x]]
                                    if lhs != rhs:
                                        return LawVerdict(False, (x, ga, y, gb, l_, gg, m_))
    elif law is Law.COMMUTATIVE:
        for a in rng:
            for b in rng:
                for g in grng:
                    if T[g][a][b] != T[g][b][a]:
                        return LawVerdict(False, (a, g, b))
    else:
        raise ValueError(f"unknown law {law!r}")
    return LawVerdict(True)


def _bit(mask, i):
    return bool(mask >> i & 1)


def reference_sub_witness(G, S):
    for a in members(S):
        for b in members(S):
            for g in range(G.gamma_count):
                if not _bit(S, G.tables[g][a][b]):
                    return (a, g, b)
    return None


def reference_left_witness(G, S):
    for x in range(G.order):
        for s in members(S):
            for g in range(G.gamma_count):
                if not _bit(S, G.tables[g][x][s]):
                    return (x, g, s)
    return None


def reference_right_witness(G, S):
    for s in members(S):
        for x in range(G.order):
            for g in range(G.gamma_count):
                if not _bit(S, G.tables[g][s][x]):
                    return (s, g, x)
    return None


def reference_bi_witness(G, S):
    for s1 in members(S):
        for x in range(G.order):
            for s2 in members(S):
                for g in range(G.gamma_count):
                    for d in range(G.gamma_count):
                        if not _bit(S, G.tables[d][G.tables[g][s1][x]][s2]):
                            return (s1, g, x, d, s2)
    return None


def reference_interior_witness(G, S):
    for x in range(G.order):
        for s in members(S):
            for y in range(G.order):
                for g in range(G.gamma_count):
                    for d in range(G.gamma_count):
                        if not _bit(S, G.tables[d][G.tables[g][x][s]][y]):
                            return (x, g, s, d, y)
    return None


SCANNERS = [
    (IdealKind.SUB_GROUPOID.witness[0], reference_sub_witness),
    (IdealKind.LEFT.witness[0], reference_left_witness),
    (IdealKind.RIGHT.witness[0], reference_right_witness),
    (IdealKind.BI.witness[1], reference_bi_witness),
    (IdealKind.INTERIOR.witness[1], reference_interior_witness),
]


# ---------------------------------------------------------------------------
# identity of witnesses

@settings(max_examples=150, deadline=None)
@given(structures())
def test_check_law_witness_matches_reference(G):
    # orders 1-4 with 1-3 gammas: holds takes either pass by its instance count,
    # so both forms are also called directly; order 1 gives one-byte vectors
    for law in Law:
        expected = reference_check_law(G, law)
        assert law.holds(G) == expected.holds, law
        assert law.holds_scalar(G) == expected.holds, law
        assert law.holds_vector(G) == expected.holds, law
        assert gl.check_law(G, law) == expected, law


@settings(max_examples=150, deadline=None)
@given(structure_with_subsets(count=1))
def test_clause_scans_match_reference(data):
    G, S = data
    for scan, reference in SCANNERS:
        assert scan(G, S) == reference(G, S), reference.__name__


def test_check_law_matches_reference_on_left_invertive_structures():
    # random tables fail most laws at the first instances; these fail later
    for n, m in ((3, 1), (3, 2)):
        spec = gl.SearchSpec(order=n, gammas=m, limit=300,
                             filters=frozenset({gl.Filter.LEFT_INVERTIVE}))
        for G in gl.enumerate_structures(spec):
            for law in Law:
                expected = reference_check_law(G, law)
                assert law.holds(G) == expected.holds, law
                assert gl.check_law(G, law) == expected, law


def _tables_across_the_crossover(n, m, rng):
    """Random tables, which fail most laws early, and tables that hold laws:
    constant ones, and affine ones x g y = p·x + q·y + c_g (mod n), which are
    medial for every p and q and left invertive when q = p² (mod n)."""
    yield [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(m)]
    yield [[[rng.randrange(n)] * n for _ in range(n)] for _ in range(m)]
    for _ in range(3):
        p = rng.randrange(n)
        q = rng.choice((p * p % n, rng.randrange(n)))
        c = [rng.randrange(n) for _ in range(m)]
        yield [[[(p * x + q * y + c[g]) % n for y in range(n)] for x in range(n)]
               for g in range(m)]


def _around_the_crossover(law):
    """For 1 to 3 gammas, the greatest order whose scan has fewer than
    VECTOR_INSTANCES instances of the law and the least order with as many."""
    for m in (1, 2, 3):
        n = 1
        while (n + 1) ** law.element_variables * m ** law.gamma_variables < VECTOR_INSTANCES:
            n += 1
        yield n, m
        yield n + 1, m


def test_check_law_matches_reference_across_the_crossover():
    rng = random.Random(11)
    for law in Law:
        shapes = list(_around_the_crossover(law))
        passes = [check_law_size(gl.GammaGroupoid.from_tables([[[0] * n] * n] * m), law)
                  >= VECTOR_INSTANCES for n, m in shapes]
        assert passes == [False, True] * 3, law
        for n, m in shapes:
            for tables in _tables_across_the_crossover(n, m, rng):
                G = gl.GammaGroupoid.from_tables(tables)
                expected = reference_check_law(G, law)
                assert law.holds(fresh(G)) == expected.holds, (n, m, law)
                assert gl.check_law(G, law) == expected, (n, m, law)


@cache
def _left_invertive_factors(m):
    """The left-invertive bundles of order 3 with m gammas, one per class."""
    return tuple(G.tables for G in gl.enumerate_structures(gl.SearchSpec(
        order=3, gammas=m, filters=frozenset({gl.Filter.LEFT_INVERTIVE}), up_to_iso=True)))


@st.composite
def _vector_order_structures(draw):
    """Bundles of order 7 to 9 with 1 to 3 gammas, where ``Law.holds`` takes the
    vector pass for every law but commutative, on which each law may hold or
    fail: affine tables x g y = p·x + q·y + c mod 7, whose shared (p, q) make
    them medial, and paramedial exactly when p² = q² (mod 7), unless the last
    gamma draws its own; direct products of two left-invertive order-3 bundles;
    and constant tables with a few cells changed."""
    m = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(("affine", "product", "near-constant")))
    if shape == "affine":
        p, q = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        coefficients = [(p, q)] * m
        if draw(st.booleans()):
            coefficients[-1] = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        shifts = [draw(st.integers(0, 6)) for _ in range(m)]
        tables = [[[(a * x + b * y + c) % 7 for y in range(7)] for x in range(7)]
                  for (a, b), c in zip(coefficients, shifts)]
        return gl.GammaGroupoid.from_tables(tables), coefficients
    if shape == "product":
        A, B = (draw(st.sampled_from(_left_invertive_factors(m))) for _ in range(2))
        return gl.GammaGroupoid.from_tables(
            [[[A[g][a // 3][b // 3] * 3 + B[g][a % 3][b % 3] for b in range(9)]
              for a in range(9)] for g in range(m)]), None
    n = draw(st.integers(7, 9))
    tables = [[[draw(st.integers(0, n - 1))] * n for _ in range(n)] for _ in range(m)]
    element = st.integers(0, n - 1)
    for _ in range(draw(st.integers(1, 3))):
        g, x, y = draw(st.integers(0, m - 1)), draw(element), draw(element)
        tables[g][x][y] = draw(element)
    return gl.GammaGroupoid.from_tables(tables), None


@settings(max_examples=150, deadline=None)
@given(_vector_order_structures())
def test_the_vector_pass_agrees_with_the_witness_scan_at_orders_7_to_9(drawn):
    # medial and paramedial translate through a row picked by a looked-up
    # value, which the vector pass tabulates; the witness scan does not
    G, coefficients = drawn
    for law in Law:
        assert law.holds_vector(G) == (law.scan(G) is None), law
    if coefficients is not None and len(set(coefficients)) == 1:
        (p, q), = set(coefficients)
        assert Law.MEDIAL.holds_vector(G)
        assert Law.PARAMEDIAL.holds_vector(G) == ((p * p - q * q) % 7 == 0)


# below order 7, the shapes whose medial and paramedial scans reach VECTOR_INSTANCES;
# from (5, 2) on those of left-invertive, AG** and associative reach it too
SMALL_VECTOR_SHAPES = ((2, 3), (3, 2), (4, 2), (5, 1), (6, 1), (5, 2), (3, 4), (4, 3))


def test_the_vector_pass_agrees_with_the_witness_scan_below_order_7():
    # affine tables x g y = p·x + q·y + c_g mod n are medial, and paramedial
    # when p² = q² (mod n); at p = q = 1, drawn one time in five, every law holds;
    # with the last gamma's own (p, q), or random, a law may fail: each shape meets
    # both outcomes of every law whose scan reaches VECTOR_INSTANCES there
    rng = random.Random(5)
    for n, m in SMALL_VECTOR_SHAPES:
        outcomes = set()
        for _ in range(30):
            pq = [(1, 1) if rng.random() < 0.2 else (rng.randrange(n), rng.randrange(n))] * m
            if rng.random() < 0.3:
                pq[-1] = rng.randrange(n), rng.randrange(n)
            c = [rng.randrange(n) for _ in range(m)]
            tables = [[[(p * x + q * y + cg) % n for y in range(n)] for x in range(n)]
                      for (p, q), cg in zip(pq, c)]
            if rng.random() < 0.2:
                tables[rng.randrange(m)][rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            G = gl.GammaGroupoid.from_tables(tables)
            for law in Law:
                verdict = law.holds_vector(G)
                assert verdict == (law.scan(G) is None), (n, m, law)
                outcomes.add((law, verdict))
            for law in (Law.MEDIAL, Law.PARAMEDIAL):
                assert check_law_size(G, law) >= VECTOR_INSTANCES
        for law in Law:
            if check_law_size(G, law) >= VECTOR_INSTANCES:
                assert {(law, True), (law, False)} <= outcomes, (n, m, law)


def _small_vector_bundles(seed=13):
    """At each of SMALL_VECTOR_SHAPES, tables x g y = x + y + c_g, which hold every
    law, affine ones with drawn p, q, random ones, and affine ones with a cell changed."""
    rng = random.Random(seed)
    for n, m in SMALL_VECTOR_SHAPES:
        for p, q in ((1, 1), (rng.randrange(n), rng.randrange(n))):
            c = [rng.randrange(n) for _ in range(m)]
            affine = [[[(p * x + q * y + cg) % n for y in range(n)] for x in range(n)] for cg in c]
            noise = [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(m)]
            changed = [[row[:] for row in table] for table in affine]
            changed[rng.randrange(m)][rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            yield from map(gl.GammaGroupoid.from_tables, (affine, noise, changed))


def test_the_mirror_restricted_passes_agree_with_the_unrestricted_ones():
    # each verdict pass takes one instance per mirror pair; the same loop nest over
    # every instance, and the witness scan, give the same verdict, and every law
    # meets both verdicts on each set of bundles: orders 7 to 12 with the order-9
    # corpus products (all left invertive), small shapes that take the vector pass,
    # and every bundle of order 1 and 2
    full = {law: (compile_scan(law.terms, "{0} != {1}", gammas_outer=True),
                  compile_scan(law.terms, "{0} != {1}", vector=True)) for law in Law}
    tiny = [G for m in (1, 2, 3) for G in gl.enumerate_structures(gl.SearchSpec(1, m))]
    tiny += [G for m in (1, 2) for G in gl.enumerate_structures(gl.SearchSpec(2, m))]
    for bundles in (*random_bundles(), *corpus_products()), _small_vector_bundles(), tiny:
        outcomes = set()
        for G in bundles:
            for law in Law:
                holds = law.scan(G) is None
                assert law.holds_scalar(G) == full[law][0](G) == holds, (law, G.tables)
                assert law.holds_vector(G) == full[law][1](G) == holds, (law, G.tables)
                outcomes.add((law, holds))
        assert len(outcomes) == 2 * len(Law), outcomes


def test_the_paramedial_passes_check_instances_whose_swapped_values_are_equal():
    # paramedial's mirror swaps x with m, y with l and a with g, so an instance with
    # x = m, or with y = l, is not its own image: each pass takes w from u's value
    # on, not from the next value.  On these bundles every violation has x = m
    # (the scalar pass's pair), or y = l (the vector pass's), so a pass that skipped
    # them would report that paramedial holds
    for table, u, w, passes in ((((2, 2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2), (2, 0, 2, 2)),
                                 0, 6, (Law.PARAMEDIAL.holds_scalar,)),
                                (((0, 1, 2), (2, 2, 2), (2, 2, 2)),
                                 2, 4, (Law.PARAMEDIAL.holds_vector,))):
        G = gl.GammaGroupoid.from_tables([table])
        n = G.order
        violations = [v for v in product(range(n), [0], range(n), [0], range(n), [0], range(n))
                      if len(set(gl.law_sides(G, Law.PARAMEDIAL, v))) == 2]
        assert violations and all(v[u] == v[w] for v in violations)
        assert not any(law_pass(G) for law_pass in passes)
        assert gl.check_law(G, Law.PARAMEDIAL).witness == violations[0]


def test_holds_takes_the_vector_pass_from_the_crossover_on():
    # the pass is picked by the instance count: on either side of the bound, and
    # the vector pass builds only the byte tables it reads: commutative reads a
    # row and a column of each table, never a 256-byte translation table
    for law, tables in ((Law.MEDIAL, {"R", "RT"}), (Law.COMMUTATIVE, {"R", "C"}),
                        (Law.LEFT_INVERTIVE, {"R", "C", "CT"})):
        for (n, m), vector in zip(_around_the_crossover(law), [False, True] * 3):
            G = gl.GammaGroupoid.from_tables([[[0] * n] * n] * m)
            assert law.holds(G)
            built = set(G.__dict__.get("_facts", {}))
            assert built == (tables if vector else set()), (law, n, m)
    # with one element the vector pass has one lane and saves nothing
    G = gl.GammaGroupoid.from_tables([[[0]]] * 7)
    assert check_law_size(G, Law.MEDIAL) == VECTOR_INSTANCES
    assert Law.MEDIAL.holds(G) and "_facts" not in G.__dict__


def test_check_law_matches_reference_when_only_a_late_gamma_fails():
    # gammas (Z, Z, R), Z constant and R random: an instance (x a y) b (l g m)
    # of medial or paramedial can fail only when b and one of a, g are R, so
    # the verdict pass, whose loops over (a, b, g) are outermost, sweeps eight
    # gamma triples over every element before it can meet a violation, while
    # the scan, whose element loops are outermost, meets one early; with three
    # gammas every order above 1 takes the vector pass for medial and paramedial,
    # so both passes are called directly, at order 4 and at order 7
    rng = random.Random(7)
    for n in (4, 7):
        Z = [[0] * n for _ in range(n)]
        R = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        G = gl.GammaGroupoid.from_tables([Z, Z, R])
        for law in Law:
            expected = reference_check_law(G, law)
            assert law.holds_scalar(G) == expected.holds, (n, law)
            assert law.holds_vector(G) == expected.holds, (n, law)
            assert law.holds(G) == expected.holds, (n, law)
            assert gl.check_law(G, law) == expected, (n, law)
        for law in (Law.MEDIAL, Law.PARAMEDIAL):
            witness = gl.check_law(G, law).witness
            assert witness is not None and witness[3] == 2, (n, law)
