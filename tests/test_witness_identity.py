"""Witness identity of the term-compiled scans against hand-written loops.

The reference code below is the nested-loop ``check_law`` and the five
clause witness scanners that the law terms in ``gaglab.core`` and the clause
terms in ``gaglab.ideals`` replaced, kept verbatim so that every witness, not
only every verdict, is compared.  Each law's verdict pass, which visits the
instances in another order, is compared with the reference verdict.
"""
import random

from hypothesis import given, settings

import gaglab as gl
from gaglab.core import VECTOR_ORDER, Law, LawVerdict, members
from gaglab.ideals import IdealKind

from conftest import fresh, structure_with_subsets, structures


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
    # orders 1-4, below VECTOR_ORDER, so the vector form is called directly;
    # order 1 gives one-byte vectors
    for law in Law:
        expected = reference_check_law(G, law)
        assert law.holds(G) == expected.holds, law
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


def test_check_law_matches_reference_across_the_crossover():
    rng = random.Random(11)
    for n in (VECTOR_ORDER - 1, VECTOR_ORDER, VECTOR_ORDER + 1):
        for tables in _tables_across_the_crossover(n, 2, rng):
            G = gl.GammaGroupoid.from_tables(tables)
            for law in Law:
                expected = reference_check_law(G, law)
                assert law.holds(fresh(G)) == expected.holds, (n, law)
                assert gl.check_law(G, law) == expected, (n, law)


def test_holds_takes_the_vector_pass_from_the_crossover_on():
    # the vector pass builds only the byte tables it reads: commutative reads a
    # row and a column of each table, never a 256-byte translation table
    for law, tables in ((Law.MEDIAL, {"R", "RT"}), (Law.COMMUTATIVE, {"R", "C"})):
        for n, vector in ((VECTOR_ORDER - 1, False), (VECTOR_ORDER, True)):
            G = gl.GammaGroupoid.from_tables([[[0] * n] * n])
            assert law.holds(G)
            built = {"R", "C", "RT", "CT"} & G.__dict__.get("_facts", {}).keys()
            assert built == (tables if vector else set()), (law, n)


def test_check_law_matches_reference_when_only_a_late_gamma_fails():
    # gammas (Z, Z, R), Z constant and R random: an instance (x a y) b (l g m)
    # of medial or paramedial can fail only when b and one of a, g are R, so
    # the verdict pass, whose loops over (a, b, g) are outermost, sweeps eight
    # gamma triples over every element before it can meet a violation, while
    # the scan, whose element loops are outermost, meets one early; order 4
    # takes the scalar pass and VECTOR_ORDER the vector form
    rng = random.Random(7)
    for n in (4, VECTOR_ORDER):
        Z = [[0] * n for _ in range(n)]
        R = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        G = gl.GammaGroupoid.from_tables([Z, Z, R])
        for law in Law:
            expected = reference_check_law(G, law)
            assert law.holds(G) == expected.holds, (n, law)
            assert gl.check_law(G, law) == expected, (n, law)
        for law in (Law.MEDIAL, Law.PARAMEDIAL):
            witness = gl.check_law(G, law).witness
            assert witness is not None and witness[3] == 2, (n, law)
