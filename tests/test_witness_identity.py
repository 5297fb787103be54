"""Witness identity of the term-compiled scans against hand-written loops.

The reference code below is the nested-loop ``check_law`` and the five
clause witness scanners that the law terms in ``gaglab.core`` replaced,
kept verbatim so that every witness, not only every verdict, is compared.
"""
from hypothesis import given, settings

import gaglab as gl
from gaglab.core import Law, LawVerdict, members
from gaglab.ideals import (
    _bi_witness,
    _interior_witness,
    _left_witness,
    _right_witness,
    _sub_witness,
)

from conftest import structure_with_subsets, structures


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
    (_sub_witness, reference_sub_witness),
    (_left_witness, reference_left_witness),
    (_right_witness, reference_right_witness),
    (_bi_witness, reference_bi_witness),
    (_interior_witness, reference_interior_witness),
]


# ---------------------------------------------------------------------------
# identity of witnesses

@settings(max_examples=150, deadline=None)
@given(structures())
def test_check_law_witness_matches_reference(G):
    for law in Law:
        assert gl.check_law(G, law) == reference_check_law(G, law), law


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
                assert gl.check_law(G, law) == reference_check_law(G, law), law
