"""``core.derives`` against a model oracle, in both directions.

A law that ``derives`` proves from the hypotheses holds on every structure that
meets them, so the class streams at (3,2) and (2,3) hold no structure that fails
it; a law it does not prove has a countermodel, and the class search finds the
least one-gamma one at the shape named here.
"""
import time

import pytest

import gaglab as gl
from gaglab.core import Law, derives

LI = (Law.LEFT_INVERTIVE,)
LI_AGSS = (Law.LEFT_INVERTIVE, Law.AG_STAR_STAR)

# every law against both hypothesis sets: the shape of the least one-gamma
# countermodel that the class search finds, or None where derives proves the law
COUNTERMODEL_SHAPES = {
    (LI, Law.LEFT_INVERTIVE): None,
    (LI, Law.AG_STAR_STAR): (3, 1),
    (LI, Law.MEDIAL): None,
    (LI, Law.PARAMEDIAL): (4, 1),  # nothing up to (3,2) or (2,3) separates them
    (LI, Law.ASSOCIATIVE): (3, 1),
    (LI, Law.COMMUTATIVE): (3, 1),
    (LI_AGSS, Law.LEFT_INVERTIVE): None,
    (LI_AGSS, Law.AG_STAR_STAR): None,
    (LI_AGSS, Law.MEDIAL): None,
    (LI_AGSS, Law.PARAMEDIAL): None,
    (LI_AGSS, Law.ASSOCIATIVE): (3, 1),
    (LI_AGSS, Law.COMMUTATIVE): (3, 1),
}


def _classes(hypotheses, n, m):
    """The class stream of the structures of shape (n, m) that meet the hypotheses."""
    filters = frozenset(gl.Filter(law.value) for law in hypotheses)
    return gl.enumerate_structures(gl.SearchSpec(n, m, filters, lex_pruned=True))


def _fails(G, law):
    return not gl.check_law(G, law).holds


def test_every_law_against_both_hypothesis_sets():
    assert {law for _, law in COUNTERMODEL_SHAPES} == set(Law)
    assert {hyps for hyps, _ in COUNTERMODEL_SHAPES} == {LI, LI_AGSS}


@pytest.mark.parametrize("hypotheses,law", list(COUNTERMODEL_SHAPES),
                         ids=lambda x: "+".join(h.value for h in x)
                         if isinstance(x, tuple) else x.value)
def test_derives_against_the_model_oracle(hypotheses, law):
    shape = COUNTERMODEL_SHAPES[hypotheses, law]
    proved = derives(hypotheses, law)
    if proved:
        # sound: no structure of these shapes meets the hypotheses and fails the law
        for n, m in ((3, 2), (2, 3)):
            assert not any(_fails(G, law) for G in _classes(hypotheses, n, m)), (n, m)
    else:
        # complete where it answers False: the one-gamma class search up to order 4
        # meets a countermodel, the first one at the named shape
        first = next(((n, 1) for n in range(1, 5)
                      if any(_fails(G, law) for G in _classes(hypotheses, n, 1))), None)
        assert first == shape
    assert proved is (shape is None)


def test_left_invertive_does_not_give_paramedial_below_order_4():
    # nothing at (3,2) or (2,3) separates them; 5 of the 331 (4,1) classes do
    for n, m in ((3, 2), (2, 3)):
        assert not any(_fails(G, Law.PARAMEDIAL) for G in _classes(LI, n, m)), (n, m)
    classes = list(_classes(LI, 4, 1))
    assert len(classes) == 331
    assert sum(_fails(G, Law.PARAMEDIAL) for G in classes) == 5


def test_derives_reads_the_hypotheses_both_ways_round_and_at_any_position():
    assert derives((), Law.LEFT_INVERTIVE) is False
    assert derives((Law.COMMUTATIVE,), Law.COMMUTATIVE)
    # commutativity rewrites inside either argument; with associativity, medial follows
    assert derives((Law.ASSOCIATIVE, Law.COMMUTATIVE), Law.MEDIAL)
    assert not derives((Law.MEDIAL,), Law.LEFT_INVERTIVE)


def test_derives_answers_each_catalog_query_quickly():
    t0 = time.perf_counter()
    for hypotheses, law in COUNTERMODEL_SHAPES:
        derives(hypotheses, law)
    assert time.perf_counter() - t0 < 0.5
