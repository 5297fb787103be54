import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import gaglab as gl


@pytest.fixture(scope="session")
def gamma5():
    return gl.load_fixture("gamma5")


@pytest.fixture(scope="session")
def dot5():
    return gl.load_fixture("dot5")


@pytest.fixture(scope="session")
def singleton():
    return gl.GammaGroupoid.from_tables([[[0]]])


@pytest.fixture(scope="session")
def product24():
    """principal_left_not_left4 times the constant order-6 table: the cell
    ((a1,a2),(b1,b2)) is (a1·b1, 1), and (a1,a2) has label (a1-1)·6 + a2."""
    T = gl.load_fixture("principal_left_not_left4").tables[0]
    return gl.GammaGroupoid.from_tables([[[T[x // 6][y // 6] * 6 for y in range(24)]
                                          for x in range(24)]])


# the catalog entries whose verifier enumerates ideals, so that above
# ideals.MAX_ENUM_ORDER each of them is refused once its hypotheses hold
ENUMERATING = [lid for lid in gl.LemmaId if lid.value in {
    "t1-union-construction", "l-one-sided-quasi", "l-rlb-one-sided-bi", "c-ideal-bi",
    "l-bi-product", "l-idem-quasi-bi", "l-ideal-interior", "l-interior-iff-right",
    "l-absorption-regular", "l-bgb-regular", "l-left-iff-right-regular",
    "t-regular-iff-idempotent-left", "l-semiprime-regular", "t-semilattice",
    "l-comm-ideals-regular", "l-idem-ideals-regular"}]
# those of them whose hypotheses a left-invertive, AG**, non-regular structure meets
ENUMERATING_UNLESS_REGULAR = [lid for lid in ENUMERATING
                              if gl.Filter.REGULAR not in lid.hypotheses]


def corpus_products():
    """The benchmark corpus's order-9 products, read through its own loader."""
    spec = importlib.util.spec_from_file_location(
        "corpus", Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return [gl.GammaGroupoid.from_tables(T) for eid, T in corpus.load()
            if eid.startswith("product-")]


def oracle_all_ideals(kind, candidates):
    """The per-candidate verifier that ``theorems._all_ideals`` replaced: every
    candidate through ``is_ideal``, the first that fails reported."""
    def run(G):
        for S, tested, extra in candidates(G):
            v = gl.is_ideal(G, tested, kind)
            if not v.holds:
                return {"subset": S, "clause": v.failed_clause, "at": v.witness, **extra}
    return run


def random_bundles(seed=7):
    """Bundles of orders 7-12 with 2-3 gammas, of three kinds: random tables, which
    fail most laws at once; x g y = a·x + b·y + c_g mod n, which is medial, and
    paramedial when a² = b²; and those affine tables with one cell changed, which
    fail them late."""
    rng = random.Random(seed)
    for n in range(7, 13):
        for m in (2, 3):
            noise = [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(m)]
            a, b, c = rng.randrange(n), rng.randrange(n), [rng.randrange(n) for _ in range(m)]
            affine = [[[(a * x + b * y + c[g]) % n for y in range(n)] for x in range(n)]
                      for g in range(m)]
            changed = [[row[:] for row in table] for table in affine]
            g, x, y = rng.randrange(m), rng.randrange(n), rng.randrange(n)
            changed[g][x][y] = (changed[g][x][y] + 1) % n
            yield from map(gl.GammaGroupoid.from_tables, (noise, affine, changed))


def fresh(G):
    """A copy of G that shares none of the facts kept on G."""
    return gl.GammaGroupoid(G.tables, G.labels, G.gamma_names)


@st.composite
def structures(draw, max_order=4, max_gammas=3):
    """Arbitrary table bundles, no laws imposed."""
    n = draw(st.integers(1, max_order))
    m = draw(st.integers(1, max_gammas))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    table = st.lists(row, min_size=n, max_size=n)
    tables = draw(st.lists(table, min_size=m, max_size=m))
    return gl.GammaGroupoid.from_tables(tables)


@st.composite
def structure_with_subsets(draw, count=2, **kwargs):
    G = draw(structures(**kwargs))
    masks = tuple(draw(st.integers(0, G.carrier)) for _ in range(count))
    return (G, *masks)


# ---------------------------------------------------------------------------
# set-based oracle helpers, deliberately independent of the bitmask code paths

def oracle_product(G, A, B):
    return {G.tables[g][a][b]
            for a in A for g in range(G.gamma_count) for b in B}


def oracle_members(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def oracle_walk(term, T, env, n):
    """A term on partial tables, by recursion: its value (None while unknown),
    the unassigned cells it reaches, and its outermost cell when both
    arguments of that lookup are known."""
    if isinstance(term, str):
        return env[term], [], None
    left, g, right = term
    a, reach_a, _ = oracle_walk(left, T, env, n)
    b, reach_b, _ = oracle_walk(right, T, env, n)
    if a is None or b is None:
        return None, reach_a + reach_b, None
    v = T[env[g]][a][b]
    return (None, [(env[g], a, b)], (env[g], a, b)) if v == n else (v, [], (env[g], a, b))
