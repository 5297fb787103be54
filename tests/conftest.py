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
