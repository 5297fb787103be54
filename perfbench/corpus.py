"""The frozen input corpus of the ``catalog`` workload.

``data/corpus.json`` holds every left-invertive bundle of shape (order 3,
gammas 2), the four shipped fixtures, and index pairs into the base list whose
order-9 direct products complete the corpus.  The data is frozen so that a
change to the search engine cannot change the catalog inputs.  Loading
re-checks every entry with a naive left-invertive scan that shares no code
with the package.

A table bundle is a tuple of m tables, each a tuple of n rows of 0-based
element indices, so ``tables[g][a][b]`` is a g b.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
BASE_COUNT = 1095  # left-invertive bundles of shape (3, 2), labelled


def cells_to_tables(cells: str, n: int, m: int) -> tuple:
    """Decode a gamma-major, row-major string of digits into a table bundle."""
    if len(cells) != n * n * m:
        raise ValueError(f"expected {n * n * m} cells, got {len(cells)}")
    v = [int(ch) for ch in cells]
    return tuple(tuple(tuple(v[g * n * n + r * n: g * n * n + r * n + n])
                       for r in range(n)) for g in range(m))


def tables_to_cells(tables) -> str:
    return "".join(str(v) for t in tables for row in t for v in row)


def left_invertive(tables) -> bool:
    """(a g b) d c == (c g b) d a for all a, b, c, g, d; the criterion-4 formula."""
    T = tables
    R, M = range(len(T[0])), range(len(T))
    return all(T[d][T[g][a][b]][c] == T[d][T[g][c][b]][a]
               for a in R for b in R for c in R for g in M for d in M)


def direct_product(A, B) -> tuple:
    """Componentwise product over the shared gamma index: (a1,a2) g (b1,b2)."""
    n2 = len(B[0])
    n = len(A[0]) * n2
    return tuple(tuple(tuple(A[g][a // n2][b // n2] * n2 + B[g][a % n2][b % n2]
                             for b in range(n)) for a in range(n))
                 for g in range(len(A)))


def load() -> list[tuple[str, tuple]]:
    """All catalog entries as (entry id, tables), in the fixed request order."""
    raw = json.loads((DATA / "corpus.json").read_text(encoding="utf-8"))
    base = [cells_to_tables(c, 3, 2) for c in raw["base"]]
    if len(base) != BASE_COUNT or len(set(base)) != BASE_COUNT:
        raise ValueError(f"corpus base must hold {BASE_COUNT} distinct bundles")
    entries = [(f"base-{i:04d}", T) for i, T in enumerate(base)]
    for name, fx in raw["fixtures"].items():
        entries.append((f"fixture-{name}",
                        cells_to_tables(fx["cells"], fx["order"], fx["gammas"])))
    for pool, pairs in raw["products"].items():
        for k, (i, j) in enumerate(pairs):
            entries.append((f"product-{pool}-{k:02d}", direct_product(base[i], base[j])))
    for eid, T in entries:
        if not left_invertive(T):
            raise ValueError(f"corpus entry {eid} is not left invertive")
    return entries


def relabel(tables, rng: random.Random) -> tuple:
    """Apply a random carrier permutation s and gamma permutation t:
    the new table t(g) maps s(a), s(b) to s(a g b)."""
    n, m = len(tables[0]), len(tables)
    s = rng.sample(range(n), n)
    t = rng.sample(range(m), m)
    out = [[[0] * n for _ in range(n)] for _ in range(m)]
    for g in range(m):
        for a in range(n):
            for b in range(n):
                out[t[g]][s[a]][s[b]] = s[tables[g][a][b]]
    return tuple(tuple(tuple(row) for row in table) for table in out)


def to_gag(tables) -> str:
    """The .gag text of a bundle with default labels 1..n and gamma names g1..gm."""
    n = len(tables[0])
    lines = [f"order {n}", f"gammas {len(tables)}"]
    for g, table in enumerate(tables):
        lines.append(f"gamma g{g + 1}")
        lines += [" ".join(str(v + 1) for v in row) for row in table]
    return "\n".join(lines) + "\n"
