"""Backtracking enumeration of all table bundles of a given shape.

Cells are assigned depth-first in gamma-major, row-major order, so structures
come out in lexicographic order of their flattened cell sequence.  While
assigning, every law instance of the requested identity filters whose lookup
chain is fully determined gets checked, and the branch is pruned on a
violation; instances verified once stay verified because assigned cells never
change along a branch.  Emitted structures are re-checked from scratch at the
leaf, so pruning is an optimization, never trusted.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product
from typing import Iterator, Optional

from .core import (
    GammaGroupoid,
    Law,
    LimitExceededError,
    check_law,
    identities,
    is_regular,
)

MAX_SEARCH_ORDER = 4
MAX_SEARCH_GAMMAS = 3
MAX_CANONICAL_ORDER = 8


class Filter(Enum):
    """A search restriction, carrying ``holds(G)``, the check that decides it.

    The checks call ``check_law``, ``is_regular`` and ``identities`` through
    this module's names at call time.  The same filters name the catalog's
    hypotheses, so these are the only checks of them.
    """
    LEFT_INVERTIVE = "left-invertive", lambda G: check_law(G, Law.LEFT_INVERTIVE).holds
    AG_STAR_STAR = "ag-star-star", lambda G: check_law(G, Law.AG_STAR_STAR).holds
    REGULAR = "regular", lambda G: is_regular(G)
    HAS_LEFT_IDENTITY = "has-left-identity", lambda G: bool(identities(G, "left"))
    NO_LEFT_IDENTITY = "no-left-identity", lambda G: not identities(G, "left")
    NON_ASSOCIATIVE = "non-associative", lambda G: not check_law(G, Law.ASSOCIATIVE).holds

    def __new__(cls, value, holds):
        f = object.__new__(cls)
        f._value_ = value
        f.holds = holds
        return f


_PRUNABLE = {Filter.LEFT_INVERTIVE: Law.LEFT_INVERTIVE,
             Filter.AG_STAR_STAR: Law.AG_STAR_STAR}


@dataclass(frozen=True)
class SearchSpec:
    order: int
    gammas: int
    filters: frozenset[Filter] = frozenset()
    up_to_iso: bool = False
    limit: Optional[int] = None
    allow_large: bool = False
    iso_include_gamma: bool = True

    def __post_init__(self):
        object.__setattr__(self, "filters", frozenset(self.filters))
        if self.order < 1 or self.gammas < 1:
            raise ValueError("order and gammas must be at least 1")
        if {Filter.HAS_LEFT_IDENTITY, Filter.NO_LEFT_IDENTITY} <= self.filters:
            raise ValueError("has-left-identity and no-left-identity are mutually exclusive")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be non-negative")


def enumerate_structures(spec: SearchSpec) -> Iterator[GammaGroupoid]:
    """Stream every structure matching the search spec, in lexicographic table order."""
    if (spec.order > MAX_SEARCH_ORDER or spec.gammas > MAX_SEARCH_GAMMAS) \
            and not spec.allow_large:
        raise LimitExceededError(
            f"search over order {spec.order} with {spec.gammas} gammas refused; "
            "set allow_large to override")
    return _generate(spec)


def _generate(spec: SearchSpec) -> Iterator[GammaGroupoid]:
    n, m = spec.order, spec.gammas
    # An unassigned cell holds n, and a spare row and column of n make every
    # lookup through n yield n, so a law side reads n until it is determined.
    tables = [[[n] * (n + 1) for _ in range(n + 1)] for _ in range(m)]
    cells = [(g, r, c) for g in range(m) for r in range(n) for c in range(n)]
    pending0 = [(law.sides, values)
                for law in (_PRUNABLE[f] for f in _PRUNABLE if f in spec.filters)
                for values in product(*(range(m) if is_gamma else range(n)
                                        for _, is_gamma in law.variables))]
    emitted = 0

    def rec(pos, pending):
        nonlocal emitted
        if spec.limit is not None and emitted >= spec.limit:
            return
        if pos == len(cells):
            G = GammaGroupoid.from_tables([[row[:n] for row in t[:n]] for t in tables])
            if not all(f.holds(G) for f in spec.filters):
                return
            if spec.up_to_iso and \
                    canonical_form(G, include_gamma=spec.iso_include_gamma).tables != G.tables:
                return
            emitted += 1
            yield G
            return
        g, r, c = cells[pos]
        row = tables[g][r]
        for v in range(n):
            row[c] = v
            keep = []
            for inst in pending:
                lhs, rhs = inst[0](tables, inst[1])
                if lhs == n or rhs == n:
                    keep.append(inst)
                elif lhs != rhs:
                    break
            else:
                yield from rec(pos + 1, keep)
            if spec.limit is not None and emitted >= spec.limit:
                break
        row[c] = n

    yield from rec(0, pending0)


def count(spec: SearchSpec) -> int:
    return sum(1 for _ in enumerate_structures(spec))


def _relabel_key(tables, n, m, sigma, tau):
    return tuple(sigma[tables[g][a][b]]
                 for g in _inverse(tau)
                 for a in _inverse(sigma)
                 for b in _inverse(sigma))


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def canonical_form(G: GammaGroupoid, include_gamma: bool = True) -> GammaGroupoid:
    """Lexicographically least relabeling over carrier (and optionally gamma) permutations.

    Two structures are isomorphic under the chosen permutation group exactly
    when their canonical forms have equal tables.  The result carries default
    labels and gamma names.
    """
    n, m = G.order, G.gamma_count
    if n > MAX_CANONICAL_ORDER:
        raise LimitExceededError(
            f"canonical form over {n}! relabelings refused beyond order {MAX_CANONICAL_ORDER}")
    gamma_perms = permutations(range(m)) if include_gamma else [tuple(range(m))]
    best = None
    for tau in gamma_perms:
        for sigma in permutations(range(n)):
            key = _relabel_key(G.tables, n, m, sigma, tau)
            if best is None or key < best:
                best = key
    tables = tuple(tuple(tuple(best[g * n * n + a * n + b] for b in range(n))
                         for a in range(n)) for g in range(m))
    return GammaGroupoid.from_tables(tables)
