"""Backtracking enumeration of all table bundles of a given shape.

Cells are assigned depth-first in gamma-major, row-major order, so structures
come out in lexicographic order of their flattened cell sequence.  The search
takes one instance per mirror pair of each pruned law (``_instances``): the
mirror swaps the law's two terms, so an instance and its image state one
equation, and a self-mirror instance, whose sides are the same lookup, is
dropped.  Each instance waits on an unassigned cell that it reads (a watch
list, as with the watched literals of Chaff), and assigning a cell re-probes
only the instances waiting on it, in one propagate step compiled per tuple of
laws with the probes inline (``compile_propagate``, an emitter of its own, as
its lookups wait on a cell one by one): an instance with both sides known and
unequal prunes the branch, one with a known side and the other blocked only
at its outermost lookup forces that cell to the known value (unit
propagation, as in SEM), one with both outermost cells unassigned waits on
both of them, and any other is moved to its first unassigned inner lookup.
Forced cells are propagated at once and skipped by the backtracking; a trail
of moved instances and forced cells is rolled back on the way up.  A cell is
only forced to the one value every completion must give it, so the stream is
the same as with pruning alone.  Emitted structures are re-checked in full at
the leaf, so pruning is an optimization, never trusted.

A canonical form is the least relabelling.  One table per shape lists, for each
relabelling, the old cell each new cell reads; a walk stops at its first difference.
An ``up_to_iso`` search keeps a leaf only when it is its own canonical form, and
prunes by lex-leader symmetry breaking (Crawford, Ginsberg, Luks & Roy, KR
1996) on the way down (``_lex_leader``): after each successful propagate step
that leaves the table partial, every other relabelling of that table is walked
in flat order while both cells are assigned, and the node is cut when one is
already smaller at its first difference, as no leaf below it is then the least
of its orbit.  The walks resume in the subtree where they stopped, and a
relabelling found larger is dropped for the subtree.  Complete tables are left
to the leaf's check, so the stream is the one a leaf filter alone keeps; the
order-5 left-invertive census, 31,913 classes, counts in seconds.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, islice, permutations, product, repeat
from math import factorial
from typing import Iterator, Optional

from .core import (GammaGroupoid, Law, LimitExceededError, _define, _variables, check_law,
                   identities, is_regular)

MAX_SEARCH_ORDER = 4
MAX_SEARCH_GAMMAS = 3
MAX_RELABELLINGS = factorial(8)  # every one-gamma shape up to order 8
# A table holds at most 32 MB of 4-byte cells.  Of the shapes that permute the
# gammas, (7,3) lists the most, 4,445,280, so only carrier permutations reach it.
MAX_TABLE_CELLS = 2 ** 23
# The backtracking takes one generator frame per cell, so a shape must stay
# well below the default recursion limit of 1,000 frames.  The bound also keeps
# the order (at most 30) within core.MAX_ORDER, and the n^3·m^2 <= 900^2
# instances of each pruned law within core.MAX_LAW_INSTANCES.
MAX_SEARCH_CELLS = 900


class Filter(Enum):
    """A search restriction, carrying ``holds(G)``, the check that decides it, and
    ``law``, that check's law or None; the search prunes by the filters with a law.

    The checks call ``check_law``, ``is_regular`` and ``identities`` through
    this module's names at call time.  The same filters name the catalog's
    hypotheses, so these are the only checks of them.
    """
    LEFT_INVERTIVE = "left-invertive", Law.LEFT_INVERTIVE
    AG_STAR_STAR = "ag-star-star", Law.AG_STAR_STAR
    REGULAR = "regular", lambda G: is_regular(G)
    HAS_LEFT_IDENTITY = "has-left-identity", lambda G: bool(identities(G, "left"))
    NO_LEFT_IDENTITY = "no-left-identity", lambda G: not identities(G, "left")
    NON_ASSOCIATIVE = "non-associative", lambda G: not check_law(G, Law.ASSOCIATIVE).holds

    def __new__(cls, value, check):
        f = object.__new__(cls)
        f._value_ = value
        f.law = check if isinstance(check, Law) else None
        f.holds = (lambda G: check_law(G, check).holds) if f.law else check
        return f


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
    """Stream every structure matching the search spec, in lexicographic table
    order; every limit is checked here, before the search starts."""
    if (spec.order > MAX_SEARCH_ORDER or spec.gammas > MAX_SEARCH_GAMMAS) \
            and not spec.allow_large:
        raise LimitExceededError(
            f"search over order {spec.order} with {spec.gammas} gammas refused; "
            "set allow_large to override")
    cells = spec.order * spec.order * spec.gammas
    if cells > MAX_SEARCH_CELLS:
        raise LimitExceededError(
            f"search over {cells} table cells refused beyond {MAX_SEARCH_CELLS}")
    if spec.up_to_iso:  # the search's one table, built here to refuse its shape at once
        _relabellings(spec.order, spec.gammas, spec.iso_include_gamma)
    return islice(_generate(spec), spec.limit)


def _generate(spec: SearchSpec) -> Iterator[GammaGroupoid]:
    n, m = spec.order, spec.gammas
    # An unassigned cell holds n, and a spare row and column of n make every
    # lookup through n yield n, so a law side reads n until it is determined.
    tables = [[[n] * (n + 1) for _ in range(n + 1)] for _ in range(m)]
    # waiting[g][r][c]: the law instances blocked on that unassigned cell
    waiting = [[[[] for _ in range(n)] for _ in range(n)] for _ in range(m)]
    cells = [(tables[g][r], c, waiting[g][r][c])
             for g in range(m) for r in range(n) for c in range(n)]
    moved = []   # the bucket each re-queued instance went to, in order
    forced = []  # the (row, column) of each cell assigned by propagation, in order
    prunable = [f for f in Filter if f in spec.filters and f.law]
    # The leaf-only filters, which can reject a leaf, are checked before the
    # prunable ones, which re-check the pruning; each group in declaration order.
    leaf_filters = [f for f in Filter if f in spec.filters and not f.law] + prunable
    laws = tuple(f.law for f in prunable)
    propagate = compile_propagate(tuple(law.terms for law in laws))(
        tables, waiting, n, moved, forced)
    if spec.up_to_iso:
        propagate = _lex_leader(propagate, tables, n, m, spec.iso_include_gamma)

    def undo(n_moved, n_forced):
        for bucket in moved[n_moved:]:
            bucket.pop()
        del moved[n_moved:]
        for row, c in forced[n_forced:]:
            row[c] = n
        del forced[n_forced:]

    def rec(pos):
        while pos < len(cells) and cells[pos][0][cells[pos][1]] != n:
            pos += 1  # assigned by propagation
        if pos == len(cells):
            G = GammaGroupoid._trusted(
                tuple(tuple(tuple(row[:n]) for row in t[:n]) for t in tables))
            if all(f.holds(G) for f in leaf_filters) and (
                    not spec.up_to_iso
                    or canonical_form(G, include_gamma=spec.iso_include_gamma).tables == G.tables):
                yield G
            return
        row, c, bucket = cells[pos]
        marks = len(moved), len(forced)
        for v in range(n):
            row[c] = v
            if propagate(bucket):
                yield from rec(pos + 1)
            undo(*marks)
        row[c] = n

    if propagate([(k, *values) for k, law in enumerate(laws) for values in _instances(law, n, m)]):
        yield from rec(0)


def _lex_leader(propagate, tables, n, m, include_gamma):
    """``propagate``, also failing when the table it leaves is partial and some
    relabelling of it is already smaller, so that no leaf below is the least of
    its orbit (lex-leader symmetry breaking).

    A relabelling is walked in flat order while both the cell and the cell it
    reads are assigned; unassigned cells hold n, which ``sigma`` keeps.  At the
    first difference it prunes the node if smaller and is dropped for the
    subtree if larger; with none it resumes there in the subtree.  It joins at
    the first node whose first unassigned cell lies beyond the cell it reads
    first, as skipping a relabelling only prunes less.  A complete table is
    left to the leaf's ``canonical_form``.
    """
    rows = [t[r] for t in tables for r in range(n)]  # flat cell k is rows[k // n][k % n]
    table = sorted(_relabellings(n, m, include_gamma)[1:], key=lambda entry: entry[1][0])
    firsts = [cells[0] for _, cells in table]
    # one entry per partial node on the current path: its first unassigned cell
    # k, which its children assign, the relabellings undecided there and where
    # each walk resumes; once k is unassigned again the search has left it
    stack = []

    def step(batch):
        while stack and rows[stack[-1][0] // n][stack[-1][0] % n] == n:
            stack.pop()
        if not propagate(batch):
            return False
        flat = [v for row in rows for v in row[:n]]
        if n not in flat:
            return True
        k = flat.index(n)
        start, ts, ats = stack[-1] if stack else (0, (), ())
        joining = range(bisect_left(firsts, start), bisect_left(firsts, k))
        # 16 bits hold both: at most MAX_RELABELLINGS relabellings and MAX_SEARCH_CELLS cells
        undecided, resume = array("H"), array("H")
        for t, i in chain(zip(ts, ats), zip(joining, repeat(0))):
            sigma, cells = table[t]
            u = flat[i]
            while u != n and sigma[flat[cells[i]]] == u:
                i += 1
                u = flat[i]
            if u == n or (v := sigma[flat[cells[i]]]) == n:
                undecided.append(t)
                resume.append(i)
            elif v < u:
                return False
        stack.append((k, undecided, resume))
        return True
    return step


@lru_cache(maxsize=None)
def compile_propagate(laws):
    """Compile ``f(T, W, n, moved, forced)``, which returns the search's
    ``propagate(batch)`` over instances of ``laws``, a tuple of term pairs;
    compiled once per tuple.

    T holds ``n`` in every unassigned cell and in a spare row and column, and
    ``W[g][r][c]`` lists the instances waiting on unassigned cell (g, r, c).  An
    instance is ``(k, *values)``: the index of its law and values of that law's
    variables.  ``propagate`` runs each instance of ``batch``, with its lookups
    written inline, and then those waiting on each cell it forces; False at the
    first instance whose sides are known and unequal.  An instance waits on its
    first unassigned inner lookup; with every inner lookup known it forces an
    unassigned outermost cell to the other side's known value, or waits on both
    outermost cells when both are unassigned (Chaff's two watched literals).
    A wait appends the instance to the bucket and the bucket to ``moved``; a
    force assigns the cell, appends ``(row, column)`` to ``forced`` and queues
    the cell's bucket.
    """
    lines = ["def f(T, W, n, moved, forced):",
             "    def propagate(batch):",
             "        todo = [batch]",
             "        for batch in todo:",
             "            for inst in batch:"]
    for k, terms in enumerate(laws):
        pad = " " * 16
        if len(laws) > 1:
            lines.append(f"{pad}{'elif' if k else 'if'} inst[0] == {k}:")
            pad += "    "
        lines.append(pad + "_, " + "".join(f"v_{v}, " for v, _ in _variables(*terms)) + "= inst")

        def wait(at):
            return f"w = W[{at[0]}][{at[1]}][{at[2]}]; w.append(inst); moved.append(w)"

        def cell(term):
            left, g, right = term
            return "v_" + g, value(left), value(right)

        def value(term):
            """Emit the lookups of a term, each waiting at once when unassigned."""
            if isinstance(term, str):
                return "v_" + term
            at = cell(term)
            var = f"x{len(lines)}"
            lines.append(f"{pad}{var} = T[{at[0]}][{at[1]}][{at[2]}]")
            lines.append(f"{pad}if {var} == n: {wait(at)}; continue")
            return var

        # the outermost lookups come last, so that a known side can force the other's
        roots = [(i, cell(term)) for i, term in enumerate(terms) if not isinstance(term, str)]
        lines += [f"{pad}r{i} = T[{at[0]}][{at[1]}]; s{i} = r{i}[{at[2]}]" for i, at in roots]
        sides = ["v_" + term if isinstance(term, str) else f"s{i}" for i, term in enumerate(terms)]
        lhs, rhs = sides
        lines.append(f"{pad}if {lhs} != {rhs}:")
        for branch, (i, at) in enumerate(roots):  # a side reading n: the other is known
            lines.append(f"{pad}    {'elif' if branch else 'if'} s{i} == n:")
            lines.append(f"{pad}        r{i}[{at[2]}] = {sides[1 - i]}; forced.append((r{i}, {at[2]}))")
            lines.append(f"{pad}        todo.append(W[{at[0]}][{at[1]}][{at[2]}])")
        lines.append(f"{pad}    {'else: ' if roots else ''}return False")
        if len(roots) == 2:  # equal sides: both known, or both unassigned
            lines.append(f"{pad}elif s0 == n:")
            lines += [f"{pad}    {wait(at)}" for _, at in roots]
    if not laws:
        lines.append(" " * 16 + "pass")
    lines += ["        return True", "    return propagate"]
    return _define(lines)


def _mirror(lhs, rhs) -> Optional[dict]:
    """The variable involution that maps lhs onto rhs and rhs onto lhs, or None."""
    image = {}

    def onto(s, t):
        if isinstance(s, str) or isinstance(t, str):
            return isinstance(s, str) and isinstance(t, str) and image.setdefault(s, t) == t
        return onto(s[0], t[0]) and image.setdefault(s[1], t[1]) == t[1] and onto(s[2], t[2])
    return image if onto(lhs, rhs) and onto(rhs, lhs) else None


def _instances(law: Law, n: int, m: int) -> list[tuple]:
    """Values of the law's ``variables`` over n elements and m gammas, each
    smaller than its mirror image (where ``x`` takes the value of ``mirror[x]``)."""
    values = product(*(range(m) if is_gamma else range(n) for _, is_gamma in law.variables))
    mirror = _mirror(*law.terms)
    if mirror is None:
        return list(values)
    names = [v for v, _ in law.variables]
    image = [names.index(mirror[v]) for v in names]
    return [v for v in values if v < tuple(v[i] for i in image)]


def count(spec: SearchSpec) -> int:
    return sum(1 for _ in enumerate_structures(spec))


@lru_cache(maxsize=2)
def _relabellings(n: int, m: int, include_gamma: bool) -> list:
    """Every relabelling of the (n, m) shape, in permutation order from the
    identity, as ``(sigma, cells)``: relabelled cell i is ``sigma[flat[cells[i]]]``
    over the old cells.  ``sigma`` also maps n to n, the search's unassigned
    cell.  Refused beyond the bounds before a factorial passes them; kept for
    two shapes."""
    total = 1
    for k in chain(range(2, n + 1), range(2, m + 1) if include_gamma else ()):
        total *= k
        if total > MAX_RELABELLINGS:
            shape = f"{n}!·{m}!" if include_gamma else f"{n}!"
            raise LimitExceededError(
                f"canonical form over {shape} relabellings refused beyond {MAX_RELABELLINGS}")
    if total * n * n * m > MAX_TABLE_CELLS:
        raise LimitExceededError(f"canonical form over {total * n * n * m} relabelled cells "
                                 f"refused beyond {MAX_TABLE_CELLS}")
    table = []
    for gammas in permutations(range(m)) if include_gamma else [range(m)]:
        for sigma in permutations(range(n)):
            elements = sorted(range(n), key=sigma.__getitem__)
            table.append((sigma + (n,), array("I", [g * n * n + a * n + b for g in gammas
                                             for a in elements for b in elements])))
    return table


def canonical_form(G: GammaGroupoid, include_gamma: bool = True) -> GammaGroupoid:
    """Lexicographically least relabelling over carrier (and optionally gamma) permutations.

    Two structures are isomorphic under the chosen permutation group exactly
    when their canonical forms have equal tables.  The result carries default
    labels and gamma names.  Each relabelling is read up to its first cell that
    differs from the least so far, and taken whole if that cell is smaller.
    """
    n, m = G.order, G.gamma_count
    flat = [v for t in G.tables for row in t for v in row]
    best = flat
    for sigma, cells in _relabellings(n, m, include_gamma):
        i = 0
        for c in cells:
            v = sigma[flat[c]]
            if v != best[i]:
                if v < best[i]:
                    # maps, as a comprehension makes sigma and flat slower closure cells
                    best = list(map(sigma.__getitem__, map(flat.__getitem__, cells)))
                break
            i += 1
    rows = zip(*[iter(best)] * n)  # n cells to a row, then n rows to a table
    return GammaGroupoid._trusted(tuple(zip(*[rows] * n)))
