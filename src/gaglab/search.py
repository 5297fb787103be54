"""Backtracking enumeration of all table bundles of a given shape.

Cells are assigned depth-first in gamma-major, row-major order, so structures
come out in lexicographic order of their flattened cell sequence.  That
sequence is the search's one table, a flat list which every part of the search
reads and writes in place.  The search takes one instance per mirror pair of
each pruned law (``_instances``): the mirror swaps the law's two terms, so an
instance and its image state one equation, and a self-mirror instance, whose
sides are the same lookup, is dropped.  Each instance waits on an unassigned
cell that it reads (a watch list, as with the watched literals of Chaff), and
assigning a cell re-probes only the instances waiting on it, in one propagate
step compiled per tuple of laws with the probes inline (``compile_propagate``,
an emitter of its own, as its lookups wait on a cell one by one): an instance
with both sides known and unequal prunes the branch, one with a known side and
the other blocked only at its outermost lookup forces that cell to the known
value (unit propagation, as in SEM), one with both outermost cells unassigned
waits on both of them, and any other is moved to its first unassigned inner
lookup.  Forced cells are propagated at once and skipped by the backtracking;
a trail of moved instances and of forced cells' flat indexes is rolled back on
the way up.  A cell is only forced to the one value every completion must give
it, so the stream is the same as with pruning alone.  Emitted structures are
re-checked in full at the leaf, so pruning is an optimization, never trusted.

A canonical form is the least relabelling.  One table per shape lists, for each
relabelling, the old cell each new cell reads; a walk stops at its first difference.
An ``up_to_iso`` search keeps a leaf only when it is its own canonical form, and
prunes by lex-leader symmetry breaking (Crawford, Ginsberg, Luks & Roy, KR
1996) on the way down (``_lex_leader``): at each node whose table is partial,
every other relabelling is walked in flat order while both cells are assigned,
and the node is cut when one is already smaller at its first difference, as no
leaf below it is then the least of its orbit.  Each node hands its walks, the
relabellings still undecided and where each stopped, down the recursion to its
children, which resume them; a relabelling found larger is dropped for the
subtree.  Complete tables are left to the leaf's check, so the stream is the
one a leaf filter alone keeps; the order-5 left-invertive census, 31,913
classes, counts in seconds.

A ``lex_pruned`` search lets the walks decide each complete table instead
of ``canonical_form``: the leaf resumes every undecided walk and walks every
relabelling not yet joined, and a sentinel n after the table stops a walk
that meets no difference (an automorphism) as undecided.  It keeps a table
when none is smaller, so its stream is the ``up_to_iso`` stream, one
structure per class.  A hunt runs on this class stream, since the first
labelled counterexample is always the least of its class (the least member
is a counterexample too, and comes no later).  Its table is built at the
stream's first ``next()``; a shape whose full table is refused prunes by
carrier permutations alone, one structure per carrier class, and one whose
carrier table is refused too streams every labelled table.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, islice, permutations, product, repeat
from math import factorial
from typing import Iterator, Optional

from .core import (GammaGroupoid, Law, LimitExceededError, _define, _refuse_beyond,
                   _variables, check_law, identities, is_regular)

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
    HAS_RIGHT_IDENTITY = "has-right-identity", lambda G: bool(identities(G, "right"))
    NON_ASSOCIATIVE = "non-associative", lambda G: not check_law(G, Law.ASSOCIATIVE).holds

    __hash__ = object.__hash__  # each member is one object, compared by identity

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
    lex_pruned: bool = False  # lex-leader pruning whose walks, not canonical_form, decide the leaf

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
    _refuse_beyond(spec.order * spec.order * spec.gammas, MAX_SEARCH_CELLS,
                   "search over {} table cells")
    if spec.up_to_iso:  # the search's one table, built here to refuse its shape at once
        _relabellings(spec.order, spec.gammas, spec.iso_include_gamma)
    return islice(_generate(spec), spec.limit)


def _generate(spec: SearchSpec) -> Iterator[GammaGroupoid]:
    n, m = spec.order, spec.gammas
    end = n * n * m  # cell (g, r, c) is flat[(g*n + r)*n + c], n while unassigned
    flat = [n] * (end + 1)  # then a sentinel n, which stops the forced-cell skip and the walks
    waiting = [[] for _ in range(end)]  # waiting[k]: the law instances blocked on unassigned cell k
    moved = []   # the bucket each re-queued instance went to, in order
    forced = []  # the flat index of each cell assigned by propagation, in order
    prunable = [f for f in Filter if f in spec.filters and f.law]
    # The leaf-only filters, which can reject a leaf, are checked before the
    # prunable ones, which re-check the pruning; each group in declaration order.
    leaf_filters = [f for f in Filter if f in spec.filters and not f.law] + prunable
    laws = tuple(f.law for f in prunable)
    propagate, encode = compile_propagate(tuple(law.terms for law in laws))(
        flat, waiting, n, moved, forced)
    lex = None
    if spec.up_to_iso or spec.lex_pruned:
        try:  # enumerate_structures has refused an oversized up_to_iso table
            lex = _lex_leader(flat, n, m, spec.iso_include_gamma)
        except LimitExceededError:
            # pruning is an optimization: lex_pruned prunes by carrier permutations
            # where their table fits, and else streams every labelled table
            with suppress(LimitExceededError):
                lex = _lex_leader(flat, n, m, False)
    decide = lex if spec.lex_pruned else None  # the walks decide a lex_pruned leaf

    def rec(pos, walks):
        while flat[pos] != n:
            pos += 1  # assigned by propagation
        if pos == end:
            if decide and decide(end, walks) is None:
                return  # some relabelling of the complete table is smaller
            rows = zip(*[iter(flat[:end])] * n)  # n cells to a row, then n rows to a table
            G = GammaGroupoid._trusted(tuple(zip(*[rows] * n)))
            if all(f.holds(G) for f in leaf_filters) and (
                    not spec.up_to_iso
                    or canonical_form(G, include_gamma=spec.iso_include_gamma).tables == G.tables):
                yield G
            return
        if lex and (walks := lex(pos, walks)) is None:
            return  # some relabelling is already smaller
        bucket = waiting[pos]
        n_moved, n_forced = len(moved), len(forced)
        for v in range(n):
            flat[pos] = v
            if propagate(bucket):
                yield from rec(pos + 1, walks)
            if len(moved) != n_moved:  # roll back what this value's propagation added
                for waits in moved[n_moved:]:
                    waits.pop()
                del moved[n_moved:]
            if len(forced) != n_forced:
                for k in forced[n_forced:]:
                    flat[k] = n
                del forced[n_forced:]
        flat[pos] = n

    if propagate([encode[k](*values) for k, law in enumerate(laws)
                  for values in _instances(law, n, m)]):
        yield from rec(0, (0, (), ()))


def _lex_leader(flat, n, m, include_gamma):
    """The lex-leader step of an ``up_to_iso`` or ``lex_pruned`` search over
    ``flat``, its cells in flat order and then a sentinel n, which the search
    keeps current and the step reads in place: at a node whose first
    unassigned cell is k, ``step(k, walks)`` takes the parent's walks and
    returns the node's, which its children take, or None when some relabelling
    of the partial table is already smaller, so that no leaf below is the least
    of its orbit (lex-leader symmetry breaking).

    Walks are ``(k, undecided, resume)``: a node's cell k, the relabellings
    still undecided there and where each walk resumes; the root takes
    ``(0, (), ())``.  A relabelling is walked in flat order while both the cell
    and the cell it reads are assigned; unassigned cells hold n, which
    ``sigma`` keeps.  At the first difference it cuts the node if smaller and
    is dropped for the subtree if larger; with none it resumes there below.
    It joins at the first node whose cell k lies beyond the cell it reads
    first, as skipping a relabelling only prunes less.  A node with no walk to
    resume and none to join returns at once.  At k = N, the cell count, every
    relabelling not yet joined joins and a walk past the last cell reads the
    sentinel n, so the step decides a complete table: None exactly when some
    relabelling is smaller.  ``lex_pruned`` decides its leaf so, and
    ``up_to_iso`` checks its leaf with ``canonical_form``.
    """
    table = sorted(_relabellings(n, m, include_gamma)[1:], key=lambda entry: entry[1][0])
    firsts = [cells[0] for _, cells in table]
    joined = [bisect_left(firsts, k) for k in range(n * n * m + 1)]  # relabellings joined by cell k

    def step(k, walks):
        start, ts, ats = walks
        joining = range(joined[start], joined[k])
        if not ts and not joining:
            return k, ts, ats
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
                return None
        return k, undecided, resume
    return step


@lru_cache(maxsize=None)
def compile_propagate(laws):
    """Compile ``f(F, W, n, moved, forced)``, which returns the search's
    ``propagate(batch)`` over instances of ``laws``, a tuple of term pairs, and
    ``encode``, which builds them; compiled once per tuple.

    F holds the search's cells in flat order, cell (g, r, c) at (g·n + r)·n + c,
    with ``n`` in every unassigned cell, and ``W[j]`` lists the instances
    waiting on unassigned cell j.  ``encode[k](*values)`` is the instance of
    law k at those values of its variables: k, then for each lookup the part of
    its cell's flat index that the variables fix, then the variables that are a
    whole side; a lookup adds the inner values it reads, as in ``F[b1 + x6 * n]``.
    ``propagate`` runs each instance of ``batch``, with its lookups written
    inline, and then those waiting on each cell it forces; False at the first
    instance whose sides are known and unequal.  Every index it reads is fixed
    or read from a cell already checked to be assigned, so it stays below n·n·m.
    An instance waits on its first unassigned inner lookup; with every inner
    lookup known it forces an unassigned outermost cell to the other side's
    known value, or waits on both outermost cells when both are unassigned
    (Chaff's two watched literals).  A wait appends the instance to the bucket
    and the bucket to ``moved``; a force assigns the cell, appends its flat
    index to ``forced`` and queues the cell's bucket.
    """
    lines = ["def f(F, W, n, moved, forced):",
             "    def propagate(batch):",
             "        todo = [batch]",
             "        for batch in todo:",
             "            for inst in batch:"]
    encode = []
    for k, terms in enumerate(laws):
        pad = " " * 16
        if len(laws) > 1:
            lines.append(f"{pad}{'elif' if k else 'if'} inst[0] == {k}:")
            pad += "    "
        head, bases = len(lines), []  # the fixed part of each lookup's index, in emission order

        def wait(j):
            return f"w = W[{j}]; w.append(inst); moved.append(w)"

        def index(term):
            """Emit the inner lookups of a term; the flat index of its cell."""
            left, g, right = term
            fixed, read = [f"v_{g} * n * n"], ""
            for arg, scale in ((left, " * n"), (right, "")):
                if isinstance(arg, str):
                    fixed.append(f"v_{arg}{scale}")
                else:
                    read += f" + {value(arg)}{scale}"
            bases.append(" + ".join(fixed))
            return f"b{len(bases) - 1}{read}"

        def value(term):
            """Emit the lookup of a term, waiting at once when unassigned."""
            j = index(term)
            var = f"x{len(lines)}"
            lines.append(f"{pad}{var} = F[{j}]")
            lines.append(f"{pad}if {var} == n: {wait(j)}; continue")
            return var

        # the outermost lookups come last, so that a known side can force the other's
        roots = [(i, index(term)) for i, term in enumerate(terms) if not isinstance(term, str)]
        lines += [f"{pad}s{i} = F[{j}]" for i, j in roots]
        sides = ["v_" + term if isinstance(term, str) else f"s{i}" for i, term in enumerate(terms)]
        bare = [side for side, term in zip(sides, terms) if isinstance(term, str)]
        fields = [f"b{i}" for i in range(len(bases))] + bare
        lines.insert(head, pad + "_, " + "".join(v + ", " for v in fields) + "= inst")
        encode.append(f"lambda {', '.join('v_' + v for v, _ in _variables(*terms))}: "
                      f"({k}, {', '.join(bases + bare)})")
        lhs, rhs = sides
        lines.append(f"{pad}if {lhs} != {rhs}:")
        for branch, (i, j) in enumerate(roots):  # a side reading n: the other is known
            lines.append(f"{pad}    {'elif' if branch else 'if'} s{i} == n:")
            lines.append(f"{pad}        j = {j}; F[j] = {sides[1 - i]}; "
                         "forced.append(j); todo.append(W[j])")
        lines.append(f"{pad}    {'else: ' if roots else ''}return False")
        if len(roots) == 2:  # equal sides: both known, or both unassigned
            lines.append(f"{pad}elif s0 == n:")
            lines += [f"{pad}    {wait(j)}" for _, j in roots]
    if not laws:
        lines.append(" " * 16 + "pass")
    lines += ["        return True", f"    return propagate, ({''.join(e + ', ' for e in encode)})"]
    return _define(lines)


@lru_cache(maxsize=None)
def _instances(law: Law, n: int, m: int) -> tuple[tuple, ...]:
    """Values of the law's ``variables`` over n elements and m gammas, each
    smaller than its mirror image (where ``x`` takes the value of ``mirror[x]``)."""
    values = product(*(range(m) if is_gamma else range(n) for _, is_gamma in law.variables))
    mirror = law.mirror
    if mirror is None:
        return tuple(values)
    names = [v for v, _ in law.variables]
    image = [names.index(mirror[v]) for v in names]
    return tuple(v for v in values if v < tuple(v[i] for i in image))


def count(spec: SearchSpec) -> int:
    return sum(1 for _ in enumerate_structures(spec))


@lru_cache(maxsize=2)
def _relabellings(n: int, m: int, include_gamma: bool) -> list:
    """Every relabelling of the (n, m) shape, in permutation order from the
    identity, as ``(sigma, cells)``: relabelled cell i is ``sigma[flat[cells[i]]]``
    over the old cells.  ``sigma`` also maps n to n, the search's unassigned
    cell.  Refused beyond the bounds before a factorial passes them; kept for
    two shapes."""
    what = "canonical form over {n}!" + ("·{m}!" if include_gamma else "") + " relabellings"
    total = 1
    for k in chain(range(2, n + 1), range(2, m + 1) if include_gamma else ()):
        total *= k
        _refuse_beyond(total, MAX_RELABELLINGS, what, n=n, m=m)
    _refuse_beyond(total * n * n * m, MAX_TABLE_CELLS, "canonical form over {} relabelled cells")
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
