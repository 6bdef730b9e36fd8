"""Bipartite matching engines.

Two solvers: maximum-cardinality matching (Hopcroft-Karp) and
minimum-weight maximum-cardinality matching for weights restricted to
{0, 1}.  Missing (row, col) pairs mean an unusable edge; they are
represented by absence, never by a big finite constant, so all
arithmetic stays exact.

Both engines take bare row masks and return ``match_row``, the column
of each row or -1; the graph and matching types exist only at the
public boundary, where ``max_matching`` and ``min_weight_max_matching``
read a :class:`WeightedBipartite`'s masks and wrap the result in a
:class:`Matching`.  Hopcroft-Karp can start from a given matching and
runs every phase on the masks: its breadth-first layers are column
masks and its depth-first searches take the lowest column of a row mask
and layer.  The weighted solver works in pure Python integers, in two
steps: the Hungarian method, whose rounds run that Hopcroft-Karp on the
tight edges of the current row and column potentials, kept as masks from
round to round, with a dual step on the potentials between rounds that
moves only the rows and columns it reached: the reached rows rebuild
their tight masks, every other row drops its edges to the reached
columns, and a slack column's potential stays 0; and a tie-break that
walks the rows in ascending order and moves each onto its smallest
column lying on a zero-reduced-cost alternating cycle of the current
optimum.  The tie-break runs the same breadth-first search on the same
tight masks: a row with no tight column below its own outside the fixed
and dead ones costs one mask test, and any other row a search forward
from the owner of each candidate, in ascending order, to the row's own
column.  Each failed search marks every column it reached dead for the
rest of the pass, and the dead set starts again empty only when a row
whose own column is dead rotates.  It returns a canonical optimum: among
all matchings with maximum cardinality and minimum total weight, the one
whose sorted (row, col) pair sequence is lexicographically smallest.
That makes placement output reproducible across platforms.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from . import _EXPORTS
from .structure import Pattern, _Value, _at_least, set_bits

__all__ = list(_EXPORTS["matching"])


class WeightedBipartite(_Value):
    """Bipartite graph with edge weights in {0, 1}.

    ``free`` and ``unit`` hold the weight-0 and weight-1 edges, as patterns
    of one shape sharing no pair; absent pairs cannot be matched at any cost.
    """

    _fields = ("n_rows", "n_cols", "free", "unit")
    n_rows: int
    n_cols: int
    free: Pattern
    unit: Pattern

    def __init__(self, n_rows: int, n_cols: int, edges: Iterable = ()):
        n_rows = _at_least(n_rows, 0, "graph dimensions must be non-negative")
        n_cols = _at_least(n_cols, 0, "graph dimensions must be non-negative")
        masks = ([0] * n_rows, [0] * n_rows)  # indexed by weight
        for r, c, w in edges:
            r, c, w = operator.index(r), operator.index(c), operator.index(w)
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"edge ({r}, {c}) outside {n_rows} x {n_cols} graph")
            if w not in (0, 1):
                raise ValueError(f"edge weight must be 0 or 1, got {w}")
            if masks[1 - w][r] >> c & 1:
                raise ValueError(f"duplicate edge for pair ({r}, {c})")
            masks[w][r] |= 1 << c
        super().__init__(n_rows, n_cols, *(Pattern.from_masks(n_rows, n_cols, m) for m in masks))


class Matching(_Value):
    """A set of vertex-disjoint (row, col) pairs with its total weight.

    Indices and the weight are taken through ``operator.index``: a float
    raises TypeError instead of being truncated.
    """

    _fields = ("pairs", "total_weight")
    pairs: frozenset
    total_weight: int

    def __init__(self, pairs: Iterable, total_weight: int):
        pair_set = frozenset((operator.index(r), operator.index(c)) for r, c in pairs)
        rows = [r for r, _ in pair_set]
        cols = [c for _, c in pair_set]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("matching repeats a row or column vertex")
        super().__init__(pair_set, operator.index(total_weight))

    @property
    def cardinality(self) -> int:
        return len(self.pairs)


def _max_matching_rows(rows: Sequence[int], width: int, start: Iterable = ()) -> tuple[list, list]:
    """Hopcroft-Karp on row masks below ``2**width``; returns match_row and match_col.

    A pair of ``start`` is kept if it is an edge sharing no row or column
    with a pair kept before it.  Each phase then searches from the free
    rows that have edges (``_layers``) and augments along vertex-disjoint
    shortest paths: one depth-first search per free row, in ascending
    order, which at depth d takes the lowest column of its row left in
    layer d, and leaves that column out of the layer for the rest of the
    phase.  The last layer holds free columns only, so from an empty
    start the first phase gives each row in turn its smallest free
    column.  No adjacency list is built.
    """
    match_row = [-1] * len(rows)
    match_col = [-1] * width
    free = (1 << width) - 1  # the columns no pair holds
    for r, c in start:
        is_edge = 0 <= r < len(rows) and c >= 0 and rows[r] >> c & 1
        if is_edge and match_row[r] == -1 and match_col[c] == -1:
            match_row[r] = c
            match_col[c] = r
            free ^= 1 << c
    while True:
        roots = [r for r, c in enumerate(match_row) if c == -1 and rows[r]]
        layers = _layers(rows, roots, match_col, free, width)
        if not (layers and layers[-1] & free):
            return match_row, match_col
        for root in roots:
            path, cols = [root], []  # the rows of the path, and the columns they take
            while path:
                avail = rows[path[-1]] & layers[len(cols)]
                if not avail:  # a dead end for the rest of the phase
                    path.pop()
                    if cols:
                        cols.pop()
                    continue
                low = avail & -avail
                layers[len(cols)] ^= low
                cols.append(low.bit_length() - 1)
                if len(cols) == len(layers):  # a free column: flip the path
                    for r, c in zip(path, cols):
                        match_row[r] = c
                        match_col[c] = r
                    free ^= low
                    break
                path.append(match_col[cols[-1]])


def _layers(rows, roots, match_col, free: int, width: int, seen: int = 0) -> list:
    """The column layers of one phase's breadth-first search from ``roots``.

    Layer d holds the columns first reached at depth d: the OR of the row
    masks reached at depth d, minus the columns of the earlier layers and
    of ``seen``; the rows of depth d + 1 own the columns of layer d.  The
    search stops at the first layer that holds a ``free`` column and
    keeps only its free columns.  If it reaches no free column it runs to
    the end, and the layers hold every column outside ``seen`` that an
    alternating path from ``roots`` reaches.
    """
    layers = []
    while roots:
        reached = 0
        for r in roots:
            reached |= rows[r]
        reached &= ~seen
        if reached & free:
            layers.append(reached & free)
            return layers
        layers.append(reached)
        seen |= reached
        roots = [match_col[c] for c in set_bits(reached, width)]
    return layers


def max_matching(graph: WeightedBipartite) -> Matching:
    """Maximum-cardinality matching; weights are ignored for the search.

    O(E sqrt(V)) Hopcroft-Karp.  The reported total weight sums the graph
    weights of the chosen pairs.
    """
    rows = [a | b for a, b in zip(graph.free.rows, graph.unit.rows)]
    match_row, _ = _max_matching_rows(rows, graph.n_cols)
    pairs = [(r, c) for r, c in enumerate(match_row) if c != -1]
    return Matching(pairs, sum(graph.unit.rows[r] >> c & 1 for r, c in pairs))


def _tie_break(tight, z, match_row, match_col) -> None:
    """Move the optimum in ``match_row`` and ``match_col`` onto the canonical one.

    Rows in ascending order each take their smallest candidate, a tight
    column below their own and not fixed, through which a zero-reduced-cost
    alternating cycle of the current optimum runs; the cycle is rotated
    in and the row's column is fixed.  The cycles are those of the
    residual graph (Regin 1994).  Its nodes are the rows and a sink that
    owns the free columns.  A row can take its tight columns, and the
    sink every column of potential 0: an alternative optimum may take a
    free column and leave one of those, while a column of negative
    potential is matched in every optimum (complementary slackness).
    Edge (r, c) closes a cycle iff c's owner can reach r's column: it can
    take that column, or the column of a node that can.

    Candidate c is tried by ``_layers`` from c's owner, on the tight masks
    with the sink's row appended, so that ``match_col`` (-1 for a free
    column) is the column -> node map.  Its target is r's column, and c,
    the fixed columns and the dead ones (below) count as seen from the
    start; an owner that takes no unseen column fails without a search.
    If the last layer holds the target, the cycle is read back up the
    layers and rotated.  Otherwise no column the search reached leads to
    the target: they are dead, with c, and a dead candidate is skipped.

    The dead set lasts the whole pass.  No column reachable from it lies
    outside it, the fixed columns aside: fixing a column only removes
    it, and a rotation changes the owners of its own cycle's columns
    only.  So a row whose column is not dead skips every dead candidate
    and never searches through a dead column.  A row whose column is
    dead searches without the dead set, and if it rotates, the cycle
    ran through a dead column and the set starts again empty.  Either
    way the row's own failures then join it.  The appended list is built
    when the first candidate is tried.
    """
    width = len(z)
    takes = None  # node -> the columns it can take; the sink's last
    fixed = gone = 0  # gone: the pass's dead columns
    for r in range(len(tight)):
        col = match_row[r]
        inside = gone >> col & 1  # then the row searches without the dead set
        dead = 0 if inside else gone
        cands = tight[r] & ((1 << col) - 1) & ~(fixed | dead)
        while cands:
            c = (cands & -cands).bit_length() - 1
            dead |= 1 << c
            if takes is None:
                takes = tight + [sum(1 << j for j, zj in enumerate(z) if zj == 0)]
            seen = fixed | dead
            if takes[match_col[c]] & ~seen:
                layers = _layers(takes, [match_col[c]], match_col, 1 << col, width, seen=seen)
                if layers[-1] >> col & 1:
                    path = [col]  # the cycle's columns, from col back up to c
                    for layer in reversed(layers[:-1]):  # a column whose owner takes path[-1]
                        j = path[-1]
                        path.append(next(i for i in set_bits(layer, width) if takes[match_col[i]] >> j & 1))
                    path.append(c)
                    x = r  # r takes c, and each later column the owner of the one before it
                    for j in reversed(path):
                        x, match_col[j] = match_col[j], x
                        if match_col[j] != -1:
                            match_row[match_col[j]] = j
                    if inside:  # the cycle ran through a dead column
                        gone = 0
                    break
                for layer in layers:
                    dead |= layer
            cands &= ~dead
        gone = gone | dead if inside else dead  # an outside row's dead set holds gone
        fixed |= 1 << match_row[r]


def _min_weight_max_matching_rows(free: Sequence[int], unit: Sequence[int], n_cols: int) -> list:
    """A minimum-weight maximum matching of row masks; returns match_row.

    ``free`` and ``unit`` hold each row's weight-0 and weight-1 edges, as
    masks below ``2**n_cols`` that share no bit; ``match_row[r]`` is the
    column of row r, or -1 if the matching leaves r unmatched.

    Every row gets a slack column of its own at cost
    ``min(n_rows, n_cols) + 1``, more than any real matching weighs, so
    the cheapest assignment of all rows to real or slack columns is a
    maximum matching of minimum weight.  It is found in two steps:

    1. the Hungarian method, in rounds over row potentials y and column
       potentials z that stay dual feasible (y[r] + z[c] never exceeds
       the cost of (r, c)).  A round runs Hopcroft-Karp on the tight
       edges (those where it is equal), starting from the pairs of the
       round before, which stay tight.  If a row is still free, the rows
       and columns that alternating tight paths from the free rows reach
       move by the smallest reduced cost delta >= 1 from a reached row to
       an unreached column: y up and z down by delta.  Every reached
       column is matched and stays matched, so z is 0 on the free real
       columns; no step reaches a slack column, so its z stays 0.  The
       rounds keep the tight masks and the columns grouped by potential:
       a dual step moves only the reached columns to their new group and
       rebuilds only the reached rows' masks, and every other row, whose
       y did not move, loses just its edges to the reached columns.
       Round 1, at zero potentials, matches on the weight-0 edges, and
       every later round without an augmentation raises each free row's
       y, which the slack column caps;
    2. the canonical tie-break: rows in ascending order, each takes the
       smallest column through which a zero-reduced-cost alternating
       cycle runs in the residual graph of the current optimum (the
       edges of some optimum, as in Regin's 1994 all-different
       filtering); the cycle is rotated in, and the row and its column
       are fixed.  A row whose tight columns below its own are all
       fixed or dead keeps its column after one mask test.  For any
       other row, ``_layers`` on the tight masks searches from the owner
       of each candidate column in ascending order (the sink, if the
       column is free) for the row's own column, and the first candidate
       whose search reaches it wins.  A failed search's columns stay
       dead for the later rows too (``_tie_break``).

    The result is the lexicographically smallest optimal sorted pair
    sequence.  The potentials stay an optimal dual throughout step 2, so
    it reads the tight edges of step 1's last round.
    """
    n_rows = len(free)
    width = n_cols + n_rows  # the real columns, then the slack ones
    slack = min(n_rows, n_cols) + 1
    y = [0] * n_rows
    z = [0] * width
    at_potential = {0: (1 << n_cols) - 1}  # potential -> mask of the real columns that have it

    def tight_row(r):  # row r's tight edges, its slack column last
        return (
            free[r] & at_potential.get(-y[r], 0)
            | unit[r] & at_potential.get(1 - y[r], 0)
            | (y[r] == slack) << (n_cols + r)
        )

    tight = list(free)  # tight_row(r) at zero potentials
    pairs: list = []
    while True:
        match_row, match_col = _max_matching_rows(tight, width, pairs)
        roots = [r for r, c in enumerate(match_row) if c == -1]
        if not roots:
            break
        pairs = [(r, c) for r, c in enumerate(match_row) if c != -1]
        cols = 0  # the reached columns, all matched: no augmenting path is left
        for layer in _layers(tight, roots, match_col, 0, width):
            cols |= layer
        unreached = ~cols
        reached_cols = set_bits(cols, width)
        rows = roots + [match_col[j] for j in reached_cols]
        # Every reached row's slack column is unreached: only that row has
        # an edge to it, a free tight one would be an augmenting path, and
        # a row that holds it can be reached through it alone.  So every
        # slack column keeps z = 0, and row r's is tight at y[r] == slack.
        delta = min(slack - y[r] for r in rows)
        by_y: dict = {}  # row potential -> the weight-0 and weight-1 masks of its reached rows
        for r in rows:
            f, u = by_y.get(y[r], (0, 0))
            by_y[y[r]] = (f | free[r], u | unit[r])
        for zj, m in at_potential.items():
            m &= unreached  # the unreached real columns of potential zj
            for yr, (f, u) in by_y.items():
                if f & m:
                    delta = min(delta, -yr - zj)
                if u & m:
                    delta = min(delta, 1 - yr - zj)
        for r in rows:
            y[r] += delta
        for j in reached_cols:
            z[j] -= delta
        moved: dict = {}
        for zj, m in at_potential.items():
            for zk, part in ((zj - delta, m & cols), (zj, m & unreached)):
                if part:
                    moved[zk] = moved.get(zk, 0) | part
        at_potential = moved
        # An unreached row keeps its y and loses exactly its edges to the
        # reached columns, whose z fell; only a reached row can gain one.
        tight = [t & unreached for t in tight]
        for r in rows:
            tight[r] = tight_row(r)

    _tie_break(tight, z, match_row, match_col)
    return [c if c < n_cols else -1 for c in match_row]


def min_weight_max_matching(graph: WeightedBipartite) -> Matching:
    """Minimum total weight among maximum-cardinality matchings.

    The lexicographically smallest optimal sorted pair sequence, found by
    ``_min_weight_max_matching_rows`` on the graph's row masks.
    """
    match_row = _min_weight_max_matching_rows(graph.free.rows, graph.unit.rows, graph.n_cols)
    pairs = [(r, c) for r, c in enumerate(match_row) if c != -1]
    return Matching(pairs, sum(graph.unit.rows[r] >> c & 1 for r, c in pairs))
