"""Bipartite matching engines.

Two solvers over the same graph type: maximum-cardinality matching
(Hopcroft-Karp) and minimum-weight maximum-cardinality matching for
weights restricted to {0, 1}.  Missing (row, col) pairs mean an
unusable edge; they are represented by absence, never by a big finite
constant, so all arithmetic stays exact.

A graph is two row-bitmask patterns, and the solvers work on the masks
where they can.  Hopcroft-Karp can start from a given matching and runs
every phase on the masks: its breadth-first layers are column masks and
its depth-first searches take the lowest column of a row mask and
layer.  The weighted solver works in pure Python integers, in two
steps: the Hungarian method, whose rounds run that Hopcroft-Karp on the
tight edges of the current row and column potentials, kept as masks,
with a dual step on the potentials between rounds; and a tie-break that
walks the rows in ascending order and moves each onto its smallest
column lying on a zero-reduced-cost alternating cycle of the current
optimum.  The tie-break keeps the tight edges as masks: a row with no
tight column below its own outside the fixed ones costs one mask test,
and any other row one reverse breadth-first search on masks over the
residual graph.  It returns a canonical optimum: among all matchings
with maximum cardinality and minimum total weight, the one whose sorted
(row, col) pair sequence is lexicographically smallest.  That makes
placement output reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .structure import Pattern, set_bits

__all__ = [
    "WeightedBipartite",
    "Matching",
    "max_matching",
    "min_weight_max_matching",
]


@dataclass(frozen=True)
class WeightedBipartite:
    """Bipartite graph with edge weights in {0, 1}.

    ``free`` and ``unit`` hold the weight-0 and weight-1 edges, as patterns
    of one shape sharing no pair; absent pairs cannot be matched at any cost.
    """

    n_rows: int
    n_cols: int
    free: Pattern
    unit: Pattern

    def __init__(self, n_rows: int, n_cols: int, edges: Iterable = ()):
        n_rows, n_cols = int(n_rows), int(n_cols)
        masks = ([0] * n_rows, [0] * n_rows)  # indexed by weight
        for r, c, w in edges:
            r, c, w = int(r), int(c), int(w)
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"edge ({r}, {c}) outside {n_rows} x {n_cols} graph")
            if w not in (0, 1):
                raise ValueError(f"edge weight must be 0 or 1, got {w}")
            masks[w][r] |= 1 << c
        self._fill(*(Pattern.from_masks(n_rows, n_cols, m) for m in masks))

    @classmethod
    def from_patterns(cls, free: Pattern, unit: Pattern) -> "WeightedBipartite":
        """The graph with weight-0 edges ``free`` and weight-1 edges ``unit``."""
        graph = cls.__new__(cls)
        graph._fill(free, unit)
        return graph

    def _fill(self, free: Pattern, unit: Pattern) -> None:
        if (free.nrows, free.ncols) != (unit.nrows, unit.ncols):
            raise ValueError("the weight-0 and weight-1 edge patterns differ in shape")
        for r, (a, b) in enumerate(zip(free.rows, unit.rows)):
            if a & b:
                raise ValueError(f"duplicate edge for pair ({r}, {(a & b).bit_length() - 1})")
        object.__setattr__(self, "n_rows", free.nrows)
        object.__setattr__(self, "n_cols", free.ncols)
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "unit", unit)

    @property
    def edges(self) -> frozenset:
        """The (row, col, weight) triples."""
        return frozenset(
            (r, c, w) for w, p in enumerate((self.free, self.unit)) for r, c in p.entries
        )

    def _support(self) -> Pattern:
        """The edges as a pattern, weights dropped."""
        rows = [a | b for a, b in zip(self.free.rows, self.unit.rows)]
        return Pattern.from_masks(self.n_rows, self.n_cols, rows)

    def adjacency(self) -> list[list[int]]:
        """Per-row sorted column lists (weights dropped)."""
        return self._support().row_columns()

    def weight_of(self) -> dict:
        return {(r, c): w for r, c, w in self.edges}


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint (row, col) pairs with its total weight."""

    pairs: frozenset
    total_weight: int

    def __init__(self, pairs: Iterable, total_weight: int):
        pair_set = frozenset((int(r), int(c)) for r, c in pairs)
        rows = [r for r, _ in pair_set]
        cols = [c for _, c in pair_set]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("matching repeats a row or column vertex")
        object.__setattr__(self, "pairs", pair_set)
        object.__setattr__(self, "total_weight", int(total_weight))

    @property
    def cardinality(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self) -> list[tuple]:
        return sorted(self.pairs)


def _max_matching_rows(pattern: Pattern, start: Iterable = ()) -> tuple[list, list]:
    """Hopcroft-Karp on a pattern's row masks; returns match_row and match_col.

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
    rows = pattern.rows
    match_row = [-1] * pattern.nrows
    match_col = [-1] * pattern.ncols
    free = (1 << pattern.ncols) - 1  # the columns no pair holds
    for r, c in start:
        is_edge = 0 <= r < pattern.nrows and c >= 0 and rows[r] >> c & 1
        if is_edge and match_row[r] == -1 and match_col[c] == -1:
            match_row[r] = c
            match_col[c] = r
            free ^= 1 << c
    while True:
        roots = [r for r, c in enumerate(match_row) if c == -1 and rows[r]]
        layers = _layers(rows, roots, match_col, free, pattern.ncols)
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


def _layers(rows, roots, match_col, free: int, width: int) -> list:
    """The column layers of one phase's breadth-first search from ``roots``.

    Layer d holds the columns first reached at depth d: the OR of the row
    masks reached at depth d, minus the columns of the earlier layers;
    the rows of depth d + 1 own the columns of layer d.  The search stops
    at the first layer that holds a free column and keeps only its free
    columns.  If it reaches no free column it runs to the end, and the
    layers hold every column an alternating path from ``roots`` reaches.
    """
    layers = []
    seen = 0
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
    match_row, _ = _max_matching_rows(graph._support())
    pairs = [(r, c) for r, c in enumerate(match_row) if c != -1]
    return Matching(pairs, sum(graph.unit.rows[r] >> c & 1 for r, c in pairs))


class _Residual:
    """The residual graph of the current optimum, for the canonical tie-break.

    Row x has an arc to each tight column other than its own, a matched
    column to its row, and a free column to the sink pseudo-row, which
    has an arc to every matched column of potential 0: an alternative
    optimum may take a free column and leave one of those, while a column
    of negative potential is matched in every optimum (complementary
    slackness).  Arcs into a fixed column are dropped.  An edge (r, c)
    lies in some optimum that keeps the fixed pairs iff it closes a cycle
    of this graph (Regin 1994): iff the owner of c, or the sink when c is
    free, can reach r.
    """

    def __init__(self, tight, z, match_row, match_col):
        n_rows, width = len(tight), len(z)
        col_rows = Pattern.from_masks(n_rows, width, tight).transpose().rows
        # column -> the rows it is tight for, and the sink if its potential is 0
        self.col_rows = [m | (zj == 0) << n_rows for m, zj in zip(col_rows, z)]
        self.tight, self.match_row, self.match_col = tight, match_row, match_col
        self.sink = n_rows
        self.free_cols = sum(1 << j for j, i in enumerate(match_col) if i == -1)
        self._sink_preds = None  # rows with a tight free column, when known

    def sink_preds(self) -> int:
        if self._sink_preds is None:
            preds = 0
            for j in set_bits(self.free_cols, len(self.col_rows)):
                preds |= self.col_rows[j]
            self._sink_preds = preds & ~(1 << self.sink)
        return self._sink_preds

    def rotate_smallest(self, r: int, cands: int, fixed: int) -> None:
        """Rotate row r onto its smallest candidate column that closes a cycle.

        The rows that can reach r come from one reverse breadth-first
        search on masks; the predecessors of row x are the rows (and the
        sink) for which x's column is tight.  Nothing moves if no
        candidate closes a cycle.
        """
        match_row, match_col, col_rows, sink = self.match_row, self.match_col, self.col_rows, self.sink
        cols = set_bits(cands, len(col_rows))
        owners = [sink if match_col[c] == -1 else match_col[c] for c in cols]
        reach = frontier = 1 << r
        found = []  # (node, the new predecessors it gave), in search order
        while frontier and not reach >> owners[0] & 1:
            nodes, frontier = frontier, 0
            while nodes:
                low = nodes & -nodes
                nodes ^= low
                x = low.bit_length() - 1
                if x == sink:
                    preds = self.sink_preds()
                else:
                    j = match_row[x]
                    if fixed >> j & 1:
                        continue
                    preds = col_rows[j]
                preds &= ~reach
                if preds:
                    reach |= preds
                    frontier |= preds
                    found.append((x, preds))
        for c, x in zip(cols, owners):
            if reach >> x & 1:
                break
        else:
            return
        cycle = [(r, c)]  # (node, the column it moves to)
        while x != r:  # up the search tree: x's parent is the node that found it
            parent = next(node for node, preds in reversed(found) if preds >> x & 1)
            if parent == sink:
                free = self.tight[x] & self.free_cols
                cycle.append((x, (free & -free).bit_length() - 1))
            else:
                cycle.append((x, match_row[parent]))
            x = parent
        for node, j in cycle:
            if node == sink:  # the sink leaves column j
                match_col[j] = -1
                self.free_cols |= 1 << j
                self._sink_preds = None
        for node, j in cycle:
            if node != sink:
                match_row[node] = j
                match_col[j] = node
                if self.free_cols >> j & 1:
                    self.free_cols ^= 1 << j
                    self._sink_preds = None


def min_weight_max_matching(graph: WeightedBipartite) -> Matching:
    """Minimum total weight among maximum-cardinality matchings.

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
       columns.  Round 1, at zero potentials, matches on the weight-0
       edges, and every later round without an augmentation raises each
       free row's y, which the slack column caps;
    2. the canonical tie-break: rows in ascending order, each takes the
       smallest column through which a zero-reduced-cost alternating
       cycle runs in the residual graph of the current optimum (the
       edges of some optimum, as in Regin's 1994 all-different
       filtering); the cycle is rotated in, and the row and its column
       are fixed.  A row whose tight columns below its own are all
       fixed keeps its column after one mask test.  For any other row,
       one reverse breadth-first search on bitmasks finds the residual
       nodes that can reach it, and the smallest candidate column owned
       by one of them (by the sink, if the column is free) wins.

    The result is the lexicographically smallest optimal sorted pair
    sequence.  The potentials stay an optimal dual throughout step 2, so
    it reads the tight edges of step 1's last round.
    """
    n_rows, n_cols = graph.n_rows, graph.n_cols
    width = n_cols + n_rows  # the real columns, then the slack ones
    slack = min(n_rows, n_cols) + 1
    free, unit = graph.free.rows, graph.unit.rows
    y = [0] * n_rows
    z = [0] * width
    pairs: list = []
    while True:
        at_potential: dict = {}  # potential -> mask of the real columns that have it
        for j in range(n_cols):
            at_potential[z[j]] = at_potential.get(z[j], 0) | 1 << j
        tight = [
            free[r] & at_potential.get(-y[r], 0)
            | unit[r] & at_potential.get(1 - y[r], 0)
            | (y[r] + z[n_cols + r] == slack) << (n_cols + r)  # row r's slack column
            for r in range(n_rows)
        ]
        match_row, match_col = _max_matching_rows(Pattern.from_masks(n_rows, width, tight), pairs)
        roots = [r for r, c in enumerate(match_row) if c == -1]
        if not roots:
            break
        pairs = [(r, c) for r, c in enumerate(match_row) if c != -1]
        cols = 0  # the reached columns, all matched: no augmenting path is left
        for layer in _layers(tight, roots, match_col, 0, width):
            cols |= layer
        reached_cols = set_bits(cols, width)
        rows = roots + [match_col[j] for j in reached_cols]
        # Every reached row's slack column is unreached: only that row has
        # an edge to it, a free tight one would be an augmenting path, and
        # a row that holds it can be reached through it alone.
        delta = min(slack - y[r] - z[n_cols + r] for r in rows)
        by_y: dict = {}  # row potential -> the weight-0 and weight-1 masks of its reached rows
        for r in rows:
            f, u = by_y.get(y[r], (0, 0))
            by_y[y[r]] = (f | free[r], u | unit[r])
        for zj, m in at_potential.items():
            m &= ~cols  # the unreached real columns of potential zj
            for yr, (f, u) in by_y.items():
                if f & m:
                    delta = min(delta, -yr - zj)
                if u & m:
                    delta = min(delta, 1 - yr - zj)
        for r in rows:
            y[r] += delta
        for j in reached_cols:
            z[j] -= delta

    residual = None  # built for the first row that has a candidate
    fixed = 0
    for r in range(n_rows):
        cands = tight[r] & ((1 << match_row[r]) - 1) & ~fixed
        if cands:
            if residual is None:
                residual = _Residual(tight, z, match_row, match_col)
            residual.rotate_smallest(r, cands, fixed)
        fixed |= 1 << match_row[r]

    pairs = [(r, c) for r, c in enumerate(match_row) if c < n_cols]
    return Matching(pairs, sum(unit[r] >> c & 1 for r, c in pairs))
