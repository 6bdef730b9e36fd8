"""Bipartite matching engines.

Two solvers over the same graph type: maximum-cardinality matching
(Hopcroft-Karp) and minimum-weight maximum-cardinality matching for
weights restricted to {0, 1}.  Missing (row, col) pairs mean an
unusable edge; they are represented by absence, never by a big finite
constant, so all arithmetic stays exact.

A graph is two row-bitmask patterns, and the solvers work on the masks
where they can.  Hopcroft-Karp can start from a given matching, runs its
first phase on the masks and expands adjacency lists only if a free row
still has an edge.  The weighted solver
works in pure Python integers, in three steps: Hopcroft-Karp on the
weight-0 edges; one successive-shortest-path step per row left free,
over reduced costs with row and column potentials, which builds the
cost rows it visits and no others; and a tie-break that walks the rows
in ascending order and moves each onto its smallest column lying on a
zero-reduced-cost alternating cycle of the current optimum.  The tie-break
keeps the tight edges as masks: a row with no tight column below its
own outside the fixed ones costs one mask test, and any other row one
reverse breadth-first search on masks over the residual graph.  It
returns a canonical optimum: among all matchings with maximum
cardinality and minimum total weight, the one whose sorted (row, col)
pair sequence is lexicographically smallest.  That makes placement
output reproducible across platforms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

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


def _hopcroft_karp(
    adj: Sequence[Sequence[int]], n_cols: int, match_row=None, match_col=None
) -> tuple[list, list]:
    """Match rows to columns; returns match_row and match_col (-1: unmatched).

    Phased BFS/DFS, O(E sqrt(V)), from the given matching or an empty one
    (the lists are updated in place).  Deterministic: rows and adjacency
    are scanned in ascending order.
    """
    n_rows = len(adj)
    if match_row is None:
        match_row, match_col = [-1] * n_rows, [-1] * n_cols
    dist = [0] * n_rows

    while True:
        q = deque()
        for r in range(n_rows):
            if match_row[r] == -1:
                dist[r] = 0
                q.append(r)
            else:
                dist[r] = -1
        reachable_free = False
        while q:
            r = q.popleft()
            for c in adj[r]:
                r2 = match_col[c]
                if r2 == -1:
                    reachable_free = True
                elif dist[r2] == -1:
                    dist[r2] = dist[r] + 1
                    q.append(r2)
        if not reachable_free:
            break
        for r in range(n_rows):
            if match_row[r] == -1:
                _augment(r, adj, match_row, match_col, dist)
    return match_row, match_col


def _max_matching_rows(pattern: Pattern, start: Iterable = ()) -> tuple[list, list]:
    """Hopcroft-Karp on a pattern's rows and columns; returns match_row and match_col.

    A pair of ``start`` is kept if it is an edge sharing no row or column
    with a pair kept before it.  Then every row still free in turn takes
    its smallest free column, on the masks; the adjacency lists are
    expanded, for the later phases, only if a free row still has an edge.
    """
    match_row = [-1] * pattern.nrows
    match_col = [-1] * pattern.ncols
    taken = 0
    for r, c in start:
        is_edge = 0 <= r < pattern.nrows and c >= 0 and pattern.rows[r] >> c & 1
        if is_edge and match_row[r] == -1 and match_col[c] == -1:
            match_row[r] = c
            match_col[c] = r
            taken |= 1 << c
    for r, m in enumerate(pattern.rows):
        avail = m & ~taken
        if avail and match_row[r] == -1:
            low = avail & -avail
            c = low.bit_length() - 1
            match_row[r] = c
            match_col[c] = r
            taken |= low
    if any(c == -1 and m for c, m in zip(match_row, pattern.rows)):
        _hopcroft_karp(pattern.row_columns(), pattern.ncols, match_row, match_col)
    return match_row, match_col


def _augment(root, adj, match_row, match_col, dist) -> bool:
    # iterative layered DFS; flips the augmenting path on success
    stack = [(root, 0)]
    cols_path: list[int] = []
    while stack:
        r, pos = stack[-1]
        advanced = False
        row_adj = adj[r]
        while pos < len(row_adj):
            c = row_adj[pos]
            pos += 1
            r2 = match_col[c]
            if r2 == -1:
                cols_path.append(c)
                for (rr, _), cc in zip(stack, cols_path):
                    match_row[rr] = cc
                    match_col[cc] = rr
                return True
            if dist[r2] == dist[r] + 1:
                stack[-1] = (r, pos)
                stack.append((r2, 0))
                cols_path.append(c)
                advanced = True
                break
        if advanced:
            continue
        dist[r] = -1  # dead end for this phase
        stack.pop()
        if cols_path:
            cols_path.pop()
    return False


def max_matching(graph: WeightedBipartite) -> Matching:
    """Maximum-cardinality matching; weights are ignored for the search.

    O(E sqrt(V)) Hopcroft-Karp.  The reported total weight sums the graph
    weights of the chosen pairs.
    """
    match_row, _ = _max_matching_rows(graph._support())
    pairs = [(r, c) for r, c in enumerate(match_row) if c != -1]
    return Matching(pairs, sum(graph.unit.rows[r] >> c & 1 for r, c in pairs))


def _match_cheapest(s, cost, y, z, match_row, match_col) -> None:
    """Match free row ``s`` along a cheapest alternating path.

    One successive-shortest-path step: Dijkstra over the reduced costs
    ``cost - y - z``, which the potentials keep non-negative, from ``s``
    to the nearest free column; row ``s``'s own slack column is always
    free, so one is found.  Each node reached closer than the path's
    length D, at distance d, then moves by D - d (row potentials up,
    column potentials down), which keeps the potentials feasible and
    makes the path tight before it is flipped.
    """
    dist: dict = {}  # settled column -> distance from s
    best: dict = {}  # column -> tentative distance
    via: dict = {}  # column -> the row it was reached from
    reached = [(s, 0)]  # rows with their distance, s first
    heap: list = []
    i, d = s, 0
    while True:
        yi, own = y[i], match_row[i]
        for j, w in cost[i].items():
            if j == own or j in dist:
                continue
            nd = d + w - yi - z[j]
            if nd < best.get(j, nd + 1):
                best[j] = nd
                via[j] = i
                heappush(heap, (nd, j))
        d, j = heappop(heap)
        while j in dist:  # stale entry of a column settled earlier
            d, j = heappop(heap)
        dist[j] = d
        i = match_col[j]
        if i == -1:
            break
        reached.append((i, d))
    for i, di in reached:
        y[i] += d - di
    for j, dj in dist.items():
        z[j] -= d - dj
    while True:
        i = via[j]
        j_next = match_row[i]
        match_row[i] = j
        match_col[j] = i
        if i == s:
            return
        j = j_next


class _RowCosts(dict):
    """Row -> {column: weight} of a graph with slack columns, built on first read.

    Row r's weight-0 and weight-1 edges, plus its slack column
    ``n_cols + r`` at cost ``slack``.
    """

    def __init__(self, graph: WeightedBipartite, slack: int):
        super().__init__()
        self.graph, self.slack = graph, slack

    def __missing__(self, r):
        graph = self.graph
        row = dict.fromkeys(set_bits(graph.free.rows[r], graph.n_cols), 0)
        row.update(dict.fromkeys(set_bits(graph.unit.rows[r], graph.n_cols), 1))
        row[graph.n_cols + r] = self.slack
        self[r] = row
        return row


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
    maximum matching of minimum weight.  It is found in three steps:

    1. Hopcroft-Karp on the weight-0 edges, optimal for the rows it
       matches with all potentials at 0;
    2. one successive-shortest-path step (Dijkstra on reduced costs) per
       row left free, keeping the row and column potentials;
    3. the canonical tie-break: rows in ascending order, each takes the
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
    sequence.  The potentials stay an optimal dual throughout step 3, so
    its tight sets are computed once.
    """
    n_rows, n_cols = graph.n_rows, graph.n_cols
    slack = min(n_rows, n_cols) + 1
    free, unit = graph.free.rows, graph.unit.rows
    cost = _RowCosts(graph, slack)  # read by step 2 only

    match_row, match_col = _max_matching_rows(graph.free)
    match_col += [-1] * n_rows  # the slack columns
    y = [0] * n_rows
    z = [0] * (n_cols + n_rows)
    for r in range(n_rows):
        if match_row[r] == -1:
            _match_cheapest(r, cost, y, z, match_row, match_col)

    at_potential: dict = {}  # potential -> mask of the real columns that have it
    for j in range(n_cols):
        at_potential[z[j]] = at_potential.get(z[j], 0) | 1 << j
    tight = [
        free[r] & at_potential.get(-y[r], 0)
        | unit[r] & at_potential.get(1 - y[r], 0)
        | (y[r] + z[n_cols + r] == slack) << (n_cols + r)  # row r's slack column
        for r in range(n_rows)
    ]

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
