"""Bipartite matching engines.

Two solvers over the same graph type: maximum-cardinality matching
(Hopcroft-Karp) and minimum-weight maximum-cardinality matching for
weights restricted to {0, 1}.  Missing (row, col) pairs mean an
unusable edge; they are represented by absence, never by a big finite
constant, so all arithmetic stays exact.

The weighted solver works in pure Python integers, in three steps:
Hopcroft-Karp on the weight-0 edges; one successive-shortest-path step
per row left free, over reduced costs with row and column potentials;
and a tie-break that walks the rows in ascending order and moves each
onto its smallest column lying on a zero-reduced-cost alternating cycle
of the current optimum.  It returns a canonical optimum: among all
matchings with maximum cardinality and minimum total weight, the one
whose sorted (row, col) pair sequence is lexicographically smallest.
That makes placement output reproducible across platforms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .structure import Pattern

__all__ = [
    "WeightedBipartite",
    "Matching",
    "max_matching",
    "min_weight_max_matching",
    "generic_rank",
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

    def adjacency(self) -> list[list[int]]:
        """Per-row sorted column lists (weights dropped)."""
        rows = [a | b for a, b in zip(self.free.rows, self.unit.rows)]
        return Pattern.from_masks(self.n_rows, self.n_cols, rows).row_columns()

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


def _hopcroft_karp(adj: Sequence[Sequence[int]], n_cols: int) -> tuple[list, list]:
    """Match rows to columns; returns match_row and match_col (-1: unmatched).

    Phased BFS/DFS, O(E sqrt(V)).  Deterministic: rows and adjacency are
    scanned in ascending order.
    """
    n_rows = len(adj)
    match_row = [-1] * n_rows
    match_col = [-1] * n_cols
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
    match_row, _ = _hopcroft_karp(graph.adjacency(), graph.n_cols)
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


def _tight_cycle(r, c, tight, optional, match_row, match_col, fixed, seen):
    """Arcs of a zero-reduced-cost alternating cycle through (r, c), or None.

    The residual digraph of the current optimum has an arc row -> column
    for every tight unmatched edge and column -> row for every matched
    one.  A free column leads to a sink pseudo-row (index ``len(tight)``)
    and the sink leads to every matched column of zero potential: an
    alternative optimum may take a free column and leave one of those,
    while a column of negative potential is matched in every optimum
    (complementary slackness).
    Rows (and the sink) found unable to reach ``r`` are marked
    ``seen[node] == r`` and not searched again for ``r``.
    """
    sink = len(tight)
    path = [(r, c)]  # path[k] is the arc into stack[k]
    owner = match_col[c]
    first = sink if owner == -1 else owner
    if seen[first] == r:
        return None
    seen[first] = r
    stack = [[first, 0]]
    while stack:
        frame = stack[-1]
        node, pos = frame
        if node == sink:
            cols, own = optional, -1
        else:
            cols, own = tight[node], match_row[node]
        while pos < len(cols):
            j = cols[pos]
            pos += 1
            if j == own or fixed[j]:
                continue
            owner = match_col[j]
            if owner == -1:
                if node == sink:  # the sink only frees matched columns
                    continue
                owner = sink
            elif owner == r:
                path.append((node, j))
                return path
            if seen[owner] != r:
                seen[owner] = r
                frame[1] = pos
                path.append((node, j))
                stack.append([owner, 0])
                break
        else:
            stack.pop()
            path.pop()
    return None


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
       are fixed.

    The result is the lexicographically smallest optimal sorted pair
    sequence.  The potentials stay an optimal dual throughout step 3, so
    its residual graph is built once.
    """
    n_rows, n_cols = graph.n_rows, graph.n_cols
    slack = min(n_rows, n_cols) + 1
    zero_adj = graph.free.row_columns()
    cost = [dict.fromkeys(cols, 0) for cols in zero_adj]
    for r, cols in enumerate(graph.unit.row_columns()):
        cost[r].update(dict.fromkeys(cols, 1))
        cost[r][n_cols + r] = slack  # row r left unmatched

    match_row, match_col = _hopcroft_karp(zero_adj, n_cols)
    match_col += [-1] * n_rows  # the slack columns
    y = [0] * n_rows
    z = [0] * (n_cols + n_rows)
    for r in range(n_rows):
        if match_row[r] == -1:
            _match_cheapest(r, cost, y, z, match_row, match_col)

    tight = [sorted(j for j, w in cost[r].items() if w == y[r] + z[j]) for r in range(n_rows)]
    optional = [j for j, zj in enumerate(z) if zj == 0]
    fixed = [False] * len(z)
    seen = [-1] * (n_rows + 1)
    for r in range(n_rows):
        for c in tight[r]:
            if c == match_row[r]:
                break
            if fixed[c]:
                continue
            cycle = _tight_cycle(r, c, tight, optional, match_row, match_col, fixed, seen)
            if cycle is not None:
                for node, j in cycle:
                    if node == n_rows:  # the sink leaves column j
                        match_col[j] = -1
                for node, j in cycle:
                    if node != n_rows:
                        match_row[node] = j
                        match_col[j] = node
                break
        fixed[match_row[r]] = True

    pairs = [(r, c) for r, c in enumerate(match_row) if c < n_cols]
    return Matching(pairs, sum(cost[r][c] for r, c in pairs))


def generic_rank(patterns: Sequence[Pattern], extra_cols: Pattern | None = None) -> int:
    """Generic rank of the horizontal concatenation of structured matrices.

    Equals the maximum-cardinality matching of the concatenation's
    bipartite graph (rows vs. all columns); appending columns can only
    increase it.
    """
    pats = list(patterns)
    if extra_cols is not None:
        pats.append(extra_cols)
    if not pats:
        return 0
    n_rows = pats[0].nrows
    rows = [0] * n_rows
    offset = 0
    for p in pats:
        if p.nrows != n_rows:
            raise ValueError(
                f"row-count mismatch: {p.nrows} vs {n_rows} in concatenation"
            )
        for r, m in enumerate(p.rows):
            rows[r] |= m << offset
        offset += p.ncols
    adj = Pattern.from_masks(n_rows, offset, rows).row_columns()
    return sum(c != -1 for c in _hopcroft_karp(adj, offset)[0])
