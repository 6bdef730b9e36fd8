"""Three earlier canonical tie-breaks of ``min_weight_max_matching``, kept as test oracles.

``min_weight_max_matching`` below finds an optimum in two steps:
Hopcroft-Karp on the weight-0 edges, then one shortest-path step per
free row (``_match_cheapest``, a heap Dijkstra over per-row cost dicts,
which :mod:`fracplace.matching` used until its dual rounds replaced it).
Step 3 searches the residual graph once per candidate column of every
row, depth first, until a zero-reduced-cost alternating cycle through it
turns up: the searches that fail make it O(n E).  That code is the
earlier ``min_weight_max_matching``, its ``_tight_cycle`` and
``_match_cheapest``, unchanged.

``residual_tie_break`` takes the tight masks, column potentials and
optimum of the library's dual rounds, and moves the optimum onto the
canonical one as :mod:`fracplace.matching` did before its tie-break ran
on ``_layers``: one hand-written reverse breadth-first search per row
with a candidate, over the residual graph held by ``_Residual``.  The
class and the loop that drives it are unchanged; the loop only gained
its ``def`` line and ``n_rows``.

``reverse_tie_break`` is the library's ``_tie_break`` from the time it
ran ``_layers`` backward: from each row's column, on the transposed
tight masks, with a ``takers`` list (column -> the nodes that can take
it) and a sink pseudo-column appended to ``match_row``.  It is unchanged
but for its name; ``_layers`` still starts with nothing seen by default.
"""

from heapq import heappop, heappush

from fracplace.matching import Matching, WeightedBipartite, _layers
from fracplace.structure import Pattern, set_bits

from reference_hopcroft_karp import _hopcroft_karp


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


def residual_tie_break(tight, z, match_row, match_col) -> None:
    """The canonical tie-break on one ``_Residual``, rotating in place."""
    n_rows = len(tight)
    residual = None  # built for the first row that has a candidate
    fixed = 0
    for r in range(n_rows):
        cands = tight[r] & ((1 << match_row[r]) - 1) & ~fixed
        if cands:
            if residual is None:
                residual = _Residual(tight, z, match_row, match_col)
            residual.rotate_smallest(r, cands, fixed)
        fixed |= 1 << match_row[r]


def reverse_tie_break(tight, z, match_row, match_col) -> None:
    """Move the optimum in ``match_row`` and ``match_col`` onto the canonical one.

    Rows in ascending order each take their smallest candidate, a tight
    column below their own and not fixed, through which a zero-reduced-cost
    alternating cycle of the current optimum runs; the cycle is rotated
    in and the row's column is fixed.  The cycles are those of the
    residual graph (Regin 1994).  Its nodes are the rows and a sink
    pseudo-row that holds the free columns.  Node x can take a column
    that is not fixed if it is tight for x or, for the sink, if its
    potential is 0: an alternative optimum may take a free column and
    leave one of those, while a column of negative potential is matched
    in every optimum (complementary slackness).  A row can take the
    sink's pseudo-column if it has a tight free column.  Edge (r, c)
    closes a cycle iff the owner of c, or the sink when c is free, can
    reach r: take r's column, or the column of a node that can.

    The nodes that can reach r are the layers of ``_layers`` run from r's
    column on the transposed tight masks, with ``match_row``, extended by
    the sink's pseudo-column, as the node -> column map.  The search
    stops at the owner of the smallest candidate; otherwise the smallest
    candidate whose owner it reached wins.  The cycle is read back up the
    layers.  The transposed masks are built for the first row with a
    candidate, and the sink's pseudo-column again after each rotation
    that changes the free columns.
    """
    n_rows, width = len(tight), len(z)
    sink = n_rows
    match_row.append(width)  # the sink's pseudo-column, popped at the end
    takers = None  # column -> the nodes that can take it; None when not built
    fixed = 0
    for r in range(n_rows):
        cands = tight[r] & ((1 << match_row[r]) - 1) & ~fixed
        if cands:
            if takers is None:
                col_rows = Pattern.from_masks(n_rows, width, tight).transpose().rows
                takers = [m | (zj == 0) << sink for m, zj in zip(col_rows, z)] + [None]
                for j in set_bits(fixed, width):
                    takers[j] = 0
                free = sum(1 << j for j, i in enumerate(match_col) if i == -1)
            if takers[width] is None:  # the rows with a tight free column
                preds = 0
                for j in set_bits(free, width):
                    preds |= takers[j]
                takers[width] = preds & ~(1 << sink)
            cols = set_bits(cands, width)
            owners = [sink if match_col[c] == -1 else match_col[c] for c in cols]
            layers = _layers(takers, [match_row[r]], match_row, 1 << owners[0], sink + 1)
            reach = 0
            for layer in layers:
                reach |= layer
            won = next(((c, x) for c, x in zip(cols, owners) if reach >> x & 1), None)
            if won:
                c, x = won
                cycle = [(r, c)]  # (node, the column it moves to)
                depth = next(d for d, layer in enumerate(layers) if layer >> x & 1)
                for layer in reversed(layers[:depth]):  # x takes its parent's column
                    nodes = set_bits(layer, sink + 1)
                    parent = next(p for p in nodes if takers[match_row[p]] >> x & 1)
                    # from the sink: x's lowest tight free column
                    j = tight[x] & free if parent == sink else 1 << match_row[parent]
                    cycle.append((x, (j & -j).bit_length() - 1))
                    x = parent
                cycle.append((x, match_row[r]))
                for node, j in cycle:
                    if node == sink or match_col[j] == -1:  # j joins or leaves the free columns
                        free ^= 1 << j
                        takers[width] = None
                    if node == sink:
                        match_col[j] = -1
                    else:
                        match_row[node] = j
                        match_col[j] = node
        fixed |= 1 << match_row[r]
        if takers is not None:
            takers[match_row[r]] = 0
    match_row.pop()
