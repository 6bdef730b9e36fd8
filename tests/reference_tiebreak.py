"""The per-row tie-break that ``min_weight_max_matching`` used before, kept as a test oracle.

Steps 1 and 2 (Hopcroft-Karp, then one shortest-path step per free row)
are the same as in :mod:`fracplace.matching`.  Step 3 searches the
residual graph once per candidate column of every row, depth first,
until a zero-reduced-cost alternating cycle through it turns up: the
searches that fail make it O(n E).  The code below is the earlier
``min_weight_max_matching`` and its ``_tight_cycle``, unchanged.
"""

from fracplace.matching import Matching, WeightedBipartite, _hopcroft_karp, _match_cheapest


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
