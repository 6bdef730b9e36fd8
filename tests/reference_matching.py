"""Two earlier paths of ``min_weight_max_matching``, kept as test oracles.

``reference_min_weight_max_matching`` is the assignment-solver path the
row-mask engine replaced: one scipy assignment per (cardinality, weight)
optimum, and pairs forced greedily in ascending (row, col) order, each
kept exactly when the rest of the graph still reaches the optimum.  It
re-solves once per candidate edge, so it is only fit for test sizes.

``rebuilt_min_weight_max_matching_rows`` is the library's
``_min_weight_max_matching_rows`` from before its Hungarian rounds kept
their state: every round rebuilds the potential -> columns table and
every row's tight mask from the potentials, and reads a slack column's
tight edge off its own z.  It is unchanged but for its name, for
calling ``matching._tie_break`` through the module, so that a test can
capture what each engine hands the tie-break, and for handing it the
mask of the columns of potential 0, scanned off its own z, which the
tie-break once scanned itself.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from fracplace import Matching, WeightedBipartite, matching
from fracplace.matching import _layers, _max_matching_rows
from fracplace.structure import set_bits

from conftest import graph_edges


def _optimum(rows, cols, weights, n_rows, n_cols):
    """(cardinality, weight) of a min-weight max-cardinality matching.

    Reduction to a full row assignment: every row gets one finite slack
    column with cost L = min(n_rows, n_cols) + 2, and real edge costs are
    shifted to w + 1 (sparse storage cannot hold explicit zeros).  Since
    any real matching weight is at most min(n_rows, n_cols) < L - 1, the
    assignment optimum maximizes cardinality first, then minimizes real
    weight; both adjustments cancel exactly in integer arithmetic.
    """
    m = len(rows)
    if n_rows == 0 or m == 0:
        return 0, 0
    big = min(n_rows, n_cols) + 2
    data = np.concatenate([np.asarray(weights) + 1, np.full(n_rows, big)])
    r_ind = np.concatenate([np.asarray(rows), np.arange(n_rows)])
    c_ind = np.concatenate([np.asarray(cols), np.arange(n_rows) + n_cols])
    mat = csr_matrix(
        (data.astype(float), (r_ind, c_ind)), shape=(n_rows, n_cols + n_rows)
    )
    row_ind, col_ind = min_weight_full_bipartite_matching(mat)
    real = col_ind < n_cols
    card = int(np.count_nonzero(real))
    lookup = {(int(r), int(c)): int(w) for r, c, w in zip(rows, cols, weights)}
    total = sum(lookup[(int(r), int(c))] for r, c in zip(row_ind[real], col_ind[real]))
    return card, total


def reference_min_weight_max_matching(graph: WeightedBipartite) -> Matching:
    """Lexicographically smallest min-weight max-cardinality matching."""
    edges = sorted(graph_edges(graph))
    if not edges:
        return Matching((), 0)
    er = np.array([e[0] for e in edges])
    ec = np.array([e[1] for e in edges])
    ew = np.array([e[2] for e in edges])
    n_rows, n_cols = graph.n_rows, graph.n_cols

    best_card, best_weight = _optimum(er, ec, ew, n_rows, n_cols)
    if best_card == 0:
        return Matching((), 0)

    order = np.arange(len(edges))
    free_row = np.ones(n_rows, dtype=bool)
    free_col = np.ones(n_cols, dtype=bool)
    forced: list[tuple] = []
    need_card, need_weight = best_card, best_weight
    for t, (r, c, w) in enumerate(edges):
        if not (free_row[r] and free_col[c]):
            continue
        mask = (order > t) & free_row[er] & free_col[ec] & (er != r) & (ec != c)
        card, weight = _optimum(er[mask], ec[mask], ew[mask], n_rows, n_cols)
        if card == need_card - 1 and weight == need_weight - w:
            forced.append((r, c))
            free_row[r] = False
            free_col[c] = False
            need_card -= 1
            need_weight -= w
            if need_card == 0:
                break
    if need_card != 0:
        raise RuntimeError("tie-breaking failed to reconstruct the optimum")
    return Matching(forced, best_weight)


def rebuilt_min_weight_max_matching_rows(free, unit, n_cols: int) -> list:
    """``_min_weight_max_matching_rows`` with every round's tight masks rebuilt."""
    n_rows = len(free)
    width = n_cols + n_rows  # the real columns, then the slack ones
    slack = min(n_rows, n_cols) + 1
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
        match_row, match_col = _max_matching_rows(tight, width, pairs)
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

    zero = sum(1 << j for j, zj in enumerate(z) if zj == 0)  # the columns the sink may take
    matching._tie_break(tight, zero, match_row, match_col)
    return [c if c < n_cols else -1 for c in match_row]
