"""The list-based Hopcroft-Karp that ``_max_matching_rows`` ran after its first phase, kept as a test oracle.

``_hopcroft_karp`` expands a pattern into per-row column lists and runs
phased breadth-first and depth-first searches on them, from a given
matching or an empty one.  The code below is the earlier
``fracplace.matching._hopcroft_karp`` and its ``_augment``, unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


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
