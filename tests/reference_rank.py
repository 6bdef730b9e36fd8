"""The generic-rank routine that the placement self-check used to call.

Kept as a test oracle: it matches the horizontal concatenation of the
given patterns from scratch, with no starting matching, so condition (ii)
as ``placement._certify`` now decides it can be checked against the
paper's definition, the rank of the transposed union beside one identity
column per sensor.
"""

from __future__ import annotations

from typing import Sequence

from fracplace import Pattern
from fracplace.matching import _max_matching_rows


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
    match_row, _ = _max_matching_rows(rows, offset)
    return sum(c != -1 for c in match_row)
