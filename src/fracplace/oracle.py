"""Independent brute-force and randomized oracles used by the test suite.

Nothing here shares code paths with the engines it checks: placements are
found by subset enumeration over the declarative observability check,
matchings by complete enumeration, and numeric claims by instantiating
random values on a pattern's support.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import _EXPORTS
from .matching import Matching, WeightedBipartite
from .placement import verify_observability
from .structure import Pattern, _at_least, _square, _Value, set_bits

__all__ = list(_EXPORTS["oracle"])

_MAX_EXHAUSTIVE_STATES = 16
_MAX_ENUMERATION_ROWS = 8


class RealizationConfig(_Value):
    """How random numeric realizations are drawn.

    Magnitudes are uniform in ``magnitude_range`` (bounded away from zero
    so genericity survives double precision), signs are random unless
    ``random_signs`` is False, and fractional orders are uniform in
    ``order_range`` with integers rejected.  Both ranges are stored as
    pairs of floats, and ``seed``, which must be >= 0, is taken through
    ``operator.index``: a float raises TypeError, and so does a
    ``random_signs`` that is not a bool.
    """

    _fields = ("magnitude_range", "random_signs", "order_range", "seed")
    magnitude_range: tuple
    random_signs: bool
    order_range: tuple
    seed: int

    def __init__(
        self,
        magnitude_range: tuple = (0.5, 1.5),
        random_signs: bool = True,
        order_range: tuple = (0.9, 1.3),
        seed: int = 0,
    ):
        lo, hi = magnitude_range
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo <= hi):
            raise ValueError("magnitude range must be finite with 0 < low <= high")
        a, b = order_range
        if not (np.isfinite(a) and np.isfinite(b) and 0 < a <= b):
            raise ValueError("order range must be finite with 0 < low <= high")
        if not isinstance(random_signs, bool):
            raise TypeError(f"random_signs must be a bool, got {type(random_signs).__name__}")
        seed = _at_least(seed, 0, "seed must be >= 0")
        magnitude_range, order_range = (float(lo), float(hi)), (float(a), float(b))
        super().__init__(magnitude_range, random_signs, order_range, seed)


def random_realization(
    pattern: Pattern, cfg: RealizationConfig, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Random matrix supported exactly on the pattern's entries.

    Reproducible from the config seed; pass ``rng`` to draw several
    realizations from one stream.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    M = np.zeros((pattern.nrows, pattern.ncols))
    positions = sorted(pattern.entries)
    if positions:
        lo, hi = cfg.magnitude_range
        values = rng.uniform(lo, hi, size=len(positions))
        if cfg.random_signs:
            values *= rng.choice((-1.0, 1.0), size=len(positions))
        for (r, c), v in zip(positions, values):
            M[r, c] = v
    return M


def draw_orders(
    n: int, cfg: RealizationConfig, rng: np.random.Generator | None = None
) -> np.ndarray:
    """n random non-integer fractional orders from the configured range.

    ``n`` must be >= 0 and is taken through ``operator.index``: a float
    raises TypeError.
    """
    n = _at_least(n, 0, "n must be >= 0")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    a, b = cfg.order_range
    alpha = rng.uniform(a, b, size=n)
    while True:
        near_int = np.abs(alpha - np.round(alpha)) < 1e-9
        if not near_int.any():
            return alpha
        alpha[near_int] = rng.uniform(a, b, size=int(near_int.sum()))


def exhaustive_min_placement(pattern: Pattern, horizon: int):
    """(minimum size, witness) dedicated sensor set by subset enumeration.

    Scans subsets in increasing cardinality and, within a cardinality, in
    lexicographic order, so the witness is the lexicographically first
    passing set; the set of all n states always passes.  Refuses more
    than 16 states.
    """
    n = _square(pattern, "placement search")
    if n > _MAX_EXHAUSTIVE_STATES:
        raise ValueError(f"exhaustive search refused for n={n} > {_MAX_EXHAUSTIVE_STATES}")
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            if verify_observability(pattern, horizon, subset).observable:
                return size, frozenset(subset)


def enumerate_matchings(graph: WeightedBipartite) -> list[Matching]:
    """All maximal matchings (no edge can be added), with weights.

    Complete enumeration; certifies the optimizing engines on small
    graphs.  Refuses more than 8 row vertices.
    """
    if graph.n_rows > _MAX_ENUMERATION_ROWS:
        raise ValueError(
            f"enumeration refused for {graph.n_rows} rows > {_MAX_ENUMERATION_ROWS}"
        )
    unit = graph.unit.rows
    adj = [set_bits(a | b, graph.n_cols) for a, b in zip(graph.free.rows, unit)]
    edges = [(r, c) for r, cols in enumerate(adj) for c in cols]
    out: list[Matching] = []

    def maximal(rows_used: set, cols_used: set) -> bool:
        return all(r in rows_used or c in cols_used for r, c in edges)

    def extend(r: int, rows_used: set, cols_used: set, pairs: list):
        if r == graph.n_rows:
            if maximal(rows_used, cols_used):
                out.append(Matching(pairs, sum(unit[i] >> c & 1 for i, c in pairs)))
            return
        for c in adj[r]:
            if c not in cols_used:
                rows_used.add(r)
                cols_used.add(c)
                pairs.append((r, c))
                extend(r + 1, rows_used, cols_used, pairs)
                pairs.pop()
                cols_used.discard(c)
                rows_used.discard(r)
        extend(r + 1, rows_used, cols_used, pairs)  # leave row r unmatched

    extend(0, set(), set(), [])
    return out
