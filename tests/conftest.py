import operator

import numpy as np
import pytest

from fracplace import Pattern, WeightedBipartite


def random_pattern(rng: np.random.Generator, n: int, density: float) -> Pattern:
    """Uniform random square pattern with round(density * n^2) entries."""
    total = n * n
    count = min(int(round(density * total)), total)
    if count == 0:
        return Pattern(n, n)
    flat = rng.choice(total, size=count, replace=False)
    return Pattern(n, n, ((int(p) // n, int(p) % n) for p in flat))


def identity_columns(n: int, cols) -> Pattern:
    """The n x |cols| selector pattern with one entry per chosen state, in ascending order."""
    ordered = sorted(set(map(operator.index, cols)))
    for c in ordered:
        if not (0 <= c < n):
            raise ValueError(f"state index {c} outside 0..{n - 1}")
    return Pattern(n, len(ordered), ((s, j) for j, s in enumerate(ordered)))


def pattern_array(pattern: Pattern, dtype=float) -> np.ndarray:
    """The pattern as a 0/1 array of its shape."""
    a = np.zeros((pattern.nrows, pattern.ncols), dtype=dtype)
    for r, cols in enumerate(pattern.row_columns()):
        a[r, cols] = 1
    return a


def graph_edges(graph: WeightedBipartite) -> frozenset:
    """The (row, col, weight) triples of a weighted bipartite graph."""
    weighted = enumerate((graph.free, graph.unit))
    return frozenset((r, c, w) for w, p in weighted for r, c in p.entries)


@pytest.fixture
def chain3() -> Pattern:
    """Three-state chain x0 -> x1 -> x2 (entry (i, j) means edge j -> i)."""
    return Pattern(3, 3, [(1, 0), (2, 1)])


def placement_graph(union_t: Pattern, sink_cols: Pattern) -> WeightedBipartite:
    """The placement's matching graph, as ``minimal_sensors`` hands it to the weighted engine.

    Row i is column i of the union (weight 0), then its sink-SCC indicator
    columns (weight 1), shifted past the n union columns.
    """
    n = union_t.nrows
    edges = [(r, c, 0) for r, c in union_t.entries] + [(r, n + c, 1) for r, c in sink_cols.entries]
    return WeightedBipartite(n, n + sink_cols.ncols, edges)
