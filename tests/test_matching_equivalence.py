"""``min_weight_max_matching`` against the assignment-solver path it replaced.

The reference (``reference_matching``) re-solves a scipy assignment once
per candidate edge.  Both must return the same canonical optimum, and
``fracplace place`` must print the same bytes with either one in place
of the row-mask engine ``minimal_sensors`` calls.
"""

import contextlib
import io

import numpy as np
import pytest

import fracplace.placement
from fracplace import (
    Pattern,
    WeightedBipartite,
    condense,
    min_weight_max_matching,
    sink_scc_columns,
    transition_union,
)
from fracplace.cli import main

from conftest import placement_graph, random_pattern
from reference_matching import reference_min_weight_max_matching


def random_weighted_graph(rng, max_rows, max_cols, shape):
    """Random graph; ``shape`` picks where the weight-1 edges go.

    "edge": each edge on its own; "column": whole columns; "placement":
    only the trailing (indicator) columns, as in a placement graph.
    """
    rows = int(rng.integers(1, max_rows + 1))
    cols = int(rng.integers(1, max_cols + 1))
    density = rng.uniform(0.02, 0.5)
    one_frac = rng.uniform(0.0, 1.0)
    heavy_col = rng.random(cols) < one_frac
    indicators = int(rng.integers(0, cols // 3 + 1))
    edges = []
    for r in range(rows):
        for c in range(cols):
            if rng.random() >= density:
                continue
            if shape == "edge":
                w = rng.random() < one_frac
            elif shape == "column":
                w = heavy_col[c]
            else:
                w = c >= cols - indicators
            edges.append((r, c, int(w)))
    return WeightedBipartite(rows, cols, edges)


def assert_same_optimum(graph):
    got = min_weight_max_matching(graph)
    want = reference_min_weight_max_matching(graph)
    assert sorted(got.pairs) == sorted(want.pairs)
    assert got.total_weight == want.total_weight


@pytest.mark.parametrize("shape", ["edge", "column", "placement"])
def test_small_graphs(shape):
    rng = np.random.default_rng({"edge": 11, "column": 12, "placement": 13}[shape])
    for _ in range(300):
        assert_same_optimum(random_weighted_graph(rng, 8, 10, shape))


@pytest.mark.parametrize("shape", ["edge", "column", "placement"])
def test_graphs_up_to_40_by_60(shape):
    rng = np.random.default_rng({"edge": 21, "column": 22, "placement": 23}[shape])
    for _ in range(40):
        assert_same_optimum(random_weighted_graph(rng, 40, 60, shape))


def test_placement_graphs():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        pattern = random_pattern(rng, n, rng.uniform(0.01, 0.3))
        horizon = int(rng.integers(0, n + 1))
        union = transition_union(pattern, horizon)
        assert_same_optimum(placement_graph(union.transpose(), sink_scc_columns(condense(union))))


def place_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def write_pattern_file(path, pattern, horizon):
    lines = ["fracsys 1", f"n {pattern.nrows}", "alpha 0.8", f"k {horizon}", "matrix pattern"]
    lines += [f"{r + 1} {c + 1}" for r, c in sorted(pattern.entries)]
    path.write_text("\n".join(lines + ["end"]) + "\n")
    return str(path)


def test_place_output_is_byte_identical(tmp_path, monkeypatch):
    # giant-SCC patterns, fragmented patterns near the giant-component
    # threshold (density 1/n), and sparse ones with many sink SCCs
    rng = np.random.default_rng(41)
    corpus = []
    for i in range(4):
        for label, n, density in (("giant", 24, 0.2), ("fragmented", 48, 1 / 48), ("sparse", 40, 0.01)):
            pattern = random_pattern(rng, n, density)
            for horizon in (n, 0):
                path = write_pattern_file(tmp_path / f"{label}-{i}-{horizon}.fsys", pattern, horizon)
                corpus.append(["place", path])
    corpus += [argv + ["--strict-j3"] for argv in corpus[:6]]
    corpus += [argv + ["--format", "csv"] for argv in corpus[:6]]

    new = [place_output(argv) for argv in corpus]
    calls = []

    def reference_rows(free, unit, n_cols):
        # the scipy reference on the placement's masks: mask -> graph -> match_row
        n = len(free)
        weighted = enumerate((free, unit))
        edges = [(r, c, w) for w, masks in weighted for r, c in Pattern.from_masks(n, n_cols, masks).entries]
        graph = WeightedBipartite(n, n_cols, edges)
        match_row = [-1] * n
        for r, c in reference_min_weight_max_matching(graph).pairs:
            match_row[r] = c
        calls.append(n)
        return match_row

    monkeypatch.setattr(fracplace.placement, "_min_weight_max_matching_rows", reference_rows)
    assert [place_output(argv) for argv in corpus] == new
    assert len(calls) == len(corpus)
