"""The Hungarian rounds that keep their state, against the rounds that rebuilt it.

``_min_weight_max_matching_rows`` keeps its tight masks and its columns
grouped by potential from round to round, and after a dual step updates
only what the step moved.  ``rebuilt_min_weight_max_matching_rows``
(``reference_matching``) rebuilds both from the potentials every round.
On random rectangular graphs and on the placement graphs of the golden
CLI corpus, the two must return the same ``match_row``, start every
round's Hopcroft-Karp from the same pairs on the same tight masks, and
hand the tie-break the same tight masks and the same columns the sink
may take, every slack column among them.  Every potential the output
depends on is read through one of these: a round's tight masks, or the
tie-break's mask of potential-0 columns.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import fracplace.placement
import reference_matching
from fracplace import matching, minimal_sensors, parse_system_file

from reference_matching import rebuilt_min_weight_max_matching_rows

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


@pytest.fixture
def both(monkeypatch):
    """Run both engines on (free, unit, n_cols); return the library's round count."""
    handed = []
    rounds = {"library": [], "oracle": []}  # each round's (tight masks, start pairs)
    tie_break = matching._tie_break
    max_matching_rows = matching._max_matching_rows

    def captured(tight, zero, match_row, match_col):
        handed.append((list(tight), zero))
        tie_break(tight, zero, match_row, match_col)

    def recorded(engine):
        def run(rows, width, start):
            start = [(r, c) for r, c in start if c != -1]
            rounds[engine].append((list(rows), start))
            return max_matching_rows(rows, width, start)

        return run

    monkeypatch.setattr(matching, "_tie_break", captured)
    monkeypatch.setattr(matching, "_max_matching_rows", recorded("library"))
    monkeypatch.setattr(reference_matching, "_max_matching_rows", recorded("oracle"))

    def run(free, unit, n_cols):
        handed.clear()
        for seen in rounds.values():
            seen.clear()
        got = matching._min_weight_max_matching_rows(free, unit, n_cols)
        want = rebuilt_min_weight_max_matching_rows(free, unit, n_cols)
        assert got == want
        assert rounds["library"] == rounds["oracle"]
        (tight, zero), (want_tight, want_zero) = handed
        assert tight == want_tight
        assert zero == want_zero
        assert zero >> n_cols == (1 << len(free)) - 1  # every slack column
        return len(rounds["library"])

    return run


def random_rows(rng, max_rows, max_cols):
    """Random weight-0 and weight-1 row masks, with empty rows and columns and all-unit rows."""
    n_rows = int(rng.integers(0, max_rows + 1))
    n_cols = int(rng.integers(0, max_cols + 1))
    edge = rng.random((n_rows, n_cols)) < rng.uniform(0.05, 0.6)
    edge[rng.random(n_rows) < 0.2, :] = False  # empty rows
    edge[:, rng.random(n_cols) < 0.2] = False  # empty columns
    heavy = rng.random((n_rows, n_cols)) < rng.uniform(0.0, 1.0)
    heavy[rng.random(n_rows) < 0.2, :] = True  # all-unit rows
    free, unit = [], []
    for r in range(n_rows):
        free.append(sum(1 << c for c in range(n_cols) if edge[r, c] and not heavy[r, c]))
        unit.append(sum(1 << c for c in range(n_cols) if edge[r, c] and heavy[r, c]))
    return free, unit, n_cols


@pytest.mark.parametrize("max_rows, max_cols, count", [(8, 8, 1500), (40, 60, 150)])
def test_random_rectangular_graphs(both, max_rows, max_cols, count):
    rng = np.random.default_rng(max_rows)
    rounds = {both(*random_rows(rng, max_rows, max_cols)) for _ in range(count)}
    assert max(rounds) >= 3  # dual steps after the first one ran


def test_golden_corpus_placement_graphs(both, monkeypatch):
    graphs = []
    engine = fracplace.placement._min_weight_max_matching_rows

    def captured(*args):
        graphs.append(args)
        return engine(*args)

    monkeypatch.setattr(fracplace.placement, "_min_weight_max_matching_rows", captured)
    files = json.loads(GOLDEN.read_text())["files"]
    for text in files.values():
        sysfile = parse_system_file(text)
        for horizon in (sysfile.n, 2, 0):
            minimal_sensors(sysfile.pattern_at(), horizon)
    assert len(graphs) == 3 * len(files)
    assert max(both(*args) for args in graphs) >= 3
