"""The placement that matches out-degree-0 states itself, against the full engine.

A state with no out-edge is a sink SCC of its own whose one placement
edge goes to its indicator column, so ``minimal_sensors`` matches it
there and hands the weighted engine only the other rows.
``full_engine_minimal_sensors`` (``reference_placement``) hands the engine
every row.  Both must give equal reports, field by field, on random
patterns, on the golden CLI corpus and on fragmented patterns, where
about a third of the states have no out-edge.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import fracplace.placement
from fracplace import minimal_sensors, parse_system_file

from conftest import random_pattern
from reference_placement import full_engine_minimal_sensors

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


@pytest.fixture
def check(monkeypatch):
    """Compare both placements of (pattern, horizon); return the number of states pre-matched."""
    handed = []
    engine = fracplace.placement._min_weight_max_matching_rows

    def counted(free, unit, n_cols):
        handed.append(len(free))
        return engine(free, unit, n_cols)

    monkeypatch.setattr(fracplace.placement, "_min_weight_max_matching_rows", counted)

    def run(pattern, horizon):
        handed.clear()
        got = minimal_sensors(pattern, horizon)
        (engine_rows,) = handed
        want = full_engine_minimal_sensors(pattern, horizon)
        for name in want._fields:
            assert getattr(got, name) == getattr(want, name), name
        leaves = sum(1 for row in pattern.transpose().rows if not row)
        assert engine_rows == pattern.nrows - leaves
        return leaves

    return run


def test_random_patterns(check):
    rng = np.random.default_rng(28)
    leaves = 0
    for _ in range(120):
        n = int(rng.integers(1, 65))
        pattern = random_pattern(rng, n, rng.uniform(0.0, 3.0 / n))
        for horizon in (0, 1, 2, n):
            leaves += check(pattern, horizon)
    assert leaves > 0


def test_golden_corpus(check):
    files = json.loads(GOLDEN.read_text())["files"]
    for text in files.values():
        sysfile = parse_system_file(text)
        for horizon in (sysfile.n, 2, 1, 0):
            check(sysfile.pattern_at(), horizon)


@pytest.mark.parametrize("horizon", [256, 2])
def test_fragmented_patterns(check, horizon):
    rng = np.random.default_rng(horizon)
    for _ in range(3):
        assert check(random_pattern(rng, 256, 1.0 / 256), horizon) > 50
