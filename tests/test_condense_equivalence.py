"""The path-based ``condense`` against the Tarjan pass it replaced.

Both searches descend into each state's lowest unvisited predecessor
first, so they build the same depth-first tree and close the same SCCs in
the same order: every field, ``order`` included, must be equal.
"""

import numpy as np
import pytest

from fracplace import Pattern, condense, minimal_sensors, verify_observability
from fracplace.sweep import _random_pattern

from conftest import random_pattern
from reference_condense import tarjan_condense


def assert_same_condensation(pattern):
    got, want = condense(pattern), tarjan_condense(pattern)
    assert got.scc_of == want.scc_of
    assert got.sccs == want.sccs
    assert got.sink_sccs == want.sink_sccs
    assert got.order == want.order
    assert got.pattern is pattern


def with_self_loops(rng, pattern):
    """``pattern`` plus a random subset of the diagonal."""
    n = pattern.nrows
    return Pattern.from_masks(n, n, [m | int(rng.random() < 0.3) << v for v, m in enumerate(pattern.rows)])


@pytest.mark.parametrize("n", range(15))
def test_every_small_size(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(8):
        pattern = random_pattern(rng, n, rng.uniform(0.0, 0.6))
        assert_same_condensation(pattern)
        assert_same_condensation(with_self_loops(rng, pattern))


def test_random_draws_up_to_sixty_states():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(0, 61))
        assert_same_condensation(with_self_loops(rng, random_pattern(rng, n, rng.uniform(0.0, 0.5))))


@pytest.mark.parametrize(
    "entries",
    [
        pytest.param([(i + 1, i) for i in range(39)], id="chain-forward"),
        pytest.param([(i, i + 1) for i in range(39)], id="chain-backward"),
        pytest.param([(i, j) for i in range(40) for j in range(40)], id="complete"),
        # the cycle 10 -> 11 -> ... -> 39 -> 10, entered from the tail 0 -> 1 -> ... -> 10
        pytest.param([(i + 1, i) for i in range(39)] + [(10, 39)], id="cycle-with-tail"),
        pytest.param([(i, i + 1) for i in range(39)] + [(39, 10)], id="tail-into-cycle"),
    ],
)
def test_shapes(entries):
    assert_same_condensation(Pattern(40, 40, entries))


def test_no_per_entry_lists(monkeypatch):
    # the structural layer works on the row masks alone: placement,
    # verification and the condensation build no per-row column lists
    def no_lists(self):
        raise AssertionError("Pattern.row_columns called")

    n = 256
    pattern = _random_pattern(n, 1 - 1 / n, np.random.default_rng(0))
    monkeypatch.setattr(Pattern, "row_columns", no_lists)
    report = minimal_sensors(pattern, n)
    assert report.certificate.observable
    assert verify_observability(pattern, n, report.sensors.all).observable

    # the chain x0 <- x1 <- ... <- x4999 is one search path 5,000 states
    # deep, which no recursion limit allows; x0 -> x1 -> ... is 5,000 roots
    n = 5000
    backward = condense(Pattern(n, n, [(i, i + 1) for i in range(n - 1)]))
    assert backward.sink_sccs == frozenset({0})
    assert backward.order == tuple(range(n - 1, -1, -1))
    forward = condense(Pattern(n, n, [(i + 1, i) for i in range(n - 1)]))
    assert forward.sink_sccs == frozenset({n - 1})
    assert forward.order == tuple(range(n))
    assert len(backward.sccs) == len(forward.sccs) == n
