import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from fracplace import Pattern, SweepSpec, minimal_sensors, run_sweep
from fracplace.sweep import (
    _flat_pattern,
    _magnitude_order,
    _random_pattern,
    _thresholded_pattern,
)


def per_level_thresholded_pattern(base, sparsity):
    """Reference: the largest-magnitude nonzeros, ranked afresh for this level."""
    n = base.shape[0]
    want = int(round((1.0 - sparsity) * n * n))
    nonzero = [(abs(base[r, c]), r, c) for r in range(n) for c in range(n) if base[r, c] != 0.0]
    want = min(want, len(nonzero))
    nonzero.sort(key=lambda t: (-t[0], t[1], t[2]))
    return Pattern(n, n, ((r, c) for _, r, c in nonzero[:want]))


def tied_base(rng, n):
    # few distinct magnitudes of both signs, and zeros: many ties to break
    return rng.integers(-3, 4, size=(n, n)).astype(float)


class TestSweepSpec:
    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError):
            SweepSpec(levels=(0.5, 0.2), trials=1, n=4)

    def test_rejects_levels_outside_domain(self):
        with pytest.raises(ValueError):
            SweepSpec(levels=(1.0,), trials=1, n=4)

    def test_refusal_messages(self):
        with pytest.raises(ValueError) as info:
            SweepSpec(levels=(), trials=1, n=4)
        assert str(info.value) == "need at least one sparsity level"
        with pytest.raises(ValueError) as info:
            SweepSpec(levels=(0.5,), trials=1, base_matrix=np.ones((2, 3)))
        assert str(info.value) == "base matrix must be square"

    def test_a_negative_zero_level_is_stored_as_zero(self):
        levels = SweepSpec(levels=(-0.0, 0.5), trials=1, n=4).levels
        assert levels == (0.0, 0.5)
        assert math.copysign(1.0, levels[0]) == 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            SweepSpec(levels=(0.5,), trials=0, n=4)

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            SweepSpec(levels=(0.5,), trials=1)
        with pytest.raises(ValueError):
            SweepSpec(levels=(0.5,), trials=1, n=4, base_matrix=np.eye(4))

    def test_checks_the_horizon(self):
        # refused at construction: a float is not truncated, while its rows
        # would still report it
        with pytest.raises(TypeError):
            SweepSpec(levels=(0.5,), trials=1, n=4, horizon=1.5)
        with pytest.raises(ValueError):
            SweepSpec(levels=(0.5,), trials=1, n=4, horizon=-1)
        spec = SweepSpec(levels=(0.5,), trials=1, n=4, horizon=np.int64(2))
        assert type(spec.horizon) is int and run_sweep(spec)[0].horizon == 2

    @pytest.mark.parametrize("field, value", [("n", 4.0), ("trials", 2.5), ("seed", 1.5)])
    def test_rejects_a_float_count_or_seed(self, field, value):
        # refused when the spec is built, not partway through the sweep
        args = {"levels": (0.5,), "trials": 1, "n": 4, field: value}
        with pytest.raises(TypeError):
            SweepSpec(**args)

    def test_rejects_a_negative_seed(self):
        # refused here, not later by numpy's default_rng with a message naming no field
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SweepSpec(levels=(0.5,), trials=1, n=4, seed=-1)
        assert SweepSpec(levels=(0.5,), trials=1, n=4, seed=0).seed == 0

    def test_takes_integer_types_as_int(self):
        spec = SweepSpec(levels=(0.5,), trials=np.int64(2), n=np.int64(4), seed=np.int64(7))
        assert [type(v) for v in (spec.trials, spec.n, spec.seed)] == [int] * 3
        assert run_sweep(spec) == run_sweep(SweepSpec(levels=(0.5,), trials=2, n=4, seed=7))

    def test_keeps_a_read_only_copy_of_the_base_matrix(self):
        A = np.arange(1.0, 10.0).reshape(3, 3)
        spec = SweepSpec(levels=(0.5,), trials=1, base_matrix=A)
        before = run_sweep(spec)
        A[:] = A[::-1, ::-1]  # the caller's array changes, the spec does not
        assert spec.base_matrix is not A
        assert np.array_equal(spec.base_matrix, np.arange(1.0, 10.0).reshape(3, 3))
        assert not spec.base_matrix.flags.writeable
        with pytest.raises(ValueError):
            spec.base_matrix[0, 0] = 2.0
        assert run_sweep(spec) == before

    def test_rejects_a_non_finite_base_matrix(self):
        # a NaN would otherwise rank as a nonzero and enter the pattern
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SweepSpec(levels=(0.0,), trials=1, base_matrix=[[bad, 1.0], [2.0, 0.0]])


class TestRunSweep:
    def test_deterministic_under_seed(self):
        spec = SweepSpec(levels=(0.3, 0.8), trials=5, n=10, seed=11)
        assert run_sweep(spec) == run_sweep(spec)

    def test_complete_pattern_needs_one_sensor(self):
        rows = run_sweep(SweepSpec(levels=(0.0,), trials=5, n=16, seed=0))
        assert all(r.n_sensors == 1 and r.beta == 1 for r in rows)

    def test_horizon_defaults_to_dimension(self):
        rows = run_sweep(SweepSpec(levels=(0.5,), trials=1, n=9, seed=1))
        assert rows[0].horizon == 9

    def test_base_matrix_keeps_largest_magnitudes(self):
        # magnitudes descending at known positions: the single survivor at
        # sparsity 15/16 must be the largest entry
        base = np.zeros((4, 4))
        base[2, 1] = 9.0
        base[0, 3] = 5.0
        base[1, 0] = 1.0
        rows = run_sweep(
            SweepSpec(levels=(1.0 - 1.0 / 16,), trials=1, base_matrix=base)
        )
        # one off-diagonal edge x2 -> x3 leaves every other state isolated:
        # the edge's source is covered through its target, so n - 1 sensors
        assert rows[0].n_sensors == 3
        assert rows[0].beta == 3

    def test_base_matrix_diagonal_survivor_needs_all_sensors(self):
        base = np.zeros((4, 4))
        base[1, 1] = 9.0
        base[0, 3] = 5.0
        rows = run_sweep(
            SweepSpec(levels=(1.0 - 1.0 / 16,), trials=1, base_matrix=base)
        )
        # a lone self-loop leaves four isolated components
        assert rows[0].n_sensors == 4
        assert rows[0].beta == 4

    def test_clamps_when_base_has_too_few_entries(self):
        base = np.zeros((3, 3))
        base[1, 0] = 1.0
        with pytest.warns(UserWarning):
            rows = run_sweep(SweepSpec(levels=(0.0,), trials=1, base_matrix=base))
        assert rows[0].n_sensors == 2  # the chain edge survives, clamped

    def test_sensor_count_trend_over_sparsity(self):
        # mean sensor count rises with sparsity: rank correlation over the
        # active region of the uniform ensemble
        levels = (0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875, 0.984375, 0.9921875)
        rows = run_sweep(SweepSpec(levels=levels, trials=20, n=32, seed=7))
        means = [
            np.mean([r.n_sensors for r in rows if r.sparsity == lvl])
            for lvl in levels
        ]
        rho, _ = spearmanr(levels, means)
        assert rho >= 0.9
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))


class TestFlatPattern:
    @pytest.mark.parametrize("n", [1, 3, 8, 13])
    def test_random_patterns_match_the_per_entry_construction(self, n):
        # the same draws, turned into a pattern one entry at a time
        levels = (0.0, 0.3, 0.5, 0.9, 0.99)
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        for level in levels:
            got = _random_pattern(n, level, got_rng)
            want_count = min(int(round((1.0 - level) * n * n)), n * n)
            if want_count == 0:
                want = Pattern(n, n)
            else:
                flat = want_rng.choice(n * n, size=want_count, replace=False)
                want = Pattern(n, n, ((int(p) // n, int(p) % n) for p in flat))
            assert got == want
            assert got.count == want_count
        # both streams made the same calls, so they stand at the same state
        assert got_rng.random() == want_rng.random()

    def test_blocks_of_rows_join_at_their_edges(self):
        # n = 600 packs 436 rows, then 164: probe both edges and the corners
        n, edge = 600, (1 << 18) // 600 * 600
        flat = np.array([0, 1, n - 1, edge - n, edge - 1, edge, edge + 1, n * n - n, n * n - 1])
        want = Pattern(n, n, ((int(p) // n, int(p) % n) for p in flat))
        assert _flat_pattern(n, flat) == want
        assert _flat_pattern(n, np.empty(0, np.int64)) == Pattern(n, n)

    def test_a_sparse_draw_makes_no_square_buffer(self):
        n = 8192  # an n x n bool buffer would take 64 MiB
        tracemalloc.start()
        try:
            pattern = _random_pattern(n, 1.0 - 2.0 / n, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pattern.count == 2 * n
        assert peak < n * n // 4


class TestBaseMatrixRanking:
    LEVELS = (0.0, 0.3, 0.6, 0.8, 0.9, 0.95, 0.99)

    @pytest.mark.parametrize("n", [1, 2, 7, 9, 20])
    def test_one_ranking_gives_the_per_level_patterns(self, n):
        rng = np.random.default_rng(n)
        for base in (tied_base(rng, n), rng.standard_normal((n, n))):
            order = _magnitude_order(base)
            for level in self.LEVELS:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the clamping levels
                    got = _thresholded_pattern(n, order, level)
                assert got == per_level_thresholded_pattern(base, level)

    def test_sweep_rows_match_the_per_level_routine(self):
        base = tied_base(np.random.default_rng(3), 24)
        spec = SweepSpec(levels=self.LEVELS, trials=2, base_matrix=base)
        want = []
        for level in self.LEVELS:
            report = minimal_sensors(per_level_thresholded_pattern(base, level), 24)
            want += [(level, t, len(report.sensors), report.beta, 24) for t in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert [tuple(row) for row in run_sweep(spec)] == want
