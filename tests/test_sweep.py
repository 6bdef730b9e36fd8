import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from fracplace import Pattern, SweepSpec, minimal_sensors, run_sweep
from fracplace.sweep import _magnitude_order, _thresholded_pattern


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

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            SweepSpec(levels=(0.5,), trials=0, n=4)

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            SweepSpec(levels=(0.5,), trials=1)
        with pytest.raises(ValueError):
            SweepSpec(levels=(0.5,), trials=1, n=4, base_matrix=np.eye(4))


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
