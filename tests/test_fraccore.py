import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracplace import (
    FracSystem,
    TransitionSequence,
    gl_coefficient,
    gl_tails,
    is_observable_numeric,
    numeric_rank,
    simulate,
    transition_factors,
)
from fracplace import fraccore
from fracplace.fraccore import MAX_FACTOR_STACK_BYTES, MAX_SIMULATION_WORK

from conftest import identity_columns
from reference_factors import factor_stack, observability_matrix


def exact_gl(alpha: float, j: int) -> Fraction:
    """Arbitrary-precision product-recurrence oracle for the tail coefficient."""
    a = Fraction(alpha)  # exact binary value of the float input
    b = Fraction(1)
    for m in range(1, j + 2):
        b *= Fraction(a - m + 1, m)
    return -b if j % 2 else b


def lgamma_gl(alpha: float, j: int) -> float:
    """Gamma-quotient evaluation, defined only away from the poles."""
    m = j + 1
    x = alpha - m + 1
    if x > 0:
        sign = 1.0
    else:
        sign = -1.0 if (math.floor(-x) + 1) % 2 else 1.0
    # math.lgamma handles negative non-integer arguments directly
    log_binom = math.lgamma(alpha + 1) - math.lgamma(m + 1) - math.lgamma(x)
    binom = sign * math.exp(log_binom)
    return -binom if j % 2 else binom


nonintegral_orders = st.floats(0.05, 2.95).filter(
    lambda a: abs(a - round(a)) > 1e-3
)


class TestGlCoefficient:
    def test_integer_order_kills_tails(self):
        for j in range(1, 12):
            assert gl_coefficient(1.0, j) == 0.0
        assert gl_coefficient(2.0, 1) == -1.0  # C(2, 2) = 1
        for j in range(2, 12):
            assert gl_coefficient(2.0, j) == 0.0

    def test_half_order(self):
        assert gl_coefficient(0.5, 1) == 0.125

    def test_three_halves(self):
        assert gl_coefficient(1.5, 1) == -0.375

    def test_against_exact_oracle_at_reported_orders(self):
        for alpha in (0.5, 0.97, 1.0, 1.28, 2.5):
            for j in range(1, 51):
                want = exact_gl(alpha, j)
                got = gl_coefficient(alpha, j)
                if want == 0:
                    assert got == 0.0
                else:
                    assert abs(got - float(want)) <= 1e-12 * abs(float(want))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gl_coefficient(float("nan"), 1)
        with pytest.raises(ValueError):
            gl_coefficient(float("inf"), 2)
        with pytest.raises(ValueError):
            gl_coefficient(0.5, 0)

    def test_rejects_a_float_tail_index(self):
        # 2.9 is not truncated to j = 2
        with pytest.raises(TypeError):
            gl_coefficient(0.5, 2.9)
        assert gl_coefficient(0.5, np.int64(2)) == gl_coefficient(0.5, 2)

    @given(alpha=nonintegral_orders, j=st.integers(1, 50))
    def test_matches_exact_recurrence(self, alpha, j):
        want = exact_gl(alpha, j)
        got = gl_coefficient(alpha, j)
        assert abs(got - float(want)) <= 1e-12 * max(1e-300, abs(float(want)))

    @given(alpha=nonintegral_orders, j=st.integers(1, 50))
    def test_matches_gamma_quotients_where_defined(self, alpha, j):
        got = gl_coefficient(alpha, j)
        via_gamma = lgamma_gl(alpha, j)
        assert got == pytest.approx(via_gamma, rel=1e-10)


class TestGlTails:
    def test_integer_orders_give_zero_table(self):
        sysm = FracSystem(np.zeros((2, 2)), [1.0, 1.0], 3)
        assert np.all(gl_tails(sysm).table == 0.0)

    def test_single_state_half_order(self):
        sysm = FracSystem([[0.0]], [0.5], 1)
        assert gl_tails(sysm).table.tolist() == [[0.125]]

    def test_mixed_orders(self):
        sysm = FracSystem(np.zeros((2, 2)), [0.5, 1.5], 1)
        assert gl_tails(sysm).table.tolist() == [[0.125], [-0.375]]

    def test_table_is_the_scalar_function_bit_for_bit(self):
        # one recurrence serves both, so no entry differs even in its last bit
        rng = np.random.default_rng(1)
        alpha = rng.uniform(0.1, 2.9, size=200)
        table = gl_tails(FracSystem(np.zeros((200, 200)), alpha, 50)).table
        for i in range(200):
            for j in range(1, 51):
                assert gl_coefficient(alpha[i], j) == table[i, j - 1]

    def test_table_matches_scalar_function(self):
        rng = np.random.default_rng(0)
        alpha = rng.uniform(0.2, 2.8, size=5)
        sysm = FracSystem(np.zeros((5, 5)), alpha, 7)
        table = gl_tails(sysm).table
        for i in range(5):
            for j in range(1, 8):
                assert table[i, j - 1] == pytest.approx(
                    gl_coefficient(alpha[i], j), rel=1e-14, abs=1e-300
                )


class TestTransitionFactors:
    def test_worked_two_state_example(self):
        sysm = FracSystem([[0, 1], [0, 0]], [0.5, 0.5], 2)
        seq = transition_factors(sysm)
        assert np.array_equal(seq[0], [[0, 1], [0, 0]])
        assert np.array_equal(seq[1], np.zeros((2, 2)))
        assert np.array_equal(seq[2], [[0, 0.125], [0, 0]])

    def test_identity_with_integer_order(self):
        sysm = FracSystem(np.eye(2), [1.0, 1.0], 2)
        seq = transition_factors(sysm)
        for k in range(3):
            assert np.array_equal(seq[k], np.eye(2))

    def test_zero_horizon(self):
        A = np.arange(9.0).reshape(3, 3)
        seq = transition_factors(FracSystem(A, [0.7, 0.7, 0.7], 0))
        assert len(seq.stack) == 1
        assert np.array_equal(seq[0], A)

    def test_recursion_identity_on_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            K = int(rng.integers(0, 11))
            A = rng.normal(size=(n, n))
            alpha = rng.uniform(0.2, 2.5, size=n)
            sysm = FracSystem(A, alpha, K)
            seq = transition_factors(sysm)
            tails = gl_tails(sysm).table
            for k in range(1, K + 1):
                expect = A @ seq[k - 1]
                for j in range(1, k):
                    expect = expect + tails[:, j - 1, None] * seq[k - 1 - j]
                err = np.linalg.norm(seq[k] - expect)
                assert err <= 1e-12 * max(1.0, np.linalg.norm(expect))

    def test_integer_order_degenerates_to_powers(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            A = rng.normal(size=(8, 8))
            sysm = FracSystem(A, np.ones(8), 5)
            seq = transition_factors(sysm)
            power = A.copy()
            for k in range(6):
                err = np.abs(seq[k] - power).max()
                assert err <= 1e-12 * max(1.0, np.abs(power).max())
                power = A @ power

    def test_matches_factor_oracle(self):
        rng = np.random.default_rng(17)
        for case in range(40):
            n = int(rng.integers(1, 25))
            K = int(rng.integers(0, 31))
            A = rng.normal(0.0, 1.0 / math.sqrt(n), (n, n))
            alpha = rng.integers(1, 3, n).astype(float) if case % 4 == 0 else rng.uniform(0.2, 2.5, n)
            system = FracSystem(A, alpha, K)
            got, want = transition_factors(system).stack, factor_stack(system)
            assert got.shape == want.shape
            for k in range(K + 1):
                assert np.abs(got[k] - want[k]).max() <= 1e-12 * np.abs(want[k]).max(), (case, k)

    def test_overflow_names_the_first_non_finite_factor(self):
        # T_0 = 1e200 is finite and T_1 = 1e400 is not; no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow float64 at T_1;"):
                transition_factors(FracSystem([[1e200]], [0.5], 3))
        # T_k = 2**(k + 1) here, so T_1023 is the first past float64's range
        with pytest.raises(ValueError, match="at T_1023;"):
            transition_factors(FracSystem([[2.0]], [1.0], 1100))
        assert transition_factors(FracSystem([[2.0]], [1.0], 1022))[1022][0, 0] == 2.0**1023

    def test_refuses_oversized_dense_systems(self):
        with pytest.raises(ValueError):
            transition_factors(FracSystem(np.zeros((513, 513)), np.ones(513) * 0.5, 1))

    @pytest.mark.parametrize(
        "n, K, message",
        [
            (
                64,
                70_000,
                "transition factors for n=64, K=70000 need 2.1 GiB, above the 2 GiB limit; "
                "lower the horizon",
            ),
            (
                513,
                1,
                "dense transition factors refused for n=513 > 512; use the structural path, "
                "which never builds numeric factors",
            ),
        ],
    )
    def test_refusal_messages(self, n, K, message):
        system = FracSystem(np.zeros((n, n)), np.full(n, 0.5), K)
        with pytest.raises(ValueError) as info:
            transition_factors(system)
        assert str(info.value) == message

    def test_refuses_oversized_stack_before_allocating(self):
        n = 64
        K = MAX_FACTOR_STACK_BYTES // (8 * n * n)  # one factor over the limit
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GiB"):
                transition_factors(FracSystem(np.eye(n), np.full(n, 0.5), K))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_stack_is_held_once(self):
        # the stack built here is kept as it is, read-only, not copied
        n = K = 128
        rng = np.random.default_rng(8)
        system = FracSystem(rng.normal(0.0, 0.1, (n, n)), np.full(n, 0.7), K)
        tracemalloc.start()
        try:
            seq = transition_factors(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * seq.stack.nbytes
        assert not seq.stack.flags.writeable

    def test_caller_arrays_are_copied(self):
        A = np.eye(3)
        system = FracSystem(A, np.full(3, 0.5), 2)
        stack = np.zeros((2, 3, 3))
        seq = TransitionSequence(stack)
        A[0, 0] = stack[0, 0, 0] = 7.0
        assert system.A[0, 0] == 1.0 and seq.stack[0, 0, 0] == 0.0
        assert not system.A.flags.writeable and not seq.stack.flags.writeable


class TestSimulate:
    def test_rejects_a_float_step_count(self):
        # 2.7 is not truncated to 2 steps
        sysm = FracSystem(np.eye(2), [0.5, 0.5], 3)
        with pytest.raises(TypeError):
            simulate(sysm, np.ones(2), 2.7)
        assert len(simulate(sysm, np.ones(2), np.int64(2)).states) == 3

    def test_zero_initial_state(self):
        sysm = FracSystem([[0, 1], [1, 0]], [0.8, 0.8], 3)
        traj = simulate(sysm, [0, 0], 3)
        assert np.all(traj.states == 0.0)

    def test_worked_example(self):
        sysm = FracSystem([[0, 1], [0, 0]], [0.5, 0.5], 2)
        traj = simulate(sysm, [0, 1], 2)
        assert np.array_equal(traj.states[0], [0, 1])
        assert np.array_equal(traj.states[1], [0, 0])
        assert np.array_equal(traj.states[2], [0.125, 0])

    @given(scale=st.floats(-5, 5), shift=st.floats(-3, 3))
    @settings(max_examples=30)
    def test_superposition_in_x0(self, scale, shift):
        sysm = FracSystem([[0.3, 1.1], [0.2, 0.0]], [1.1, 0.9], 4)
        x0 = np.array([1.0, -2.0])
        y0 = np.array([shift, 0.5])
        base = simulate(sysm, x0, 4).states
        other = simulate(sysm, y0, 4).states
        combined = simulate(sysm, scale * x0 + y0, 4).states
        assert np.allclose(combined, scale * base + other, rtol=1e-12, atol=1e-12)

    def test_factor_prefix_does_not_depend_on_horizon(self):
        rng = np.random.default_rng(12)
        n = 6
        A = rng.normal(0.0, 0.4, (n, n))
        alpha = rng.uniform(0.5, 1.3, n)
        x0 = rng.normal(size=n)
        full = transition_factors(FracSystem(A, alpha, 120))
        system = FracSystem(A, alpha, 120)
        longest = simulate(system, x0, 60).states
        for steps in (0, 1, 7, 60):
            short = transition_factors(FracSystem(A, alpha, steps))
            assert np.array_equal(short.stack, full.stack[: steps + 1])
            own = simulate(system, x0, steps).states
            assert np.array_equal(own, simulate(FracSystem(A, alpha, steps), x0, steps).states)
            assert np.array_equal(own, longest[: steps + 1])

    def test_overflow_is_an_error_not_a_warning(self):
        # 2**1024 is the first power of two past float64's range
        sysm = FracSystem([[2.0]], [1.0], 1100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step 1023"):
                simulate(sysm, [1.0], 1100)
            assert np.isfinite(simulate(sysm, [1.0], 1022).states).all()

    def test_overflowing_tails_are_an_error_not_a_warning(self):
        # C(1e200, 2) overflows, so D_1 holds inf: every caller of the recursion says so once
        sysm = FracSystem(np.zeros((2, 2)), [1e200, 1e200], 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step 2"):
                simulate(sysm, [1.0, 1.0], 3)
            with pytest.raises(ValueError, match="T_2"):
                transition_factors(sysm)
            with pytest.raises(ValueError, match="C T_2"):
                is_observable_numeric(sysm, [0])

    def test_matches_factor_oracle(self):
        # the factor stack is the oracle: x_k = T_k x_0, up to rounding
        rng = np.random.default_rng(31)
        for case in range(60):
            n = int(rng.integers(1, 41))
            K = int(rng.integers(0, 61))
            A = rng.normal(0.0, 1.0 / math.sqrt(n), (n, n))
            if case % 3 == 0:
                alpha = rng.integers(1, 3, n).astype(float)  # tails vanish
            elif case % 3 == 1:
                alpha = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.2, 2.5, n))
            else:
                alpha = rng.uniform(0.2, 2.5, n)
            x0 = rng.normal(size=n)
            system = FracSystem(A, alpha, K)
            want = np.vstack([x0, factor_stack(system)[1:] @ x0])
            got = simulate(system, x0, K).states
            assert np.array_equal(got[0], x0)
            err = np.abs(got - want).max(axis=1)
            assert np.all(err <= 1e-12 * np.abs(want).max(axis=1)), (case, n, K)

    def test_never_builds_transition_factors(self, monkeypatch):
        def refused(system):
            raise AssertionError("simulate built transition factors")

        monkeypatch.setattr(fraccore, "transition_factors", refused)
        n, steps = 64, 2000  # the factor stack would take 64 MiB
        rng = np.random.default_rng(5)
        system = FracSystem(rng.normal(0.0, 0.1, (n, n)), np.full(n, 0.7), steps)
        tracemalloc.start()
        try:
            traj = simulate(system, rng.normal(size=n), steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (steps + 1, n)
        assert peak < 16 * 2**20

    def test_refuses_runaway_work_before_allocating(self):
        n = 64
        steps = math.isqrt(2 * MAX_SIMULATION_WORK // n)
        while n * steps * (steps + 1) // 2 <= MAX_SIMULATION_WORK:
            steps += 1
        assert n * (steps - 1) * steps // 2 <= MAX_SIMULATION_WORK
        system = FracSystem(np.eye(n), np.full(n, 0.5), steps)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="lower the number of steps"):
                simulate(system, np.ones(n), steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_work_limit_admits_a_run_at_the_limit(self, monkeypatch):
        n, steps = 3, 40
        monkeypatch.setattr(fraccore, "MAX_SIMULATION_WORK", n * steps * (steps + 1) // 2)
        system = FracSystem(np.full((n, n), 0.2), [0.5, 1.0, 1.5], steps + 1)
        assert len(simulate(system, [1.0, -1.0, 2.0], steps).states) == steps + 1
        with pytest.raises(ValueError, match="lower the number of steps"):
            simulate(system, [1.0, -1.0, 2.0], steps + 1)

    def test_non_finite_initial_state(self):
        system = FracSystem(np.eye(2), [0.5, 0.5], 2)
        for bad in ([float("nan"), 0.0], [1.0, float("inf")]):
            with pytest.raises(ValueError, match="finite"):
                simulate(system, bad, 2)

    def test_steps_beyond_horizon(self):
        sysm = FracSystem([[0.0]], [0.5], 2)
        with pytest.raises(ValueError):
            simulate(sysm, [1.0], 3)


class TestObservabilityMatrix:
    # the stack-route oracle of tests/reference_factors.py
    def test_identity_output_zero_horizon_returns_coupling(self):
        A = np.arange(16.0).reshape(4, 4)
        stack = factor_stack(FracSystem(A, np.full(4, 0.7), 0))
        assert np.array_equal(observability_matrix(np.eye(4), stack), A)

    def test_chain_single_row_stack(self):
        A = np.array([[0, 0, 0], [2.0, 0, 0], [0, 3.0, 0]])
        stack = factor_stack(FracSystem(A, np.full(3, 0.5), 2))
        C = np.array([[0.0, 0.0, 1.0]])
        M = observability_matrix(C, stack)
        assert M.shape == (3, 3)
        assert np.array_equal(M[0], A[2])
        assert np.array_equal(M[1], (A @ A)[2])

    def test_zero_output_matrix(self):
        stack = factor_stack(FracSystem(np.eye(2), [0.5, 0.5], 1))
        assert np.all(observability_matrix(np.zeros((2, 2)), stack) == 0.0)

    def test_accepts_pattern_output(self):
        stack = factor_stack(FracSystem(np.eye(2), [0.5, 0.5], 0))
        M = observability_matrix(identity_columns(2, [1]).transpose(), stack)
        assert M.shape == (1, 2)

    def test_dimension_mismatch(self):
        stack = factor_stack(FracSystem(np.eye(2), [0.5, 0.5], 0))
        with pytest.raises(ValueError):
            observability_matrix(np.eye(3), stack)


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(4), 1e-9) == 4

    def test_rank_one_outer_product(self):
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.5, 3.0, 1.0, -2.0])
        assert numeric_rank(np.outer(u, v), 1e-9) == 1

    def test_duplicated_rows(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(6, 6))
        M[3] = M[0]
        assert numeric_rank(M, 1e-9) == 5

    def test_empty_and_zero(self):
        assert numeric_rank(np.zeros((0, 3)), 1e-9) == 0
        assert numeric_rank(np.zeros((3, 3)), 1e-9) == 0

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), 0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            numeric_rank(np.eye(3), tol)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_refused(self, bad):
        # an infinite entry used to give rank 0 and a NaN one LinAlgError
        with pytest.raises(ValueError, match="entries must be finite"):
            numeric_rank([[bad, 1.0], [0.0, 1.0]], 1e-9)


class TestIsObservableNumeric:
    def test_full_sensor_set_on_identity(self):
        sysm = FracSystem(np.eye(3), np.full(3, 0.5), 3)
        assert is_observable_numeric(sysm, {0, 1, 2})

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0])
    def test_bad_tolerance_refused_before_any_work(self, tol):
        # a horizon this long would be refused by the work limit, so the
        # message shows the tolerance was checked first
        sysm = FracSystem(np.eye(3), np.full(3, 0.5), 10**6)
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            is_observable_numeric(sysm, {0, 1, 2}, tol=tol)

    @pytest.mark.parametrize("bad", [3, -1])
    def test_sensor_out_of_range_named(self, bad):
        # the structural layer's message, from the same check
        sysm = FracSystem(np.eye(3), np.full(3, 0.5), 3)
        with pytest.raises(ValueError, match=f"^sensor index {bad} outside 0..2$"):
            is_observable_numeric(sysm, {0, bad})

    def test_overflow_is_named_not_a_linalg_error(self):
        sysm = FracSystem(np.full((4, 4), 10.0), [0.8] * 4, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow float64"):
                is_observable_numeric(sysm, [0])

    def test_overflow_names_the_first_non_finite_factor(self):
        # T_k = 2**(k + 1) here, so T_1023 is the first past float64's range
        with pytest.raises(ValueError, match="at C T_1023;"):
            is_observable_numeric(FracSystem([[2.0]], [1.0], 1100), [0])
        assert is_observable_numeric(FracSystem([[2.0]], [1.0], 1022), [0])

    def test_chain_sensor_at_sink_end(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = np.zeros((3, 3))
            A[1, 0] = rng.uniform(0.5, 1.5)
            A[2, 1] = rng.uniform(0.5, 1.5)
            sysm = FracSystem(A, rng.uniform(0.9, 1.3, 3), 3)
            assert is_observable_numeric(sysm, {2})

    def test_chain_sensor_at_source_end(self):
        A = np.zeros((3, 3))
        A[1, 0] = 1.3
        A[2, 1] = 0.7
        sysm = FracSystem(A, [1.1, 1.2, 0.97], 3)
        assert not is_observable_numeric(sysm, {0})

    def test_empty_sensor_set(self):
        sysm = FracSystem(np.eye(2), [0.5, 0.5], 2)
        assert not is_observable_numeric(sysm, set())

    def test_out_of_range_sensor(self):
        sysm = FracSystem(np.eye(2), [0.5, 0.5], 2)
        with pytest.raises(ValueError):
            is_observable_numeric(sysm, {5})

    def test_rejects_a_float_sensor(self):
        sysm = FracSystem(np.eye(2), [0.5, 0.5], 2)
        with pytest.raises(TypeError):
            is_observable_numeric(sysm, [0.4])

    def test_rows_and_decisions_match_stack_oracle(self, monkeypatch):
        # the rows the rank test sees, against the factor-stack route's rows
        seen = []

        def capture(M, tol):
            seen.append(M.copy())
            return numeric_rank(M, tol)

        monkeypatch.setattr(fraccore, "numeric_rank", capture)
        rng = np.random.default_rng(59)
        shapes = [(1, 0), (1, 6), (7, 0)] + [
            (int(rng.integers(2, 25)), int(rng.integers(0, 31))) for _ in range(90)
        ]
        decisions = set()
        for case, (n, K) in enumerate(shapes):
            A = rng.normal(0.0, 1.0 / math.sqrt(n), (n, n))
            alpha = rng.integers(1, 3, n).astype(float) if case % 4 == 0 else rng.uniform(0.2, 2.5, n)
            size = (1, int(rng.integers(1, n + 1)), n)[case % 3]
            sensors = sorted(rng.choice(n, size, replace=False).tolist())
            system = FracSystem(A, alpha, K)
            C = np.eye(n)[sensors]
            want = np.vstack([C, observability_matrix(C, factor_stack(system))])
            scale = np.abs(want).max(axis=1)
            keep = scale > 0.0
            want_decision = numeric_rank(want[keep] / scale[keep, None], 1e-9) == n
            got_decision = is_observable_numeric(system, sensors)
            assert got_decision == want_decision, (case, n, K, size)
            decisions.add(got_decision)
            got = seen.pop()
            assert got.shape == want.shape and keep.all()
            # each row is scaled to unit max-magnitude, so 1e-12 is relative to it
            err = np.abs(got - want / scale[:, None]).max(axis=1)
            assert np.all(err <= 1e-12), (case, n, K, size, err.max())
        assert decisions == {False, True}

    def test_never_builds_transition_factors(self, monkeypatch):
        def refused(system):
            raise AssertionError("is_observable_numeric built transition factors")

        monkeypatch.setattr(fraccore, "transition_factors", refused)
        n = 48
        rng = np.random.default_rng(6)
        system = FracSystem(rng.normal(0.0, 1.0 / math.sqrt(n), (n, n)), rng.uniform(0.5, 1.3, n), n)
        assert is_observable_numeric(system, range(n))
        assert not is_observable_numeric(FracSystem(system.A, system.alpha, 2), {0})

    @pytest.mark.parametrize("sensed, limit", [(1, 2**20), (128, 40 * 2**20)])
    def test_traced_peak_without_factor_stack(self, sensed, limit):
        # the factor stack alone would take 16.1 MiB at n = K = 128
        n = K = 128
        rng = np.random.default_rng(8)
        system = FracSystem(rng.normal(0.0, 0.1, (n, n)), np.full(n, 0.7), K)
        tracemalloc.start()
        try:
            is_observable_numeric(system, range(sensed))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit

    def test_refuses_runaway_work_before_allocating(self):
        n = 64
        K = math.isqrt(2 * MAX_SIMULATION_WORK // (n * n))
        while n * n * K * (K + 1) // 2 <= MAX_SIMULATION_WORK:
            K += 1
        assert (K + 2) * n * n * 8 <= MAX_FACTOR_STACK_BYTES  # the work limit refuses
        system = FracSystem(np.eye(n), np.full(n, 0.5), K)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="memory-term operations.*lower the horizon"):
                is_observable_numeric(system, range(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_refuses_an_oversized_matrix_before_allocating(self, monkeypatch):
        # 64 MiB stands in for the limit: a 2 GiB matrix needs n near 10^4
        monkeypatch.setattr(fraccore, "MAX_FACTOR_STACK_BYTES", 64 * 2**20)
        n, K = 64, 2047  # (K + 2) * n * n * 8 bytes is just over 64 MiB
        assert n * n * K * (K + 1) // 2 <= MAX_SIMULATION_WORK  # the byte limit refuses
        system = FracSystem(np.eye(n), np.full(n, 0.5), K)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GiB limit; lower the horizon"):
                is_observable_numeric(system, range(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_limits_admit_a_test_at_the_limit(self, monkeypatch):
        n, m, K = 3, 2, 40
        system = FracSystem(np.full((n, n), 0.2), [0.5, 1.0, 1.5], K)
        longer = FracSystem(system.A, system.alpha, K + 1)
        monkeypatch.setattr(fraccore, "MAX_SIMULATION_WORK", n * m * K * (K + 1) // 2)
        is_observable_numeric(system, {0, 2})
        with pytest.raises(ValueError, match="memory-term operations"):
            is_observable_numeric(longer, {0, 2})
        monkeypatch.undo()
        monkeypatch.setattr(fraccore, "MAX_FACTOR_STACK_BYTES", (K + 2) * m * n * 8)
        is_observable_numeric(system, {0, 2})
        with pytest.raises(ValueError, match="GiB limit"):
            is_observable_numeric(longer, {0, 2})

    def test_no_dimension_cap(self):
        n = 600  # above MAX_DENSE_DIMENSION, which transition_factors keeps
        rng = np.random.default_rng(10)
        system = FracSystem(rng.normal(0.0, 1.0 / math.sqrt(n), (n, n)), np.full(n, 0.8), 8)
        assert is_observable_numeric(system, {0}) is False  # 10 rows cannot reach rank 600
        assert is_observable_numeric(system, range(n)) is True


class TestFracSystemValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FracSystem(np.eye(2), [0.5], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coupling_matrix(self, bad):
        with pytest.raises(ValueError, match="coupling matrix entry must be finite"):
            FracSystem([[bad, 0.0], [0.0, 1.0]], [0.5, 0.5], 3)

    def test_nonpositive_order(self):
        with pytest.raises(ValueError):
            FracSystem(np.eye(2), [0.5, 0.0], 1)

    def test_negative_horizon(self):
        with pytest.raises(ValueError):
            FracSystem(np.eye(2), [0.5, 0.5], -1)

    def test_rejects_a_float_horizon(self):
        with pytest.raises(TypeError):
            FracSystem(np.eye(2), [0.5, 0.5], horizon=2.2)
        assert type(FracSystem(np.eye(2), [0.5, 0.5], np.int64(2)).horizon) is int

    def test_default_horizon_is_dimension(self):
        assert FracSystem(np.eye(4), np.full(4, 0.5)).horizon == 4
