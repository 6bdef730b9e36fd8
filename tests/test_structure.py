import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracplace import (
    FracSystem,
    Pattern,
    RealizationConfig,
    condense,
    draw_orders,
    non_accessible_states,
    pattern_of,
    random_realization,
    transition_factors,
    transition_union,
)

from conftest import identity_columns, pattern_array, random_pattern

entry_sets = st.sets(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=22
)


def per_bit_columns(mask: int) -> list:
    """Set-bit indices of ``mask``, ascending, one bit at a time."""
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def quotient_edges(cond) -> set:
    """The quotient DAG's edges (a, b): a state of SCC a has an edge into SCC b."""
    scc_of = cond.scc_of
    return {
        (scc_of[j], scc_of[i])
        for i, row in enumerate(cond.pattern.rows)
        for j in per_bit_columns(row)
        if scc_of[j] != scc_of[i]
    }


def walk_union_oracle(pattern: Pattern, max_len: int) -> set:
    """(i, j) iff j has a walk of length 1..max_len to i; BFS per source."""
    n = pattern.nrows
    out = [[] for _ in range(n)]
    for i, j in pattern.entries:
        out[j].append(i)
    result = set()
    for src in range(n):
        dist = {}
        frontier = [src]
        d = 0
        while frontier and d < max_len:
            d += 1
            nxt = []
            for u in frontier:
                for v in out[u]:
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        for v in dist:
            result.add((v, src))
    return result


def transition_patterns(pattern: Pattern, horizon: int, tail_lengths=None) -> list:
    """Predicted per-step patterns of the transition factors T_0..T_K.

    Mirrors the factor recurrence in boolean arithmetic: the coupling term
    applies the base pattern, and each live memory tail re-injects the
    rows of an earlier factor.  ``tail_lengths[i]`` caps how many tail
    coefficients are nonzero for state i (an integer order ``a`` keeps
    only tails j with j + 1 <= a); ``None`` entries mean a generic,
    unbounded tail.
    """
    n = pattern.nrows

    def alive(state: int, j: int) -> bool:
        if tail_lengths is None or tail_lengths[state] is None:
            return True
        return j + 1 <= tail_lengths[state]

    steps = [list(pattern.rows)]
    for k in range(1, horizon + 1):
        rows = [0] * n
        for i, j in pattern.entries:  # P o T_{k-1}
            rows[i] |= steps[k - 1][j]
        for j in range(1, k):
            prev = steps[k - 1 - j]
            for i in range(n):
                if alive(i, j):
                    rows[i] |= prev[i]
        steps.append(rows)
    return [Pattern.from_masks(n, n, masks) for masks in steps]


class TestPattern:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            Pattern(2, 2, [(2, 0)])

    def test_transpose(self):
        p = Pattern(2, 3, [(0, 2), (1, 0)])
        assert p.transpose().entries == frozenset({(2, 0), (0, 1)})

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.2, 0.6, 1.0])
    def test_transpose_matches_the_entries(self, density):
        # dense patterns go through the binary numerals, sparse ones by entry
        rng = np.random.default_rng(int(density * 100))
        for nrows, ncols in ((1, 1), (1, 9), (9, 1), (7, 65), (70, 13)):
            bits = rng.random((nrows, ncols)) < density
            p = Pattern(nrows, ncols, zip(*np.nonzero(bits)))
            t = p.transpose()
            assert (t.nrows, t.ncols) == (ncols, nrows)
            assert t.entries == frozenset((c, r) for r, c in p.entries)

    def test_identity_columns(self):
        p = identity_columns(4, [2, 0])
        assert p.nrows == 4 and p.ncols == 2
        assert p.entries == frozenset({(0, 0), (2, 1)})

    def test_from_masks_rejects_bad_masks(self):
        for masks in ([1], [1, 2, 0], [-1, 0], [0, 1 << 3]):
            with pytest.raises(ValueError):
                Pattern.from_masks(2, 3, masks)

    def test_from_masks_accepts_no_rows(self):
        p = Pattern.from_masks(0, 5, [])
        assert (p.nrows, p.ncols, p.rows) == (0, 5, ())

    def test_rejects_non_integral_input(self):
        # a float is refused, not truncated to the index below it
        with pytest.raises(TypeError):
            Pattern(1, 3, [(0, 2.9)])
        with pytest.raises(TypeError):
            Pattern.from_masks(1, 3, [2.9])
        with pytest.raises(TypeError):
            Pattern(2.7, 3)

    def test_identity_columns_rejects_a_float_state(self):
        with pytest.raises(TypeError):
            identity_columns(3, [0.6])
        assert identity_columns(3, [np.int64(2)]) == Pattern(3, 1, [(2, 0)])

    def test_accepts_numpy_ints_and_bools(self):
        p = Pattern(np.int64(2), np.uint8(3), [(np.int32(1), np.int64(2)), (True, False)])
        assert p == Pattern(2, 3, [(1, 2), (1, 0)])
        q = Pattern.from_masks(np.int64(2), 3, [np.uint64(5), True])
        assert q.rows == (5, 1) and all(type(m) is int for m in q.rows)

    def test_masks_and_entries_agree(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_pattern(rng, int(rng.integers(1, 12)), rng.uniform(0.0, 0.6))
            masks = [sum(1 << c for r, c in p.entries if r == row) for row in range(p.nrows)]
            q = Pattern.from_masks(p.nrows, p.ncols, masks)
            assert q == p and hash(q) == hash(p)
            assert Pattern(p.nrows, p.ncols, q.entries) == p
            assert q.count == len(p.entries)
        assert Pattern(2, 3, [(0, 1)]) != Pattern(3, 2, [(0, 1)])

    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65, 300])
    def test_row_columns_match_a_per_bit_oracle(self, width):
        # densities on both sides of the dense/sparse switch, and full rows
        rng = np.random.default_rng(width)
        masks = [0, (1 << width) - 1]
        if width:
            masks.append(1 << (width - 1))  # the top bit alone
        for density in (0.01, 0.05, 0.1, 0.125, 0.2, 0.5, 0.9):
            for top in (False, True):
                bits = rng.random(width) < density
                if width and top:
                    bits[-1] = True
                masks.append(sum(1 << c for c in np.flatnonzero(bits).tolist()))
        p = Pattern.from_masks(len(masks), width, masks)
        assert p.row_columns() == [per_bit_columns(m) for m in masks]

    def test_to_array_roundtrip(self):
        p = Pattern(3, 2, [(0, 1), (2, 0)])
        assert pattern_of(pattern_array(p)).entries == p.entries


class TestPatternOf:
    def test_zero_matrix(self):
        assert pattern_of(np.zeros((3, 3))).entries == frozenset()

    def test_identity(self):
        assert pattern_of(np.eye(2)).entries == frozenset({(0, 0), (1, 1)})

    def test_threshold_semantics(self):
        M = np.array([[0.0, 1e-15], [2.0, 0.0]])
        assert pattern_of(M, 1e-12).entries == frozenset({(1, 0)})

    def test_negative_tolerance(self):
        # nan < 0 is False, so a non-finite tolerance needs its own check
        for tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                pattern_of(np.eye(2), tol)

    def test_rows_and_arrays_match_numpy_threshold(self):
        rng = np.random.default_rng(31)
        values = [0.0, -0.0, 1e-13, -1e-12, 2e-12, 0.25, -0.5, 3.0]
        for _ in range(40):
            M = rng.choice(values, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            for tol in (0.0, 1e-12, 0.3):
                rows, cols = np.nonzero(np.abs(M) > tol)
                want = Pattern(*M.shape, zip(rows.tolist(), cols.tolist()))
                assert pattern_of(M, tol) == want
                assert pattern_of(M.tolist(), tol) == want

    def test_a_nan_entry_raises_naming_its_position(self):
        # NaN is never above the threshold, so it was dropped without a word
        nan = float("nan")
        for M in ([[nan, 1.0], [0.0, 0.0]], np.array([[0.0, 1.0], [0.0, nan]])):
            with pytest.raises(ValueError, match="NaN"):
                pattern_of(M)
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            pattern_of([[0.0, 1.0], [0.0, nan]], 0.5)
        assert pattern_of([[float("inf"), 0.0], [0.0, 0.0]]).entries == {(0, 0)}

    def test_ragged_rows(self):
        with pytest.raises(ValueError):
            pattern_of([[1.0, 0.0], [1.0]])
        with pytest.raises(ValueError):
            pattern_of([[1.0], [1.0, 1.0]])


class TestTransitionUnion:
    def test_chain(self, chain3):
        got = transition_union(chain3, 2)
        assert got.entries == frozenset({(1, 0), (2, 1), (2, 0)})

    def test_empty(self):
        assert transition_union(Pattern(4, 4), 9).entries == frozenset()

    def test_zero_horizon_is_base_pattern(self, chain3):
        assert transition_union(chain3, 0).entries == chain3.entries

    def test_long_horizon_is_reachability_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            pat = random_pattern(rng, n, rng.uniform(0.1, 0.5))
            got = transition_union(pat, n - 1)
            assert got.entries == frozenset(walk_union_oracle(pat, n))

    @given(entries=entry_sets, horizon=st.integers(0, 10))
    @settings(max_examples=150, deadline=None)
    def test_equals_boolean_power_union(self, entries, horizon):
        pat = Pattern(7, 7, entries)
        got = transition_union(pat, horizon)
        assert got.entries == frozenset(walk_union_oracle(pat, horizon + 1))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            transition_union(Pattern(2, 3), 1)

    @pytest.mark.parametrize("horizon", [0, 1, 2, 3, 4, 8])
    def test_transposes_only_on_the_closure_route(self, monkeypatch, horizon):
        # below K = n - 1 the stepwise union runs on the pattern itself; at
        # K >= n - 1 the base is transposed once, for its condensation
        calls = []
        transpose = Pattern.transpose

        def counted(pattern):
            calls.append(pattern)
            return transpose(pattern)

        pattern = Pattern(4, 4, [(1, 0), (2, 1), (0, 2), (3, 3)])
        monkeypatch.setattr(Pattern, "transpose", counted)
        got = transition_union(pattern, horizon)
        assert calls == ([pattern] if horizon >= 3 else [])
        assert got.entries == frozenset(walk_union_oracle(pattern, horizon + 1))

    def test_rejects_a_float_horizon(self, chain3):
        # refused, not truncated to K = 1, on both routes
        for horizon in (1.7, 3.0):
            with pytest.raises(TypeError):
                transition_union(chain3, horizon)
        assert transition_union(chain3, np.int64(1)) == transition_union(chain3, 1)


class TestTransitionPatterns:
    def test_first_step_is_base(self, chain3):
        assert transition_patterns(chain3, 3)[0].entries == chain3.entries

    def test_union_of_steps_matches_union(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            K = int(rng.integers(0, 9))
            pat = random_pattern(rng, n, rng.uniform(0.1, 0.5))
            steps = transition_patterns(pat, K)
            merged = frozenset().union(*(s.entries for s in steps))
            assert merged == transition_union(pat, K).entries

    def test_union_unchanged_by_integer_order_caps(self):
        # dead tails can thin individual steps but never the union, since
        # every step still contains the pure power of the base pattern
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            K = int(rng.integers(1, 8))
            pat = random_pattern(rng, n, rng.uniform(0.15, 0.5))
            caps = [int(rng.integers(0, 3)) if rng.random() < 0.5 else None for _ in range(n)]
            steps = transition_patterns(pat, K, tail_lengths=caps)
            merged = frozenset().union(*(s.entries for s in steps))
            assert merged == transition_union(pat, K).entries

    def test_all_dead_tails_give_pure_powers(self):
        rng = np.random.default_rng(21)
        pat = random_pattern(rng, 6, 0.3)
        steps = transition_patterns(pat, 5, tail_lengths=[0] * 6)
        masks = pat.rows
        power = Pattern.from_masks(6, 6, masks)
        for k in range(6):
            assert steps[k].entries == power.entries
            nxt = []
            for i in range(6):
                acc = 0
                m = masks[i]
                pm = power.rows
                while m:
                    low = m & -m
                    acc |= pm[low.bit_length() - 1]
                    m ^= low
                nxt.append(acc)
            power = Pattern.from_masks(6, 6, nxt)

    def test_numeric_factor_patterns_within_prediction(self):
        # realized factor patterns never exceed the boolean prediction, and
        # match it in almost every random trial (no generic cancellation)
        rng = np.random.default_rng(12)
        cfg = RealizationConfig()
        equal = 0
        trials = 100
        for _ in range(trials):
            n = int(rng.integers(2, 7))
            K = int(rng.integers(1, 7))
            pat = random_pattern(rng, n, rng.uniform(0.15, 0.6))
            M = random_realization(pat, cfg, rng)
            alpha = draw_orders(n, cfg, rng)
            seq = transition_factors(FracSystem(M, alpha, K))
            predicted = transition_patterns(pat, K)
            ok = True
            for k in range(K + 1):
                realized = pattern_of(seq[k], 1e-12)
                assert realized.entries <= predicted[k].entries
                if realized.entries != predicted[k].entries:
                    ok = False
            equal += ok
        assert equal >= 0.99 * trials


class TestCondense:
    def test_chain(self, chain3):
        cond = condense(chain3)
        assert cond.sccs == (frozenset({0}), frozenset({1}), frozenset({2}))
        assert cond.scc_of == (0, 1, 2)
        assert quotient_edges(cond) == {(0, 1), (1, 2)}
        assert cond.sink_sccs == frozenset({2})

    def test_two_cycle(self):
        cond = condense(Pattern(2, 2, [(0, 1), (1, 0)]))
        assert cond.sccs == (frozenset({0, 1}),)
        assert cond.sink_sccs == frozenset({0})

    def test_empty_pattern(self):
        cond = condense(Pattern(4, 4))
        assert len(cond.sccs) == 4
        assert quotient_edges(cond) == set()
        assert cond.sink_sccs == frozenset({0, 1, 2, 3})

    @given(entries=entry_sets)
    @settings(max_examples=150, deadline=None)
    def test_partition_and_acyclicity(self, entries):
        pat = Pattern(7, 7, entries)
        cond = condense(pat)
        members = [v for scc in cond.sccs for v in scc]
        assert sorted(members) == list(range(7))
        # quotient graph must be acyclic: repeated sink-stripping succeeds
        remaining = set(range(len(cond.sccs)))
        edges = quotient_edges(cond)
        while remaining:
            sinks = {v for v in remaining if not any(a == v for a, _ in edges)}
            assert sinks, "quotient graph has a cycle"
            remaining -= sinks
            edges = {(a, b) for a, b in edges if a not in sinks and b not in sinks}
        # every quotient edge runs forward in the topological order
        assert sorted(cond.order) == list(range(len(cond.sccs)))
        rank = {cid: k for k, cid in enumerate(cond.order)}
        assert all(rank[a] < rank[b] for a, b in quotient_edges(cond))

    def test_flags_against_reachability_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            pat = random_pattern(rng, n, rng.uniform(0.05, 0.5))
            cond = condense(pat)
            # naive O(n^3) mutual-reachability partition
            reaches = walk_union_oracle(pat, n)
            for a in range(n):
                for b in range(n):
                    same = cond.scc_of[a] == cond.scc_of[b]
                    mutual = a == b or (
                        (a, b) in reaches and (b, a) in reaches
                    )
                    assert same == mutual
            # a sink SCC has no edge leaving it
            for cid, scc in enumerate(cond.sccs):
                leaving = any(
                    j in scc and i not in scc for i, j in pat.entries
                )
                assert (cid in cond.sink_sccs) == (not leaving)


    @pytest.mark.parametrize("horizon", [0, 1, 2, "n"])
    def test_union_has_the_base_condensation(self, horizon):
        # every union edge is a base walk and every base edge a union edge
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            pat = random_pattern(rng, n, rng.uniform(0.0, 3.0 / n))
            base = condense(pat)
            union = condense(transition_union(pat, n if horizon == "n" else horizon))
            assert union.scc_of == base.scc_of
            assert union.sccs == base.sccs
            assert union.sink_sccs == base.sink_sccs


class TestNonAccessible:
    def test_chain_sink_sensor(self, chain3):
        assert non_accessible_states(chain3, {2}) == frozenset()

    def test_chain_source_sensor(self, chain3):
        assert non_accessible_states(chain3, {0}) == frozenset({1, 2})

    def test_full_sensor_set(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            pat = random_pattern(rng, 5, rng.uniform(0.0, 0.6))
            assert non_accessible_states(pat, range(5)) == frozenset()

    def test_empty_sensor_set(self):
        assert non_accessible_states(Pattern(3, 3), set()) == frozenset({0, 1, 2})

    def test_rejects_a_float_sensor(self, chain3):
        with pytest.raises(TypeError):
            non_accessible_states(chain3, [1.5])

    def test_matches_sink_scc_coverage(self):
        # no non-accessible state iff every sink SCC can reach a sensor,
        # which for sinks means containing one
        rng = np.random.default_rng(14)
        for _ in range(80):
            n = int(rng.integers(2, 11))
            pat = random_pattern(rng, n, rng.uniform(0.05, 0.5))
            sensors = {int(s) for s in rng.choice(n, size=rng.integers(0, n + 1), replace=False)}
            cond = condense(pat)
            blocked = non_accessible_states(pat, sensors)
            sinks_covered = all(
                cond.sccs[cid] & sensors for cid in cond.sink_sccs
            )
            assert (not blocked) == sinks_covered

    def test_matches_matrix_power_reachability(self):
        rng = np.random.default_rng(15)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            pat = random_pattern(rng, n, rng.uniform(0.0, 0.4))
            sensors = {int(s) for s in rng.choice(n, size=rng.integers(0, n), replace=False)}
            adj = pattern_array(pat, int)  # adj[i, j] = 1: an edge from state j to state i
            reach = np.eye(n, dtype=int)  # reach[i, j] = 1: a walk from j to i
            for _ in range(n):
                reach = np.minimum(reach + adj @ reach, 1)
            blocked = {j for j in range(n) if not any(reach[s, j] for s in sensors)}
            assert non_accessible_states(pat, sensors) == frozenset(blocked)
