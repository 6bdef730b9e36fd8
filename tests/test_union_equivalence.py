"""The union read off the SCC condensation against the stepwise union.

For K >= n - 1, ``transition_union``, ``minimal_sensors`` and
``verify_observability`` take the union and its transpose from
``structure._closure_union``.  The stepwise loop ``_stepwise_union``, one
boolean product per step, is exact at every horizon and serves as the
oracle: both routes must give the same patterns, and the same placement
report, certificate and quotient DAG.
"""

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

import fracplace.placement
from fracplace import Pattern, condense, minimal_sensors, transition_union, verify_observability
from fracplace.structure import _closure_union, _stepwise_union
from fracplace.sweep import _random_pattern
from fracplace.sysfile import parse_system_file

from conftest import random_pattern

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def horizons(n):
    return sorted({k for k in (0, 1, 2, n - 2, n - 1, n, 2 * n) if k >= 0})


def chain(n):
    return Pattern(n, n, ((i + 1, i) for i in range(n - 1)))


def cycle(n):
    return Pattern(n, n, (((i + 1) % n, i) for i in range(n)))


def golden_patterns():
    files = json.loads(GOLDEN.read_text())["files"]
    return [parse_system_file(text).pattern_at() for _, text in sorted(files.items())]


def shaped_patterns():
    out = [Pattern(0, 0), Pattern(1, 1), Pattern(1, 1, [(0, 0)])]
    for n in (2, 3, 7, 40):
        out += [chain(n), cycle(n), Pattern.identity(n), Pattern(n, n)]
        # a chain feeding a cycle, with a self-loop on the chain's head
        out.append(Pattern(n, n, [(i + 1, i) for i in range(n - 1)] + [(0, n - 1), (n // 2, n // 2)]))
    return out + golden_patterns()


def random_patterns(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 33))
        out.append(random_pattern(rng, n, rng.uniform(0.0, 4.0) / n))
    return out


def assert_same_union(pattern):
    n = pattern.nrows
    closure, closure_t = _closure_union(condense(pattern))
    for k in horizons(n):
        want = _stepwise_union(pattern, k)
        assert transition_union(pattern, k) == want, (pattern, k)
        if k >= n - 1:
            assert closure == want, (pattern, k)
            assert closure_t == want.transpose(), (pattern, k)


@pytest.mark.parametrize("pattern", shaped_patterns(), ids=repr)
def test_shaped_unions(pattern):
    assert_same_union(pattern)


def test_random_unions():
    for pattern in random_patterns(600, 11):
        assert_same_union(pattern)


def test_ladder_shaped_unions():
    # one giant SCC and many small ones, as in the benchmark's patterns
    rng = np.random.default_rng(3)
    for n in (64, 128):
        for sparsity in (1 - 5.12 / n, 1 - 1 / n):
            assert_same_union(_random_pattern(n, sparsity, rng))


@contextlib.contextmanager
def stepwise_route(monkeypatch):
    """Within this context a placement builds its union step by step and transposes it."""
    with monkeypatch.context() as m:
        m.setattr(fracplace.placement, "_saturates", lambda *args: False)
        m.setattr(fracplace.placement, "transition_union", _stepwise_union)
        yield


def assert_same_report(got, want):
    assert got.sensors == want.sensors
    assert got.g_union == want.g_union
    assert got.beta == want.beta
    assert got.matching_cardinality == want.matching_cardinality
    assert got.covered_sccs == want.covered_sccs
    assert got.certificate == want.certificate
    assert got.condensation == want.condensation
    assert got.condensation.dag_edges == want.condensation.dag_edges


def test_same_placements(monkeypatch):
    patterns = shaped_patterns() + random_patterns(200, 12)
    for pattern in patterns:
        n = pattern.nrows
        for k in {max(n - 1, 0), n, 2 * n}:
            got = minimal_sensors(pattern, k)
            with stepwise_route(monkeypatch):
                want = minimal_sensors(pattern, k)
            assert_same_report(got, want)


def test_same_certificates(monkeypatch):
    # condition (i) is read off the descendant masks on the closure route
    rng = np.random.default_rng(13)
    deficient = blocked = 0
    for pattern in shaped_patterns() + random_patterns(200, 14):
        n = pattern.nrows
        for _ in range(3):
            sensors = {int(s) for s in np.flatnonzero(rng.random(n) < rng.uniform(0, 0.5))}
            got = verify_observability(pattern, n, sensors)
            with stepwise_route(monkeypatch):
                want = verify_observability(pattern, n, sensors)
            assert got == want
            deficient += not got.condition_ii
            blocked += not got.condition_i
    assert deficient and blocked


def test_closure_route_rejects_bad_sensors():
    with pytest.raises(ValueError, match="sensor index 3 outside 0..2"):
        verify_observability(chain(3), 3, {3})
    with pytest.raises(ValueError, match="sensor index -1 outside 0..2"):
        verify_observability(chain(3), 3, {-1})
