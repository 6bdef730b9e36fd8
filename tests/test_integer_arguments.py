"""The one rule for a bounded integer argument.

Every count, dimension, horizon, index and seed that the package takes
from a caller goes through ``operator.index`` and is checked against its
lower bound: a float raises TypeError instead of being truncated, a value
below the bound raises ValueError with that argument's own message, and a
numpy integer at the bound is accepted.
"""

import numpy as np
import pytest

from fracplace import (
    FracSystem,
    Pattern,
    RealizationConfig,
    SweepSpec,
    WeightedBipartite,
    draw_orders,
    gl_coefficient,
    simulate,
    transition_union,
)

SYSTEM = FracSystem(np.eye(2), [0.5, 0.5], 3)

# argument -> (a call taking its value, lower bound, message below the bound)
BOUNDED = {
    "Pattern-nrows": (lambda v: Pattern(v, 2), 0, "pattern dimensions must be non-negative"),
    "Pattern-ncols": (lambda v: Pattern(2, v), 0, "pattern dimensions must be non-negative"),
    "WeightedBipartite-n_rows": (lambda v: WeightedBipartite(v, 2), 0, "graph dimensions must be non-negative"),
    "WeightedBipartite-n_cols": (lambda v: WeightedBipartite(2, v), 0, "graph dimensions must be non-negative"),
    "transition_union-horizon": (lambda v: transition_union(Pattern(2, 2), v), 0, "horizon must be >= 0"),
    "FracSystem-horizon": (lambda v: FracSystem(np.eye(2), [0.5, 0.5], v), 0, "horizon must be >= 0"),
    "gl_coefficient-j": (lambda v: gl_coefficient(0.5, v), 1, "tail index j must be >= 1"),
    "simulate-steps": (lambda v: simulate(SYSTEM, np.ones(2), v), 0, "steps must be >= 0"),
    "SweepSpec-trials": (lambda v: SweepSpec((0.5,), v, n=4), 1, "need at least one trial per level"),
    "SweepSpec-n": (lambda v: SweepSpec((0.5,), 1, n=v), 1, "state dimension must be positive"),
    "SweepSpec-horizon": (lambda v: SweepSpec((0.5,), 1, n=4, horizon=v), 0, "horizon must be >= 0"),
    "SweepSpec-seed": (lambda v: SweepSpec((0.5,), 1, n=4, seed=v), 0, "seed must be >= 0"),
    "RealizationConfig-seed": (lambda v: RealizationConfig(seed=v), 0, "seed must be >= 0"),
    "draw_orders-n": (lambda v: draw_orders(v, RealizationConfig()), 0, "n must be >= 0"),
}


@pytest.mark.parametrize("call, low, message", BOUNDED.values(), ids=BOUNDED.keys())
def test_bounded_integer_argument(call, low, message):
    call(np.int64(low))
    with pytest.raises(TypeError):
        call(low + 1.0)
    with pytest.raises(ValueError) as info:
        call(low - 1)
    assert str(info.value) == message
