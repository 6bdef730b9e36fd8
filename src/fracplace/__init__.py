"""Minimum dedicated sensor placement for structural observability of
discrete-time fractional-order linear systems.

The numeric layer (:mod:`fracplace.fraccore`) simulates systems and tests
observability of concrete realizations; the structural layer
(:mod:`fracplace.structure`, :mod:`fracplace.matching`,
:mod:`fracplace.placement`) works on zero/nonzero patterns only and
computes provably minimal dedicated sensor sets.  :mod:`fracplace.oracle`
holds independent brute-force checks used by the test suite, and
:mod:`fracplace.cli` exposes the ``fracplace`` command.

State indices are 0-based throughout the Python API; the file format and
the command line use 1-based indices.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it: the one list of
# public names, which each submodule's ``__all__`` reads.  Names resolve on
# first access (PEP 562), so ``import fracplace`` loads no submodule and
# the structural commands never load numpy or the test oracles.
_EXPORTS = {
    "fraccore": (
        "FracSystem",
        "GlCoefficients",
        "TransitionSequence",
        "Trajectory",
        "gl_coefficient",
        "gl_tails",
        "transition_factors",
        "simulate",
        "numeric_rank",
        "is_observable_numeric",
    ),
    "structure": (
        "Pattern",
        "Condensation",
        "pattern_of",
        "transition_union",
        "condense",
        "non_accessible_states",
    ),
    "matching": (
        "WeightedBipartite",
        "Matching",
        "max_matching",
        "min_weight_max_matching",
    ),
    "placement": (
        "SensorSet",
        "Certificate",
        "PlacementReport",
        "sink_scc_columns",
        "minimal_sensors",
        "verify_observability",
    ),
    "oracle": (
        "RealizationConfig",
        "random_realization",
        "draw_orders",
        "exhaustive_min_placement",
        "enumerate_matchings",
    ),
    "sweep": ("SweepSpec", "SweepRow", "run_sweep"),
    "sysfile": ("SystemFile", "parse_system_file", "load_system_file"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
