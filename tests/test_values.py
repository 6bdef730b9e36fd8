"""The value-type contract of the package's immutable records.

Each record compares, hashes and prints by its compared fields, in order;
a record of another class, a subclass included, is never equal to it.
Its attributes cannot be assigned or deleted, and it survives pickle and
copy.  Records that hold numpy arrays are unhashable, as their arrays are.
"""

import copy
import pickle

import numpy as np
import pytest

from fracplace import (
    Certificate,
    Condensation,
    FracSystem,
    GlCoefficients,
    Matching,
    Pattern,
    PlacementReport,
    RealizationConfig,
    SensorSet,
    SweepSpec,
    SystemFile,
    Trajectory,
    TransitionSequence,
    WeightedBipartite,
    condense,
    minimal_sensors,
    parse_system_file,
)

CHAIN = "fracsys 1\nn 3\nalpha 0.5\nmatrix pattern\n2 1\n3 2\nend\n"
RING = "fracsys 1\nn 3\nalpha 0.5\nmatrix pattern\n2 1\n3 2\n1 3\nend\n"


def chain(n):
    return Pattern(n, n, ((i + 1, i) for i in range(n - 1)))


def one(value):
    # a 1-element array: comparing two of them has a plain truth value
    return np.full((1, 1), value)


# class -> (compared fields in order, a builder taking a variant flag):
# two builds with one flag are equal, the two flags give unequal values
CASES = {
    Pattern: (("nrows", "ncols", "rows"), lambda v: Pattern(2, 3, [(0, 1), (1, 2 - v)])),
    Condensation: (("scc_of", "sccs", "sink_sccs"), lambda v: condense(chain(3 + v))),
    WeightedBipartite: (
        ("n_rows", "n_cols", "free", "unit"),
        lambda v: WeightedBipartite(2, 2, [(0, 0, 0), (1, 1, 1 - v)]),
    ),
    Matching: (("pairs", "total_weight"), lambda v: Matching([(0, 0), (1, 1)], v)),
    SensorSet: (("j_prime", "j_double", "j_triple"), lambda v: SensorSet({0}, {1}, {2 + v})),
    Certificate: (
        ("condition_i", "condition_ii", "non_accessible", "matching_deficiency"),
        lambda v: Certificate(True, not v, frozenset({1}), v),
    ),
    PlacementReport: (
        (
            "sensors",
            "union_t",
            "condensation",
            "beta",
            "matching_cardinality",
            "covered_sccs",
            "certificate",
        ),
        lambda v: minimal_sensors(chain(3 + v), 2),
    ),
    SystemFile: (
        ("n", "orders", "kind", "values", "pattern", "horizon"),
        lambda v: parse_system_file(RING if v else CHAIN),
    ),
    FracSystem: (("A", "alpha", "horizon"), lambda v: FracSystem(one(0.5), [0.7], 2 + v)),
    GlCoefficients: (("table",), lambda v: GlCoefficients(one(0.1 + v))),
    TransitionSequence: (("stack",), lambda v: TransitionSequence(np.full((1, 1, 1), v))),
    Trajectory: (("states",), lambda v: Trajectory(one(v))),
    SweepSpec: (
        ("levels", "trials", "n", "base_matrix", "horizon", "seed"),
        lambda v: SweepSpec(levels=(0.5,), trials=2, n=3, seed=v),
    ),
    RealizationConfig: (
        ("magnitude_range", "random_signs", "order_range", "seed"),
        lambda v: RealizationConfig(seed=v),
    ),
}
HOLDS_ARRAYS = {FracSystem, GlCoefficients, TransitionSequence, Trajectory}
params = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@params
def test_equality_and_hash_follow_the_compared_fields(cls):
    _, build = CASES[cls]
    a, b, c = build(0), build(0), build(1)
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    if cls in HOLDS_ARRAYS:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@params
def test_another_class_is_never_equal(cls):
    fields, build = CASES[cls]
    a = build(0)
    twin_class = type("Twin", (cls,), {})
    twin = twin_class.__new__(twin_class)
    twin.__dict__.update(vars(a))  # the same fields, in a subclass
    assert a.__eq__(twin) is NotImplemented and a != twin and twin != a
    assert a != tuple(getattr(a, name) for name in fields)
    assert a.__eq__(object()) is NotImplemented


def test_condensation_ignores_order_and_pattern():
    cond = condense(Pattern(2, 2, [(0, 0)]))
    same = Condensation(cond.scc_of, cond.sccs, cond.sink_sccs, cond.order[::-1], chain(2))
    assert same == cond and hash(same) == hash(cond) and repr(same) == repr(cond)
    assert "order" not in repr(cond) and "pattern" not in repr(cond)


@params
def test_repr_names_the_compared_fields(cls):
    fields, build = CASES[cls]
    a = build(0)
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__name__}({shown})"


@params
def test_attributes_cannot_be_assigned_or_deleted(cls):
    fields, build = CASES[cls]
    a = build(0)
    names = fields + (("order", "pattern") if cls is Condensation else ()) + ("extra",)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == build(0)


@params
def test_pickle_and_copy_round_trip(cls):
    fields, build = CASES[cls]
    a = build(0)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a
        assert vars(b).keys() == vars(a).keys()
        with pytest.raises(AttributeError):
            setattr(b, fields[0], None)
    if cls is Condensation:
        b = pickle.loads(pickle.dumps(a))
        assert b.order == a.order and b.pattern == a.pattern
