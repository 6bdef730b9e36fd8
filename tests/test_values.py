"""The value-type contract of the package's immutable records.

Each record compares, hashes and prints by its compared fields, in order;
a record of another class, a subclass included, is never equal to it.
Its attributes cannot be assigned or deleted, and it survives pickle and
copy.  Records that hold numpy arrays compare them by shape and entries,
are unhashable, as their arrays are, and keep them read-only through
pickle and copy.  Every record builds by position and by keyword, and a
missing, unknown, repeated or surplus field raises TypeError.
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


def square(value):
    # 2 x 2: == on two of these arrays has no plain truth value, so a record
    # holding them must compare them by shape and entries
    return np.full((2, 2), value)


def base_matrix_spec(v):
    return SweepSpec(levels=(0.5,), trials=2, base_matrix=square(v))


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
    FracSystem: (("A", "alpha", "horizon"), lambda v: FracSystem(square(0.5), [0.7, 0.7], 2 + v)),
    GlCoefficients: (("table",), lambda v: GlCoefficients(square(0.1 + v))),
    TransitionSequence: (("stack",), lambda v: TransitionSequence(np.full((1, 2, 2), v))),
    Trajectory: (("states",), lambda v: Trajectory(square(v))),
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
        for name in fields:
            value = getattr(b, name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
    if cls is Condensation:
        b = pickle.loads(pickle.dumps(a))
        assert b.order == a.order and b.pattern == a.pattern


def test_array_fields_compare_by_shape_and_entries():
    assert FracSystem(np.eye(2), [0.5, 0.5]) == FracSystem(np.eye(2), [0.5, 0.5])
    assert FracSystem(np.eye(2), [0.5, 0.5]) != FracSystem(np.eye(2), [0.5, 0.6])
    assert GlCoefficients(np.zeros((2, 2))) != GlCoefficients(np.zeros((1, 4)))
    assert Trajectory(np.zeros((2, 2))) != Trajectory(np.zeros((2, 3)))
    a, b, c = base_matrix_spec(0), base_matrix_spec(0), base_matrix_spec(1)
    assert a == b and a != c
    assert a != SweepSpec(levels=(0.5,), trials=2, n=2)
    with pytest.raises(TypeError):
        hash(a)


def test_a_base_matrix_stays_read_only_through_pickle_and_copy():
    a = base_matrix_spec(0)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is SweepSpec and b == a
        assert not b.base_matrix.flags.writeable


# class -> keyword arguments of one valid construction, in signature order
KEYWORDS = {
    Pattern: lambda: dict(nrows=2, ncols=3, entries=[(0, 1)]),
    Condensation: lambda: dict(
        scc_of=(0,), sccs=(frozenset({0}),), sink_sccs=frozenset({0}), order=(0,), pattern=chain(1)
    ),
    WeightedBipartite: lambda: dict(n_rows=1, n_cols=2, edges=[(0, 1, 1)]),
    Matching: lambda: dict(pairs=[(0, 1)], total_weight=1),
    SensorSet: lambda: dict(j_prime={0}, j_double={1}, j_triple={2}),
    Certificate: lambda: dict(
        condition_i=True, condition_ii=False, non_accessible=frozenset({1}), matching_deficiency=1
    ),
    PlacementReport: lambda: vars(minimal_sensors(chain(3), 2)).copy(),
    SystemFile: lambda: vars(parse_system_file(CHAIN)).copy(),
    FracSystem: lambda: dict(A=np.eye(2), alpha=[0.5, 0.7], horizon=3),
    GlCoefficients: lambda: dict(table=square(0.1)),
    TransitionSequence: lambda: dict(stack=np.zeros((2, 2, 2))),
    Trajectory: lambda: dict(states=square(1.0)),
    SweepSpec: lambda: dict(levels=(0.5,), trials=2, n=3, base_matrix=None, horizon=1, seed=4),
    RealizationConfig: lambda: dict(
        magnitude_range=(0.5, 1.0), random_signs=False, order_range=(0.9, 1.1), seed=3
    ),
}
# every argument has a default, so none can be missing
ALL_DEFAULTED = {SensorSet, RealizationConfig}


@params
def test_builds_by_position_and_by_keyword(cls):
    kwargs = KEYWORDS[cls]()
    first, *rest = kwargs
    a = cls(*kwargs.values())
    assert cls(**kwargs) == a
    assert cls(kwargs[first], **{name: kwargs[name] for name in rest}) == a
    if cls in (Certificate, PlacementReport, SystemFile):  # the shared constructor alone
        assert vars(a) == kwargs


@params
def test_a_missing_unknown_repeated_or_surplus_field_raises(cls):
    kwargs = KEYWORDS[cls]()
    first, *rest = kwargs
    values = list(kwargs.values())
    with pytest.raises(TypeError):
        cls(**kwargs, extra=None)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, None)
    if cls not in ALL_DEFAULTED:
        with pytest.raises(TypeError):
            cls(**{name: kwargs[name] for name in rest})


def test_the_shared_constructor_names_the_bad_field():
    kwargs = KEYWORDS[Certificate]()
    values = list(kwargs.values())
    for name in kwargs:
        with pytest.raises(TypeError, match=f"missing field '{name}'"):
            Certificate(**{k: v for k, v in kwargs.items() if k != name})
    with pytest.raises(TypeError, match="takes 4 fields"):
        Certificate(*values[:3])
    with pytest.raises(TypeError, match="takes 4 fields"):
        Certificate(*values, None)
    with pytest.raises(TypeError, match="unknown field 'witness'"):
        Certificate(*values, witness=None)
    with pytest.raises(TypeError, match="repeated field 'condition_i'"):
        Certificate(*values[:2], condition_i=True, **dict(list(kwargs.items())[2:]))
