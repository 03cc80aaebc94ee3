"""The contract of the twelve result and instance records.

Each record is an immutable named tuple: it builds by position and by
keyword with fixed defaults, refuses assignment, keeps no instance
__dict__, compares and hashes by value, and validates on every way of
building one, _replace included, with the messages it always had.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from knapagg import (
    BruteForceResult,
    CheckOutcome,
    DimensionMismatch,
    Evaluation,
    IPInstance,
    KnapsackInstance,
    KnapsackSolution,
    PointSet,
    Reduction,
    Solution,
    SolverBudget,
    ValidationError,
    VertexReport,
    build_knapsack,
    reduce,
)
from knapagg.aggregation import AggregatedRow

_INST = IPInstance(((1, 1, 0), (0, 1, 1)), (1, 1), (1, 1, 1))
_PTS = PointSet(3, ((0, 1, 0), (1, 0, 1)))

# (record, its required fields in order, {defaulted field: default})
RECORDS = [
    (IPInstance, (((1, 2),), (3,), (4, -5)), {"sense": "min"}),
    (Evaluation, ((0, -1), 3, False), {}),
    (Reduction, (_INST, (0, 1, 2), (), (), 3), {}),
    (AggregatedRow, (reduce(_INST), (1, 2), (1, 3, 2), 3), {}),
    (KnapsackInstance, ((1, 3), 3, (4, 5), 6, 0, 7, reduce(_INST)), {}),
    (SolverBudget, (), {"max_rhs": 10_000_000, "max_cells": 1_000_000_000}),
    (KnapsackSolution, ((0, 1, 0), 1, "optimal"), {"detail": None}),
    (
        Solution,
        ((0, 1, 0), 1, "optimal"),
        {"residual": None, "detail": None, "knapsack": None},
    ),
    (PointSet, (3, ((0, 1, 0), (1, 0, 1))), {}),
    (VertexReport, (_PTS, _PTS.points), {"witnesses": {}}),
    (BruteForceResult, ("optimal", 1, ((0, 1, 0),)), {}),
    (CheckOutcome, (True,), {"vacuous": False, "counterexample": None}),
]


_IDS = [spec[0].__name__ for spec in RECORDS]


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=_IDS)
def test_a_record_builds_by_position_and_keyword_with_its_defaults(cls, args, defaults):
    assert cls._fields[len(args):] == tuple(defaults)
    rec = cls(*args)
    assert tuple(rec) == args + tuple(defaults.values())
    for name, value in defaults.items():
        assert getattr(rec, name) == value
    assert cls(**dict(zip(cls._fields, args))) == rec
    assert cls(*args, *defaults.values()) == rec
    assert cls(**dict(zip(cls._fields, tuple(rec)))) == rec


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=_IDS)
def test_a_record_refuses_assignment_and_has_no_instance_dict(cls, args, defaults):
    rec = cls(*args)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert not hasattr(rec, "__dict__")
    assert cls.__slots__ == ()


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=_IDS)
def test_equal_fields_give_equal_records(cls, args, defaults):
    rec, twin = cls(*args), cls(*copy.deepcopy(args))
    assert rec == twin and not rec != twin
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert repr(rec).startswith(cls.__name__ + "(")
    if cls is VertexReport:  # its witnesses are a dict
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin)
    # a named tuple equals the plain tuple of its fields and unpacks like one
    assert rec == tuple(rec)
    *head, last = rec
    assert tuple(head) + (last,) == rec and rec[-1] is last


def test_records_with_different_fields_differ():
    assert IPInstance(((1,),), (1,), (1,)) != IPInstance(((1,),), (1,), (1,), "max")
    assert SolverBudget() != SolverBudget(max_cells=5)
    assert CheckOutcome(True) != CheckOutcome(True, vacuous=True)


_A = ((1, 2), (3, 4))

# (build, error, message): every check a record makes on construction
INVALID = [
    (
        lambda: IPInstance([(1,)], (1,), (1,)),
        ValidationError,
        "A must be a tuple of row tuples",
    ),
    (
        lambda: IPInstance(([1],), (1,), (1,)),
        ValidationError,
        "A must be a tuple of row tuples",
    ),
    (
        lambda: IPInstance((), (), ()),
        ValidationError,
        "at least one constraint row is required",
    ),
    (
        lambda: IPInstance(((1, 2), (3,)), (1, 1), (1, 1)),
        ValidationError,
        "rows of A must all have the same length",
    ),
    (
        lambda: IPInstance(((1, 2.0),), (1,), (1, 1)),
        ValidationError,
        "entries of A must be integers",
    ),
    (
        lambda: IPInstance(((1, -2),), (1,), (1, 1)),
        ValidationError,
        "entries of A must be nonnegative",
    ),
    (
        lambda: IPInstance(_A, (1,), (1, 1)),
        ValidationError,
        "b must have one entry per row of A",
    ),
    (
        lambda: IPInstance(_A, (1, "2"), (1, 1)),
        ValidationError,
        "entries of b must be integers",
    ),
    (
        lambda: IPInstance(_A, (1, -2), (1, 1)),
        ValidationError,
        "entries of b must be nonnegative",
    ),
    (
        lambda: IPInstance(_A, (1, 2), (1,)),
        ValidationError,
        "c must have one entry per column of A",
    ),
    (
        lambda: IPInstance(_A, (1, 2), (1, 0.5)),
        ValidationError,
        "entries of c must be integers",
    ),
    (
        lambda: IPInstance(_A, (1, 2), (1, 1), "MIN"),
        ValidationError,
        "sense must be 'min' or 'max'",
    ),
    (
        lambda: KnapsackInstance((1, 0), 3, (1, 1), 0, 0, 0, reduce(_INST)),
        ValidationError,
        "aggregated weights must be positive",
    ),
    (
        lambda: KnapsackInstance((1, 2), -1, (1, 1), 0, 0, 0, reduce(_INST)),
        ValidationError,
        "aggregated right-hand side must be nonnegative",
    ),
    (
        lambda: KnapsackInstance((1, 2), 3, (1,), 0, 0, 0, reduce(_INST)),
        ValidationError,
        "cost vector must match the weight vector",
    ),
    (
        lambda: KnapsackInstance((1, 2), 3, (1, -1), 0, 0, 0, reduce(_INST)),
        ValidationError,
        "penalized costs must be nonnegative",
    ),
    (lambda: SolverBudget(max_rhs=0), ValidationError, "budget caps must be positive"),
    (lambda: SolverBudget(max_cells=-1), ValidationError, "budget caps must be positive"),
    (
        lambda: PointSet(2, ((0, 1), (1,))),
        DimensionMismatch,
        "point dimension does not match the set",
    ),
    (lambda: PointSet(2, ((0, 1), (0, 1))), ValidationError, "points must be distinct"),
    # _replace builds through the same checks
    (
        lambda: _INST._replace(b=(1, -1)),
        ValidationError,
        "entries of b must be nonnegative",
    ),
    (
        lambda: build_knapsack(_INST)._replace(costs=(1,)),
        ValidationError,
        "cost vector must match the weight vector",
    ),
    (
        lambda: SolverBudget()._replace(max_rhs=0),
        ValidationError,
        "budget caps must be positive",
    ),
    (
        lambda: _PTS._replace(dim=2),
        DimensionMismatch,
        "point dimension does not match the set",
    ),
]


@pytest.mark.parametrize("build, error, message", INVALID)
def test_construction_refuses_invalid_fields_with_the_same_message(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_replace_and_make_keep_valid_records():
    assert _INST._replace(sense="max") == IPInstance(_INST.A, _INST.b, _INST.c, "max")
    assert SolverBudget._make((5, 6)) == SolverBudget(5, 6)
    assert PointSet._make((1, ((0,),))) == PointSet(1, ((0,),))


def test_each_vertex_report_gets_a_fresh_witness_dict():
    first, second = VertexReport(_PTS, ()), VertexReport(_PTS, ())
    assert first.witnesses == {} and second.witnesses == {}
    first.witnesses[(0, 1, 0)] = ()
    assert second.witnesses == {}
    assert VertexReport(_PTS, ()).witnesses == {}


def test_a_point_set_has_the_length_of_its_points():
    assert len(PointSet(2, ())) == 0
    assert not PointSet(2, ())
    assert len(PointSet(1, ((0,),))) == 1
    assert len(_PTS) == 2
    many = PointSet(2, tuple((i, 7 - i) for i in range(8)))
    assert len(many) == 8
    dim, points = many
    assert dim == 2 and len(points) == 8
