"""Equality-form integer program instances.

An instance is min (or max) c^T x subject to A x = b, x >= 0 integer, with
A and b nonnegative integers.  Everything here is exact: entries are Python
ints of arbitrary size, and the JSON interchange format carries every number
as a decimal string so no reader is tempted to round.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import namedtuple
from collections.abc import Sequence

from .errors import DimensionMismatch, ParseError, ValidationError

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

SENSE_MIN = "min"
SENSE_MAX = "max"

_INT_RE = re.compile(r"-?[0-9]+\Z")


class IPInstance(namedtuple("IPInstance", "A b c sense")):
    """One equality-form program: A (Matrix), b and c (Vectors), sense (str).

    Invariants enforced on construction: at least one row, rectangular A,
    matching lengths for b and c, A and b nonnegative, sense is "min" or
    "max".  Zero columns are legal here; `reduce` removes them before
    aggregation.  n = 0 is allowed so a fully reduced instance can still
    be represented; the parser rejects n = 0.
    """

    __slots__ = ()

    def __new__(cls, A, b, c, sense=SENSE_MIN):
        if not isinstance(A, tuple) or not all(isinstance(r, tuple) for r in A):
            raise ValidationError("A must be a tuple of row tuples")
        m = len(A)
        if m == 0:
            raise ValidationError("at least one constraint row is required")
        n = len(A[0])
        for row in A:
            if len(row) != n:
                raise ValidationError("rows of A must all have the same length")
            for v in row:
                if not isinstance(v, int):
                    raise ValidationError("entries of A must be integers")
                if v < 0:
                    raise ValidationError("entries of A must be nonnegative")
        if len(b) != m:
            raise ValidationError("b must have one entry per row of A")
        for v in b:
            if not isinstance(v, int):
                raise ValidationError("entries of b must be integers")
            if v < 0:
                raise ValidationError("entries of b must be nonnegative")
        if len(c) != n:
            raise ValidationError("c must have one entry per column of A")
        for v in c:
            if not isinstance(v, int):
                raise ValidationError("entries of c must be integers")
        if sense not in (SENSE_MIN, SENSE_MAX):
            raise ValidationError("sense must be 'min' or 'max'")
        return tuple.__new__(cls, (A, b, c, sense))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0])

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.A)

    @classmethod
    def from_rows(
        cls,
        A: Sequence[Sequence[int]],
        b: Sequence[int],
        c: Sequence[int],
        sense: str = SENSE_MIN,
    ) -> "IPInstance":
        return cls(tuple(tuple(row) for row in A), tuple(b), tuple(c), sense)


Evaluation = namedtuple("Evaluation", "residual objective feasible")
Evaluation.__doc__ = "residual Ax - b (Vector), objective (int), feasible (bool)."


class Reduction(
    namedtuple("Reduction", "inner column_map dropped zero_columns original_n")
):
    """An instance with its zero right-hand-side rows and zero columns removed.

    inner is the reduced IPInstance.  Every index is in original
    coordinates: column_map[j] is the original index of kept column j,
    dropped lists the dropped columns in index order, and zero_columns
    names those of them that are zero in every row (all three tuples of
    ints); the others are pinned by a zero right-hand-side row.  lift
    restores original_n coordinates, with zeros where columns were dropped.
    """

    __slots__ = ()

    def lift(self, x: Sequence[int]) -> Vector:
        """Map a point over the kept columns back to original coordinates."""
        if len(x) != len(self.column_map):
            raise DimensionMismatch("point length does not match kept column count")
        out = [0] * self.original_n
        for orig, v in zip(self.column_map, x):
            out[orig] = v
        return tuple(out)


def reduce(inst: IPInstance) -> Reduction:
    """Drop zero right-hand-side rows, the variables they pin, and zero columns.

    A row stating that a nonnegative combination of nonnegative variables
    equals zero forces every variable with a positive coefficient in it to
    zero, so those variables and the row can be removed without changing
    the feasible set or the objective.  The remaining right-hand sides are
    then all positive, which matters downstream: positive entries keep the
    aggregating weights strictly increasing, and the strictness is what
    lets the penalized surrogate certify answers about the original rows.
    A right-hand side that is zero everywhere is left alone (the aggregated
    equality then admits only the origin), which keeps the inner instance
    at least one row tall.  Columns that are zero in every row are dropped
    too, whatever their cost.  An instance with nothing to drop comes back
    as the inner instance itself.
    """
    rows = tuple(i for i, bi in enumerate(inst.b) if bi > 0) or tuple(range(inst.m))
    gone = [row for i, row in enumerate(inst.A) if i not in rows]
    kept_A = [inst.A[i] for i in rows]
    kept: list[int] = []
    dropped: list[int] = []
    for j in range(inst.n):
        if any(row[j] for row in kept_A) and not any(row[j] for row in gone):
            kept.append(j)
        else:
            dropped.append(j)
    zero = tuple(j for j in dropped if not any(row[j] for row in inst.A))
    if not dropped and len(rows) == inst.m:
        inner = inst
    else:
        inner = IPInstance(
            tuple(tuple(row[j] for j in kept) for row in kept_A),
            tuple(inst.b[i] for i in rows),
            tuple(inst.c[j] for j in kept),
            inst.sense,
        )
    return Reduction(inner, tuple(kept), tuple(dropped), zero, inst.n)


def parse_int(raw: object, where: str) -> int:
    if not isinstance(raw, str) or not _INT_RE.match(raw):
        raise ParseError(f"{where}: expected a decimal integer string, got {raw!r}")
    try:
        return int(raw)
    except ValueError as exc:
        # the only failure left: Python's limit on decimal digits, which the
        # process owns and this library leaves as it is
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"{where}: {len(raw.lstrip('-'))} digits is more than the "
            f"{limit}-digit limit for decimal integer strings"
        ) from exc


def parse_instance(text: str | bytes) -> IPInstance:
    """Parse the JSON interchange form.

    Keys: "A" (list of rows of decimal strings), "b", "c" (lists of decimal
    strings), optional "sense" ("min" or "max", default "min").  Numbers must
    be strings; bare JSON numbers are rejected so floats can never sneak in.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad JSON, a bare integer past the digit limit, or too deep nesting
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    for key in ("A", "b", "c"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    raw_A = doc["A"]
    if not isinstance(raw_A, list) or not all(isinstance(r, list) for r in raw_A):
        raise ParseError("A must be a list of rows")
    A = tuple(
        tuple(parse_int(v, f"A[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(raw_A)
    )
    if not isinstance(doc["b"], list) or not isinstance(doc["c"], list):
        raise ParseError("b and c must be lists of decimal integer strings")
    b = tuple(parse_int(v, f"b[{i}]") for i, v in enumerate(doc["b"]))
    c = tuple(parse_int(v, f"c[{j}]") for j, v in enumerate(doc["c"]))
    sense = doc.get("sense", SENSE_MIN)
    if sense not in (SENSE_MIN, SENSE_MAX):
        raise ParseError("sense must be 'min' or 'max'")
    if A and not A[0]:
        raise ValidationError("at least one variable is required")
    return IPInstance(A, b, c, sense)


def _strings(values: Vector) -> str:
    # the JSON list of the decimal strings, which need no escaping
    return '["' + '","'.join(map(str, values)) + '"]' if values else "[]"


def serialize_instance(inst: IPInstance) -> str:
    """Canonical compact JSON, inverse of parse_instance up to whitespace."""
    # the text json.dumps writes with sort_keys and no spaces
    return (
        f'{{"A":[{",".join(map(_strings, inst.A))}],"b":{_strings(inst.b)},'
        f'"c":{_strings(inst.c)},"sense":"{inst.sense}"}}'
    )


def instance_digest(inst: IPInstance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()


def box_bounds(inst: IPInstance) -> tuple[int | None, ...]:
    """Per-variable upper bounds implied by Ax = b, x >= 0.

    Entry j is min over rows with A[i][j] > 0 of b[i] // A[i][j], or None
    when column j is all zero and the variable is unbounded.
    """
    b = inst.b
    return tuple(
        min((bi // v for bi, v in zip(b, col) if v > 0), default=None)
        for col in zip(*inst.A)
    )


def evaluate(inst: IPInstance, x: Sequence[int]) -> Evaluation:
    """Residual Ax - b, objective c^T x, and feasibility of a candidate point."""
    if len(x) != inst.n:
        raise DimensionMismatch(f"point has {len(x)} coordinates, instance has {inst.n}")
    for v in x:
        if not isinstance(v, int) or v < 0:
            raise ValidationError("candidate points must be nonnegative integers")
    residual = tuple(
        sum(a * v for a, v in zip(row, x)) - bi for row, bi in zip(inst.A, inst.b)
    )
    objective = sum(cj * v for cj, v in zip(inst.c, x))
    return Evaluation(residual, objective, all(r == 0 for r in residual))


def canonicalize_minimize(inst: IPInstance) -> IPInstance:
    """Flip a maximize instance into the equivalent minimize instance."""
    if inst.sense == SENSE_MIN:
        return inst
    return IPInstance(inst.A, inst.b, tuple(-v for v in inst.c), SENSE_MIN)
