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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, ParseError, ValidationError

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

SENSE_MIN = "min"
SENSE_MAX = "max"

_INT_RE = re.compile(r"-?[0-9]+\Z")


@dataclass(frozen=True)
class IPInstance:
    """One equality-form program.  Rows of A are tuples, all entries ints.

    Invariants enforced on construction: at least one row, rectangular A,
    matching lengths for b and c, A and b nonnegative, sense is "min" or
    "max".  Zero columns are legal here; `reduce` removes them before
    aggregation.  n = 0 is allowed so a fully reduced instance can still
    be represented; the parser rejects empty input separately.
    """

    A: Matrix
    b: Vector
    c: Vector
    sense: str = SENSE_MIN

    def __post_init__(self) -> None:
        if not isinstance(self.A, tuple) or not all(isinstance(r, tuple) for r in self.A):
            raise ValidationError("A must be a tuple of row tuples")
        m = len(self.A)
        if m == 0:
            raise ValidationError("at least one constraint row is required")
        n = len(self.A[0])
        for row in self.A:
            if len(row) != n:
                raise ValidationError("rows of A must all have the same length")
            for v in row:
                if not isinstance(v, int):
                    raise ValidationError("entries of A must be integers")
                if v < 0:
                    raise ValidationError("entries of A must be nonnegative")
        if len(self.b) != m:
            raise ValidationError("b must have one entry per row of A")
        for v in self.b:
            if not isinstance(v, int):
                raise ValidationError("entries of b must be integers")
            if v < 0:
                raise ValidationError("entries of b must be nonnegative")
        if len(self.c) != n:
            raise ValidationError("c must have one entry per column of A")
        for v in self.c:
            if not isinstance(v, int):
                raise ValidationError("entries of c must be integers")
        if self.sense not in (SENSE_MIN, SENSE_MAX):
            raise ValidationError("sense must be 'min' or 'max'")

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


class Evaluation(NamedTuple):
    residual: Vector
    objective: int
    feasible: bool


@dataclass(frozen=True)
class BoxBounds:
    """Per-variable upper bounds implied by Ax = b, x >= 0.

    upper[j] is min over rows with A[i][j] > 0 of b[i] // A[i][j], or None
    when column j is all zero and the variable is unbounded.
    """

    upper: tuple[int | None, ...]


_PINNED = "pinned to zero by a zero right-hand-side row"
_ZERO_COLUMN = "zero in every row, variable fixed to 0"


@dataclass(frozen=True)
class Reduction:
    """An instance with its zero right-hand-side rows and zero columns removed.

    Every index is in original coordinates: row_map[i] is the original
    index of kept row i, column_map[j] that of kept column j, dropped
    lists (original column index, reason) pairs in index order, and
    zero_columns names the dropped columns that are zero in every row.
    lift restores original_n coordinates, with zeros where columns were
    dropped.
    """

    inner: IPInstance
    row_map: tuple[int, ...]
    column_map: tuple[int, ...]
    dropped: tuple[tuple[int, str], ...]
    zero_columns: tuple[int, ...]
    original_n: int

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
    zero: list[int] = []
    dropped: list[tuple[int, str]] = []
    for j in range(inst.n):
        if any(row[j] for row in gone):
            dropped.append((j, _PINNED))
        elif any(row[j] for row in kept_A):
            kept.append(j)
        else:
            zero.append(j)
            dropped.append((j, _ZERO_COLUMN))
    if not dropped and len(rows) == inst.m:
        inner = inst
    else:
        inner = IPInstance(
            tuple(tuple(row[j] for j in kept) for row in kept_A),
            tuple(inst.b[i] for i in rows),
            tuple(inst.c[j] for j in kept),
            inst.sense,
        )
    return Reduction(inner, rows, tuple(kept), tuple(dropped), tuple(zero), inst.n)


def _parse_int(raw: object, where: str) -> int:
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
    except ValueError as exc:
        # a JSONDecodeError, or a bare JSON integer past Python's digit limit
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
        tuple(_parse_int(v, f"A[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(raw_A)
    )
    if not isinstance(doc["b"], list) or not isinstance(doc["c"], list):
        raise ParseError("b and c must be lists of decimal integer strings")
    b = tuple(_parse_int(v, f"b[{i}]") for i, v in enumerate(doc["b"]))
    c = tuple(_parse_int(v, f"c[{j}]") for j, v in enumerate(doc["c"]))
    sense = doc.get("sense", SENSE_MIN)
    if sense not in (SENSE_MIN, SENSE_MAX):
        raise ParseError("sense must be 'min' or 'max'")
    if len(A) == 0:
        raise ValidationError("at least one constraint row is required")
    if len(A[0]) == 0:
        raise ValidationError("at least one variable is required")
    return IPInstance(A, b, c, sense)


def serialize_instance(inst: IPInstance) -> str:
    """Canonical compact JSON, inverse of parse_instance up to whitespace."""
    doc = {
        "A": [[str(v) for v in row] for row in inst.A],
        "b": [str(v) for v in inst.b],
        "c": [str(v) for v in inst.c],
        "sense": inst.sense,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def instance_digest(inst: IPInstance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()


def box_bounds(inst: IPInstance) -> BoxBounds:
    upper: list[int | None] = []
    for j in range(inst.n):
        col = inst.column(j)
        if any(v > 0 for v in col):
            upper.append(min(inst.b[i] // col[i] for i in range(inst.m) if col[i] > 0))
        else:
            upper.append(None)
    return BoxBounds(tuple(upper))


def evaluate(inst: IPInstance, x: Sequence[int]) -> Evaluation:
    """Residual Ax - b, objective c^T x, and feasibility of a candidate point."""
    if len(x) != inst.n:
        raise DimensionMismatch(f"point has {len(x)} coordinates, instance has {inst.n}")
    for v in x:
        if not isinstance(v, int) or v < 0:
            raise ValidationError("candidate points must be nonnegative integers")
    residual = tuple(
        sum(row[j] * x[j] for j in range(inst.n)) - inst.b[i]
        for i, row in enumerate(inst.A)
    )
    objective = sum(inst.c[j] * x[j] for j in range(inst.n))
    return Evaluation(residual, objective, all(r == 0 for r in residual))


def canonicalize_minimize(inst: IPInstance) -> IPInstance:
    """Flip a maximize instance into the equivalent minimize instance."""
    if inst.sense == SENSE_MIN:
        return inst
    return IPInstance(inst.A, inst.b, tuple(-v for v in inst.c), SENSE_MIN)
