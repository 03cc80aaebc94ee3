"""Byte-identity of every small benchmark report, as one sha256 per workload.

Every seed-1 case of the four benchmark workloads whose table has at most
CORPUS_MAX_CELLS cells (calls that fill no table always count) runs through
cli.main.  Each report contributes its exit code and its stdout, with the
instance path masked, to the workload's digest.  The digest of the inputs
is asserted first, so a drift in the generator (it draws with `random` and
rounds floats) reads as an input change, not as a behaviour change.

A change that alters reports on purpose updates CORPUS_SHA256 and names the
reports that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from knapagg import knapsack
from knapagg.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

CORPUS_SEED = 1
CORPUS_MAX_CELLS = 200_000
# workload: (digest of every case's instance document, digest of the reports)
CORPUS_SHA256 = {
    "cli-mixed": (
        "86baabd6ee34b4506e37c5a6b9d78eca0c1658f3481e92f40b02e3973fb22913",
        "9e5898c3b10384a8854a9b419300cb826de61fc690c6d9ef38730418dd6e3919",
    ),
    "solve-ladder": (
        "d74e0165b7f7a7665aa53253b5f91193a68cdd69cf996f4f3d6696897f9f91cb",
        "907f0920797f4b1398e3c99d3832dcee821a8fec7e87a9b756acd2fd4a75d4bb",
    ),
    "solve-wide": (
        "9d6bd897bc129f13affe54f30fb9196c0b92f017d0a444bacd5fb9ea0fec2ae0",
        "494024a140c09c752da7e3c79738edc7a45c70af7a252638f2c67d2fb65cbf0b",
    ),
    "verify-oracle": (
        "ed3f45e4397727a0e423d85ea871e61025fc46f2096df7bf04c5c090b77d32f4",
        "05c8c58119cbaa2b74645a3b7fe0ce91308eefbb3bdc4b1a89e24e1254e052dc",
    ),
}


@lru_cache(maxsize=None)
def _cases(name):
    return tuple(workloads.WORKLOADS[name](CORPUS_SEED))


def _inputs_digest(cases):
    # the "inputs digest" line bench/run.py prints for the same workload
    return hashlib.sha256("".join(case.digest() for case in cases).encode()).hexdigest()


def _reports(cases, path):
    out = []
    for case in cases:
        path.write_bytes(case.document())
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(case.argv(str(path)))
        out.append(f"{code}\n{stdout.getvalue().replace(str(path), '<instance>')}")
    return out


def _digest(reports):
    return hashlib.sha256("".join(reports).encode()).hexdigest()


def _small(cases):
    return [case for case in cases if case.cells <= CORPUS_MAX_CELLS]


@pytest.mark.parametrize("name", sorted(CORPUS_SHA256))
def test_report_corpus_is_pinned(tmp_path, name):
    inputs, reports = CORPUS_SHA256[name]
    cases = _cases(name)
    assert _inputs_digest(cases) == inputs
    # with numpy loaded, tables from its warm threshold take the int64 fill
    with contextlib.suppress(ImportError):
        import numpy  # noqa: F401
    assert _digest(_reports(_small(cases), tmp_path / "instance.json")) == reports


@pytest.mark.parametrize("name", sorted(CORPUS_SHA256))
def test_report_corpus_holds_without_numpy(tmp_path, monkeypatch, name):
    # only a table the int64 fill could take can differ between the legs;
    # with no numpy installed, the test above already ran numpy-free
    pytest.importorskip("numpy", exc_type=ImportError)
    big = [
        case for case in _small(_cases(name))
        if case.cells >= knapsack._NUMPY_WARM_CELLS
    ]
    path = tmp_path / "instance.json"
    usual = _reports(big, path)
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert _reports(big, path) == usual
