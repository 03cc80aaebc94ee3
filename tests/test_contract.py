"""A seeded contract suite for the command line.

Whatever the argv and whatever the bytes of the instance file, main must
return an exit code in 0-5 and let no exception escape, and its stdout must
be empty (a usage error, exit 4) or exactly one JSON report whose status
maps to that code through _STATUS_EXIT.

The argv are drawn from the real subcommands and options, with values both
valid and not, and now and then a shape the parser refuses.  The instance
files are small valid instances and byte-level mutations of them: truncated
JSON, bare numbers, floats, negative entries, ragged rows, wrong types,
lists nested past Python's recursion limit, and decimal strings past
Python's digit limit; and two-row instances whose entries are within that
limit but whose aggregated right-hand side is past it.  Every draw comes from one seeded random.Random, so a failure names an
argv and a file that reproduce it.
"""

from __future__ import annotations

import json
import random
import sys

import pytest

from knapagg.cli import _STATUS_EXIT, main

# Python 3.10 builds differ: some have no digit limit, some report 0 (none)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
COMMANDS = ("aggregate", "solve", "verify", "bound", "oracle")
# small point caps keep every enumeration short; -1 and 0 are refused or
# exceeded at once
CAPS = ("-1", "0", "1", "3", "12", "40", "150")
NUMBERS = ("-1", "0", "1", "5", "100", "10000000", "x", "1.5", "")


def _small(rng: random.Random) -> tuple[dict, list[int]]:
    """A valid instance (m 1-3, n 1-4, A 0-3, costs of either sign) and a point.

    Half the time b is A times the point, so the point is feasible; the
    other half b is drawn, 0-5 each.
    """
    m, n = rng.randint(1, 3), rng.randint(1, 4)
    A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
    x = [rng.randint(0, 2) for _ in range(n)]
    if rng.random() < 0.5:
        b = [sum(a * v for a, v in zip(row, x)) for row in A]
    else:
        b = [rng.randint(0, 5) for _ in range(m)]
    doc = {
        "A": [[str(v) for v in row] for row in A],
        "b": [str(v) for v in b],
        "c": [str(rng.randint(-5, 9)) for _ in range(n)],
    }
    if rng.random() < 0.7:
        doc["sense"] = rng.choice(("min", "max"))
    return doc, x


def _wide(rng: random.Random) -> tuple[dict, list[int]]:
    """Entries within the digit limit whose aggregated rhs is past it."""
    big = "1" + "0" * (DIGIT_LIMIT // 2 + rng.randint(10, 100))
    doc = {"A": [["1", "0"], ["0", "1"]], "b": [big, big], "c": ["1", str(rng.randint(-3, 3))]}
    if rng.random() < 0.5:
        # a third, zero column, which reduce drops
        doc["A"] = [row + ["0"] for row in doc["A"]]
        doc["c"].append(str(rng.randint(0, 3)))
    return doc, [int(big), int(big), 0][: len(doc["c"])]


def _entry_slots(doc: dict) -> list[tuple[list, int]]:
    """Every (list, index) that holds one number of the document."""
    slots = [(row, j) for row in doc["A"] for j in range(len(row))]
    return slots + [(doc[key], i) for key in ("b", "c") for i in range(len(doc[key]))]


def _mutate(rng: random.Random, doc: dict) -> bytes:
    """The document's bytes, broken in one of eleven ways."""
    kind = rng.randrange(11)
    slot, i = rng.choice(_entry_slots(doc))
    if kind == 0:
        slot[i] = int(slot[i])  # a bare JSON number
    elif kind == 1:
        slot[i] = rng.choice(("1.5", "1e3", 2.5, "0x1", " 1", "+1", ""))
    elif kind == 2:
        slot[i] = "-" + rng.choice(("1", "2", slot[i]))
    elif kind == 3:  # a ragged row
        row = rng.choice(doc["A"])
        if len(row) > 1 and rng.random() < 0.5:
            row.pop()
        else:
            row.append("1")
    elif kind == 4:
        slot[i] = "9" * (DIGIT_LIMIT + rng.randint(1, 3))
    elif kind == 5:
        doc[rng.choice(("A", "b", "c", "sense"))] = rng.choice(("rows", 1, None, [], {}, ["1"]))
    elif kind == 6:
        del doc[rng.choice(("A", "b", "c"))]
    text = json.dumps(doc)
    if kind == 7:
        text = text[: rng.randrange(len(text))]
    elif kind == 8:
        text = rng.choice(("[]", "3", '"A"', "null", "{}", "", "{" * 9, "[" * 100_000))
    elif kind == 9:
        text = text.replace('"', "", 2)
    data = text.encode()
    if kind == 10:
        data = rng.choice((b"\xff\xfe", b"\xef\xbb\xbf", b"\x00")) + data
    return data


def _argv(rng: random.Random, path: str, other: str, point: list[int]) -> list[str]:
    """One command line over the instance at path; other is a missing file.

    bound is mostly asked about the instance's own point.
    """
    cmd = rng.choice(COMMANDS)
    options: list[list[str]] = []
    if cmd == "solve":
        for name in ("--budget-rhs", "--budget-cells"):
            if rng.random() < 0.4:
                options.append([name, rng.choice(NUMBERS)])
    if cmd in ("verify", "bound", "oracle"):
        options.append([rng.choice(("--cap", "--ca")), rng.choice(CAPS)])
    if cmd == "oracle" and rng.random() < 0.5:
        options.append(["--pivot-cap", rng.choice(("-1", "0", "1", "2", "100000"))])
    if cmd == "bound" and rng.random() < 0.9:
        coords = [str(v) for v in point]
        if rng.random() < 0.3:
            coords = [str(rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.1:
            coords[0] = rng.choice(("-1", "x", "", "1" * (DIGIT_LIMIT + 1)))
        options.append(["--vertex", ",".join(coords)])
    rng.shuffle(options)
    argv = [cmd, path if rng.random() < 0.95 else other]
    for option in options:
        argv += [f"{option[0]}={option[1]}"] if rng.random() < 0.2 else option
    shape = rng.randrange(30)
    if shape == 0:
        argv.append("--frobnicate")
    elif shape == 1:
        argv.append("extra")
    elif shape == 2:
        argv = argv[:1]
    elif shape == 3:
        argv[0] = "bogus"
    elif shape == 4:
        argv = ["--cap", "3", *argv]
    elif shape == 5:
        argv.append(rng.choice(("--cap", "--budget-rhs", "--vertex")))  # no value
    return argv


def test_every_call_keeps_the_exit_and_report_contract(tmp_path, capsys):
    rng = random.Random(20261020)
    path, other = tmp_path / "inst.json", str(tmp_path / "missing.json")
    statuses = set()
    for k in range(1500):
        doc, point = _wide(rng) if rng.random() < 0.08 else _small(rng)
        data = json.dumps(doc).encode() if rng.random() < 0.45 else _mutate(rng, doc)
        path.write_bytes(data)
        argv = _argv(rng, str(path), other, point)
        where = f"draw {k}: argv {argv!r}, file {data[:200]!r}"
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{where}: raised {type(exc).__name__}: {exc}")
        out = capsys.readouterr().out
        assert code in range(6), where
        if not out:
            assert code == 4, where
            statuses.add("usage_error")
            continue
        report = json.loads(out)  # exactly one document: trailing text fails
        assert _STATUS_EXIT[report["status"]] == code, where
        statuses.add(report["status"])
    # the draws reach every status but a falsified check
    assert statuses == set(_STATUS_EXIT) - {"falsified"} | {"usage_error"}
