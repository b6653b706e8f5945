"""Same answers: every recorded CLI invocation still gives its recorded output.

tests/golden/expected.json holds the argv, exit code and stdout of each
invocation, written by tests/golden/record.py.  Each runs in process
through amplitude_lab.cli.main from tests/golden/, so input paths are
relative.  Exit codes and non-numeric text must match exactly.  A number
recorded as x must be matched within tol * max(1, |x|), with tol the
invocation's num tolerance (its --tol, else DEFAULT_TOL.num).  A quantity
that is 0 in exact arithmetic (a defect, named by its JSON key, CSV column,
CSV row label or selftest check name in the record's "zeros") only needs
to lie within tol on both sides, since its digits are roundoff.  A
selftest line's text and status must match exactly and its witness is a
number.  Each runs with numpy's RuntimeWarnings made errors, so a recorded
command leaves stderr clean.  The multiset of (solver, side) matrices each invocation hands to
numpy's eigh, eigvalsh and svd (record.solver_line) must match exactly:
counts are exact where timings are noisy, so an extra solver call fails.
"""

import json
import re
import warnings
from pathlib import Path

import pytest

from amplitude_lab import DEFAULT_TOL
from amplitude_lab.cli import main
from golden.record import solver_calls, solver_line

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDS = json.loads((GOLDEN / "expected.json").read_text())
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
KEY = re.compile(r'"(\w+)":')
CHECK = re.compile(r"(selftest \d+ ([\w-]+): \w+ witness=)(\S+)")


def _line_tokens(line: str, header: list[str]):
    """(line with numbers replaced by #, [(label, value)], header for the next line)."""
    check = CHECK.fullmatch(line)
    if check:
        return check.group(1) + "#", [(check.group(2), float(check.group(3)))], header
    if line.startswith("{"):
        nums = []
        for m in NUMBER.finditer(line):
            keys = KEY.findall(line, 0, m.start())
            nums.append((keys[-1] if keys else "", float(m.group())))
        return NUMBER.sub("#", line), nums, header
    fields = line.split(",")
    numeric = [NUMBER.fullmatch(f) is not None for f in fields]
    if not any(numeric):
        return line, [], fields
    row_label = None if numeric[0] else fields[0]
    nums = [
        (row_label or (header[i] if i < len(header) else ""), float(f))
        for i, (f, is_num) in enumerate(zip(fields, numeric))
        if is_num
    ]
    text = ",".join("#" if is_num else f for f, is_num in zip(fields, numeric))
    return text, nums, header


def compare(recorded: str, got: str, tol: float, zeros=()) -> list[str]:
    """Differences of got from recorded beyond the tolerance rule, one line each."""
    rec_lines, got_lines = recorded.splitlines(), got.splitlines()
    if len(rec_lines) != len(got_lines):
        return [f"{len(got_lines)} lines, recorded {len(rec_lines)}"]
    fails = []
    rec_header: list[str] = []
    got_header: list[str] = []
    for i, (a, b) in enumerate(zip(rec_lines, got_lines), start=1):
        text_a, nums_a, rec_header = _line_tokens(a, rec_header)
        text_b, nums_b, got_header = _line_tokens(b, got_header)
        if text_a != text_b:
            fails.append(f"line {i}: {b!r}, recorded {a!r}")
            continue
        for (label, x), (_, y) in zip(nums_a, nums_b):
            if label in zeros:
                ok = abs(x) <= tol and abs(y) <= tol
            else:
                ok = abs(y - x) <= tol * max(1.0, abs(x))
            if not ok:
                fails.append(f"line {i}, {label or 'number'}: {y!r}, recorded {x!r}")
    return fails


def _tol(argv: list[str]) -> float:
    return float(argv[argv.index("--tol") + 1]) if "--tol" in argv else DEFAULT_TOL.num


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_matches_the_recorded_output(record, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    with solver_calls() as calls, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(record["argv"])
    out = capsys.readouterr().out
    assert code == record["code"], out
    assert compare(record["stdout"], out, _tol(record["argv"]), record["zeros"]) == []
    assert solver_line(calls) == record["lapack"]


def test_comparator_applies_the_tolerance_rule():
    assert compare("n,a_n,defect\n1,0.5,0.25\n", "n,a_n,defect\n1,0.500000001,0.25\n", 1e-8) == []
    assert compare("{\"a\": 2.0}", "{\"a\": 2.1}", 1e-8) != []
    assert compare("{\"a\": 2.0}", "{\"b\": 2.0}", 1e-8) != []
    assert compare("x,1e-16\n", "x,-3e-15\n", 1e-8, zeros=["x"]) == []
    assert compare("x,1e-16\n", "x,0.5\n", 1e-8, zeros=["x"]) != []
    assert compare("lhs,rhs,defect\n1,1,0\n", "lhs,rhs,defect\n1,1,-0\n", 1e-8) == []
    check = "selftest 08 amplitude-kernel-bridge: {} witness={}\n"
    bridge = check.format("PASS", "8.8817842e-16")
    zeros = ["amplitude-kernel-bridge"]
    assert compare(bridge, check.format("PASS", "3.05311332e-15"), 1e-8, zeros) == []
    assert compare(bridge, check.format("FAIL", "8.8817842e-16"), 1e-8, zeros) != []
    assert compare(bridge, check.format("PASS", "0.5"), 1e-8, zeros) != []
    assert compare(bridge, check.format("PASS", "3.05311332e-15"), 1e-8) == []
    margin = "selftest 03 evaluate-positive-on-squares: PASS witness=2.80806254\n"
    assert compare(margin, margin.replace("2.808", "2.809"), 1e-8) != []
