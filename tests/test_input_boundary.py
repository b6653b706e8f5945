"""The command-line boundary: every input ends in a documented exit code.

Each reproducer below is an input that must end in its documented exit
code with one JSON error object on stdout, not in a Python traceback or
in a wrong number with exit 0.  The property at the end mutates one JSON
node of a golden input and asks the same of whatever the program does
with it.  The integer table asks the library's own entry points the
same: a value that is not an integer is the package's error, never a
truncation.
"""

import ast
import contextlib
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import amplitude_lab
from amplitude_lab import (
    DomainError,
    InvalidAlgebra,
    InvalidEmbedding,
    TooLarge,
    build_product_chain,
    geometric_weights,
    make_algebra,
)
from amplitude_lab.cli import main
from amplitude_lab.restriction import UnitalEmbedding
from amplitude_lab.sampling import random_embedding

GOLDEN = Path(__file__).resolve().parent / "golden"
BIG = 10**400
STATE = {"algebra": {"blocks": [2]}, "densities": [[[1, 0], [0, 0], [0, 0], [0, 0]]]}
FORM = {"dim": 2, "gram": [[1, 0], [0, 0], [0, 0], [1, 0]]}
NON_FINITE = re.compile(r"\b(inf|nan|infinity)\b", re.IGNORECASE)


def run(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def error_of(stdout: str) -> dict:
    """The one JSON error object that is all of stdout."""
    assert stdout.count("\n") == 1, stdout
    return json.loads(stdout)["error"]


def write(path: Path, text) -> Path:
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text if isinstance(text, str) else json.dumps(text))
    return path


def chain_spec(algebras, final) -> dict:
    one = {"algebra": {"blocks": [1]}, "densities": [[[1, 0]]]}
    return {"phi": one, "psi": one, "chain": {"algebras": algebras, "links": [], "final": final}}


DECODE_CASES = {
    "integer-beyond-float-range-in-density": (
        "amp",
        {**STATE, "densities": [[[BIG, 0], [0, 0], [0, 0], [0, 0]]]},
    ),
    "integer-beyond-float-range-in-sigma": (
        "qf-reduce",
        {"sigma": [[0, BIG], [-1, 0]], "S": FORM, "T": FORM},
    ),
    "multiplicity-beyond-int64": (
        "chain",
        chain_spec(
            [{"blocks": [1]}],
            {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "multiplicity": [[2**63]]},
        ),
    ),
    "integer-past-the-digit-limit": ("amp", '{"algebra": {"blocks": [%s]}}' % ("7" * 5000)),
    "nesting-past-the-recursion-limit": ("amp", "[" * 100_000),
    "invalid-utf-8": ("amp", b"\xff\xfe{}"),
}


@pytest.mark.parametrize("command, text", DECODE_CASES.values(), ids=DECODE_CASES.keys())
def test_every_decode_failure_exits_2(command, text, tmp_path):
    path = write(tmp_path / "input.json", text)
    code, out = run([command, path] + ([path] if command == "amp" else []))
    error = error_of(out)
    assert code == 2 and error["type"] == "ParseError"
    assert len(error["message"]) < 300  # no 400-digit literal echoed in full


# x = diag(1e308, 1e308): its amplitude with itself overflows to inf
HUGE_STATE = {"algebra": {"blocks": [2]}, "densities": [[[1e308, 0], [0, 0], [0, 0], [1e308, 0]]]}


@pytest.mark.parametrize("command", [["amp"], ["fidelity", "--csv"], ["ineq"], ["ineq", "--csv"]])
def test_a_non_finite_result_exits_9_with_only_the_error(command, tmp_path):
    x = write(tmp_path / "x.json", HUGE_STATE)
    code, out = run([*command, x, x])
    error = error_of(out)
    assert code == 9 and error["type"] == "SolverFailed"
    assert "finite input too large" in error["message"]


@pytest.mark.parametrize("csv", [[], ["--csv"]])
def test_kms_check_keeps_a_nan_defect(csv):
    # kms_defect is NaN at t = 1e308, and max(0.0, nan) is 0.0
    argv = ["kms-check", GOLDEN / "inputs" / "phi_real.json", "--times", "1e308", "--trials", "1"]
    code, out = run([*argv, *csv])
    assert code == 9 and error_of(out)["type"] == "SolverFailed"


def test_product_chain_past_int64_stops_at_the_cap():
    code, out = run(["chain", "--product-chain", str(2**63)])
    assert code == 6
    assert out == run(["chain", "--product-chain", "11"])[1]


@pytest.mark.parametrize("spec", ["diag:0.5,0.3,0.2", "diag:1", "diag:0.5,-0.5"])
def test_a_site_spec_is_a_qubit_read_before_any_product(spec):
    # three weights built a 3^N-sided product state before "algebra mismatch" (139 MB at N = 7)
    tracemalloc.start()
    try:
        code, out = run(["chain", "--product-chain", "7", "--site-a", spec, "--site-b", "mixed"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and error_of(out)["type"] == "ParseError"
    assert peak < 2**20


class TestEmbeddingsEmbed:
    def test_a_zero_column_is_invalid(self):
        with pytest.raises(InvalidEmbedding, match="source block 1"):
            UnitalEmbedding(make_algebra([1, 300]), make_algebra([1]), [[1, 0]])

    def test_a_zero_column_in_a_chain_spec_exits_7(self, tmp_path):
        source = {"blocks": [1, 3]}
        final = {"source": source, "target": {"blocks": [1]}, "multiplicity": [[1, 0]]}
        code, out = run(["chain", write(tmp_path / "spec.json", chain_spec([source], final))])
        assert code == 7 and error_of(out)["type"] == "InvalidEmbedding"

    def test_a_sum_past_int64_is_too_large(self):
        # four blocks of 2^62 and one of 1 sum to 2^64 + 1, which int64 wraps to 1
        source = make_algebra([2**62] * 4 + [1])
        with pytest.raises(TooLarge, match="2\\^63"):
            UnitalEmbedding(source, make_algebra([1]), [[1] * 5])

    def test_the_sampler_copies_every_source_block(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            emb = random_embedding(rng, make_algebra([1, 2, 1]), num_target_blocks=1)
            assert emb.sections[:, 0].tolist() == [0, 1, 2]


# --- the integer rule ------------------------------------------------------

C1, C2 = make_algebra([1]), make_algebra([1, 1])

# each call was accepted with a truncated or coerced value, or ended in a bare
# ValueError, TypeError or IndexError
NOT_INTEGERS = {
    "float-side": (InvalidAlgebra, lambda: make_algebra([2.5])),
    "bool-side": (InvalidAlgebra, lambda: make_algebra([True, 2])),
    "string-side": (InvalidAlgebra, lambda: make_algebra(["3"])),
    "none-side": (InvalidAlgebra, lambda: make_algebra([None])),
    "word-side": (InvalidAlgebra, lambda: make_algebra(["x"])),
    "float-multiplicity": (InvalidEmbedding, lambda: UnitalEmbedding(C1, C1, [[1.5]])),
    "bool-multiplicity": (InvalidEmbedding, lambda: UnitalEmbedding(C1, C1, [[True]])),
    "string-multiplicity": (InvalidEmbedding, lambda: UnitalEmbedding(C1, C1, [["1"]])),
    "ragged-multiplicity": (
        InvalidEmbedding,
        lambda: UnitalEmbedding(C2, make_algebra([2, 1]), [[1, 1], [1]]),
    ),
    "float-site": (DomainError, lambda: build_product_chain([2.9, 2])),
    "string-site": (DomainError, lambda: build_product_chain(["a"])),
    "float-weight-count": (DomainError, lambda: geometric_weights(0.5, 2.5)),
    "string-weight-count": (DomainError, lambda: geometric_weights(0.5, "a")),
}


@pytest.mark.parametrize("error, call", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
def test_an_integer_input_that_is_not_an_integer_is_the_package_error(error, call):
    with pytest.raises(error):
        call()


def test_numpy_integers_are_integers():
    algebra = make_algebra([np.int64(3), np.uint8(1)])
    assert algebra.block_dims == (3, 1) and all(type(n) is int for n in algebra.block_dims)
    assert len(build_product_chain([np.int32(2)] * 3)[1]) == 3
    emb = UnitalEmbedding(C1, make_algebra([2]), np.array([[2]], dtype=np.uint64))
    assert emb.sections.tolist() == [[0, 0, 2]]


def test_only_linalg_names_the_integer_rule():
    # linalg.integer is the one reader of block sides, counts and block indices
    naming = set()
    for path in sorted(Path(amplitude_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if "Integral" in (getattr(node, "attr", None), getattr(node, "name", None)):
                naming.add(path.name)
    assert naming == {"linalg.py"}


# --- mutated golden inputs -------------------------------------------------


def _parsed(path: Path):
    try:
        return json.loads(path.read_text())
    except ValueError:  # truncated.json
        return None


INPUTS = {f"inputs/{p.name}": _parsed(p) for p in (GOLDEN / "inputs").glob("*.json")}
INPUTS = {name: value for name, value in INPUTS.items() if value is not None}
RECORDS = [
    r
    for r in json.loads((GOLDEN / "expected.json").read_text())
    if r["argv"][0] != "selftest" and any(a in INPUTS for a in r["argv"])
]
REPLACEMENTS = [BIG, 2**63, -1, 0, True, None, "x", [], {}, 1e308, -0.0, 1e-320]
EXIT_CODES = {0, 2, 3, 4, 5, 6, 7, 9}


def nodes(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    if isinstance(value, (dict, list)):
        children = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in children:
            yield from nodes(child, (*path, key))


def replaced(value, path, new):
    if not path:
        return new
    key, *rest = path
    if isinstance(value, dict):
        return {**value, key: replaced(value[key], rest, new)}
    return [*value[:key], replaced(value[key], rest, new), *value[key + 1 :]]


@pytest.fixture(scope="module")
def mutated(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("mutated") / "input.json"


@given(data=st.data())
def test_a_mutated_golden_input_ends_in_a_documented_exit(data, mutated):
    record = data.draw(st.sampled_from(RECORDS))
    argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in record["argv"]]
    i = data.draw(st.sampled_from([i for i, a in enumerate(record["argv"]) if a in INPUTS]))
    value = INPUTS[record["argv"][i]]
    path = data.draw(st.sampled_from(list(nodes(value))))
    text = json.dumps(replaced(value, path, data.draw(st.sampled_from(REPLACEMENTS))))
    if data.draw(st.integers(0, 9)) == 0:
        text = text[: data.draw(st.integers(0, len(text)))]
    argv[i] = str(write(mutated, text))
    code, out = run(argv)
    assert code in EXIT_CODES, out
    assert code != 0 or not NON_FINITE.search(out), out
