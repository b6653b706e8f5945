"""The command-line boundary: every input ends in a documented exit code.

Each reproducer below is an input that must end in its documented exit
code with one JSON error object on stdout, not in a Python traceback or
in a wrong number with exit 0.  The property at the end mutates one JSON
node of a golden input and asks the same of whatever the program does
with it.  The tables of integers, real numbers, sequences and arrays ask the
library's own entry points the same: a value of the wrong kind is the
package's error, never a bare Python exception, a truncation or a
coercion.
"""

import ast
import contextlib
import inspect
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import amplitude_lab
from amplitude_lab import (
    AmplitudeLabError,
    BlockAlgebra,
    BlockOperator,
    CovarianceForm,
    DomainError,
    Functional,
    HermitianForm,
    InvalidAlgebra,
    InvalidCovariance,
    InvalidEmbedding,
    L2Vector,
    NotQuotient,
    NotUnital,
    ParseError,
    PositiveForm,
    PresymplecticSpace,
    ShapeError,
    SubalgebraChain,
    Tolerances,
    TooLarge,
    UcpMap,
    amplitude_sum_check,
    build_lumped_diagonal_chain,
    build_product_chain,
    decompose,
    diagonal_state,
    geometric_weights,
    hermitize,
    identity_embedding,
    integrate_disjoint_family,
    interpolated_form,
    kms_defect,
    make_algebra,
    make_covariance,
    modular_flow,
    product_state,
    psd_sqrt,
    quasifree_character,
    quotient_map,
    relative_modular,
    thermal_amplitude,
    ucp_pullback,
    using,
)
from amplitude_lab.cli import main
from amplitude_lab.config import MAX_CHAIN_DIM
from amplitude_lab.linalg import hermitian_part
from amplitude_lab.restriction import UnitalEmbedding
from amplitude_lab.sampling import random_embedding, random_state, random_ucp
from amplitude_lab.serialize import matrix_from_pairs, sigma_from_json

from helpers import peak_bytes

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


@pytest.mark.parametrize("flags", [["--lumped", "1025"], ["--product-chain", "11"]])
def test_a_built_in_chain_above_the_cap_exits_6_before_it_is_built(flags):
    def refused():
        code, out = run(["chain", *flags])
        assert code == 6 and error_of(out)["type"] == "TooLarge"

    assert peak_bytes(refused)[0] < 2**20


def _spec_naming(side: int, where: str) -> dict:
    """A chain spec of a few hundred bytes that names one block of the given side."""
    big = {"blocks": [side]}
    ident = {"source": big, "target": big, "multiplicity": [[1]]}
    if where == "functional":
        state = {"algebra": big, "densities": [[[1, 0]]]}
        return {"phi": state, "psi": state, "chain": {"algebras": [big], "links": [], "final": ident}}
    if where == "algebra":
        return chain_spec([big], ident)
    link = {"source": {"blocks": [1]}, "target": big, "multiplicity": [[side]]}
    spec = chain_spec([{"blocks": [1]}, big], ident)
    spec["chain"]["links"] = [link]
    return spec


@pytest.mark.parametrize(
    "where, code, error",
    [("functional", 2, "ParseError"), ("algebra", 3, "ShapeError"), ("link", 3, "ShapeError")],
)
def test_a_malformed_spec_naming_a_large_side_fails_before_it_allocates(
    tmp_path, where, code, error
):
    # no cap reads a spec: it spells out its densities, so a side past MAX_CHAIN_DIM in
    # a small file is a density too short or an ambient the states do not live on
    path = write(tmp_path / "spec.json", _spec_naming(MAX_CHAIN_DIM + 1, where))

    def refused():
        got, out = run(["chain", path])
        assert got == code and error_of(out)["type"] == error

    assert peak_bytes(refused)[0] < 2**20


@pytest.mark.parametrize("spec", ["diag:0.5,0.3,0.2", "diag:1", "diag:0.5,-0.5"])
def test_a_site_spec_is_a_qubit_read_before_any_product(spec):
    # three weights built a 3^N-sided product state before "algebra mismatch" (139 MB at N = 7)
    def refused():
        code, out = run(["chain", "--product-chain", "7", "--site-a", spec, "--site-b", "mixed"])
        assert code == 2 and error_of(out)["type"] == "ParseError"

    assert peak_bytes(refused)[0] < 2**20


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
    "bool-beside-int-multiplicity": (
        InvalidEmbedding,
        lambda: UnitalEmbedding(C2, make_algebra([2]), [[1, True]]),
    ),
    "numpy-bool-multiplicity": (
        InvalidEmbedding,
        lambda: UnitalEmbedding(C2, make_algebra([2]), [[np.int64(1), np.True_]]),
    ),
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


# each refused in list form and in ndarray form, read through tolist, with one message
A2, A21 = make_algebra([2]), make_algebra([2, 1])
BAD_MULTIPLICITIES = {
    "bool": (C1, C1, [[True]], np.array([[True]])),
    "bool-beside-int": (C2, A2, [[1, True]], np.array([[1, True]], dtype=object)),
    "float": (C1, C1, [[1.0]], np.array([[1.0]])),
    "negative": (C2, A2, [[3, -1]], np.array([[3, -1]])),
    "ragged": (C2, A21, [[1, 1], [1]], np.array([[1, 1], [1]], dtype=object)),
}


@pytest.mark.parametrize("source, target, listed, array", BAD_MULTIPLICITIES.values(),
                         ids=BAD_MULTIPLICITIES.keys())
def test_a_bad_multiplicity_is_refused_alike_as_a_list_and_as_an_ndarray(
    source, target, listed, array
):
    messages = []
    for c in (listed, array):
        with pytest.raises(InvalidEmbedding) as info:
            UnitalEmbedding(source, target, c)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert ("not a 2 x 2 matrix" if len(listed) == 2 else "expected an integer") in messages[0]


def test_numpy_integers_are_integers():
    algebra = make_algebra([np.int64(3), np.uint8(1)])
    assert algebra.block_dims == (3, 1) and all(type(n) is int for n in algebra.block_dims)
    assert len(build_product_chain([np.int32(2)] * 3)[1]) == 3
    emb = UnitalEmbedding(C1, make_algebra([2]), np.array([[2]], dtype=np.uint64))
    assert emb.sections.tolist() == [[0, 0, 2]]


@pytest.mark.parametrize("name", ["Integral", "Real", "Complex", "float_info"])
def test_only_config_names_the_number_rules(name):
    # config.integer, config.real and config.complex_number are the one readers of numbers
    naming = set()
    for path in sorted(Path(amplitude_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if name in (getattr(node, k, None) for k in ("attr", "name", "id")):
                naming.add(path.name)
    assert naming == {"config.py"}


# --- real numbers, sequences and arrays ------------------------------------

M2 = make_algebra([2])
PHI = Functional(M2, (np.diag([0.6, 0.4]),))
PHI2 = diagonal_state([1.0, 0.0])
X = M2.identity()
COV = make_covariance(np.eye(2), np.zeros((2, 2)))
ONE = identity_embedding(C1)

# each key names a public callable and the argument the value goes in; every
# call ended in a bare TypeError, ValueError or IndexError, or returned an
# answer for a coerced value, for one value at least
REAL_SITES = {
    "thermal_amplitude(lam)": (DomainError, lambda v: thermal_amplitude(v, 0.1)),
    "thermal_amplitude(mu)": (DomainError, lambda v: thermal_amplitude(0.1, v)),
    "geometric_weights(lam)": (DomainError, lambda v: geometric_weights(v, 3)),
    "interpolated_form(t)": (DomainError, lambda v: interpolated_form(PHI, PHI, v)),
    "modular_flow(t)": (DomainError, lambda v: modular_flow(PHI, v, X)),
    "kms_defect(t)": (DomainError, lambda v: kms_defect(PHI, X, X, v)),
    "relative_modular(z)": (DomainError, lambda v: relative_modular(PHI, PHI, v)),
    "Tolerances(slack)": (DomainError, lambda v: Tolerances(slack=v)),
    "Tolerances(num)": (DomainError, lambda v: Tolerances(num=v)),
    "serialize.matrix_from_pairs(entry)": (
        ParseError,
        lambda v: matrix_from_pairs([[v, 0]], 1, "m"),
    ),
    "serialize.sigma_from_json(entry)": (ParseError, lambda v: sigma_from_json([[v]])),
}
# a float32 inf passed a comparison with the float range, which casts it to float32
NOT_REALS = [None, "x", "0.5", True, math.nan, math.inf, -math.inf, BIG, np.float32(math.inf)]

SEQUENCE_SITES = {
    "make_algebra(dims)": (InvalidAlgebra, lambda v: make_algebra(v)),
    "BlockAlgebra(block_dims)": (InvalidAlgebra, lambda v: BlockAlgebra(v)),
    "build_product_chain(site_dims)": (DomainError, lambda v: build_product_chain(v)),
    "product_state(site_densities)": (DomainError, lambda v: product_state(v)),
    "quotient_map(assignment)": (NotQuotient, lambda v: quotient_map(C1, C1, v)),
    "Functional(blocks)": (ShapeError, lambda v: Functional(C1, v)),
    "BlockOperator(blocks)": (ShapeError, lambda v: BlockOperator(C1, v)),
    "L2Vector(blocks)": (ShapeError, lambda v: L2Vector(C1, v)),
    "integrate_disjoint_family(components)": (
        DomainError,
        lambda v: integrate_disjoint_family(v, [1]),
    ),
    "UcpMap(kraus)": (NotUnital, lambda v: UcpMap(C1, C1, v)),
    "UcpMap(family)": (NotUnital, lambda v: UcpMap(C1, C1, (v,))),
    "UnitalEmbedding(unitaries)": (InvalidEmbedding, lambda v: UnitalEmbedding(C1, C1, [[1]], v)),
    "SubalgebraChain(algebras)": (InvalidEmbedding, lambda v: SubalgebraChain(v, (), ONE)),
    "SubalgebraChain(links)": (InvalidEmbedding, lambda v: SubalgebraChain((C1,), v, ONE)),
}
NOT_SEQUENCES = [None, "x", "0.5", True, math.nan, math.inf, BIG, 3]

# the array rule, linalg.real_if_exact: ShapeError before any check of the site
ARRAY_SITES = {
    "diagonal_state(weights)": lambda v: diagonal_state(v),
    "build_lumped_diagonal_chain(p)": lambda v: build_lumped_diagonal_chain(v, [1]),
    "build_lumped_diagonal_chain(q)": lambda v: build_lumped_diagonal_chain([1], v),
    "decompose(mu)": lambda v: decompose(PHI, v),
    "amplitude_sum_check(mu)": lambda v: amplitude_sum_check(PHI, PHI, v),
    "integrate_disjoint_family(mu)": lambda v: integrate_disjoint_family([PHI], v),
    "Functional(block)": lambda v: Functional(C1, (v,)),
    "BlockOperator(block)": lambda v: BlockOperator(C1, (v,)),
    "L2Vector(block)": lambda v: L2Vector(C1, (v,)),
    "HermitianForm(gram)": lambda v: HermitianForm(v),
    "PositiveForm(gram)": lambda v: PositiveForm(v),
    "CovarianceForm(gram)": lambda v: CovarianceForm(v),
    "PresymplecticSpace(sigma)": lambda v: PresymplecticSpace(v),
    "make_covariance(g)": lambda v: make_covariance(v, np.zeros((2, 2))),
    "make_covariance(sigma)": lambda v: make_covariance(np.eye(2), v),
    "quasifree_character(x)": lambda v: quasifree_character(COV, v),
    "product_state(site)": lambda v: product_state([v]),
    "UnitalEmbedding(unitary)": lambda v: UnitalEmbedding(C1, C1, [[1]], (v,)),
    "UcpMap(kraus piece)": lambda v: UcpMap(C1, C1, (((0, v),),)),
    "psd_sqrt(h)": lambda v: psd_sqrt(v),
}
# None is the default of decompose's and amplitude_sum_check's mu
NOT_ARRAYS = ["x", "0.5", True, ["a"], ["0.5", "0.5"], [True], [[1], [1, 2]], [None]]


def _cases(sites, values):
    # None is the default of UnitalEmbedding's unitaries
    return [
        pytest.param(site, value, id=f"{site}-{value!r}"[:60])
        for site in sites
        for value in values
        if not (value is None and site == "UnitalEmbedding(unitaries)")
    ]


@pytest.mark.parametrize("site, value", _cases(REAL_SITES, NOT_REALS))
def test_a_real_input_that_is_not_a_finite_real_is_the_package_error(site, value):
    error, call = REAL_SITES[site]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("site, value", _cases(SEQUENCE_SITES, NOT_SEQUENCES))
def test_a_sequence_input_that_is_not_a_sequence_is_the_package_error(site, value):
    error, call = SEQUENCE_SITES[site]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("site, value", _cases(ARRAY_SITES, NOT_ARRAYS))
def test_an_array_input_that_is_not_an_array_of_numbers_is_a_shape_error(site, value):
    with pytest.raises(ShapeError):
        ARRAY_SITES[site](value)


# values of the right kind that each site's own check refuses
SITE_CHECKS = {
    "diagonal_state(weights): a scalar": (DomainError, lambda: diagonal_state(0.5)),
    "diagonal_state(weights): complex": (DomainError, lambda: diagonal_state([0.5j, 0.5])),
    "decompose(mu): complex": (DomainError, lambda: decompose(PHI, [1 + 1j])),
    # inf and -inf pass the positivity test, and their sum is NaN, which no comparison fails
    "decompose(mu): inf and -inf": (DomainError, lambda: decompose(PHI2, [math.inf, -math.inf])),
    "amplitude_sum_check(mu): inf and -inf": (
        DomainError,
        lambda: amplitude_sum_check(PHI2, PHI2, [math.inf, -math.inf]),
    ),
    "build_lumped_diagonal_chain(p): inf and -inf": (
        DomainError,
        lambda: build_lumped_diagonal_chain([math.inf, -math.inf], [0.5, 0.5]),
    ),
    "product_state(site): not a matrix": (ShapeError, lambda: product_state([1])),
    "relative_modular(z): a NaN imaginary part": (
        DomainError,
        lambda: relative_modular(PHI, PHI, complex(1, math.nan)),
    ),
    "Tolerances(slack): zero": (DomainError, lambda: Tolerances(slack=0)),
    "Tolerances(num): negative": (DomainError, lambda: Tolerances(num=-1e-8)),
    "make_covariance(g): complex": (
        InvalidCovariance,
        lambda: make_covariance(np.eye(2) + 1e-3j, np.zeros((2, 2))),
    ),
    "make_covariance(sigma): complex": (
        InvalidCovariance,
        lambda: make_covariance(np.eye(2), np.zeros((2, 2)) + 1e-3j),
    ),
    "quasifree_character(x): complex": (ShapeError, lambda: quasifree_character(COV, [1j, 0])),
    # a residual compared as `> tol` passed NaN, and sigma + sigma^T of inf entries is NaN
    **{
        f"PresymplecticSpace(sigma): {x}": (
            ShapeError,
            lambda x=x: PresymplecticSpace(np.array([[0.0, x], [-x, 0.0]])),
        )
        for x in (math.nan, math.inf, -math.inf)
    },
    **{
        f"UnitalEmbedding(unitary): {x}": (
            InvalidEmbedding,
            lambda x=x: UnitalEmbedding(M2, M2, [[1]], ([[x, 0.0], [0.0, 1.0]],)),
        )
        for x in (math.nan, math.inf)
    },
    "UcpMap(kraus piece): NaN": (NotUnital, lambda: UcpMap(C1, C1, (((0, [[math.nan]]),),))),
}


@pytest.mark.parametrize("error, call", SITE_CHECKS.values(), ids=SITE_CHECKS.keys())
def test_a_value_its_site_refuses_is_the_package_error(error, call):
    with pytest.raises(error):
        call()


def test_numpy_reals_are_reals():
    assert Tolerances(slack=np.float32(0.5), num=np.int64(1)).psd(1.0) == 1.0
    assert thermal_amplitude(np.float64(0.25), 0) == pytest.approx(np.sqrt(0.75))
    assert relative_modular(PHI, PHI, np.complex128(0.5j)).algebra == M2


def test_a_block_whose_imaginary_part_hermitizing_cancels_is_stored_real():
    # the rule was applied before hermitizing: this block was stored complex128
    phi = Functional(M2, ([[1, 0], [0, 1 + 1e-20j]],))
    assert phi.densities[0].dtype == np.float64
    assert hermitian_part([[2, 1j], [-1j, 2]]).dtype == np.complex128


def test_a_pullback_is_hermitized_before_any_slack_reads_it():
    # the sums K D K* carry roundoff of about 1e-17 (1 + max) before they are hermitized
    rng = np.random.default_rng(0)
    with using(Tolerances(slack=1e-18)):
        for _ in range(20):
            channel = random_ucp(rng, make_algebra([2, 1]), make_algebra([3]))
            psi = random_state(rng, channel.target)
            raw = sum(m @ psi.densities[0] @ m.conj().T for l, m in channel.kraus[0] if l == 0)
            pulled = ucp_pullback(channel, psi).densities[0]
            assert pulled.tobytes() == hermitize(raw).astype(pulled.dtype).tobytes()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["chain", "--lumped", "3", "--lambda=x"], "--lambda"),
        (["chain", "--lumped", "3", "--mu=1e400"], "--mu"),
        (["amp", "a.json", "b.json", "--tol=nan"], "--tol"),
        (["kms-check", "a.json", "--times=0,inf"], "--times"),
        (["kms-check", "a.json", "--times=x"], "--times"),
        (["decompose", "a.json", "b.json", "--mu=0.5,-inf"], "--mu"),
        (["chain", "--product-chain", "2", "--site-a=diag:nan,1"], "diagonal site spec"),
        (["chain", "--product-chain", "2", "--site-b=diag:1,1e400"], "diagonal site spec"),
    ],
)
def test_a_command_line_number_that_is_not_finite_exits_2_naming_it(argv, flag):
    code, out = run(argv)
    error = error_of(out)
    assert code == 2 and error["type"] == "ParseError" and flag in error["message"]


# public callables whose arguments are all of the package's own types, or none
OBJECTS_ONLY = "takes the package's own objects only, which are not read"
RECORD = "a result record the package builds and returns"
EXEMPT = {
    **dict.fromkeys(
        [
            "amplitude_kernel", "central_support", "chain_amplitudes", "classify_pair",
            "compose_embeddings", "embedding_as_ucp", "evaluate", "functional_norm",
            "geometric_mean", "identity_embedding", "inequality_suite", "is_dominated",
            "is_faithful", "is_pure", "left_form", "majorizing_inner_product", "matrix_units",
            "modular_conjugation", "operator_coordinates", "purify", "reduce_covariance",
            "restrict", "right_form", "sqrt_vector", "support_projection", "support_reduce",
            "total_rank", "transition_amplitude", "ucp_pullback", "uhlmann_fidelity", "using",
            "validate_covariance",
        ],
        OBJECTS_ONLY,
    ),
    "Superoperator": "two BlockOperators and a flag; a factor of another type is a TypeError",
    **dict.fromkeys(
        ["hermitize", "purification_op", "trace_norm"],
        "a matrix helper the package calls on arrays it built; it keeps the dtype it is given",
    ),
    "tolerances": "takes no argument",
    "StateRelation": "an enum of the package",
    **dict.fromkeys(
        ["AmplitudeSumCheck", "InequalityReport", "ReducedTriple", "StateDecomposition",
         "SupportReduction"],
        RECORD,
    ),
}


def test_every_public_callable_that_reads_a_value_is_in_a_table():
    public = {
        name
        for name, obj in vars(amplitude_lab).items()
        if not name.startswith("_")
        and callable(obj)
        and not inspect.ismodule(obj)
        and not (isinstance(obj, type) and issubclass(obj, AmplitudeLabError))
    }
    tabled = {
        key.split("(")[0]
        for table in (REAL_SITES, SEQUENCE_SITES, ARRAY_SITES, SITE_CHECKS)
        for key in table
        if not key.startswith("serialize.")
    }
    assert tabled <= public and set(EXEMPT) <= public
    assert tabled.isdisjoint(EXEMPT)
    assert public - tabled - set(EXEMPT) == set()


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
