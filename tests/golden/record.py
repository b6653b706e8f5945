"""Record the golden CLI outputs that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py

It writes the input files under tests/golden/inputs/ with a numpy-only
generator (nothing here calls amplitude_lab.sampling, so a change to the
library's samplers cannot move them), runs every invocation of manifest()
through amplitude_lab.cli.main in process from tests/golden/, each file
command twice, as written and with --tol 1e-6, and `selftest` at five
seeds with and without it, and writes expected.json: per invocation its
argv, the labels of its quantities that are 0 in exact arithmetic (for
`selftest`, the checks whose witness is a defect), its exit code, its
stdout, and the matrices it hands to LAPACK (solver_calls).

Regenerating the files is a test-data change: do it only in a change that
says why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SEED = 20081


def rotation(rng: np.random.Generator, n: int, real: bool) -> np.ndarray:
    """Haar orthogonal (real) or unitary matrix from the QR of a Gaussian matrix."""
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def psd(rng: np.random.Generator, n: int, rank: int, real: bool) -> np.ndarray:
    """Exactly Hermitian PSD matrix of the given rank, eigenvalues in [0.2, 1]."""
    w = np.zeros(n)
    w[:rank] = rng.uniform(0.2, 1.0, rank)
    v = rotation(rng, n, real)
    d = (v * w) @ v.conj().T
    return 0.5 * (d + d.conj().T)


def state(rng, dims, real: bool, deficient: bool = False) -> list[np.ndarray]:
    """Blocks of a state; deficient drops one rank from every block of side > 1."""
    blocks = [psd(rng, n, n - 1 if deficient and n > 1 else n, real) for n in dims]
    mass = sum(float(np.trace(b).real) for b in blocks)
    return [b / mass for b in blocks]


def pairs(m) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def functional(dims, blocks) -> dict:
    return {"algebra": {"blocks": list(dims)}, "densities": [pairs(b) for b in blocks]}


def form(g) -> dict:
    return {"dim": int(g.shape[0]), "gram": pairs(g)}


def triple(rng, real: bool) -> dict:
    """Covariance triple on R^3 with a one-dimensional common kernel.

    Coordinates 0, 1 form a symplectic pair (none for real, sigma = 0) and
    coordinate 2 is degenerate for both covariances; a rotation hides the
    split.  S = (g + i sigma) / 2 is positive because det g >= 1 on the pair.
    """
    sigma0 = np.zeros((3, 3))
    if not real:
        sigma0[0, 1], sigma0[1, 0] = 1.0, -1.0
    q = rotation(rng, 3, real=True)
    sigma = q @ sigma0 @ q.T
    sigma = 0.5 * (sigma - sigma.T)
    covs = []
    for diag in ((1.5, 1.5, 0.0), (2.0, 0.8, 0.0)):
        g = q @ np.diag(diag) @ q.T
        covs.append(0.5 * (0.5 * (g + g.T) + 1j * sigma))
    return {
        "sigma": [[float(x) for x in row] for row in sigma],
        "S": form(covs[0]),
        "T": form(covs[1]),
    }


def embedding(source, target, multiplicity, unitaries=None) -> dict:
    return {
        "source": {"blocks": source},
        "target": {"blocks": target},
        "multiplicity": multiplicity,
        "unitaries": None if unitaries is None else [pairs(u) for u in unitaries],
    }


def write_inputs(rng: np.random.Generator) -> None:
    dims = (3, 2, 1)
    files = {}
    for kind, real in (("real", True), ("cplx", False)):
        files[f"phi_{kind}.json"] = functional(dims, state(rng, dims, real))
        files[f"psi_{kind}.json"] = functional(dims, state(rng, dims, real, deficient=True))
        files[f"single_{kind}.json"] = functional((3,), state(rng, (3,), real))
        files[f"alpha_{kind}.json"] = form(4.0 * psd(rng, 4, 4, real))
        files[f"beta_{kind}.json"] = form(4.0 * psd(rng, 4, 2, real))
        files[f"triple_{kind}.json"] = triple(rng, real)
    chain = {
        "algebras": [{"blocks": [1, 1]}, {"blocks": [2]}, {"blocks": [4]}],
        "links": [
            embedding([1, 1], [2], [[1, 1]], [rotation(rng, 2, real=True)]),
            embedding([2], [4], [[2]], [rotation(rng, 4, real=True)]),
        ],
        "final": embedding([4], [4], [[1]]),
    }
    files["spec.json"] = {
        "phi": functional((4,), state(rng, (4,), real=True)),
        "psi": functional((4,), state(rng, (4,), real=True)),
        "chain": chain,
    }
    bad_chain = json.loads(json.dumps(files["spec.json"]))
    bad_chain["chain"]["links"][1]["unitaries"] = [pairs(1.5 * np.eye(4))]
    files["spec_not_unitary.json"] = bad_chain
    for name in ("diag_a.json", "diag_b.json"):
        files[name] = functional(dims, [np.diag(np.diag(b)) for b in state(rng, dims, real=True)])
    files["signed.json"] = functional((2,), [np.diag([1.0, -0.5])])
    skew = np.array([[0.5, 0.1], [0.1 + 1e-3, 0.5]])
    files["not_hermitian.json"] = functional((2,), [skew])
    bad_triple = triple(rng, real=False)
    bad_triple["S"]["gram"][1][1] += 1e-3
    files["triple_not_hermitian.json"] = bad_triple
    files["schema.json"] = {"algebra": {"blocks": [2]}, "densities": [[[1.0, 0.0]]]}
    (HERE / "inputs").mkdir(exist_ok=True)
    for name, obj in files.items():
        (HERE / "inputs" / name).write_text(json.dumps(obj) + "\n")
    text = json.dumps(files["phi_real.json"])
    (HERE / "inputs" / "truncated.json").write_text(text[: len(text) // 2])
    (HERE / "inputs" / "nan.json").write_text(text.replace("0.0]", "NaN]", 1))


def manifest() -> list[tuple[list[str], list[str]]]:
    """(argv, labels of quantities that are 0 in exact arithmetic) per invocation."""
    cases = []
    for k in ("real", "cplx"):
        phi, psi = f"inputs/phi_{k}.json", f"inputs/psi_{k}.json"
        alpha, beta = f"inputs/alpha_{k}.json", f"inputs/beta_{k}.json"
        cases += [
            (["amp", phi, psi], []),
            (["fidelity", phi, psi], []),
            (["ineq", phi, psi], []),
            (["ineq", "--csv", phi, psi], []),
            (["gmean", alpha, beta], []),
            (["gmean", "--csv", alpha, beta], []),
            (["purify", f"inputs/single_{k}.json"], []),
            (["decompose", phi, psi], ["defect"]),
            (["decompose", phi, psi, "--mu", "0.5,0.25,0.25"], ["defect"]),
            (["kms-check", phi], ["max_defect", "max_defects"]),
            (["qf-reduce", f"inputs/triple_{k}.json"], []),
        ]
    # commuting states: the amplitude squared is the fidelity
    diag = ["inputs/diag_a.json", "inputs/diag_b.json"]
    cases += [
        (["ineq", *diag], ["sandwich_lower_defect"]),
        (["ineq", "--csv", *diag], ["sandwich_lower_defect"]),
        (["decompose", *diag], ["defect"]),
        (["chain", "inputs/spec.json"], []),
        (["chain", "--product-chain", "4", "--site-a", "plus", "--site-b", "diag:0.3,0.7"], []),
        (["chain", "--lumped", "20", "--lambda", "0.4", "--mu", "0.7"], []),
        # the documented error exits
        (["amp", "inputs/truncated.json", "inputs/psi_real.json"], []),
        (["amp", "inputs/nan.json", "inputs/psi_real.json"], []),
        (["amp", "inputs/schema.json", "inputs/schema.json"], []),
        (["amp", "inputs/missing.json", "inputs/psi_real.json"], []),
        (["kms-check", "inputs/phi_real.json", "--trials", "0"], []),
        (["amp", "inputs/phi_real.json", "inputs/single_real.json"], []),
        (["amp", "inputs/signed.json", "inputs/signed.json"], []),
        (["amp", "inputs/not_hermitian.json", "inputs/not_hermitian.json"], []),
        (["kms-check", "inputs/psi_cplx.json"], []),
        (["chain", "--lumped", "1025"], []),
        (["chain", "--product-chain", "11"], []),
        (["decompose", "inputs/phi_real.json", "inputs/psi_real.json", "--mu", "1,0,0"], []),
        (["purify", "inputs/phi_cplx.json"], []),
        (["qf-reduce", "inputs/triple_not_hermitian.json"], []),
        (["chain", "inputs/spec_not_unitary.json"], []),
    ]
    for k in ("real", "cplx"):
        phi, psi = f"inputs/phi_{k}.json", f"inputs/psi_{k}.json"
        cases += [
            (["amp", "--csv", phi, psi], []),
            (["fidelity", "--csv", phi, psi], []),
            (["purify", "--csv", f"inputs/single_{k}.json"], []),
            (["kms-check", "--csv", phi], ["max_defect"]),
        ]
    tolerated = [(argv + tol, zeros) for argv, zeros in cases for tol in ([], ["--tol", "1e-6"])]
    # the top-level flags, given before the subcommand
    phi, psi = "inputs/phi_real.json", "inputs/psi_real.json"
    defects = selftest_defects()
    return tolerated + [
        (["--tol", "1e-6", "--csv", "amp", phi, psi], []),
        (["--seed", "3", "kms-check", phi, "--trials", "2"], ["max_defect", "max_defects"]),
    ] + [
        (["selftest", "--seed", str(seed)] + tol, defects)
        for seed in (1, 3, 7, 11, 42)
        for tol in ([], ["--tol", "1e-6"])
    ]


def selftest_defects() -> list[str]:
    """The selftest checks whose witness is a defect, 0 in exact arithmetic: those that
    record through _Suite.defect, listed by running the battery once."""
    from amplitude_lab.selftest import _Suite

    names = []

    class Listing(_Suite):
        def defect(self, name, values):
            names.append(name)
            super().defect(name, values)

    Listing(0).run()
    return names


@contextlib.contextmanager
def solver_calls(entry=lambda name, m: (name, m.shape[-1]), names=("eigh", "eigvalsh", "svd")):
    """Yield a list that grows by entry(name, m) per matrix m handed, in the block, to the
    numpy.linalg solvers named, by default (solver, side); a stack of k matrices adds k
    entries, so counts do not depend on how linalg groups a matrix's summands into calls."""
    calls = []
    solvers = {name: getattr(np.linalg, name) for name in names}

    def recording(name, solver):
        def call(a, *args, **kwargs):
            a = np.asarray(a)
            stack = a.reshape(math.prod(a.shape[:-2]), *a.shape[-2:])
            calls.extend(entry(name, m) for m in stack)
            return solver(a, *args, **kwargs)

        return call

    try:
        for name, solver in solvers.items():
            setattr(np.linalg, name, recording(name, solver))
        yield calls
    finally:
        for name, solver in solvers.items():
            setattr(np.linalg, name, solver)


def solver_line(calls: list) -> str:
    """solver_calls' (solver, side) entries counted on one line, "solver nxn: count" per solver
    and side, sorted."""
    counts = sorted(Counter(calls).items())
    return ", ".join(f"{name} {side}x{side}: {n}" for (name, side), n in counts)


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and solver_line of amplab argv, run in this process."""
    from amplitude_lab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), solver_calls() as calls:
        code = cli.main(argv)
    return code, out.getvalue(), solver_line(calls)


def main() -> None:
    write_inputs(np.random.default_rng(SEED))
    os.chdir(HERE)
    records = []
    for argv, zeros in manifest():
        code, stdout, lapack = run(argv)
        records.append(
            {"argv": argv, "zeros": zeros, "code": code, "stdout": stdout, "lapack": lapack}
        )
    (HERE / "expected.json").write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} invocations", file=sys.stderr)


if __name__ == "__main__":
    main()
