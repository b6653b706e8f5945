"""Command-line front end: JSON in, JSON or CSV out, deterministic.

One binary with subcommands.  All numeric output is printed with nine
significant digits by serialize's one number format, which refuses inf
and NaN; CSV uses dot decimals and comma separators.  A matrix is checked
finite before its first row is printed, then written a row at a time;
every other output is formatted whole before it is printed.  Module
errors map to distinct exit codes (see EXIT_CODES); on error a single
machine-readable JSON object is all of stdout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import central as ct
from . import errors as err
from . import quasifree as qf
from . import serialize as ser
from .amplitudes import inequality_suite, purify, transition_amplitude, uhlmann_fidelity
from .config import DEFAULT_TOL, MAX_CHAIN_DIM, Tolerances, real, using
from .forms import geometric_mean
from .modular import kms_defect
from .restriction import (
    build_lumped_diagonal_chain,
    build_product_chain,
    chain_amplitudes,
    diagonal_state,
    product_state,
)
from .sampling import random_operator
from .selftest import run_selftest
from .serialize import _fmt

EXIT_CODES = [
    (err.ParseError, 2),
    (err.InvalidAlgebra, 3),
    (err.ShapeError, 3),
    (err.NotPositive, 4),
    (err.NotFaithful, 5),
    (err.EmptyReduction, 5),
    (err.DomainError, 6),
    (err.TooLarge, 6),
    (err.SingularMeasure, 6),
    (err.InvalidEmbedding, 7),
    (err.NotQuotient, 7),
    (err.NotUnital, 7),
    (err.NotFactor, 7),
    (err.InvalidCovariance, 7),
    (err.SolverFailed, 9),
]
SELFTEST_FAILED = 8


def _emit_json(obj) -> None:
    print(ser.dumps(obj))


def _emit_matrix(m: np.ndarray) -> None:
    """CSV rows i,j,re,im of a matrix, row-major, printed one matrix row at a time, so no more
    than a row's text is held; a non-finite entry is refused before the header is printed."""
    bad = m[~np.isfinite(m)]
    if bad.size:
        _fmt(abs(bad[0]))  # refuses it
    print("i,j,re,im")
    for i, row in enumerate(m):
        print("\n".join(f"{i},{j},{_fmt(z.real)},{_fmt(z.imag)}" for j, z in enumerate(row)))


def _load_functional(path: str):
    return ser.functional_from_json(ser.load_file(path))


def _floats(raw: str, what: str) -> list[float]:
    """Comma-separated numbers, each read by config.real; else a ParseError naming the input."""
    try:
        return [real(float(x), f"bad {what} {raw!r}", err.ParseError) for x in raw.split(",")]
    except ValueError as exc:
        raise err.ParseError(f"bad {what} {raw!r}: expected comma-separated numbers") from exc


def _site_density(spec: str) -> np.ndarray:
    if spec == "pure0":
        return np.diag([1.0, 0.0])
    if spec == "pure1":
        return np.diag([0.0, 1.0])
    if spec == "plus":
        return np.full((2, 2), 0.5)
    if spec == "mixed":
        return np.eye(2) / 2.0
    if spec.startswith("diag:"):
        w = _floats(spec[5:], "diagonal site spec")
        if len(w) != 2 or any(x < 0 for x in w):
            raise err.ParseError(f"bad diagonal site spec {spec!r}: expected two weights >= 0")
        return np.diag(w)
    raise err.ParseError(f"unknown site spec {spec!r} (pure0|pure1|plus|mixed|diag:p0,p1)")


def cmd_scalar(args) -> int:
    """amp and fidelity: args.quantity of the two functionals, printed as args.output."""
    phi = _load_functional(args.phi)
    psi = _load_functional(args.psi)
    value = args.quantity(phi, psi)
    if args.csv:
        print(f"{args.output},{_fmt(value)}")
    else:
        _emit_json({args.output: float(value)})
    return 0


def cmd_gmean(args) -> int:
    alpha = ser.form_from_json(ser.load_file(args.alpha))
    beta = ser.form_from_json(ser.load_file(args.beta))
    mean = geometric_mean(alpha, beta)
    if args.csv:
        _emit_matrix(mean.gram)
    else:
        _emit_json(ser.form_to_json(mean))
    return 0


def cmd_purify(args) -> int:
    big = purify(_load_functional(args.phi))
    if args.csv:
        _emit_matrix(big.densities[0])
    else:
        ser.write_functional(big, sys.stdout.write)
    return 0


def cmd_ineq(args) -> int:
    phi = _load_functional(args.phi)
    psi = _load_functional(args.psi)
    rep = inequality_suite(phi, psi)
    payload = asdict(rep)
    if args.csv:
        rows = [f"{k},{'' if v is None else _fmt(v)}" for k, v in payload.items()]
        print("\n".join(["quantity,value", *rows]))
    else:
        _emit_json(payload)
    return 0


def cmd_chain(args) -> int:
    if args.spec is not None:
        phi, psi, chain = ser.chain_spec_from_json(ser.load_file(args.spec))
    elif args.product_chain is not None:
        n = args.product_chain
        densities = [_site_density(args.site_a), _site_density(args.site_b)]
        # sites are generated lazily, with no C-sized count, so any N stops at the dimension cap
        _, chain = build_product_chain(2 for _ in range(n))
        phi, psi = (product_state([d] * n) for d in densities)
    elif args.lumped is not None:
        # checked before the weight vectors are allocated
        if args.lumped > MAX_CHAIN_DIM:
            raise err.TooLarge(f"--lumped {args.lumped} is above MAX_CHAIN_DIM = {MAX_CHAIN_DIM}")
        lam = real(args.lam, f"bad --lambda {args.lam!r}", err.ParseError)
        mu = real(args.mu, f"bad --mu {args.mu!r}", err.ParseError)
        p = qf.geometric_weights(lam, args.lumped)
        q = qf.geometric_weights(mu, args.lumped)
        chain = build_lumped_diagonal_chain(p, q)
        phi, psi = diagonal_state(p), diagonal_state(q)
    else:
        raise err.ParseError("chain: give a spec file, --product-chain, or --lumped")
    amps = chain_amplitudes(phi, psi, chain)
    defects = [_fmt(a - b) for a, b in zip(amps, amps[1:])] + [""]
    rows = [f"{i},{_fmt(a)},{d}" for i, (a, d) in enumerate(zip(amps, defects), start=1)]
    print("\n".join(["n,a_n,defect", *rows]))
    return 0


def cmd_decompose(args) -> int:
    mu = None if args.mu_weights is None else _floats(args.mu_weights, "--mu weights")
    phi = _load_functional(args.phi)
    psi = _load_functional(args.psi)
    weights, amps, check = ct.amplitude_sum_terms(phi, psi, mu)
    rows = [f"{k},{_fmt(w)},{_fmt(a_k)}" for k, (w, a_k) in enumerate(zip(weights, amps))]
    sums = f"{_fmt(check.lhs)},{_fmt(check.rhs)},{_fmt(check.defect)}"
    print("\n".join(["block,weight,component_amplitude", *rows, "lhs,rhs,defect", sums]))
    return 0


def cmd_kms(args) -> int:
    times = _floats(args.times, "--times")
    if args.trials < 1:
        raise err.ParseError(f"--trials must be at least 1, got {args.trials}")
    phi = _load_functional(args.state)
    rng = np.random.default_rng(args.seed)
    rows = []
    for t in times:
        defects = []
        for _ in range(args.trials):
            x = random_operator(rng, phi.algebra)
            y = random_operator(rng, phi.algebra)
            defects.append(kms_defect(phi, x, y, t))
        # np.max keeps a NaN defect, which the output format refuses (exit 9)
        rows.append((t, float(np.max(defects))))
    if args.csv:
        print("\n".join(["t,max_defect", *(f"{_fmt(t)},{_fmt(d)}" for t, d in rows)]))
    else:
        _emit_json(
            {
                "times": [t for t, _ in rows],
                "max_defects": [d for _, d in rows],
                "max_defect": max(d for _, d in rows),
            }
        )
    return 0


def cmd_qf_reduce(args) -> int:
    space, s, t = ser.covariance_triple_from_json(ser.load_file(args.triple))
    triple = qf.reduce(space, s, t)
    payload = {
        "kernel_dim": triple.kernel_dim,
        "sigma": ser.sigma_to_json(triple.space.sigma),
        "S": ser.form_to_json(triple.s_form),
        "T": ser.form_to_json(triple.t_form),
        "quotient": ser.sigma_to_json(triple.quotient),
    }
    _emit_json(payload)
    return 0


def cmd_selftest(args) -> int:
    ok = run_selftest(args.seed)
    return 0 if ok else SELFTEST_FAILED


# name: (default, argparse options).  Every command reads --tol; a command
# reads --seed and --csv only where they change its output.
_FLAGS = {
    "tol": (None, {"type": float, "help": "override the base tolerance"}),
    "seed": (7, {"type": int, "help": "RNG seed of kms-check and selftest (default 7)"}),
    "csv": (False, {"action": "store_true", "help": "emit CSV rows instead of JSON"}),
}


def _add_flags(parser: argparse.ArgumentParser, names) -> None:
    """The named flags, left out of the parsed arguments unless given."""
    for name in names:
        parser.add_argument(f"--{name}", default=argparse.SUPPRESS, **_FLAGS[name][1])


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as ParseError, so that they end in the JSON object."""

    def error(self, message):
        raise err.ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="amplab",
        description="Transition amplitudes and geometric means on block matrix algebras.",
    )
    _add_flags(parser, _FLAGS)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help_: str, flags: tuple[str, ...] = ()):
        p = sub.add_parser(name, help=help_)
        _add_flags(p, ("tol", *flags))
        p.set_defaults(fn=fn, flags=("tol", *flags))
        return p

    for name, output, quantity, help_ in (
        ("amp", "amplitude", transition_amplitude, "transition amplitude of two functionals"),
        ("fidelity", "fidelity", uhlmann_fidelity, "Uhlmann transition probability"),
    ):
        p = command(name, cmd_scalar, help_, ("csv",))
        p.add_argument("phi")
        p.add_argument("psi")
        p.set_defaults(output=output, quantity=quantity)

    p = command("gmean", cmd_gmean, "geometric mean of two positive forms", ("csv",))
    p.add_argument("alpha")
    p.add_argument("beta")

    p = command("purify", cmd_purify, "rank-one purification of a single-block state", ("csv",))
    p.add_argument("phi")

    p = command("ineq", cmd_ineq, "norm and fidelity inequality report", ("csv",))
    p.add_argument("phi")
    p.add_argument("psi")

    p = command("chain", cmd_chain, "restriction chain amplitudes (CSV)")
    p.add_argument("spec", nargs="?", default=None, help="JSON chain spec file")
    p.add_argument("--product-chain", type=int, default=None, metavar="N")
    p.add_argument("--site-a", default="pure0")
    p.add_argument("--site-b", default="mixed")
    p.add_argument("--lumped", type=int, default=None, metavar="N")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=0.25)

    p = command("decompose", cmd_decompose, "central decomposition and sum formula (CSV)")
    p.add_argument("phi")
    p.add_argument("psi")
    p.add_argument("--mu", dest="mu_weights", default=None, help="comma-separated weights")

    p = command("kms-check", cmd_kms, "KMS boundary defect over a time grid", ("seed", "csv"))
    p.add_argument("state")
    p.add_argument("--times", default="-2,-1,0,1,2")
    p.add_argument("--trials", type=int, default=5)

    p = command("qf-reduce", cmd_qf_reduce, "reduce a covariance triple")
    p.add_argument("triple")

    command("selftest", cmd_selftest, "deterministic invariant battery", ("seed",))
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parsed arguments with the flag defaults; a flag the command does not read is a ParseError."""
    args = build_parser().parse_args(argv)
    for name, (default, _) in _FLAGS.items():
        if name in args and name not in args.flags:
            message = f"unrecognized arguments: --{name} ({args.command} does not read it)"
            raise err.ParseError(message)
        setattr(args, name, getattr(args, name, default))
    return args


def _tolerances(raw: float | None) -> Tolerances:
    """The --tol override; anything Tolerances refuses, not a finite number > 0, is a ParseError."""
    if raw is None:
        return DEFAULT_TOL
    try:
        return Tolerances(slack=raw, num=raw)
    except err.DomainError as exc:
        raise err.ParseError(f"bad --tol {raw!r}: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        with using(_tolerances(args.tol)):
            if args.seed < 0:
                raise err.ParseError(f"bad --seed {args.seed}: expected an integer >= 0")
            return args.fn(args)
    except err.AmplitudeLabError as exc:
        code = 1
        for klass, c in EXIT_CODES:
            if isinstance(exc, klass):
                code = c
                break
        print(ser.dumps({"error": {"type": type(exc).__name__, "code": code, "message": str(exc)}}))
        return code
    except OSError as exc:
        print(ser.dumps({"error": {"type": "IOError", "code": 2, "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
