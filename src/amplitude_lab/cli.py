"""Command-line front end: JSON in, JSON or CSV out, deterministic.

One binary with subcommands.  All numeric output is printed with nine
significant digits; CSV uses dot decimals and comma separators.  Module
errors map to distinct exit codes (see EXIT_CODES); on error a single
machine-readable JSON object is printed.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import central as ct
from . import errors as err
from . import quasifree as qf
from . import serialize as ser
from .amplitudes import inequality_suite, purify, transition_amplitude, uhlmann_fidelity
from .config import DEFAULT_TOL, Tolerances
from .forms import geometric_mean
from .modular import kms_defect
from .restriction import (
    MAX_CHAIN_DIM,
    build_lumped_diagonal_chain,
    build_product_chain,
    chain_amplitudes,
    diagonal_state,
    product_state,
)
from .sampling import random_operator
from .selftest import run_selftest

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
]
SELFTEST_FAILED = 8


@dataclass(frozen=True)
class RunConfig:
    """Per-invocation settings: tolerances, seed, output format, caps."""

    tol: Tolerances
    seed: int
    csv: bool
    max_dim: int


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _emit_json(obj) -> None:
    print(ser.dumps(obj))


def _emit_scalar(name: str, value: float, cfg: RunConfig) -> None:
    if cfg.csv:
        print(f"{name},{_fmt(value)}")
    else:
        _emit_json({name: float(value)})


def _load_functional(path: str, cfg: RunConfig):
    return ser.functional_from_json(ser.load_file(path), cfg.tol)


def _floats(raw: str, what: str) -> list[float]:
    """Comma-separated finite numbers; anything else is a ParseError naming the input."""
    try:
        vals = [float(x) for x in raw.split(",")]
    except ValueError as exc:
        raise err.ParseError(f"bad {what} {raw!r}: expected comma-separated numbers") from exc
    if not np.all(np.isfinite(vals)):
        raise err.ParseError(f"bad {what} {raw!r}: NaN and infinities are not allowed")
    return vals


def _site_density(spec: str) -> np.ndarray:
    if spec == "pure0":
        return np.diag([1.0, 0.0]).astype(complex)
    if spec == "pure1":
        return np.diag([0.0, 1.0]).astype(complex)
    if spec == "plus":
        return np.full((2, 2), 0.5, dtype=complex)
    if spec == "mixed":
        return np.eye(2, dtype=complex) / 2.0
    if spec.startswith("diag:"):
        w = _floats(spec[5:], "diagonal site spec")
        if not w or any(x < 0 for x in w):
            raise err.ParseError(f"bad diagonal site spec {spec!r}")
        return np.diag(w).astype(complex)
    raise err.ParseError(f"unknown site spec {spec!r} (pure0|pure1|plus|mixed|diag:p1,p2,...)")


def cmd_amp(args, cfg: RunConfig) -> int:
    phi = _load_functional(args.phi, cfg)
    psi = _load_functional(args.psi, cfg)
    _emit_scalar("amplitude", transition_amplitude(phi, psi), cfg)
    return 0


def cmd_fidelity(args, cfg: RunConfig) -> int:
    phi = _load_functional(args.phi, cfg)
    psi = _load_functional(args.psi, cfg)
    _emit_scalar("fidelity", uhlmann_fidelity(phi, psi), cfg)
    return 0


def cmd_gmean(args, cfg: RunConfig) -> int:
    alpha = ser.form_from_json(ser.load_file(args.alpha), positive=True, tol=cfg.tol)
    beta = ser.form_from_json(ser.load_file(args.beta), positive=True, tol=cfg.tol)
    mean = geometric_mean(alpha, beta)
    if cfg.csv:
        print("i,j,re,im")
        for i in range(mean.dim):
            for j in range(mean.dim):
                z = mean.gram[i, j]
                print(f"{i},{j},{_fmt(z.real)},{_fmt(z.imag)}")
    else:
        _emit_json(ser.form_to_json(mean))
    return 0


def cmd_purify(args, cfg: RunConfig) -> int:
    phi = _load_functional(args.phi, cfg)
    big = purify(phi)
    if cfg.csv:
        print("i,j,re,im")
        d = big.densities[0]
        for i in range(d.shape[0]):
            for j in range(d.shape[1]):
                print(f"{i},{j},{_fmt(d[i, j].real)},{_fmt(d[i, j].imag)}")
    else:
        _emit_json(ser.functional_to_json(big))
    return 0


def cmd_ineq(args, cfg: RunConfig) -> int:
    phi = _load_functional(args.phi, cfg)
    psi = _load_functional(args.psi, cfg)
    rep = inequality_suite(phi, psi)
    payload = {
        "amplitude": rep.amplitude,
        "fidelity": rep.fidelity,
        "root_difference_sq": rep.root_difference_sq,
        "predual_distance": rep.predual_distance,
        "root_sum_norm": rep.root_sum_norm,
        "lower_defect": rep.lower_defect,
        "upper_defect": rep.upper_defect,
        "sandwich_lower_defect": rep.sandwich_lower_defect,
        "sandwich_upper_defect": rep.sandwich_upper_defect,
        "concavity_min_eig": rep.concavity_min_eig,
    }
    if cfg.csv:
        print("quantity,value")
        for k, v in payload.items():
            print(f"{k},{'' if v is None else _fmt(v)}")
    else:
        _emit_json(payload)
    return 0


def cmd_chain(args, cfg: RunConfig) -> int:
    if args.spec is not None:
        obj = ser.load_file(args.spec)
        if not isinstance(obj, dict) or any(k not in obj for k in ("phi", "psi", "chain")):
            raise err.ParseError("chain spec: expected 'phi', 'psi', 'chain' fields")
        phi = ser.functional_from_json(obj["phi"], cfg.tol)
        psi = ser.functional_from_json(obj["psi"], cfg.tol)
        chain = ser.chain_from_json(obj["chain"], cfg.tol)
    elif args.product_chain is not None:
        n = args.product_chain
        # sites are generated lazily, so a huge N stops at the dimension cap
        _, chain = build_product_chain(itertools.repeat(2, n))
        phi = product_state([_site_density(args.site_a)] * n, cfg.tol)
        psi = product_state([_site_density(args.site_b)] * n, cfg.tol)
    elif args.lumped is not None:
        # checked before the weight vectors are allocated
        if args.lumped > MAX_CHAIN_DIM:
            raise err.TooLarge(f"--lumped {args.lumped} is above MAX_CHAIN_DIM = {MAX_CHAIN_DIM}")
        p = qf.geometric_weights(args.lam, args.lumped)
        q = qf.geometric_weights(args.mu, args.lumped)
        chain = build_lumped_diagonal_chain(p, q)
        phi = diagonal_state(p, cfg.tol)
        psi = diagonal_state(q, cfg.tol)
    else:
        raise err.ParseError("chain: give a spec file, --product-chain, or --lumped")
    amps = chain_amplitudes(phi, psi, chain)
    print("n,a_n,defect")
    for i, a in enumerate(amps, start=1):
        defect = "" if i == len(amps) else _fmt(amps[i - 1] - amps[i])
        print(f"{i},{_fmt(a)},{defect}")
    return 0


def cmd_decompose(args, cfg: RunConfig) -> int:
    mu = _floats(args.mu_weights, "--mu weights") if args.mu_weights else None
    phi = _load_functional(args.phi, cfg)
    psi = _load_functional(args.psi, cfg)
    weights, amps, check = ct.amplitude_sum_terms(phi, psi, mu)
    print("block,weight,component_amplitude")
    for k, (w, a_k) in enumerate(zip(weights, amps)):
        print(f"{k},{_fmt(w)},{_fmt(a_k)}")
    print("lhs,rhs,defect")
    print(f"{_fmt(check.lhs)},{_fmt(check.rhs)},{_fmt(check.defect)}")
    return 0


def cmd_kms(args, cfg: RunConfig) -> int:
    times = _floats(args.times, "--times")
    if args.trials < 1:
        raise err.ParseError(f"--trials must be at least 1, got {args.trials}")
    phi = _load_functional(args.state, cfg)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for t in times:
        worst = 0.0
        for _ in range(args.trials):
            x = random_operator(rng, phi.algebra)
            y = random_operator(rng, phi.algebra)
            worst = max(worst, kms_defect(phi, x, y, t))
        rows.append((t, worst))
    if cfg.csv:
        print("t,max_defect")
        for t, d in rows:
            print(f"{_fmt(t)},{_fmt(d)}")
    else:
        _emit_json(
            {
                "times": [t for t, _ in rows],
                "max_defects": [d for _, d in rows],
                "max_defect": max(d for _, d in rows),
            }
        )
    return 0


def cmd_qf_reduce(args, cfg: RunConfig) -> int:
    space, s, t = ser.covariance_triple_from_json(ser.load_file(args.triple), cfg.tol)
    triple = qf.reduce(space, s, t)
    payload = {
        "kernel_dim": triple.kernel_dim,
        "sigma": ser.sigma_to_json(triple.space.sigma),
        "S": {"dim": triple.s_form.dim, "gram": ser.matrix_to_pairs(triple.s_form.matrix)},
        "T": {"dim": triple.t_form.dim, "gram": ser.matrix_to_pairs(triple.t_form.matrix)},
        "quotient": ser.sigma_to_json(triple.quotient),
    }
    _emit_json(payload)
    return 0


def cmd_selftest(args, cfg: RunConfig) -> int:
    ok = run_selftest(cfg.seed, max_dim=cfg.max_dim, tol=cfg.tol.num)
    return 0 if ok else SELFTEST_FAILED


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--tol", type=float, default=d(None), help="override the base tolerance")
    parser.add_argument("--seed", type=int, default=d(7), help="RNG seed for randomized commands")
    parser.add_argument(
        "--csv", action="store_true", default=d(False), help="emit CSV rows instead of JSON"
    )
    parser.add_argument(
        "--max-dim", type=int, default=d(8), help="size cap for randomized checks"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amplab",
        description="Transition amplitudes and geometric means on block matrix algebras.",
    )
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("amp", help="transition amplitude of two functionals", parents=[common])
    p.add_argument("phi")
    p.add_argument("psi")
    p.set_defaults(fn=cmd_amp)

    p = sub.add_parser("fidelity", help="Uhlmann transition probability", parents=[common])
    p.add_argument("phi")
    p.add_argument("psi")
    p.set_defaults(fn=cmd_fidelity)

    p = sub.add_parser("gmean", help="geometric mean of two positive forms", parents=[common])
    p.add_argument("alpha")
    p.add_argument("beta")
    p.set_defaults(fn=cmd_gmean)

    p = sub.add_parser("purify", help="rank-one purification of a single-block state", parents=[common])
    p.add_argument("phi")
    p.set_defaults(fn=cmd_purify)

    p = sub.add_parser("ineq", help="norm and fidelity inequality report", parents=[common])
    p.add_argument("phi")
    p.add_argument("psi")
    p.set_defaults(fn=cmd_ineq)

    p = sub.add_parser("chain", help="restriction chain amplitudes (CSV)", parents=[common])
    p.add_argument("spec", nargs="?", default=None, help="JSON chain spec file")
    p.add_argument("--product-chain", type=int, default=None, metavar="N")
    p.add_argument("--site-a", default="pure0")
    p.add_argument("--site-b", default="mixed")
    p.add_argument("--lumped", type=int, default=None, metavar="N")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=0.25)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("decompose", help="central decomposition and sum formula (CSV)", parents=[common])
    p.add_argument("phi")
    p.add_argument("psi")
    p.add_argument("--mu", dest="mu_weights", default=None, help="comma-separated weights")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("kms-check", help="KMS boundary defect over a time grid", parents=[common])
    p.add_argument("state")
    p.add_argument("--times", default="-2,-1,0,1,2")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(fn=cmd_kms)

    p = sub.add_parser("qf-reduce", help="reduce a covariance triple", parents=[common])
    p.add_argument("triple")
    p.set_defaults(fn=cmd_qf_reduce)

    p = sub.add_parser("selftest", help="deterministic invariant battery", parents=[common])
    p.set_defaults(fn=cmd_selftest)

    return parser


def _tolerances(raw: float | None) -> Tolerances:
    """The --tol override; anything but a finite number > 0 is a ParseError."""
    if raw is None:
        return DEFAULT_TOL
    if not (math.isfinite(raw) and raw > 0.0):
        raise err.ParseError(f"bad --tol {raw!r}: expected a finite number > 0")
    return Tolerances(slack=raw, num=raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            tol=_tolerances(args.tol), seed=args.seed, csv=args.csv, max_dim=args.max_dim
        )
        return args.fn(args, cfg)
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
