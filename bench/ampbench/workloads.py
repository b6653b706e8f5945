"""The four closed-loop workloads and their per-op oracles.

A workload builds its inputs from the seed when it is constructed (that
is the set-up), and then serves ops: ``inputs(i)`` draws op i's inputs
outside the timed region, ``run(x, span)`` is the timed op, and
``check(x, out)`` returns the oracle failures of one op (an empty list
when the op is correct).  ``run`` opens a span around every public call
it makes, so a traced run can time each layer from outside.

``round`` is the number of consecutive ops that together cover every
kind of op the workload makes; runs stop only at round boundaries, so
per-op averages do not depend on when the clock ran out.
"""

from __future__ import annotations

import compileall
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import amplitude_lab.quasifree as quasifree
from amplitude_lab import (
    DEFAULT_TOL,
    BlockOperator,
    Functional,
    PositiveForm,
    amplitude_sum_check,
    build_lumped_diagonal_chain,
    build_product_chain,
    chain_amplitudes,
    decompose,
    diagonal_state,
    geometric_mean,
    geometric_weights,
    inequality_suite,
    interpolated_form,
    is_faithful,
    kms_defect,
    left_form,
    make_algebra,
    product_state,
    purify,
    right_form,
    support_reduce,
    transition_amplitude,
    uhlmann_fidelity,
)
from amplitude_lab.quasifree import CovarianceForm, PresymplecticSpace

from . import inputs

TOL = DEFAULT_TOL.num
# Absolute floor for values that are zero in exact arithmetic (defects),
# where two processes may differ in roundoff.
FLOOR = DEFAULT_TOL.psd(0.0)


class Context:
    """Where a workload may write, and how it starts child processes."""

    def __init__(self, root: Path, workdir: Path, env: dict, recorder=None):
        self.root = root
        self.workdir = workdir
        self.env = env
        self.recorder = recorder
        self.peak_child_rss_kb = 0


def _fail_if(cond: bool, what: str, failures: list) -> None:
    if cond:
        failures.append(what)


class DensePairs:
    """One faithful reference phi against a fresh psi per op, on M96+M24+M6+C."""

    name = "dense-pairs"
    round = 2
    chain_points = 0
    DIMS = (96, 24, 6, 1)
    FORM_DIMS = (12, 4)

    def __init__(self, seed: int, ctx: Context):
        self.seed = seed
        self.algebra = make_algebra(self.DIMS)
        self.form_algebra = make_algebra(self.FORM_DIMS)
        rng = inputs.rng_for(seed, 0)
        self.phi = Functional(self.algebra, inputs.spread_state(rng, self.DIMS))
        self.phi_small = Functional(self.form_algebra, inputs.spread_state(rng, self.FORM_DIMS))
        w = np.concatenate([np.linalg.eigvalsh(d) for d in self.phi.densities])
        self.spectral_spread = float(np.log(w.max() / w.min()))

    def inputs(self, i: int) -> dict:
        rng = inputs.rng_for(self.seed, 1, i)
        return {
            "full_rank": i % 2 == 0,
            "psi": inputs.spread_state(rng, self.DIMS, half_rank=i % 2 == 1),
            "x": BlockOperator(self.algebra, inputs.operator(rng, self.DIMS)),
            "y": BlockOperator(self.algebra, inputs.operator(rng, self.DIMS)),
            "t": float(rng.uniform(-1.0, 1.0)),
            "psi_small": inputs.spread_state(rng, self.FORM_DIMS),
        }

    def run(self, x: dict, span) -> dict:
        phi, out = self.phi, {}
        with span("algebra.functional_build"):
            psi = Functional(self.algebra, x["psi"])
        with span("amplitudes.transition_amplitude"):
            out["amp"] = transition_amplitude(phi, psi)
        with span("amplitudes.uhlmann_fidelity"):
            out["fid"] = uhlmann_fidelity(phi, psi)
        with span("amplitudes.inequality_suite"):
            out["ineq"] = inequality_suite(phi, psi)
        with span("central.amplitude_sum_check"):
            out["sum"] = amplitude_sum_check(phi, psi)
        with span("modular.kms_defect"):
            out["kms_own"] = kms_defect(phi, x["x"], x["y"], x["t"])
        if x["full_rank"]:
            with span("modular.kms_defect"):
                out["kms_foreign"] = kms_defect(psi, x["x"], x["y"], x["t"], flow=phi)
        else:
            with span("modular.support_reduce"):
                out["reduced"] = support_reduce(psi)
        out["psi"] = psi
        with span("algebra.functional_build"):
            psi_small = Functional(self.form_algebra, x["psi_small"])
        with span("forms.gram_build"):
            left = left_form(self.phi_small)
            right = right_form(psi_small)
        with span("forms.geometric_mean"):
            out["mean"] = geometric_mean(left, right)
        with span("forms.interpolated_form"):
            out["half"] = interpolated_form(self.phi_small, psi_small, 0.5)
        return out

    def check(self, x: dict, out: dict) -> list[str]:
        f: list[str] = []
        a, fid, psi = out["amp"], out["fid"], out["psi"]
        bound = np.sqrt(self.phi.mass * psi.mass)
        _fail_if(not (-TOL <= a <= bound + TOL), f"amplitude {a} outside [0, {bound}]", f)
        _fail_if(not (a * a <= fid + TOL and fid <= a + TOL), f"A^2 <= F <= A fails: A={a} F={fid}", f)
        _fail_if(out["ineq"].min_defect() < -TOL, f"inequality defect {out['ineq'].min_defect()}", f)
        _fail_if(out["sum"].defect > TOL, f"sum-check defect {out['sum'].defect}", f)
        _fail_if(out["kms_own"] > TOL, f"own-flow KMS defect {out['kms_own']}", f)
        if x["full_rank"]:
            _fail_if(out["kms_foreign"] <= TOL, f"foreign-flow KMS defect {out['kms_foreign']}", f)
        else:
            red = out["reduced"].functional
            _fail_if(not is_faithful(red), "support-reduced functional is not faithful", f)
            _fail_if(abs(red.mass - psi.mass) > TOL, f"support reduction mass {red.mass}", f)
        g_mean, g_half = out["mean"].gram, out["half"].gram
        err = float(np.max(np.abs(g_mean - g_half)))
        _fail_if(err > TOL * (1.0 + float(np.max(np.abs(g_half)))), f"mean vs t=1/2 form: {err}", f)
        return f


class AbelianChain:
    """Tail-lumped diagonal chain of C^60 between two geometric distributions."""

    name = "abelian-chain"
    round = 1
    N = 60
    chain_points = N
    spectral_spread = None  # no faithful reference state

    def __init__(self, seed: int, ctx: Context):
        self.seed = seed

    def inputs(self, i: int) -> dict:
        lam, mu = inputs.rng_for(self.seed, 1, i).uniform(0.2, 0.8, 2)
        return {"lam": float(lam), "mu": float(mu)}

    def run(self, x: dict, span) -> dict:
        p = geometric_weights(x["lam"], self.N)
        q = geometric_weights(x["mu"], self.N)
        with span("restriction.build_chain"):
            chain = build_lumped_diagonal_chain(p, q)
        with span("algebra.functional_build"):
            phi = diagonal_state(p)
            psi = diagonal_state(q)
        with span("restriction.chain_amplitudes"):
            amps = chain_amplitudes(phi, psi, chain)
        return {"p": p, "q": q, "amps": amps}

    def check(self, x: dict, out: dict) -> list[str]:
        f: list[str] = []
        amps = np.asarray(out["amps"])
        affinity = float(np.sum(np.sqrt(out["p"] * out["q"])))
        _fail_if(amps.size != self.N, f"{amps.size} chain entries, expected {self.N}", f)
        _fail_if(bool(np.any(np.diff(amps) > TOL)), "chain amplitudes increase", f)
        _fail_if(abs(amps[0] - 1.0) > TOL, f"first entry {amps[0]} != 1", f)
        _fail_if(abs(amps[-1] - affinity) > TOL, f"last entry {amps[-1]} != {affinity}", f)
        return f


def site_amplitude(a: np.ndarray, b: np.ndarray) -> float:
    """Tr(a^{1/2} b^{1/2}) for 2x2 densities, from the closed-form square root."""

    def root(m):
        s = np.sqrt(max(float(np.linalg.det(m).real), 0.0))
        return (m + s * np.eye(2)) / np.sqrt(float(np.trace(m).real) + 2.0 * s)

    return float(np.trace(root(a) @ root(b)).real)


class ProductChain:
    """Leading-factor chain of 8 qubit sites inside M_256."""

    name = "product-chain"
    SITES = 8
    # A chain with a non-diagonal (plus) site costs about 1.4x one without,
    # so every round holds each (phi site, psi site) kind pair once: the op
    # mix, and with it the tail, does not depend on the seed.
    round = len(inputs.SITE_KINDS) ** 2
    chain_points = SITES
    spectral_spread = None  # no faithful reference state

    def __init__(self, seed: int, ctx: Context):
        self.seed = seed

    def inputs(self, i: int) -> dict:
        pair = inputs.rng_for(self.seed, 2, i // self.round).permutation(self.round)[i % self.round]
        kind_a, kind_b = divmod(int(pair), len(inputs.SITE_KINDS))
        rng = inputs.rng_for(self.seed, 1, i)
        return {
            "a": inputs.site_density(rng, inputs.SITE_KINDS[kind_a])[1],
            "b": inputs.site_density(rng, inputs.SITE_KINDS[kind_b])[1],
        }

    def run(self, x: dict, span) -> dict:
        with span("restriction.build_chain"):
            _, chain = build_product_chain([2] * self.SITES)
        with span("algebra.functional_build"):
            phi = product_state([x["a"]] * self.SITES)
            psi = product_state([x["b"]] * self.SITES)
        with span("restriction.chain_amplitudes"):
            amps = chain_amplitudes(phi, psi, chain)
        return {"amps": amps}

    def check(self, x: dict, out: dict) -> list[str]:
        f: list[str] = []
        amps = np.asarray(out["amps"])
        expect = site_amplitude(x["a"], x["b"]) ** np.arange(1, self.SITES + 1)
        _fail_if(amps.shape != expect.shape, f"{amps.size} chain entries, expected {self.SITES}", f)
        if amps.shape == expect.shape:
            err = float(np.max(np.abs(amps - expect)))
            _fail_if(err > TOL, f"chain entries differ from site amplitude powers by {err}", f)
        return f


# ---------------------------------------------------------------- cli-oneshot


def _pairs(m) -> list:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _functional_json(dims, blocks) -> dict:
    return {"algebra": {"blocks": list(dims)}, "densities": [_pairs(d) for d in blocks]}


def _form_json(g) -> dict:
    return {"dim": int(g.shape[0]), "gram": _pairs(g)}


def _close(printed, expected, what: str, f: list) -> None:
    """Agreement at nine significant digits, relative to the value's scale."""
    p = np.asarray(printed, dtype=complex)
    e = np.asarray(expected, dtype=complex)
    if p.shape != e.shape:
        f.append(f"{what}: shape {p.shape}, expected {e.shape}")
        return
    scale = float(np.max(np.abs(e))) if e.size else 0.0
    err = float(np.max(np.abs(p - e))) if e.size else 0.0
    if err > TOL * scale + FLOOR:
        f.append(f"{what}: differs from the library value by {err}")


def _from_pairs(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()]


class CliOneshot:
    """One ``python -m amplitude_lab.cli`` process per op, cycling through the subcommands."""

    name = "cli-oneshot"
    chain_points = 0
    DIMS = (4, 3, 2)
    LUMPED = 20
    SITES = 4

    def __init__(self, seed: int, ctx: Context):
        self.ctx = ctx
        compileall.compile_dir(str(ctx.root / "src" / "amplitude_lab"), quiet=1)
        rng = inputs.rng_for(seed, 0)
        algebra = make_algebra(self.DIMS)
        phi_b = inputs.spread_state(rng, self.DIMS)
        psi_b = inputs.spread_state(rng, self.DIMS)
        single_b = inputs.spread_state(rng, (4,))
        ga, gb = inputs.psd_form(rng, 4), inputs.psd_form(rng, 4)
        sigma, s_cov, t_cov = inputs.covariance_triple(rng)
        lam, mu = (float(v) for v in rng.uniform(0.2, 0.8, 2))
        (spec_a, site_a), (spec_b, site_b) = (
            inputs.site_density(rng, str(kind)) for kind in rng.choice(inputs.SITE_KINDS, 2)
        )
        files = {
            "phi.json": _functional_json(self.DIMS, phi_b),
            "psi.json": _functional_json(self.DIMS, psi_b),
            "single.json": _functional_json((4,), single_b),
            "alpha.json": _form_json(ga),
            "beta.json": _form_json(gb),
            "triple.json": {
                "sigma": [[float(v) for v in row] for row in sigma],
                "S": _form_json(s_cov),
                "T": _form_json(t_cov),
            },
        }
        d = ctx.workdir
        for fname, obj in files.items():
            (d / fname).write_text(json.dumps(obj))
        (d / "bad.json").write_text(json.dumps(files["phi.json"])[:-7])

        phi, psi = Functional(algebra, phi_b), Functional(algebra, psi_b)
        single = Functional(make_algebra((4,)), single_b)
        self.spectral_spread = float(inputs.SPECTRAL_SPREAD)
        # (argv, expected exit code, checker of stdout)
        self.commands = [
            (["amp", f"{d}/phi.json", f"{d}/psi.json"], 0,
             self._json_check({"amplitude": transition_amplitude(phi, psi)})),
            (["fidelity", f"{d}/phi.json", f"{d}/psi.json"], 0,
             self._json_check({"fidelity": uhlmann_fidelity(phi, psi)})),
            (["ineq", f"{d}/phi.json", f"{d}/psi.json"], 0, self._ineq_check(inequality_suite(phi, psi))),
            (["gmean", f"{d}/alpha.json", f"{d}/beta.json"], 0,
             self._gram_check(geometric_mean(PositiveForm(ga), PositiveForm(gb)).gram)),
            (["purify", f"{d}/single.json"], 0, self._purify_check(purify(single).densities[0])),
            (["decompose", f"{d}/phi.json", f"{d}/psi.json"], 0, self._decompose_check(phi, psi)),
            (["kms-check", f"{d}/phi.json", "--trials", "2"], 0, self._kms_check),
            (["qf-reduce", f"{d}/triple.json"], 0, self._qf_check(sigma, s_cov, t_cov)),
            (["chain", "--lumped", str(self.LUMPED), "--lambda", repr(lam), "--mu", repr(mu)], 0,
             self._chain_check(self._lumped_amps(lam, mu))),
            (["chain", "--product-chain", str(self.SITES), "--site-a", spec_a, "--site-b", spec_b], 0,
             self._chain_check(self._product_amps(site_a, site_b))),
            (["amp", f"{d}/bad.json", f"{d}/psi.json"], 2, self._parse_error_check),
        ]
        self.round = len(self.commands)

    # -- expected values, computed in-process by the library --------------

    def _lumped_amps(self, lam, mu):
        p, q = geometric_weights(lam, self.LUMPED), geometric_weights(mu, self.LUMPED)
        return chain_amplitudes(diagonal_state(p), diagonal_state(q), build_lumped_diagonal_chain(p, q))

    def _product_amps(self, a, b):
        _, chain = build_product_chain([2] * self.SITES)
        return chain_amplitudes(product_state([a] * self.SITES), product_state([b] * self.SITES), chain)

    @staticmethod
    def _json_check(expected: dict):
        def check(stdout: str, f: list) -> None:
            got = json.loads(stdout)
            for k, v in expected.items():
                _close(got[k], v, k, f)

        return check

    def _ineq_check(self, rep):
        fields = ("amplitude", "fidelity", "root_difference_sq", "predual_distance",
                  "root_sum_norm", "lower_defect", "upper_defect", "sandwich_lower_defect",
                  "sandwich_upper_defect", "concavity_min_eig")
        return self._json_check({k: getattr(rep, k) for k in fields})

    @staticmethod
    def _gram_check(gram):
        def check(stdout: str, f: list) -> None:
            got = json.loads(stdout)
            _fail_if(got["dim"] != gram.shape[0], "gmean: wrong dimension", f)
            _close(_from_pairs(got["gram"]), gram.reshape(-1), "gmean gram", f)

        return check

    @staticmethod
    def _purify_check(density):
        def check(stdout: str, f: list) -> None:
            got = json.loads(stdout)
            _fail_if(got["algebra"]["blocks"] != [density.shape[0]], "purify: wrong algebra", f)
            _close(_from_pairs(got["densities"][0]), density.reshape(-1), "purified density", f)

        return check

    @staticmethod
    def _decompose_check(phi, psi):
        avg = 0.5 * (phi + psi)
        weights = avg.block_masses() / avg.mass
        dp, dq = decompose(phi, weights), decompose(psi, weights)
        comps = [transition_amplitude(a, b) for a, b in zip(dp.components, dq.components)]
        summary = amplitude_sum_check(phi, psi)

        def check(stdout: str, f: list) -> None:
            rows = _csv_rows(stdout)
            k = len(weights)
            _fail_if(len(rows) != k + 3, f"decompose: {len(rows)} CSV rows", f)
            if len(rows) != k + 3:
                return
            body = np.array([[float(v) for v in r[1:]] for r in rows[1 : k + 1]])
            _close(body[:, 0], weights, "central weights", f)
            _close(body[:, 1], comps, "component amplitudes", f)
            _close([float(v) for v in rows[-1]], list(summary), "sum formula", f)

        return check

    @staticmethod
    def _kms_check(stdout: str, f: list) -> None:
        got = json.loads(stdout)
        _fail_if(got["times"] != [-2.0, -1.0, 0.0, 1.0, 2.0], f"kms-check times {got['times']}", f)
        _fail_if(max(got["max_defects"] + [got["max_defect"]]) > TOL, "own-flow KMS defect", f)

    @staticmethod
    def _qf_check(sigma, s_cov, t_cov):
        space = PresymplecticSpace(sigma)
        red = quasifree.reduce(space, CovarianceForm(s_cov), CovarianceForm(t_cov))

        def check(stdout: str, f: list) -> None:
            got = json.loads(stdout)
            _fail_if(got["kernel_dim"] != red.kernel_dim or red.kernel_dim != 1, "kernel dim", f)
            _close(got["sigma"], red.space.sigma, "reduced sigma", f)
            _close(_from_pairs(got["S"]["gram"]), red.s_form.matrix.reshape(-1), "reduced S", f)
            _close(_from_pairs(got["T"]["gram"]), red.t_form.matrix.reshape(-1), "reduced T", f)
            _close(got["quotient"], red.quotient, "quotient map", f)

        return check

    @staticmethod
    def _chain_check(amps):
        def check(stdout: str, f: list) -> None:
            rows = _csv_rows(stdout)[1:]
            _close([float(r[1]) for r in rows], amps, "chain amplitudes", f)
            defects = [float(r[2]) for r in rows[:-1]]
            _close(defects, np.array(amps[:-1]) - np.array(amps[1:]), "chain defects", f)

        return check

    @staticmethod
    def _parse_error_check(stdout: str, f: list) -> None:
        got = json.loads(stdout)
        _fail_if(got.get("error", {}).get("type") != "ParseError", f"not a ParseError: {got}", f)

    # -- ops ---------------------------------------------------------------

    def inputs(self, i: int):
        return self.commands[i % len(self.commands)]

    def run(self, x, span) -> dict:
        argv = x[0]
        ctx = self.ctx
        if ctx.recorder is None:
            code, stdout = self._spawn([sys.executable, "-m", "amplitude_lab.cli", *argv])
            return {"code": code, "stdout": stdout}
        code, stdout = self._spawn([sys.executable, "-m", "ampbench.cli_child", *argv])
        if code != 0:
            return {"code": None, "stdout": stdout}
        reply = json.loads(stdout)
        ctx.recorder.adopt(reply["spans"])
        return {"code": reply["code"], "stdout": reply["stdout"]}

    def _spawn(self, cmd) -> tuple[int, str]:
        """Run one child to completion and record its peak resident memory."""
        errpath = self.ctx.workdir / "stderr.txt"
        with open(errpath, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.ctx.env)
        timer = threading.Timer(120.0, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.ctx.peak_child_rss_kb = max(self.ctx.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout.decode()

    def check(self, x, out: dict) -> list[str]:
        argv, code, checker = x
        f: list[str] = []
        if out["code"] != code:
            tail = (self.ctx.workdir / "stderr.txt").read_text()[-300:]
            return [f"{argv[0]}: exit code {out['code']}, expected {code}; stderr: {tail!r}"]
        try:
            checker(out["stdout"], f)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            f.append(f"{argv[0]}: unreadable output {out['stdout'][:200]!r}: {exc!r}")
        return [f"{argv[0]}: {msg}" for msg in f]


WORKLOADS = {w.name: w for w in (DensePairs, AbelianChain, ProductChain, CliOneshot)}
