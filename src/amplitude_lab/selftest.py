"""Deterministic self-test battery driven by a single RNG seed.

Each check exercises one contract of the package on seeded random
instances and reports a numeric witness (a max defect or a min margin).
An identical seed gives byte-identical output.
"""

from __future__ import annotations

import numpy as np

from . import central as ct
from . import quasifree as qf
from .algebra import (
    BlockAlgebra,
    BlockOperator,
    Functional,
    evaluate,
    make_algebra,
    support_projection,
)
from .amplitudes import (
    amplitude_kernel,
    inequality_suite,
    purify,
    pullback_along_quotient,
    QuotientMap,
    sqrt_vector,
    transition_amplitude,
    uhlmann_fidelity,
)
from .config import tolerances
from .forms import (
    PositiveForm,
    geometric_mean,
    interpolated_form,
    is_dominated,
    left_form,
    matrix_units,
    right_form,
)
from .linalg import eigh, hermitize, psd_sqrt, unitary_power
from .modular import (
    kms_defect,
    modular_conjugation,
    modular_flow,
    relative_modular,
    support_reduce,
)
from .restriction import (
    build_lumped_diagonal_chain,
    build_product_chain,
    chain_amplitudes,
    compose_embeddings,
    diagonal_state,
    embedding_as_ucp,
    product_state,
    restrict,
    ucp_pullback,
)
from .sampling import (
    dephasing_ucp,
    random_complex,
    random_density,
    random_embedding,
    random_gibbs,
    random_operator,
    random_psd,
    random_state,
    random_ucp,
    random_unitary,
)


# _spd_mean_closed_form and _kernel_gram repeat the oracles of tests/helpers.py
# on purpose: the installed package cannot import its test suite, and those
# test oracles stay in plain numpy so that they never share code with src/.
def _spd_mean_closed_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2} for invertible PSD inputs."""
    ar = psd_sqrt(a)
    ai = unitary_power(eigh(hermitize(a)), -0.5)
    return hermitize(ar @ psd_sqrt(hermitize(ai @ b @ ai)) @ ar)


def _kernel_gram(phi: Functional, psi: Functional) -> np.ndarray:
    """Brute-force Gram of the amplitude kernel over the matrix units."""
    units = list(matrix_units(phi.algebra))
    d = len(units)
    g = np.zeros((d, d), dtype=complex)
    for i, u in enumerate(units):
        for j, v in enumerate(units):
            g[i, j] = amplitude_kernel(phi, psi, u, v)
    return g


# Largest side of the random matrices the checks draw.
MAX_DIM = 8


def _mixed_algebras() -> list[BlockAlgebra]:
    return [make_algebra([2]), make_algebra([4]), make_algebra([2, 2]), make_algebra([1, 4])]


class _Suite:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.tol = tolerances().num
        self.results: list[tuple[str, bool, float]] = []

    def record(self, name: str, ok: bool, witness: float) -> None:
        self.results.append((name, bool(ok), float(witness)))

    # --- algebra ---------------------------------------------------------
    def check_sqrt_roundtrip(self):
        worst = 0.0
        for n in range(2, MAX_DIM + 1):
            h = random_psd(self.rng, n)
            worst = max(worst, float(np.max(np.abs(psd_sqrt(h) @ psd_sqrt(h) - h))))
        self.record("psd-sqrt-roundtrip", worst <= self.tol, worst)

    def check_support_projection(self):
        worst = 0.0
        for alg in _mixed_algebras():
            phi = random_state(self.rng, alg, rank_deficient=True)
            p = support_projection(phi)
            comp = alg.identity() - p
            for _ in range(3):
                x = random_operator(self.rng, alg)
                worst = max(worst, abs(evaluate(phi, comp @ x @ comp)))
        self.record("support-projection-annihilates", worst <= self.tol, worst)

    def check_evaluate_positive(self):
        margin = np.inf
        for alg in _mixed_algebras():
            phi = random_state(self.rng, alg)
            for _ in range(3):
                x = random_operator(self.rng, alg)
                margin = min(margin, evaluate(phi, x.adjoint() @ x).real)
        self.record("evaluate-positive-on-squares", margin >= -self.tol, margin)

    # --- forms -----------------------------------------------------------
    def check_gmean_oracle(self):
        worst = 0.0
        for _ in range(10):
            d = int(self.rng.integers(2, MAX_DIM + 1))
            a = random_psd(self.rng, d) + 0.2 * np.eye(d)
            b = random_psd(self.rng, d) + 0.2 * np.eye(d)
            mean = geometric_mean(PositiveForm(a), PositiveForm(b))
            worst = max(worst, float(np.max(np.abs(mean.gram - _spd_mean_closed_form(a, b)))))
        self.record("gmean-closed-form-oracle", worst <= self.tol, worst)

    def check_gmean_commuting(self):
        worst = 0.0
        for _ in range(5):
            d = int(self.rng.integers(2, MAX_DIM + 1))
            u = random_unitary(self.rng, d)
            wa = self.rng.uniform(0.0, 2.0, d)
            wb = self.rng.uniform(0.0, 2.0, d)
            a = hermitize(u @ np.diag(wa).astype(complex) @ u.conj().T)
            b = hermitize(u @ np.diag(wb).astype(complex) @ u.conj().T)
            expect = hermitize(u @ np.diag(np.sqrt(wa * wb)).astype(complex) @ u.conj().T)
            mean = geometric_mean(PositiveForm(a), PositiveForm(b))
            worst = max(worst, float(np.max(np.abs(mean.gram - expect))))
        self.record("gmean-commuting-case", worst <= self.tol, worst)

    def check_gmean_symmetry(self):
        worst = 0.0
        for _ in range(5):
            d = int(self.rng.integers(2, MAX_DIM + 1))
            a = PositiveForm(random_psd(self.rng, d))
            b = PositiveForm(random_psd(self.rng, d, rank=max(1, d - 1)))
            worst = max(
                worst,
                float(np.max(np.abs(geometric_mean(a, b).gram - geometric_mean(b, a).gram))),
            )
        self.record("gmean-symmetry", worst <= self.tol, worst)

    def check_domination(self):
        """Ando's maximality certificate: G_b - M G_a^{-1} M = 0 for M = G_a # G_b, G_a faithful.

        With rank G_a < rank G_b the Schur complement is not 0, so the
        mean of such a pair is checked with is_dominated instead.
        """
        worst = 0.0
        for _ in range(10):
            d = int(self.rng.integers(2, MAX_DIM + 1))
            ga = random_psd(self.rng, d) + 0.1 * np.eye(d)
            gb = random_psd(self.rng, d) + 0.1 * np.eye(d)
            beta = PositiveForm(gb)
            mean = geometric_mean(PositiveForm(ga), beta).gram
            worst = max(worst, float(np.max(np.abs(gb - mean @ np.linalg.solve(ga, mean)))))
            # rank d - 1 < rank G_b; a d x d draw keeps the later checks' random inputs
            a = random_complex(self.rng, (d, d))[:, 1:]
            low = PositiveForm(a @ a.conj().T)
            if not is_dominated(geometric_mean(low, beta), low, beta):
                worst = np.inf
        self.record("gmean-variational-bound", worst <= self.tol, worst)

    def check_kernel_bridge(self):
        worst = 0.0
        for alg in _mixed_algebras():
            phi = random_state(self.rng, alg, rank_deficient=True)
            psi = random_state(self.rng, alg)
            mean = geometric_mean(left_form(phi), right_form(psi))
            worst = max(worst, float(np.max(np.abs(_kernel_gram(phi, psi) - mean.gram))))
        self.record("amplitude-kernel-bridge", worst <= self.tol, worst)

    def check_interpolation_midpoint(self):
        worst = 0.0
        for alg in _mixed_algebras()[:2]:
            phi = random_state(self.rng, alg)
            psi = random_state(self.rng, alg)
            mid = interpolated_form(phi, psi, 0.5)
            mean = geometric_mean(left_form(phi), right_form(psi))
            worst = max(worst, float(np.max(np.abs(mid.gram - mean.gram))))
        self.record("interpolation-midpoint", worst <= self.tol, worst)

    # --- amplitudes ------------------------------------------------------
    def check_inequalities(self):
        margin = np.inf
        for alg in _mixed_algebras():
            phi = random_state(self.rng, alg)
            psi = random_state(self.rng, alg, rank_deficient=True)
            margin = min(margin, inequality_suite(phi, psi).min_defect())
        self.record("inequality-defects", margin >= -self.tol, margin)

    def check_purification_square(self):
        worst = 0.0
        for n in (2, 3):
            alg = make_algebra([n])
            phi = random_state(self.rng, alg)
            psi = random_state(self.rng, alg, rank_deficient=True)
            amp = transition_amplitude(phi, psi)
            amp2 = transition_amplitude(purify(phi), purify(psi))
            worst = max(worst, abs(amp2 - amp * amp))
        self.record("purification-square-law", worst <= self.tol, worst)

    def check_fidelity_sandwich(self):
        margin = np.inf
        for _ in range(5):
            alg = make_algebra([int(self.rng.integers(2, MAX_DIM + 1))])
            phi = random_state(self.rng, alg)
            psi = random_state(self.rng, alg)
            amp = transition_amplitude(phi, psi)
            fid = uhlmann_fidelity(phi, psi)
            margin = min(margin, fid - amp * amp, amp - fid)
        self.record("fidelity-sandwich", margin >= -self.tol, margin)

    # --- modular ---------------------------------------------------------
    def check_modular_root(self):
        worst = 0.0
        for _ in range(5):
            n = int(self.rng.integers(2, MAX_DIM + 1))
            alg = make_algebra([n])
            phi = Functional(alg, (random_gibbs(self.rng, n),))
            psi = random_state(self.rng, alg)
            delta_half = relative_modular(psi, phi, 0.5)
            x = random_operator(self.rng, alg)
            lhs = delta_half.apply(x @ sqrt_vector(phi))
            rhs = sqrt_vector(psi) @ x
            worst = max(worst, (lhs - rhs).norm())
        self.record("relative-modular-root", worst <= self.tol, worst)

    def check_conjugation(self):
        worst = 0.0
        n = 4
        alg = make_algebra([n, 2])
        phi = Functional(alg, (random_gibbs(self.rng, n), random_gibbs(self.rng, 2)))
        j = modular_conjugation(phi)
        xi = random_operator(self.rng, alg)
        eta = random_operator(self.rng, alg)
        twice = j.apply(j.apply(xi))
        worst = max(worst, max(float(np.max(np.abs(a - b))) for a, b in zip(twice.blocks, xi.blocks)))
        v = sqrt_vector(phi)
        xiv, etav = xi @ v, eta @ v
        inner_j = j.apply(xiv).inner(j.apply(etav))
        worst = max(worst, abs(inner_j - etav.inner(xiv)))
        self.record("modular-conjugation", worst <= self.tol, worst)

    def check_kms(self):
        worst = 0.0
        for n in range(2, 7):
            alg = make_algebra([n])
            phi = Functional(alg, (random_gibbs(self.rng, n),))
            x = random_operator(self.rng, alg)
            y = random_operator(self.rng, alg)
            for t in (-2.0, -0.5, 0.0, 1.0, 2.0):
                worst = max(worst, kms_defect(phi, x, y, t))
        self.record("kms-boundary-identity", worst <= self.tol, worst)

    def check_kms_counterexample(self):
        alg = make_algebra([2])
        flow = Functional(alg, (np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex),))
        th = np.pi / 8.0
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
        omega = Functional(alg, (u @ np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex) @ u.conj().T,))
        x = BlockOperator(alg, (np.array([[0, 1], [0, 0]], dtype=complex),))
        defect = kms_defect(omega, x, x.adjoint(), 0.0, flow=flow)
        self.record("kms-foreign-flow-detected", defect >= 1e-3, defect)

    def check_flow_invariance(self):
        worst = 0.0
        n = 5
        alg = make_algebra([n])
        phi = Functional(alg, (random_gibbs(self.rng, n),))
        y = random_operator(self.rng, alg)
        for t in (-1.5, 0.3, 2.0):
            worst = max(worst, abs(evaluate(phi, modular_flow(phi, t, y)) - evaluate(phi, y)))
        self.record("flow-invariance", worst <= self.tol, worst)

    def check_support_reduce(self):
        worst = 0.0
        alg = make_algebra([3, 2])
        phi = random_state(self.rng, alg, rank_deficient=True)
        red = support_reduce(phi)
        for _ in range(3):
            x = random_operator(self.rng, alg)
            # evaluation agrees on compressed elements of the support corner
            p = support_projection(phi)
            worst = max(
                worst,
                abs(evaluate(red.functional, red.compress(p @ x @ p)) - evaluate(phi, x)),
            )
        self.record("support-reduce-evaluation", worst <= self.tol, worst)

    # --- restriction -----------------------------------------------------
    def check_product_chain(self):
        sites = 5
        _, chain = build_product_chain([2] * sites)
        phi = product_state([np.diag([1.0, 0.0])] * sites)
        psi = product_state([np.eye(2) / 2.0] * sites)
        amps = np.array(chain_amplitudes(phi, psi, chain))
        expect = 2.0 ** (-0.5 * np.arange(1, sites + 1))
        worst = float(np.max(np.abs(amps - expect)))
        self.record("product-chain-closed-form", worst <= self.tol, worst)

    def check_chain_monotone(self):
        sites = 3
        ambient, chain = build_product_chain([2] * sites)
        margin = np.inf
        for _ in range(5):
            phi = random_state(self.rng, ambient)
            psi = random_state(self.rng, ambient)
            amps = chain_amplitudes(phi, psi, chain)
            end_defect = abs(amps[-1] - transition_amplitude(phi, psi))
            margin = min(margin, float(np.min(-np.diff(amps))), -end_defect)
        # + 0.0 turns a margin of -0 (an exact end) into 0
        self.record("chain-monotone", margin >= -self.tol, margin + 0.0)

    def check_ucp_monotone(self):
        margin = np.inf
        src = make_algebra([2, 3])
        tgt = make_algebra([4])
        for _ in range(5):
            channel = random_ucp(self.rng, src, tgt)
            phi = random_state(self.rng, tgt)
            psi = random_state(self.rng, tgt)
            gain = transition_amplitude(
                ucp_pullback(channel, phi), ucp_pullback(channel, psi)
            ) - transition_amplitude(phi, psi)
            margin = min(margin, gain)
        self.record("ucp-pullback-monotone", margin >= -self.tol, margin)

    def check_dephasing(self):
        alg = make_algebra([2])
        chan = dephasing_ucp(alg)
        phi = Functional(alg, (np.diag([1.0, 0.0]).astype(complex),))
        psi = Functional(alg, (np.full((2, 2), 0.5, dtype=complex),))
        before = transition_amplitude(phi, psi)
        after = transition_amplitude(ucp_pullback(chan, phi), ucp_pullback(chan, psi))
        gap = abs(before - 0.5) + abs(after - np.sqrt(0.5))
        self.record("dephasing-example", gap <= self.tol, gap)

    def check_tower(self):
        worst = 0.0
        src = make_algebra([2])
        inner = random_embedding(self.rng, src, num_target_blocks=2)
        outer = random_embedding(self.rng, inner.target, num_target_blocks=1)
        phi = random_state(self.rng, outer.target)
        two_step = restrict(restrict(phi, outer), inner)
        composite = restrict(phi, compose_embeddings(outer, inner))
        for a, b in zip(two_step.densities, composite.densities):
            worst = max(worst, float(np.max(np.abs(a - b))))
        self.record("restriction-tower", worst <= self.tol, worst)

    def check_embedding_ucp_agrees(self):
        worst = 0.0
        src = make_algebra([2, 1])
        emb = random_embedding(self.rng, src, num_target_blocks=2)
        phi = random_state(self.rng, emb.target)
        via_embed = restrict(phi, emb)
        via_ucp = ucp_pullback(embedding_as_ucp(emb), phi)
        for a, b in zip(via_embed.densities, via_ucp.densities):
            worst = max(worst, float(np.max(np.abs(a - b))))
        self.record("embedding-vs-ucp-restrict", worst <= self.tol, worst)

    # --- central ---------------------------------------------------------
    def check_central_sum(self):
        worst = 0.0
        alg = make_algebra([2, 3, 1])
        for _ in range(5):
            phi = random_state(self.rng, alg)
            psi = random_state(self.rng, alg)
            worst = max(worst, ct.amplitude_sum_check(phi, psi).defect)
            mu = self.rng.uniform(0.2, 1.0, alg.num_blocks)
            mu /= mu.sum()
            worst = max(worst, ct.amplitude_sum_check(phi, psi, mu).defect)
        self.record("central-sum-formula", worst <= self.tol, worst)

    def check_integrate_roundtrip(self):
        worst = 0.0
        comps = [
            Functional(make_algebra([2]), (random_density(self.rng, 2),)),
            Functional(make_algebra([3]), (random_density(self.rng, 3),)),
        ]
        mu = np.array([0.4, 0.6])
        algebra, whole = ct.integrate_disjoint_family(comps, mu)
        dec = ct.decompose(whole)
        worst = max(worst, float(np.max(np.abs(dec.weights - mu))))
        for k, comp in enumerate(comps):
            worst = max(
                worst, float(np.max(np.abs(dec.components[k].densities[0] - comp.densities[0])))
            )
        back = dec.reassemble()
        for a, b in zip(back.densities, whole.densities):
            worst = max(worst, float(np.max(np.abs(a - b))))
        self.record("integrate-decompose-roundtrip", worst <= self.tol, worst)

    # --- quasifree -------------------------------------------------------
    def check_qf_reduction(self):
        sigma = np.zeros((3, 3))
        sigma[0, 1], sigma[1, 0] = 1.0, -1.0
        space = qf.PresymplecticSpace(sigma)
        s = qf.make_covariance(np.diag([1.0, 1.0, 0.0]), sigma)
        triple = qf.reduce(space, s, s)
        ok = triple.kernel_dim == 1 and qf.validate_covariance(triple.s_form, triple.space)
        worst = 0.0
        for _ in range(3):
            x = self.rng.standard_normal(3)
            worst = max(
                worst,
                abs(
                    qf.quasifree_character(s, x)
                    - qf.quasifree_character(triple.s_form, triple.quotient @ x)
                ),
            )
        self.record("qf-reduction-invariance", ok and worst <= self.tol, worst)

    def check_thermal_chain(self):
        lam, mu = 0.3, 0.6
        n = 150
        chain = build_lumped_diagonal_chain(
            qf.geometric_weights(lam, n), qf.geometric_weights(mu, n)
        )
        phi = diagonal_state(qf.geometric_weights(lam, n))
        psi = diagonal_state(qf.geometric_weights(mu, n))
        amps = chain_amplitudes(phi, psi, chain)
        gap = abs(amps[-1] - qf.thermal_amplitude(lam, mu))
        self.record("thermal-amplitude-limit", gap <= 1e-6, gap)

    # --- quotient --------------------------------------------------------
    def check_quotient_invariance(self):
        worst = 0.0
        source = make_algebra([2, 3, 2])
        image = make_algebra([3, 2])
        pi = QuotientMap(source, image, (1, 2))
        for _ in range(5):
            phi = random_state(self.rng, image)
            psi = random_state(self.rng, image)
            worst = max(
                worst,
                abs(
                    transition_amplitude(
                        pullback_along_quotient(pi, phi), pullback_along_quotient(pi, psi)
                    )
                    - transition_amplitude(phi, psi)
                ),
            )
        self.record("quotient-pullback-invariance", worst <= self.tol, worst)

    def run(self):
        """Every check_* method, in definition order."""
        for name, check in vars(_Suite).items():
            if name.startswith("check_"):
                check(self)
        return self.results


def run_selftest(seed: int) -> bool:
    """Run the battery under tolerances(); print one line per check; True when all pass."""
    suite = _Suite(seed)
    results = suite.run()
    all_ok = True
    for idx, (name, ok, witness) in enumerate(results, start=1):
        status = "PASS" if ok else "FAIL"
        print(f"selftest {idx:02d} {name}: {status} witness={witness:.9g}")
        all_ok = all_ok and ok
    print(f"selftest summary: {'PASS' if all_ok else 'FAIL'} ({len(results)} checks)")
    return all_ok
