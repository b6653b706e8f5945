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
    sqrt_vector,
    transition_amplitude,
    uhlmann_fidelity,
)
from .config import DEFAULT_TOL, tolerances, using
from .forms import (
    PositiveForm,
    geometric_mean,
    interpolated_form,
    is_dominated,
    left_form,
    matrix_units,
    right_form,
)
from .linalg import eigh, hermitize, power, psd_sqrt
from .modular import (
    kms_defect,
    modular_conjugation,
    modular_flow,
    relative_modular,
    support_reduce,
)
from .restriction import (
    SubalgebraChain,
    UcpMap,
    build_product_chain,
    chain_amplitudes,
    compose_embeddings,
    diagonal_state,
    embedding_as_ucp,
    product_state,
    quotient_map,
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


# _spd_mean_closed_form repeats the oracle of tests/helpers.py on purpose: the
# installed package cannot import its test suite, and that test oracle stays in
# plain numpy so that it never shares code with src/.
def _spd_mean_closed_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2} for invertible PSD inputs."""
    spec = eigh(hermitize(a))
    ar, ai = power(spec, 0.5), power(spec, -0.5)
    return hermitize(ar @ psd_sqrt(hermitize(ai @ b @ ai)) @ ar)


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over the entries."""
    return float(np.max(np.abs(a - b)))


# --- identities ------------------------------------------------------------
# Each identity is a function of its inputs, free of randomness, that returns
# its witness: a defect (0 in exact arithmetic) or a margin (>= 0).  _Suite
# draws the inputs; the tests call the same functions on their own inputs.


def commuting_mean_gap(u: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> float:
    """max|A # B - U diag(sqrt(wa wb)) U*| for A = U diag(wa) U* and B = U diag(wb) U*."""
    a = hermitize(u @ np.diag(wa).astype(complex) @ u.conj().T)
    b = hermitize(u @ np.diag(wb).astype(complex) @ u.conj().T)
    expect = hermitize(u @ np.diag(np.sqrt(wa * wb)).astype(complex) @ u.conj().T)
    mean = geometric_mean(PositiveForm(a), PositiveForm(b))
    return _gap(mean.gram, expect)


def ando_defect(ga: np.ndarray, gb: np.ndarray) -> float:
    """Ando's certificate max|G_b - M G_a^{-1} M| for M = G_a # G_b, G_a faithful: M is the
    largest M with [[G_a, M], [M, G_b]] >= 0 (Ando, Linear Algebra Appl. 26 (1979) 203)."""
    mean = geometric_mean(PositiveForm(ga), PositiveForm(gb)).gram
    return _gap(gb, mean @ np.linalg.solve(ga, mean))


def bridge_gap(phi: Functional, psi: Functional) -> float:
    """The paper's bridge: max|Gram of the amplitude kernel on the matrix units - L_phi # R_psi|."""
    units = list(matrix_units(phi.algebra))
    kernel = np.array([[amplitude_kernel(phi, psi, u, v) for v in units] for u in units])
    return _gap(kernel, geometric_mean(left_form(phi), right_form(psi)).gram)


def midpoint_gap(phi: Functional, psi: Functional) -> float:
    """max|interpolated_form(phi, psi, 1/2) - L_phi # R_psi|."""
    mean = geometric_mean(left_form(phi), right_form(psi))
    return _gap(interpolated_form(phi, psi, 0.5).gram, mean.gram)


def purification_defect(phi: Functional, psi: Functional) -> float:
    """|A(purify phi, purify psi) - A(phi, psi)^2| for states on one block."""
    amp = transition_amplitude(phi, psi)
    return abs(transition_amplitude(purify(phi), purify(psi)) - amp * amp)


def sandwich_margin(phi: Functional, psi: Functional) -> float:
    """min(F - A^2, A - F) for states: the fidelity F lies between A^2 and A."""
    amp = transition_amplitude(phi, psi)
    fid = uhlmann_fidelity(phi, psi)
    return float(np.min([fid - amp * amp, amp - fid]))


def foreign_flow_defect() -> float:
    """KMS defect at t = 0 of a turned qubit state against the flow of diag(2/3, 1/3); not 0."""
    alg = make_algebra([2])
    gibbs = np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex)
    th = np.pi / 8.0
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    omega = Functional(alg, (u @ gibbs @ u.conj().T,))
    x = BlockOperator(alg, (np.array([[0, 1], [0, 0]], dtype=complex),))
    return kms_defect(omega, x, x.adjoint(), 0.0, flow=Functional(alg, (gibbs,)))


def product_chain_gap(sites: int) -> float:
    """max|A_k - 2^{-k/2}| along the qubit product chain, pure against maximally mixed."""
    _, chain = build_product_chain([2] * sites)
    phi = product_state([np.diag([1.0, 0.0])] * sites)
    psi = product_state([np.eye(2) / 2.0] * sites)
    amps = np.array(chain_amplitudes(phi, psi, chain))
    return _gap(amps, 2.0 ** (-0.5 * np.arange(1, sites + 1)))


def chain_margin(phi: Functional, psi: Functional, chain: SubalgebraChain) -> float:
    """min of A_k - A_{k+1} along the chain and -|A_last - A(phi, psi)|: falls to the amplitude."""
    amps = chain_amplitudes(phi, psi, chain)
    return float(np.min([*-np.diff(amps), -abs(amps[-1] - transition_amplitude(phi, psi))]))


def ucp_gain(channel: UcpMap, phi: Functional, psi: Functional) -> float:
    """A(phi o T, psi o T) - A(phi, psi) for a UCP map T: never below 0."""
    pulled = transition_amplitude(ucp_pullback(channel, phi), ucp_pullback(channel, psi))
    return pulled - transition_amplitude(phi, psi)


def quotient_gap(pi: UcpMap, phi: Functional, psi: Functional) -> float:
    """|A(phi o pi, psi o pi) - A(phi, psi)|: a quotient or unitary pullback keeps it."""
    return abs(ucp_gain(pi, phi, psi))


def thermal_gap(lam: float, mu: float, n: int) -> float:
    """|A - thermal_amplitude(lam, mu)| for the diagonal states of n geometric weights each;
    A is the last entry of their lumped chain, which ends at the amplitude."""
    phi = diagonal_state(qf.geometric_weights(lam, n))
    psi = diagonal_state(qf.geometric_weights(mu, n))
    return abs(transition_amplitude(phi, psi) - qf.thermal_amplitude(lam, mu))


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

    # The one pass rule.  A NaN witness fails, and + 0.0 turns an exact -0 into 0.
    def defect(self, name: str, values) -> None:
        """Record max(0, values), which passes at <= self.tol, the caller's tolerances().num."""
        worst = float(np.max([0.0, *values])) + 0.0
        self.record(name, worst <= self.tol, worst)

    def margin(self, name: str, values) -> None:
        """Record min(inf, values), which passes at >= -self.tol."""
        least = float(np.min([np.inf, *values])) + 0.0
        self.record(name, least >= -self.tol, least)

    def _dim(self) -> int:
        return int(self.rng.integers(2, MAX_DIM + 1))

    def _pair(self, alg: BlockAlgebra, first: bool = False, second: bool = False):
        """Two random states on alg, drawn in order; a flag set makes that state rank deficient."""
        return random_state(self.rng, alg, first), random_state(self.rng, alg, second)

    # --- algebra ---------------------------------------------------------
    def check_sqrt_roundtrip(self):
        values = []
        for n in range(2, MAX_DIM + 1):
            h = random_psd(self.rng, n)
            root = psd_sqrt(h)
            values.append(_gap(root @ root, h))
        self.defect("psd-sqrt-roundtrip", values)

    def check_support_projection(self):
        values = []
        for alg in _mixed_algebras():
            phi = random_state(self.rng, alg, rank_deficient=True)
            p = support_projection(phi)
            comp = alg.identity() - p
            for _ in range(3):
                x = random_operator(self.rng, alg)
                values.append(abs(evaluate(phi, comp @ x @ comp)))
        self.defect("support-projection-annihilates", values)

    def check_evaluate_positive(self):
        values = []
        for alg in _mixed_algebras():
            phi = random_state(self.rng, alg)
            for _ in range(3):
                x = random_operator(self.rng, alg)
                values.append(evaluate(phi, x.adjoint() @ x).real)
        self.margin("evaluate-positive-on-squares", values)

    # --- forms -----------------------------------------------------------
    def check_gmean_oracle(self):
        values = []
        for _ in range(10):
            d = self._dim()
            a = random_psd(self.rng, d) + 0.2 * np.eye(d)
            b = random_psd(self.rng, d) + 0.2 * np.eye(d)
            mean = geometric_mean(PositiveForm(a), PositiveForm(b))
            values.append(_gap(mean.gram, _spd_mean_closed_form(a, b)))
        self.defect("gmean-closed-form-oracle", values)

    def check_gmean_commuting(self):
        values = []
        for _ in range(5):
            d = self._dim()
            u = random_unitary(self.rng, d)
            wa = self.rng.uniform(0.0, 2.0, d)
            values.append(commuting_mean_gap(u, wa, self.rng.uniform(0.0, 2.0, d)))
        self.defect("gmean-commuting-case", values)

    def check_gmean_symmetry(self):
        values = []
        for _ in range(5):
            d = self._dim()
            a = PositiveForm(random_psd(self.rng, d))
            b = PositiveForm(random_psd(self.rng, d, rank=max(1, d - 1)))
            values.append(_gap(geometric_mean(a, b).gram, geometric_mean(b, a).gram))
        self.defect("gmean-symmetry", values)

    def check_domination(self):
        """Ando's maximality certificate (ando_defect) on faithful pairs.

        With rank G_a < rank G_b the Schur complement is not 0, so the
        mean of such a pair is checked with is_dominated instead.
        """
        values = []
        for _ in range(10):
            d = self._dim()
            ga = random_psd(self.rng, d) + 0.1 * np.eye(d)
            gb = random_psd(self.rng, d) + 0.1 * np.eye(d)
            values.append(ando_defect(ga, gb))
            # rank d - 1 < rank G_b; a d x d draw keeps the later checks' random inputs
            a = random_complex(self.rng, (d, d))[:, 1:]
            low = PositiveForm(a @ a.conj().T)
            beta = PositiveForm(gb)
            dominated = is_dominated(geometric_mean(low, beta), low, beta)
            values.append(0.0 if dominated else np.inf)
        self.defect("gmean-variational-bound", values)

    def check_kernel_bridge(self):
        values = [bridge_gap(*self._pair(alg, first=True)) for alg in _mixed_algebras()]
        self.defect("amplitude-kernel-bridge", values)

    def check_interpolation_midpoint(self):
        values = [midpoint_gap(*self._pair(alg)) for alg in _mixed_algebras()[:2]]
        self.defect("interpolation-midpoint", values)

    # --- amplitudes ------------------------------------------------------
    def check_inequalities(self):
        values = []
        for alg in _mixed_algebras():
            phi, psi = self._pair(alg, second=True)
            values.append(inequality_suite(phi, psi).min_defect())
        self.margin("inequality-defects", values)

    def check_purification_square(self):
        values = [purification_defect(*self._pair(make_algebra([n]), second=True)) for n in (2, 3)]
        self.defect("purification-square-law", values)

    def check_fidelity_sandwich(self):
        values = [sandwich_margin(*self._pair(make_algebra([self._dim()]))) for _ in range(5)]
        self.margin("fidelity-sandwich", values)

    # --- modular ---------------------------------------------------------
    def check_modular_root(self):
        values = []
        for _ in range(5):
            n = self._dim()
            alg = make_algebra([n])
            phi = Functional(alg, (random_gibbs(self.rng, n),))
            psi = random_state(self.rng, alg)
            delta_half = relative_modular(psi, phi, 0.5)
            x = random_operator(self.rng, alg)
            lhs = delta_half.apply(x @ sqrt_vector(phi))
            rhs = sqrt_vector(psi) @ x
            values.append((lhs - rhs).norm())
        self.defect("relative-modular-root", values)

    def check_conjugation(self):
        n = 4
        alg = make_algebra([n, 2])
        phi = Functional(alg, (random_gibbs(self.rng, n), random_gibbs(self.rng, 2)))
        j = modular_conjugation(phi)
        xi = random_operator(self.rng, alg)
        eta = random_operator(self.rng, alg)
        twice = j.apply(j.apply(xi))
        values = [_gap(a, b) for a, b in zip(twice.blocks, xi.blocks)]
        v = sqrt_vector(phi)
        xiv, etav = xi @ v, eta @ v
        inner_j = j.apply(xiv).inner(j.apply(etav))
        values.append(abs(inner_j - etav.inner(xiv)))
        self.defect("modular-conjugation", values)

    def check_kms(self):
        values = []
        for n in range(2, 7):
            alg = make_algebra([n])
            phi = Functional(alg, (random_gibbs(self.rng, n),))
            x = random_operator(self.rng, alg)
            y = random_operator(self.rng, alg)
            for t in (-2.0, -0.5, 0.0, 1.0, 2.0):
                values.append(kms_defect(phi, x, y, t))
        self.defect("kms-boundary-identity", values)

    def check_kms_counterexample(self):
        defect = foreign_flow_defect()
        self.record("kms-foreign-flow-detected", defect >= 1e-3, defect)

    def check_flow_invariance(self):
        values = []
        n = 5
        alg = make_algebra([n])
        phi = Functional(alg, (random_gibbs(self.rng, n),))
        y = random_operator(self.rng, alg)
        for t in (-1.5, 0.3, 2.0):
            values.append(abs(evaluate(phi, modular_flow(phi, t, y)) - evaluate(phi, y)))
        self.defect("flow-invariance", values)

    def check_support_reduce(self):
        alg = make_algebra([3, 2])
        phi = random_state(self.rng, alg, rank_deficient=True)
        red = support_reduce(phi)
        p = support_projection(phi)
        values = []
        for _ in range(3):
            x = random_operator(self.rng, alg)
            # evaluation agrees on compressed elements of the support corner
            values.append(abs(evaluate(red.functional, red.compress(p @ x @ p)) - evaluate(phi, x)))
        self.defect("support-reduce-evaluation", values)

    # --- restriction -----------------------------------------------------
    def check_product_chain(self):
        self.defect("product-chain-closed-form", [product_chain_gap(5)])

    def check_chain_monotone(self):
        sites = 3
        ambient, chain = build_product_chain([2] * sites)
        values = [chain_margin(*self._pair(ambient), chain) for _ in range(5)]
        self.margin("chain-monotone", values)

    def check_ucp_monotone(self):
        src = make_algebra([2, 3])
        tgt = make_algebra([4])
        values = [ucp_gain(random_ucp(self.rng, src, tgt), *self._pair(tgt)) for _ in range(5)]
        self.margin("ucp-pullback-monotone", values)

    def check_dephasing(self):
        alg = make_algebra([2])
        chan = dephasing_ucp(alg)
        phi = Functional(alg, (np.diag([1.0, 0.0]).astype(complex),))
        psi = Functional(alg, (np.full((2, 2), 0.5, dtype=complex),))
        before = transition_amplitude(phi, psi)
        after = transition_amplitude(ucp_pullback(chan, phi), ucp_pullback(chan, psi))
        gap = abs(before - 0.5) + abs(after - np.sqrt(0.5))
        self.defect("dephasing-example", [gap])

    def check_tower(self):
        src = make_algebra([2])
        inner = random_embedding(self.rng, src, num_target_blocks=2)
        outer = random_embedding(self.rng, inner.target, num_target_blocks=1)
        phi = random_state(self.rng, outer.target)
        two_step = restrict(restrict(phi, outer), inner)
        composite = restrict(phi, compose_embeddings(outer, inner))
        values = [_gap(a, b) for a, b in zip(two_step.densities, composite.densities)]
        self.defect("restriction-tower", values)

    def check_embedding_ucp_agrees(self):
        src = make_algebra([2, 1])
        emb = random_embedding(self.rng, src, num_target_blocks=2)
        phi = random_state(self.rng, emb.target)
        via_embed = restrict(phi, emb)
        via_ucp = ucp_pullback(embedding_as_ucp(emb), phi)
        values = [_gap(a, b) for a, b in zip(via_embed.densities, via_ucp.densities)]
        self.defect("embedding-vs-ucp-restrict", values)

    # --- central ---------------------------------------------------------
    def check_central_sum(self):
        alg = make_algebra([2, 3, 1])
        values = []
        for _ in range(5):
            phi = random_state(self.rng, alg)
            psi = random_state(self.rng, alg)
            values.append(ct.amplitude_sum_check(phi, psi).defect)
            mu = self.rng.uniform(0.2, 1.0, alg.num_blocks)
            mu /= mu.sum()
            values.append(ct.amplitude_sum_check(phi, psi, mu).defect)
        self.defect("central-sum-formula", values)

    def check_integrate_roundtrip(self):
        comps = [
            Functional(make_algebra([2]), (random_density(self.rng, 2),)),
            Functional(make_algebra([3]), (random_density(self.rng, 3),)),
        ]
        mu = np.array([0.4, 0.6])
        algebra, whole = ct.integrate_disjoint_family(comps, mu)
        dec = ct.decompose(whole)
        values = [_gap(dec.weights, mu)]
        for k, comp in enumerate(comps):
            values.append(_gap(dec.components[k].densities[0], comp.densities[0]))
        back = dec.reassemble()
        for a, b in zip(back.densities, whole.densities):
            values.append(_gap(a, b))
        self.defect("integrate-decompose-roundtrip", values)

    # --- quasifree -------------------------------------------------------
    def check_qf_reduction(self):
        sigma = np.zeros((3, 3))
        sigma[0, 1], sigma[1, 0] = 1.0, -1.0
        space = qf.PresymplecticSpace(sigma)
        s = qf.make_covariance(np.diag([1.0, 1.0, 0.0]), sigma)
        triple = qf.reduce(space, s, s)
        ok = triple.kernel_dim == 1 and qf.validate_covariance(triple.s_form, triple.space)
        # a wrong kernel or an invalid reduced covariance records an infinite defect
        values = [0.0 if ok else np.inf]
        for _ in range(3):
            x = self.rng.standard_normal(3)
            values.append(
                abs(
                    qf.quasifree_character(s, x)
                    - qf.quasifree_character(triple.s_form, triple.quotient @ x)
                )
            )
        self.defect("qf-reduction-invariance", values)

    def check_thermal_chain(self):
        self.defect("thermal-amplitude-limit", [thermal_gap(0.3, 0.6, 150)])

    # --- quotient --------------------------------------------------------
    def check_quotient_invariance(self):
        source = make_algebra([2, 3, 2])
        image = make_algebra([3, 2])
        pi = quotient_map(source, image, (1, 2))
        values = [quotient_gap(pi, *self._pair(image)) for _ in range(5)]
        self.defect("quotient-pullback-invariance", values)

    def run(self):
        """Every check_* method, in definition order."""
        for name, check in vars(_Suite).items():
            if name.startswith("check_"):
                check(self)
        return self.results


def run_selftest(seed: int) -> bool:
    """Run the battery under DEFAULT_TOL, judged by the caller's tolerances().num; print one
    line per check; True when all pass.  So a caller's tolerances move the verdicts only."""
    suite = _Suite(seed)
    with using(DEFAULT_TOL):
        results = suite.run()
    all_ok = True
    for idx, (name, ok, witness) in enumerate(results, start=1):
        status = "PASS" if ok else "FAIL"
        print(f"selftest {idx:02d} {name}: {status} witness={witness:.9g}")
        all_ok = all_ok and ok
    print(f"selftest summary: {'PASS' if all_ok else 'FAIL'} ({len(results)} checks)")
    return all_ok
