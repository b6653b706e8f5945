import numpy as np
import pytest

from amplitude_lab import (
    DomainError,
    Functional,
    SingularMeasure,
    SolverFailed,
    StateRelation,
    amplitude_kernel,
    amplitude_sum_check,
    central_support,
    classify_pair,
    decompose,
    integrate_disjoint_family,
    make_algebra,
    transition_amplitude,
)
from amplitude_lab.sampling import random_density, random_operator, random_state

from helpers import rank_one_on_m1_m1_m1_m2


def two_point(p):
    alg = make_algebra([1, 1])
    return Functional(alg, (np.array([[p]], dtype=complex), np.array([[1 - p]], dtype=complex)))


class TestDecompose:
    def test_two_point_with_uniform_weights(self):
        phi = two_point(0.3)
        dec = decompose(phi, [0.5, 0.5])
        assert np.allclose(dec.radon_nikodym, [0.6, 1.4])
        assert np.allclose(dec.weights, [0.5, 0.5])
        back = dec.reassemble()
        assert back.densities[0][0, 0] == pytest.approx(0.3)

    def test_single_block(self):
        rng = np.random.default_rng(0)
        phi = random_state(rng, make_algebra([3]))
        dec = decompose(phi)
        assert np.allclose(dec.weights, [1.0])
        assert np.allclose(dec.components[0].densities[0], phi.densities[0])

    def test_block_masses_as_default(self):
        rng = np.random.default_rng(1)
        alg = make_algebra([2, 2])
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        phi = Functional(alg, (0.7 * rho1, 0.3 * rho2))
        dec = decompose(phi)
        assert np.allclose(dec.weights, [0.7, 0.3])
        assert np.allclose(dec.components[0].densities[0], rho1)
        assert np.allclose(dec.components[1].densities[0], rho2)
        assert np.allclose(dec.radon_nikodym, [1.0, 1.0])

    def test_singular_measure_rejected(self):
        phi = two_point(0.3)
        with pytest.raises(SingularMeasure):
            decompose(phi, [1.0, 0.0])

    @pytest.mark.parametrize("mu", [[np.nan, np.nan], [0.5, np.nan]])
    def test_non_finite_weights_rejected(self, mu):
        with pytest.raises(DomainError):
            decompose(two_point(0.3), mu)

    def test_reassembly_invariant(self):
        rng = np.random.default_rng(2)
        alg = make_algebra([2, 3, 1])
        phi = random_state(rng, alg)
        mu = rng.uniform(0.1, 1.0, 3)
        mu /= mu.sum()
        back = decompose(phi, mu).reassemble()
        for a, b in zip(back.densities, phi.densities):
            assert np.max(np.abs(a - b)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-309, 1e-310, 1e-312])
    def test_a_subnormal_block_decomposes(self, scale):
        # its positive part over a subnormal mass was inf, through numpy's reciprocal, or
        # failed the Hermitian check on its roundoff: NotPositive for a positive functional
        phi = rank_one_on_m1_m1_m1_m2(scale)
        back = decompose(phi).reassemble()
        for a, b in zip(back.densities, phi.densities):
            assert np.max(np.abs(a - b)) <= 1e-8 * scale


    def test_an_overflowing_block_mass_is_refused(self):
        # its mass was inf: weights [nan, 0], Radon-Nikodym [nan, inf] and an all-zero
        # component, and amplitude_sum_check refused a weight vector the caller never gave
        phi = Functional(make_algebra([2, 1]), (np.diag([1.7e308, 0.85e308]), np.eye(1)))
        for run in (decompose, lambda f: amplitude_sum_check(f, f)):
            with pytest.raises(SolverFailed, match="block 0 has mass inf: finite input too large"):
                run(phi)


class TestAmplitudeSumCheck:
    def test_two_point_closed_form(self):
        res = amplitude_sum_check(two_point(0.9), two_point(0.5))
        assert res.lhs == pytest.approx(np.sqrt(0.45) + np.sqrt(0.05))
        assert res.lhs == pytest.approx(0.8944271910, abs=1e-9)
        assert res.defect <= 1e-12

    def test_single_block_reduces_to_amplitude(self):
        rng = np.random.default_rng(3)
        alg = make_algebra([3])
        phi = random_state(rng, alg)
        psi = random_state(rng, alg)
        res = amplitude_sum_check(phi, psi, [1.0])
        assert res.rhs == pytest.approx(transition_amplitude(phi, psi))

    def test_disjoint_supports_vanish(self):
        alg = make_algebra([2, 2])
        phi = Functional(alg, (np.eye(2, dtype=complex) / 2, np.zeros((2, 2))))
        psi = Functional(alg, (np.zeros((2, 2)), np.eye(2, dtype=complex) / 2))
        res = amplitude_sum_check(phi, psi)
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.rhs == pytest.approx(0.0, abs=1e-12)

    def test_measure_invariance(self):
        rng = np.random.default_rng(4)
        alg = make_algebra([2, 2, 3])
        phi = random_state(rng, alg)
        psi = random_state(rng, alg)
        values = []
        for _ in range(5):
            mu = rng.uniform(0.05, 1.0, 3)
            mu /= mu.sum()
            res = amplitude_sum_check(phi, psi, mu)
            assert res.defect <= 1e-10
            values.append(res.rhs)
        assert np.ptp(values) <= 1e-10


class TestOneRankRule:
    """Each block's zero set is decided on its own scale, and every reader agrees."""

    def test_a_small_block_is_not_disjoint_from_its_partner(self):
        alg = make_algebra([1, 1])
        phi = Functional(alg, (np.array([[1.0]]), np.array([[1e-12]])))
        psi = Functional(alg, (np.array([[0.0]]), np.array([[1.0]])))
        assert classify_pair(phi, psi) is StateRelation.NEITHER
        assert amplitude_sum_check(phi, psi).defect <= 1e-8
        with pytest.raises(SingularMeasure):
            decompose(phi, [1.0, 0.0])

    def test_central_support_and_decompose_agree_on_a_signed_block(self):
        alg = make_algebra([1, 2])
        phi = Functional(alg, (np.array([[10.0]]), np.diag([1e-9, -0.9e-9])))
        psi = Functional(alg, (np.array([[0.5]]), np.eye(2) / 4))
        assert np.trace(central_support(phi).blocks[1]).real == 2.0
        dec = decompose(phi)
        assert dec.radon_nikodym[1] > 0.0
        # the component is the block's positive part over its trace
        assert np.allclose(dec.components[1].densities[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert amplitude_sum_check(phi, psi).defect <= 1e-8

    def test_default_weights_are_the_positive_part_masses(self):
        # block 1 of phi has rank 1 but a negative trace within the positivity
        # slack; raw block traces of the average are then not a distribution
        alg = make_algebra([1, 2])
        phi = Functional(alg, (np.array([[1.0]]), np.diag([1e-12, -1e-11])))
        psi = Functional(alg, (np.array([[1.0]]), np.zeros((2, 2))))
        assert phi.is_positive()
        assert amplitude_sum_check(phi, psi).defect <= 1e-8
        assert amplitude_sum_check(phi, psi, [0.5, 0.5]).defect <= 1e-8


class TestIntegrateDisjointFamily:
    def test_single_component(self):
        rng = np.random.default_rng(5)
        comp = random_state(rng, make_algebra([2]))
        algebra, whole = integrate_disjoint_family([comp], [1.0])
        assert algebra.block_dims == (2,)
        assert np.allclose(whole.densities[0], comp.densities[0])

    def test_two_copies_block_diagonal(self):
        rng = np.random.default_rng(6)
        comp = random_state(rng, make_algebra([2]))
        algebra, whole = integrate_disjoint_family([comp, comp], [0.5, 0.5])
        assert algebra.block_dims == (2, 2)
        for d in whole.densities:
            assert np.allclose(d, comp.densities[0] / 2.0)

    def test_kernel_identity(self):
        rng = np.random.default_rng(7)
        comps_phi = [random_state(rng, make_algebra([2])), random_state(rng, make_algebra([3]))]
        comps_psi = [random_state(rng, make_algebra([2])), random_state(rng, make_algebra([3]))]
        mu = np.array([0.35, 0.65])
        algebra, phi = integrate_disjoint_family(comps_phi, mu)
        _, psi = integrate_disjoint_family(comps_psi, mu)
        a = random_operator(rng, algebra)
        b = random_operator(rng, algebra)
        # <a phi^{1/2} b psi^{1/2}> = sum_k mu_k <a_k phi_k^{1/2} b_k psi_k^{1/2}>
        lhs = amplitude_kernel(phi, psi, b.adjoint(), a)
        rhs = 0.0 + 0.0j
        for k, (cp, cq) in enumerate(zip(comps_phi, comps_psi)):
            rhs += mu[k] * np.trace(
                a.blocks[k]
                @ np.asarray(_root(cp.densities[0]))
                @ b.blocks[k]
                @ np.asarray(_root(cq.densities[0]))
            )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_decompose_inverts(self):
        rng = np.random.default_rng(8)
        comps = [random_state(rng, make_algebra([2])), random_state(rng, make_algebra([2]))]
        mu = [0.25, 0.75]
        _, whole = integrate_disjoint_family(comps, mu)
        dec = decompose(whole)
        assert np.allclose(dec.weights, mu)
        for k, comp in enumerate(comps):
            assert np.allclose(dec.components[k].densities[0], comp.densities[0], atol=1e-12)

    def test_partial_integrations_disjoint(self):
        rng = np.random.default_rng(9)
        comps = [random_state(rng, make_algebra([2])) for _ in range(3)]
        mu = np.array([0.2, 0.5, 0.3])
        algebra, _ = integrate_disjoint_family(comps, mu)
        # integrate over {0} and {1, 2} separately as functionals on the sum
        left = Functional(
            algebra,
            (mu[0] * comps[0].densities[0], np.zeros((2, 2)), np.zeros((2, 2))),
        )
        right = Functional(
            algebra,
            (np.zeros((2, 2)), mu[1] * comps[1].densities[0], mu[2] * comps[2].densities[0]),
        )
        assert classify_pair(left, right) is StateRelation.DISJOINT

    def test_bad_weights(self):
        rng = np.random.default_rng(10)
        comp = random_state(rng, make_algebra([2]))
        with pytest.raises(DomainError):
            integrate_disjoint_family([comp, comp], [0.7, 0.7])


def _root(d):
    w, v = np.linalg.eigh(d)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


class TestProbabilityVector:
    def test_entries_are_tested_by_is_psd(self):
        # the literal -1e-12 rejected a roundoff entry that is_psd accepts
        from amplitude_lab.central import probability_vector

        p = probability_vector([1.0 + 1e-11, -1e-11], "p")
        assert np.array_equal(p, [1.0 + 1e-11, 0.0])
        with pytest.raises(DomainError):
            probability_vector([1.0 + 1e-9, -1e-9], "p")
