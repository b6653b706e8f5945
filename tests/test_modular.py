import numpy as np
import pytest

from amplitude_lab import (
    BlockOperator,
    EmptyReduction,
    Functional,
    NotFaithful,
    ShapeError,
    Superoperator,
    amplitude_kernel,
    evaluate,
    geometric_mean,
    kms_defect,
    left_form,
    make_algebra,
    matrix_units,
    modular_conjugation,
    modular_flow,
    relative_modular,
    right_form,
    sqrt_vector,
    support_reduce,
    transition_amplitude,
)
from amplitude_lab.sampling import random_gibbs, random_operator, random_psd, random_state


def qubit_gibbs():
    alg = make_algebra([2])
    return alg, Functional(alg, (np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex),))


def unit(alg, i, j):
    m = np.zeros((2, 2), dtype=complex)
    m[i, j] = 1.0
    return BlockOperator(alg, (m,))


class TestRelativeModular:
    def test_tracial_identity(self):
        alg = make_algebra([2])
        tau = Functional(alg, (np.eye(2, dtype=complex) / 2,))
        delta = relative_modular(tau, tau)
        x = random_operator(np.random.default_rng(0), alg)
        assert np.allclose(delta.apply(x).blocks[0], x.blocks[0])

    def test_eigenvalue_ratio(self):
        alg, phi = qubit_gibbs()
        delta = relative_modular(phi, phi)
        assert np.allclose(delta.apply(unit(alg, 0, 1)).blocks[0], 2.0 * unit(alg, 0, 1).blocks[0])

    def test_mixed_pair(self):
        alg, phi = qubit_gibbs()
        tau = Functional(alg, (np.eye(2, dtype=complex) / 2,))
        delta = relative_modular(tau, phi)
        assert np.allclose(delta.apply(unit(alg, 0, 0)).blocks[0], 0.75 * unit(alg, 0, 0).blocks[0])

    def test_requires_faithful(self):
        alg = make_algebra([2])
        pure = Functional(alg, (np.diag([1.0, 0.0]).astype(complex),))
        tau = Functional(alg, (np.eye(2, dtype=complex) / 2,))
        with pytest.raises(NotFaithful):
            relative_modular(tau, pure)
        # singular first argument is fine
        relative_modular(pure, tau)

    def test_singular_first_argument_takes_only_a_real_positive_power(self):
        # the old .power(1j) on such psi raised NotPositive or returned a
        # unitary, depending on the sign of roundoff in the zero eigenvalues
        alg = make_algebra([4])
        tau = Functional(alg, (np.eye(4) / 4,))
        for seed in range(40):
            d = random_psd(np.random.default_rng(seed), 4, rank=2)
            psi = Functional(alg, (d / np.trace(d).real,))
            for z in (1j, 0, -0.5):
                with pytest.raises(NotFaithful, match="first argument"):
                    relative_modular(psi, tau, z)
            left = relative_modular(psi, tau, 0.5).left.blocks[0]
            assert np.max(np.abs(left @ left - psi.densities[0])) <= 1e-12

    def test_positive_on_hs_space(self):
        rng = np.random.default_rng(1)
        alg = make_algebra([3])
        phi = Functional(alg, (random_gibbs(rng, 3),))
        psi = random_state(rng, alg)
        delta = relative_modular(psi, phi)
        mat = np.kron(delta.right.blocks[0].T, delta.left.blocks[0])  # on column-stacked vectors
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(mat)[0] >= -1e-10

    def test_half_power_identity(self):
        rng = np.random.default_rng(2)
        alg = make_algebra([3])
        phi = Functional(alg, (random_gibbs(rng, 3),))
        psi = random_state(rng, alg, rank_deficient=True)
        delta_half = relative_modular(psi, phi, 0.5)
        x = random_operator(rng, alg)
        lhs = delta_half.apply(x @ sqrt_vector(phi))
        rhs = sqrt_vector(psi) @ x
        assert (lhs - rhs).norm() <= 1e-10


class TestModularConjugation:
    def test_takes_roots_to_adjoints(self):
        rng = np.random.default_rng(3)
        alg = make_algebra([3])
        phi = Functional(alg, (random_gibbs(rng, 3),))
        j = modular_conjugation(phi)
        x = random_operator(rng, alg)
        lhs = j.apply(x @ sqrt_vector(phi))
        rhs = sqrt_vector(phi) @ x.adjoint()
        assert (lhs - rhs).norm() <= 1e-12

    def test_involutive(self):
        rng = np.random.default_rng(4)
        alg = make_algebra([2, 2])
        phi = Functional(alg, (random_gibbs(rng, 2), random_gibbs(rng, 2)))
        j = modular_conjugation(phi)
        xi = random_operator(rng, alg)
        assert (j.apply(j.apply(xi)) - xi).norm() <= 1e-12

    def test_antiunitary(self):
        rng = np.random.default_rng(5)
        alg = make_algebra([2])
        phi = Functional(alg, (random_gibbs(rng, 2),))
        j = modular_conjugation(phi)
        xi = random_operator(rng, alg) @ sqrt_vector(phi)
        eta = random_operator(rng, alg) @ sqrt_vector(phi)
        assert j.apply(xi).inner(j.apply(eta)) == pytest.approx(eta.inner(xi))

    def test_composition_rules(self):
        rng = np.random.default_rng(6)
        alg = make_algebra([2])
        phi = Functional(alg, (random_gibbs(rng, 2),))
        j = modular_conjugation(phi)
        jj = j.compose(j)
        assert not jj.antilinear
        delta = relative_modular(phi, phi)
        assert j.compose(delta).antilinear
        assert delta.compose(j).antilinear
        xi = random_operator(rng, alg)
        assert (jj.apply(xi) - xi).norm() <= 1e-12

    def test_s_operator(self):
        # J Delta^{1/2} sends x phi^{1/2} to x^* phi^{1/2}
        rng = np.random.default_rng(7)
        alg = make_algebra([3])
        phi = Functional(alg, (random_gibbs(rng, 3),))
        s = modular_conjugation(phi).compose(relative_modular(phi, phi, 0.5))
        x = random_operator(rng, alg)
        lhs = s.apply(x @ sqrt_vector(phi))
        rhs = x.adjoint() @ sqrt_vector(phi)
        assert (lhs - rhs).norm() <= 1e-10


class TestModularFlow:
    def test_time_zero(self):
        rng = np.random.default_rng(8)
        alg, phi = qubit_gibbs()
        x = random_operator(rng, alg)
        assert (modular_flow(phi, 0.0, x) - x).norm() <= 1e-14

    def test_commuting_fixed_point(self):
        alg, phi = qubit_gibbs()
        x = BlockOperator(alg, (np.diag([5.0, -1.0]).astype(complex),))
        for t in (0.5, -2.0):
            assert (modular_flow(phi, t, x) - x).norm() <= 1e-12

    def test_phase_on_offdiagonal_unit(self):
        alg, phi = qubit_gibbs()
        for t in (0.7, -1.3):
            flowed = modular_flow(phi, t, unit(alg, 0, 1))
            assert np.allclose(flowed.blocks[0][0, 1], 2.0 ** (1j * t))

    def test_automorphism(self):
        rng = np.random.default_rng(9)
        alg = make_algebra([3])
        phi = Functional(alg, (random_gibbs(rng, 3),))
        x, y = random_operator(rng, alg), random_operator(rng, alg)
        t = 1.3
        lhs = modular_flow(phi, t, x @ y)
        rhs = modular_flow(phi, t, x) @ modular_flow(phi, t, y)
        assert (lhs - rhs).norm() <= 1e-10
        star = modular_flow(phi, t, x.adjoint())
        assert (star - modular_flow(phi, t, x).adjoint()).norm() <= 1e-10

    def test_invariance(self):
        rng = np.random.default_rng(10)
        alg = make_algebra([4])
        phi = Functional(alg, (random_gibbs(rng, 4),))
        y = random_operator(rng, alg)
        for t in (-2.0, 0.4, 3.0):
            assert abs(evaluate(phi, modular_flow(phi, t, y)) - evaluate(phi, y)) <= 1e-10

    def test_superoperator_power_implements_flow(self):
        # dense vectorized conjugation matches the structured power
        rng = np.random.default_rng(11)
        alg = make_algebra([3])
        phi = Functional(alg, (random_gibbs(rng, 3),))
        delta = relative_modular(phi, phi)
        mat = np.kron(delta.right.blocks[0].T, delta.left.blocks[0])
        w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
        x = random_operator(rng, alg)
        root = sqrt_vector(phi)
        for t in (-3.0, -1.1, 0.6, 2.5):
            powered = (v * np.power(w.astype(complex), 1j * t)) @ v.conj().T
            vec = (x @ root).blocks[0].flatten(order="F")
            lhs = (powered @ vec).reshape((3, 3), order="F")
            rhs = (modular_flow(phi, t, x) @ root).blocks[0]
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestKms:
    def test_own_flow_exact(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 5):
            alg = make_algebra([n])
            phi = Functional(alg, (random_gibbs(rng, n),))
            x, y = random_operator(rng, alg), random_operator(rng, alg)
            for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
                assert kms_defect(phi, x, y, t) <= 1e-10

    def test_tracial_any_time(self):
        alg = make_algebra([3])
        tau = Functional(alg, (np.eye(3, dtype=complex) / 3,))
        rng = np.random.default_rng(13)
        x, y = random_operator(rng, alg), random_operator(rng, alg)
        assert kms_defect(tau, x, y, 1.7) <= 1e-12

    def test_foreign_flow_detected(self):
        # frozen counterexample: Gibbs flow vs a pi/8-rotated copy of the
        # same spectrum; the boundary defect is 0.0732...
        alg, flow = qubit_gibbs()
        th = np.pi / 8.0
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
        omega = Functional(alg, (u @ flow.densities[0] @ u.conj().T,))
        x = unit(alg, 0, 1)
        defect = kms_defect(omega, x, x.adjoint(), 0.0, flow=flow)
        assert defect >= 1e-3
        assert defect == pytest.approx(0.0732233047, abs=1e-9)


class TestSupportReduce:
    def test_diagonal_compression(self):
        alg = make_algebra([3])
        phi = Functional(alg, (np.diag([0.5, 0.5, 0.0]).astype(complex),))
        red = support_reduce(phi)
        assert red.algebra.block_dims == (2,)
        assert np.allclose(sorted(np.linalg.eigvalsh(red.functional.densities[0])), [0.5, 0.5])

    def test_faithful_unchanged(self):
        rng = np.random.default_rng(14)
        alg = make_algebra([2, 3])
        phi = random_state(rng, alg)
        red = support_reduce(phi)
        assert red.algebra.block_dims == alg.block_dims
        assert red.functional.mass == pytest.approx(phi.mass)

    def test_pure_state_to_scalar(self):
        alg = make_algebra([2])
        phi = Functional(alg, (np.diag([1.0, 0.0]).astype(complex),))
        red = support_reduce(phi)
        assert red.algebra.block_dims == (1,)
        assert red.functional.densities[0][0, 0] == pytest.approx(1.0)

    def test_zero_functional(self):
        alg = make_algebra([2])
        with pytest.raises(EmptyReduction):
            support_reduce(alg.zero_functional())

    def test_evaluation_preserved(self):
        from amplitude_lab import support_projection

        rng = np.random.default_rng(15)
        alg = make_algebra([3, 2])
        phi = random_state(rng, alg, rank_deficient=True)
        red = support_reduce(phi)
        p = support_projection(phi)
        for _ in range(5):
            x = random_operator(rng, alg)
            lhs = evaluate(red.functional, red.compress(p @ x @ p))
            assert lhs == pytest.approx(evaluate(phi, x), abs=1e-11)

    def test_reduced_is_faithful(self):
        from amplitude_lab import is_faithful

        rng = np.random.default_rng(16)
        alg = make_algebra([4])
        phi = random_state(rng, alg, rank_deficient=True)
        assert is_faithful(support_reduce(phi).functional)


class TestBridges:
    def test_relative_modular_gram_is_geometric_mean(self):
        # Gram of <x phi^{1/2} | Delta^{1/2} (y phi^{1/2})> over matrix
        # units equals the mean of the left and right forms
        rng = np.random.default_rng(17)
        alg = make_algebra([2])
        phi = Functional(alg, (random_gibbs(rng, 2),))
        psi = random_state(rng, alg)
        delta_half = relative_modular(psi, phi, 0.5)
        units = list(matrix_units(alg))
        root = sqrt_vector(phi)
        d = len(units)
        gram = np.zeros((d, d), dtype=complex)
        for i, u in enumerate(units):
            for j, v in enumerate(units):
                gram[i, j] = (u @ root).inner(delta_half.apply(v @ root))
        mean = geometric_mean(left_form(phi), right_form(psi)).gram
        assert np.max(np.abs(gram - mean)) <= 1e-9

    def test_perturbation_route_agrees_in_limit(self):
        # explicit support reduction vs the phi + psi/n regularization
        rng = np.random.default_rng(18)
        alg = make_algebra([3])
        phi = random_state(rng, alg, rank_deficient=True)
        psi = random_state(rng, alg, rank_deficient=True)
        x, y = random_operator(rng, alg), random_operator(rng, alg)
        target = amplitude_kernel(phi, psi, x, y)
        amp_target = transition_amplitude(phi, psi)
        gaps = []
        for n in (1e2, 1e6, 1e12):
            phi_n = phi + (1.0 / n) * psi
            psi_n = (1.0 / n) * phi + psi
            gaps.append(abs(amplitude_kernel(phi_n, psi_n, x, y) - target))
            assert abs(transition_amplitude(phi_n, psi_n) - amp_target) <= 2.0 / np.sqrt(n)
        assert gaps[2] <= 1e-5
        assert gaps[2] <= gaps[0] + 1e-12

    def test_power_zero_is_identity(self):
        rng = np.random.default_rng(19)
        alg = make_algebra([2])
        phi = Functional(alg, (random_gibbs(rng, 2),))
        x = random_operator(rng, alg)
        assert (relative_modular(phi, phi, 0.0).apply(x) - x).norm() <= 1e-12

    def test_apply_and_compose_take_only_their_own_kinds(self):
        alg, phi = qubit_gibbs()
        j = modular_conjugation(phi)
        for bad in (phi, np.eye(2), 1.0):
            with pytest.raises(TypeError):
                j.apply(bad)
        for bad in (phi, alg.identity(), np.eye(2)):
            with pytest.raises(TypeError):
                j.compose(bad)

    def test_identity_superoperator(self):
        alg = make_algebra([2, 3])
        rng = np.random.default_rng(20)
        x = random_operator(rng, alg)
        one = alg.identity()
        assert (Superoperator(one, one).apply(x) - x).norm() == 0.0

    def test_factors_are_block_operators_of_one_algebra(self):
        alg = make_algebra([2, 3])
        eyes = tuple(np.eye(n) for n in alg.block_dims)
        with pytest.raises(TypeError):
            Superoperator(alg, eyes, eyes)  # the signature before the factors were elements
        with pytest.raises(TypeError):
            Superoperator(alg.identity(), eyes)
        with pytest.raises(ShapeError, match="algebra mismatch"):
            Superoperator(alg.identity(), make_algebra([3, 2]).identity())
        assert Superoperator(alg.identity(), alg.identity()).algebra == alg
