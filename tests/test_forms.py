import numpy as np
import pytest

from amplitude_lab import (
    DomainError,
    Functional,
    HermitianForm,
    PositiveForm,
    ShapeError,
    evaluate,
    geometric_mean,
    interpolated_form,
    is_dominated,
    left_form,
    make_algebra,
    matrix_units,
    operator_coordinates,
    right_form,
)
from amplitude_lab.forms import _pair
from amplitude_lab.linalg import diagonal_blocks, eigh, power, trace_norm
from amplitude_lab.sampling import random_gibbs, random_psd, random_state
from amplitude_lab.selftest import bridge_gap

from helpers import min_eigval, rank_one_on_m1_m1_m1_m2, spd_mean_closed_form


def brute_force_left_gram(phi):
    units = list(matrix_units(phi.algebra))
    d = len(units)
    g = np.zeros((d, d), dtype=complex)
    for a, u in enumerate(units):
        for b, v in enumerate(units):
            g[a, b] = evaluate(phi, u.adjoint() @ v)
    return g


def brute_force_right_gram(phi):
    units = list(matrix_units(phi.algebra))
    d = len(units)
    g = np.zeros((d, d), dtype=complex)
    for a, u in enumerate(units):
        for b, v in enumerate(units):
            g[a, b] = evaluate(phi, v @ u.adjoint())
    return g


class TestLeftRightForms:
    def test_tracial_state(self):
        alg = make_algebra([2])
        tau = Functional(alg, (np.eye(2, dtype=complex) / 2,))
        assert np.allclose(left_form(tau).gram, np.eye(4) / 2)
        assert np.allclose(right_form(tau).gram, np.eye(4) / 2)

    def test_pure_state_brute_force(self):
        # oracle: evaluate phi(e_ij^* e_kl) on all 16 unit pairs; in the
        # row-major unit order e11,e12,e21,e22 the diagonal comes out
        # (1, 0, 1, 0)
        alg = make_algebra([2])
        phi = Functional(alg, (np.diag([1.0, 0.0]).astype(complex),))
        g = left_form(phi).gram
        assert np.allclose(g, brute_force_left_gram(phi))
        assert np.allclose(np.diag(g), [1.0, 0.0, 1.0, 0.0])

    def test_commutative_block(self):
        alg = make_algebra([1, 1])
        p = 0.3
        phi = Functional(alg, (np.array([[p]]), np.array([[1 - p]])))
        assert np.allclose(left_form(phi).gram, np.diag([p, 1 - p]))

    def test_right_form_brute_force(self):
        rng = np.random.default_rng(0)
        alg = make_algebra([2, 2])
        phi = random_state(rng, alg, rank_deficient=True)
        assert np.allclose(right_form(phi).gram, brute_force_right_gram(phi))
        assert np.allclose(left_form(phi).gram, brute_force_left_gram(phi))

    def test_coordinates_match_evaluation(self):
        rng = np.random.default_rng(1)
        alg = make_algebra([2, 3])
        phi = random_state(rng, alg)
        form = left_form(phi)
        from amplitude_lab.sampling import random_operator

        x = random_operator(rng, alg)
        y = random_operator(rng, alg)
        direct = evaluate(phi, x.adjoint() @ y)
        via_gram = form(operator_coordinates(x), operator_coordinates(y))
        assert direct == pytest.approx(via_gram)


def test_forms_have_no_sum():
    # the sum of forms of two sides raised numpy's ValueError, and form + 1 an AttributeError
    for other in (HermitianForm(np.eye(3)), 1):
        with pytest.raises(TypeError):
            HermitianForm(np.eye(2)) + other


def pair_operators(alpha, beta):
    """J, A and B of the canonical representation of the pair, A and B dense."""
    jmat, (a, v), b = _pair(alpha.gram, beta.gram)
    return jmat, (v * a) @ v.conj().T, (v * b) @ v.conj().T


class TestPairRepresentation:
    def test_identity_pair(self):
        alpha = PositiveForm(np.eye(3))
        jmat, a_op, b_op = pair_operators(alpha, alpha)
        assert jmat.shape == (3, 3)
        assert np.allclose(a_op, np.eye(3) / 2)
        assert np.allclose(b_op, np.eye(3) / 2)

    def test_orthogonal_supports(self):
        alpha = PositiveForm(np.diag([1.0, 0.0]))
        beta = PositiveForm(np.diag([0.0, 1.0]))
        jmat, a_op, _ = pair_operators(alpha, beta)
        assert jmat.shape == (2, 2)
        assert np.allclose(sorted(np.linalg.eigvalsh(a_op)), [0.0, 1.0])

    def test_zero_pair(self):
        zero = PositiveForm(np.zeros((3, 3)))
        jmat, _, _ = pair_operators(zero, zero)
        assert jmat.shape == (0, 3)

    def test_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            alpha = PositiveForm(random_psd(rng, d, rank=int(rng.integers(1, d + 1))))
            beta = PositiveForm(random_psd(rng, d))
            j, a_op, b_op = pair_operators(alpha, beta)
            comm = a_op @ b_op - b_op @ a_op
            assert np.max(np.abs(comm)) <= 1e-8
            w = np.linalg.eigvalsh(a_op)
            assert w[0] >= -1e-10 and w[-1] <= 1 + 1e-10
            assert np.max(np.abs(j.conj().T @ a_op @ j - alpha.gram)) <= 1e-8
            assert np.max(np.abs(j.conj().T @ b_op @ j - beta.gram)) <= 1e-8

    def test_dim_mismatch(self):
        # _pair takes two Grams of one side; the public functions check the sides
        two, three = PositiveForm(np.eye(2)), PositiveForm(np.eye(3))
        with pytest.raises(ShapeError):
            geometric_mean(two, three)
        with pytest.raises(ShapeError):
            is_dominated(two, three, three)


class TestGeometricMean:
    def test_commuting_diagonal(self):
        alpha = PositiveForm(np.diag([4.0, 1.0]))
        beta = PositiveForm(np.diag([1.0, 9.0]))
        assert np.allclose(geometric_mean(alpha, beta).gram, np.diag([2.0, 3.0]))

    def test_mean_with_identity_is_sqrt(self):
        alpha = PositiveForm(np.array([[2.0, 1.0], [1.0, 1.0]]))
        mean = geometric_mean(alpha, PositiveForm(np.eye(2)))
        expect = np.array([[3.0, 1.0], [1.0, 2.0]]) / np.sqrt(5.0)
        assert np.allclose(mean.gram, expect)

    def test_orthogonal_supports_vanish(self):
        alpha = PositiveForm(np.diag([1.0, 0.0]))
        beta = PositiveForm(np.diag([0.0, 1.0]))
        assert np.max(np.abs(geometric_mean(alpha, beta).gram)) <= 1e-12

    def test_a_faithful_state_with_a_small_eigenvalue_keeps_its_mean(self):
        # A's eigenvalue eps on e01 is exact; a snap wider than this pair's roundoff drops it.
        # On e10, a = 1 - eps, and B's measured eigenvalue eps is kept where 1 - a would cancel
        alg = make_algebra([2])
        for eps in (1e-9, 1e-12, 3e-15):
            phi = Functional(alg, (np.diag([1.0 - eps, eps]),))
            mean = geometric_mean(left_form(phi), right_form(phi)).gram
            root = np.sqrt((1.0 - eps) * eps)
            assert mean[1, 1] == pytest.approx(root, rel=1e-12, abs=0.0)
            assert mean[2, 2] == pytest.approx(root, rel=1e-12, abs=0.0)
            assert np.max(np.abs(interpolated_form(phi, phi, 0.5).gram - mean)) <= 1e-14

    def test_masses_far_apart_keep_the_mean_and_the_bridge(self):
        # a = s / (s + 1) lies within 1e-12 of 1, where sqrt(a (1 - a)) lost six digits
        mean = geometric_mean(PositiveForm(1e12 * np.eye(2)), PositiveForm(np.eye(2))).gram
        assert np.max(np.abs(mean - 1e6 * np.eye(2))) <= 1e-12 * 1e6
        alg = make_algebra([3])
        phi = Functional(alg, (1e12 * np.diag([0.5, 0.3, 0.2]),))
        psi = Functional(alg, (np.eye(3) / 3,))
        assert bridge_gap(phi, psi) <= 1e-12 * np.sqrt(phi.mass * psi.mass)

    def test_grams_near_the_float_range_keep_their_mean(self):
        # G_a + G_b overflowed, and gmean of diag(1e308, 1) against itself printed the zero form
        g = PositiveForm(np.diag([1e308, 1.0]))
        with np.errstate(over="raise"):
            mean = geometric_mean(g, g).gram
        assert mean[0, 0] == pytest.approx(1e308, rel=1e-15)
        assert np.max(np.abs(mean - g.gram)) <= 1e-15 * 1e308

    def test_no_snap_reaches_an_interior_eigenvalue(self):
        # cond S is 3.3e14; A's eigenvalues 1/2 on e00 and e11 stay 1/2
        alg = make_algebra([2])
        phi = Functional(alg, (np.diag([1.0 - 3e-15, 3e-15]),))
        alpha, beta = left_form(phi), right_form(phi)
        one = operator_coordinates(alg.identity())
        assert geometric_mean(alpha, beta)(one, one) == pytest.approx(1.0, abs=1e-14)
        j, a_op, b_op = pair_operators(alpha, beta)
        assert np.max(np.abs(j.conj().T @ a_op @ j - alpha.gram)) <= 1e-14
        assert np.max(np.abs(j.conj().T @ b_op @ j - beta.gram)) <= 1e-14

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            alpha = PositiveForm(random_psd(rng, d, rank=int(rng.integers(1, d + 1))))
            beta = PositiveForm(random_psd(rng, d, rank=int(rng.integers(1, d + 1))))
            gap = geometric_mean(alpha, beta).gram - geometric_mean(beta, alpha).gram
            assert np.max(np.abs(gap)) <= 1e-9

    def test_closed_form_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            a = random_psd(rng, d) + 0.1 * np.eye(d)
            b = random_psd(rng, d) + 0.1 * np.eye(d)
            mean = geometric_mean(PositiveForm(a), PositiveForm(b))
            assert np.max(np.abs(mean.gram - spd_mean_closed_form(a, b))) <= 1e-9

    def test_scaling(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 4)
        b = random_psd(rng, 4)
        base = geometric_mean(PositiveForm(a), PositiveForm(b)).gram
        scaled = geometric_mean(PositiveForm(3.0 * a), PositiveForm(0.5 * b)).gram
        assert np.allclose(scaled, np.sqrt(1.5) * base)

    def test_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = 4
            ga = random_psd(rng, d)
            gb = random_psd(rng, d)
            # shrink each argument by a PSD amount while staying PSD
            wa = random_psd(rng, d)
            wb = random_psd(rng, d)
            for _ in range(60):
                if min_eigval(ga - wa) >= 0:
                    break
                wa = 0.5 * wa
            for _ in range(60):
                if min_eigval(gb - wb) >= 0:
                    break
                wb = 0.5 * wb
            big = geometric_mean(PositiveForm(ga), PositiveForm(gb)).gram
            small = geometric_mean(PositiveForm(ga - wa), PositiveForm(gb - wb)).gram
            assert min_eigval(big - small) >= -1e-9

    def test_superadditivity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = 4
            a1, a2 = random_psd(rng, d), random_psd(rng, d)
            b1, b2 = random_psd(rng, d), random_psd(rng, d)
            whole = geometric_mean(PositiveForm(a1 + a2), PositiveForm(b1 + b2)).gram
            parts = (
                geometric_mean(PositiveForm(a1), PositiveForm(b1)).gram
                + geometric_mean(PositiveForm(a2), PositiveForm(b2)).gram
            )
            assert min_eigval(whole - parts) >= -1e-9

    @pytest.mark.parametrize("scales", [(1e-301, 1e-309), (1e-303, 1e-311)])
    def test_subnormal_summands_keep_a_normal_divisor(self, scales):
        # 4^k below the normal range made numpy's complex division inf, and _pair's eigh failed
        alpha = left_form(rank_one_on_m1_m1_m1_m2(scales[0]))
        beta = right_form(rank_one_on_m1_m1_m1_m2(scales[1]))
        mean = geometric_mean(alpha, beta).gram
        assert np.isfinite(mean).all() and np.array_equal(mean, mean.conj().T)


class TestDirectSums:
    def test_summands_are_the_contiguous_blocks_of_exact_zeros(self):
        d = np.diag([2.0, 1.0])
        assert diagonal_blocks(d) == [slice(0, 1), slice(1, 2)]
        # the joint pattern of two matrices, and a permuted direct sum, which stays one block
        assert diagonal_blocks(np.kron(d, np.ones((2, 2)))) == [slice(0, 2), slice(2, 4)]
        assert diagonal_blocks(np.kron(d, np.ones((2, 2))), np.eye(4)[::-1]) == [slice(0, 4)]
        assert diagonal_blocks(np.kron(np.ones((2, 2)), d)) == [slice(0, 4)]
        # no tolerance: an entry of 1e-300 joins two summands
        assert diagonal_blocks(np.array([[1.0, 1e-300j], [-1e-300j, 1.0]])) == [slice(0, 2)]
        assert diagonal_blocks(np.zeros((0, 0))) == [slice(0, 0)]

    def test_a_summand_far_below_the_other_keeps_its_mean(self):
        # one pair computation on the whole Gram gave diag(1e308, 0)
        g = PositiveForm(np.diag([1e308, 1.0]))
        mean = geometric_mean(g, g).gram
        assert mean[1, 1] == pytest.approx(1.0, rel=1e-15)
        assert mean[0, 0] == pytest.approx(1e308, rel=1e-15) and mean[0, 1] == 0.0

    def test_the_unused_factor_is_exactly_the_identity(self):
        # power(spec, 0) was hermitize(v v*), off I by roundoff, so this left form was one summand
        rng = np.random.default_rng(3)
        phi = Functional(make_algebra([12]), (random_gibbs(rng, 12),))
        singular = eigh(random_psd(rng, 5, rank=2))
        for spec in (phi.spectrum()[0], singular):
            assert np.array_equal(power(spec, 0.0), np.eye(len(spec.w)))
        gram, d = left_form(phi).gram, phi.densities[0]
        assert np.array_equal(gram, np.kron(np.eye(12), power(phi.spectrum()[0], 1.0).T))
        assert np.allclose(gram, np.kron(np.eye(12), d.T), rtol=0.0, atol=1e-15)
        assert len(diagonal_blocks(gram)) == 12

    def test_forms_of_side_zero(self):
        zero = PositiveForm(np.zeros((0, 0)))
        assert geometric_mean(zero, zero).dim == 0
        assert is_dominated(zero, zero, zero)

    def test_an_empty_matrix_has_trace_norm_zero(self):
        assert trace_norm(np.zeros((0, 0))) == 0.0 and trace_norm(np.zeros((0, 3), complex)) == 0.0


class TestDomination:
    def test_self_domination(self):
        rng = np.random.default_rng(8)
        alpha = PositiveForm(random_psd(rng, 3))
        assert is_dominated(alpha, alpha, alpha)

    def test_doubled_form_fails(self):
        rng = np.random.default_rng(9)
        alpha = PositiveForm(random_psd(rng, 3))
        assert not is_dominated(2.0 * alpha, alpha, alpha)

    def test_mean_is_dominated(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            alpha = PositiveForm(random_psd(rng, d))
            beta = PositiveForm(random_psd(rng, d, rank=max(1, d - 1)))
            assert is_dominated(geometric_mean(alpha, beta), alpha, beta)

    def test_variational_maximality(self):
        # certified dominated forms never exceed the mean
        rng = np.random.default_rng(11)
        from amplitude_lab.linalg import psd_sqrt as root

        for _ in range(25):
            d = int(rng.integers(2, 6))
            ga = random_psd(rng, d) + 0.05 * np.eye(d)
            gb = random_psd(rng, d) + 0.05 * np.eye(d)
            alpha, beta = PositiveForm(ga), PositiveForm(gb)
            mean = geometric_mean(alpha, beta)
            k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            k /= max(np.linalg.norm(k, 2), 1.0)
            gamma = root(ga) @ k @ root(gb)
            gamma = 0.5 * (gamma + gamma.conj().T)
            for _ in range(80):
                if is_dominated(HermitianForm(gamma), alpha, beta):
                    break
                gamma = 0.5 * gamma
            assert is_dominated(HermitianForm(gamma), alpha, beta)
            assert min_eigval(mean.gram - gamma) >= -1e-9


class TestInterpolatedForm:
    def test_left_endpoint(self):
        rng = np.random.default_rng(12)
        alg = make_algebra([2, 2])
        phi = random_state(rng, alg, rank_deficient=True)
        psi = random_state(rng, alg, rank_deficient=True)
        # left_form is this same call, so the oracle is evaluation on the matrix units
        assert np.allclose(interpolated_form(phi, psi, 0.0).gram, brute_force_left_gram(phi))

    def test_right_endpoint(self):
        rng = np.random.default_rng(13)
        alg = make_algebra([3])
        phi = random_state(rng, alg)
        psi = random_state(rng, alg, rank_deficient=True)
        # the rank-deficient psi checks that psi^0 on its kernel is 1
        assert np.allclose(interpolated_form(phi, psi, 1.0).gram, brute_force_right_gram(psi))

    def test_midpoint_is_geometric_mean(self):
        rng = np.random.default_rng(14)
        for alg in (make_algebra([2]), make_algebra([2, 2])):
            phi = random_state(rng, alg)
            psi = random_state(rng, alg)
            mid = interpolated_form(phi, psi, 0.5).gram
            mean = geometric_mean(left_form(phi), right_form(psi)).gram
            assert np.max(np.abs(mid - mean)) <= 1e-9

    def test_domain(self):
        rng = np.random.default_rng(15)
        alg = make_algebra([2])
        phi = random_state(rng, alg)
        with pytest.raises(DomainError):
            interpolated_form(phi, phi, 1.5)
