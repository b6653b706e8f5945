import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amplitude_lab import (
    CovarianceForm,
    DomainError,
    InvalidCovariance,
    PresymplecticSpace,
    ShapeError,
    SolverFailed,
    build_lumped_diagonal_chain,
    chain_amplitudes,
    diagonal_state,
    geometric_weights,
    majorizing_inner_product,
    make_covariance,
    quasifree_character,
    reduce_covariance,
    thermal_amplitude,
    validate_covariance,
)


def standard_sigma(pairs: int, extra_zeros: int = 0) -> np.ndarray:
    d = 2 * pairs + extra_zeros
    s = np.zeros((d, d))
    for k in range(pairs):
        s[2 * k, 2 * k + 1] = 1.0
        s[2 * k + 1, 2 * k] = -1.0
    return s


class TestPresymplecticSpace:
    def test_sigma_with_an_imaginary_part_is_rejected(self):
        with pytest.raises(ShapeError, match="real"):
            PresymplecticSpace(np.array([[0, 1 + 1j], [-1 - 1j, 0]]))

    def test_exactly_real_complex_sigma_is_stored_as_float64(self):
        sigma = standard_sigma(1)
        space = PresymplecticSpace(sigma.astype(complex))
        assert space.sigma.dtype == np.float64
        assert np.array_equal(space.sigma, sigma)


@st.composite
def near_antisymmetric(draw):
    """A real sigma whose entries lie in the normal range, up to 1e307, antisymmetric up to a
    relative 1e-11 per entry, well inside the default slack."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0.0), st.floats(1e-300, 1e307), st.floats(-1e307, -1e-300))
    sigma = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(entry)
            sigma[i, j], sigma[j, i] = x, -x * (1.0 + draw(st.floats(-1e-11, 1e-11)))
    return sigma


@given(near_antisymmetric())
def test_sigma_is_stored_halved_first(sigma):
    # in the normal range 0.5 s - 0.5 s^T is 0.5 (s - s^T) exactly; only the second overflows
    assert np.array_equal(PresymplecticSpace(sigma).sigma, 0.5 * (sigma - sigma.T))
    big = sigma / max(np.max(np.abs(sigma)), 1e-300) * 1.7e308
    stored = PresymplecticSpace(big).sigma
    assert np.isfinite(stored).all()
    assert np.array_equal(stored, 0.5 * big - 0.5 * big.T)


class TestValidateCovariance:
    def test_vacuum_form(self):
        sigma = standard_sigma(1)
        space = PresymplecticSpace(sigma)
        s = make_covariance(np.eye(2), sigma)
        assert validate_covariance(s, space)

    def test_imaginary_part_alone_fails_psd(self):
        sigma = standard_sigma(1)
        space = PresymplecticSpace(sigma)
        s = CovarianceForm(0.5j * sigma)
        w = np.linalg.eigvalsh(s.matrix)
        assert np.allclose(w, [-0.5, 0.5])
        assert not validate_covariance(s, space)

    def test_classical_case(self):
        space = PresymplecticSpace(np.zeros((3, 3)))
        s = CovarianceForm(np.diag([1.0, 2.0, 0.5]).astype(complex))
        assert validate_covariance(s, space)

    def test_wrong_sigma_fails(self):
        space = PresymplecticSpace(standard_sigma(1))
        s = CovarianceForm(np.eye(2, dtype=complex))  # imaginary part is zero
        assert not validate_covariance(s, space)

    def test_shape_mismatch(self):
        space = PresymplecticSpace(standard_sigma(1))
        with pytest.raises(ShapeError):
            validate_covariance(CovarianceForm(np.eye(3, dtype=complex)), space)


class TestMajorizingInnerProduct:
    def test_vacuum_pair(self):
        sigma = standard_sigma(1)
        space = PresymplecticSpace(sigma)
        s = make_covariance(np.eye(2), sigma)
        assert np.allclose(majorizing_inner_product(s, s, space), 2.0 * np.eye(2))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(0)
        sigma = standard_sigma(2)
        space = PresymplecticSpace(sigma)
        a = rng.standard_normal((4, 4))
        g1 = a @ a.T + np.eye(4)
        s = make_covariance(g1, sigma)
        t = make_covariance(np.eye(4), sigma)
        gram = majorizing_inner_product(s, t, space)
        assert np.allclose(gram, gram.T)
        assert np.linalg.eigvalsh(gram)[0] >= -1e-12

    def test_degenerate_direction(self):
        sigma = standard_sigma(1, extra_zeros=1)
        space = PresymplecticSpace(sigma)
        s = make_covariance(np.diag([1.0, 1.0, 0.0]), sigma)
        gram = majorizing_inner_product(s, s, space)
        x = np.array([0.0, 0.0, 1.0])
        assert x @ gram @ x == pytest.approx(0.0)

    def test_invalid_covariance_rejected(self):
        sigma = standard_sigma(1)
        space = PresymplecticSpace(sigma)
        bad = CovarianceForm(0.5j * sigma)
        with pytest.raises(InvalidCovariance):
            majorizing_inner_product(bad, bad, space)


class TestReduce:
    def test_nondegenerate_identity(self):
        sigma = standard_sigma(1)
        space = PresymplecticSpace(sigma)
        s = make_covariance(np.eye(2), sigma)
        triple = reduce_covariance(space, s, s)
        assert triple.kernel_dim == 0
        assert np.allclose(triple.quotient, np.eye(2))

    def test_three_dim_example(self):
        sigma = standard_sigma(1, extra_zeros=1)
        space = PresymplecticSpace(sigma)
        s = make_covariance(np.diag([1.0, 1.0, 0.0]), sigma)
        triple = reduce_covariance(space, s, s)
        assert triple.kernel_dim == 1
        assert triple.space.dim == 2
        assert abs(triple.space.sigma[0, 1]) == pytest.approx(1.0)
        assert validate_covariance(triple.s_form, triple.space)
        assert validate_covariance(triple.t_form, triple.space)
        # the quotient composed with its section is the identity on V'
        assert np.allclose(triple.quotient @ triple.quotient.T, np.eye(2))

    def test_everything_collapses(self):
        space = PresymplecticSpace(np.zeros((2, 2)))
        zero = CovarianceForm(np.zeros((2, 2), dtype=complex))
        triple = reduce_covariance(space, zero, zero)
        assert triple.kernel_dim == 2
        assert triple.space.dim == 0

    def test_form_values_preserved(self):
        rng = np.random.default_rng(1)
        sigma = standard_sigma(1, extra_zeros=2)
        space = PresymplecticSpace(sigma)
        g = np.diag([2.0, 1.0, 0.0, 0.0])
        s = make_covariance(g, sigma)
        t = make_covariance(np.diag([1.0, 1.0, 0.0, 0.0]), sigma)
        triple = reduce_covariance(space, s, t)
        for _ in range(5):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            assert s(x, y) == pytest.approx(triple.s_form(triple.quotient @ x, triple.quotient @ y))

    def test_entries_of_1e308_reduce_without_overflow(self):
        # 2 (Re S + Re T) overflowed to inf, and eigh of it gave NaNs without raising
        sigma = standard_sigma(1, extra_zeros=1)
        space = PresymplecticSpace(sigma)
        s = make_covariance(np.diag([1e308, 1e308, 0.0]), sigma)
        triple = reduce_covariance(space, s, s)
        assert triple.kernel_dim == 1
        assert np.all(np.isfinite(triple.s_form.gram))

    def test_each_coordinate_block_is_ranked_on_its_own_scale(self):
        # one rank cut on the whole product took S's eigenvalue 1 beside 1e20 for roundoff:
        # kernel_dim 2, and the character at e_1 read 1.0 after the reduction, 0.607 before
        space = PresymplecticSpace(np.zeros((3, 3)))
        s = CovarianceForm(np.diag([1e20, 1.0, 0.0]))
        triple = reduce_covariance(space, s, s)
        assert triple.kernel_dim == 1
        e1 = np.array([0.0, 1.0, 0.0])
        before = quasifree_character(s, e1)
        assert before == pytest.approx(np.exp(-0.5), rel=1e-15)
        assert quasifree_character(triple.s_form, triple.quotient @ e1) == pytest.approx(before)

    def test_a_far_block_does_not_hide_a_direction_sigma_pairs(self):
        # the 1 beside 1e300 in the rotated block is cut; a kept 1e-300 in another block
        # must not widen that block's roundoff bound (cond 1e600 overflows to inf)
        sigma = standard_sigma(1, extra_zeros=2)
        r = np.eye(4)
        r[:2, :2] = [[0.6, -0.8], [0.8, 0.6]]
        s = make_covariance(r @ np.diag([2.0, 2e300, 0.0, 2e-300]) @ r.T, sigma)
        t = make_covariance(np.diag([2.0, 2.0, 0.0, 2e-300]), sigma)
        with pytest.raises(SolverFailed, match="too badly scaled"):
            reduce_covariance(PresymplecticSpace(sigma), s, t)

    def test_idempotent(self):
        sigma = standard_sigma(1, extra_zeros=1)
        space = PresymplecticSpace(sigma)
        s = make_covariance(np.diag([1.0, 1.0, 0.0]), sigma)
        first = reduce_covariance(space, s, s)
        second = reduce_covariance(first.space, first.s_form, first.t_form)
        assert second.kernel_dim == 0
        assert np.allclose(second.quotient, np.eye(first.space.dim))
        assert np.allclose(second.s_form.matrix, first.s_form.matrix)


class TestCharacter:
    def test_unit_argument(self):
        sigma = standard_sigma(1)
        s = make_covariance(np.eye(2), sigma)
        assert quasifree_character(s, np.zeros(2)) == pytest.approx(1.0)

    def test_exponent_arithmetic(self):
        sigma = standard_sigma(1)
        s = make_covariance(np.eye(2), sigma)
        x = np.array([1.0, 1.0])  # |x|^2 = 2, S(x,x) = 1
        assert quasifree_character(s, x) == pytest.approx(np.exp(-0.5))

    def test_reduction_invariance(self):
        rng = np.random.default_rng(2)
        sigma = standard_sigma(1, extra_zeros=1)
        space = PresymplecticSpace(sigma)
        s = make_covariance(np.diag([1.0, 1.0, 0.0]), sigma)
        triple = reduce_covariance(space, s, s)
        for _ in range(5):
            x = rng.standard_normal(3)
            assert quasifree_character(s, x) == pytest.approx(
                quasifree_character(triple.s_form, triple.quotient @ x)
            )

    def test_rejects_indefinite(self):
        sigma = standard_sigma(1)
        with pytest.raises(InvalidCovariance):
            quasifree_character(CovarianceForm(0.5j * sigma), np.zeros(2))


class TestThermalAmplitude:
    def test_identical_parameters(self):
        assert thermal_amplitude(0.37, 0.37) == pytest.approx(1.0)

    def test_half_vs_zero(self):
        assert thermal_amplitude(0.5, 0.0) == pytest.approx(np.sqrt(0.5))

    def test_series_oracle(self):
        lam, mu = 0.25, 0.5
        n = np.arange(50)
        series = np.sum(np.sqrt((1 - lam) * lam**n * (1 - mu) * mu**n))
        assert thermal_amplitude(lam, mu) == pytest.approx(series, abs=1e-12)
        assert thermal_amplitude(lam, mu) == pytest.approx(0.9472900419, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            thermal_amplitude(1.0, 0.5)
        with pytest.raises(DomainError):
            thermal_amplitude(0.5, -0.1)

    def test_chain_limit(self):
        lam, mu = 0.4, 0.7
        n = 200
        p = geometric_weights(lam, n)
        q = geometric_weights(mu, n)
        chain = build_lumped_diagonal_chain(p, q)
        amps = chain_amplitudes(diagonal_state(p), diagonal_state(q), chain)
        assert abs(amps[-1] - thermal_amplitude(lam, mu)) <= 1e-8
        assert np.all(np.diff(amps) <= 1e-12)

    def test_geometric_weights_sum(self):
        w = geometric_weights(0.85, 40)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w >= 0)
