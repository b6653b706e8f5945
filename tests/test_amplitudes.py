import dataclasses

import numpy as np
import pytest

from amplitude_lab import (
    BlockOperator,
    Functional,
    NotFactor,
    NotQuotient,
    TooLarge,
    UcpMap,
    amplitude_kernel,
    evaluate,
    inequality_suite,
    make_algebra,
    purify,
    quotient_map,
    sqrt_vector,
    transition_amplitude,
    ucp_pullback,
    uhlmann_fidelity,
)
from amplitude_lab.amplitudes import purification_op
from amplitude_lab.sampling import random_operator, random_state
from amplitude_lab.selftest import bridge_gap

from helpers import peak_bytes


def qubit(d00, d11):
    alg = make_algebra([2])
    return Functional(alg, (np.diag([d00, d11]).astype(complex),))


def plus_state():
    alg = make_algebra([2])
    return Functional(alg, (np.full((2, 2), 0.5, dtype=complex),))


class TestSqrtVector:
    def test_projection_fixed(self):
        phi = qubit(1.0, 0.0)
        assert np.allclose(sqrt_vector(phi).blocks[0], np.diag([1.0, 0.0]))

    def test_scalar_root(self):
        phi = qubit(0.5, 0.5)
        assert np.allclose(sqrt_vector(phi).blocks[0], np.eye(2) / np.sqrt(2.0))

    def test_norm_squared_is_mass(self):
        rng = np.random.default_rng(0)
        alg = make_algebra([2, 3])
        phi = random_state(rng, alg)
        assert sqrt_vector(phi).norm() ** 2 == pytest.approx(phi.mass)

    def test_reproduces_evaluation(self):
        rng = np.random.default_rng(1)
        alg = make_algebra([3])
        phi = random_state(rng, alg)
        v = sqrt_vector(phi)
        x = random_operator(rng, alg)
        assert v.inner(x @ v) == pytest.approx(evaluate(phi, x))


class TestTransitionAmplitude:
    def test_identical_state(self):
        rng = np.random.default_rng(2)
        phi = random_state(rng, make_algebra([3]))
        assert transition_amplitude(phi, phi) == pytest.approx(1.0)

    def test_diagonal_closed_form(self):
        assert transition_amplitude(qubit(1.0, 0.0), qubit(0.5, 0.5)) == pytest.approx(
            1.0 / np.sqrt(2.0)
        )

    def test_rank_one_projectors(self):
        assert transition_amplitude(qubit(1.0, 0.0), plus_state()) == pytest.approx(0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        alg = make_algebra([2, 2])
        phi = random_state(rng, alg, rank_deficient=True)
        psi = random_state(rng, alg)
        assert transition_amplitude(phi, psi) == pytest.approx(transition_amplitude(psi, phi))

    def test_bounded_by_masses(self):
        rng = np.random.default_rng(4)
        alg = make_algebra([3])
        phi = 2.5 * random_state(rng, alg)
        psi = 0.5 * random_state(rng, alg)
        a = transition_amplitude(phi, psi)
        assert 0.0 <= a <= np.sqrt(phi.mass * psi.mass) + 1e-12

    def test_commutative_hellinger(self):
        rng = np.random.default_rng(5)
        n = 6
        alg = make_algebra([1] * n)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        phi = Functional(alg, tuple(np.array([[x]], dtype=complex) for x in p))
        psi = Functional(alg, tuple(np.array([[x]], dtype=complex) for x in q))
        assert transition_amplitude(phi, psi) == pytest.approx(np.sum(np.sqrt(p * q)))
        assert uhlmann_fidelity(phi, psi) == pytest.approx(np.sum(np.sqrt(p * q)) ** 2)


class TestAmplitudeKernel:
    def test_units_specialize_to_amplitude(self):
        rng = np.random.default_rng(6)
        alg = make_algebra([2, 2])
        phi = random_state(rng, alg)
        psi = random_state(rng, alg)
        one = alg.identity()
        assert amplitude_kernel(phi, psi, one, one) == pytest.approx(
            transition_amplitude(phi, psi)
        )

    def test_tracial_unit_value(self):
        alg = make_algebra([2])
        tau = Functional(alg, (np.eye(2, dtype=complex) / 2,))
        e11 = BlockOperator(alg, (np.diag([1.0, 0.0]).astype(complex),))
        assert amplitude_kernel(tau, tau, e11, e11) == pytest.approx(0.5)

    def test_diagonal_positive(self):
        rng = np.random.default_rng(7)
        alg = make_algebra([3])
        phi = random_state(rng, alg, rank_deficient=True)
        psi = random_state(rng, alg)
        x = random_operator(rng, alg)
        val = amplitude_kernel(phi, psi, x, x)
        assert abs(val.imag) <= 1e-12
        assert val.real >= -1e-12

    def test_gram_equals_geometric_mean(self):
        rng = np.random.default_rng(8)
        for dims in ([2], [3], [2, 2], [4]):
            alg = make_algebra(dims)
            phi = random_state(rng, alg, rank_deficient=True)
            psi = random_state(rng, alg, rank_deficient=True)
            assert bridge_gap(phi, psi) <= 1e-9


class TestUhlmannFidelity:
    def test_identical(self):
        rng = np.random.default_rng(9)
        phi = random_state(rng, make_algebra([4]))
        assert uhlmann_fidelity(phi, phi) == pytest.approx(1.0)

    def test_pure_pair(self):
        assert uhlmann_fidelity(qubit(1.0, 0.0), plus_state()) == pytest.approx(0.5)

    def test_pure_vs_mixed(self):
        assert uhlmann_fidelity(qubit(1.0, 0.0), qubit(0.5, 0.5)) == pytest.approx(0.5)


class TestInequalitySuite:
    def test_worked_chain(self):
        rep = inequality_suite(qubit(0.9, 0.1), qubit(0.5, 0.5))
        assert rep.root_difference_sq == pytest.approx(0.2111456180, abs=1e-9)
        assert rep.predual_distance == pytest.approx(0.8)
        upper = rep.root_sum_norm * np.sqrt(rep.root_difference_sq)
        assert upper == pytest.approx(0.8944271910, abs=1e-9)
        assert rep.min_defect() >= -1e-10

    def test_degenerate_pair(self):
        phi = qubit(0.3, 0.7)
        rep = inequality_suite(phi, phi)
        assert rep.root_difference_sq == pytest.approx(0.0, abs=1e-12)
        assert rep.predual_distance == pytest.approx(0.0, abs=1e-12)
        assert rep.sandwich_lower_defect == pytest.approx(0.0, abs=1e-10)

    def test_pure_sandwich_tight_right_end(self):
        rep = inequality_suite(qubit(1.0, 0.0), plus_state())
        assert rep.amplitude == pytest.approx(0.5)
        assert rep.fidelity == pytest.approx(0.5)
        assert rep.sandwich_upper_defect == pytest.approx(0.0, abs=1e-10)
        assert rep.sandwich_lower_defect == pytest.approx(0.25, abs=1e-10)

    def test_random_pairs_never_violate(self):
        rng = np.random.default_rng(10)
        for dims in ([2], [4], [2, 3]):
            alg = make_algebra(dims)
            for _ in range(10):
                phi = random_state(rng, alg, rank_deficient=True)
                psi = random_state(rng, alg)
                assert inequality_suite(phi, psi).min_defect() >= -1e-9

    @pytest.mark.parametrize(
        "field",
        [
            "lower_defect",
            "upper_defect",
            "concavity_min_eig",
            "sandwich_lower_defect",
            "sandwich_upper_defect",
        ],
    )
    def test_a_nan_defect_is_the_worst(self, field):
        # Python's min kept or dropped a NaN depending on where it sat in the list
        rep = inequality_suite(qubit(0.9, 0.1), qubit(0.5, 0.5))
        assert rep.min_defect() >= -1e-10
        assert np.isnan(dataclasses.replace(rep, **{field: float("nan")}).min_defect())

    def test_unnormalized_skips_sandwich(self):
        rng = np.random.default_rng(11)
        alg = make_algebra([2])
        phi = 2.0 * random_state(rng, alg)
        psi = random_state(rng, alg)
        rep = inequality_suite(phi, psi)
        assert rep.fidelity is None
        assert rep.lower_defect >= -1e-10

    def test_each_square_root_is_taken_once(self, monkeypatch):
        import amplitude_lab.amplitudes as amplitudes

        calls = []
        real = amplitudes.power
        monkeypatch.setattr(amplitudes, "power", lambda *a: calls.append(1) or real(*a))
        rng = np.random.default_rng(12)
        alg = make_algebra([3])
        ts = (0.25, 0.5, 0.75)
        rep = inequality_suite(random_state(rng, alg), random_state(rng, alg))
        assert rep.fidelity is not None
        assert len(calls) == 2 + len(ts)


class TestPurify:
    def test_pure_input_stays_pure(self):
        from amplitude_lab import is_pure

        big = purify(qubit(1.0, 0.0))
        assert big.algebra.block_dims == (4,)
        assert is_pure(big)

    def test_always_rank_one(self):
        from amplitude_lab import is_pure

        rng = np.random.default_rng(12)
        for n in (2, 3):
            phi = random_state(rng, make_algebra([n]))
            assert is_pure(purify(phi))

    def test_worked_value(self):
        big_a = purify(qubit(0.75, 0.25))
        big_b = purify(qubit(0.5, 0.5))
        assert transition_amplitude(big_a, big_b) == pytest.approx(
            (2.0 + np.sqrt(3.0)) / 4.0, abs=1e-9
        )

    def test_square_law(self):
        rng = np.random.default_rng(13)
        for n in (2, 3):
            alg = make_algebra([n])
            phi = random_state(rng, alg, rank_deficient=True)
            psi = random_state(rng, alg)
            amp = transition_amplitude(phi, psi)
            assert transition_amplitude(purify(phi), purify(psi)) == pytest.approx(
                amp * amp, abs=1e-10
            )

    def test_evaluation_against_pairs(self):
        rng = np.random.default_rng(14)
        n = 3
        alg = make_algebra([n])
        phi = random_state(rng, alg)
        big = purify(phi)
        root = sqrt_vector(phi).blocks[0]
        for _ in range(5):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            op = BlockOperator(big.algebra, (purification_op(a, b),))
            expect = np.trace(root @ a @ root @ b)
            assert evaluate(big, op) == pytest.approx(expect)

    def test_commutative_purification_unsquared(self):
        # for diagonal densities on C^n the doubled algebra is C^{n^2}
        # and the purification puts p_i at the (i, i) slot, so the
        # purified amplitude equals the plain amplitude (no square);
        # treating the same density as a matrix state squares it instead
        p = np.array([0.2, 0.5, 0.3])
        q = np.array([0.6, 0.1, 0.3])
        n = p.size

        def commutative_purification(w):
            alg = make_algebra([1] * (n * n))
            mats = [np.zeros((1, 1), dtype=complex) for _ in range(n * n)]
            for i in range(n):
                mats[i * n + i][0, 0] = w[i]
            return Functional(alg, tuple(mats))

        base = np.sum(np.sqrt(p * q))
        amp_comm = transition_amplitude(commutative_purification(p), commutative_purification(q))
        assert amp_comm == pytest.approx(base)
        alg = make_algebra([n])
        matrix_amp = transition_amplitude(
            purify(Functional(alg, (np.diag(p).astype(complex),))),
            purify(Functional(alg, (np.diag(q).astype(complex),))),
        )
        assert matrix_amp == pytest.approx(base**2)

    def test_multi_block_rejected(self):
        rng = np.random.default_rng(15)
        phi = random_state(rng, make_algebra([2, 2]))
        with pytest.raises(NotFactor):
            purify(phi)

    def test_side_above_the_cap_is_refused_before_it_is_built(self):
        # 33^2 = 1089 is above MAX_CHAIN_DIM: the outer product alone would
        # be a 1089 x 1089 complex matrix, 19 MB
        phi = random_state(np.random.default_rng(16), make_algebra([33]))
        assert peak_bytes(lambda: pytest.raises(TooLarge, purify, phi))[0] < 2**20


class TestQuotientPullback:
    def test_first_block_projection(self):
        source = make_algebra([2, 3])
        image = make_algebra([2])
        pi = quotient_map(source, image, (0,))
        assert isinstance(pi, UcpMap)
        rng = np.random.default_rng(16)
        phi = random_state(rng, image)
        psi = random_state(rng, image)
        back_phi = ucp_pullback(pi, phi)
        # the identity piece copies the density exactly
        assert np.array_equal(back_phi.densities[0], phi.densities[0])
        assert np.max(np.abs(back_phi.densities[1])) == 0.0
        assert transition_amplitude(back_phi, ucp_pullback(pi, psi)) == pytest.approx(
            transition_amplitude(phi, psi)
        )

    def test_identity_quotient(self):
        alg = make_algebra([2, 2])
        pi = quotient_map(alg, alg, (0, 1))
        rng = np.random.default_rng(17)
        phi = random_state(rng, alg)
        back = ucp_pullback(pi, phi)
        for a, b in zip(back.densities, phi.densities):
            assert np.array_equal(a, b)

    def test_amplitude_preserved_random(self):
        rng = np.random.default_rng(18)
        source = make_algebra([3, 2, 2])
        image = make_algebra([2, 3])
        pi = quotient_map(source, image, (1, 0))
        for _ in range(10):
            phi = random_state(rng, image)
            psi = random_state(rng, image)
            lhs = transition_amplitude(ucp_pullback(pi, phi), ucp_pullback(pi, psi))
            assert lhs == pytest.approx(transition_amplitude(phi, psi), abs=1e-12)

    def test_pullback_respects_composition(self):
        source = make_algebra([2, 2])
        image = make_algebra([2])
        pi = quotient_map(source, image, (1,))
        rng = np.random.default_rng(19)
        phi = random_state(rng, image)
        x = random_operator(rng, source)
        assert evaluate(ucp_pullback(pi, phi), x) == pytest.approx(evaluate(phi, pi.apply(x)))

    def test_invalid_assignments(self):
        with pytest.raises(NotQuotient):
            quotient_map(make_algebra([2, 2]), make_algebra([2, 2]), (0, 0))
        with pytest.raises(NotQuotient):
            quotient_map(make_algebra([2, 3]), make_algebra([3, 2]), (0, 1))
        with pytest.raises(NotQuotient):
            quotient_map(make_algebra([2]), make_algebra([2]), (3,))
        with pytest.raises(NotQuotient):
            quotient_map(make_algebra([2, 2]), make_algebra([2, 2]), (0,))

    @pytest.mark.parametrize("entry", [0.0, "0", True, -1], ids=["float", "str", "bool", "negative"])
    def test_an_entry_that_is_no_block_index_is_not_a_quotient(self, entry):
        # 0.0 and "0" ended in a TypeError, and True was taken as block 1
        with pytest.raises(NotQuotient):
            quotient_map(make_algebra([2, 2]), make_algebra([2]), (entry,))
