"""The per-block spectrum a Functional keeps, and the eigh calls it saves.

Counts come from golden.record.solver_calls, the counting wrapper the
golden records use, patched over numpy.linalg.eigh and eigvalsh: one
entry per matrix handed to LAPACK, a stack of k counting k.
References are the test helpers' matrix functions from a fresh complex
eigh, so they do not read the cache they check, nor take the real
symmetric solver that real densities get.
"""

import ast
import functools
import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from amplitude_lab import (
    BlockOperator,
    CovarianceForm,
    Functional,
    HermitianForm,
    InvalidCovariance,
    NotPositive,
    PositiveForm,
    ShapeError,
    SolverFailed,
    SubalgebraChain,
    UnitalEmbedding,
    amplitude_sum_check,
    build_lumped_diagonal_chain,
    build_product_chain,
    chain_amplitudes,
    decompose,
    diagonal_state,
    functional_norm,
    geometric_mean,
    geometric_weights,
    hermitize,
    inequality_suite,
    interpolated_form,
    is_faithful,
    kms_defect,
    left_form,
    make_algebra,
    modular_conjugation,
    modular_flow,
    product_state,
    relative_modular,
    restrict,
    right_form,
    sqrt_vector,
    support_projection,
    support_reduce,
    total_rank,
    transition_amplitude,
    uhlmann_fidelity,
)
import amplitude_lab
from amplitude_lab import config, linalg
from amplitude_lab.config import Tolerances, using
from amplitude_lab.sampling import (
    random_complex,
    random_gibbs,
    random_operator,
    random_psd,
    random_state,
    random_unitary,
)

from golden.record import solver_calls
from helpers import block_diag, eig_fn, peak_bytes


EIGH = ("eigh", "eigvalsh")


@pytest.fixture
def eigh_calls():
    """List that grows by one entry (the matrix shape) per matrix handed to numpy eigh."""
    with solver_calls(lambda name, m: m.shape, ("eigh",)) as calls:
        yield calls


@pytest.fixture
def lapack_calls():
    """List that grows by (name, side, dtype) per matrix handed to numpy eigh or eigvalsh."""
    with solver_calls(lambda name, m: (name, m.shape[-1], m.dtype), EIGH) as calls:
        yield calls


@pytest.fixture
def lapack_dtypes():
    """List that grows by (name, input dtype) per matrix handed to numpy eigh or eigvalsh."""
    with solver_calls(lambda name, m: (name, m.dtype), EIGH) as calls:
        yield calls


@pytest.fixture
def lapack_sides():
    """List that grows by (name, side) per matrix handed to numpy eigh or eigvalsh."""
    with solver_calls(names=EIGH) as calls:
        yield calls


def fresh_pair(seed, dims):
    rng = np.random.default_rng(seed)
    alg = make_algebra(dims)
    return random_state(rng, alg), random_state(rng, alg)


def root(d):
    return eig_fn(d, lambda w: np.sqrt(np.maximum(w, 0.0)))


class TestEighCounts:
    def test_construction_takes_no_eigh(self, eigh_calls):
        phi, psi = fresh_pair(0, [3, 2, 1])
        _ = phi + psi
        assert eigh_calls == []

    def test_amplitude_takes_two_eigh_per_block_then_none(self, eigh_calls):
        phi, psi = fresh_pair(1, [3, 2, 1])
        first = transition_amplitude(phi, psi)
        assert len(eigh_calls) == 2 * 3
        again = transition_amplitude(phi, psi)
        swapped = transition_amplitude(psi, phi)
        assert len(eigh_calls) == 2 * 3
        assert again == first
        assert swapped == pytest.approx(first, abs=1e-14)

    def test_inequality_suite_on_a_fresh_m6_pair(self, eigh_calls):
        phi, psi = fresh_pair(2, [6])
        assert inequality_suite(phi, psi).min_defect() >= -1e-9
        assert len(eigh_calls) <= 10

    def test_kms_defect_after_require_positive_takes_none(self, eigh_calls):
        rng = np.random.default_rng(3)
        alg = make_algebra([4, 2])
        phi = Functional(alg, (0.5 * random_gibbs(rng, 4), 0.5 * random_gibbs(rng, 2)))
        x, y = random_operator(rng, alg), random_operator(rng, alg)
        phi.require_positive()
        del eigh_calls[:]
        assert kms_defect(phi, x, y, 0.7) <= 1e-9
        assert eigh_calls == []

    def test_arithmetic_starts_with_its_own_spectrum(self, eigh_calls):
        phi, psi = fresh_pair(4, [3, 2])
        phi.spectrum()
        psi.spectrum()
        del eigh_calls[:]
        diff = phi - psi
        diff.spectrum()
        assert eigh_calls == [(3, 3), (2, 2)]

    def test_functional_norm_takes_eigenvalues_only(self, lapack_dtypes):
        phi, psi = fresh_pair(4, [3, 2])
        diff = phi - psi
        norm = functional_norm(diff)
        assert [name for name, _ in lapack_dtypes] == ["eigvalsh", "eigvalsh"]
        assert diff._spectrum is None
        ref = sum(np.sum(np.abs(np.linalg.eigvalsh(d))) for d in diff.densities)
        assert norm == pytest.approx(ref, abs=1e-14)

    def test_relative_modular_reads_both_held_spectra(self, lapack_dtypes):
        # Superoperator.power re-diagonalised both factors: 4 eigh here for Delta^{1/2}
        rng = np.random.default_rng(25)
        alg = make_algebra([4, 2])
        phi, psi = (
            Functional(alg, (0.5 * random_gibbs(rng, 4), 0.5 * random_gibbs(rng, 2)))
            for _ in range(2)
        )
        phi.spectrum()
        psi.spectrum()
        del lapack_dtypes[:]
        zs = (0.5, 1.0, 1j, -0.25)
        deltas = [relative_modular(psi, phi, z) for z in zs]
        assert lapack_dtypes == []
        for z, delta in zip(zs, deltas):
            pairs = zip(delta.left.blocks, delta.right.blocks, psi.densities, phi.densities)
            for left, right, dq, dp in pairs:
                assert np.max(np.abs(left - eig_fn(dq, lambda w: (w + 0j) ** z))) <= 1e-12
                assert np.max(np.abs(right - eig_fn(dp, lambda w: (w + 0j) ** -z))) <= 1e-12

    def test_support_reduce_reads_the_held_spectrum(self, lapack_dtypes):
        phi = random_state(np.random.default_rng(26), make_algebra([4, 3, 2]), rank_deficient=True)
        phi.spectrum()
        del lapack_dtypes[:]
        red = support_reduce(phi)
        assert lapack_dtypes == []
        for k, v, d in zip(red.kept_blocks, red.isometries, red.functional.densities):
            assert np.array_equal(d, np.diag(np.diag(d)))
            assert np.max(np.abs(v.conj().T @ phi.densities[k] @ v - d)) <= 1e-14

    def test_support_reduce_leaves_the_reduced_spectrum_to_first_use(self, monkeypatch):
        # the reduced diag(w) is built with no spectrum; its first spectrum() takes one call on
        # a stack of 1x1 matrices per kept block, which gives (w, I) bit for bit
        phi = random_state(np.random.default_rng(27), make_algebra([6, 4, 2]), rank_deficient=True)
        red = support_reduce(phi)
        assert red.functional._spectrum is None
        calls, lapack = [], linalg._lapack

        def recording(name, a, **kwargs):
            calls.append((name, a.shape))
            return lapack(name, a, **kwargs)

        monkeypatch.setattr(linalg, "_lapack", recording)
        spectra = red.functional.spectrum()
        assert red.algebra.block_dims == (1, 3, 1)
        assert calls == [("eigh", (1, 1)), ("eigh", (3, 1, 1)), ("eigh", (1, 1))]
        for k, d, (w, v) in zip(red.kept_blocks, red.functional.densities, spectra):
            kept = phi.spectrum()[k].w[linalg.in_range(phi.spectrum()[k].w)]
            assert not w.flags.writeable and not v.flags.writeable
            assert np.array_equal(w, kept) and np.array_equal(d, np.diag(w))
            assert np.array_equal(v, np.eye(len(w))) and v.dtype == np.float64
        assert is_faithful(red.functional)

    def test_forms_are_diagonalised_summand_by_summand(self, lapack_sides):
        # the form algebra M12 + M4 of the dense-pairs bench: one pair computation on the
        # whole Gram made 2 eigh and 1 eigvalsh of side 160
        phi, psi = fresh_pair(13, [12, 4])
        alpha, beta = left_form(phi), right_form(psi)
        del lapack_sides[:]
        geometric_mean(alpha, beta)
        expected = {("eigh", 144): 2, ("eigh", 16): 2}
        assert Counter(lapack_sides) == expected
        del lapack_sides[:]
        PositiveForm(np.diag([1e308, 1.0]))
        assert lapack_sides == [("eigvalsh", 1)] * 2

    def test_built_forms_diagonalise_no_gram(self, lapack_sides):
        # their positivity is the held spectra's: the boundary eigvalsh ran once per summand
        phi, psi = fresh_pair(13, [12, 4])
        phi.spectrum(), psi.spectrum()
        del lapack_sides[:]
        forms = [left_form(phi), right_form(psi), interpolated_form(phi, psi, 0.3)]
        assert lapack_sides == []
        PositiveForm(forms[2].gram)
        assert Counter(lapack_sides) == {("eigvalsh", 144): 1, ("eigvalsh", 16): 1}

    def test_a_multiple_of_a_form_is_read_only_where_it_can_fail(self, lapack_sides, reads):
        # 2.0 * PositiveForm(g) ran hermitian_part and an eigvalsh of the whole scaled Gram
        g = random_psd(np.random.default_rng(34), 3)
        alpha, beta = PositiveForm(g), HermitianForm(g - np.eye(3))
        del lapack_sides[:]
        reads.clear()
        multiples = [(2.0 * alpha, alpha), (0 * alpha, alpha), ((0.5 + 0j) * alpha, alpha),
                     (-1.5 * beta, beta), (np.float64(3.0) * beta, beta)]
        assert lapack_sides == [] and reads == Counter()
        for (got, form), c in zip(multiples, (2.0, 0, 0.5 + 0j, -1.5, 3.0)):
            assert type(got) is type(form) and not got.gram.flags.writeable
            assert np.array_equal(got.gram, type(form)(c * form.gram).gram)  # what a read gives
        del lapack_sides[:]
        reads.clear()
        with pytest.raises(NotPositive):
            -1.0 * alpha
        assert lapack_sides == [("eigvalsh", 3)] and reads == Counter(hermitian_part=1)
        for form in (alpha, beta):
            with pytest.raises(NotPositive, match="not Hermitian"):
                1j * form
        # an overflowing multiple is read, so it raises its own class's error
        with pytest.raises(InvalidCovariance), np.errstate(all="ignore"):
            1e308 * CovarianceForm(4.0 * np.eye(2))

    def test_amplitude_sum_check_reads_the_parent_spectra(self, eigh_calls):
        phi, psi = fresh_pair(11, [3, 2, 1])
        lhs = transition_amplitude(phi, psi)
        del eigh_calls[:]
        check = amplitude_sum_check(phi, psi)
        assert eigh_calls == []
        assert check.lhs == lhs
        assert check.defect <= 1e-12


class TestSizeClasses:
    """linalg.eigh: each summand side of a matrix one stacked LAPACK call, so a diagonal
    density costs a stack of 1x1 solves and a sort."""

    def test_a_commutative_chain_hands_lapack_only_1x1_summands(self, lapack_sides):
        # diagonal sites, a pure one among them, give diagonal marginals at every level
        rng = np.random.default_rng(30)
        sites = [[np.diag(rng.dirichlet([1.0, 1.0])) for _ in range(8)] for _ in range(2)]
        sites[0][3] = np.diag([1.0, 0.0])
        _, chain = build_product_chain([2] * 8)
        amps = chain_amplitudes(product_state(sites[0]), product_state(sites[1]), chain)
        assert lapack_sides and {side for _, side in lapack_sides} == {1}
        for k, amp in enumerate(amps, start=1):
            p, q = (functools.reduce(np.kron, [np.diag(d) for d in s[:k]]) for s in sites)
            assert amp == pytest.approx(np.sum(np.sqrt(p * q)), abs=1e-14)

    def test_a_lumped_chain_keeps_its_bits(self):
        # each 1x1 block is one summand, handed to LAPACK as it is
        p, q = geometric_weights(0.25, 200), geometric_weights(0.5, 200)
        chain = build_lumped_diagonal_chain(p, q)
        amps = chain_amplitudes(diagonal_state(p), diagonal_state(q), chain)
        assert amps[-1] == 0.9472900418764619  # what one unsplit eigh per block gave

    def test_a_diagonal_root_is_its_diagonals_root_in_a_zero_matrix(self):
        # the dense (v * f(w)) @ v* and its hermitize peaked at 3.0 * 8 n^2 bytes
        n = config.MAX_CHAIN_DIM
        spec = linalg.eigh(np.diag(np.random.default_rng(31).random(n)))
        assert peak_bytes(lambda: linalg.power(spec, 0.5))[0] < 1.5 * 8 * n * n

    def test_a_diagonal_spectrum_holds_no_n_by_n_array(self):
        # it held its assembled v (1.00 x 8 n^2) and the int64 pattern scan peaked at 1.14
        n = 1024
        h = np.diag(np.random.default_rng(33).random(n))
        peak, held = peak_bytes(lambda: linalg.eigh(h))
        assert held < 0.05 * 8 * n * n and peak < 0.5 * 8 * n * n

    def test_a_diagonal_support_projection_is_its_mask_on_the_diagonal(self):
        # the dense v and u @ u* peaked at 3.0 * 8 n^2 bytes
        n = 1024
        w = np.random.default_rng(34).random(n)
        w[::3] = 0.0
        phi = Functional(make_algebra([n]), (np.diag(w),))
        phi.spectrum()
        assert peak_bytes(lambda: support_projection(phi))[0] < 1.5 * 8 * n * n
        assert np.array_equal(support_projection(phi).blocks[0], np.diag((w > 0).astype(float)))

    def test_a_plus_product_is_diagonalised_site_by_site(self, lapack_sides):
        # the chain's top step handed each 256 x 256 product to LAPACK whole
        plus = np.full((2, 2), 0.5)
        _, chain = build_product_chain([2] * 8)
        phi, psi = product_state([plus] * 8), product_state([plus] * 8)
        assert lapack_sides == [("eigh", 2)] * 2
        lapack_sides.clear()
        amps = chain_amplitudes(phi, psi, chain)
        assert Counter(lapack_sides) == Counter({("eigh", 2**k): 2 for k in range(1, 8)})
        assert amps == pytest.approx([1.0] * 8, abs=1e-12)

    def test_a_diagonal_product_chain_peaks_below_four_densities(self):
        # a v per level, sums begun in a zero matrix and n^2 kron temporaries peaked at 7.04
        rng = np.random.default_rng(30)
        sites = [[np.diag(rng.dirichlet([1.0, 1.0])) for _ in range(8)] for _ in range(2)]
        _, chain = build_product_chain([2] * 8)
        phi, psi = product_state(sites[0]), product_state(sites[1])
        assert peak_bytes(lambda: chain_amplitudes(phi, psi, chain))[0] < 4 * 8 * 256**2

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_one_summand_spectrum_is_lapacks_own_arrays(self, dtype):
        # a zero v the eigenvectors were scattered into peaked at 2.28 (real), 2.14 (complex)
        n, rng = 256, np.random.default_rng(32)
        h = linalg.hermitize(rng.standard_normal((n, n)))
        if dtype is complex:
            h = linalg.hermitize(h + 1j * rng.standard_normal((n, n)))
        assert peak_bytes(lambda: linalg.eigh(h))[0] < 1.5 * h.itemsize * n * n

    def test_the_root_of_a_diagonal_product_state_is_diagonal(self):
        sites = [np.diag([0.3, 0.7]), np.diag([1.0, 0.0]), np.eye(2) / 2.0, np.diag([0.9, 0.1])] * 2
        phi = product_state(sites)
        d = np.diag(phi.densities[0])
        root = sqrt_vector(phi).blocks[0]
        assert not (root - np.diag(np.diag(root))).any()
        assert np.array_equal(np.diag(root), np.power(np.where(linalg.in_range(d), d, 0.0), 0.5))

    def test_a_product_state_reads_its_sites_not_its_product(self, reads):
        # the 256 x 256 product was hermitized and checked entry by entry; one site object
        # repeated 8 times was read 8 times
        product_state([np.array([[0.5, 0.25j], [-0.25j, 0.5]])] * 8)
        assert reads == Counter(hermitian_part=1)
        h, k = np.array([[1.0, 1j], [-1j, 2.0]]), np.diag([1.0, 3.0])
        assert np.allclose(np.kron(1j * h, 1j * k), np.kron(1j * h, 1j * k).conj().T)
        with pytest.raises(NotPositive, match="site density 0 is not Hermitian"):
            product_state([1j * h, 1j * k])  # its product -(h (x) k) is Hermitian
        with pytest.raises(ShapeError, match=r"site density 0 has shape \(2, 3\)"):
            product_state([np.ones((2, 3)), np.ones((3, 2))])  # its product is 6 x 6


class TestSpectrum:
    def test_kept_and_read_only(self):
        phi, _ = fresh_pair(5, [3, 2])
        spec = phi.spectrum()
        assert phi.spectrum() is spec
        w, v = spec[0]
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            v[0, 0] = 0.0

    def test_block_components_share_the_parent_eigenvectors(self):
        phi, _ = fresh_pair(12, [3, 2])
        masses = phi.block_masses()
        for k, comp in enumerate(decompose(phi).components):
            ((w, v),) = comp.spectrum()
            w_parent, v_parent = phi.spectrum()[k]
            assert v is v_parent
            assert np.array_equal(w, w_parent / masses[k])
            assert not w.flags.writeable
            assert np.allclose(w, np.linalg.eigvalsh(comp.densities[0]), atol=1e-15)

    def test_matches_a_fresh_eigh_of_the_hermitized_density(self):
        phi, _ = fresh_pair(6, [4, 1])
        for d, (w, v) in zip(phi.densities, phi.spectrum()):
            w_ref, v_ref = np.linalg.eigh(0.5 * (d + d.conj().T))
            assert np.array_equal(w, w_ref)
            assert np.array_equal(v, v_ref)


class TestCachedResultsMatchReferences:
    """Each value is computed twice: once filling the cache, once reading it."""

    def test_transition_amplitude(self):
        phi, psi = fresh_pair(7, [4, 3, 1])
        ref = sum(
            np.trace(root(dp) @ root(dq)).real for dp, dq in zip(phi.densities, psi.densities)
        )
        for _ in range(2):
            assert transition_amplitude(phi, psi) == pytest.approx(ref, abs=1e-12)

    def test_uhlmann_fidelity(self):
        phi, psi = fresh_pair(8, [4, 3, 1])
        norm = sum(
            np.sum(np.linalg.svd(root(dp) @ root(dq), compute_uv=False))
            for dp, dq in zip(phi.densities, psi.densities)
        )
        for _ in range(2):
            assert uhlmann_fidelity(phi, psi) == pytest.approx(norm**2, abs=1e-12)

    def test_support_projection_and_total_rank(self):
        rng = np.random.default_rng(9)
        # A A^* has the range of A, whose projection is A (A^* A)^{-1} A^*
        factors = [
            rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            for n, r in ((5, 2), (3, 3), (2, 1))
        ]
        dens = [a @ a.conj().T for a in factors]
        phi = Functional(make_algebra([5, 3, 2]), tuple(d / 10.0 for d in dens))
        refs = [a @ np.linalg.solve(a.conj().T @ a, a.conj().T) for a in factors]
        for _ in range(2):
            assert total_rank(phi) == 2 + 3 + 1
            for p, ref in zip(support_projection(phi).blocks, refs):
                assert np.allclose(p, ref, atol=1e-12)

    def test_modular_flow(self):
        rng = np.random.default_rng(10)
        alg = make_algebra([4, 2])
        phi = Functional(alg, (0.5 * random_gibbs(rng, 4), 0.5 * random_psd(rng, 2)))
        x = random_operator(rng, alg)
        t = 0.8
        ref = [
            eig_fn(d, lambda w: w ** (1j * t)) @ b @ eig_fn(d, lambda w: w ** (-1j * t))
            for d, b in zip(phi.densities, x.blocks)
        ]
        for _ in range(2):
            for got, want in zip(modular_flow(phi, t, x).blocks, ref):
                assert np.allclose(got, want, atol=1e-12)


def real_psd(rng, n, rank=None):
    """Real symmetric PSD matrix, full rank unless a rank is given, stored complex."""
    a = rng.standard_normal((n, n if rank is None else rank))
    return (a @ a.T + (0.1 * np.eye(n) if rank is None else 0.0)).astype(complex)


def real_pair(seed, dims):
    """Two faithful states whose densities are real symmetric."""
    rng = np.random.default_rng(seed)
    alg = make_algebra(dims)
    out = []
    for _ in range(2):
        blocks = [real_psd(rng, n) for n in dims]
        total = sum(np.trace(b).real for b in blocks)
        out.append(Functional(alg, tuple(b / total for b in blocks)))
    return out


class TestRealSolver:
    """Densities whose imaginary part is exactly zero take the real symmetric solver."""

    def test_real_densities_get_real_eigenvectors(self, lapack_calls):
        rng = np.random.default_rng(20)
        blocks = (
            np.diag([0.3, 0.2, 0.0]),  # diagonal, rank deficient: three 1x1 summands
            np.full((2, 2), 0.5),  # plus
            real_psd(rng, 4, rank=2),  # rank deficient, not diagonal
            np.array([[0.7]]),  # 1x1
        )
        alg = make_algebra([3, 2, 4, 1])
        phi = Functional(alg, tuple(np.asarray(b, dtype=complex) for b in blocks))
        spec = phi.spectrum()
        phi.spectrum()
        real = np.dtype(float)
        expected = {("eigh", 1, real): 3 + 1, ("eigh", 2, real): 1, ("eigh", 4, real): 1}
        assert Counter(lapack_calls) == expected
        assert all(v.dtype == np.dtype(float) for _, v in spec)
        for d, (w, v) in zip(phi.densities, spec):
            assert np.allclose((v * w) @ v.T, d, atol=1e-14)
        assert total_rank(phi) == 2 + 1 + 2 + 1

    def test_one_imaginary_entry_keeps_the_complex_solver(self, lapack_calls):
        # for the whole stored matrix: its exactly real third coordinate takes it too
        d = np.diag([0.5, 0.3, 0.2]).astype(complex)
        d[0, 1], d[1, 0] = 1e-3j, -1e-3j
        phi = Functional(make_algebra([3]), (d,))
        ((w, v),) = phi.spectrum()
        expected = {("eigh", 2, np.dtype(complex)): 1, ("eigh", 1, np.dtype(complex)): 1}
        assert Counter(lapack_calls) == expected
        assert v.dtype == np.dtype(complex)
        w_ref, v_ref = np.linalg.eigh(phi.densities[0][:2, :2])
        assert np.array_equal(w, [0.2, *w_ref])
        assert np.array_equal(v, [[0, *v_ref[0]], [0, *v_ref[1]], [1, 0, 0]])

    def test_every_entry_point_picks_the_solver(self, lapack_dtypes):
        real = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
        cplx = real + np.array([[0.0, 1e-9j], [-1e-9j, 0.0]])
        expected = []
        for h, dtype in ((real, np.dtype(float)), (cplx, np.dtype(complex))):
            linalg.eigh(h)
            linalg.eigvalsh(h)
            names = ("eigh", "eigvalsh")
            expected += [(name, dtype) for name in names]
        assert lapack_dtypes == expected


class TestRealDensitiesMatchReferences:
    """Real-solver results against fresh complex-eigh references, filling then reading the cache."""

    def test_transition_amplitude_and_fidelity(self):
        phi, psi = real_pair(21, [4, 3, 1])
        roots = [(root(dp), root(dq)) for dp, dq in zip(phi.densities, psi.densities)]
        amp = sum(np.trace(rp @ rq).real for rp, rq in roots)
        norm = sum(np.sum(np.linalg.svd(rp @ rq, compute_uv=False)) for rp, rq in roots)
        for _ in range(2):
            assert transition_amplitude(phi, psi) == pytest.approx(amp, abs=1e-12)
            assert uhlmann_fidelity(phi, psi) == pytest.approx(norm**2, abs=1e-12)

    def test_support_projection_and_total_rank(self):
        rng = np.random.default_rng(22)
        factors = [rng.standard_normal((n, r)) for n, r in ((5, 2), (3, 3), (2, 1))]
        dens = [(a @ a.T).astype(complex) for a in factors]
        phi = Functional(make_algebra([5, 3, 2]), tuple(d / 10.0 for d in dens))
        refs = [a @ np.linalg.solve(a.T @ a, a.T) for a in factors]
        for _ in range(2):
            assert total_rank(phi) == 2 + 3 + 1
            for p, ref in zip(support_projection(phi).blocks, refs):
                assert np.allclose(p, ref, atol=1e-12)

    def test_modular_flow(self):
        phi, _ = real_pair(23, [4, 2])
        x = random_operator(np.random.default_rng(23), phi.algebra)
        t = 0.8
        ref = [
            eig_fn(d, lambda w: w ** (1j * t)) @ b @ eig_fn(d, lambda w: w ** (-1j * t))
            for d, b in zip(phi.densities, x.blocks)
        ]
        for _ in range(2):
            for got, want in zip(modular_flow(phi, t, x).blocks, ref):
                assert np.allclose(got, want, atol=1e-12)

    def test_interpolated_form(self):
        phi, psi = real_pair(24, [3, 2])
        t = 0.3
        grams = [
            np.kron(eig_fn(dq, lambda w: w**t), eig_fn(dp, lambda w: w ** (1.0 - t)).T)
            for dp, dq in zip(phi.densities, psi.densities)
        ]
        ref = block_diag(*grams)
        for _ in range(2):
            assert np.allclose(interpolated_form(phi, psi, t).gram, ref, atol=1e-12)


class TestOneValidationPass:
    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_stored_density_is_the_hermitian_part(self, imag):
        rng = np.random.default_rng(25)
        h = random_psd(rng, 4)
        h = h.real + imag * 1j * h.imag
        d = h + 1e-14 * random_complex(rng, (4, 4))  # roundoff-level asymmetry
        phi = Functional(make_algebra([4]), (d,))
        assert np.array_equal(phi.densities[0], 0.5 * (d + d.conj().T))
        assert np.array_equal(phi.densities[0], hermitize(d))
        assert not phi.densities[0].flags.writeable
        assert d.flags.writeable  # the caller's array is left alone

    @pytest.mark.parametrize("bad", [1e-6, np.nan])
    def test_non_hermitian_block_raises(self, bad):
        d = np.eye(3, dtype=complex) / 3
        d[0, 2] = bad
        with pytest.raises(NotPositive):
            Functional(make_algebra([2, 3]), (np.eye(2, dtype=complex), d))

    def test_restrict_stores_the_hermitian_part_of_the_partial_trace(self):
        rng = np.random.default_rng(26)
        m, c = 3, 2
        u = random_unitary(rng, m * c)
        emb = UnitalEmbedding(make_algebra([m]), make_algebra([m * c]), np.array([[c]]), (u,))
        phi = random_state(rng, emb.target)
        rot = u.conj().T @ phi.densities[0] @ u
        assert not np.array_equal(rot, rot.conj().T)  # roundoff left to remove
        # restrict hermitizes the rotated density once; its partial trace is
        # then exactly Hermitian, so it is its own Hermitian part
        partial = np.einsum("pjqj->pq", hermitize(rot).reshape(m, c, m, c))
        assert np.array_equal(partial, hermitize(partial))
        assert np.array_equal(restrict(phi, emb).densities[0], partial)

    def test_restrict_passes_the_tightest_hermiticity_check(self):
        # restrict hermitizes the rotated density u* D u, so its roundoff
        # asymmetry never meets the check, whatever tolerances are in force
        rng = np.random.default_rng(27)
        m, c = 3, 2
        tight = Tolerances(slack=1e-300, num=1e-300)
        u = random_unitary(rng, m * c)
        emb = UnitalEmbedding(make_algebra([m]), make_algebra([m * c]), np.array([[c]]), (u,))
        densities = random_state(rng, emb.target).densities
        with using(tight):
            phi = Functional(emb.target, densities)
            assert restrict(phi, emb).algebra == emb.source

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda g: Functional(make_algebra([3]), (g,)).densities[0], NotPositive),
            (lambda g: HermitianForm(g).gram, NotPositive),
            (lambda g: CovarianceForm(g).matrix, InvalidCovariance),
        ],
    )
    def test_every_constructor_shares_one_hermiticity_check(self, build, error):
        rng = np.random.default_rng(28)
        g = random_psd(rng, 3) + 1e-14 * random_complex(rng, (3, 3))
        assert np.array_equal(build(g), hermitize(g))
        g[0, 2] += 1e-6
        with pytest.raises(error, match="not Hermitian within tolerance"):
            build(g)


@pytest.fixture
def reads(monkeypatch):
    """Counter of hermitian_part and frozen calls, wrapped under every module's name for them."""
    calls = Counter()
    for name in ("hermitian_part", "frozen"):
        original = getattr(linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in _package_modules():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def _package_modules():
    return [
        importlib.import_module(f"amplitude_lab.{path.stem}")
        for path in sorted(Path(amplitude_lab.__file__).parent.glob("*.py"))
    ]


@pytest.fixture
def builds(monkeypatch):
    """Counter of config.integer calls and of UnitalEmbedding and SubalgebraChain reads, their
    __post_init__."""
    calls = Counter()
    integer = config.integer

    def counting_integer(*args, **kwargs):
        calls["integer"] += 1
        return integer(*args, **kwargs)

    for module in _package_modules():
        if getattr(module, "integer", None) is integer:
            monkeypatch.setattr(module, "integer", counting_integer)
    for cls in (UnitalEmbedding, SubalgebraChain):

        def counting_post_init(self, *args, _name=cls.__name__, _post_init=cls.__post_init__):
            calls[_name] += 1
            _post_init(self, *args)

        monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    return calls


class TestBuiltPath:
    def test_a_lumped_chain_reads_no_block_it_builds(self, reads):
        p, q = geometric_weights(0.25, 50), geometric_weights(0.5, 50)
        chain = build_lumped_diagonal_chain(p, q)
        phi, psi = diagonal_state(p), diagonal_state(q)
        reads.clear()
        assert chain_amplitudes(phi, psi, chain)[-1] == transition_amplitude(phi, psi)
        assert reads == Counter()

    def test_a_lumped_chain_is_built_with_no_reader(self, builds):
        # 200 links read a dense multiplicity matrix each, and 20,100 block sides
        p, q = geometric_weights(0.25, 200), geometric_weights(0.5, 200)
        builds.clear()
        assert len(build_lumped_diagonal_chain(p, q)) == 200
        assert builds == Counter()

    def test_a_product_chain_is_built_with_no_reader(self, builds):
        # the chain went through SubalgebraChain's reader; only the caller's sides are read
        builds.clear()
        assert len(build_product_chain([2] * 10)[1]) == 10
        assert builds == Counter(integer=10)

    def test_a_diagonal_state_reads_no_block_it_builds(self, reads, builds):
        # each 1x1 block went through hermitian_part, and each side through config.integer
        weights = geometric_weights(0.25, 200)
        reads.clear()
        builds.clear()
        phi = diagonal_state(weights)
        assert reads == Counter() and builds == Counter()
        assert [d[0, 0] for d in phi.densities] == weights.tolist()
        assert phi.algebra.block_dims == (1,) * 200

    def test_a_diagonal_state_is_its_own_copy(self):
        weights = np.array([0.25, 0.75])
        phi = diagonal_state(weights)
        weights[0] = 0.5
        assert [d[0, 0] for d in phi.densities] == [0.25, 0.75]
        assert all(not d.flags.writeable for d in phi.densities)

    def test_a_product_state_reads_only_the_callers_sites(self, reads, builds):
        # the product's one-block algebra went through BlockAlgebra's reader, and the one site
        # object was read once per occurrence
        sites = [np.eye(2) / 2] * 4
        reads.clear()
        builds.clear()
        assert product_state(sites).algebra.block_dims == (16,)
        assert reads == Counter(hermitian_part=1) and builds == Counter()

    def test_a_decomposition_reads_only_the_callers_blocks(self, reads):
        # each component was read again: 6 hermitian_part calls, not 3
        blocks = (np.diag([0.3, 0.2, 0.0]), np.array([[0.25, 0.1], [0.1, 0.04]]), np.eye(1) * 0.21)
        phi = Functional(make_algebra([3, 2, 1]), blocks)
        assert len(decompose(phi).components) == 3
        assert reads == Counter(hermitian_part=3)

    def test_the_modular_conjugation_reads_no_block_it_builds(self, reads):
        rng = np.random.default_rng(29)
        alg = make_algebra([3, 2])
        phi, x = random_state(rng, alg), random_operator(rng, alg)
        reads.clear()
        assert np.array_equal(modular_conjugation(phi).apply(x).blocks[0], x.blocks[0].conj().T)
        assert reads == Counter()

    def test_a_callers_functional_is_read_once_per_block(self, reads):
        blocks = (np.eye(3) / 6, np.eye(2) / 4, np.eye(1) / 4)
        Functional(make_algebra([3, 2, 1]), blocks)
        assert reads == Counter(hermitian_part=3)

    def test_the_operator_norm_takes_the_solver_hook(self):
        # np.linalg.norm ran its own svd, and a NaN block ended in a bare LinAlgError
        x = BlockOperator(make_algebra([2]), (np.array([[np.nan, 0.0], [0.0, 1.0]]),))
        with pytest.raises(SolverFailed):
            x.norm()


BUILT_PATH = {"_built", "built", "as_built"}


@pytest.mark.parametrize("name", ["serialize.py", "cli.py", "sampling.py"])
def test_files_flags_and_draws_never_take_the_built_path(name):
    # these modules read what comes from outside, so they construct only by reading
    path = Path(amplitude_lab.__file__).parent / name
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in BUILT_PATH:
            found.append(f"{node.lineno} {_dotted(node)}")
        elif isinstance(node, ast.Name) and node.id in BUILT_PATH:
            found.append(f"{node.lineno} {node.id}")
        elif isinstance(node, ast.ImportFrom):
            if {alias.name for alias in node.names} & BUILT_PATH:
                found.append(f"{node.lineno} from {node.module}")
    assert found == []


def test_each_object_is_made_in_one_step_by_its_own_class():
    # _BlockTuple branched on Functional, a spectrum was attached after construction or made
    # by hand, and is_dominated split the Grams at their direct-sum pattern itself
    src = Path(amplitude_lab.__file__).parent
    tree = ast.parse((src / "algebra.py").read_text())
    base = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_BlockTuple")
    assert [n.lineno for n in ast.walk(base) if getattr(n, "id", None) == "Functional"] == []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, key, None) for key in ("id", "attr", "name")}
            assert not names & {"_hold_spectrum", "diagonal_spectrum"}, path.name
    users = set()
    for func in ast.walk(ast.parse((src / "forms.py").read_text())):
        if isinstance(func, ast.FunctionDef):
            if any(getattr(n, "id", None) == "diagonal_blocks" for n in ast.walk(func)):
                users.add(func.name)
    assert users == {"geometric_mean"}


def test_one_helper_makes_an_object_without_its_reader():
    # config.as_built is the one store of what the package built; no type hand-rolls its own
    found = []
    for path in sorted(Path(amplitude_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__new__":
                found.append(f"{path.name} {owner.get(id(node))} {_dotted(node)}")
    assert found == ["config.py as_built object.__new__"]


def test_outside_linalg_a_spectrum_is_made_only_with_an_existing_layout():
    # a spectrum's layout groups its eigenvectors by summand size; only linalg lays one out,
    # and a spectrum made elsewhere is one's with_values, on its layout and its v
    found = []
    for path in sorted(Path(amplitude_lab.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _dotted(node.func) in ("Spectrum", "Spectrum.of"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_only_linalg_names_an_eigensolver():
    # linalg's eigh, eigvalsh and trace_norm are the one hook that can count
    # solver calls; modular.py reads held spectra and imports no solver at all
    solvers = {"eigh", "eigvalsh", "eig", "eigvals", "svd", "norm"}
    found = []
    for path in sorted(Path(amplitude_lab.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in solvers:
                if _dotted(node).split(".")[0] in ("np", "numpy", "scipy"):
                    found.append(f"{path.name}:{node.lineno} {_dotted(node)}")
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if (node.module or "").split(".")[0] in ("numpy", "scipy"):
                    if names & (solvers | {"linalg"}):
                        found.append(f"{path.name}:{node.lineno} from {node.module}")
                elif path.name == "modular.py" and names & {"eigh", "eigvalsh"}:
                    found.append(f"{path.name}:{node.lineno} imports a solver")
    assert found == []


def test_only_linalg_names_np_power():
    # linalg.power is the one power of a held spectrum; a second np.power is a
    # second rule for the eigenvalues a power clamps or refuses
    found = []
    for path in sorted(Path(amplitude_lab.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "power":
                if _dotted(node).split(".")[0] in ("np", "numpy"):
                    found.append(f"{path.name}:{node.lineno} {_dotted(node)}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                if any(alias.name == "power" for alias in node.names):
                    found.append(f"{path.name}:{node.lineno} from {node.module}")
    assert found == []
