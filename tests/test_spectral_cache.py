"""The per-block spectrum a Functional keeps, and the eigh calls it saves.

Counts come from a counting wrapper patched over numpy.linalg.eigh.
References are the test helpers' matrix functions from a fresh complex
eigh, so they do not read the cache they check, nor take the real
symmetric solver that real densities get.
"""

import numpy as np
import pytest

from amplitude_lab import (
    CovarianceForm,
    Functional,
    HermitianForm,
    InvalidCovariance,
    NotPositive,
    UnitalEmbedding,
    amplitude_sum_check,
    decompose,
    functional_norm,
    hermitize,
    inequality_suite,
    interpolated_form,
    kms_defect,
    make_algebra,
    modular_flow,
    restrict,
    support_projection,
    total_rank,
    transition_amplitude,
    uhlmann_fidelity,
)
from amplitude_lab import linalg
from amplitude_lab.config import Tolerances
from amplitude_lab.sampling import (
    random_complex,
    random_gibbs,
    random_operator,
    random_psd,
    random_state,
    random_unitary,
)

from helpers import eig_fn


@pytest.fixture
def eigh_calls(monkeypatch):
    """List that grows by one entry (the matrix shape) per numpy eigh call."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture
def lapack_dtypes(monkeypatch):
    """List that grows by (name, input dtype) per numpy eigh or eigvalsh call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _solver=solver, **kwargs):
            calls.append((_name, np.asarray(a).dtype))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


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
        functional_norm(diff)
        assert eigh_calls == [(3, 3), (2, 2)]


    def test_amplitude_sum_check_reads_the_parent_spectra(self, eigh_calls):
        phi, psi = fresh_pair(11, [3, 2, 1])
        lhs = transition_amplitude(phi, psi)
        del eigh_calls[:]
        check = amplitude_sum_check(phi, psi)
        assert eigh_calls == []
        assert check.lhs == lhs
        assert check.defect <= 1e-12


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

    def test_real_densities_get_real_eigenvectors(self, lapack_dtypes):
        rng = np.random.default_rng(20)
        blocks = (
            np.diag([0.3, 0.2, 0.0]),  # diagonal, rank deficient
            np.full((2, 2), 0.5),  # plus
            real_psd(rng, 4, rank=2),  # rank deficient, not diagonal
            np.array([[0.7]]),  # 1x1
        )
        alg = make_algebra([3, 2, 4, 1])
        phi = Functional(alg, tuple(np.asarray(b, dtype=complex) for b in blocks))
        spec = phi.spectrum()
        phi.spectrum()
        assert lapack_dtypes == [("eigh", np.dtype(float))] * 4
        assert all(v.dtype == np.dtype(float) for _, v in spec)
        for d, (w, v) in zip(phi.densities, spec):
            assert np.allclose((v * w) @ v.T, d, atol=1e-14)
        assert total_rank(phi) == 2 + 1 + 2 + 1

    def test_one_imaginary_entry_keeps_the_complex_solver(self, lapack_dtypes):
        d = np.diag([0.5, 0.3, 0.2]).astype(complex)
        d[0, 1], d[1, 0] = 1e-3j, -1e-3j
        phi = Functional(make_algebra([3]), (d,))
        ((w, v),) = phi.spectrum()
        assert lapack_dtypes == [("eigh", np.dtype(complex))]
        assert v.dtype == np.dtype(complex)
        w_ref, v_ref = np.linalg.eigh(phi.densities[0])
        assert np.array_equal(w, w_ref)
        assert np.array_equal(v, v_ref)

    def test_every_entry_point_picks_the_solver(self, lapack_dtypes):
        real = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
        cplx = real + np.array([[0.0, 1e-9j], [-1e-9j, 0.0]])
        expected = []
        for h, dtype in ((real, np.dtype(float)), (cplx, np.dtype(complex))):
            linalg.eigh(h)
            linalg.eigvalsh(h)
            linalg.min_eig(h)
            names = ("eigh", "eigvalsh", "eigvalsh")
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
        ref = linalg.block_diag(*grams)
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
        partial = np.einsum("pjqj->pq", rot.reshape(m, c, m, c))
        assert not np.array_equal(partial, partial.conj().T)  # roundoff left to remove
        assert np.array_equal(restrict(phi, emb).densities[0], hermitize(partial))

    def test_restrict_passes_the_tightest_hermiticity_check(self):
        # restrict hermitizes its partial traces, so their roundoff asymmetry
        # never meets the check, whatever tolerance the functional carries
        rng = np.random.default_rng(27)
        m, c = 3, 2
        tight = Tolerances(slack=1e-300, num=1e-300)
        u = random_unitary(rng, m * c)
        emb = UnitalEmbedding(make_algebra([m]), make_algebra([m * c]), np.array([[c]]), (u,))
        phi = Functional(emb.target, random_state(rng, emb.target).densities, tight)
        assert restrict(phi, emb).tol is tight

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
