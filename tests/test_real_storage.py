"""The one dtype rule: a stored array is float64 when its imaginary part is exactly zero.

Every container stores by linalg.real_if_exact: Functional, L2Vector,
BlockOperator, the forms, covariances, Superoperator factors, embedding
unitaries and Kraus matrices.  Restriction, roots and inner products
keep the dtype they are given.
"""

import numpy as np
import pytest

from amplitude_lab import (
    BlockOperator,
    CovarianceForm,
    Functional,
    HermitianForm,
    L2Vector,
    PositiveForm,
    Superoperator,
    UcpMap,
    UnitalEmbedding,
    compose_embeddings,
    diagonal_state,
    make_algebra,
    product_state,
    purify,
    restrict,
    sqrt_vector,
    transition_amplitude,
)
from amplitude_lab import linalg
from amplitude_lab import serialize as ser
from amplitude_lab.sampling import random_state, random_unitary

from helpers import eig_fn

CONTAINERS = [
    (Functional, lambda x: x.densities),
    (L2Vector, lambda x: x.blocks),
    (BlockOperator, lambda x: x.blocks),
]


def real_blocks(seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in (3, 2):
        a = rng.normal(size=(n, n))
        out.append(a @ a.T / n)
    return out


@pytest.mark.parametrize("cls, blocks_of", CONTAINERS)
class TestContainers:
    def test_float64_input_is_stored_as_float64(self, cls, blocks_of):
        src = real_blocks(0)
        for got, want in zip(blocks_of(cls(make_algebra([3, 2]), tuple(src))), src):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_complex_input_with_zero_imaginary_part_is_stored_as_float64(self, cls, blocks_of):
        src = real_blocks(1)
        x = cls(make_algebra([3, 2]), tuple(b.astype(complex) for b in src))
        for got, want in zip(blocks_of(x), src):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_one_nonzero_imaginary_entry_keeps_complex128(self, cls, blocks_of):
        src = [b.astype(complex) for b in real_blocks(2)]
        src[0][0, 1] += 1e-3j
        src[0][1, 0] -= 1e-3j
        x = cls(make_algebra([3, 2]), tuple(src))
        assert [b.dtype for b in blocks_of(x)] == [np.complex128, np.float64]
        assert np.array_equal(blocks_of(x)[0], src[0])

    def test_stored_blocks_do_not_alias_the_input(self, cls, blocks_of):
        src = real_blocks(3)
        x = cls(make_algebra([3, 2]), tuple(src))
        assert not any(np.shares_memory(a, b) for a, b in zip(blocks_of(x), src))
        assert not any(b.flags.writeable for b in blocks_of(x))


def _symmetric(rng, n):
    """Exactly symmetric positive definite matrix."""
    a = rng.normal(size=(n, n))
    g = a @ a.T / n + np.eye(n)
    return 0.5 * (g + g.T)


def _orthogonal(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)))[0]


def _hermitian_imag(arrays):
    """The first matrix with an imaginary pair at (0, 1), (1, 0): still Hermitian."""
    a = arrays[0].astype(complex)
    a[0, 1] += 1e-3j
    a[1, 0] -= 1e-3j
    return [a, *arrays[1:]]


def _row_phase(arrays):
    """The first matrix with row 0 times i: a unitary or an isometry stays one."""
    a = arrays[0].astype(complex)
    a[0] *= 1j
    return [a, *arrays[1:]]


# name: (inputs from a seed, container from inputs, its stored arrays, one imaginary entry)
STORED = {
    "HermitianForm": (
        lambda rng: [_symmetric(rng, 3)],
        lambda ms: HermitianForm(ms[0]),
        lambda f: [f.gram],
        _hermitian_imag,
    ),
    "PositiveForm": (
        lambda rng: [_symmetric(rng, 3)],
        lambda ms: PositiveForm(ms[0]),
        lambda f: [f.gram],
        _hermitian_imag,
    ),
    "CovarianceForm": (
        lambda rng: [_symmetric(rng, 3)],
        lambda ms: CovarianceForm(ms[0]),
        lambda c: [c.matrix],
        _hermitian_imag,
    ),
    "Superoperator": (
        lambda rng: [rng.normal(size=(n, n)) for n in (3, 2, 3, 2)],
        lambda ms: Superoperator(
            BlockOperator(make_algebra([3, 2]), ms[:2]), BlockOperator(make_algebra([3, 2]), ms[2:])
        ),
        lambda op: [*op.left.blocks, *op.right.blocks],
        _row_phase,
    ),
    "UnitalEmbedding.unitaries": (
        lambda rng: [_orthogonal(rng, 3), _orthogonal(rng, 2)],
        lambda us: UnitalEmbedding(
            make_algebra([1, 2]), make_algebra([3, 2]), np.array([[1, 1], [0, 1]]), tuple(us)
        ),
        lambda emb: list(emb.unitaries),
        _row_phase,
    ),
    "UcpMap.kraus": (
        # the row blocks (on source blocks 0 and 1) of two isometries into C^3
        lambda rng: [
            *np.split(_orthogonal(rng, 3)[:, :2], [2]),
            *np.split(_orthogonal(rng, 3)[:, :1], [2]),
        ],
        lambda ks: UcpMap(
            make_algebra([2, 1]),
            make_algebra([2, 1]),
            (((0, ks[0]), (1, ks[1])), ((0, ks[2]), (1, ks[3]))),
        ),
        lambda ucp: [m for fam in ucp.kraus for _, m in fam],
        _row_phase,
    ),
}


@pytest.mark.parametrize("name", STORED)
class TestStoredArrays:
    def test_exactly_real_input_is_stored_as_float64(self, name):
        inputs, build, stored, _ = STORED[name]
        src = inputs(np.random.default_rng(11))
        for given in (src, [a.astype(complex) for a in src]):
            got = stored(build(given))
            assert [a.dtype for a in got] == [np.float64] * len(src)
            assert all(np.array_equal(a, b) for a, b in zip(got, src))
            assert not any(a.flags.writeable for a in got)

    def test_the_callers_arrays_stay_writeable(self, name):
        inputs, build, _, _ = STORED[name]
        src = inputs(np.random.default_rng(12))
        build(src)
        assert all(a.flags.writeable for a in src)

    def test_one_imaginary_entry_keeps_complex128(self, name):
        inputs, build, stored, with_imag = STORED[name]
        src = with_imag(inputs(np.random.default_rng(13)))
        got = stored(build(src))
        assert got[0].dtype == np.complex128
        assert np.array_equal(got[0], src[0])
        assert all(a.dtype == np.float64 for a in got[1:])


def test_real_if_exact_keeps_float64_input_as_is():
    a = np.eye(3)
    assert linalg.real_if_exact(a) is a
    assert linalg.real_if_exact(np.eye(2, dtype=int)).dtype == np.float64


def test_arithmetic_with_a_complex_scalar_applies_the_rule():
    phi = Functional(make_algebra([2]), (np.eye(2) / 2,))
    assert (phi * (1.0 + 0.0j)).densities[0].dtype == np.float64
    x = BlockOperator(make_algebra([2]), (np.eye(2),))
    assert (1j * x).blocks[0].dtype == np.complex128


def test_product_and_diagonal_states_of_real_sites_are_real():
    plus = np.full((2, 2), 0.5, dtype=complex)
    phi = product_state([plus, np.eye(2) / 2, plus])
    assert phi.densities[0].dtype == np.float64
    assert np.array_equal(phi.densities[0], np.kron(np.kron(plus, np.eye(2) / 2), plus).real)
    assert all(d.dtype == np.float64 for d in diagonal_state([0.25, 0.75]).densities)


class TestRestriction:
    def test_real_functional_restricts_to_float64_without_a_unitary(self):
        emb = UnitalEmbedding(make_algebra([2, 1]), make_algebra([5]), np.array([[2, 1]]))
        a = np.random.default_rng(4).normal(size=(5, 5))
        phi = Functional(emb.target, (a @ a.T,))
        assert restrict(phi, emb).densities[0].dtype == np.float64

    def test_real_rotation_gives_a_real_restriction(self):
        rng = np.random.default_rng(14)
        q = _orthogonal(rng, 4)
        emb = UnitalEmbedding(make_algebra([2]), make_algebra([4]), np.array([[2]]), (q,))
        phi = Functional(emb.target, (_symmetric(rng, 4),))
        got = restrict(phi, emb).densities[0]
        assert emb.unitaries[0].dtype == got.dtype == np.float64
        rot = q.T @ phi.densities[0] @ q
        assert np.allclose(got, np.einsum("pjqj->pq", rot.reshape(2, 2, 2, 2)), atol=1e-14)

    def test_composite_of_links_without_unitaries_gives_a_real_restriction(self):
        c = np.array([[1, 1], [0, 1]])
        inner = UnitalEmbedding(make_algebra([1, 1]), make_algebra([2, 1]), c)
        outer = UnitalEmbedding(make_algebra([2, 1]), make_algebra([5]), np.array([[2, 1]]))
        composite = compose_embeddings(outer, inner)
        assert all(u.dtype == np.float64 for u in composite.unitaries)
        phi = Functional(outer.target, (_symmetric(np.random.default_rng(15), 5),))
        got = restrict(phi, composite)
        assert all(d.dtype == np.float64 for d in got.densities)
        for a, b in zip(got.densities, restrict(restrict(phi, outer), inner).densities):
            assert np.allclose(a, b, atol=1e-14)

    def test_complex_unitary_gives_a_complex_restriction(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 4)
        emb = UnitalEmbedding(make_algebra([2]), make_algebra([4]), np.array([[2]]), (u,))
        a = rng.normal(size=(4, 4))
        phi = Functional(emb.target, (a @ a.T,))
        got = restrict(phi, emb).densities[0]
        assert got.dtype == np.complex128
        rot = u.conj().T @ phi.densities[0] @ u
        assert np.allclose(got, np.einsum("pjqj->pq", rot.reshape(2, 2, 2, 2)), atol=1e-14)


def test_sqrt_vector_of_a_real_functional_is_real():
    phi = Functional(make_algebra([3, 2]), tuple(real_blocks(6)))
    root = sqrt_vector(phi)
    assert all(b.dtype == np.float64 for b in root.blocks)
    assert all(np.allclose(b @ b, d) for b, d in zip(root.blocks, phi.densities))


def test_real_storage_serializes_as_complex_storage_does():
    phi = purify(Functional(make_algebra([3]), (real_blocks(7)[0] / 3.0,)))
    assert phi.densities[0].dtype == np.float64
    as_complex = {
        "algebra": ser.algebra_to_json(phi.algebra),
        "densities": [ser.matrix_to_pairs(d.astype(complex)) for d in phi.densities],
    }
    text = ser.dumps(ser.functional_to_json(phi))
    assert text == ser.dumps(as_complex)
    back = ser.functional_from_json(ser.loads(text))
    assert back.densities[0].dtype == np.float64


def test_complex_states_keep_their_answers_against_real_ones():
    rng = np.random.default_rng(8)
    alg = make_algebra([3, 2])
    phi = random_state(rng, alg)
    psi = Functional(alg, tuple(real_blocks(9)))
    assert [d.dtype for d in phi.densities] == [np.complex128] * 2
    ref = sum(
        np.trace(eig_fn(a, np.sqrt) @ eig_fn(b.astype(complex), np.sqrt)).real
        for a, b in zip(phi.densities, psi.densities)
    )
    assert transition_amplitude(phi, psi) == pytest.approx(ref, abs=1e-12)
