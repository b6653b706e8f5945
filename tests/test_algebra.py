import itertools
import operator

import numpy as np
import pytest

from amplitude_lab import (
    BlockOperator,
    Functional,
    InvalidAlgebra,
    L2Vector,
    NotPositive,
    ShapeError,
    StateRelation,
    Superoperator,
    central_support,
    classify_pair,
    evaluate,
    functional_norm,
    is_faithful,
    is_pure,
    make_algebra,
    psd_sqrt,
    sqrt_vector,
    support_projection,
    transition_amplitude,
)
from amplitude_lab.linalg import in_range
from amplitude_lab.sampling import random_operator, random_psd, random_state


def diag_functional(algebra, *diags):
    return Functional(algebra, tuple(np.diag(d).astype(complex) for d in diags))


class TestMakeAlgebra:
    def test_single_block(self):
        alg = make_algebra([2])
        assert alg.block_dims == (2,)

    def test_direct_sum_dimension(self):
        alg = make_algebra([2, 3])
        assert alg.space_dim == 5

    def test_commutative(self):
        alg = make_algebra([1, 1])
        assert alg.identity().blocks[0].shape == (1, 1)

    def test_invalid(self):
        with pytest.raises(InvalidAlgebra):
            make_algebra([])
        with pytest.raises(InvalidAlgebra):
            make_algebra([2, 0])


class TestEvaluate:
    def test_state_on_identity(self):
        alg = make_algebra([3])
        phi = random_state(np.random.default_rng(0), alg)
        assert evaluate(phi, alg.identity()) == pytest.approx(1.0)

    def test_hand_trace(self):
        alg = make_algebra([2])
        phi = diag_functional(alg, [0.9, 0.1])
        x = BlockOperator(alg, (np.diag([1.0, -1.0]).astype(complex),))
        assert evaluate(phi, x) == pytest.approx(0.8)

    def test_disjoint_support(self):
        alg = make_algebra([2, 3])
        phi = Functional(alg, (np.diag([1.0, 0.0]).astype(complex), np.zeros((3, 3))))
        x = BlockOperator(alg, (np.zeros((2, 2)), np.eye(3, dtype=complex)))
        assert evaluate(phi, x) == pytest.approx(0.0)

    def test_algebra_mismatch(self):
        phi = diag_functional(make_algebra([2]), [0.5, 0.5])
        with pytest.raises(ShapeError):
            evaluate(phi, make_algebra([3]).identity())

    def test_positive_on_squares(self):
        rng = np.random.default_rng(3)
        alg = make_algebra([2, 3])
        phi = random_state(rng, alg)
        for _ in range(20):
            x = random_operator(rng, alg)
            assert evaluate(phi, x.adjoint() @ x).real >= -1e-10


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))

    def test_two_by_two_closed_form(self):
        # H^{1/2} = (H + sqrt(det) I) / sqrt(tr H + 2 sqrt(det))
        h = np.array([[2.0, 1.0], [1.0, 1.0]])
        expect = np.array([[3.0, 1.0], [1.0, 2.0]]) / np.sqrt(5.0)
        assert np.allclose(psd_sqrt(h), expect)

    def test_zero(self):
        assert np.allclose(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_roundtrip_large(self):
        rng = np.random.default_rng(1)
        for n in (8, 32, 64):
            h = random_psd(rng, n)
            root = psd_sqrt(h)
            assert np.max(np.abs(root @ root - h)) <= 1e-8 * (1 + np.max(np.abs(h)))

    def test_rejects_negative(self):
        with pytest.raises(NotPositive):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_rejects_a_non_hermitian_matrix(self):
        # its Hermitian part is sqrt(2) I, which was returned without a word
        with pytest.raises(NotPositive, match="not Hermitian"):
            psd_sqrt(np.array([[2.0, 0.5], [-0.5, 2.0]]))


class TestFunctionalNorm:
    def test_signed_difference(self):
        alg = make_algebra([2])
        delta = diag_functional(alg, [0.4, -0.4])
        assert functional_norm(delta) == pytest.approx(0.8)

    def test_zero(self):
        alg = make_algebra([2, 2])
        phi = random_state(np.random.default_rng(0), alg)
        assert functional_norm(phi - phi) == pytest.approx(0.0, abs=1e-14)

    def test_state_mass(self):
        phi = random_state(np.random.default_rng(4), make_algebra([3, 2]))
        assert functional_norm(phi) == pytest.approx(1.0)


class TestSupportProjection:
    def test_diagonal_range(self):
        alg = make_algebra([3])
        phi = diag_functional(alg, [0.5, 0.5, 0.0])
        p = support_projection(phi)
        assert np.allclose(p.blocks[0], np.diag([1.0, 1.0, 0.0]))

    def test_rank_one(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        alg = make_algebra([2])
        phi = Functional(alg, (np.outer(v, v.conj()),))
        p = support_projection(phi)
        assert np.allclose(p.blocks[0], np.outer(v, v.conj()))

    def test_faithful_is_identity(self):
        alg = make_algebra([2, 3])
        phi = random_state(np.random.default_rng(5), alg)
        p = support_projection(phi)
        for n, b in zip(alg.block_dims, p.blocks):
            assert np.allclose(b, np.eye(n))

    def test_annihilates_complement(self):
        rng = np.random.default_rng(6)
        alg = make_algebra([3, 2])
        phi = random_state(rng, alg, rank_deficient=True)
        p = support_projection(phi)
        comp = alg.identity() - p
        for _ in range(10):
            x = random_operator(rng, alg)
            assert abs(evaluate(phi, comp @ x @ comp)) <= 1e-10

    def test_minimality(self):
        # any projection q with phi(1-q) = 0 constructed from the support
        # plus extra directions dominates p
        rng = np.random.default_rng(7)
        alg = make_algebra([4])
        phi = diag_functional(alg, [0.5, 0.5, 0.0, 0.0])
        p = support_projection(phi)
        q = BlockOperator(alg, (np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex),))
        assert abs(evaluate(phi, alg.identity() - q)) <= 1e-12
        # p <= q as projections
        gap = q.blocks[0] - p.blocks[0]
        assert np.linalg.eigvalsh(gap)[0] >= -1e-12


class TestRankRule:
    def test_in_range_reads_the_block_scale_only(self):
        w = np.array([-1e-30, 1e-37, 3e-20])
        assert in_range(w).tolist() == [False, False, True]
        assert np.array_equal(in_range(1e40 * w), in_range(w))
        assert not in_range(np.zeros(3)).any()

    def test_faithful_with_blocks_sixteen_decades_apart(self):
        alg = make_algebra([1, 2])
        phi = diag_functional(alg, [1e8], [1e-8, 2e-8])
        assert is_faithful(phi)
        assert np.allclose(central_support(phi).blocks[1], np.eye(2))


class TestCentralSupportAndClassify:
    def test_half_supported(self):
        alg = make_algebra([2, 3])
        phi = Functional(alg, (np.diag([0.4, 0.1]).astype(complex), np.zeros((3, 3))))
        z = central_support(phi)
        assert np.allclose(z.blocks[0], np.eye(2))
        assert np.allclose(z.blocks[1], np.zeros((3, 3)))

    def test_zero_functional(self):
        alg = make_algebra([2])
        z = central_support(alg.zero_functional())
        assert np.allclose(z.blocks[0], np.zeros((2, 2)))

    def test_disjoint(self):
        alg = make_algebra([2, 2])
        phi = Functional(alg, (np.eye(2, dtype=complex) / 2, np.zeros((2, 2))))
        psi = Functional(alg, (np.zeros((2, 2)), np.eye(2, dtype=complex) / 2))
        assert classify_pair(phi, psi) is StateRelation.DISJOINT
        assert classify_pair(psi, phi) is StateRelation.DISJOINT

    def test_quasi_equivalent(self):
        rng = np.random.default_rng(8)
        alg = make_algebra([2])
        phi = random_state(rng, alg)
        psi = random_state(rng, alg)
        assert classify_pair(phi, psi) is StateRelation.QUASI_EQUIVALENT

    def test_neither(self):
        alg = make_algebra([2, 2])
        phi = Functional(alg, (np.eye(2, dtype=complex) / 2, np.zeros((2, 2))))
        psi = Functional(alg, (np.eye(2, dtype=complex) / 4, np.eye(2, dtype=complex) / 4))
        assert classify_pair(phi, psi) is StateRelation.NEITHER

    def test_disjoint_implies_zero_amplitude(self):
        rng = np.random.default_rng(9)
        alg = make_algebra([2, 3])
        phi = Functional(alg, (random_psd(rng, 2), np.zeros((3, 3))))
        psi = Functional(alg, (np.zeros((2, 2)), random_psd(rng, 3)))
        assert classify_pair(phi, psi) is StateRelation.DISJOINT
        assert transition_amplitude(phi, psi) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(21)
        alg = make_algebra([2, 2, 1])
        for _ in range(10):
            phi = random_state(rng, alg, rank_deficient=True)
            psi = random_state(rng, alg, rank_deficient=True)
            assert classify_pair(phi, psi) is classify_pair(psi, phi)

    def test_purity(self):
        alg = make_algebra([2])
        assert is_pure(Functional(alg, (np.diag([1.0, 0.0]).astype(complex),)))
        assert not is_pure(Functional(alg, (np.eye(2, dtype=complex) / 2,)))

    def test_faithful(self):
        alg = make_algebra([2, 2])
        assert is_faithful(random_state(np.random.default_rng(10), alg))
        phi = Functional(alg, (np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex)))
        assert not is_faithful(phi)


class TestFunctionalValidation:
    def test_rejects_non_hermitian(self):
        alg = make_algebra([2])
        with pytest.raises(NotPositive):
            Functional(alg, (np.array([[0.0, 1.0], [0.0, 0.0]]),))

    def test_signed_densities_allowed(self):
        alg = make_algebra([2])
        delta = diag_functional(alg, [0.5, -0.5])
        assert not delta.is_positive()
        with pytest.raises(NotPositive):
            support_projection(delta)

    def test_hermitian_parts_of_1e308_are_finite(self):
        # (a + a*) / 2 overflowed to inf before it halved
        from amplitude_lab import HermitianForm

        big = np.diag([1e308, 1.0])
        assert np.array_equal(HermitianForm(big).gram, big)
        assert Functional(make_algebra([2]), (big,)).mass == 1e308

    def test_immutable(self):
        alg = make_algebra([2])
        phi = diag_functional(alg, [0.5, 0.5])
        with pytest.raises(ValueError):
            phi.densities[0][0, 0] = 9.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda phi, big: phi * np.nan,
            lambda phi, big: phi * np.inf,
            lambda phi, big: (phi * 1e308) * 10,
            lambda phi, big: phi * 1j,
            lambda phi, big: big + big,
        ],
        ids=["nan", "inf", "overflow", "non-real", "big+big"],
    )
    def test_arithmetic_that_spoils_a_density_is_not_positive(self, build):
        # a built density skips the Hermitian check: its finiteness scan, and
        # the reading constructor for a non-real scalar, keep these refused
        phi = diag_functional(make_algebra([2, 1]), [0.5, 0.25], [0.25])
        big = Functional(make_algebra([1]), ([[1.5e308]],))
        with np.errstate(all="ignore"), pytest.raises(NotPositive):
            build(phi, big)

    def test_a_scalar_with_zero_imaginary_part_keeps_real_storage(self):
        phi = diag_functional(make_algebra([2, 1]), [0.5, 0.25], [0.25])
        for d in (phi * (1 + 0j)).densities + (np.complex128(2) * phi).densities:
            assert d.dtype == np.float64 and not d.flags.writeable

    @pytest.mark.parametrize("blocks", [(np.eye(2),), (np.eye(2), np.eye(3), np.eye(1))])
    @pytest.mark.parametrize(
        "build",
        [
            Functional,
            BlockOperator,
            L2Vector,
            lambda alg, blocks: Superoperator(BlockOperator(alg, blocks), alg.identity()),
        ],
        ids=["Functional", "BlockOperator", "L2Vector", "Superoperator"],
    )
    def test_a_wrong_block_count_is_a_shape_error(self, build, blocks):
        # zip(strict=True) ended in a bare ValueError
        message = rf"{len(blocks)} blocks given for the algebra \(2, 3\)"
        with pytest.raises(ShapeError, match=message):
            build(make_algebra([2, 3]), blocks)


def _mismatch_sites():
    """(name, call) for each function that takes an operand of one fixed algebra.

    Each call passes an operand on M_3 where M_2 is expected.
    """
    from amplitude_lab import (
        SubalgebraChain,
        UnitalEmbedding,
        chain_amplitudes,
        identity_embedding,
        restrict,
        support_reduce,
        ucp_pullback,
    )
    from amplitude_lab.sampling import dephasing_ucp

    m2, m3 = make_algebra([2]), make_algebra([3])
    x3 = m3.identity()
    phi3 = Functional(m3, (np.eye(3) / 3,))
    emb = UnitalEmbedding(m2, m2, np.array([[1]]))
    chain = SubalgebraChain((m2,), (), identity_embedding(m2))
    reduction = support_reduce(Functional(m2, (np.diag([1.0, 0.0]),)))
    return {
        "restrict": lambda: restrict(phi3, emb),
        "ucp-apply": lambda: dephasing_ucp(m2).apply(x3),
        "ucp-pullback": lambda: ucp_pullback(dephasing_ucp(m2), phi3),
        "chain-amplitudes": lambda: chain_amplitudes(phi3, phi3, chain),
        "compress": lambda: reduction.compress(x3),
    }


@pytest.mark.parametrize("site", list(_mismatch_sites()))
def test_each_site_reports_an_algebra_mismatch_with_both_algebras(site):
    # five different messages, none naming the algebras, came from these sites
    with pytest.raises(ShapeError) as info:
        _mismatch_sites()[site]()
    message = str(info.value)
    assert message.startswith("algebra mismatch:")
    assert "(3,)" in message and "(2,)" in message


def test_only_the_algebra_module_compares_algebras():
    # one check, algebra._check_algebra: a hand-written comparison of an
    # .algebra attribute elsewhere is a second copy with its own message
    import ast
    from pathlib import Path

    import amplitude_lab

    found = []
    for path in sorted(Path(amplitude_lab.__file__).parent.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Attribute) and side.attr == "algebra"
                for side in (node.left, *node.comparators)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_sums_and_differences_of_two_kinds_raise_type_error():
    # an element plus a standard-space vector returned the left operand's type,
    # and a functional plus an element failed with AttributeError
    alg = make_algebra([2])
    phi = diag_functional(alg, [0.75, 0.25])
    kinds = (alg.identity(), sqrt_vector(phi), phi)
    for left, right in itertools.permutations(kinds, 2):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(left, right)


def test_products_scale_by_numbers_only():
    # an ndarray factor gave a silent blockwise Hadamard product: on M2,
    # identity * [[1, 2], [3, 4]] was diag(1, 4), and ndarray * op an object array
    from amplitude_lab import PositiveForm

    alg = make_algebra([2])
    phi = diag_functional(alg, [0.75, 0.25])
    m = [[1.0, 2.0], [3.0, 4.0]]
    for x in (alg.identity(), sqrt_vector(phi), phi, PositiveForm(np.eye(2))):
        for factor in (m, np.array(m), np.array(2.0)):
            with pytest.raises(TypeError):
                x * factor
            with pytest.raises(TypeError):
                factor * x
        for c in (2, 2.0, np.float64(2.0), np.int64(2), np.complex128(2.0)):
            assert type(c * x) is type(x) and type(x * c) is type(x)
    assert np.array_equal((np.float64(2.0) * phi).densities[0], np.diag([1.5, 0.5]))
