import itertools
import time

import numpy as np
import pytest

from amplitude_lab import (
    DEFAULT_TOL,
    DomainError,
    Functional,
    InvalidAlgebra,
    InvalidEmbedding,
    NotPositive,
    NotUnital,
    ShapeError,
    SubalgebraChain,
    TooLarge,
    UcpMap,
    UnitalEmbedding,
    build_lumped_diagonal_chain,
    build_product_chain,
    chain_amplitudes,
    compose_embeddings,
    diagonal_state,
    embedding_as_ucp,
    evaluate,
    identity_embedding,
    make_algebra,
    product_state,
    restrict,
    transition_amplitude,
    ucp_pullback,
)
from amplitude_lab.restriction import MAX_CHAIN_DIM
from amplitude_lab.sampling import (
    dephasing_ucp,
    random_density,
    random_embedding,
    random_operator,
    random_state,
    random_ucp,
    random_unitary,
)

from helpers import bell_state, peak_bytes, unitary_conjugation_ucp


def tensor_embedding(m: int, copies: int) -> UnitalEmbedding:
    """a -> a (x) 1_copies from M_m into M_{m*copies}."""
    return UnitalEmbedding(make_algebra([m]), make_algebra([m * copies]), np.array([[copies]]))


class TestRestrict:
    def test_bell_marginal(self):
        phi = restrict(bell_state(), tensor_embedding(2, 2))
        assert np.allclose(phi.densities[0], np.eye(2) / 2.0)

    def test_identity_embedding(self):
        rng = np.random.default_rng(0)
        alg = make_algebra([2, 3])
        phi = random_state(rng, alg)
        back = restrict(phi, identity_embedding(alg))
        for a, b in zip(back.densities, phi.densities):
            # a one-copy section is its own partial trace: a read-only view, with no copy
            assert np.array_equal(a, b) and np.shares_memory(a, b) and not a.flags.writeable

    def test_the_identity_restricts_to_phi_itself_and_a_swap_does_not(self):
        alg = make_algebra([2, 2])
        phi = random_state(np.random.default_rng(2), alg)
        assert restrict(phi, identity_embedding(alg)) is phi  # with the spectrum phi holds
        swapped = restrict(phi, UnitalEmbedding(alg, alg, [[0, 1], [1, 0]]))
        assert swapped is not phi
        assert [d.tolist() for d in swapped.densities] == [d.tolist() for d in phi.densities[::-1]]

    def test_product_state_marginal(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        phi = product_state([rho, sigma])
        assert np.allclose(restrict(phi, tensor_embedding(2, 2)).densities[0], rho, atol=1e-12)

    def test_defining_identity(self):
        rng = np.random.default_rng(2)
        src = make_algebra([2, 1])
        emb = random_embedding(rng, src, num_target_blocks=2)
        phi = random_state(rng, emb.target)
        restricted = restrict(phi, emb)
        for _ in range(5):
            a = random_operator(rng, src)
            image = embedding_as_ucp(emb).apply(a)
            assert evaluate(phi, image) == pytest.approx(evaluate(restricted, a))

    def test_mass_preserved(self):
        rng = np.random.default_rng(3)
        src = make_algebra([2, 3])
        emb = random_embedding(rng, src, num_target_blocks=2)
        phi = random_state(rng, emb.target)
        assert restrict(phi, emb).mass == pytest.approx(phi.mass)

    def test_tower_property(self):
        rng = np.random.default_rng(4)
        src = make_algebra([2, 2])
        inner = random_embedding(rng, src, num_target_blocks=2)
        outer = random_embedding(rng, inner.target, num_target_blocks=1)
        phi = random_state(rng, outer.target)
        two_step = restrict(restrict(phi, outer), inner)
        one_step = restrict(phi, compose_embeddings(outer, inner))
        for a, b in zip(two_step.densities, one_step.densities):
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_composite_embed_agrees(self):
        rng = np.random.default_rng(5)
        src = make_algebra([2])
        inner = random_embedding(rng, src, num_target_blocks=2)
        outer = random_embedding(rng, inner.target, num_target_blocks=1)
        comp = compose_embeddings(outer, inner)
        a = random_operator(rng, src)
        lhs = embedding_as_ucp(outer).apply(embedding_as_ucp(inner).apply(a))
        rhs = embedding_as_ucp(comp).apply(a)
        for x, y in zip(lhs.blocks, rhs.blocks):
            assert np.max(np.abs(x - y)) <= 1e-10

    def test_invalid_multiplicity(self):
        with pytest.raises(InvalidEmbedding):
            UnitalEmbedding(make_algebra([2]), make_algebra([3]), np.array([[1]]))
        with pytest.raises(InvalidEmbedding):
            UnitalEmbedding(make_algebra([2]), make_algebra([4]), np.array([[-2]]))

    @pytest.mark.parametrize("count", [0, 2])
    def test_one_unitary_per_target_block(self, count):
        # a second unitary ended in zip()'s bare ValueError
        us = (np.eye(2), np.eye(1))[:count]
        with pytest.raises(InvalidEmbedding, match="one unitary per target block"):
            UnitalEmbedding(make_algebra([1]), make_algebra([2]), [[2]], us)


def brute_force_slots(c, source_dims, unitaries, k):
    """Copy isometries of target block k from 0/1 matrices: row start + p*c + j."""
    n = int(c[k] @ source_dims)
    u = np.eye(n) if unitaries is None else unitaries[k]
    out = []
    start = 0
    for l, m in enumerate(source_dims):
        ckl = int(c[k, l])
        for j in range(ckl):
            e = np.zeros((n, m))
            for p in range(m):
                e[start + p * ckl + j, p] = 1.0
            out.append((l, u @ e))
        start += m * ckl
    return out


class TestLayout:
    @pytest.mark.parametrize("with_unitaries", [False, True])
    def test_slot_isometries_match_brute_force(self, with_unitaries):
        rng = np.random.default_rng(31)
        cases = [np.array([[0, 2, 1], [1, 0, 0], [2, 1, 0]])]
        for _ in range(8):
            c = rng.integers(0, 3, size=(int(rng.integers(1, 4)), int(rng.integers(1, 4))))
            c[~c.any(axis=1), 0] = 1
            c[0, ~c.any(axis=0)] = 1
            cases.append(c)
        for c in cases:
            source = make_algebra(list(rng.integers(1, 4, size=c.shape[1])))
            dims = np.array(source.block_dims)
            target = make_algebra([int(n) for n in c @ dims])
            us = None
            if with_unitaries:
                us = tuple(random_unitary(rng, n) for n in target.block_dims)
            emb = UnitalEmbedding(source, target, c, us)
            for k in range(target.num_blocks):
                got = emb.slot_isometries(k)
                want = brute_force_slots(c, dims, us, k)
                assert [l for l, _ in got] == [l for l, _ in want]
                for (_, v), (_, w) in zip(got, want):
                    assert np.array_equal(v, w)

    def test_sections_record_each_nonempty_section(self):
        c = np.array([[0, 2, 1], [1, 0, 0], [2, 1, 0]])
        source = make_algebra([2, 1, 3])
        emb = UnitalEmbedding(source, make_algebra([5, 2, 5]), c)
        # (source block, start offset, copies), ordered by (target block, source block)
        assert emb.sections.tolist() == [[1, 0, 2], [2, 2, 1], [0, 0, 1], [0, 0, 2], [1, 4, 1]]
        assert emb.bounds.tolist() == [0, 2, 3, 5]
        assert not hasattr(emb, "multiplicity")

    def test_composite_multiplicities_and_slots(self):
        rng = np.random.default_rng(32)
        inner_c = np.array([[1, 0], [2, 1]])
        inner = UnitalEmbedding(
            make_algebra([2, 1]),
            make_algebra([2, 5]),
            inner_c,
            tuple(random_unitary(rng, n) for n in (2, 5)),
        )
        outer_c = np.array([[2, 1], [0, 1]])
        outer = UnitalEmbedding(
            inner.target,
            make_algebra([9, 5]),
            outer_c,
            tuple(random_unitary(rng, n) for n in (9, 5)),
        )
        comp = compose_embeddings(outer, inner)
        c = outer_c @ inner_c
        dims = np.array(inner.source.block_dims)
        layout = UnitalEmbedding(inner.source, outer.target, c)
        assert np.array_equal(comp.sections, layout.sections)
        for k in range(2):
            want = [
                (l, v_out @ v_in)
                for j, v_out in outer.slot_isometries(k)
                for l, v_in in inner.slot_isometries(j)
            ]
            want.sort(key=lambda lv: lv[0])  # stable: (l, outer copy, inner copy)
            got = brute_force_slots(c, dims, comp.unitaries, k)
            assert [l for l, _ in got] == [l for l, _ in want]
            for (_, v), (_, w) in zip(got, want):
                assert np.array_equal(v, w)


class TestUcp:
    def test_unitary_conjugation_preserves_amplitude(self):
        rng = np.random.default_rng(6)
        alg = make_algebra([3, 2])
        us = tuple(random_unitary(rng, n) for n in alg.block_dims)
        chan = unitary_conjugation_ucp(alg, us)
        phi = random_state(rng, alg)
        psi = random_state(rng, alg)
        assert transition_amplitude(
            ucp_pullback(chan, phi), ucp_pullback(chan, psi)
        ) == pytest.approx(transition_amplitude(phi, psi), abs=1e-12)

    def test_embedding_as_ucp_matches_restrict(self):
        rng = np.random.default_rng(7)
        src = make_algebra([2, 2])
        emb = random_embedding(rng, src, num_target_blocks=2)
        phi = random_state(rng, emb.target)
        a = restrict(phi, emb)
        b = ucp_pullback(embedding_as_ucp(emb), phi)
        for x, y in zip(a.densities, b.densities):
            assert np.max(np.abs(x - y)) <= 1e-10

    def test_dephasing_raises_amplitude(self):
        alg = make_algebra([2])
        chan = dephasing_ucp(alg)
        phi = Functional(alg, (np.diag([1.0, 0.0]).astype(complex),))
        psi = Functional(alg, (np.full((2, 2), 0.5, dtype=complex),))
        assert transition_amplitude(phi, psi) == pytest.approx(0.5)
        after = transition_amplitude(ucp_pullback(chan, phi), ucp_pullback(chan, psi))
        assert after == pytest.approx(1.0 / np.sqrt(2.0))

    def test_monotonicity_random(self):
        rng = np.random.default_rng(8)
        src = make_algebra([2, 2])
        tgt = make_algebra([3])
        for _ in range(20):
            chan = random_ucp(rng, src, tgt)
            phi = random_state(rng, tgt)
            psi = random_state(rng, tgt)
            before = transition_amplitude(phi, psi)
            after = transition_amplitude(ucp_pullback(chan, phi), ucp_pullback(chan, psi))
            assert after >= before - 1e-10

    def test_mass_preserved(self):
        rng = np.random.default_rng(9)
        src = make_algebra([4])
        tgt = make_algebra([2, 2])
        chan = random_ucp(rng, src, tgt)
        phi = random_state(rng, tgt)
        assert ucp_pullback(chan, phi).mass == pytest.approx(1.0)

    def test_unitality_enforced(self):
        src = make_algebra([2])
        tgt = make_algebra([2])
        bad = ((0, np.eye(2, dtype=complex) * 0.5),)
        with pytest.raises(NotUnital):
            UcpMap(src, tgt, (bad,))

    def test_apply_unital(self):
        rng = np.random.default_rng(10)
        src = make_algebra([2, 2])
        tgt = make_algebra([3])
        chan = random_ucp(rng, src, tgt)
        img = chan.apply(src.identity())
        assert np.max(np.abs(img.blocks[0] - np.eye(3))) <= 1e-10

    def test_random_ucp_spans_a_target_block_wider_than_three_sources(self):
        # three Kraus operators of shape (1, 4) cannot span C^4: the draw raised NotPositive
        rng = np.random.default_rng(3)
        src = make_algebra([1])
        tgt = make_algebra([4])
        for _ in range(20):
            chan = random_ucp(rng, src, tgt)
            assert len(chan.kraus[0]) == 4
            img = chan.apply(src.identity())
            assert np.max(np.abs(img.blocks[0] - np.eye(4))) <= 1e-10

    def test_pullback_is_the_adjoint_of_apply(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            src = make_algebra(rng.integers(1, 4, size=rng.integers(1, 4)))
            tgt = make_algebra(rng.integers(1, 4, size=rng.integers(1, 4)))
            chan = random_ucp(rng, src, tgt)
            psi = random_state(rng, tgt)
            a = random_operator(rng, src)
            lhs = evaluate(ucp_pullback(chan, psi), a)
            assert abs(lhs - evaluate(psi, chan.apply(a))) <= 1e-12 * max(1.0, abs(lhs))

    def test_embedding_as_ucp_applies_as_embed(self):
        # the image of a is the sum of V a_l V* over 0/1 copy isometries V rotated by the unitary
        rng = np.random.default_rng(12)
        for _ in range(10):
            c = rng.integers(0, 3, size=(int(rng.integers(1, 4)), int(rng.integers(1, 4))))
            c[~c.any(axis=1), 0] = 1
            c[0, ~c.any(axis=0)] = 1
            source = make_algebra(list(rng.integers(1, 4, size=c.shape[1])))
            dims = np.array(source.block_dims)
            target = make_algebra([int(n) for n in c @ dims])
            us = tuple(random_unitary(rng, n) for n in target.block_dims)
            x = random_operator(rng, source)
            got = embedding_as_ucp(UnitalEmbedding(source, target, c, us)).apply(x)
            for k, block in enumerate(got.blocks):
                slots = brute_force_slots(c, dims, us, k)
                want = sum(v @ x.blocks[l] @ v.conj().T for l, v in slots)
                assert np.max(np.abs(block - want)) <= 1e-12

    def test_pullback_is_linear_on_signed_functionals(self):
        # the pullback required a positive functional: phi - psi raised NotPositive
        rng = np.random.default_rng(13)
        for _ in range(20):
            src = make_algebra(rng.integers(1, 4, size=rng.integers(1, 4)))
            tgt = make_algebra(rng.integers(1, 4, size=rng.integers(1, 4)))
            chan = random_ucp(rng, src, tgt)
            phi = random_state(rng, tgt) * 10.0 ** rng.uniform(-4, 4)
            psi = random_state(rng, tgt) * 10.0 ** rng.uniform(-4, 4)
            signed = ucp_pullback(chan, phi - psi)
            diff = ucp_pullback(chan, phi) - ucp_pullback(chan, psi)
            scale = phi.mass + psi.mass
            for a, b in zip(signed.densities, diff.densities):
                assert np.max(np.abs(a - b)) <= DEFAULT_TOL.num * scale

    @pytest.mark.parametrize(
        "piece",
        [*((l, np.eye(2)) for l in (2, -1, True, 0.0)), np.eye(2), (1, np.eye(2))],
        ids=["past-the-blocks", "negative", "bool", "float", "bare-matrix", "wrong-shape"],
    )
    def test_a_piece_naming_no_source_block_or_of_the_wrong_shape_is_a_shape_error(self, piece):
        src, tgt = make_algebra([2, 1]), make_algebra([2])
        with pytest.raises(ShapeError):
            UcpMap(src, tgt, ((piece,),))


class TestChains:
    def test_product_chain_closed_form(self):
        sites = 6
        _, chain = build_product_chain([2] * sites)
        phi = product_state([np.diag([1.0, 0.0])] * sites)
        psi = product_state([np.eye(2) / 2.0] * sites)
        amps = chain_amplitudes(phi, psi, chain)
        assert np.allclose(amps, 2.0 ** (-0.5 * np.arange(1, sites + 1)), atol=1e-10)

    def test_last_entry_is_ambient(self):
        rng = np.random.default_rng(11)
        ambient, chain = build_product_chain([2, 2, 2])
        phi = random_state(rng, ambient)
        psi = random_state(rng, ambient)
        amps = chain_amplitudes(phi, psi, chain)
        assert amps[-1] == pytest.approx(transition_amplitude(phi, psi), abs=1e-10)

    def test_the_identity_step_ends_at_the_ambient_amplitude_bit_for_bit(self):
        # the identity step summed each density into a zero matrix, which made the negative
        # zeros of a pure site times a complex one positive, and LAPACK's reflector signs follow
        # them: the last entry read 0.01977732202234972, the ambient amplitude 0.019777322022349754
        c = np.array([[0.12, -0.05 - 0.15j], [-0.05 + 0.15j, 0.88]])
        plus = np.full((2, 2), 0.5)
        phi = product_state([np.diag([1.0, 0.0]), [[0.97, -0.15], [-0.15, 0.03]], plus, c,
                             np.diag([0.7, 0.3]), plus])
        psi = product_state([[[0.37, -0.41], [-0.41, 0.63]], np.diag([0.73, 0.27]), np.eye(2) / 2,
                             np.diag([1.0, 0.0]), np.diag([0.44, 0.56]),
                             [[0.52, -0.46], [-0.46, 0.48]]])
        _, chain = build_product_chain([2] * 6)
        assert chain_amplitudes(phi, psi, chain)[-1] == transition_amplitude(phi, psi)

    def test_monotone_on_entangled_states(self):
        rng = np.random.default_rng(12)
        ambient, chain = build_product_chain([2, 2, 2, 2])
        for _ in range(10):
            phi = random_state(rng, ambient)
            psi = random_state(rng, ambient)
            amps = chain_amplitudes(phi, psi, chain)
            assert np.all(np.diff(amps) <= 1e-10)

    def test_identical_site_powers(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        f = transition_amplitude(
            Functional(make_algebra([2]), (rho,)), Functional(make_algebra([2]), (sigma,))
        )
        _, chain = build_product_chain([2, 2, 2])
        amps = chain_amplitudes(product_state([rho] * 3), product_state([sigma] * 3), chain)
        assert np.allclose(amps, [f, f**2, f**3], atol=1e-10)

    def test_partial_product_restriction(self):
        rng = np.random.default_rng(14)
        mats = [random_density(rng, 2) for _ in range(3)]
        phi = product_state(mats)
        _, chain = build_product_chain([2, 2, 2])
        # A_2 -> A_3 composed with the identity onto the ambient
        two = restrict(phi, compose_embeddings(chain.final, chain.links[1]))
        assert np.allclose(two.densities[0], np.kron(mats[0], mats[1]), atol=1e-12)

    def test_cap(self):
        with pytest.raises(TooLarge):
            build_product_chain([2] * 11)

    def test_cap_is_on_the_ambient_dimension(self):
        ambient, _ = build_product_chain([4] * 5)
        assert ambient.block_dims == (1024,)
        with pytest.raises(TooLarge):
            build_product_chain([32, 33])
        with pytest.raises(TooLarge):
            build_product_chain(itertools.repeat(2))  # sites are read only up to the cap

    @pytest.mark.parametrize(
        "pick, message",
        [
            (lambda c: (c.links[:1], c.final), "one link between consecutive algebras"),
            (lambda c: (c.links[::-1], c.final), "link 0 does not connect A_1 to A_2"),
            (lambda c: (c.links, c.links[1]), "final embedding must start at the last"),
        ],
        ids=["link-count", "link-ends", "final-source"],
    )
    def test_links_must_connect_the_chain_algebras(self, pick, message):
        _, chain = build_product_chain([2, 2, 2])
        with pytest.raises(InvalidEmbedding, match=message):
            SubalgebraChain(chain.algebras, *pick(chain))

    def test_single_site_trivial(self):
        ambient, chain = build_product_chain([2])
        assert len(chain) == 1
        rng = np.random.default_rng(15)
        phi = random_state(rng, ambient)
        psi = random_state(rng, ambient)
        amps = chain_amplitudes(phi, psi, chain)
        assert amps == [pytest.approx(transition_amplitude(phi, psi))]


class TestLumpedDiagonalChain:
    def test_trivial_subalgebra_amplitude_one(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.6, 0.2, 0.2])
        chain = build_lumped_diagonal_chain(p, q)
        amps = chain_amplitudes(diagonal_state(p), diagonal_state(q), chain)
        assert amps[0] == pytest.approx(1.0)

    def test_equal_distributions(self):
        p = np.array([0.25, 0.25, 0.5])
        chain = build_lumped_diagonal_chain(p, p)
        amps = chain_amplitudes(diagonal_state(p), diagonal_state(p), chain)
        assert np.allclose(amps, 1.0)

    def test_tail_sum_closed_form(self):
        rng = np.random.default_rng(16)
        n = 8
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        chain = build_lumped_diagonal_chain(p, q)
        amps = chain_amplitudes(diagonal_state(p), diagonal_state(q), chain)
        # oracle: head affinity plus the lumped tail term
        for idx, a in enumerate(amps, start=1):
            head = np.sum(np.sqrt(p[: idx - 1] * q[: idx - 1]))
            tail = np.sqrt(np.sum(p[idx - 1 :]) * np.sum(q[idx - 1 :]))
            assert a == pytest.approx(head + tail, abs=1e-10)

    @pytest.mark.parametrize("p", [[np.nan, np.nan], [0.5, np.nan]])
    def test_rejects_non_finite_distribution(self, p):
        with pytest.raises(DomainError):
            build_lumped_diagonal_chain(p, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_diagonal_state_refuses_a_weight_that_is_not_finite(self, bad):
        # each 1x1 block was read by hermitian_part: "not Hermitian within tolerance"
        with pytest.raises(NotPositive, match="density block is not finite"):
            diagonal_state([0.5, bad])

    def test_a_diagonal_state_needs_a_weight(self):
        with pytest.raises(InvalidAlgebra):
            diagonal_state([])

    def test_rejects_bad_distribution(self):
        with pytest.raises(DomainError):
            build_lumped_diagonal_chain([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(DomainError):
            build_lumped_diagonal_chain([0.5, 0.5], [0.5, 0.25, 0.25])

    def test_cap(self):
        w = np.full(MAX_CHAIN_DIM + 1, 1.0 / (MAX_CHAIN_DIM + 1))
        with pytest.raises(TooLarge):
            build_lumped_diagonal_chain(w, w)

    @pytest.mark.parametrize("form", ["ndarray", "list"])
    def test_a_lumped_link_matrix_is_read_in_bulk(self, form):
        # each of its 1,047,552 entries went through the numbers.Integral test: 1.0 s as an
        # ndarray, 1.2 s as a list (2-vCPU VM); best of three runs, for a noisy host
        n = 1024
        c = np.zeros((n, n - 1), dtype=int)
        c[np.arange(n), np.minimum(np.arange(n), n - 2)] = 1
        c = c if form == "ndarray" else c.tolist()
        source, target = make_algebra([1] * (n - 1)), make_algebra([1] * n)
        for _ in range(3):
            start = time.perf_counter()
            emb = UnitalEmbedding(source, target, c)
            if (seconds := time.perf_counter() - start) < 0.25:
                break
        assert seconds < 0.25
        assert emb.sections[-2:].tolist() == [[n - 2, 0, 1], [n - 2, 0, 1]]

    def test_memory_is_linear_per_link(self):
        # a dense multiplicity matrix per link would hold about N^3/3 integers (70 MB)
        n = 300
        w = np.full(n, 1.0 / n)

        def built():
            chain = build_lumped_diagonal_chain(w, w)
            assert len(chain) == n
            return chain

        assert peak_bytes(built)[1] < 16 * 2**20
