"""The paper's identities as properties, on badly scaled block states.

Each block is zero or a PSD block of random rank scaled by 10^u with u
in [-8, 8], so one functional mixes blocks up to sixteen decades apart.
The suite profile in conftest.py derandomizes the examples.  Real
families also check that real storage gives the answers complex storage
gives: a complex unitary per block makes the same pair complex, and a
Haar unitary makes a real pair of Gram matrices complex.  An identity the
selftest battery also checks is its function in amplitude_lab.selftest,
called here on these draws: states where the identity holds for states
only, and a bound relative to the pair's scale.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amplitude_lab import (
    DEFAULT_TOL,
    BlockAlgebra,
    Functional,
    HermitianForm,
    NotFaithful,
    PositiveForm,
    PresymplecticSpace,
    StateRelation,
    SubalgebraChain,
    Tolerances,
    UcpMap,
    UnitalEmbedding,
    amplitude_sum_check,
    build_lumped_diagonal_chain,
    build_product_chain,
    central_support,
    chain_amplitudes,
    classify_pair,
    compose_embeddings,
    decompose,
    embedding_as_ucp,
    geometric_mean,
    identity_embedding,
    integrate_disjoint_family,
    interpolated_form,
    is_dominated,
    left_form,
    make_algebra,
    make_covariance,
    modular_conjugation,
    product_state,
    quotient_map,
    reduce_covariance,
    relative_modular,
    restrict,
    right_form,
    sqrt_vector,
    support_projection,
    support_reduce,
    total_rank,
    transition_amplitude,
    ucp_pullback,
    uhlmann_fidelity,
    using,
)
from amplitude_lab.linalg import (
    Spectrum,
    diagonal_blocks,
    eigh,
    eigvalsh,
    frozen,
    hermitian_part,
    hermitize,
    in_range,
    power,
    real_if_exact,
    spectral_apply,
)
from amplitude_lab.sampling import (
    random_complex,
    random_embedding,
    random_operator,
    random_ucp,
    random_unitary,
)
from amplitude_lab.selftest import (
    ando_defect,
    chain_margin,
    midpoint_gap,
    purification_defect,
    quotient_gap,
    sandwich_margin,
    ucp_gain,
)

from helpers import (
    block_diag,
    clamped_power,
    dominated_by_summands,
    reduced_quotient,
    root_overlap,
    unitary_conjugation_ucp,
)


def _block(n: int, rank: int, u: float, seed: int, real: bool = False) -> np.ndarray:
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    rng = np.random.default_rng(seed)
    if real:
        a = rng.normal(size=(n, rank))
    else:
        a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    b = a @ a.conj().T
    return b * (10.0**u / np.trace(b).real)


@st.composite
def functionals(draw, dims, real=False):
    blocks = [
        _block(
            n,
            draw(st.integers(0, n)),
            draw(st.floats(-8.0, 8.0)),
            draw(st.integers(0, 2**32 - 1)),
            real,
        )
        for n in dims
    ]
    if not any(b.any() for b in blocks):
        blocks[-1] = _block(dims[-1], dims[-1], 0.0, 0, real)
    return Functional(make_algebra(dims), tuple(blocks))


@st.composite
def pairs(draw, max_blocks=4):
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_blocks))
    return draw(functionals(dims)), draw(functionals(dims))


def _states(pair):
    """The pair scaled to unit mass, for the identities that hold for states only."""
    return tuple(f * (1.0 / f.mass) for f in pair)


def _scale(phi, psi) -> float:
    """sqrt(phi(1) psi(1)), the largest amplitude of the pair: the scale of its errors."""
    return float(np.sqrt(phi.mass * psi.mass))


@given(pairs())
def test_amplitude_is_symmetric_bounded_by_the_masses_and_the_mass_on_the_diagonal(pair):
    phi, psi = pair
    amp, scale = transition_amplitude(phi, psi), _scale(phi, psi)
    assert abs(amp - transition_amplitude(psi, phi)) <= DEFAULT_TOL.num * scale
    assert 0.0 <= amp <= scale * (1.0 + DEFAULT_TOL.num)
    for f in pair:
        assert abs(transition_amplitude(f, f) - f.mass) <= DEFAULT_TOL.num * f.mass


@given(pairs(), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
def test_amplitude_is_jointly_homogeneous(pair, u, v):
    phi, psi = pair
    a, b = 10.0**u, 10.0**v
    root = np.sqrt(a * b)
    gap = abs(transition_amplitude(a * phi, b * psi) - root * transition_amplitude(phi, psi))
    assert gap <= DEFAULT_TOL.num * root * _scale(phi, psi)


@given(pairs())
def test_fidelity_lies_between_the_squared_amplitude_and_the_amplitude(pair):
    assert sandwich_margin(*_states(pair)) >= -DEFAULT_TOL.num


@given(pairs(max_blocks=1))
def test_purifications_square_the_amplitude(pair):
    assert purification_defect(*_states(pair)) <= DEFAULT_TOL.num


@st.composite
def overlap_blocks(draw, n):
    """A PSD block of side n and trace 10^u, u in [-8, 8]: dense, a direct sum of dense
    summands, or diagonal; faithful, or each summand of random rank; real or complex."""
    kind = draw(st.sampled_from(["dense", "split", "diagonal"]))
    real, faithful = draw(st.booleans()), draw(st.booleans())
    if kind == "diagonal":
        sides = [1] * n
    elif kind == "split":
        cuts = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=2)) if n > 1 else set()
        sides = np.diff([0, *sorted(cuts), n]).tolist()
    else:
        sides = [n]
    seed, u = draw(st.integers(0, 2**32 - 1 - n)), draw(st.floats(-8.0, 8.0))
    summands = [_block(m, m if faithful else draw(st.integers(0, m)), 0.0, seed + k, real)
                for k, m in enumerate(sides)]
    return block_diag(*summands) * 10.0**u


@st.composite
def overlap_pairs(draw):
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    algebra = make_algebra(dims)
    return tuple(Functional(algebra, tuple(draw(overlap_blocks(n)) for n in dims)) for _ in "ab")


@given(overlap_pairs())
def test_the_amplitude_and_the_fidelity_are_those_of_the_roots_of_fresh_spectra(pair):
    phi, psi = pair
    amps, norms = zip(*(root_overlap(a, b) for a, b in zip(phi.densities, psi.densities)))
    bound = DEFAULT_TOL.num * _scale(phi, psi)
    assert abs(transition_amplitude(phi, psi) - sum(amps)) <= bound
    assert abs(np.sqrt(uhlmann_fidelity(phi, psi)) - sum(norms)) <= bound


@given(pairs())
def test_restriction_chain_falls_to_the_amplitude(pair):
    phi, psi = pair
    chain = _two_link_chain(phi.algebra, None)
    assert chain_margin(phi, psi, chain) >= -DEFAULT_TOL.num * _scale(phi, psi)


@given(pairs(), st.lists(st.integers(1, 3), min_size=1, max_size=2), st.integers(0, 2**32 - 1))
def test_ucp_pullbacks_do_not_lower_the_amplitude(pair, source_dims, seed):
    phi, psi = pair
    channel = random_ucp(np.random.default_rng(seed), make_algebra(source_dims), phi.algebra)
    assert ucp_gain(channel, phi, psi) >= -DEFAULT_TOL.num * _scale(phi, psi)


@given(pairs())
def test_quotient_pullbacks_keep_the_amplitude(pair):
    phi, psi = pair
    dims = phi.algebra.block_dims
    # a source with an extra block, holding the image's blocks in reverse order
    source = make_algebra([2, *dims[::-1]])
    pi = quotient_map(source, phi.algebra, tuple(range(len(dims), 0, -1)))
    assert quotient_gap(pi, phi, psi) <= DEFAULT_TOL.num * _scale(phi, psi)


@given(pairs(), st.integers(0, 2**32 - 1))
def test_unitary_conjugations_keep_the_amplitude(pair, seed):
    phi, psi = pair
    rng = np.random.default_rng(seed)
    us = tuple(random_unitary(rng, n) for n in phi.algebra.block_dims)
    channel = unitary_conjugation_ucp(phi.algebra, us)
    assert quotient_gap(channel, phi, psi) <= DEFAULT_TOL.num * _scale(phi, psi)


@st.composite
def embedded_pairs(draw):
    """A random embedding with Haar unitaries and a pair on its target."""
    source = make_algebra(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    emb = random_embedding(rng, source, num_target_blocks=draw(st.integers(1, 2)))
    dims = emb.target.block_dims
    return emb, draw(functionals(dims)), draw(functionals(dims))


@given(embedded_pairs())
def test_embeddings_restrict_as_their_ucp_maps(case):
    emb, phi, psi = case
    channel = embedding_as_ucp(emb)
    for f in (phi, psi):
        for a, b in zip(restrict(f, emb).densities, ucp_pullback(channel, f).densities):
            assert np.max(np.abs(a - b), initial=0.0) <= DEFAULT_TOL.num * f.mass
    assert ucp_gain(channel, phi, psi) >= -DEFAULT_TOL.num * _scale(phi, psi)


@given(pairs())
# blocks of phi 1e14 apart: the whole-Gram mean lost the 1e-7 summand, 7 times the bound
@example(
    (
        Functional(make_algebra([4, 1]), (_block(4, 4, 7.0, 18), _block(1, 1, -7.0, 118))),
        Functional(make_algebra([4, 1]), (_block(4, 4, 0.0, 218), _block(1, 1, 0.0, 318))),
    )
)
def test_interpolation_midpoint_is_the_geometric_mean(pair):
    phi, psi = pair
    assert midpoint_gap(phi, psi) <= DEFAULT_TOL.num * _scale(phi, psi)


@given(pairs(), st.floats(0.0, 1.0))
def test_a_fresh_eigvalsh_accepts_the_forms_built_positive(pair, t):
    # interpolated_form and geometric_mean take no eigvalsh of the Grams they build
    phi, psi = pair
    PositiveForm(interpolated_form(phi, psi, t).gram)
    PositiveForm(geometric_mean(left_form(phi), right_form(psi)).gram)


@given(pairs())
def test_amplitude_is_the_sum_over_central_components(pair):
    phi, psi = pair
    bound = DEFAULT_TOL.num * max(1.0, np.sqrt(phi.mass * psi.mass))
    assert amplitude_sum_check(phi, psi).defect <= bound


@given(pairs())
def test_disjoint_states_have_amplitude_zero(pair):
    phi, psi = pair
    if classify_pair(phi, psi) is StateRelation.DISJOINT:
        assert transition_amplitude(phi, psi) == 0.0


@given(pairs())
def test_central_support_is_the_central_cover_of_the_support(pair):
    phi = pair[0]
    for p, z in zip(support_projection(phi).blocks, central_support(phi).blocks):
        assert np.array_equal(z, np.eye(len(z)) * bool(p.any()))


@given(pairs())
def test_rank_does_not_see_the_scale_of_other_blocks(pair):
    phi = pair[0]
    rank = total_rank(phi)
    for k in range(phi.algebra.num_blocks):
        for c in (1e-8, 1e8):
            densities = list(phi.densities)
            densities[k] = c * densities[k]
            assert total_rank(Functional(phi.algebra, tuple(densities))) == rank


@given(pairs(), st.floats(0.0, 2.0))
def test_power_is_the_clamped_power_and_needs_a_faithful_spectrum_below_zero(pair, z):
    for w, v in pair[0].spectrum():
        eye, top, dense = np.eye(len(w)), float(np.max(np.abs(w))), Spectrum.of(w, v)
        assert np.array_equal(power(dense, 0.5), clamped_power(w, v, np.sqrt))
        gap = np.max(np.abs(power(dense, z) - clamped_power(w, v, lambda x: x**z)))
        assert gap <= 1e-13 * top**z
        assert np.max(np.abs(power(dense, 0.0) - eye)) <= 1e-14
        if not in_range(w).all():
            for bad in (-z - 0.5, z + 1j):
                with pytest.raises(NotFaithful):
                    power(dense, bad)
            continue
        roundoff = 1e-13 * (top / float(np.min(w))) ** z
        assert np.max(np.abs(power(dense, z) @ power(dense, -z) - eye)) <= roundoff
        flow = power(dense, 1j * z)
        assert np.max(np.abs(flow @ flow.conj().T - eye)) <= 1e-13


@st.composite
def rotated_real_pairs(draw):
    """A real pair, the same pair turned by a Haar unitary per block, and the unitaries."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    phi, psi = draw(functionals(dims, real=True)), draw(functionals(dims, real=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us = tuple(random_unitary(rng, n) for n in dims)
    turned = tuple(
        Functional(f.algebra, tuple(u @ d @ u.conj().T for u, d in zip(us, f.densities)))
        for f in (phi, psi)
    )
    return (phi, psi), turned, us


def _two_link_chain(ambient, unitaries):
    """C -> diagonal of the ambient -> ambient, the last link turned by the unitaries."""
    dims = ambient.block_dims
    point, diagonal = make_algebra([1]), make_algebra([1] * sum(dims))
    owner = np.repeat(np.arange(len(dims)), dims)
    spread = (np.arange(len(dims))[:, None] == owner).astype(int)
    links = (
        UnitalEmbedding(point, diagonal, np.ones((sum(dims), 1), dtype=int)),
        UnitalEmbedding(diagonal, ambient, spread, unitaries),
    )
    return SubalgebraChain((point, diagonal, ambient), links, identity_embedding(ambient))


@given(rotated_real_pairs())
def test_real_storage_gives_the_answers_of_complex_storage(case):
    (phi, psi), (phi_u, psi_u), us = case
    assert all(d.dtype == np.float64 for d in phi.densities + psi.densities)
    bound = DEFAULT_TOL.num * max(1.0, np.sqrt(phi.mass * psi.mass))
    assert abs(transition_amplitude(phi, psi) - transition_amplitude(phi_u, psi_u)) <= bound
    # the fidelity is compared by its root, which has the amplitude's scale
    root_fid = [np.sqrt(uhlmann_fidelity(*pair)) for pair in ((phi, psi), (phi_u, psi_u))]
    assert abs(root_fid[0] - root_fid[1]) <= bound
    assert total_rank(phi) == total_rank(phi_u)
    plain = chain_amplitudes(phi, psi, _two_link_chain(phi.algebra, None))
    turned = chain_amplitudes(phi_u, psi_u, _two_link_chain(phi.algebra, us))
    assert np.max(np.abs(np.subtract(plain, turned))) <= bound


@st.composite
def rotated_real_grams(draw):
    """Real PSD Grams on C^n of random ranks (the first nonzero) and scales, and a Haar unitary."""
    n = draw(st.integers(1, 5))
    grams = [
        _block(
            n,
            draw(st.integers(low, n)),
            draw(st.floats(-2.0, 2.0)),
            draw(st.integers(0, 2**32 - 1)),
            real=True,
        )
        for low in (1, 0)
    ]
    return grams, random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)


@given(rotated_real_grams())
def test_real_grams_give_the_mean_and_domination_of_their_rotations(case):
    (ga, gb), u = case
    real = [PositiveForm(g) for g in (ga, gb)]
    turned = [PositiveForm(u @ g @ u.conj().T) for g in (ga, gb)]
    assert all(f.gram.dtype == np.float64 for f in real)
    mean, mean_u = geometric_mean(*real), geometric_mean(*turned)
    assert mean.gram.dtype == np.float64
    bound = DEFAULT_TOL.num * max(1.0, float(np.max(np.abs(ga + gb))))
    assert np.max(np.abs(u @ mean.gram @ u.conj().T - mean_u.gram)) <= bound
    assert is_dominated(mean, *real) and is_dominated(mean_u, *turned)
    # the sum is dominated only by a zero pair, which the first Gram never is
    for f, g in (real, turned):
        assert not is_dominated(PositiveForm(f.gram + g.gram), f, g)


@st.composite
def faithful_first_grams(draw):
    """A faithful Gram and a Gram of any rank on C^n, n in 2..8, with entries up to about 26."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = [random_complex(rng, (n, r)) for r in (n, draw(st.integers(0, n)))]
    return [a @ a.conj().T for a in factors]


@st.composite
def faithful_grams(draw):
    """Two faithful complex Wishart Grams on C^n, n in 2..6."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [a @ a.conj().T for a in (random_complex(rng, (n, n)) for _ in range(2))]


@given(faithful_grams(), st.floats(-12.0, 12.0), st.floats(-12.0, 12.0))
def test_the_mean_is_jointly_homogeneous(grams, u, v):
    a, b = grams
    s, t = 10.0**u, 10.0**v
    mean = geometric_mean(PositiveForm(a), PositiveForm(b)).gram
    scaled = geometric_mean(PositiveForm(s * a), PositiveForm(t * b)).gram
    root = np.sqrt(s * t)
    assert np.max(np.abs(scaled - root * mean)) <= DEFAULT_TOL.num * root * np.max(np.abs(mean))


@st.composite
def gram_pair_sums(draw):
    """Two pairs of PSD Grams on C^1..C^4 of random ranks and scales, the second 10^(+-150) off."""

    def gram(n, u):
        seed = draw(st.integers(0, 2**32 - 1))
        return _block(n, draw(st.integers(0, n)), u + draw(st.floats(-2.0, 2.0)), seed)

    pairs = []
    for u in (0.0, draw(st.floats(-150.0, 150.0))):
        n = draw(st.integers(1, 4))
        pairs.append((gram(n, u), gram(n, u)))
    return pairs


@given(gram_pair_sums())
def test_the_mean_of_a_direct_sum_is_the_direct_sum_of_the_means(pairs):
    # Kubo & Ando: each summand keeps its own mean, however far below the other it lies
    sums = [PositiveForm(block_diag(*grams)) for grams in zip(*pairs)]
    mean = geometric_mean(*sums).gram
    own = [geometric_mean(PositiveForm(ga), PositiveForm(gb)).gram for ga, gb in pairs]
    gap, n = np.abs(mean - block_diag(*own)), len(own[0])
    assert not gap[:n, n:].any() and not gap[n:, :n].any()
    for part, (ga, gb) in zip((slice(0, n), slice(n, None)), pairs):
        scale = np.sqrt(np.max(np.abs(ga)) * np.max(np.abs(gb)))
        assert np.max(gap[part, part]) <= DEFAULT_TOL.num * scale
    assert is_dominated(PositiveForm(mean), *sums)


@st.composite
def block_diagonal_triples(draw):
    """(gamma, alpha, beta, sides): PSD alpha and beta of random ranks and scales on 1 to 3
    summands of sides 1 to 3, and gamma their mean, 1.0001 times it, or a random Hermitian form."""

    def gram():
        seeds = st.integers(0, 2**32 - 1)
        ranks, u = [draw(st.integers(0, n)) for n in sides], draw(st.floats(-2.0, 2.0))
        return block_diag(*(_block(n, r, u, draw(seeds)) for n, r in zip(sides, ranks)))

    sides = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    alpha, beta = PositiveForm(gram()), PositiveForm(gram())
    kind = draw(st.sampled_from(["mean", "above", "random"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = block_diag(*(random_complex(rng, (n, n)) for n in sides))
        gamma = HermitianForm(10.0 ** draw(st.floats(-3.0, 1.0)) * (g + g.conj().T))
    else:
        mean = geometric_mean(alpha, beta)
        gamma = mean if kind == "mean" else HermitianForm(1.0001 * mean.gram)
    return gamma, alpha, beta, sides


@given(block_diagonal_triples())
def test_domination_agrees_with_a_certificate_per_summand(triple):
    # the interleaved certificate is split by linalg.eigvalsh, not by a loop of is_dominated's
    gamma, alpha, beta, sides = triple
    expected = dominated_by_summands(gamma.gram, alpha.gram, beta.gram, sides)
    assert is_dominated(gamma, alpha, beta) == expected


@given(faithful_first_grams())
def test_the_mean_passes_andos_maximality_certificate(grams):
    assert ando_defect(*grams) <= 1e-8


@given(st.one_of(rotated_real_grams().map(lambda case: case[0]), faithful_first_grams()))
def test_the_mean_does_not_read_the_tolerances_in_force(grams):
    # the tolerances validate; the mean's snap is a roundoff cut of the pair
    forms = [PositiveForm(g) for g in grams]
    with using(Tolerances(slack=1e-6, num=1e-6)):
        loose = geometric_mean(*forms).gram
    assert np.array_equal(loose, geometric_mean(*forms).gram)


@st.composite
def subnormal_pairs(draw):
    """pairs() scaled to masses 10^e, e = 0 or e in [-300, -280]: a block sixteen decades
    below the mass of its functional then has subnormal entries."""
    scales = st.just(0.0) | st.floats(-300.0, -280.0)
    return tuple(f * (10.0 ** draw(scales) / f.mass) for f in draw(pairs()))


def _as_stored(block, rule):
    """Assert rule, the reading constructor's, gives back the stored block bit for bit, in
    its dtype, but where hermitize's 0.5 x rounds: in an entry below twice the smallest
    normal, by at most the smallest subnormal."""
    again = rule(block)
    assert again.dtype == block.dtype
    if not np.array_equal(again, block):
        for a, b in ((again.real, block.real), (again.imag, block.imag)):
            gap, exact = np.abs(a - b), np.abs(b) >= 2 * np.finfo(float).tiny
            assert not gap[exact].any() and np.all(gap <= np.finfo(float).smallest_subnormal)


# half the suite's examples keep this within 1 s; 150 pass as well
@settings(max_examples=75)
@given(subnormal_pairs(), st.integers(0, 2**32 - 1))
def test_the_built_path_stores_what_the_reading_constructors_would(pair, seed):
    # each site that stores by _built, read again by the rule a caller's block meets:
    # hermitian_part for densities and Grams, frozen for operators and vectors
    phi, psi = pair
    alg, rng = phi.algebra, np.random.default_rng(seed)
    x, y = random_operator(rng, alg) * 1e-310, random_operator(rng, alg)
    r = support_reduce(phi)
    flow = relative_modular(r.functional, r.functional, 0.5)
    us = tuple(random_unitary(rng, n) for n in alg.block_dims)
    chain, channel = _two_link_chain(alg, us), unitary_conjugation_ucp(alg, us)
    restricted = restrict(phi, chain.links[1])
    densities = [
        *(phi, psi, phi + psi, phi - psi, 0.5 * phi, phi * (1 + 0j), phi.adjoint()),
        *(r.functional, decompose(phi).reassemble(), *decompose(phi).components),
        integrate_disjoint_family([phi, psi], [0.5, 0.5])[1],
        *(restricted, restrict(restricted, chain.links[0]), ucp_pullback(channel, phi)),
    ]
    vector, turned = sqrt_vector(phi), flow.compose(modular_conjugation(r.functional))
    operators = [
        *(x + y, x - y, 0.5 * x, x.adjoint(), x @ y, flow.left, flow.right),
        *(flow.apply(r.compress(x)), channel.apply(x)),
        *(support_projection(phi), central_support(phi)),
        *(turned.left, turned.right),
        *(vector, vector @ x, x @ vector, vector - sqrt_vector(psi)),
    ]
    for f in densities:
        for d in f.densities:
            assert np.array_equal(d, d.conj().T)
            _as_stored(d, lambda a: hermitian_part(a, n=len(a)))
    for o in operators:
        for b in o.blocks:
            _as_stored(b, lambda a: frozen(a, a.shape))
    for form in (interpolated_form(phi, psi, 0.5), geometric_mean(left_form(phi), right_form(psi))):
        assert np.array_equal(form.gram, form.gram.conj().T)
        _as_stored(form.gram, hermitian_part)


def _multiplicity(emb: UnitalEmbedding) -> np.ndarray:
    c = np.zeros((emb.target.num_blocks, emb.source.num_blocks), dtype=int)
    for k in range(emb.target.num_blocks):
        for l, _, copies in emb._sections(k):
            c[k, l] = copies
    return c


def _as_read(built, read):
    """Assert an algebra, embedding or UCP map the package built is what its reading
    constructor made of the same values: Python int sides, and arrays bit for bit."""
    if isinstance(built, BlockAlgebra):
        assert built.block_dims == read.block_dims and hash(built) == hash(read)
        assert all(type(n) is int for n in built.block_dims)
        return
    _as_read(built.source, read.source)
    _as_read(built.target, read.target)
    if isinstance(built, UnitalEmbedding):
        assert (built.unitaries is None) == (read.unitaries is None)
        arrays = [(built.sections, read.sections), (built.bounds, read.bounds)]
        arrays += list(zip(built.unitaries or (), read.unitaries or (), strict=True))
    else:
        assert [[l for l, _ in f] for f in built.kraus] == [[l for l, _ in f] for f in read.kraus]
        assert all(type(l) is int for f in built.kraus for l, _ in f)
        arrays = [(a, b) for f, g in zip(built.kraus, read.kraus) for (_, a), (_, b) in zip(f, g)]
    for a, b in arrays:
        assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
    st.integers(1, 24),
    st.integers(0, 2**32 - 1),
)
def test_the_package_builds_the_maps_its_reading_constructors_make(dims, sites, n, seed):
    rng = np.random.default_rng(seed)
    source = make_algebra(dims)
    inner = random_embedding(rng, source, int(rng.integers(1, 3)))
    outer = random_embedding(rng, inner.target, int(rng.integers(1, 3)))
    composite = compose_embeddings(outer, inner)
    c = _multiplicity(outer) @ _multiplicity(inner)
    _as_read(composite, UnitalEmbedding(source, outer.target, c, composite.unitaries))

    partial = np.cumprod(sites)
    _, chain = build_product_chain(sites)
    for m, link in enumerate(chain.links):
        a, b = (BlockAlgebra((partial[j],)) for j in (m, m + 1))
        _as_read(link, UnitalEmbedding(a, b, [[sites[m + 1]]]))
    lumped = build_lumped_diagonal_chain(np.full(n, 1.0 / n), np.full(n, 1.0 / n))
    for m, link in enumerate(lumped.links, start=1):
        c = np.eye(m + 1, m, dtype=int)
        c[m, m - 1] = 1
        _as_read(link, UnitalEmbedding(make_algebra([1] * m), make_algebra([1] * (m + 1)), c))
    for ambient in (source, chain.ambient, lumped.ambient):
        ident = np.eye(ambient.num_blocks, dtype=int)
        _as_read(identity_embedding(ambient), UnitalEmbedding(ambient, ambient, ident))

    families = tuple(
        tuple((l, v.conj().T) for l, v in inner.slot_isometries(k))
        for k in range(inner.target.num_blocks)
    )
    _as_read(embedding_as_ucp(inner), UcpMap(source, inner.target, families))
    assignment = rng.permutation(len(dims))[: int(rng.integers(1, len(dims) + 1))]
    image = make_algebra([dims[k] for k in assignment])
    pieces = tuple(((k, np.eye(dims[k])),) for k in assignment)
    _as_read(quotient_map(source, image, assignment), UcpMap(source, image, pieces))


@st.composite
def direct_sums(draw, faithful=False):
    """(sides, h): a signed block-diagonal Hermitian h with exact zeros off its summands.

    Each summand is a _block of random rank, real or complex, scaled by
    +-10^u with u in [-8, 8]; every side is 1 for an all-diagonal draw.
    A faithful draw takes every summand of full rank and positive.
    """
    top = draw(st.sampled_from([1, 4]))
    sides = draw(st.lists(st.integers(1, top), min_size=1, max_size=10))
    blocks = [
        _block(n, n if faithful else draw(st.integers(0, n)), draw(st.floats(-8.0, 8.0)),
               draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))
        * (1.0 if faithful else draw(st.sampled_from([1.0, -1.0])))
        for n in sides
    ]
    return sides, block_diag(*blocks)


@given(direct_sums())
def test_spectra_split_a_direct_sum_into_its_summands(case):
    sides, h = case
    (w, v), values = eigh(h), eigvalsh(h)
    # the loop reference: one numpy call per summand, in the dtype of the whole h, then sorted
    stored = real_if_exact(h)
    own = [np.linalg.eigh(stored[b, b])[0] for b in diagonal_blocks(h)]
    assert np.array_equal(w, np.sort(np.concatenate(own)))
    eps, n = np.finfo(float).eps, len(h)
    for x in (w, values):
        assert np.all(np.diff(x) >= 0.0)
        assert np.max(np.abs(x - np.linalg.eigvalsh(h))) <= 10 * n * eps * np.max(np.abs(h))
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 10 * n * eps
    summand = np.repeat(np.arange(len(sides)), sides)
    for j in range(n):
        assert len(set(summand[v[:, j] != 0])) == 1  # column j lies in one summand
    rebuilt = (v * w) @ v.conj().T
    assert not rebuilt[summand[:, None] != summand].any()
    for b in np.split(np.arange(n), np.cumsum(sides)[:-1]):
        part = np.ix_(b, b)
        assert np.max(np.abs(rebuilt[part] - h[part])) <= 10 * n * eps * np.max(np.abs(h[part]))


@given(st.integers(1, 8), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_a_one_summand_matrix_is_diagonalised_as_numpy_would(n, real, zero_corner, seed):
    # the corner exit and a full scan that finds one summand both hand numpy h itself
    h = _block(n, n, 0.0, seed, real)
    if zero_corner and n > 2:
        h[0, -1] = h[-1, 0] = 0.0
    w, v = eigh(h)
    w_ref, v_ref = np.linalg.eigh(h)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    assert not (w.flags.writeable or v.flags.writeable)
    assert np.array_equal(eigvalsh(h), np.linalg.eigvalsh(h))


def _dense_function(spec, f, hermitian):
    """The dense formula (v * f(w)) @ v*, hermitized for a real power."""
    w, v = spec
    m = (v * f(w)) @ v.conj().T
    return 0.5 * m + 0.5 * m.conj().T if hermitian else m


def _clamped_power(z):
    return lambda x: np.power(np.where(in_range(x), x, 0.0), z)


@given(st.one_of(direct_sums(), direct_sums(faithful=True)), st.floats(0.1, 2.0))
def test_functions_of_a_split_spectrum_are_the_dense_formula_summand_by_summand(case, t):
    sides, h = case
    spec, n = eigh(h), len(h)

    def phase(x):
        return x * np.exp(1j * t * np.sign(x))

    # (matrix function, the f of w it applies, hermitized as power hermitizes a real power)
    functions = [(lambda s, z=z: power(s, z), _clamped_power(z), True) for z in (0.5, 1.0, 1 / 3)]
    functions.append((lambda s: spectral_apply(s, phase), phase, False))
    for z, f, hermitian in ((-0.5, _clamped_power(-0.5), True),
                            (1j * t, lambda x, z=1j * t: np.power(x.astype(complex), z), False)):
        if in_range(spec.w).all():
            functions.append((lambda s, z=z: power(s, z), f, hermitian))
        else:
            with pytest.raises(NotFaithful):
                power(spec, z)
    assert np.array_equal(power(spec, 0.0), np.eye(n))
    summand = np.repeat(np.arange(len(sides)), sides)
    ones = np.flatnonzero(np.array(sides)[summand] == 1)  # the rows of the 1 x 1 summands
    one = eigh(h[: sides[0], : sides[0]])  # the first summand as a matrix of its own
    bound = 10 * n * np.finfo(float).eps
    for function, f, hermitian in functions:
        got, ref = function(spec), _dense_function(spec, f, hermitian)
        assert got.dtype == ref.dtype
        assert not got[summand[:, None] != summand].any()
        assert np.array_equal(got[ones, ones], ref[ones, ones])  # -0.0 == 0.0
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(f(spec.w)), initial=0.0)
        if len(one.layout) == 1 and len(one.layout[0][0]) == 1:  # the first summand is one
            assert np.array_equal(function(one), _dense_function(one, f, hermitian))


@given(direct_sums())
def test_a_split_spectrum_assembles_its_v_on_first_read_as_a_dense_scatter(case):
    # the reference is the dense assembly each split spectrum made before its v was left to
    # its first read: each summand's own np.linalg.eigh, in the dtype of the whole h, written
    # at its rows into a zero matrix, the columns ordered by a stable sort of the eigenvalues
    _, h = case
    stored = real_if_exact(h)
    w_ref, v_ref = np.empty(len(h)), np.zeros(h.shape, dtype=stored.dtype)
    for b in diagonal_blocks(h):
        w_ref[b], v_ref[b, b] = np.linalg.eigh(stored[b, b])
    order = np.argsort(w_ref, kind="stable")
    spec = eigh(h)
    assert spec.w.tobytes() == w_ref[order].tobytes()
    w, v = spec
    assert v.dtype == v_ref.dtype and v.tobytes() == v_ref[:, order].tobytes()
    assert spec.v is v and spec.with_values(2.0 * w).v is v  # kept, and shared
    assert not (w.flags.writeable or v.flags.writeable)


@st.composite
def multi_section_embeddings(draw):
    """(emb, phi): an embedding whose target blocks hold one to three sections of one to three
    copies, with a complex, a real or no unitary per target block, and a functional on its
    target, real or complex."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rows = draw(st.integers(1, 3))
    c = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=len(dims), max_size=len(dims)),
                               min_size=rows, max_size=rows)))
    c[0] += ~c.any(axis=0)  # every source block has a copy
    c[~c.any(axis=1), 0] = 1  # and every target block a section
    target = make_algebra((c @ np.array(dims)).tolist())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unitaries = draw(st.sampled_from([None, "complex", "real"]))
    if unitaries == "complex":
        unitaries = tuple(random_unitary(rng, n) for n in target.block_dims)
    elif unitaries == "real":
        unitaries = tuple(np.linalg.qr(rng.normal(size=(n, n)))[0] for n in target.block_dims)
    emb = UnitalEmbedding(make_algebra(dims), target, c, unitaries)
    return emb, draw(functionals(target.block_dims, real=draw(st.booleans())))


@given(multi_section_embeddings())
def test_restriction_sums_its_sections_as_a_sum_into_zero_matrices_does(case):
    # the reference is restrict's sum before it started at its first section: each section's
    # einsum, one copy or more, added into a zero matrix of the densities' and unitaries' dtype
    emb, phi = case
    dtype = np.result_type(*phi.densities, *(emb.unitaries or ()))
    ref = [np.zeros((m, m), dtype=dtype) for m in emb.source.block_dims]
    for k, d in enumerate(phi.densities):
        u = emb._unitary(k)
        rot = d if u is None else hermitize(u.conj().T @ d @ u)
        for l, start, c in emb._sections(k):
            m = emb.source.block_dims[l]
            section = rot[start : start + m * c, start : start + m * c]
            ref[l] += np.einsum("pjqj->pq", section.reshape(m, c, m, c))
    got = restrict(phi, emb).densities
    for a, b in zip(got, map(real_if_exact, ref), strict=True):
        # np.array_equal is bit for bit but for the sign of a zero, which 0 + x did not keep
        assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable


def _blocks_by_the_int64_rule(*mats):
    """diagonal_blocks as it scanned before: the last nonzero column of each row from the int64
    product of the joint nonzero pattern and arange(n)."""
    n = len(mats[0])
    nonzero = np.zeros((n, n), dtype=bool)
    for m in mats:
        nonzero |= m != 0
    reach = np.maximum.accumulate((nonzero * np.arange(n)).max(axis=1, initial=0))
    bounds = [0, *(np.flatnonzero(reach[:-1] < np.arange(1, n)) + 1).tolist(), n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


@st.composite
def zero_patterns(draw):
    """One or two real or complex matrices of side 0 to 10: sparse random blocks along the
    diagonal, some rows zeroed, and at times one stray entry anywhere."""
    n, count = draw(st.integers(0, 10)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(count):
        m, start = np.zeros((n, n), dtype=complex if rng.random() < 0.5 else float), 0
        while start < n:
            b = slice(start, start + int(rng.integers(1, 4)))
            entries = rng.normal(size=m[b, b].shape) * (rng.random(m[b, b].shape) < 0.6)
            m[b, b] = entries * (1j if m.dtype == complex and rng.random() < 0.5 else 1.0)
            start = b.stop
        m[rng.random(n) < 0.2] = 0.0
        if n and rng.random() < 0.3:
            m[rng.integers(n), rng.integers(n)] = 1.0
        mats.append(m)
    return mats


@given(zero_patterns())
@example([np.zeros((0, 0))])
@example([np.zeros((1, 1))])
@example([np.ones((1, 1))])
@example([np.zeros((3, 3)), np.diag([0.0, 1.0, 0.0])])
def test_diagonal_blocks_agree_with_the_int64_rule(mats):
    assert diagonal_blocks(*mats) == _blocks_by_the_int64_rule(*mats)


@given(st.lists(st.sampled_from([2, 3, 1]), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_a_product_state_is_the_kronecker_product_of_its_sites(sides, seed):
    rng = np.random.default_rng(seed)
    sites = [_block(n, int(rng.integers(0, n + 1)), rng.uniform(-8.0, 8.0),
                    int(rng.integers(2**32)), bool(rng.random() < 0.5)) for n in sides]
    ref = real_if_exact(functools.reduce(np.kron, [hermitian_part(s) for s in sites]))
    (got,) = product_state(sites).densities
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@st.composite
def scaled_covariances(draw):
    """(sides, s, t): two real covariances on sigma = 0, block-diagonal with the same blocks.

    Each block of s and of t is a real _block of random rank, both scaled
    by 10^u with one u of -8, 0 or 8 per block, so two blocks of unlike
    scale sit eight or sixteen decades apart.
    """
    sides = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    pairs = []
    for n in sides:
        u = draw(st.sampled_from([-8.0, 0.0, 8.0]))
        pairs.append([_block(n, draw(st.integers(0, n)), u, draw(st.integers(0, 2**32 - 1)), True)
                      for _ in range(2)])
    sigma = np.zeros((sum(sides), sum(sides)))
    return (sides, *(make_covariance(2.0 * block_diag(*g).real, sigma) for g in zip(*pairs)))


@given(scaled_covariances())
def test_reduce_ranks_each_block_as_a_plain_eigh_per_block_does(case):
    sides, s, t = case
    triple = reduce_covariance(PresymplecticSpace(np.zeros((s.dim, s.dim))), s, t)
    kernel_dim, q = reduced_quotient(0.5 * np.real(s.gram) + 0.5 * np.real(t.gram), sides)
    assert triple.kernel_dim == kernel_dim
    assert np.array_equal(triple.quotient, q)


def _site(kind: str, n: int, u: float, seed: int) -> np.ndarray:
    """A PSD site of side n and trace 10^u: diagonal (with zeros), rank-1 or dense complex, the
    uniform rank-1 "plus", or block-split, a dense complex block beside a rank-1 one."""
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        w = rng.random(n) * (rng.random(n) < 0.8)
        w[rng.integers(n)] = 1.0
        return np.diag(w * (10.0**u / np.sum(w)))
    if kind == "plus":
        return np.full((n, n), 10.0**u / n)
    if kind == "split" and n > 1:
        a = int(rng.integers(1, n))
        return block_diag(_block(a, a, u, seed), _block(n - a, 1, u, seed + 1)) / 2.0
    return _block(n, 1 if kind == "rank-1" else n, u, seed)


SITE_KINDS = ["diagonal", "rank-1", "dense", "split", "plus"]


@st.composite
def product_sites(draw):
    """1-4 sites of side 1-4, each of a SITE_KINDS kind, with trace 10^u for u in [-1, 1]."""
    return [_site(draw(st.sampled_from(SITE_KINDS)), draw(st.integers(1, 4)),
                  draw(st.floats(-1.0, 1.0)), draw(st.integers(0, 2**32 - 2)))
            for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=60)
@given(product_sites())
def test_a_product_state_holds_the_kronecker_spectrum_of_its_sites(sites):
    phi = product_state(sites)
    (d,), (spec,) = phi.densities, phi._spectrum  # held by product_state, not diagonalised
    n, eps = len(d), np.finfo(float).eps
    scale = float(np.max(np.abs(spec.w)))
    assert np.all(np.diff(spec.w) >= 0.0)
    assert np.max(np.abs(spec.w - np.linalg.eigvalsh(d))) <= DEFAULT_TOL.num * scale
    # either root errs by up to 1 / (2 sqrt(lam)) times eigh's error, lam its least kept eigenvalue
    lam = float(np.min(spec.w[in_range(spec.w)]))
    root = power(eigh(d), 0.5)
    assert np.max(np.abs(power(spec, 0.5) - root)) <= 10 * n * eps * scale / min(np.sqrt(lam), 1.0)
    w, v = spec
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 10 * n * eps
    assert np.max(np.abs((v * w) @ v.conj().T - d)) <= 10 * n * eps * scale


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(1, 4), st.sampled_from(SITE_KINDS),
       st.sampled_from(SITE_KINDS), st.integers(0, 2**32 - 2))
def test_a_product_chain_falls_by_the_site_amplitude_at_every_level(n, sites, kind_a, kind_b, seed):
    a, b = _site(kind_a, n, 0.0, seed), _site(kind_b, n, 0.0, seed + 2)
    site = transition_amplitude(*(Functional(make_algebra([n]), (s,)) for s in (a, b)))
    _, chain = build_product_chain([n] * sites)
    amps = chain_amplitudes(product_state([a] * sites), product_state([b] * sites), chain)
    assert amps == pytest.approx(site ** np.arange(1, sites + 1), abs=1e-12)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(SITE_KINDS),
                          st.sampled_from(SITE_KINDS), st.integers(0, 2**32 - 3)),
                min_size=1, max_size=3))
def test_the_overlap_of_two_product_states_is_that_of_their_densities(sites):
    # a split site interleaves its product's summands, so the two layouts meet row by row
    phi, psi = (product_state([_site(kind[i], n, 0.0, seed + 2 * i) for n, *kind, seed in sites])
                for i in (0, 1))
    amp, norm = root_overlap(phi.densities[0], psi.densities[0])
    assert abs(transition_amplitude(phi, psi) - amp) <= DEFAULT_TOL.num
    assert abs(np.sqrt(uhlmann_fidelity(phi, psi)) - norm) <= DEFAULT_TOL.num
