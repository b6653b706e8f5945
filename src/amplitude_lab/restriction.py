"""Maps between block algebras: unital embeddings, UCP maps and their pullbacks.

A unital embedding of multi-matrix algebras is stored in standard
position: source block l enters target block k as c[k][l] copies of
a_l (x) 1, sections ordered by l, conjugated by an optional unitary per
target block.  Every unital embedding has this form, with the unitary
carrying all the generality.  Embeddings the package builds are laid out
from their nonempty sections alone, with no dense multiplicity matrix.

Every map between block algebras is a UcpMap: an embedding acts through
embedding_as_ucp, a quotient is quotient_map's identity pieces, and the
linear ucp_pullback pulls signed functionals back along either.

Restricting a functional along an embedding is the adjoint operation
(blockwise partial traces over the multiplicity indices); restricting a
pair of states along an increasing chain of subalgebras produces a
nonincreasing sequence of transition amplitudes that ends at the ambient
amplitude when the chain exhausts the algebra.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .algebra import BlockAlgebra, BlockOperator, Functional, _check_algebra
from .amplitudes import transition_amplitude
from .central import probability_vector
from .config import MAX_CHAIN_DIM, as_built, integer, integers, sequence
from .errors import DomainError, InvalidAlgebra, InvalidEmbedding, NotQuotient, NotUnital
from .errors import ShapeError, TooLarge
from .linalg import built, close, eigh, frozen, hermitian_part, hermitize, kron, kron_eigh
from .linalg import real_if_exact


@dataclass(frozen=True, eq=False)
class UnitalEmbedding:
    """Unital *-embedding between block algebras in standard position.

    The multiplicity matrix c is read at construction and not kept: the
    embedding stores its layout, one row (l, start, c[k][l]) per nonempty
    section, ordered by (target block k, source block l), with the rows
    of target block k at sections[bounds[k] : bounds[k + 1]].  Copy j of
    section (l, start, c) puts row p of a_l at row start + p*c + j of the
    target block, before the unitary.  The unitaries are stored by
    linalg.real_if_exact, so a real rotation is float64.  A layout the package
    builds skips c: _embedding lays out its nonempty sections alone.
    """

    source: BlockAlgebra
    target: BlockAlgebra
    multiplicity: InitVar[np.ndarray]
    unitaries: tuple[np.ndarray, ...] | None = field(default=None, repr=False)
    sections: np.ndarray = field(init=False, repr=False)
    bounds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, multiplicity):
        shape = (self.target.num_blocks, self.source.num_blocks)
        if isinstance(multiplicity, np.ndarray):  # its entries as Python's, read by the same rule
            multiplicity = multiplicity.tolist()
        rows = [list(sequence(r, "multiplicity row", InvalidEmbedding))
                for r in sequence(multiplicity, "multiplicity", InvalidEmbedding)]
        if [len(r) for r in rows] != [shape[1]] * shape[0]:
            raise InvalidEmbedding(f"multiplicity is not a {shape[0]} x {shape[1]} matrix")
        c = np.array([integers(r, "multiplicity", InvalidEmbedding) for r in rows])
        covered = c.any(axis=0)
        if not covered.all():
            l = int(np.argmin(covered))
            raise InvalidEmbedding(f"source block {l} has no copy in any target block")
        # the int64 sums below are exact under this bound; no layout past it could be built
        if int(c.max()) * max(self.source.block_dims) * self.source.num_blocks >= 2**63:
            raise TooLarge("multiplicity sums c[k][l]*m_l may pass 2^63")
        sums = c @ np.array(self.source.block_dims)
        bad = np.flatnonzero(sums != self.target.block_dims)
        if bad.size:
            k = int(bad[0])
            raise InvalidEmbedding(
                f"target block {k}: sum of c[k][l]*m_l = {int(sums[k])} "
                f"!= {self.target.block_dims[k]}"
            )
        ks, ls = np.nonzero(c)
        laid_out = _embedding(self.source, self.target, ks, ls, c[ks, ls])
        for name in ("sections", "bounds"):
            object.__setattr__(self, name, getattr(laid_out, name))
        if self.unitaries is not None:
            unitaries = tuple(sequence(self.unitaries, "unitaries", InvalidEmbedding))
            if len(unitaries) != self.target.num_blocks:
                raise InvalidEmbedding("one unitary per target block is required")
            us = []
            for k, (n, u) in enumerate(zip(self.target.block_dims, unitaries)):
                u = frozen(u, (n, n), f"unitary {k}", InvalidEmbedding)
                if not (np.isfinite(u).all() and close(u.conj().T @ u - np.eye(n))):
                    raise InvalidEmbedding(f"matrix {k} is not unitary within tolerance")
                us.append(u)
            object.__setattr__(self, "unitaries", tuple(us))

    def _unitary(self, k: int) -> np.ndarray | None:
        return None if self.unitaries is None else self.unitaries[k]

    def _sections(self, k: int) -> list[list[int]]:
        """[l, start, c] of each nonempty section of target block k, ordered by l."""
        return self.sections[self.bounds[k] : self.bounds[k + 1]].tolist()

    def slot_isometries(self, k: int) -> list[tuple[int, np.ndarray]]:
        """All copy isometries (l, V) into target block k, ordered by (l, copy).

        V is a column slice of the unitary (or of the identity): copy j of
        section (l, start, c) takes columns start + j, start + j + c, ...
        """
        u = self._unitary(k)
        basis = np.eye(self.target.block_dims[k]) if u is None else u
        out = []
        for l, start, c in self._sections(k):
            stop = start + self.source.block_dims[l] * c
            out.extend((l, basis[:, start + j : stop : c]) for j in range(c))
        return out


def _embedding(source, target, ks, ls, copies, unitaries=None) -> UnitalEmbedding:
    """The embedding of the nonempty sections, int64 arrays of target block ks, source block ls
    and copies, ordered by (k, l); stored as built.  The one layout arithmetic: the reader's too."""
    sizes = copies * np.array(source.block_dims)[ls]
    bounds = np.searchsorted(ks, np.arange(target.num_blocks + 1))
    # offset of each section in the concatenated target blocks, less its block's first one's
    offsets = np.cumsum(sizes) - sizes
    sections = np.stack([ls, offsets - offsets[bounds[ks]], copies], axis=1)
    for arr in (sections, bounds):
        arr.setflags(write=False)
    fields = dict(source=source, target=target, unitaries=unitaries)
    return as_built(UnitalEmbedding, **fields, sections=sections, bounds=bounds)


def identity_embedding(algebra: BlockAlgebra) -> UnitalEmbedding:
    k = np.arange(algebra.num_blocks)
    return _embedding(algebra, algebra, k, k, np.ones_like(k))


def compose_embeddings(outer: UnitalEmbedding, inner: UnitalEmbedding) -> UnitalEmbedding:
    """Composite embedding outer o inner, back in standard position.

    The copies of source block l in target block k are the products of
    copy isometries, ordered by the outer copy and then the inner copy;
    their count is the composite multiplicity, and the composite unitary
    takes copy j of section l in the columns the layout gives it.
    """
    if inner.target != outer.source:
        raise InvalidEmbedding("inner target and outer source algebras differ")
    counts, unitaries = [], []
    for k, n in enumerate(outer.target.block_dims):
        by_source: list[list[np.ndarray]] = [[] for _ in inner.source.block_dims]
        for j, v_out in outer.slot_isometries(k):
            for l, v_in in inner.slot_isometries(j):
                by_source[l].append(v_out @ v_in)
        counts.append([len(copies) for copies in by_source])
        unitaries.append(np.hstack([np.stack(w, axis=-1).reshape(n, -1) for w in by_source if w]))
    c = np.array(counts)
    ks, ls = np.nonzero(c)
    return _embedding(inner.source, outer.target, ks, ls, c[ks, ls], tuple(map(built, unitaries)))


def restrict(phi: Functional, emb: UnitalEmbedding) -> Functional:
    """Pull a functional on the target back to the source, phi o embed.

    Densities are partial traces over the multiplicity indices of the
    unitarily rotated target densities; mass is preserved.  Where a
    block has a unitary, the rotated density u* D u is hermitized; the
    partial traces of an exactly Hermitian matrix are exactly Hermitian,
    so they are not.  Along an embedding that maps every block onto itself
    with no unitary, the restriction is phi itself, with the spectrum it
    holds.  Otherwise a source block's density is the sum of its
    sections' partial traces, in section order, started by the first: a
    one-copy section is its own partial trace, a slice of the rotated
    density, so a block with no unitary and one such section is a
    read-only view of the target density, with no copy.  A real
    functional restricts in real arithmetic along real unitaries or none.
    """
    _check_algebra(emb.target, phi)
    blocks = emb.source.num_blocks
    if emb.unitaries is None and emb.source == emb.target and len(emb.sections) == blocks:
        # one section per block, block k's at row k: each maps onto itself when its source is k
        if np.array_equal(emb.sections[:, 0], np.arange(blocks)):
            return phi
    out: list[np.ndarray | None] = [None] * blocks
    for k, d in enumerate(phi.densities):
        u = emb._unitary(k)
        rot = d if u is None else hermitize(u.conj().T @ d @ u)
        for l, start, c in emb._sections(k):
            m = emb.source.block_dims[l]
            part = rot[start : start + m * c, start : start + m * c]
            if c > 1:
                part = np.einsum("pjqj->pq", part.reshape(m, c, m, c))
            out[l] = part if out[l] is None else out[l] + part
    return Functional._built(emb.source, tuple(out))


@dataclass(frozen=True, eq=False)
class UcpMap:
    """Unital completely positive map between block algebras, in block-local Kraus form.

    kraus[k] is the family for target block k: pieces (l, K) of a source
    block l and a matrix K of shape (m_l, N_k), with sum K^* K = I_{N_k}
    over the family, acting as Phi(a)_k = sum K^* a_l K.  A Kraus operator
    on the whole source space is its row blocks, one piece per source
    block.  Each K is stored by linalg.real_if_exact.
    """

    source: BlockAlgebra
    target: BlockAlgebra
    kraus: tuple[tuple[tuple[int, np.ndarray], ...], ...] = field(repr=False)

    def __post_init__(self):
        kraus = tuple(sequence(self.kraus, "Kraus families", NotUnital))
        if len(kraus) != self.target.num_blocks:
            raise NotUnital("one Kraus family per target block is required")
        families = []
        for k, (n, fam) in enumerate(zip(self.target.block_dims, kraus, strict=True)):
            pieces = []
            for i, piece in enumerate(sequence(fam, f"Kraus family {k}", NotUnital)):
                what = f"Kraus piece {i} of target block {k}"
                pair = isinstance(piece, (tuple, list)) and len(piece) == 2
                l, m = piece if pair else (None, None)
                l = integer(l, f"source block of {what}", ShapeError, 0, self.source.num_blocks)
                pieces.append((l, frozen(m, (self.source.block_dims[l], n), what)))
            total = sum(m.conj().T @ m for _, m in pieces)
            if not pieces or not close(total - np.eye(n)):
                raise NotUnital(f"Kraus family for target block {k} does not sum to identity")
            families.append(tuple(pieces))
        object.__setattr__(self, "kraus", tuple(families))

    def apply(self, a: BlockOperator) -> BlockOperator:
        """Phi(a) on the target algebra."""
        _check_algebra(self.source, a)
        blocks = tuple(sum(m.conj().T @ a.blocks[l] @ m for l, m in fam) for fam in self.kraus)
        return BlockOperator._built(self.target, blocks)


def embedding_as_ucp(emb: UnitalEmbedding) -> UcpMap:
    """The embedding as a UCP map, pieces (l, V*) of its copy isometries: a -> sum V a_l V*."""
    families = tuple(
        tuple((l, built(v.conj().T)) for l, v in emb.slot_isometries(k))
        for k in range(emb.target.num_blocks)
    )
    return as_built(UcpMap, source=emb.source, target=emb.target, kraus=families)


def quotient_map(source: BlockAlgebra, image: BlockAlgebra, assignment: Sequence[int]) -> UcpMap:
    """Surjective unital *-homomorphism as a UCP map: one identity piece (assignment[l], I)
    per image block l, so every other source block is killed.

    Entry l must be an integer naming a distinct source block of image
    block l's side, one entry per image block (else NotQuotient).
    """
    assignment, dims = list(sequence(assignment, "assignment", NotQuotient)), image.block_dims
    if len(assignment) != len(dims):
        raise NotQuotient("assignment length must match the image block count")
    for l, k in enumerate(assignment):
        assignment[l] = k = integer(k, f"assignment entry {l}", NotQuotient, 0, source.num_blocks)
        if k in assignment[:l]:
            raise NotQuotient("assignment must be injective for surjectivity")
        if source.block_dims[k] != dims[l]:
            raise NotQuotient(f"image block {l} has side {dims[l]}, source block {k} does not")
    kraus = tuple(((k, built(np.eye(n))),) for k, n in zip(assignment, dims))
    return as_built(UcpMap, source=source, target=image, kraus=kraus)


def ucp_pullback(channel: UcpMap, psi: Functional) -> Functional:
    """Pull a functional on the target back along a UCP map, psi o channel.

    Source block l has the density sum K D_k K^* over the pieces (l, K).
    The pullback is linear, so it takes signed functionals; it keeps
    positivity and total mass, and the transition amplitude of a
    positive pair can only grow under it.
    """
    _check_algebra(channel.target, psi)
    out = [np.zeros((m, m), dtype=complex) for m in channel.source.block_dims]
    for fam, d in zip(channel.kraus, psi.densities):
        for l, m in fam:
            out[l] += m @ d @ m.conj().T
    return Functional._built(channel.source, tuple(hermitize(x) for x in out))


@dataclass(frozen=True, eq=False)
class SubalgebraChain:
    """Increasing chain A_1 -> A_2 -> ... -> A_T -> ambient."""

    algebras: tuple[BlockAlgebra, ...]
    links: tuple[UnitalEmbedding, ...]
    final: UnitalEmbedding

    def __post_init__(self):
        for name in ("algebras", "links"):
            items = tuple(sequence(getattr(self, name), f"chain {name}", InvalidEmbedding))
            object.__setattr__(self, name, items)
        if len(self.links) != len(self.algebras) - 1:
            raise InvalidEmbedding("need exactly one link between consecutive algebras")
        for n, link in enumerate(self.links):
            if link.source != self.algebras[n] or link.target != self.algebras[n + 1]:
                raise InvalidEmbedding(f"link {n} does not connect A_{n + 1} to A_{n + 2}")
        if self.final.source != self.algebras[-1]:
            raise InvalidEmbedding("final embedding must start at the last chain algebra")

    @property
    def ambient(self) -> BlockAlgebra:
        return self.final.target

    def __len__(self) -> int:
        return len(self.algebras)


def chain_amplitudes(phi: Functional, psi: Functional, chain: SubalgebraChain) -> list[float]:
    """Transition amplitudes of the restrictions along the chain.

    Entry n is the amplitude of the pair restricted to A_{n+1}; the
    sequence is nonincreasing in n and ends at the ambient amplitude
    when the final embedding is the identity.  Restriction is performed
    stepwise from the top, which agrees with restricting along the
    composite embeddings.
    """
    _check_algebra(chain.ambient, phi, psi)
    amps, p, q = [], phi, psi
    for emb in reversed((*chain.links, chain.final)):
        p, q = restrict(p, emb), restrict(q, emb)
        amps.append(transition_amplitude(p, q))
    amps.reverse()
    return amps


def build_product_chain(site_dims: Iterable[int]) -> tuple[BlockAlgebra, SubalgebraChain]:
    """Chain of leading tensor factors inside M_{d_1 ... d_N}.

    A_n is the full matrix algebra on the first n sites embedded as
    a -> a (x) 1 on the rest.  The ambient dimension d_1 ... d_N, the side
    of the dense densities a product state on it carries, may not exceed
    MAX_CHAIN_DIM; the sites are read only until it does.
    """
    dims: list[int] = []
    ambient_dim = 1
    for d in sequence(site_dims, "site dimensions", DomainError):
        dims.append(integer(d, f"site {len(dims)} dimension", DomainError, 1))
        ambient_dim *= dims[-1]
        if ambient_dim > MAX_CHAIN_DIM:
            raise TooLarge(
                f"the first {len(dims)} sites have ambient dimension {ambient_dim}, "
                f"above MAX_CHAIN_DIM = {MAX_CHAIN_DIM}"
            )
    if not dims:
        raise DomainError("need at least one site dimension")
    partial = np.cumprod(dims).tolist()
    algebras = tuple(as_built(BlockAlgebra, block_dims=(p,)) for p in partial)
    steps = zip(algebras, algebras[1:], dims[1:])
    links = tuple(_embedding(a, b, *np.array([[0], [0], [d]])) for a, b, d in steps)
    ambient = algebras[-1]
    final = identity_embedding(ambient)
    return ambient, as_built(SubalgebraChain, algebras=algebras, links=links, final=final)


def product_state(site_densities: Sequence[np.ndarray]) -> Functional:
    """Tensor product functional on the single-block algebra of all sites.

    Site i is read by linalg.hermitian_part as "site density i": square and
    Hermitian within tolerance, so real sites give a real product.  Each
    distinct site object is read once and diagonalised once (linalg.eigh),
    the sites held meanwhile so that no id is reused.  The Kronecker product
    of exactly Hermitian matrices is exactly Hermitian, so the product is
    stored as built, with no Hermitian check of its own, and with its
    spectrum, linalg.kron_eigh of the sites': the product is never
    diagonalised.  Each Kronecker product is linalg.kron's, the bits of
    np.kron's.
    """
    sites = list(sequence(site_densities, "site densities", DomainError))
    if not sites:
        raise DomainError("need at least one site density")
    read: dict[int, np.ndarray] = {}
    for i, d in enumerate(sites):
        if id(d) not in read:
            read[id(d)] = hermitian_part(d, f"site density {i}")
    spectra = {key: eigh(m) for key, m in read.items()}
    mats = [read[id(d)] for d in sites]
    acc = mats[0]
    for m in mats[1:]:
        acc = kron(acc[None], m[None])[0]
    spectrum = kron_eigh([spectra[id(d)] for d in sites])
    return Functional._built(as_built(BlockAlgebra, block_dims=(len(acc),)), (acc,), (spectrum,))


def build_lumped_diagonal_chain(p: Sequence[float], q: Sequence[float]) -> SubalgebraChain:
    """Chain of tail-lumped diagonal subalgebras of C^N.

    A_n keeps the first n-1 coordinates and lumps the tail into a single
    unit; restricting a diagonal state sums its tail mass.  Both weight
    vectors are validated as distributions of the same length, which may
    not exceed MAX_CHAIN_DIM.
    """
    pv = probability_vector(p, "p")
    qv = probability_vector(q, "q")
    if pv.size != qv.size:
        raise DomainError("p and q must have the same length")
    n_total = pv.size
    if n_total > MAX_CHAIN_DIM:
        raise TooLarge(f"{n_total} coordinates are above MAX_CHAIN_DIM = {MAX_CHAIN_DIM}")
    algebras = tuple(as_built(BlockAlgebra, block_dims=(1,) * n) for n in range(1, n_total + 1))
    links = []
    for a, b in zip(algebras, algebras[1:]):
        # a's last block, the lumped tail, splits into b's last two: one copy in each
        k = np.arange(b.num_blocks)
        links.append(_embedding(a, b, k, np.minimum(k, a.num_blocks - 1), np.ones_like(k)))
    final = identity_embedding(algebras[-1])
    return as_built(SubalgebraChain, algebras=algebras, links=tuple(links), final=final)


def diagonal_state(weights: Sequence[float]) -> Functional:
    """State on C^N with the given weights, copied: a real vector (DomainError), not empty."""
    w = real_if_exact(weights)
    if w.ndim != 1 or np.iscomplexobj(w):
        raise DomainError(f"weights must be a real vector, got shape {w.shape} of {w.dtype}")
    if not w.size:
        raise InvalidAlgebra("algebra needs at least one block")
    algebra = as_built(BlockAlgebra, block_dims=(1,) * w.size)
    return Functional._built(algebra, tuple(np.array(w)[:, None, None]))
