"""Dense Hermitian linear-algebra helpers.

Every eigendecomposition in the package goes through eigh or eigvalsh
here, so that the choice of LAPACK solver and the scale-relative
tolerances are applied uniformly.  Both take a matrix summand by summand
at its direct-sum pattern (diagonal_blocks, the one direct-sum rule),
one stacked LAPACK call per summand side, so a diagonal matrix costs one
call on a stack of 1 x 1 summands and a sort, and a one-summand matrix
one call on itself; kron_eigh builds a Kronecker product's spectrum from
its factors' with none.  Every spectrum leaves here read-only, and a split
matrix's as its eigenvalues and layout alone: its n x n eigenvector
matrix is assembled on the first read of Spectrum.v.  Callers pass
exactly Hermitian matrices: hermitized once where a matrix comes from a
product or from outside, as is where it is Hermitian by construction.  Every
matrix function is taken from a spectrum by spectral_apply, and every
power (root, inverse, flow unitary) by power, both summand by summand
(Spectrum.layout, never v): one stacked product per size class, so a diagonal
matrix's root is its diagonal's root in a zero matrix.  The transition amplitude
and the fidelity's trace norm come from the pair of spectra, with no root formed:
overlap_amplitude and overlap_trace_norm read the overlap of the two eigenbases
from the two layouts.  real_if_exact is the one
array rule, and built stores by it: an array built here directly, a
caller's through hermitian_part (Hermitian) or frozen, which read it.
The solvers pick by it, once per matrix, and every other helper here
keeps the dtype it is given.  No other module compares a value with a
tolerance: hermitian_part and is_psd apply the slack, close the num.
Numbers and sequences have their readers in config.
"""

from __future__ import annotations

import numpy as np

from .config import rank_cut, tolerances
from .errors import NotFaithful, NotPositive, ShapeError, SolverFailed


class Spectrum:
    """The spectrum of a Hermitian matrix: its eigenvalues w, ascending, and its layout.

    layout holds, per size class of the matrix's summands (one side),
    (rows, vs, cols): rows[j] the rows of summand j, any index set (a
    Kronecker product's interleave, kron_eigh), vs[j] its local
    eigenvectors and cols[j] the columns of v, and entries of w, that
    hold them.  Every spectrum carries one: a one-summand matrix's is its
    one class, of its one summand.  v, the n x n matrix of all the
    eigenvectors, is that summand's own array; a split matrix's is
    assembled from the layout on its first read, exactly 0 outside each
    summand, and kept, read-only and shared with every spectrum made from
    this one by with_values.  w, v = spec unpacks both.
    """

    __slots__ = ("w", "layout", "_v")

    def __init__(self, w: np.ndarray, layout, v: list):
        """w, made read-only, its layout and v, a list of one item: v once known, else None."""
        w.setflags(write=False)
        self.w, self.layout, self._v = w, layout, v

    @classmethod
    def of(cls, w: np.ndarray, v: np.ndarray) -> "Spectrum":
        """The spectrum (w, v) of a one-summand matrix, its layout one class of one summand; w and v
        are made read-only, with no copy."""
        v.setflags(write=False)
        whole = np.arange(len(w))[None]
        return cls(w, ((whole, v[None], whole),), [v])

    def with_values(self, w: np.ndarray) -> "Spectrum":
        """The spectrum w, made read-only, on this one's eigenvectors: its layout and its v."""
        return type(self)(w, self.layout, self._v)

    @property
    def v(self) -> np.ndarray:
        """The n x n eigenvectors, column j for w[j]: assembled on the first read, then kept."""
        if self._v[0] is None:
            v = np.zeros((len(self.w),) * 2, dtype=self.layout[0][1].dtype)
            for rows, vs, cols in self.layout:
                v[rows[:, :, None], cols[:, None, :]] = vs
            v.setflags(write=False)
            self._v[0] = v
        return self._v[0]

    def __iter__(self):
        return iter((self.w, self.v))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a*) / 2, halved before the sum so no finite a overflows;
    a stack of matrices is hermitized matrix by matrix."""
    return 0.5 * a + 0.5 * a.conj().swapaxes(-1, -2)


def real_if_exact(a) -> np.ndarray:
    """The one array rule: a as float64 when no entry has a nonzero imaginary part, else complex128.

    Entries must be integers, reals or complex numbers: a ragged list,
    strings, bools and objects are ShapeError.  Copies only to change the
    dtype; an exactly real complex array gives its real part, a view.
    Every array is stored by this rule, through built, and eigh and
    eigvalsh pick their LAPACK solver by it.
    """
    try:
        a = np.asarray(a)
    except ValueError as exc:  # a ragged list
        raise ShapeError(f"not an array: {exc}") from exc
    if a.dtype.kind not in "iufc":
        raise ShapeError(f"array of dtype {a.dtype}, expected numbers")
    if a.dtype.kind == "c":
        a = a.astype(complex, copy=False)
        return a if a.imag.any() else a.real
    return a.astype(float, copy=False)


def built(a: np.ndarray) -> np.ndarray:
    """The one way an array is stored: real_if_exact(a), read-only, with no copy."""
    a = real_if_exact(a)
    a.setflags(write=False)
    return a


def eigh(h: np.ndarray) -> Spectrum:
    """Eigendecomposition (w, v) of a Hermitian matrix, eigenvalues ascending, by _summandwise."""
    return _summandwise("eigh", h)


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, by _summandwise."""
    return _summandwise("eigvalsh", h)


def _summandwise(name: str, h: np.ndarray):
    """numpy.linalg.<name> of the Hermitian h, summand by summand at its direct-sum pattern.

    h is read by real_if_exact, which picks the solver for the whole
    matrix: the real symmetric one for float64, the complex Hermitian one
    for complex128, whatever the imaginary part of a summand.  A
    one-summand h (diagonal_blocks) is handed to LAPACK as it is, and its
    (w, v) are LAPACK's own arrays.  A split h's summands of one side go
    to LAPACK in one stacked call; numpy runs a stack matrix by matrix, so
    each summand gets the bits of its own call.  Their eigenvalues are
    sorted ascending (a stable sort, so ties keep summand order) and their
    Spectrum is the layout alone: no n x n array is made until its v is read.
    """
    h = real_if_exact(h)
    bounds = _summand_bounds(h)
    if len(bounds) == 2:
        got = _lapack(name, h)
        return Spectrum.of(*got) if name == "eigh" else got
    starts, sides = bounds[:-1], np.diff(bounds)
    classes, first = np.unique(sides, return_index=True)
    w, solved = np.empty(len(h)), []  # solved: (rows, vectors), rows[j] indexing summand j
    for side in classes[np.argsort(first)].tolist():  # in the order the sides first appear
        rows = starts[sides == side][:, None] + np.arange(side)
        got = _lapack(name, h[rows[:, :, None], rows[:, None, :]])
        if name == "eigh":
            got, vs = got
            solved.append((rows, vs))
        w[rows] = got
    return _sorted(w, solved) if name == "eigh" else w[np.argsort(w, kind="stable")]


def _sorted(w: np.ndarray, solved: list) -> Spectrum:
    """The spectrum of the eigenvalues w, each at a row of its summand, and of the classes
    solved, (rows, vectors) per summand side: w sorted ascending, by one stable sort, so ties
    keep row order.  A one-summand spectrum is Spectrum.of, its vectors' columns in w's order."""
    order = np.argsort(w, kind="stable")
    if len(solved) == 1 and len(solved[0][0]) == 1:
        return Spectrum.of(w[order], solved[0][1][0][:, order])
    column = np.empty(len(w), dtype=int)
    column[order] = np.arange(len(w))
    return Spectrum(w[order], tuple((rows, vs, column[rows]) for rows, vs in solved), [None])


def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Kronecker products kron(x_s, y_t) of two stacks of square matrices, s major, t minor.

    They are filled in place, one multiply per entry of y's matrices, each
    entry the one product np.kron takes.
    """
    (kx, a, _), (ky, b, _) = x.shape, y.shape
    out = np.empty((kx, ky, a, b, a, b), dtype=np.result_type(x, y))
    for p in range(b):
        for q in range(b):
            np.multiply(x[:, None], y[None, :, p, q, None, None], out=out[:, :, :, p, :, q])
    return out.reshape(kx * ky, a * b, a * b)


def kron_eigh(specs) -> Spectrum:
    """The spectrum of kron(A_1, ..., A_N) from its factors' spectra, with no solver call.

    A summand of the product is a tuple of factor summands: folding in a
    factor of side m, row i of the product so far and row j of the factor
    give row i * m + j, so its rows interleave.  Its eigenvectors are the
    Kronecker products of the factors' local ones, one stack per side.  Its
    eigenvalues, each at a row of its summand as eigh places a split
    matrix's, are the Kronecker product of the factors' so placed, folded
    left to right as product_state multiplies the density: a diagonal
    product's eigenvalues are its diagonal bit for bit.  They are sorted
    once, by _sorted, as eigh sorts a split matrix's.
    """
    w, classes = np.ones(1), {1: (np.zeros((1, 1), dtype=int), np.ones((1, 1, 1)))}
    for spec in specs:
        m, placed, out = len(spec.w), np.empty(len(spec.w)), {}
        for rows_b, vs_b, cols_b in spec.layout:
            placed[rows_b] = spec.w[cols_b]
            for rows_a, vs_a in classes.values():
                k, side = len(rows_a) * len(rows_b), rows_a.shape[1] * rows_b.shape[1]
                rows = rows_a[:, None, :, None] * m + rows_b[None, :, None, :]
                out.setdefault(side, []).append((rows.reshape(k, side), kron(vs_a, vs_b)))
        w = np.multiply.outer(w, placed).ravel()
        classes = {
            side: parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
            for side, parts in out.items()
        }
    return _sorted(w, list(classes.values()))


def _lapack(name: str, a: np.ndarray, **kwargs):
    """numpy.linalg.<name>(a), the one solver hook; LAPACK's failure to converge is SolverFailed
    (a try costs nothing until it raises, where a finiteness scan costs every call)."""
    try:
        return getattr(np.linalg, name)(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailed(f"{name} of a {a.shape} matrix: {exc}") from exc


def hermitian_part(
    a, what: str = "matrix", error: type[Exception] = NotPositive, n: int | None = None
) -> np.ndarray:
    """The one constructor of stored Hermitian matrices: read-only hermitize(a).

    a is read by real_if_exact and must be square, of side n when n is
    given (ShapeError), and pass max|a - a*| <= tolerances().psd(max|a|)
    (else error; NaN fails).  a is halved first, so no finite a overflows:
    h = a / 2 and h* serve both the check, |h - h*| against half the slack,
    and the Hermitian part h + h*, a new array bit-identical to hermitize(a),
    stored by built, so a part whose imaginary entries cancel is float64.
    """
    a = real_if_exact(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or n not in (None, a.shape[0]):
        side = "square" if n is None else f"({n}, {n})"
        raise ShapeError(f"{what} has shape {a.shape}, expected {side}")
    half = 0.5 * a
    hh, scale = half.conj().T, float(np.max(np.abs(a), initial=0.0))
    if not float(np.max(np.abs(half - hh), initial=0.0)) <= 0.5 * tolerances().psd(scale):
        raise error(f"{what} is not Hermitian within tolerance")
    return built(half + hh)


def close(gap) -> bool:
    """The one closeness test of an identity: max|gap| <= tolerances().num.

    NaN fails, and an empty gap passes.
    """
    return not np.size(gap) or float(np.max(np.abs(gap))) <= tolerances().num


def frozen(
    a, shape: tuple[int, ...], what: str = "matrix", error: type[Exception] = ShapeError
) -> np.ndarray:
    """The one constructor of other stored arrays: built of a copy of real_if_exact(a).

    Raises error unless the copy has the given shape.
    """
    out = np.array(real_if_exact(a))
    if out.shape != shape:
        raise error(f"{what} has shape {out.shape}, expected {shape}")
    return built(out)


def is_psd(w: np.ndarray) -> bool:
    """The one positivity test: no eigenvalue in w falls below -tolerances().psd(max|w|)."""
    return not w.size or float(np.min(w)) >= -tolerances().psd(float(np.max(np.abs(w))))


def check_psd(w: np.ndarray, what: str = "matrix") -> None:
    """Raise NotPositive unless is_psd(w) for the eigenvalues w."""
    if not is_psd(w):
        raise NotPositive(f"{what} is not positive semidefinite: eigenvalue {np.min(w):.3e}")


def spectral_apply(spec: Spectrum, f) -> np.ndarray:
    """The matrix function v f(w) v* of the Hermitian matrix with spectrum (w, v), by _apply."""
    return _apply(spec, f, lambda a: a)


def _apply(spec: Spectrum, f, tidy) -> np.ndarray:
    """v f(w) v* summand by summand, each summand's product passed through tidy.

    Each size class (rows, vs, cols) of spec.layout is one stacked
    product tidy((vs * f(w)[cols]) @ vs*), written at its rows into a zero
    matrix of the products' dtype, that of (v * f(w)) @ v*; a 1 x 1
    summand's is f(w), on the diagonal, its eigenvector being 1.  A
    one-summand spectrum is a stack of one, which numpy multiplies as the
    one matrix it holds, so its product is the dense v f(w) v* bit for
    bit, and is the matrix.  Only w and the layout are read, never v.
    """
    fw, n, layout = f(spec.w), len(spec.w), spec.layout
    local = [tidy((vs * fw[cols][:, None, :]) @ vs.conj().swapaxes(1, 2)) for _, vs, cols in layout]
    if local[0].shape[1] == n:  # one summand of side n
        return local[0][0]
    out = np.zeros((n, n), dtype=np.result_type(*local))
    for (rows, _, _), part in zip(layout, local):
        out[rows[:, :, None], rows[:, None, :]] = part
    return out


def in_range(w: np.ndarray) -> np.ndarray:
    """The one rank rule: the mask of eigenvalues in one block's spectrum w that count.

    An eigenvalue counts when it exceeds rank_cut(len, max|w|), on the
    block's own scale; the rest, negative roundoff included, are zero.  A
    stack w of spectra is ranked row by row, each on its own scale.
    """
    return w > rank_cut(w.shape[-1], np.abs(w).max(-1, keepdims=True, initial=0.0))


def diagonal_blocks(*mats: np.ndarray) -> list[slice]:
    """The one direct-sum rule: the contiguous diagonal blocks of the matrices' joint pattern.

    A block ends after k where every m[:k+1, k+1:] is exactly 0, with no
    tolerance.  There is always one block at least, empty for side 0.  A
    nonzero corner m[0, n-1] couples row 0 to the last column, so no prefix
    splits: one block, found before the O(n^2) scan.
    """
    bounds = _summand_bounds(*mats).tolist()
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _summand_bounds(*mats: np.ndarray) -> np.ndarray:
    """diagonal_blocks' blocks as the int64 array of their bounds, 0 first and n last.

    The scan holds the matrices' joint nonzero pattern, n^2 bools, and
    nothing else of size n^2.
    """
    n = len(mats[0])
    if n == 0 or any(m[0, -1] != 0 for m in mats):
        return np.array([0, n])
    nonzero = mats[0] != 0
    for m in mats[1:]:
        nonzero |= m != 0
    # last[k]: the last column with a nonzero entry in row k, 0 for a zero row
    last = np.where(nonzero.any(axis=1), n - 1 - nonzero[:, ::-1].argmax(axis=1), 0)
    # reach[k]: the last column with a nonzero entry in rows 0..k
    reach = np.maximum.accumulate(last)
    return np.concatenate([[0], np.flatnonzero(reach[:-1] < np.arange(1, n)) + 1, [n]])


def power(spec: Spectrum, z: complex) -> np.ndarray:
    """h^z from the spectrum (w, v) of h: the one power of a held spectrum.

    For a real z >= 0, eigenvalues outside in_range(w) count as 0, so
    exact-rank-deficient input stays exactly rank deficient (fractional
    powers would otherwise amplify eigenvalue noise to its root): they map
    to 0 for z > 0 and to 1 at z = 0, so h^0 is exactly np.eye.  Any other
    z needs every eigenvalue in range, else NotFaithful.  A real z (an
    imaginary part of 0 counts as real) gives the power in real arithmetic,
    hermitized summand by summand, and a non-real z the complex power; both
    by _apply, so a diagonal h^z is its diagonal's power in a zero matrix.
    A power of an eigenvalue past the float range (a huge |z|, or a tiny
    eigenvalue to a negative power) is SolverFailed, where it is taken.
    """
    w = spec.w
    z, keep = complex(z), in_range(w)
    if (z.imag != 0.0 or z.real < 0.0) and not keep.all():
        raise NotFaithful(f"power {z} of a singular spectrum")
    if z == 0.0:
        return np.eye(len(w))
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        if z.imag != 0.0:
            fw = np.power(w.astype(complex), z)
        else:
            fw = np.power(np.where(keep, w, 0.0), z.real)
    if not np.isfinite(fw).all():
        raise SolverFailed(f"power {z} of a spectrum is not finite: finite input too large")
    if z.imag != 0.0:
        return spectral_apply(spec, lambda _: fw)
    return _apply(spec, lambda _: fw, hermitize)


def _roots(w: np.ndarray) -> np.ndarray:
    """The square roots of the eigenvalues w as power(spec, 0.5) takes them: those outside
    in_range(w) count as 0."""
    return np.power(np.where(in_range(w), w, 0.0), 0.5)


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 entrywise, in real arithmetic."""
    return x * x if x.dtype.kind == "f" else x.real * x.real + x.imag * x.imag


def _diagonal(spec: Spectrum) -> bool:
    """True when every summand of spec's matrix is 1 x 1."""
    return all(rows.shape[1] == 1 for rows, _, _ in spec.layout)


def _one_summand(spec: Spectrum) -> bool:
    """True when spec's matrix is one summand, its layout Spectrum.of's."""
    return len(spec.layout) == len(spec.layout[0][0]) == 1


def _root_diagonal(spec: Spectrum, r: np.ndarray) -> np.ndarray:
    """The diagonal of v diag(r) v*, v spec's eigenvectors, from its layout: sum_q r[cols] |vs|^2
    per summand, so r itself for a 1 x 1 matrix, whose eigenvector is 1, and over the columns
    where r is nonzero for any other one-summand spectrum."""
    if len(r) == 1:
        return r
    if _one_summand(spec):
        keep = r != 0.0
        return _abs2(spec.layout[0][1][0][:, keep]) @ r[keep]
    out = np.empty(len(r))
    for rows, vs, cols in spec.layout:
        out[rows] = (_abs2(vs) @ r[cols][:, :, None])[:, :, 0]
    return out


def _places(spec: Spectrum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of spec's matrix, from its layout: the class that holds it, its summand in that
    class and its place in that summand."""
    where = np.empty((3, len(spec.w)), dtype=np.intp)
    for c, (rows, _, _) in enumerate(spec.layout):
        where[0, rows] = c
        where[1, rows] = np.arange(len(rows))[:, None]
        where[2, rows] = np.arange(rows.shape[1])
    return where[0], where[1], where[2]


def _overlap(a: Spectrum, b: Spectrum):
    """The blocks of W = U* V that can be nonzero, U and V the eigenvectors of a and b, read
    from their layouts alone: per stack, (ca, cb, w), w[g] the overlap of the columns ca[g]
    of U with the columns cb[g] of V.

    Two one-summand spectra give one thin block, the columns in_range keeps
    on either side.  Else a summand s of a and a summand t of b meet on
    the rows they share, and block (s, t) of W is U_s* V_t over those rows:
    one stacked product per pair of classes and count of shared rows.
    """
    if _one_summand(a) and _one_summand(b):
        keep_a, keep_b = in_range(a.w), in_range(b.w)
        u, v = a.layout[0][1][0][:, keep_a], b.layout[0][1][0][:, keep_b]
        yield np.flatnonzero(keep_a)[None], np.flatnonzero(keep_b)[None], (u.conj().T @ v)[None]
        return
    (class_a, sa, pa), (class_b, sb, pb) = _places(a), _places(b)
    for i, (_, us, cols_a) in enumerate(a.layout):
        for j, (_, vs, cols_b) in enumerate(b.layout):
            rows = np.flatnonzero((class_a == i) & (class_b == j))
            key = sa[rows] * len(vs) + sb[rows]
            order = np.argsort(key, kind="stable")
            rows, key = rows[order], key[order]
            starts = np.flatnonzero(np.diff(key, prepend=-1))
            counts = np.diff(starts, append=len(key))
            for c in np.unique(counts).tolist():
                shared = rows[starts[counts == c][:, None] + np.arange(c)]
                s, t = sa[shared[:, 0]], sb[shared[:, 0]]
                w = us[s[:, None], pa[shared]].conj().swapaxes(1, 2) @ vs[t[:, None], pb[shared]]
                yield cols_a[s], cols_b[t], w


def overlap_amplitude(a: Spectrum, b: Spectrum) -> float:
    """Tr(A^{1/2} B^{1/2}) from the spectra (l, U) of A and (m, V) of B, with no root formed.

    With W = U* V it is sum_ij sqrt(l_i) sqrt(m_j) |W_ij|^2, the classical
    affinity of the Nussbaum-Szkola pair, each eigenvalue cut as power cuts
    it.  When either side is diagonal, it is sum_p A^{1/2}_pp B^{1/2}_pp,
    the diagonals from the two layouts (_root_diagonal); else the sum over
    _overlap's blocks of W.  Only w and the layouts are read, never v.
    Every term is nonnegative, and a sum past the float range is inf,
    silently.
    """
    if _diagonal(b):
        a, b = b, a
    ra, rb = _roots(a.w), _roots(b.w)
    with np.errstate(over="ignore"):
        if _diagonal(a):
            return float(np.sum(_root_diagonal(a, ra) * _root_diagonal(b, rb)))
        total = 0.0
        for ca, cb, w in _overlap(a, b):
            total += float(np.sum(ra[ca][:, None, :] @ _abs2(w) @ rb[cb][:, :, None]))
        return total


def overlap_trace_norm(a: Spectrum, b: Spectrum) -> float:
    """||A^{1/2} B^{1/2}||_1 from the spectra (l, U) of A and (m, V) of B: the trace norm of
    diag(sqrt l) W diag(sqrt m), W = U* V, of side n.  Two one-summand spectra give it as one
    product of the scaled eigenvectors, (U diag(sqrt l))* V diag(sqrt m); else it is filled
    from _overlap's blocks."""
    ra, rb = _roots(a.w), _roots(b.w)
    if _one_summand(a) and _one_summand(b):
        return trace_norm((a.layout[0][1][0] * ra).conj().T @ (b.layout[0][1][0] * rb))
    dtype = np.result_type(a.layout[0][1], b.layout[0][1])
    m = np.zeros((len(ra), len(rb)), dtype=dtype)
    for ca, cb, w in _overlap(a, b):
        m[ca[:, :, None], cb[:, None, :]] = ra[ca][:, :, None] * w * rb[cb][:, None, :]
    return trace_norm(m)


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Unique PSD square root of h, read by hermitian_part; NotPositive unless h is PSD."""
    spec = eigh(hermitian_part(h))
    check_psd(spec.w)
    return power(spec, 0.5)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input the sum of |eigenvalues|.  A sum past the
    float range is inf, silently; an empty matrix has none, and norm 0."""
    s = _lapack("svd", a, compute_uv=False)
    with np.errstate(over="ignore"):
        return float(np.sum(s))
