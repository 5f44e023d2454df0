"""Linear operators used across the solvers.

Concrete kinds: dense matrices, the identity, coordinate masks, 2-D
finite-difference gradients (single- and multi-channel, Neumann boundary),
block extractors for overlapping groups, and real-stacked 1-D partial
Fourier systems.  Operators are immutable after construction;
``apply``/``adjoint`` are reentrant and densification, the sparse form and
the band layout of ``diag(d) + lam A diag(s) A^T`` are memoized.  The
gradient's sparse form and the band layout are built by index arithmetic
on the arrays of a CSR form, with no sparse product: the gradient writes
its CSR arrays directly, and the layout lists the pairs of rows that share
a column.
"""

import numpy as np
import scipy.sparse
from scipy.sparse import csgraph

from .groups import GroupStructure

__all__ = [
    "LinearOperator", "DenseOperator", "IdentityOperator", "MaskOperator",
    "Grad2DOperator", "BlockExtractOperator", "CogramPattern", "dense",
    "identity", "grad2d", "block_extract", "fourier_system",
    "tv_group_structure", "operator_norm",
]


class LinearOperator:
    """A linear map from R^cols to R^rows with an exact adjoint."""

    kind = "abstract"

    def __init__(self, rows, cols):
        self.rows = int(rows)
        self.cols = int(cols)
        self._dense = None

    @property
    def shape(self):
        return (self.rows, self.cols)

    def apply(self, x):
        raise NotImplementedError

    def adjoint(self, y):
        raise NotImplementedError

    def to_dense(self):
        if self._dense is None:
            self._dense = self._densify()
            self._dense.flags.writeable = False
        return self._dense

    def gram(self):
        """Memoized ``A^T A`` (constant across solves on the same operator)."""
        if getattr(self, "_gram", None) is None:
            D = self.to_dense()
            self._gram = D.T @ D
            self._gram.flags.writeable = False
        return self._gram

    def cogram(self):
        """Memoized ``A A^T``."""
        if getattr(self, "_cogram", None) is None:
            D = self.to_dense()
            self._cogram = D @ D.T
            self._cogram.flags.writeable = False
        return self._cogram

    def to_sparse(self):
        """Memoized CSR form, equal to ``to_dense()`` entry for entry."""
        if getattr(self, "_sparse", None) is None:
            self._sparse = self._sparsify()
        return self._sparse

    def cogram_pattern(self):
        """Memoized :class:`CogramPattern` of this operator."""
        if getattr(self, "_cogram_pattern", None) is None:
            self._cogram_pattern = CogramPattern(self.to_sparse())
        return self._cogram_pattern

    def channel_blocks(self):
        """``(C, B)``: this operator is ``C`` copies of ``B`` on the diagonal,
        each acting on its own consecutive slice of the input and output."""
        return 1, self

    def _densify(self):
        eye = np.eye(self.cols)
        return np.column_stack([self.apply(eye[:, j]) for j in range(self.cols)])

    def _sparsify(self):
        return scipy.sparse.csr_array(self.to_dense())

    def _check_input(self, x, length, name):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            if x.shape[0] != length:
                raise ValueError(f"{self.kind}: {name} has {x.shape[0]} rows, "
                                 f"expected {length}")
            return x
        x = x.ravel()
        if x.size != length:
            raise ValueError(f"{self.kind}: {name} has length {x.size}, "
                             f"expected {length}")
        return x

    def __repr__(self):
        return f"<{type(self).__name__} {self.rows}x{self.cols}>"


class DenseOperator(LinearOperator):
    def __init__(self, matrix, kind="dense"):
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("dense operator needs a 2-D matrix")
        super().__init__(*matrix.shape)
        matrix.flags.writeable = False
        self.matrix = matrix
        self.kind = kind
        self._dense = matrix

    def apply(self, x):
        return self.matrix @ self._check_input(x, self.cols, "x")

    def adjoint(self, y):
        return self.matrix.T @ self._check_input(y, self.rows, "y")


class IdentityOperator(LinearOperator):
    kind = "identity"

    def __init__(self, n):
        super().__init__(n, n)

    def apply(self, x):
        return self._check_input(x, self.cols, "x").copy()

    def adjoint(self, y):
        return self._check_input(y, self.rows, "y").copy()

    def _densify(self):
        return np.eye(self.cols)


class MaskOperator(LinearOperator):
    """Selects a fixed subset of coordinates; adjoint scatters with zeros."""

    kind = "mask"

    def __init__(self, keep, n):
        keep = np.unique(np.asarray(keep, dtype=int))
        if keep.size and (keep[0] < 0 or keep[-1] >= n):
            raise ValueError("mask index out of range")
        super().__init__(keep.size, n)
        self.keep = keep

    def apply(self, x):
        return self._check_input(x, self.cols, "x")[self.keep]

    def adjoint(self, y):
        y = self._check_input(y, self.rows, "y")
        out = np.zeros(self.cols)
        out[self.keep] = y
        return out

    def _sparsify(self):      # row i holds a one at column keep[i]
        return scipy.sparse.csr_array(
            (np.ones(self.rows), self.keep, np.arange(self.rows + 1)),
            shape=self.shape)


class Grad2DOperator(LinearOperator):
    """Forward differences on a (channels, height, width) image.

    Neumann boundary: the difference with an out-of-range neighbor is zero,
    so constant images map exactly to zero.  Output layout is channel-major:
    per channel, the differences down the columns (pixel ``(i, j)`` minus
    ``(i + 1, j)``), then along the rows (``(i, j)`` minus ``(i, j + 1)``),
    each in row-major pixel order.  Channels never mix: the operator is
    block diagonal, ``channels`` copies of the memoized one-channel gradient
    (:meth:`channel_blocks`), which lets the ``A = Id`` inner solves factor
    one 2hw-by-2hw channel block.  The sparse form is written directly from
    this layout: two entries, ``+1`` then ``-1``, in each row of a pixel
    with a neighbor below (or to the right), and an empty row on the last
    image row (or column).
    """

    def __init__(self, height, width, channels=1):
        if height < 1 or width < 1 or channels < 1:
            raise ValueError("invalid image dimensions")
        self.height, self.width, self.channels = height, width, channels
        super().__init__(2 * channels * height * width, channels * height * width)
        self.kind = "grad2d" if channels == 1 else "multichannel-grad"

    def apply(self, x):
        c, h, w = self.channels, self.height, self.width
        img = self._check_input(x, self.cols, "x").reshape(c, h, w)
        out = np.zeros((c, 2, h, w))
        out[:, 0, :-1, :] = img[:, :-1, :] - img[:, 1:, :]
        out[:, 1, :, :-1] = img[:, :, :-1] - img[:, :, 1:]
        return out.ravel()

    def adjoint(self, y):
        c, h, w = self.channels, self.height, self.width
        g = self._check_input(y, self.rows, "y").reshape(c, 2, h, w)
        out = np.zeros((c, h, w))
        out[:, :-1, :] += g[:, 0, :-1, :]
        out[:, 1:, :] -= g[:, 0, :-1, :]
        out[:, :, :-1] += g[:, 1, :, :-1]
        out[:, :, 1:] -= g[:, 1, :, :-1]
        return out.ravel()

    def channel_blocks(self):
        if self.channels == 1:
            return 1, self
        if getattr(self, "_channel", None) is None:
            self._channel = Grad2DOperator(self.height, self.width)
        return self.channels, self._channel

    def _sparsify(self):
        # pixel k's rows: +1 at k, -1 at k + w (below) and at k + 1 (right)
        c, h, w = self.channels, self.height, self.width
        hw = h * w
        itype = (np.int32 if 2 * self.rows <= np.iinfo(np.int32).max
                 else np.int64)
        k = np.arange(hw, dtype=itype)
        vert, horiz = k[:hw - w], k[k % w != w - 1]
        counts = np.zeros(2 * hw, dtype=itype)
        counts[vert] = counts[hw + horiz] = 2
        indptr = np.zeros(2 * c * hw + 1, dtype=itype)
        np.cumsum(np.tile(counts, c), out=indptr[1:])
        cols = np.empty((c, vert.size + horiz.size, 2), dtype=itype)
        cols[:, :, 0] = np.concatenate([vert, horiz])
        cols[:, :, 1] = np.concatenate([vert + w, horiz + 1])
        cols += hw * np.arange(c, dtype=itype)[:, None, None]
        data = np.tile([1.0, -1.0], cols.size // 2)
        return scipy.sparse.csr_array((data, cols.reshape(-1), indptr),
                                      shape=self.shape)


class BlockExtractOperator(LinearOperator):
    """Stacks weighted copies of index blocks: ``x -> (w_g * x_{I_g})_g``
    with ``w_g = sqrt(|I_g|)``."""

    kind = "block-extract"

    def __init__(self, groups, n):
        if not isinstance(groups, GroupStructure):
            groups = GroupStructure(groups, p=n, mode="overlapping")
        if groups.p > n:
            raise ValueError("group index out of range")
        super().__init__(int(groups.sizes.sum()), n)
        self.source_groups = groups
        self.block_weights = np.sqrt(groups.sizes.astype(float))
        offs = np.concatenate([[0], np.cumsum(groups.sizes)])
        self.offsets = offs

    def lifted_partition(self):
        """Partition of the stacked output space, one block per group."""
        blocks = [range(self.offsets[g], self.offsets[g + 1])
                  for g in range(len(self.source_groups))]
        return GroupStructure(blocks, p=self.rows)

    def apply(self, x):
        x = self._check_input(x, self.cols, "x")
        parts = [w * x[g] for w, g in
                 zip(self.block_weights, self.source_groups.groups)]
        return np.concatenate(parts)

    def adjoint(self, y):
        y = self._check_input(y, self.rows, "y")
        out = np.zeros(self.cols)
        for w, g, lo, hi in zip(self.block_weights, self.source_groups.groups,
                                self.offsets[:-1], self.offsets[1:]):
            np.add.at(out, g, w * y[lo:hi])
        return out


# Largest band, in entries (kd + 1) * p, that CogramPattern lays out for
# LAPACK's banded Cholesky (2**23 entries, a 64 MB band); a system with a
# wider band is formed from the sparse operator and factored by SuperLU.
# On an h-by-w gradient kd is about 2 min(h, w), so the band's memory grows
# as p kd and its factorization as p kd^2, faster than SuperLU's
# fill-reducing order: on one square channel block the band is the faster
# of the two up to 128 by 128 and the slower from 160 by 160, and it holds
# more memory from 64 by 64 on.  The limit keeps square blocks up to 127 by
# 127 on the band.
BAND_ENTRIES = 2 ** 23


class CogramPattern:
    """Fixed band layout of ``diag(d) + lam * A diag(s) A^T`` for LAPACK's
    banded Cholesky.

    The layout depends only on the sparse ``A`` (p-by-n).  Its pattern is
    that of ``|A| |A|^T``: the pairs of rows that share a column, listed
    from the CSR and CSC index arrays of ``A`` with no sparse product.  Its
    rows are renumbered in reverse Cuthill-McKee order ``perm``
    (``scipy.sparse.csgraph.reverse_cuthill_mckee``), which keeps every
    entry within ``kd`` of the diagonal: on a 2-D gradient ``kd`` is about
    twice the shorter image side.  When the band holds at most
    ``BAND_ENTRIES`` entries (``banded``), ``band`` lays the permuted
    system out for LAPACK ``dpbtrf``: its upper entries are
    ``lam * (coef @ s)``, with row ``q`` of ``coef`` the elementwise
    product ``A_i * A_j`` of the rows of the pair ``i <= j`` stored at
    ``pos[q]``, its columns ascending, plus ``d`` at the positions
    ``diag``, so one assembly costs a sparse matvec and two scatters.  A
    pattern that is not ``banded`` stores only ``kd`` and builds no band
    array.
    """

    def __init__(self, S):
        R = scipy.sparse.csr_array(S, copy=True)
        R.sum_duplicates()
        R.eliminate_zeros()
        (p, n), cols, nnz = R.shape, R.indices, R.nnz
        # the CSC form, whose data is the CSR entry at each position
        csc = scipy.sparse.csr_array(
            (np.arange(nnz, dtype=cols.dtype), cols, R.indptr),
            shape=(p, n)).tocsc()
        rows, colptr = csc.indices, csc.indptr
        # the pattern of |A| |A|^T: row i lists the rows of each column of
        # row i, sorted and without repeats (the order breaks ties by index)
        counts = np.diff(colptr)[cols]
        idx, ends = _ranges(colptr[cols], counts)
        graph = scipy.sparse.csr_array(
            (np.ones(idx.size, dtype=bool), rows[idx], ends[R.indptr]),
            shape=(p, p))
        del counts, idx, ends   # the list with repeats: the largest array
        graph.sum_duplicates()
        perm = csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
        order = np.empty_like(graph.indices, shape=p)
        order[perm] = np.arange(p)
        gap = np.repeat(order, np.diff(graph.indptr))
        gap -= order[graph.indices]
        self.kd = kd = int(np.abs(gap).max(initial=0))
        del graph, gap
        self.banded = (kd + 1) * p <= BAND_ENTRIES
        if not self.banded:
            return
        # each entry (i, k) with the rows j >= i of column k, row by row:
        # the stable sort by (i, j) keeps the columns k of a pair ascending,
        # the order in which its row product A_i * A_j is summed
        at = np.empty_like(csc.data)
        at[csc.data] = np.arange(nnz, dtype=at.dtype)
        counts = colptr[cols + 1] - at
        second, ends = _ranges(at, counts)
        first = np.repeat(np.arange(nnz, dtype=ends.dtype), counts)
        key = np.repeat(np.arange(p, dtype=np.int64) * p,
                        np.diff(ends[R.indptr]))
        key += rows[second]
        srt = np.argsort(key, kind="stable")
        first, second, key = first[srt], second[srt], key[srt]
        start = np.flatnonzero(np.diff(key, prepend=-1))
        self.coef = scipy.sparse.csr_array(
            (R.data[first] * R.data[csc.data[second]], cols[first],
             np.append(start, key.size)), shape=(start.size, n))
        # band entry (lo, hi), lo <= hi, is element (kd + lo - hi, hi) of
        # the Fortran-ordered (kd + 1)-by-p array: flat kd (hi + 1) + lo
        oi, oj = order[key[start] // p], order[key[start] % p]
        self.pos = kd * (np.maximum(oi, oj) + 1) + np.minimum(oi, oj)
        self.diag = kd * (order + 1) + order
        self.perm = perm

    def band(self, s, d, lam):
        """``diag(d) + lam * A diag(s) A^T`` permuted by ``perm``: the
        Fortran-ordered ``(kd + 1)``-by-p upper band of LAPACK, freshly
        allocated so that a factorization may overwrite it."""
        p = self.perm.size
        ab = np.zeros((p, self.kd + 1))     # row q is band column q
        flat = ab.reshape(-1)
        flat[self.pos] = lam * (self.coef @ s)
        flat[self.diag] += d
        return ab.T


def _ranges(starts, counts):
    """``(idx, ends)``: ``idx`` the ranges ``starts[e], ...,
    starts[e] + counts[e] - 1`` end to end, range ``e`` at
    ``idx[ends[e]:ends[e + 1]]``; 32-bit indices where they fit."""
    ends = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ends[1:])
    if ends[-1] <= np.iinfo(np.int32).max:
        ends = ends.astype(np.int32)
    idx = np.repeat(starts - ends[:-1], counts)
    idx += np.arange(ends[-1], dtype=ends.dtype)
    return idx, ends


def fourier_system(cutoff, grid):
    """Real-stacked partial Fourier operator: low-frequency measurements of
    amplitudes on a uniform 1-D grid.

    ``cutoff`` is the frequency band size (band ``-cutoff/2 .. cutoff/2``);
    ``grid`` the number of sample points.  The operator has ``grid`` columns
    and ``2 * (2*floor(cutoff/2)+1)`` rows once the complex rows are stacked
    as real parts then imaginary parts.  Entries of the complex matrix are
    ``exp(2i*pi*theta_k*l) / sqrt(cutoff)`` for grid point
    ``theta_k = k/grid`` and frequency ``l``; deterministic for fixed sizes.
    """
    if cutoff < 1 or grid < 1:
        raise ValueError("cutoff and grid must be >= 1")
    half = cutoff // 2
    freqs = np.arange(-half, half + 1, dtype=float)
    thetas = np.arange(grid, dtype=float) / grid
    phase = 2.0 * np.pi * freqs[:, None] @ thetas[None, :]
    z = np.exp(1j * phase) / cutoff ** 0.5
    return DenseOperator(np.vstack([z.real, z.imag]), kind="partial-fourier-real")


def dense(matrix):
    return DenseOperator(matrix)


def identity(n):
    return IdentityOperator(n)


def grad2d(height, width, channels=1):
    return Grad2DOperator(height, width, channels)


def block_extract(groups, n):
    return BlockExtractOperator(groups, n)


def tv_group_structure(height, width, channels=1):
    """Pixel groups matching the Grad2D output layout.

    Group ``(i, j)`` collects the horizontal and vertical differences of
    pixel ``(i, j)`` across all channels (size ``2 * channels``), inducing
    the isotropic multichannel total-variation norm.
    """
    hw = height * width
    pix = np.arange(hw)
    blocks = np.empty((hw, 2 * channels), dtype=int)
    for t in range(channels):
        blocks[:, 2 * t] = (2 * t) * hw + pix
        blocks[:, 2 * t + 1] = (2 * t + 1) * hw + pix
    return GroupStructure(list(blocks), p=2 * channels * hw)


# operator_norm runs this many power iterations from a start drawn with
# this seed
POWER_ITERS = 50
POWER_SEED = 0


def operator_norm(op):
    """Spectral norm estimate by ``POWER_ITERS`` power iterations on
    ``A^T A``."""
    rng = np.random.default_rng(POWER_SEED)
    x = rng.standard_normal(op.cols)
    x /= np.linalg.norm(x)
    val = 0.0
    for _ in range(POWER_ITERS):
        y = op.adjoint(op.apply(x))
        nrm = np.linalg.norm(y)
        if nrm == 0:
            return 0.0
        val = nrm
        x = y / nrm
    return float(np.sqrt(val))
