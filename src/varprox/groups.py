"""Group structures, group norms, extension and shrinkage.

A :class:`GroupStructure` is a list of index blocks over ``{0, ..., p-1}``.
In ``partition`` mode the blocks must be disjoint and cover the index set;
``overlapping`` mode allows shared indices.  Overlapping groups are weighted
by the square root of their size, in
:class:`~varprox.linops.BlockExtractOperator`.
"""

import functools

import numpy as np

__all__ = [
    "GroupStructure", "trivial_groups", "contiguous_groups",
    "group_norm_12", "group_sq_norms", "group_dots", "extend",
    "soft_threshold", "group_soft_threshold",
]


class GroupStructure:
    """Index blocks over ``{0, ..., p-1}``, each sorted, none empty and none
    holding an index twice.  ``groups`` is the list of blocks, built on
    first use from ``sizes`` and the blocks' concatenated indices."""

    def __init__(self, groups, p=None, mode="partition"):
        groups = list(groups)
        sizes = np.fromiter(map(len, groups), dtype=int, count=len(groups))
        if not sizes.all():
            raise ValueError("empty group")
        owner = np.repeat(np.arange(sizes.size), sizes)
        flat = np.concatenate(groups).astype(int)
        top = int(flat.max()) + 1
        self.p = top if p is None else int(p)
        if top > self.p:
            raise ValueError("group index out of range")
        if flat.min() < 0:
            raise ValueError("negative group index")
        if mode not in ("partition", "overlapping"):
            raise ValueError(f"unknown mode {mode!r}")
        flat = flat[np.lexsort((flat, owner))]      # each block sorted
        if ((flat[1:] == flat[:-1]) & (owner[1:] == owner[:-1])).any():
            raise ValueError("repeated index in a group")
        self.mode = mode
        self.sizes = sizes
        self.n_groups = sizes.size
        self._indices = flat

        if mode == "partition":
            counts = np.bincount(flat, minlength=self.p)
            if counts.max() > 1:
                raise ValueError("groups overlap in partition mode")
            if not counts.all():
                raise ValueError("partition does not cover the index set")
            self.group_of = np.empty(self.p, dtype=int)
            self.group_of[flat] = owner
        else:
            self.group_of = None

    @functools.cached_property
    def groups(self):
        return np.split(self._indices, np.cumsum(self.sizes)[:-1])

    @property
    def is_trivial(self):
        return (self.mode == "partition" and self.n_groups == self.p
                and bool(np.all(self.group_of == np.arange(self.p))))

    def spans(self):
        """True when the union of the groups covers the full index set."""
        return np.unique(self._indices).size == self.p

    def __len__(self):
        return self.n_groups

    def __repr__(self):
        return (f"GroupStructure(p={self.p}, n_groups={self.n_groups}, "
                f"mode={self.mode!r})")


def trivial_groups(p):
    return GroupStructure(np.arange(p)[:, None], p=p)


def contiguous_groups(p, size):
    if p % size:
        raise ValueError("size must divide p")
    return GroupStructure(np.arange(p).reshape(-1, size), p=p)


def _require_partition(gs):
    if gs.mode != "partition":
        raise ValueError("operation requires a partition group structure")


def group_sq_norms(z, gs):
    """Per-group squared Euclidean norms, ``(||z_g||^2)_g``."""
    _require_partition(gs)
    z = np.asarray(z, dtype=float)
    if z.ndim == 2:
        row = (z * z).sum(axis=1)
    else:
        row = z * z
    return np.bincount(gs.group_of, weights=row, minlength=gs.n_groups)


def group_dots(a, b, gs):
    """Per-group inner products ``(<a_g, b_g>)_g``."""
    _require_partition(gs)
    return np.bincount(gs.group_of, weights=np.asarray(a) * np.asarray(b),
                       minlength=gs.n_groups)


def group_norm_12(z, gs):
    """Sum of per-group Euclidean norms; the l1 norm for trivial groups."""
    return float(np.sqrt(group_sq_norms(z, gs)).sum())


def extend(v, gs):
    """Extension of per-group scalars to the full index set."""
    _require_partition(gs)
    v = np.asarray(v, dtype=float)
    if v.size != gs.n_groups:
        raise ValueError("dimension mismatch in extension")
    return v[gs.group_of]


def _size_blocks(gs):
    """``(ids, cols, first)`` for each group size ``k``: the groups of that
    size, their indices as a G_k-by-k array, and its first index when it
    holds consecutive indices in group order, else None."""
    start = np.cumsum(gs.sizes) - gs.sizes
    for k in np.unique(gs.sizes):
        ids = np.flatnonzero(gs.sizes == k)
        cols = gs._indices[start[ids, None] + np.arange(k)]
        first = int(cols[0, 0])
        in_order = np.array_equal(cols.ravel(),
                                  np.arange(first, first + cols.size))
        yield ids, cols, first if in_order else None


def _group_spectral_norms(A, gs):
    """``||A_g||_2`` for every column block of the operator ``A``: the
    square root of the largest eigenvalue of each small ``A_g^T A_g``,
    batched over 64 groups of one size at a time so the gathered columns
    stay small."""
    Ad = A.to_dense()
    out = np.empty(gs.n_groups)
    for ids, cols, _ in _size_blocks(gs):
        for part in np.array_split(np.arange(ids.size), -(-ids.size // 64)):
            B = Ad[:, cols[part].ravel()].reshape(-1, part.size, cols.shape[1])
            top = np.linalg.eigvalsh(np.einsum("mgi,mgj->gij", B, B))[:, -1]
            out[ids[part]] = np.sqrt(np.maximum(top, 0.0))
    return out


def _group_images(Ad, z, gs, keep):
    """The matrix ``[A_g z_g]`` of the group images of ``z`` under the
    columns of the dense ``Ad``, one column for each group that ``keep``
    marks, in group order.  One ``einsum`` per group size: over a view of
    ``Ad`` when the groups of that size hold consecutive columns in group
    order, its result then compressed to the kept groups, and over the
    gathered columns of the kept groups alone when those are not in order
    or take less room than the view's result, the images of every group
    of that size."""
    n_kept = int(np.count_nonzero(keep))
    rank = np.cumsum(keep) - 1              # each kept group's column
    out = None
    for ids, cols, first in _size_blocks(gs):
        kept = keep[ids]
        if first is None or np.count_nonzero(kept) * cols.shape[1] < ids.size:
            ids, cols, kept = ids[kept], cols[kept], kept[kept]
            block = np.take(Ad, cols, axis=1)
        else:
            block = Ad[:, first:first + cols.size].reshape(-1, *cols.shape)
        images = np.einsum("mgk,gk->mg", block, z[cols])
        if not kept.all():
            images, ids = np.compress(kept, images, axis=1), ids[kept]
        if ids.size == n_kept:
            return images
        if out is None:
            out = np.empty((Ad.shape[0], n_kept))
        out[:, rank[ids]] = images
    return out


def _project_group_ball(xi, gs):
    """Projection onto the unit ball of the dual (max-of-group-norms) norm."""
    if gs.is_trivial:
        return np.clip(xi, -1.0, 1.0)
    scale = 1.0 / np.maximum(np.sqrt(group_sq_norms(xi, gs)), 1.0)
    return xi * scale[gs.group_of]


def soft_threshold(z, tau):
    """Componentwise shrinkage ``sign(z) * max(|z| - tau, 0)``."""
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def group_soft_threshold(z, tau, gs):
    """Blockwise shrinkage: scales each group toward zero by ``tau``.

    Reduces exactly (bitwise) to :func:`soft_threshold` for trivial groups.
    """
    if gs.is_trivial:
        return soft_threshold(z, tau)
    z = np.asarray(z, dtype=float)
    norms = np.sqrt(group_sq_norms(z, gs))
    scale = np.zeros(gs.n_groups)
    nz = norms > 0
    scale[nz] = np.maximum(0.0, 1.0 - tau / norms[nz])
    return z * scale[gs.group_of]
