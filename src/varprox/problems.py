"""Experiment generators, data ingestion and regularization-scale helpers.

All generators are pure functions of their arguments and a seed.  Images
load from binary PGM (P5) / PPM (P6), 8-bit, mapped into [0, 1].
"""

import os
from dataclasses import dataclass

import numpy as np

from .groups import GroupStructure, contiguous_groups, group_sq_norms, trivial_groups
from .linops import (BlockExtractOperator, DenseOperator, IdentityOperator,
                     LinearOperator, MaskOperator, fourier_system)

__all__ = [
    "ProblemInstance", "gen_gaussian_instance", "gen_overlap_instance",
    "gen_fourier_instance", "lambda_max", "add_salt_pepper",
    "make_inpainting_mask", "pixel_channel_groups",
    "load_pgm", "save_pgm", "load_ppm", "save_ppm",
]


@dataclass
class ProblemInstance:
    """A generated benchmark problem: operators, observations, ground truth."""

    A: LinearOperator
    L: LinearOperator
    groups: GroupStructure
    y: np.ndarray
    x_true: np.ndarray | None = None
    noise: np.ndarray | None = None
    lam: float | None = None
    seed: int | None = None


def gen_gaussian_instance(m, n, s, T=1, group_size=1, noise_std=0.0, seed=0):
    """Gaussian design with a planted (row-)sparse signal.

    Returns ``y = A x* + noise`` with ``x*`` supported on ``s`` random
    groups (rows when ``T > 1``).  Column normalization keeps the max
    column norm at one, matching the dimension-free constant discussion.
    """
    if s > n:
        raise ValueError("sparsity exceeds dimension")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    norms = np.linalg.norm(M, axis=0)
    norms[norms == 0] = 1.0
    M = M / norms[None, :]
    A = DenseOperator(M)
    gs = trivial_groups(n) if group_size == 1 else contiguous_groups(n, group_size)
    if s % group_size:
        raise ValueError("sparsity must be a multiple of the group size")
    active = rng.choice(gs.n_groups, size=s // group_size, replace=False)
    X = np.zeros((n, T))
    for g in active:
        X[gs.groups[g], :] = rng.standard_normal((gs.sizes[g], T))
    noise = noise_std * rng.standard_normal((m, T)) if noise_std > 0 else np.zeros((m, T))
    Y = M @ X + noise
    if T == 1:
        X, Y, noise = X[:, 0], Y[:, 0], noise[:, 0]
    return ProblemInstance(A=A, L=IdentityOperator(n), groups=gs, y=Y,
                           x_true=X, noise=noise, seed=seed)


# gen_overlap_instance draws block sizes from OVERLAP_MIN_SIZE to
# OVERLAP_MAX_SIZE (at least overlap + 1) and activates this share of them
OVERLAP_MIN_SIZE = 1
OVERLAP_MAX_SIZE = 20
OVERLAP_ACTIVE_FRACTION = 0.05


def gen_overlap_instance(m, n, overlap=5, noise_std=0.0, seed=0):
    """Overlapping-group design with unit-norm columns: consecutive index
    blocks of random sizes sharing ``overlap`` indices with their
    successor."""
    rng = np.random.default_rng(seed)
    groups = []
    start = 0
    while True:
        size = int(rng.integers(OVERLAP_MIN_SIZE, OVERLAP_MAX_SIZE + 1))
        size = max(size, overlap + 1)
        stop = min(start + size, n)
        groups.append(list(range(start, stop)))
        if stop >= n:
            break
        start = stop - overlap
    ogs = GroupStructure(groups, p=n, mode="overlapping")
    M = rng.standard_normal((m, n))
    M /= np.linalg.norm(M, axis=0)[None, :]
    A = DenseOperator(M)
    L = BlockExtractOperator(ogs, n)
    n_active = max(1, int(round(OVERLAP_ACTIVE_FRACTION * len(groups))))
    active = rng.choice(len(groups), size=n_active, replace=False)
    x = np.zeros(n)
    for g in active:
        x[ogs.groups[g]] = rng.standard_normal(ogs.sizes[g])
    noise = noise_std * rng.standard_normal(m) if noise_std > 0 else np.zeros(m)
    y = M @ x + noise
    return ProblemInstance(A=A, L=L, groups=L.lifted_partition(), y=y,
                           x_true=x, noise=noise, seed=seed)


def gen_fourier_instance(cutoff=2, grid=300, spikes=1, lam_frac=0.1, seed=0,
                         amplitude=1.0):
    """Low-pass measurement instance with a planted spike train.

    ``lam`` is set to ``lam_frac`` times the critical value below which the
    zero vector stops being optimal.
    """
    A = fourier_system(cutoff, grid)
    n = A.cols
    rng = np.random.default_rng(seed)
    support = rng.choice(n, size=spikes, replace=False)
    x = np.zeros(n)
    x[support] = amplitude
    y = A.apply(x)
    lam = lam_frac * lambda_max(A, y, flavor="lasso")
    return ProblemInstance(A=A, L=IdentityOperator(n), groups=trivial_groups(n),
                           y=y, x_true=x, lam=lam, seed=seed)


def lambda_max(A, y, flavor="lasso", groups=None):
    """Critical regularization strength: the zero vector solves the
    problem exactly when ``lam >= lambda_max``.

    ``lasso``: ``||A^T y||_inf``; ``group-lasso``: the max of group norms
    of ``A^T y``; ``sqrt-lasso``: ``||A^T y||_inf / (||y|| sqrt(m))``.
    """
    y = np.asarray(y, dtype=float)
    aty = A.adjoint(y)
    if flavor == "lasso":
        return float(np.abs(aty).max())
    if flavor == "group-lasso":
        if groups is None:
            raise ValueError("group-lasso flavor needs groups")
        return float(np.sqrt(group_sq_norms(aty, groups).max()))
    if flavor == "sqrt-lasso":
        ynorm = float(np.linalg.norm(y))
        if ynorm == 0:
            raise ValueError("sqrt-lasso scale undefined for y = 0")
        return float(np.abs(aty).max()) / (ynorm * np.sqrt(A.rows))
    raise ValueError(f"unknown flavor {flavor!r}")


def add_salt_pepper(img, fraction, seed=0):
    """Sets a pixel fraction to 0 or 1 equiprobably, all channels jointly."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    img = np.asarray(img, dtype=float)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    out = img.copy()
    n_corrupt = int(round(fraction * h * w))
    rng = np.random.default_rng(seed)
    idx = rng.choice(h * w, size=n_corrupt, replace=False)
    values = rng.integers(0, 2, size=n_corrupt).astype(float)
    ii, jj = np.unravel_index(idx, (h, w))
    out[ii, jj, :] = values[:, None]
    return out if c > 1 else out[:, :, 0]


def make_inpainting_mask(height, width, keep_fraction, seed=0, channels=1):
    """Mask operator keeping a random pixel subset, identical across
    channels; domain is the flattened (channels, height, width) image."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    hw = height * width
    n_keep = int(np.floor(keep_fraction * hw))
    rng = np.random.default_rng(seed)
    kept = np.sort(rng.choice(hw, size=n_keep, replace=False))
    keep = np.concatenate([kept + t * hw for t in range(channels)])
    return MaskOperator(keep, channels * hw)


def pixel_channel_groups(n_pixels, channels):
    """Loss groups tying each pixel's channels together (layout
    channel-major, matching flattened (channels, h, w) images)."""
    pix = np.arange(n_pixels)
    blocks = [t * n_pixels + pix for t in range(channels)]
    return GroupStructure(list(np.stack(blocks, axis=1)), p=channels * n_pixels)


# --- image and tensor formats -------------------------------------------


def _read_exact(fh, size, what):
    """``size`` bytes of ``fh``; ``ValueError``, before reading, if fewer remain."""
    if os.fstat(fh.fileno()).st_size - fh.tell() < size:
        raise ValueError(f"truncated {what}")
    return fh.read(size)


def _read_pnm(path, magic, channels):
    """8-bit P5/P6 image as floats in [0, 1], shape (height, width, channels)."""
    with open(path, "rb") as fh:
        got = fh.readline().strip()
        if got != magic:
            raise ValueError(f"expected {magic.decode()}, got {got!r}")
        fields = []
        while len(fields) < 3:
            line = fh.readline()
            if not line.endswith(b"\n"):    # header lines end before the payload
                raise ValueError("truncated header")
            text = line.split(b"#", 1)[0]
            fields.extend(int(tok) for tok in text.split())
        width, height, maxval = fields
        if maxval != 255:
            raise ValueError("only 8-bit images supported")
        data = _read_exact(fh, channels * width * height, f"{magic.decode()} payload")
    return np.frombuffer(data, np.uint8).reshape(height, width, channels) / 255.0


def load_pgm(path):
    return _read_pnm(path, b"P5", 1)[:, :, 0]


def save_pgm(path, img):
    img = np.clip(np.asarray(img, dtype=float), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(data.tobytes())


def load_ppm(path):
    return _read_pnm(path, b"P6", 3)


def save_ppm(path, img):
    img = np.clip(np.asarray(img, dtype=float), 0.0, 1.0)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("PPM stores height x width x 3 images")
    data = np.round(img * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(data.tobytes())
