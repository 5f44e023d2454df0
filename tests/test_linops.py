import numpy as np
import pytest

from varprox import linops
from varprox.groups import GroupStructure
from varprox.linops import (MaskOperator, block_extract, dense,
                            fourier_system, grad2d, identity,
                            tv_group_structure)


def _all_kinds(rng):
    ogs = GroupStructure([[0, 1, 2], [2, 3, 4], [4, 5, 6, 7]], p=8,
                         mode="overlapping")
    return [
        dense(rng.standard_normal((7, 5))),
        identity(6),
        MaskOperator([1, 3, 4], 8),
        grad2d(4, 5),
        grad2d(3, 4, channels=3),
        block_extract(ogs, 8),
        fourier_system(4, 12),
    ]


def _adjoint_check(op, rng, n_pairs=100, tol=1e-10):
    norm_est = 1.0
    for _ in range(5):
        z = rng.standard_normal(op.cols)
        norm_est = max(norm_est, np.linalg.norm(op.apply(z)) /
                       max(np.linalg.norm(z), 1e-300))
    for _ in range(n_pairs):
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        lhs = op.apply(x) @ y
        rhs = x @ op.adjoint(y)
        bound = tol * np.linalg.norm(x) * np.linalg.norm(y) * norm_est
        assert abs(lhs - rhs) <= bound


def test_identity_examples():
    op = identity(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(op.apply(x), x)
    assert np.array_equal(op.adjoint(x), x)


def test_grad2d_horizontal_example():
    op = grad2d(2, 2)
    out = op.apply(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(out[:4], [-2.0, -2.0, 0.0, 0.0])   # row differences


def test_grad2d_constant_image_is_zero():
    op = grad2d(5, 7, channels=2)
    out = op.apply(np.full(op.cols, 3.21))
    assert np.all(out == 0.0)
    assert op.rows == 2 * 2 * 5 * 7


def test_mask_examples():
    op = MaskOperator([0, 2], 4)
    assert np.array_equal(op.apply(np.array([5.0, 6.0, 7.0, 8.0])), [5.0, 7.0])
    assert np.array_equal(op.adjoint(np.array([5.0, 7.0])), [5.0, 0.0, 7.0, 0.0])


def test_dense_adjoint_example():
    op = dense([[3.0, 4.0]])
    assert np.array_equal(op.adjoint(np.array([5.0])), [15.0, 20.0])


def test_dimension_mismatch_errors():
    op = dense([[3.0, 4.0]])
    with pytest.raises(ValueError):
        op.apply(np.ones(3))
    with pytest.raises(ValueError):
        op.adjoint(np.ones(2))


def test_block_extract_example():
    ogs = GroupStructure([[0, 1], [1, 2]], p=3, mode="overlapping")
    op = block_extract(ogs, 3)
    out = op.apply(np.array([1.0, 2.0, 3.0]))
    r2 = np.sqrt(2.0)
    assert np.allclose(out, [r2 * 1, r2 * 2, r2 * 2, r2 * 3])


def test_block_extract_trivial_groups_is_identity():
    # singleton groups have weight sqrt(1) = 1
    ogs = GroupStructure([[i] for i in range(4)], p=4, mode="overlapping")
    op = block_extract(ogs, 4)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(op.apply(x), x)


def test_block_extract_adjoint_identity(rng):
    ogs = GroupStructure([[0, 1, 2], [2, 3], [3, 4, 5]], p=6, mode="overlapping")
    op = block_extract(ogs, 6)
    for _ in range(20):
        x = rng.standard_normal(6)
        y = rng.standard_normal(op.rows)
        assert abs(op.apply(x) @ y - x @ op.adjoint(y)) <= 1e-12 * (
            np.linalg.norm(x) * np.linalg.norm(y) * 3)


def test_fourier_theta_zero_column():
    A = fourier_system(2, 4)
    col = A.to_dense()[:, 0]          # grid point theta = 0
    assert np.allclose(col[:3], 1.0 / np.sqrt(2.0))    # real parts
    assert np.allclose(col[3:], 0.0)                   # imaginary parts


def test_fourier_entry_modulus():
    A = fourier_system(4, 17).to_dense()
    nfreq = A.shape[0] // 2
    mods = np.sqrt(A[:nfreq] ** 2 + A[nfreq:] ** 2)
    assert np.allclose(mods, 4 ** -0.5, atol=1e-14)


def test_fourier_gram_is_toeplitz():
    A = fourier_system(64, 300)
    G = A.gram()
    for off in (0, 1, 5, 50):
        d = np.diagonal(G, offset=off)
        assert np.abs(d - d[0]).max() < 1e-10


def test_fourier_deterministic():
    A1 = fourier_system(6, 50).to_dense()
    A2 = fourier_system(6, 50).to_dense()
    assert np.array_equal(A1, A2)


@pytest.mark.parametrize("cutoff, grid", [(0, 3), (3, 0)])
def test_fourier_rejects_an_empty_band_or_grid(cutoff, grid):
    with pytest.raises(ValueError, match="cutoff and grid must be >= 1"):
        fourier_system(cutoff, grid)


def test_adjoint_consistency_all_kinds(rng):
    for op in _all_kinds(rng):
        _adjoint_check(op, rng)


# image shapes (height, width) whose index arithmetic has edge cases: one
# pixel, one row, one column, and interior pixels
GRAD_SHAPES = [(1, 1), (1, 9), (9, 1), (7, 5), (12, 12), (16, 16)]


def test_to_sparse_equals_to_dense(rng):
    grads = [grad2d(h, w, channels=c) for h, w in
             GRAD_SHAPES + [(1, 4), (4, 1), (3, 5), (3, 2)] for c in (1, 3)]
    masks = [MaskOperator(keep, n) for keep, n in
             (([], 5), (range(6), 6), ([7, 2, 2, 0], 9))]
    for op in _all_kinds(rng) + grads + masks:
        S = op.to_sparse()
        assert S.shape == op.shape and S.format == "csr"
        if isinstance(op, (MaskOperator, linops.Grad2DOperator)):
            # built from indices, not densified, and storing no zero
            assert op._dense is None and S.has_canonical_format
            assert S.data.all()
        assert np.array_equal(S.toarray(), op.to_dense()), op
        assert op.to_sparse() is S                     # memoized


def _unband(pattern, ab):
    """The p-by-p matrix whose upper band in the order ``pattern.perm`` is
    the LAPACK band ``ab``, scattered back to the original order."""
    kd, p = pattern.kd, pattern.perm.size
    M = np.zeros((p, p))
    for j in range(p):
        for i in range(max(0, j - kd), j + 1):
            M[i, j] = M[j, i] = ab[kd + i - j, j]
    out = np.empty_like(M)
    out[np.ix_(pattern.perm, pattern.perm)] = M
    return out


def test_cogram_pattern_assembles_weighted_cogram(rng):
    import scipy.sparse
    # a CSR that holds a duplicate entry and an explicitly stored zero
    raw = scipy.sparse.csr_array(
        ([1.0, 2.0, 0.0, 3.0, -1.0, 0.5], [0, 0, 1, 2, 1, 0], [0, 3, 5, 6]),
        shape=(3, 3))
    for op in (grad2d(4, 3, channels=3), grad2d(1, 1), MaskOperator([0, 2], 4),
               dense(rng.standard_normal((5, 3))), raw):
        if op is raw:
            D, P = raw.toarray(), linops.CogramPattern(raw)
        else:
            D, P = op.to_dense(), op.cogram_pattern()
            assert op.cogram_pattern() is P
        s = rng.uniform(0.5, 1.5, D.shape[1])
        d = rng.uniform(0.0, 1.0, D.shape[0])
        ab = P.band(s, d, 0.7)
        assert ab.shape == (P.kd + 1, D.shape[0]) and ab.flags.f_contiguous
        assert np.allclose(_unband(P, ab), np.diag(d) + 0.7 * (D * s) @ D.T,
                           rtol=0, atol=1e-14)


def _product_layout(S):
    """The band layout as the sparse products build it: the pattern of
    ``|S| |S|^T`` in reverse Cuthill-McKee order, and the row products
    ``S_i * S_j`` of its entries on and above the diagonal of that order.
    Returns ``(kd, banded, perm, band)``, ``band(s, d, lam)`` laid out as
    ``CogramPattern.band`` lays it out, or None past ``BAND_ENTRIES``."""
    import scipy.sparse
    from scipy.sparse import csgraph
    S = scipy.sparse.csr_array(S)
    p = S.shape[0]
    graph = abs(S)
    graph = graph @ graph.T
    graph.sort_indices()
    perm = csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
    i = np.repeat(np.arange(p), np.diff(graph.indptr))
    j = graph.indices
    order = np.empty(p, dtype=np.int64)
    order[perm] = np.arange(p)
    oi, oj = order[i], order[j]
    kd = int(np.abs(oi - oj).max(initial=0))
    banded = (kd + 1) * p <= linops.BAND_ENTRIES
    if not banded:
        return kd, banded, perm, None
    upper = oi <= oj
    pos = (kd + oi - oj + (kd + 1) * oj)[upper]
    coef = S[i[upper]].multiply(S[j[upper]])

    def band(s, d, lam):
        ab = np.zeros((p, kd + 1))
        flat = ab.reshape(-1)
        flat[pos] = lam * (coef @ s)
        flat[kd + (kd + 1) * order] += d
        return ab.T
    return kd, banded, perm, band


def _layout_operators():
    import scipy.sparse
    rng = np.random.default_rng(7)
    grads = [pytest.param(grad2d(h, w, channels=c).to_sparse(),
                          id=f"grad-{h}x{w}x{c}")
             for h, w in GRAD_SHAPES for c in (1, 3)]
    return grads + [
        pytest.param(MaskOperator([7, 2, 2, 0, 4], 9).to_sparse(), id="mask"),
        pytest.param(scipy.sparse.random_array(
            (40, 25), density=0.1, rng=rng, data_sampler=rng.standard_normal,
            format="csr"), id="random"),
        pytest.param(dense(rng.standard_normal((6, 4))).to_sparse(),
                     id="dense"),
    ]


@pytest.mark.parametrize("S", _layout_operators())
def test_cogram_pattern_matches_the_product_construction(S, rng):
    # the same order, width and band, to the last bit, as the layout built
    # from the sparse product and the row gathers
    kd, banded, perm, band = _product_layout(S)
    P = linops.CogramPattern(S)
    assert (P.kd, P.banded) == (kd, banded) and banded
    np.testing.assert_array_equal(P.perm, perm)
    for lam in (0.7, 3.0):
        s = rng.uniform(0.0, 2.0, S.shape[1])
        d = rng.uniform(0.0, 1.0, S.shape[0])
        np.testing.assert_array_equal(P.band(s, d, lam), band(s, d, lam))


@pytest.mark.parametrize("S", _layout_operators())
def test_cogram_pattern_past_the_band_limit_matches_the_product_width(
        S, monkeypatch):
    # past the limit the width is the product construction's, and no band
    # array is built
    monkeypatch.setattr(linops, "BAND_ENTRIES", 0)
    kd, banded, _, _ = _product_layout(S)
    P = linops.CogramPattern(S)
    assert (P.kd, P.banded) == (kd, banded) == (kd, False)
    assert not any(hasattr(P, name)
                   for name in ("pos", "diag", "coef", "perm"))


def test_cogram_pattern_band_limit_is_inclusive(monkeypatch, rng):
    for op in (grad2d(4, 3, channels=3), grad2d(1, 1), MaskOperator([0, 2], 4),
               dense(rng.standard_normal((5, 3)))):
        kd = op.cogram_pattern().kd
        entries = (kd + 1) * op.rows
        # a band of exactly BAND_ENTRIES stays
        monkeypatch.setattr(linops, "BAND_ENTRIES", entries)
        assert linops.CogramPattern(op.to_sparse()).banded
        # one entry fewer, and the pattern keeps only its width
        monkeypatch.setattr(linops, "BAND_ENTRIES", entries - 1)
        P = linops.CogramPattern(op.to_sparse())
        assert vars(P) == {"kd": kd, "banded": False}


@pytest.mark.parametrize("h, w", [(5, 9), (9, 5), (1, 1), (12, 12)])
def test_cogram_band_of_a_gradient_spans_twice_the_shorter_side(h, w):
    one = grad2d(h, w).cogram_pattern()
    assert one.kd <= 2 * min(h, w) + 2
    # the order keeps the channels apart: C channels stay within one
    # channel's bound, so the band grows only C-fold in length
    three = grad2d(h, w, channels=3).cogram_pattern()
    assert three.kd <= 2 * min(h, w) + 2
    ab = three.band(np.ones(3 * h * w), np.ones(6 * h * w), 1.0)
    assert ab.shape == (three.kd + 1, 6 * h * w)


def test_cogram_band_of_a_mask_is_its_diagonal():
    P = MaskOperator([0, 2, 3], 5).cogram_pattern()
    assert P.kd == 0
    diagonal = np.array([1.0, 5.0, 7.0])    # 1 + 2 * s[keep]
    assert np.array_equal(P.band(np.arange(5.0), np.ones(3), 2.0),
                          [diagonal[P.perm]])


def test_channel_blocks_tile_the_operator(rng):
    import scipy.sparse
    for op in _all_kinds(rng) + [grad2d(1, 4, channels=2)]:
        C, B = op.channel_blocks()
        if C == 1:
            assert B is op
            continue
        assert (C, B.rows, B.cols) == (op.channels, op.rows // C, op.cols // C)
        assert B.channel_blocks() == (1, B)
        assert op.channel_blocks()[1] is B                  # memoized
        tiled = scipy.sparse.block_diag([B.to_sparse()] * C).toarray()
        assert np.array_equal(tiled, op.to_dense())


def test_densify_matches_apply(rng):
    op = grad2d(3, 4, channels=2)
    D = op.to_dense()
    x = rng.standard_normal(op.cols)
    assert np.allclose(D @ x, op.apply(x), atol=1e-14)


def test_tv_group_structure_layout():
    gs = tv_group_structure(2, 2, channels=2)
    assert gs.n_groups == 4
    assert all(s == 4 for s in gs.sizes)
    # pixel 0 of a 2x2 image: horizontal/vertical rows of both channels
    assert set(gs.groups[0].tolist()) == {0, 4, 8, 12}


def test_grad2d_adjoint_of_constant_field_telescopes():
    # a constant horizontal difference field telescopes under the adjoint:
    # zero on interior rows, corrections only at the boundary
    op = grad2d(5, 4)
    field = np.zeros(op.rows)
    field[:20] = 1.0                 # constant on every horizontal row
    out = op.adjoint(field).reshape(5, 4)
    assert np.allclose(out[1:4, :], 0.0)       # interior cancels
    assert np.allclose(out[0, :], 1.0)         # first row keeps +1
    assert np.allclose(out[4, :], -1.0)        # last row keeps -1
