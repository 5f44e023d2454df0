import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varprox.baselines import run_ista
from varprox.linops import MaskOperator
from varprox.problems import (add_salt_pepper, gen_fourier_instance,
                              gen_gaussian_instance, gen_overlap_instance,
                              lambda_max, load_pgm, load_ppm,
                              make_inpainting_mask, pixel_channel_groups,
                              save_pgm, save_ppm)
from varprox.linops import dense


def test_gaussian_instance_shapes_and_consistency():
    inst = gen_gaussian_instance(30, 256, s=40, T=50, noise_std=0.0, seed=0)
    assert inst.A.shape == (30, 256)
    assert inst.y.shape == (30, 50)
    assert inst.x_true.shape == (256, 50)
    assert np.count_nonzero(np.linalg.norm(inst.x_true, axis=1)) == 40
    assert np.abs(inst.A.to_dense() @ inst.x_true - inst.y).max() < 1e-12


def test_gaussian_instance_noise_recorded():
    inst = gen_gaussian_instance(20, 50, s=5, noise_std=0.3, seed=1)
    resid = inst.A.to_dense() @ inst.x_true - inst.y
    assert np.abs(np.linalg.norm(resid) - np.linalg.norm(inst.noise)) < 1e-12


def test_gaussian_instance_deterministic():
    a = gen_gaussian_instance(15, 40, s=4, noise_std=0.1, seed=7)
    b = gen_gaussian_instance(15, 40, s=4, noise_std=0.1, seed=7)
    assert np.array_equal(a.A.to_dense(), b.A.to_dense())
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x_true, b.x_true)


def test_column_normalization():
    inst = gen_gaussian_instance(25, 60, s=5, seed=2)
    norms = np.linalg.norm(inst.A.to_dense(), axis=0)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_overlap_instance_structure():
    inst = gen_overlap_instance(30, 300, overlap=5, seed=0)
    ogs = inst.A and inst.L.source_groups
    assert ogs.mode == "overlapping"
    assert ogs.spans()
    # consecutive blocks share the requested overlap
    for g1, g2 in zip(ogs.groups[:-1], ogs.groups[1:]):
        assert len(np.intersect1d(g1, g2)) == 5


def test_fourier_instance_family():
    inst = gen_fourier_instance(cutoff=2, grid=300, spikes=1, lam_frac=0.1,
                                seed=0)
    assert inst.A.shape == (6, 300)
    assert np.count_nonzero(inst.x_true) == 1
    assert inst.lam == pytest.approx(
        0.1 * lambda_max(inst.A, inst.y, "lasso"))


def test_fourier_lambda_above_max_gives_zero():
    inst = gen_fourier_instance(cutoff=2, grid=120, spikes=1, lam_frac=1.1,
                                seed=0)
    tr = run_ista(inst.A, inst.groups, inst.lam, inst.y, accel="fista",
                  iters=2000)
    assert np.abs(tr.x).max() == 0.0


def test_fourier_grid_refinement_keeps_unit_constant():
    # max column norm stays (m+1)/m across grid refinements
    for grid in (150, 300, 600):
        inst = gen_fourier_instance(cutoff=64, grid=grid, spikes=1, seed=0)
        col = np.linalg.norm(inst.A.to_dense(), axis=0).max()
        assert col ** 2 == pytest.approx(65.0 / 64.0, rel=1e-12)


def test_lambda_max_examples():
    A = dense([[3.0, 4.0]])
    y = np.array([5.0])
    assert lambda_max(A, y, "lasso") == pytest.approx(20.0)
    assert lambda_max(A, y, "sqrt-lasso") == pytest.approx(4.0)
    from varprox.groups import GroupStructure
    gs = GroupStructure([[0, 1]], p=2)
    assert lambda_max(A, y, "group-lasso", gs) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        lambda_max(A, np.zeros(1), "sqrt-lasso")


def test_salt_pepper_counts(rng):
    img = rng.uniform(0.2, 0.8, (20, 20, 3))
    assert np.array_equal(add_salt_pepper(img, 0.0, seed=0), img)
    noisy = add_salt_pepper(img, 1.0, seed=0)
    assert np.all((noisy == 0.0) | (noisy == 1.0))
    noisy = add_salt_pepper(img, 0.25, seed=3)
    corrupted = np.any(noisy != img, axis=2).sum()
    assert corrupted == round(0.25 * 400)
    # all channels corrupted jointly
    mask_px = np.any(noisy != img, axis=2)
    same = np.all((noisy == 0) | (noisy == 1), axis=2)
    assert np.all(same[mask_px])


def test_inpainting_mask_counts():
    op = make_inpainting_mask(10, 10, 1.0, seed=0)
    assert op.rows == op.cols == 100
    op = make_inpainting_mask(10, 10, 0.3, seed=1, channels=3)
    assert isinstance(op, MaskOperator)
    assert op.rows == 3 * 30
    # identical pixel subset on every channel
    kept = op.keep
    assert np.array_equal(kept[:30] + 100, kept[30:60])
    # adjoint then apply is the identity on kept coordinates
    y = np.arange(1.0, op.rows + 1)
    assert np.array_equal(op.apply(op.adjoint(y)), y)


def test_pixel_channel_groups_layout():
    gs = pixel_channel_groups(4, 3)
    assert gs.n_groups == 4
    assert set(gs.groups[1].tolist()) == {1, 5, 9}


def test_pgm_round_trip(tmp_path, rng):
    img = rng.uniform(0, 1, (6, 9))
    path = tmp_path / "img.pgm"
    save_pgm(path, img)
    back = load_pgm(path)
    assert back.shape == (6, 9)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12
    assert back.min() >= 0.0 and back.max() <= 1.0


def test_ppm_round_trip(tmp_path, rng):
    img = rng.uniform(0, 1, (5, 7, 3))
    path = tmp_path / "img.ppm"
    save_ppm(path, img)
    back = load_ppm(path)
    assert back.shape == (5, 7, 3)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


# (save, load, shape drawn from (h, w, c)), empty shapes included; the images
# are byte multiples of 1/255 so that they round-trip exactly
FORMATS = {
    "pgm": (save_pgm, load_pgm, lambda h, w, c: (h, w)),
    "ppm": (save_ppm, load_ppm, lambda h, w, c: (h, w, 3)),
}


@settings(deadline=None, max_examples=60)
@given(fmt=st.sampled_from(sorted(FORMATS)), h=st.integers(0, 3),
       w=st.integers(0, 3), c=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_readers_reject_every_proper_prefix(fmt, h, w, c, seed):
    save, load, shape = FORMATS[fmt]
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, shape(h, w, c)) / 255.0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"f.{fmt}"
        save(path, data)
        raw = path.read_bytes()
        assert np.array_equal(load(path), data)
        for k in range(len(raw)):
            path.write_bytes(raw[:k])
            with pytest.raises(ValueError):
                load(path)


@pytest.mark.parametrize("fmt, header", [
    ("pgm", b"P5\n4000000000 4000000000\n255\n"),
    ("ppm", b"P6\n4000000000 4000000000\n255\n"),
])
def test_readers_reject_a_size_beyond_the_file(tmp_path, fmt, header):
    # a corrupt header must not make the reader allocate what it claims
    path = tmp_path / f"f.{fmt}"
    path.write_bytes(header + bytes(64))
    with pytest.raises(ValueError, match="truncated"):
        FORMATS[fmt][1](path)
