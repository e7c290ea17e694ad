"""Image I/O, preprocessing, splitting, augmentation, synthetic corpus."""

import collections
import kernels_ref
import numpy as np
import pytest

from camnet import data
from camnet.errors import (
    BadMagicError,
    BadMaxvalError,
    BadSizeError,
    DataError,
    ShapeError,
    ShortDataError,
)
from camnet.rng import Rng


# ---------------------------------------------------------------------------
# Netpbm

def test_p5_round_trip():
    img = np.array([[0, 128], [255, 64]], dtype=np.uint8)[:, :, None]
    raw = data.encode_netpbm(img)
    assert np.array_equal(data.decode_netpbm(raw), img)
    assert data.encode_netpbm(data.decode_netpbm(raw)) == raw


def test_p6_round_trip():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    assert np.array_equal(data.decode_netpbm(data.encode_netpbm(img)), img)


def test_short_data_error():
    img = np.zeros((2, 2, 1), dtype=np.uint8)
    raw = data.encode_netpbm(img)
    # P6 claims 3 channels but only a grayscale payload follows
    with pytest.raises(ShortDataError):
        data.decode_netpbm(b"P6" + raw[2:])


def test_header_comment_skipped():
    raw = b"P5\n# scanner\n2 2\n255\n" + bytes([0, 1, 2, 3])
    img = data.decode_netpbm(raw)
    assert img.shape == (2, 2, 1)
    assert img.flatten().tolist() == [0, 1, 2, 3]


def test_bad_magic_and_maxval():
    with pytest.raises(BadMagicError):
        data.decode_netpbm(b"P3\n1 1\n255\n0")
    with pytest.raises(BadMaxvalError):
        data.decode_netpbm(b"P5\n1 1\n65535\n\0\0")


@pytest.mark.parametrize("header", [b"P5 -4 -2 255\n", b"P5 0 5 255\n",
                                    b"P6 3 0 255\n"])
def test_nonpositive_size_rejected(header):
    with pytest.raises(BadSizeError, match="must be positive"):
        data.decode_netpbm(header + b"\0" * 16)


def test_encode_rejects_wrong_dtype():
    with pytest.raises(ShapeError):
        data.encode_netpbm(np.zeros((2, 2, 1)))  # float, not uint8
    with pytest.raises(ShapeError):
        data.encode_netpbm(np.zeros((2, 2, 2), dtype=np.uint8))


def test_file_round_trip(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    p = tmp_path / "x.ppm"
    data.write_image(p, img)
    assert np.array_equal(data.read_image(p), img)


# ---------------------------------------------------------------------------
# resize and normalization

def test_resize_identity_is_bit_exact():
    img = np.random.default_rng(1).random((5, 7, 1))
    out = data.resize_bilinear(img, 5, 7)
    assert np.array_equal(out, img)
    assert out is not img


def test_resize_constant_stays_constant():
    img = np.full((4, 4, 1), 0.3)
    out = data.resize_bilinear(img, 9, 3)
    assert np.allclose(out, 0.3, atol=1e-15)


def test_resize_checkerboard_average():
    img = np.array([[0.0, 1.0], [1.0, 0.0]])[:, :, None]
    out = data.resize_bilinear(img, 1, 1)
    assert out[0, 0, 0] == pytest.approx(0.5, abs=1e-15)


def test_minmax_three_values():
    out = data.minmax_normalize(np.array([[10.0, 20.0, 30.0]])[:, :, None])
    assert np.allclose(out.flatten(), [0.0, 0.5, 1.0], atol=1e-15)


def test_minmax_full_range_u8():
    img = np.zeros((2, 2, 1), dtype=np.uint8)
    img[0, 0, 0] = 255
    img[0, 1, 0] = 128
    out = data.minmax_normalize(img)
    assert out[0, 1, 0] == pytest.approx(128.0 / 255.0, abs=1e-12)


def test_minmax_constant_is_zero():
    assert not data.minmax_normalize(np.full((3, 3, 1), 9.0)).any()


def test_normalized_images_normalize_each_item_on_use():
    r = np.random.default_rng(3)
    imgs = [r.integers(0, 256, (5, 4, c), dtype=np.uint8) for c in (1, 3, 1)]
    imgs.append(np.full((5, 4, 1), 7, dtype=np.uint8))  # constant: all zeros
    view = data.NormalizedImages(imgs)
    want = [data.minmax_normalize(img).tobytes() for img in imgs]
    assert [view[i].tobytes() for i in range(len(imgs))] == want
    assert view[-1].tobytes() == want[-1]
    assert [img.tobytes() for img in view] == want
    assert all(img.dtype == np.float64 for img in view)
    with pytest.raises(IndexError):
        view[len(imgs)]
    assert len(view) == len(imgs) and bool(view)
    assert len(data.NormalizedImages([])) == 0 and not data.NormalizedImages([])
    # after every read, it holds the list of uint8 images it was given, and nothing else
    assert [v is imgs for v in vars(view).values()] == [True]
    assert all(img.dtype == np.uint8 for img in imgs)


# ---------------------------------------------------------------------------
# splitting

def _fake_dataset(class_sizes):
    labels = []
    for c, n in enumerate(class_sizes):
        labels += [c] * n
    return data.LabeledDataset(images=[None] * len(labels), labels=labels,
                               class_names=[str(c) for c in range(len(class_sizes))])


def test_split_paper_counts():
    ds = _fake_dataset((2004, 2004, 2048))
    m = data.stratified_split(ds, seed=0)
    assert len(m.test) == 604
    assert len(m.val) == 604
    assert len(m.train) == 4848
    assert [sum(ds.labels[i] == 2 for i in s) for s in (m.train, m.val, m.test)] == \
           [1640, 204, 204]


def test_split_ten_per_class():
    ds = _fake_dataset((10, 10, 10))
    m = data.stratified_split(ds, seed=1)
    for c in range(3):
        assert [sum(ds.labels[i] == c for i in s) for s in (m.train, m.val, m.test)] == \
               [8, 1, 1]


def test_split_disjoint_and_covering():
    ds = _fake_dataset((20, 30, 25))
    for seed in range(5):
        m = data.stratified_split(ds, seed=seed)
        all_idx = sorted(m.train + m.val + m.test)
        assert all_idx == list(range(75))


def test_split_determinism():
    ds = _fake_dataset((20, 20, 20))
    a = data.stratified_split(ds, seed=3)
    b = data.stratified_split(ds, seed=3)
    assert (a.train, a.val, a.test) == (b.train, b.val, b.test)
    c = data.stratified_split(ds, seed=4)
    assert (a.train, a.val, a.test) != (c.train, c.val, c.test)
    assert len(c.train) == len(a.train)


def test_split_too_small_class():
    with pytest.raises(DataError):
        data.stratified_split(_fake_dataset((2, 10, 10)), seed=0)


def test_split_bad_ratios():
    with pytest.raises(DataError):
        data.stratified_split(_fake_dataset((10, 10, 10)), ratios=(0.5, 0.2, 0.2))


def test_split_needs_three_ratios_in_unit_interval():
    # NaN fails every comparison, and out-of-range ratios can sum to 1
    for ratios in [(0.5, 0.5), (float("nan"), 0.5, 0.5), (1.5, -0.25, -0.25),
                   (float("inf"), float("-inf"), 0.0)]:
        with pytest.raises(DataError, match=r"ratios must be three numbers in \[0, 1\]"):
            data.stratified_split(_fake_dataset((10, 10, 10)), ratios=ratios)


def test_manifest_csv_round_trip(tmp_path):
    ds = _fake_dataset((10, 10, 10))
    m = data.stratified_split(ds, seed=5)
    path = tmp_path / "split.csv"
    m.write_csv(path, ds)
    m2 = data.SplitManifest.read_csv(path)
    assert (sorted(m2.train), sorted(m2.val), sorted(m2.test)) == \
           (m.train, m.val, m.test)


def test_manifest_rows_checked_against_dataset(tmp_path):
    ds = _fake_dataset((4, 4, 4))
    ds.paths = [f"root/{lab}/{i:02d}.pgm" for i, lab in enumerate(ds.labels)]
    m = data.stratified_split(ds, seed=5)
    path = tmp_path / "split.csv"
    m.write_csv(path, ds)
    moved = data.LabeledDataset(ds.images, ds.labels, ds.class_names,
                                [p.replace("root/", "./elsewhere/") for p in ds.paths])
    assert data.SplitManifest.read_csv(path, dataset=moved).train == m.train

    shorter = data.LabeledDataset(ds.images[:-1], ds.labels[:-1], ds.class_names,
                                  ds.paths[:-1])
    with pytest.raises(DataError, match="line 13: index 11 is out of range for 11"):
        data.SplitManifest.read_csv(path, dataset=shorter)
    relabeled = data.LabeledDataset(ds.images, [1] + ds.labels[1:], ds.class_names,
                                    ds.paths)
    with pytest.raises(DataError, match="line 2: index 0 names 0/00.pgm .label 0."):
        data.SplitManifest.read_csv(path, dataset=relabeled)
    path.write_text(path.read_text().replace(",train", ",bogus", 1))
    with pytest.raises(DataError, match="malformed row"):
        data.SplitManifest.read_csv(path)


# ---------------------------------------------------------------------------
# augmentation

def _no_op_geometry():
    return data.AugmentConfig(noise_std=0.0, flip_probability=0.0,
                              rotation_set=(0.0,))


def test_contrast_brightness_arithmetic():
    cfg = _no_op_geometry()
    img = np.full((2, 2, 1), 0.5)
    out = data.augment_chain(img, cfg, Rng(0))
    assert np.abs(out - 0.635).max() <= 1e-12
    out1 = data.augment_chain(np.ones((2, 2, 1)), cfg, Rng(0))
    assert np.abs(out1 - 1.0).max() <= 1e-12  # clipped at 1


def test_hflip_involution():
    img = np.random.default_rng(2).random((6, 5, 1))
    assert np.array_equal(data.hflip(data.hflip(img)), img)


def test_noise_stays_in_range():
    cfg = data.AugmentConfig(flip_probability=0.0, rotation_set=(0.0,),
                             contrast_scale=1.0, brightness_delta=0.0)
    img = np.random.default_rng(3).random((16, 16, 1))
    for seed in range(5):
        out = data.augment_chain(img, cfg, Rng(seed))
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_chain_determinism():
    cfg = data.AugmentConfig()
    img = np.random.default_rng(4).random((16, 16, 1))
    a = data.augment_chain(img, cfg, Rng(42))
    b = data.augment_chain(img, cfg, Rng(42))
    assert np.array_equal(a, b)


def test_rotation_zero_is_identity():
    img = np.random.default_rng(5).random((9, 9, 1))
    assert np.array_equal(data.rotate_bilinear(img, 0.0), img)


def test_rotation_round_trip_interior():
    img = np.random.default_rng(6).random((32, 32, 1))
    # smooth the noise a little so bilinear interpolation error is small
    img = data.resize_bilinear(data.resize_bilinear(img, 8, 8), 32, 32)
    back = data.rotate_bilinear(data.rotate_bilinear(img, 9.0), -9.0)
    interior = (slice(8, 24), slice(8, 24))
    mae = np.abs(back[interior] - img[interior]).mean()
    assert mae <= 0.02


ROTATION_ANGLES = (0.0, -0.0, 9.0, -9.0, 13.0, -13.0, 90.0, 180.0, 45.5, 1e-9, 1e6)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rotation_matches_reference_bytes(dtype):
    rng = np.random.default_rng(11)
    for h, w in ((1, 1), (2, 3), (17, 16), (128, 128)):
        for c in (1, 3):
            img = rng.random((h, w, c)).astype(dtype)
            img[0, 0, 0] = -0.0  # a signed zero for the 0-degree sums
            for degrees in ROTATION_ANGLES:
                for fill in (0.0, 0.5, -1.0, 0.1):
                    want = kernels_ref.rotate_bilinear_reference(img, degrees, fill)
                    got = data.rotate_bilinear(img, degrees, fill)
                    case = (h, w, c, degrees, fill)
                    assert got.dtype == want.dtype, case
                    assert got.tobytes() == want.tobytes(), case


def test_rotation_plan_cache_is_bounded_and_reused(monkeypatch):
    built = []
    build = data._build_rotation_plan
    monkeypatch.setattr(data, "_build_rotation_plan",
                        lambda *key: built.append(key) or build(*key))
    monkeypatch.setattr(data, "_plans", collections.OrderedDict())
    rng = np.random.default_rng(12)
    for degrees in (13.0, 0.0, -0.0):
        for _ in range(2):
            img = rng.random((17, 16, 1))
            assert data.rotate_bilinear(img, degrees).tobytes() == \
                kernels_ref.rotate_bilinear_reference(img, degrees).tobytes()
    # one build per key: -0.0 and 0.0 share one because their plans are
    # the same bits
    assert built == [(17, 16, 13.0), (17, 16, 0.0)]
    for a, b in zip(build(17, 16, 0.0), build(17, 16, -0.0)):
        assert a.tobytes() == b.tobytes()
    plan = data._rotation_plan(17, 16, 13.0)
    assert not any(a.flags.writeable for a in plan)
    assert data._plan_bytes(plan) == 24 * 17 * 16  # 24 bytes a pixel

    # a bound of 3 plans of 17x16: the least recently used plan goes first
    monkeypatch.setattr(data, "_PLAN_CACHE_BYTES", 3 * 24 * 17 * 16)
    for degrees in (1.0, 2.0, 13.0, 3.0):
        data._rotation_plan(17, 16, degrees)
    assert list(data._plans) == [(17, 16, 2.0), (17, 16, 13.0), (17, 16, 3.0)]
    # a plan larger than the bound is built on every call and evicts nothing
    del built[:]
    img = rng.random((33, 32, 1))
    for _ in range(2):
        assert data.rotate_bilinear(img, 13.0).tobytes() == \
            kernels_ref.rotate_bilinear_reference(img, 13.0).tobytes()
    assert built == [(33, 32, 13.0)] * 2
    assert len(data._plans) == 3


def test_rotation_plan_cache_keeps_a_512_corpus_plans(monkeypatch):
    """The default bound holds the 4 plans of the default rotation set at
    512x512, so a one-size 512x512 corpus builds each plan once."""
    built = []
    build = data._build_rotation_plan
    monkeypatch.setattr(data, "_build_rotation_plan",
                        lambda *key: built.append(key) or build(*key))
    monkeypatch.setattr(data, "_plans", collections.OrderedDict())
    degrees = data.AugmentConfig().rotation_set
    for _ in range(2):
        for d in degrees:
            data._rotation_plan(512, 512, d)
    assert built == [(512, 512, d) for d in degrees]
    assert sum(map(data._plan_bytes, data._plans.values())) <= data._PLAN_CACHE_BYTES == 32 << 20


def test_rng_consumption_contract():
    # flip(1) + H*W*C normals via 2-per-pair uniforms + randint(1)
    cfg = data.AugmentConfig()
    img = np.zeros((4, 4, 1))
    rng = Rng(8)
    data.augment_chain(img, cfg, rng)
    expect = Rng(8)
    expect.u64_block(1 + 16 + 1)  # 16 normals = 8 pairs = 16 uniforms
    assert rng.next_u64() == expect.next_u64()


# ---------------------------------------------------------------------------
# synthetic corpus

def test_synth_counts():
    ds = data.synth_dataset(10, image_size=32, seed=7)
    assert len(ds) == 30
    for c in range(3):
        assert ds.labels.count(c) == 10
    assert ds.class_names == list(data.SYNTH_CLASS_NAMES)


def test_synth_determinism():
    a = data.synth_dataset(4, image_size=32, seed=7)
    b = data.synth_dataset(4, image_size=32, seed=7)
    for ia, ib in zip(a.images, b.images):
        assert np.array_equal(ia, ib)
    c = data.synth_dataset(4, image_size=32, seed=8)
    assert not np.array_equal(a.images[0], c.images[0])


def test_synth_range_and_shape():
    ds = data.synth_dataset(2, image_size=24, seed=1)
    for img in ds.images:
        assert img.shape == (24, 24, 1)
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_synth_rejects_zero():
    with pytest.raises(DataError):
        data.synth_dataset(0)


def test_load_directory_alphabetical(tmp_path):
    for cname, val in (("b_rect", 100), ("a_disk", 50)):
        d = tmp_path / cname
        d.mkdir()
        img = np.full((4, 4, 1), val, dtype=np.uint8)
        img[0, 0, 0] = 0  # avoid the constant-image zero rule
        data.write_image(d / "0.pgm", img)
    ds = data.load_directory(tmp_path)
    assert ds.class_names == ["a_disk", "b_rect"]
    assert ds.labels == [0, 1]
    assert ds.images[0].dtype == np.uint8 and ds.images[0].max() == 50  # decoded only
