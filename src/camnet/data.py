"""Image I/O, preprocessing, augmentation, splitting, and the synthetic corpus.

Images live in two forms:

- ImageU8: uint8 ndarray of shape (H, W, C), C in {1, 3}, row-major and
  channel-interleaved (the Netpbm wire layout).
- ImageF: float64 ndarray of shape (H, W, C) with values in [0, 1].

All randomness goes through rng.Rng; see that module for the stream
definition that makes every pipeline output reproducible.
"""

import collections.abc
import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagicError,
    BadMaxvalError,
    BadSizeError,
    DataError,
    ShapeError,
    ShortDataError,
)
from .rng import Rng, derive_seed


# ---------------------------------------------------------------------------
# Netpbm P5 / P6 (binary, maxval 255)

def decode_netpbm(raw: bytes) -> np.ndarray:
    """Decode binary PGM (P5) or PPM (P6) into an ImageU8.

    Header comments (# to end of line) are tolerated anywhere before the
    pixel data.
    """
    magic = raw[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise BadMagicError(f"expected P5 or P6 magic, got {magic!r}")

    # tokenize width, height, maxval with comment skipping
    pos = 2
    tokens = []
    while len(tokens) < 3:
        if pos >= len(raw):
            raise ShortDataError("header ended before width/height/maxval")
        ch = raw[pos:pos + 1]
        if ch == b"#":
            nl = raw.find(b"\n", pos)
            pos = len(raw) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as e:
        raise BadMagicError(f"non-numeric header token: {e}") from e
    if width <= 0 or height <= 0:
        raise BadSizeError(f"width and height must be positive, got {width}x{height}")
    if maxval != 255:
        raise BadMaxvalError(f"maxval must be 255, got {maxval}")
    pos += 1  # single whitespace byte after maxval

    need = width * height * channels
    pixels = raw[pos:pos + need]
    if len(pixels) < need:
        raise ShortDataError(f"expected {need} pixel bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, channels).copy()


def encode_netpbm(img: np.ndarray) -> bytes:
    """Encode an ImageU8 as binary P5 (1 channel) or P6 (3 channels)."""
    img = np.asarray(img)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] not in (1, 3):
        raise ShapeError(f"expected uint8 (H,W,1|3) image, got {img.dtype} {img.shape}")
    h, w, c = img.shape
    magic = b"P5" if c == 1 else b"P6"
    return magic + f"\n{w} {h}\n255\n".encode() + img.tobytes()


def read_image(path) -> np.ndarray:
    with open(path, "rb") as f:
        return decode_netpbm(f.read())


def write_image(path, img: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(encode_netpbm(img))


def f_to_u8(img: np.ndarray) -> np.ndarray:
    return np.round(255.0 * np.clip(img, 0.0, 1.0)).astype(np.uint8)


# ---------------------------------------------------------------------------
# preprocessing

def bilinear_resample(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel centers and border clamping.

    Works on any float (H, W, C) array; no range clipping (saliency maps
    reuse this on unbounded values).
    """
    h, w, _ = img.shape
    sy = h / out_h
    sx = w / out_w
    ys = np.clip((np.arange(out_h) + 0.5) * sy - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * sx - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """ImageF resize; output clipped back to [0, 1]."""
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"resize target {out_h}x{out_w} must be >= 1")
    if img.shape[:2] == (out_h, out_w):
        return img.copy()
    return np.clip(bilinear_resample(img, out_h, out_w), 0.0, 1.0)


def minmax_normalize(img: np.ndarray) -> np.ndarray:
    """Per-image (x - min) / (max - min) over all channels jointly.

    Accepts uint8 or float input; a constant image maps to all zeros.
    """
    x = img.astype(np.float64)
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


class NormalizedImages(collections.abc.Sequence):
    """Read-only sequence of `minmax_normalize(img)` over `images`, made
    when an item is indexed or iterated.  It holds the images it is given
    and no float copy, so a split of ImageU8 costs its uint8 bytes, and a
    reader holds only the float images it uses at once."""

    def __init__(self, images):
        self._images = images

    def __len__(self):
        return len(self._images)

    def __getitem__(self, i):
        return minmax_normalize(self._images[i])


# ---------------------------------------------------------------------------
# datasets and splitting

@dataclass
class LabeledDataset:
    images: list  # ImageU8 or ImageF arrays (None when paths are used lazily)
    labels: list
    class_names: list
    paths: list = field(default_factory=list)

    def __len__(self):
        return len(self.labels)

    def image_shape(self) -> tuple:
        """(H, W, C) shared by every image of a loaded corpus.  Raises
        DataError naming the first image whose shape differs from the
        first image's."""
        first = self.images[0].shape
        for i, img in enumerate(self.images):
            if img.shape != first:
                h, w, c = img.shape
                h0, w0, c0 = first
                raise DataError(
                    f"{self.paths[i]} is {h}x{w}x{c}, but {self.paths[0]} is "
                    f"{h0}x{w0}x{c0}; every image must have the same size and "
                    "channel count")
        return first

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset(
            images=[self.images[i] for i in indices],
            labels=[self.labels[i] for i in indices],
            class_names=list(self.class_names),
            paths=[self.paths[i] for i in indices] if self.paths else [],
        )


@dataclass
class SplitManifest:
    train: list
    val: list
    test: list

    def write_csv(self, path, dataset: LabeledDataset) -> None:
        names = {i: name for name, idxs in (("train", self.train), ("val", self.val),
                                            ("test", self.test)) for i in idxs}
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("index", "path", "label", "split"))
            for i in sorted(names):
                p = dataset.paths[i] if dataset.paths else ""
                w.writerow((i, p, dataset.labels[i], names[i]))

    @staticmethod
    def read_csv(path, dataset: LabeledDataset | None = None) -> "SplitManifest":
        """Read a manifest written by write_csv.

        With `dataset`, every row must still name the same item of it: the
        index in range, the same label and the same file, compared as
        class directory and file name so that the data root may be spelled
        differently.  A stale or malformed row, or a second row for an
        index, is a DataError naming it.
        """
        splits = {"train": [], "val": [], "test": []}
        seen = set()
        with open(path, newline="") as f:
            rows = csv.DictReader(f)
            for row in rows:
                where = f"manifest {path} line {rows.line_num}"
                try:
                    i, label = int(row["index"]), int(row["label"])
                    splits[row["split"]].append(i)
                except (KeyError, TypeError, ValueError) as e:
                    raise DataError(f"{where}: malformed row: {e!r}") from None
                if i in seen:
                    raise DataError(f"{where}: index {i} is listed twice; "
                                    "run camnet split again")
                seen.add(i)
                if dataset is None:
                    continue
                if not 0 <= i < len(dataset):
                    raise DataError(f"{where}: index {i} is out of range for "
                                    f"{len(dataset)} images; run camnet split again")
                have = _item_name(dataset.paths[i]) if dataset.paths else ""
                want = _item_name(row["path"])
                if label != dataset.labels[i] or (have and want and have != want):
                    raise DataError(
                        f"{where}: index {i} names {want} (label {label}), but the "
                        f"data directory has {have} (label {dataset.labels[i]}) "
                        "there; run camnet split again")
        return SplitManifest(splits["train"], splits["val"], splits["test"])


def _item_name(path) -> str:
    """'<class dir>/<file>' of a corpus image path ('' for no path)."""
    return "/".join(os.path.normpath(path).split(os.sep)[-2:]) if path else ""


def stratified_split(dataset: LabeledDataset, ratios=(0.8, 0.1, 0.1),
                     seed: int = 0) -> SplitManifest:
    """Per-class deterministic split.

    For each class (in label order, sharing one seeded stream): shuffle
    the class's indices, take floor(test_ratio * n) for test, the next
    floor(val_ratio * n) for val, the rest for train.  `ratios` is
    (train, val, test): three numbers in [0, 1] that sum to 1.
    """
    ratios = tuple(ratios)
    if len(ratios) != 3 or not all(0.0 <= r <= 1.0 for r in ratios):
        raise DataError(f"ratios must be three numbers in [0, 1], got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios must sum to 1, got {ratios}")
    k = len(dataset.class_names)
    by_class = {c: [] for c in range(k)}
    for i, lab in enumerate(dataset.labels):
        by_class[lab].append(i)

    rng = Rng(seed)
    train, val, test = [], [], []
    for c in range(k):
        idxs = by_class[c]
        if len(idxs) < 3:
            raise DataError(f"class {c} has {len(idxs)} items; need at least 3 to split")
        rng.shuffle(idxs)
        n = len(idxs)
        n_test = int(math.floor(ratios[2] * n))
        n_val = int(math.floor(ratios[1] * n))
        test.extend(idxs[:n_test])
        val.extend(idxs[n_test:n_test + n_val])
        train.extend(idxs[n_test + n_val:])
    return SplitManifest(sorted(train), sorted(val), sorted(test))


def list_directory(root) -> LabeledDataset:
    """The corpus `<root>/<class_name>/*.pgm|*.ppm`, classes in alphabetical
    order, with its paths and labels only: every image is None, for callers
    that read one image at a time."""
    classes = sorted(
        d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))
    )
    if not classes:
        raise DataError(f"no class directories under {root}")
    labels, paths = [], []
    for lab, cname in enumerate(classes):
        cdir = os.path.join(root, cname)
        files = sorted(f for f in os.listdir(cdir) if f.endswith((".pgm", ".ppm")))
        if not files:
            raise DataError(f"class directory {cdir} has no .pgm/.ppm files")
        labels += [lab] * len(files)
        paths += [os.path.join(cdir, f) for f in files]
    return LabeledDataset([None] * len(paths), labels, classes, paths)


def load_directory(root) -> LabeledDataset:
    """`list_directory` with every image decoded to an ImageU8, so a bad
    file fails here; callers normalize only the images they use."""
    ds = list_directory(root)
    ds.images = [read_image(p) for p in ds.paths]
    return ds


# ---------------------------------------------------------------------------
# augmentation

@dataclass
class AugmentConfig:
    noise_std: float = 0.0023
    contrast_scale: float = 0.79
    brightness_delta: float = 0.24
    rotation_set: tuple = (-13.0, -9.0, 9.0, 13.0)
    flip_probability: float = 0.5


def hflip(img: np.ndarray) -> np.ndarray:
    """Mirror along the vertical axis."""
    return img[:, ::-1].copy()


def _build_rotation_plan(h: int, w: int, degrees: float) -> tuple:
    """The gather indices and bilinear weights of one (h, w, degrees) rotation.

    Returns (taps, fy, fx).  `taps` is an (h, w) array of the flat index,
    in a (h+4, w+4) copy of the image padded by two pixels of fill, of each
    destination pixel's top-left source tap (y0, x0); its other three taps
    sit 1, w+4 and w+5 further on.  A y0 below -2 or above h is clipped to
    -2 or h, where y0 and y0+1 both lie on the border and read fill; x0
    likewise.  fy and fx are (h, w, 1).  Every array is read-only; a plan
    takes 24 bytes per pixel (384 KiB at 128x128).
    """
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys = (np.arange(h) - cy)[:, None]
    xs = np.arange(w) - cx
    # inverse rotation of each destination pixel into source coordinates
    src_y = sin_t * xs + cos_t * ys + cy
    src_x = cos_t * xs - sin_t * ys + cx

    y0 = np.floor(src_y)
    x0 = np.floor(src_x)
    fy = (src_y - y0)[..., None]
    fx = (src_x - x0)[..., None]
    rows = np.clip(y0.astype(np.intp), -2, h) + 2
    cols = np.clip(x0.astype(np.intp), -2, w) + 2
    plan = (rows * (w + 4) + cols, fy, fx)
    for a in plan:
        a.setflags(write=False)
    return plan


# The plans kept, least recently used first, and their bound in bytes: a
# 512x512 corpus's 4 plans (6 MiB each) fit, and so do 85 plans at
# 128x128.  A plan larger than the bound is built on every call.
_PLAN_CACHE_BYTES = 32 << 20
_plans = collections.OrderedDict()


def _rotation_plan(h: int, w: int, degrees: float) -> tuple:
    """`_build_rotation_plan`, from a cache of at most `_PLAN_CACHE_BYTES`
    that drops the least recently used plans first.  The key is
    (h, w, degrees): -0.0 and 0.0 share one, and their plans are the same
    bits, since sin(-0.0) * x only adds a signed zero to a coordinate sum
    whose other term is +0.0 or nonzero."""
    key = (h, w, degrees)
    plan = _plans.get(key)
    if plan is not None:
        _plans.move_to_end(key)
        return plan
    plan = _build_rotation_plan(h, w, degrees)
    if _plan_bytes(plan) <= _PLAN_CACHE_BYTES:
        _plans[key] = plan
        while sum(_plan_bytes(p) for p in _plans.values()) > _PLAN_CACHE_BYTES:
            _plans.popitem(last=False)
    return plan


def _plan_bytes(plan) -> int:
    return sum(a.nbytes for a in plan)


def rotate_bilinear(img: np.ndarray, degrees: float, fill: float = 0.0) -> np.ndarray:
    """Rotate about the image center; bilinear sampling, out-of-bounds = fill.

    The taps and weights come from `_rotation_plan(h, w, degrees)`.  Each
    call pads the image with a two-pixel border of `fill` (in the dtype
    numpy gives the image and `fill` together, so float32 stays float32),
    gathers the four taps and sums
    s00*(1-fy)*(1-fx) + s01*(1-fy)*fx + s10*fy*(1-fx) + s11*fy*fx,
    each product left to right, into a float64 image.

    A 0-degree rotation returns the image's values: every source
    coordinate lands on a pixel center, so fy = fx = 0 and the three
    other taps add zeros.
    """
    h, w, c = img.shape
    taps, fy, fx = _rotation_plan(h, w, degrees)
    padded = np.full((h + 4, w + 4, c), fill, dtype=np.result_type(img, fill))
    padded[2:-2, 2:-2] = img
    flat = padded.reshape(-1, c)
    s00, s01, s10, s11 = (np.take(flat[k:], taps, axis=0) for k in (0, 1, w + 4, w + 5))
    wy0, wx0 = 1 - fy, 1 - fx
    out = s00 * wy0
    out *= wx0
    for s, wy, wx in ((s01, wy0, fx), (s10, fy, wx0), (s11, fy, fx)):
        term = s * wy
        term *= wx
        out += term
    return out


def augment_chain(img: np.ndarray, cfg: AugmentConfig, rng: Rng) -> np.ndarray:
    """Flip, Gaussian noise, contrast, brightness, rotation — in that order.

    RNG consumption (documented so streams are portable): one uniform for
    the flip decision, then H*W*C normals when noise_std > 0 (skipped
    entirely when it is 0), then one randint for the rotation angle.
    Output values stay in [0, 1].
    """
    out = img
    if rng.uniform() < cfg.flip_probability:
        out = hflip(out)
    if cfg.noise_std > 0.0:
        noise = rng.normal_block(out.size).reshape(out.shape)
        out = np.clip(out + cfg.noise_std * noise, 0.0, 1.0)
    out = np.clip(out * cfg.contrast_scale + cfg.brightness_delta, 0.0, 1.0)
    angle = cfg.rotation_set[rng.randint(len(cfg.rotation_set))]
    out = rotate_bilinear(out, angle)
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# synthetic corpus

SYNTH_CLASS_NAMES = ("disk", "rect", "cross")


def _synth_image(label: int, size: int, rng: Rng) -> np.ndarray:
    cx = (0.3 + 0.4 * rng.uniform()) * size
    cy = (0.3 + 0.4 * rng.uniform()) * size
    half = (0.16 + 0.14 * rng.uniform()) * size
    fg = 0.55 + 0.4 * rng.uniform()
    bg = 0.05 * rng.uniform()

    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    if label == 0:  # filled disk
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= half**2
    elif label == 1:  # filled rectangle, elongated so it is never disk-like
        mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= 0.4 * half)
    else:  # plus-shaped cross with thin arms
        arm = max(2.0, 0.25 * half)
        mask = ((np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= arm)) | (
            (np.abs(xx - cx) <= half) & (np.abs(yy - cy) <= arm)
        )
    img = np.full((size, size), bg)
    img[mask] = fg
    img += 0.01 * rng.normal_block(size * size).reshape(size, size)
    return np.clip(img, 0.0, 1.0)[:, :, None]


def synth_dataset(n_per_class: int, image_size: int = 128, seed: int = 0) -> LabeledDataset:
    """Three separable grayscale shape classes with randomized geometry.

    Item (label, i) uses an rng seeded by derive_seed(seed, label, i), so
    the corpus is deterministic and order-independent.
    """
    if n_per_class < 1:
        raise DataError("n_per_class must be >= 1")
    if image_size < 1:
        raise DataError(f"image_size must be >= 1, got {image_size}")
    images, labels = [], []
    for label in range(3):
        for i in range(n_per_class):
            images.append(_synth_image(label, image_size, Rng(derive_seed(seed, label, i))))
            labels.append(label)
    return LabeledDataset(images, labels, list(SYNTH_CLASS_NAMES))
