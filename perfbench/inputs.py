"""Benchmark inputs made from a seed, independently of camnet.

The benchmark hands camnet only files: a synthetic three-class PGM corpus
(filled disk, elongated rectangle, thin cross, the same shape families as
camnet's own acceptance corpus) and vgg-nano weight files in the
documented CAMF0001 format.  Everything here is plain numpy driven by
``numpy.random.default_rng``, so the same seed gives byte-identical inputs
whatever the camnet commit under test.

The Netpbm decoder at the bottom is the benchmark's own, so output checks
do not trust the code they check.
"""

import os
import struct

import numpy as np

CLASS_DIRS = ("0_disk", "1_rect", "2_cross")
CLASS_NAMES = ("disk", "rect", "cross")
CAMF_MAGIC = b"CAMF0001"


def _rng(seed, *keys):
    return np.random.default_rng([seed, *keys])


def shape_image(rng, label, size):
    """One uint8 (size, size) image of class `label` with random geometry."""
    cy, cx = (0.3 + 0.4 * rng.random(2)) * size
    half = (0.16 + 0.14 * rng.random()) * size
    fg = 0.55 + 0.4 * rng.random()
    bg = 0.05 * rng.random()
    yy, xx = np.ogrid[:size, :size]
    dy, dx = np.abs(yy - cy), np.abs(xx - cx)
    if label == 0:
        mask = dy**2 + dx**2 <= half**2
    elif label == 1:
        mask = (dy <= half) & (dx <= 0.4 * half)
    else:
        arm = max(2.0, 0.25 * half)
        mask = ((dy <= half) & (dx <= arm)) | ((dx <= half) & (dy <= arm))
    img = np.where(mask, fg, bg) + 0.01 * rng.standard_normal((size, size))
    return np.round(255.0 * np.clip(img, 0.0, 1.0)).astype(np.uint8)


def encode_pgm(img):
    h, w = img.shape
    return b"P5\n%d %d\n255\n" % (w, h) + img.tobytes()


def write_class_corpus(root, n_per_class, size, seed):
    """`root/<k>_<name>/<i>.pgm`, n_per_class images per class."""
    for label, dirname in enumerate(CLASS_DIRS):
        d = os.path.join(root, dirname)
        os.makedirs(d, exist_ok=True)
        for i in range(n_per_class):
            img = shape_image(_rng(seed, size, label, i), label, size)
            with open(os.path.join(d, f"{i:05d}.pgm"), "wb") as f:
                f.write(encode_pgm(img))


def write_flat_images(root, n, size, seed):
    """n images of cycling classes in one directory; returns their paths."""
    os.makedirs(root, exist_ok=True)
    paths = []
    for i in range(n):
        label = i % 3
        img = shape_image(_rng(seed, size, label, 100_000 + i), label, size)
        path = os.path.join(root, f"img{size}_{i:05d}.pgm")
        with open(path, "wb") as f:
            f.write(encode_pgm(img))
        paths.append(path)
    return paths


def vgg_nano_spec(size):
    """Canonical spec line of camnet's vgg-nano preset at size x size."""
    layers = ("Conv(8,3,1,1)|ReLU|Conv(8,3,1,1)|ReLU|MaxPool2|"
              "Conv(16,3,1,1)|ReLU|Conv(16,3,1,1)|ReLU|MaxPool2|"
              "Flatten|Dense(128)|ReLU|Dropout(0.5)|Dense(3)|Softmax")
    return f"input=1x{size}x{size};layers={layers};classes={','.join(CLASS_NAMES)}"


def vgg_nano_shapes(size):
    flat = 16 * (size // 4) ** 2
    return [(8, 1, 3, 3), (8,), (8, 8, 3, 3), (8,), (16, 8, 3, 3), (16,),
            (16, 16, 3, 3), (16,), (flat, 128), (128,), (128, 3), (3,)]


def write_vgg_nano_weights(path, size, seed):
    """He-uniform weights and small random biases in CAMF0001 layout."""
    rng = _rng(seed, size, 7)
    with open(path, "wb") as f:
        f.write(CAMF_MAGIC + vgg_nano_spec(size).encode() + b"\n")
        for shape in vgg_nano_shapes(size):
            if len(shape) == 1:
                arr = 0.01 * rng.standard_normal(shape)
            else:
                fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
                bound = np.sqrt(6.0 / fan_in)
                arr = rng.uniform(-bound, bound, shape)
            f.write(struct.pack("<I", len(shape)))
            f.write(struct.pack(f"<{len(shape)}I", *shape))
            f.write(arr.astype("<f8").tobytes())


def decode_netpbm(raw):
    """(magic, uint8 (H, W, C) array) of a binary P5/P6 file with maxval 255.

    Raises ValueError on anything else, including short pixel data.
    """
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"bad magic {magic!r}")
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        end = pos
        while end < len(raw) and not raw[end:end + 1].isspace():
            end += 1
        if end == pos:
            raise ValueError("truncated header")
        tokens.append(int(raw[pos:end]))
        pos = end
    w, h, maxval = tokens
    if maxval != 255:
        raise ValueError(f"maxval {maxval}")
    c = 1 if magic == b"P5" else 3
    pixels = raw[pos + 1:]
    if len(pixels) != w * h * c:
        raise ValueError(f"{len(pixels)} pixel bytes for {w}x{h}x{c}")
    return magic, np.frombuffer(pixels, np.uint8).reshape(h, w, c)
