"""Property tests: the spec grammar round-trips, malformed spec text,
weight files and Netpbm bytes end in a CamnetError, never another
exception, and the cached-plan rotation and the banded conv give their
references' bytes.
Derandomized, so every run checks the same examples."""

import re
from unittest import mock

import hypothesis.strategies as st
import kernels_ref
import numpy as np
import pytest
from hypothesis import assume, given, settings

from camnet import data, model as nn, ops
from camnet.errors import BuildError, CamnetError

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300, database=None)

_ints = st.integers(-2, 5)
_rates = st.floats(allow_nan=False)
# class names as directory names spell them, with the separators of the
# spec text (`,` between names and `;` between fields) now and then
_names = st.text("abcxyz_-.0123456789,;", min_size=1, max_size=6)


_layers = st.one_of(
    st.builds(nn.Conv, _ints, _ints, _ints, _ints),
    st.builds(nn.Dense, _ints),
    st.builds(nn.Dropout, _rates),
    st.sampled_from([nn.MaxPool2(), nn.ReLU(), nn.Flatten(), nn.SoftmaxOutput()]),
)
_specs = st.builds(nn.ModelSpec, st.tuples(_ints, _ints, _ints),
                   st.lists(_layers, min_size=1, max_size=8).map(tuple),
                   st.lists(_names, min_size=1, max_size=4).map(tuple))

# near-valid spec text: known tokens with small or bad parameters, stray
# tokens, and a final Softmax, so that shape validation runs on most of it
_tokens = st.one_of(
    st.sampled_from(["MaxPool2", "ReLU", "Flatten", "Softmax", "Dense()", "Conv(1,2)"]),
    st.builds("Conv({},{},{},{})".format, _ints, _ints, _ints, _ints),
    st.builds("Dense({})".format, _ints),
    st.builds("Dropout({})".format, st.floats(-1.0, 2.0)),
    st.text(max_size=8),
)
_spec_texts = st.builds(
    "input={}x{}x{};layers={}|Softmax;classes={}".format, _ints, _ints, _ints,
    st.lists(_tokens, max_size=7).map("|".join), st.sampled_from(["a,b,c", "a", "a,b"]))
_any_text = st.one_of(st.text(), _spec_texts)


@SETTINGS
@given(_specs)
def test_canonical_text_parses_back_to_the_spec(spec):
    bad = [name for name in spec.class_names if "," in name or ";" in name]
    if bad:  # such a spec is rejected before it can be written
        with pytest.raises(BuildError, match=re.escape(f"class name {bad[0]!r} holds")):
            nn.validate_spec(spec)
    else:
        assert nn.parse_spec_text(spec.canonical()) == spec


@SETTINGS
@given(_any_text)
def test_spec_text_fails_only_with_camnet_errors(text):
    try:
        nn.validate_spec(nn.parse_spec_text(text))
    except CamnetError:
        pass


@SETTINGS
@given(st.one_of(
    st.binary(),
    st.builds(lambda text, tail: nn.WEIGHT_MAGIC + text.encode() + b"\n" + tail,
              _spec_texts, st.binary(max_size=64)),
))
def test_weight_bytes_fail_only_with_camnet_errors(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.camf"
    path.write_bytes(raw)
    try:
        nn.load_weights(None, path)
    except CamnetError:
        pass


@SETTINGS
@given(st.one_of(
    st.binary(),
    st.builds(lambda head, body: head + body,
              st.sampled_from([b"P5 ", b"P6 ", b"P5 2 2 255\n", b"P6 1 1 255 "]),
              st.binary(max_size=32)),
))
def test_netpbm_bytes_fail_only_with_camnet_errors(raw):
    try:
        data.decode_netpbm(raw)
    except CamnetError:
        pass


@SETTINGS
@given(st.integers(1, 39), st.integers(1, 39), st.sampled_from([1, 3]),
       st.one_of(st.sampled_from([0.0, -0.0, 90.0, -90.0, 180.0]),
                 st.floats(-720.0, 720.0)),
       st.sampled_from([0.0, 0.5, -1.0, 0.1]), st.sampled_from([np.float64, np.float32]),
       st.integers(0, 2**32 - 1))
def test_rotation_gives_reference_bytes(h, w, c, degrees, fill, dtype, seed):
    img = np.random.default_rng(seed).random((h, w, c)).astype(dtype)
    want = kernels_ref.rotate_bilinear_reference(img, degrees, fill)
    got = data.rotate_bilinear(img, degrees, fill)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


_conv_hw = st.one_of(st.sampled_from([(1, 1), (1, 17), (17, 1)]),
                     st.tuples(st.integers(1, 20), st.integers(1, 20)))


@SETTINGS
@given(st.integers(1, 3), st.sampled_from([1, 3, 8, 16]),
       st.sampled_from([8, 16, 32]),  # preset widths; see kernels_ref
       st.integers(1, 3), st.integers(1, 2), st.integers(0, 2), _conv_hw,
       st.sampled_from([1, 700, 5000, ops.CONV_BAND_BYTES]), st.integers(0, 2**32 - 1),
       st.sampled_from([(np.float64, False), (np.float32, False), (np.float64, True),
                        (np.float32, True)]))
def test_banded_conv_gives_reference_bytes(n, c, o, k, stride, pad, hw, band_bytes,
                                           seed, mode):
    """Banded or whole-batch, with its bias added as a row, the conv gives
    the bytes of the reference's broadcast bias add."""
    h, w = hw
    assume(h + 2 * pad >= k and w + 2 * pad >= k)
    dtype, return_cols = mode
    r = np.random.default_rng(seed)
    x = r.standard_normal((n, h, w, c)).astype(dtype)
    weights = r.standard_normal((o, c, k, k)).astype(dtype)
    bias = r.standard_normal(o).astype(dtype)
    with mock.patch.object(ops, "CONV_BAND_BYTES", band_bytes):
        got = ops.conv2d_nhwc(x, weights, bias, stride, pad, return_cols=return_cols)
    want = kernels_ref.conv2d_nhwc_reference(x, weights, bias, stride, pad)
    if return_cols:
        got, cols = got
        assert cols.shape == (want.size // o, k * k * c)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
