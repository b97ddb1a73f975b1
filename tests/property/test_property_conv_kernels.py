"""Bitwise parity of the conv/pool kernels against the index-scatter seed.

``im2col`` / ``col2im`` / ``max_pool2d`` in :mod:`repro.autograd.ops` are
strided-view kernels.  The reference is the seed implementation they
replaced, kept verbatim in ``benchmarks/bench_hotpath.py`` (the conv
microbench times the same pair): the CS231n fancy-index ``im2col``, the
``np.add.at`` ``col2im`` and the reduce-then-``put_along_axis`` max-pool.
Every comparison is ``array_equal`` on the int64 views, so a flipped zero
sign or a reordered floating-point sum fails it.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.autograd import Tensor, max_pool2d
from repro.autograd.ops import _conv_output_size, col2im, im2col

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from bench_hotpath import (  # noqa: E402  (needs the path insert above)
    bits_equal,
    seed_col2im,
    seed_im2col,
    seed_max_pool2d,
)


# --------------------------------------------------------------------- #
# Strategies: signed zeros, exact ties and ReLU-style activations
# --------------------------------------------------------------------- #
_ZEROS = np.array([0.0, -0.0])
_TIES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5])


@st.composite
def _field(draw, shape):
    """Signed zeros and exact ties mixed with generic values whose sums
    round differently in a different order (magnitudes 1e-3 .. 1e3)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = rng.choice(draw(st.sampled_from([_ZEROS, _TIES])), size=shape)
    generic = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return np.where(rng.random(shape) < share, special, generic)


@st.composite
def _activations(draw, shape):
    x = draw(_field(shape))
    if draw(st.booleans()):
        x = x * (x > 0)  # ReLU output: negative entries become -0.0
    return x


@st.composite
def _conv_cases(draw):
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    kh = draw(st.integers(1, 3))
    kw = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 2))
    assume(h + 2 * padding >= kh and w + 2 * padding >= kw)
    return (n, c, h, w), kh, kw, stride, padding


class TestConvKernelsBitwise:
    @given(_conv_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_im2col_matches_reference(self, case, data):
        shape, kh, kw, stride, padding = case
        x = data.draw(_activations(shape))
        cols = im2col(x, kh, kw, stride, padding)
        assert bits_equal(cols, seed_im2col(x, kh, kw, stride, padding))
        assert cols.flags.c_contiguous

    @given(_conv_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_col2im_matches_reference(self, case, data):
        shape, kh, kw, stride, padding = case
        out_h = _conv_output_size(shape[2], kh, stride, padding)
        out_w = _conv_output_size(shape[3], kw, stride, padding)
        cols = data.draw(_field((shape[1] * kh * kw, out_h * out_w * shape[0])))
        back = col2im(cols, shape, kh, kw, stride, padding)
        assert bits_equal(back, seed_col2im(cols, shape, kh, kw, stride, padding))
        assert back.flags.c_contiguous


class TestMaxPoolBitwise:
    # Kernels up to 7: the whole range over which max_pool2d's docstring
    # states bitwise equality with the seed's strided reduction.
    @given(
        st.integers(1, 7),
        st.integers(1, 2),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_max_pool2d_matches_reference(self, kernel, n, c, oh, ow, data):
        shape = (n, c, oh * kernel, ow * kernel)
        x = data.draw(_activations(shape))
        g = data.draw(_field((n, c, oh, ow)))
        for upstream in (np.ones_like(g), g):  # routing mask, then gradient
            ref, new = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
            ref_out, out = seed_max_pool2d(ref, kernel), max_pool2d(new, kernel)
            assert bits_equal(out.data, ref_out.data)
            ref_out.backward(upstream)
            out.backward(upstream)
            assert bits_equal(new.grad, ref.grad)
