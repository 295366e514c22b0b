"""Tests for the reverse-mode tensor engine and layer library."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from beamkit.autodiff import (
    LSTM,
    AxisNorm,
    Conv2d,
    ConvTranspose2d,
    Initializer,
    Linear,
    Module,
    PReLU,
    Tensor,
    axis_norm,
    causal_crop,
    concat,
    conv2d,
    deconv2d,
    downsampled_width,
    finite_difference_check,
    glu,
    lstm_sequence,
    lstm_step,
    magnitude,
    matmul,
    no_grad,
    prelu,
    relu,
    sigmoid,
    split_glu,
    tanh,
)
from beamkit.autodiff import tensor
from beamkit.autodiff.tensor import _check_finite, _scatter, _tap_products, _windows
from beamkit.errors import NonFiniteError, ValidationError


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# brute-force oracles


def conv2d_loops(x, w, b, stride, dilation):
    """Direct nested-loop 2-D convolution, the oracle for the gather path."""
    n, c_in, t_in, f_in = x.shape
    c_out, _, kt, kf = w.shape
    (st, sf), (dt, df) = stride, dilation
    t_out = (t_in - (kt - 1) * dt - 1) // st + 1
    f_out = (f_in - (kf - 1) * df - 1) // sf + 1
    out = np.zeros((n, c_out, t_out, f_out))
    for ni in range(n):
        for o in range(c_out):
            for ti in range(t_out):
                for fi in range(f_out):
                    acc = b[o]
                    for c in range(c_in):
                        for it in range(kt):
                            for jf in range(kf):
                                acc += (
                                    w[o, c, it, jf]
                                    * x[ni, c, ti * st + it * dt, fi * sf + jf * df]
                                )
                    out[ni, o, ti, fi] = acc
    return out


def deconv2d_loops(x, w, b, stride):
    """Direct nested-loop transposed convolution oracle."""
    n, c_in, t_in, f_in = x.shape
    _, c_out, kt, kf = w.shape
    st, sf = stride
    t_out = (t_in - 1) * st + kt
    f_out = (f_in - 1) * sf + kf
    out = np.zeros((n, c_out, t_out, f_out))
    out += b.reshape(1, c_out, 1, 1)
    for ni in range(n):
        for c in range(c_in):
            for ti in range(t_in):
                for fi in range(f_in):
                    for o in range(c_out):
                        for it in range(kt):
                            for jf in range(kf):
                                out[ni, o, ti * st + it, fi * sf + jf] += (
                                    x[ni, c, ti, fi] * w[c, o, it, jf]
                                )
    return out


def conv2d_grad_loops(x, w, g, stride, dilation):
    """Per-position loop oracle for conv2d's (dx, dw, db) given upstream ``g``."""
    (st, sf), (dt, df) = stride, dilation
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    n, _, t_out, f_out = g.shape
    for ni in range(n):
        for ti in range(t_out):
            for fi in range(f_out):
                for it in range(w.shape[2]):
                    for jf in range(w.shape[3]):
                        t, f = ti * st + it * dt, fi * sf + jf * df
                        gx[ni, :, t, f] += w[:, :, it, jf].T @ g[ni, :, ti, fi]
                        gw[:, :, it, jf] += np.outer(g[ni, :, ti, fi], x[ni, :, t, f])
    return gx, gw, g.sum(axis=(0, 2, 3))


def deconv2d_grad_loops(x, w, g, stride):
    """Per-position loop oracle for deconv2d's (dx, dw, db) given upstream ``g``."""
    st, sf = stride
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    n, _, t_in, f_in = x.shape
    for ni in range(n):
        for ti in range(t_in):
            for fi in range(f_in):
                for it in range(w.shape[2]):
                    for jf in range(w.shape[3]):
                        t, f = ti * st + it, fi * sf + jf
                        gx[ni, :, ti, fi] += w[:, :, it, jf] @ g[ni, :, t, f]
                        gw[:, :, it, jf] += np.outer(x[ni, :, ti, fi], g[ni, :, t, f])
    return gx, gw, g.sum(axis=(0, 2, 3))


def lstm_step_loops(x, h, c, w_ih, w_hh, bias):
    """Scalar (per-unit) LSTM cell oracle."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    batch, hidden = h.shape
    h2 = np.zeros_like(h)
    c2 = np.zeros_like(c)
    for bi in range(batch):
        for u in range(hidden):
            pre = [0.0] * 4
            for gate in range(4):
                row = gate * hidden + u
                acc = bias[row]
                for j in range(x.shape[1]):
                    acc += w_ih[row, j] * x[bi, j]
                for j in range(hidden):
                    acc += w_hh[row, j] * h[bi, j]
                pre[gate] = acc
            i, f, g, o = sig(pre[0]), sig(pre[1]), np.tanh(pre[2]), sig(pre[3])
            c2[bi, u] = f * c[bi, u] + i * g
            h2[bi, u] = o * np.tanh(c2[bi, u])
    return h2, c2


# ---------------------------------------------------------------------------


def without_finite_checks(monkeypatch):
    """Make every finite check a no-op, so a test can show which values an
    op would return unchecked."""
    monkeypatch.setattr(tensor, "_check_finite", lambda data, op: None)


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_fanout_accumulates(self):
        x = Tensor(np.ones(5), requires_grad=True)
        ((x + x) * 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, 2 * np.ones(5))

    def test_backward_on_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValidationError):
            (x * 2.0).backward()

    def test_second_backward_without_retain_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(ValidationError):
            loss.backward()

    def test_backward_through_a_freed_shared_node_rejected(self):
        # ``hidden`` feeds both losses; the first pass frees it, so the
        # second could only hand x a part of its gradient.
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = x * 2.0
        first, second = hidden.sum(), (hidden * hidden).sum()
        first.backward()
        with pytest.raises(ValidationError, match="already freed"):
            second.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones(3))

    def test_plain_backward_frees_intermediates_keeps_leaves(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        w = Tensor(np.full(4, 2.0), requires_grad=True)
        hidden = x * w
        loss = (hidden * hidden).sum()
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        assert hidden._parents == () and hidden._backward_fn is None
        np.testing.assert_array_equal(x.grad, 8.0 * x.data)
        np.testing.assert_array_equal(w.grad, 2.0 * x.data**2 * 2.0)

    def test_backward_releases_gradients_as_it_goes(self):
        # A 16-op chain: keeping every intermediate gradient to the end of
        # the pass would grow the traced peak by ~16 arrays; freeing each
        # node once it has run bounds it by the few live at one step.
        n = 1_000_000
        x = Tensor(np.ones(n), requires_grad=True)
        y = x
        for _ in range(16):
            y = y * 1.0001
        loss = y.sum()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 4 * x.data.nbytes
        np.testing.assert_allclose(x.grad, 1.0001**16, rtol=1e-14)

    def test_graph_keeps_no_output_that_backward_does_not_read(self):
        # axis_norm's backward reads only its own saved state, so the
        # conv output feeding it dies with its tensor, while the loss,
        # and with it the graph, is still alive.
        rng = np.random.default_rng(8)
        x, w = leaf(rng, 1, 2, 5, 6), leaf(rng, 3, 2, 2, 3)
        gamma, beta = leaf(rng, 3), leaf(rng, 3)
        conv_out = conv2d(x, w, padding=(1, 1))
        conv_data = weakref.ref(conv_out.data)
        loss = (axis_norm(conv_out, gamma, beta, (3,)) ** 2.0).sum()
        del conv_out
        assert conv_data() is None
        loss.backward()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_input_that_backward_reads_lives_until_backward(self):
        # conv2d's weight gradient reads its input, so an intermediate
        # input stays alive until the conv's closure has run, and only
        # while the weight gradient is wanted.
        rng = np.random.default_rng(9)
        x, w = leaf(rng, 1, 2, 5, 6), leaf(rng, 3, 2, 2, 3)
        hidden = x * 2.0
        hidden_data = weakref.ref(hidden.data)
        loss = (conv2d(hidden, w) ** 2.0).sum()
        del hidden
        assert hidden_data() is not None
        loss.backward()
        assert hidden_data() is None

        hidden = x * 2.0
        hidden_data = weakref.ref(hidden.data)
        loss = (conv2d(hidden, Tensor(w.data)) ** 2.0).sum()
        del hidden
        assert hidden_data() is None

    def test_gradients_never_share_memory(self):
        # First gradients are stored without a copy; the ones an op may
        # share (x + x hands one array to both sides, the shape ops hand
        # views of the child's gradient) must still be copied.  Backward
        # frees each intermediate gradient, so every closure is wrapped to
        # keep the gradient it is handed.
        rng = np.random.default_rng(5)
        x = leaf(rng, 2, 6)
        y = leaf(rng, 2, 3)

        def forward():
            doubled = x + x
            flat = doubled.reshape((12,))
            grid = flat.reshape((2, 6))
            part = grid.narrow(1, 1, 3)
            joined = concat([part, y], axis=1)
            summed = joined.sum(axis=0)
            loss = (summed * summed).sum() + (grid * 0.5).sum()
            return [doubled, flat, grid, part, joined, summed, loss]

        handed = []
        intermediates = forward()
        for t in intermediates:
            def keep(g, run=t._backward_fn):
                handed.append(g)
                run(g)

            t._backward_fn = keep
        intermediates[-1].backward()
        grads = [x.grad, y.grad] + handed
        assert len(grads) == 9
        for i, a in enumerate(grads):
            for b in grads[i + 1 :]:
                assert not np.shares_memory(a, b)
        once = [t.grad.copy() for t in (x, y)]
        forward()[-1].backward()  # a second pass needs a second forward
        for t, single in zip((x, y), once):
            np.testing.assert_array_equal(t.grad, 2.0 * single)

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 3.0).sum()
        assert not y.requires_grad
        assert y._parents == ()

    def test_finite_check_trips_on_inf(self, monkeypatch):
        x = Tensor(np.zeros(3))
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteError):
                x ** -1.0
            without_finite_checks(monkeypatch)
            y = x ** -1.0
            assert np.all(np.isinf(y.data))

    def test_finite_check_passes_finite_data_whose_sum_overflows(self):
        _check_finite(np.full(4, 1e308), "op")
        _check_finite(np.full(4, -1e308), "op")
        _check_finite(np.zeros(0), "op")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("position", [0, 5, 10])
    def test_finite_check_finds_one_bad_value(self, bad, position):
        for base in (np.ones(11), np.full(11, 1e308)):
            data = base.copy()
            data[position] = bad
            with pytest.raises(NonFiniteError, match="'probe'"):
                _check_finite(data, "probe")
            with pytest.raises(NonFiniteError):
                _check_finite(data.reshape(1, 11)[:, ::-1], "probe")

    def test_two_linears_equal_product_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((3, 4))
        x1 = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        chained = matmul(Tensor(b), matmul(Tensor(a), x1))
        product = matmul(Tensor(b @ a), x2)
        np.testing.assert_allclose(chained.data, product.data, atol=1e-12)
        (chained * chained).sum().backward()
        (product * product).sum().backward()
        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-10)


class TestConvForward:
    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 1, 4, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_causal_current_frame_tap_is_identity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((1, 1, 6, 3)))
        w = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 2, 1))
        padded = x.pad(((0, 0), (0, 0), (1, 0), (0, 0)))  # causal: past side only
        out = conv2d(padded, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_causal_past_frame_tap_is_unit_delay(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((1, 1, 6, 3)))
        w = Tensor(np.array([1.0, 0.0]).reshape(1, 1, 2, 1))
        padded = x.pad(((0, 0), (0, 0), (1, 0), (0, 0)))
        out = conv2d(padded, w)
        np.testing.assert_array_equal(out.data[:, :, 0, :], 0.0)
        np.testing.assert_array_equal(out.data[:, :, 1:, :], x.data[:, :, :-1, :])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        dilation = (int(rng.integers(1, 3)), 1)
        kt, kf = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        x = rng.standard_normal((2, 3, 2 + (kt - 1) * dilation[0] + 3, 3 + kf * 2))
        w = rng.standard_normal((4, 3, kt, kf))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, dilation=dilation)
        expected = conv2d_loops(x, w, b, stride, dilation)
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 4, 1, 1)))
        with pytest.raises(ValidationError, match="channel"):
            conv2d(x, w)

    def test_kernel_larger_than_input_rejected(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 3, 1)))
        with pytest.raises(ValidationError):
            conv2d(x, w)


class TestDeconvForward:
    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 1, 4, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = deconv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        kt, kf = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((3, 2, kt, kf))
        b = rng.standard_normal(2)
        out = deconv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride)
        expected = deconv2d_loops(x, w, b, stride)
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_of_conv(self, seed):
        # <conv(x), y> == <x, deconv(y)> with the SAME weight array: the
        # conv layout (out, in, kt, kf) read as the deconv layout
        # (in, out, kt, kf) is exactly the adjoint map, provided the
        # geometry divides exactly (t_in = (t_out-1)*stride + kernel).
        rng = np.random.default_rng(20 + seed)
        st, sf = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        kt, kf = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        t_out, f_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        t_in = (t_out - 1) * st + kt
        f_in = (f_out - 1) * sf + kf
        x = rng.standard_normal((2, 3, t_in, f_in))
        w = rng.standard_normal((4, 3, kt, kf))
        y = rng.standard_normal((2, 4, t_out, f_out))
        cx = conv2d(Tensor(x), Tensor(w), stride=(st, sf)).data
        dy = deconv2d(Tensor(y), Tensor(w), stride=(st, sf)).data
        assert np.vdot(cx, y) == pytest.approx(np.vdot(x, dy), rel=1e-10)

    def test_width_chain_roundtrip(self):
        # Frequency widths through the default encoder geometry
        # (kernel 3, stride 2, one leading zero-pad): 161 -> 80 -> 40 ->
        # 20 -> 10 -> 5, then the decoder (crop 1 left, right-adjust)
        # restores each width back up to 161.
        rng = np.random.default_rng(30)
        init = Initializer(0)
        widths = [161]
        x = Tensor(rng.standard_normal((1, 2, 3, 161)))
        downs = []
        for _ in range(5):
            conv = Conv2d(2, 2, (1, 3), init, stride=(1, 2))
            x = conv(x)
            downs.append(conv)
            widths.append(x.shape[-1])
        assert widths == [161, 80, 40, 20, 10, 5]
        for target in [10, 20, 40, 80, 161]:
            deconv = ConvTranspose2d(2, 2, (1, 3), init, stride=(1, 2))
            x = causal_crop(deconv(x), x.shape[2], target)
            assert x.shape[-1] == target
        assert x.shape[-1] == 161


# The model's convolution geometries at small channel counts: gated
# encoder conv (2, 3) / (1, 2) with causal time and leading frequency
# padding, refiner conv (1, 3) / (1, 2), dilated temporal convs (5, 1)
# and the 1x1 squeeze/expand convs.
MODEL_CONV_GEOMETRIES = [
    # (kernel, stride, dilation, padding of (time, freq), input (t, f))
    ((2, 3), (1, 2), (1, 1), ((1, 0), (1, 0)), (6, 11)),
    ((1, 3), (1, 2), (1, 1), ((0, 0), (1, 0)), (5, 11)),
    ((5, 1), (1, 1), (1, 1), ((4, 0), (0, 0)), (7, 1)),
    ((5, 1), (1, 1), (2, 1), ((8, 0), (0, 0)), (7, 1)),
    ((5, 1), (1, 1), (16, 1), ((64, 0), (0, 0)), (7, 1)),
    ((1, 1), (1, 1), (1, 1), ((0, 0), (0, 0)), (5, 4)),
]
MODEL_DECONV_GEOMETRIES = [
    # (kernel, stride, input (t, f))
    ((2, 3), (1, 2), (5, 6)),
    ((1, 3), (1, 2), (5, 6)),
    ((1, 1), (1, 1), (5, 4)),
    ((2, 3), (2, 2), (4, 3)),
]


class TestConvBackwardOracle:
    @pytest.mark.parametrize(
        "kernel,stride,dilation,padding,extent",
        MODEL_CONV_GEOMETRIES,
        ids=["gated-2x3", "refiner-1x3", "temporal-d1", "temporal-d2", "temporal-d16", "pointwise"],
    )
    def test_conv2d_grads_match_loops(self, kernel, stride, dilation, padding, extent):
        rng = np.random.default_rng(sum(kernel) + 7 * dilation[0])
        x = leaf(rng, 2, 3, *extent)
        w = leaf(rng, 4, 3, *kernel)
        b = leaf(rng, 4)
        padded = x.pad(((0, 0), (0, 0)) + padding)
        out = conv2d(padded, w, b, stride=stride, dilation=dilation)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        gx, gw, gb = conv2d_grad_loops(padded.data, w.data, g, stride, dilation)
        (tp, _), (fp, _) = padding
        assert np.max(np.abs(x.grad - gx[:, :, tp:, fp:])) <= 1e-10
        assert np.max(np.abs(w.grad - gw)) <= 1e-10
        assert np.max(np.abs(b.grad - gb)) <= 1e-10

    @pytest.mark.parametrize(
        "kernel,stride,extent",
        MODEL_DECONV_GEOMETRIES,
        ids=["gated-2x3", "refiner-1x3", "pointwise", "stride-2x2"],
    )
    def test_deconv2d_grads_match_loops(self, kernel, stride, extent):
        rng = np.random.default_rng(sum(kernel) + 3 * stride[0])
        x = leaf(rng, 2, 3, *extent)
        w = leaf(rng, 3, 4, *kernel)
        b = leaf(rng, 4)
        out = deconv2d(x, w, b, stride=stride)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        gx, gw, gb = deconv2d_grad_loops(x.data, w.data, g, stride)
        assert np.max(np.abs(x.grad - gx)) <= 1e-10
        assert np.max(np.abs(w.grad - gw)) <= 1e-10
        assert np.max(np.abs(b.grad - gb)) <= 1e-10


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    stride=strategies.tuples(strategies.integers(1, 2), strategies.integers(1, 2)),
    dilation_t=strategies.integers(1, 3),
    kernel=strategies.tuples(strategies.integers(1, 5), strategies.integers(1, 3)),
    batch=strategies.integers(1, 2),
    extra=strategies.tuples(strategies.integers(0, 3), strategies.integers(0, 3)),
    seed=strategies.integers(0, 2**16),
)
def test_conv_and_deconv_forward_match_loops(stride, dilation_t, kernel, batch, extra, seed):
    rng = np.random.default_rng(seed)
    kt, kf = kernel
    x = rng.standard_normal((batch, 2, (kt - 1) * dilation_t + 1 + extra[0], kf + extra[1]))
    w = rng.standard_normal((3, 2, kt, kf))
    b = rng.standard_normal(3)
    dilation = (dilation_t, 1)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, dilation=dilation)
    assert np.max(np.abs(out.data - conv2d_loops(x, w, b, stride, dilation))) <= 1e-12
    y = rng.standard_normal((batch, 3, 1 + extra[0], 1 + extra[1]))
    out = deconv2d(Tensor(y), Tensor(w), Tensor(b[:2]), stride=stride)
    assert np.max(np.abs(out.data - deconv2d_loops(y, w, b[:2], stride))) <= 1e-12


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 3.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_prelu_values(self):
        x = Tensor(np.array([[-2.0, 4.0]]).T.reshape(2, 1))
        alpha = Tensor(np.array([0.25]))
        out = prelu(x, alpha, channel_axis=1)
        np.testing.assert_allclose(out.data, [[-0.5], [4.0]])

    def test_prelu_alpha_one_is_identity(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        out = prelu(x, Tensor(np.ones(3)), channel_axis=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_prelu_alpha_zero_is_relu(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        out = prelu(x, Tensor(np.zeros(3)), channel_axis=1)
        np.testing.assert_array_equal(out.data, np.maximum(x.data, 0.0))

    def test_prelu_matches_where_formula(self):
        rng = np.random.default_rng(15)
        extremes = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]
        x = np.concatenate([rng.standard_normal(2_000) * 4, extremes] * 3).reshape(3, -1)
        alpha = np.array([0.25, -0.7, 0.0])
        want = np.where(x < 0, alpha[:, None] * x, x)
        out = prelu(Tensor(x), Tensor(alpha), channel_axis=0)
        np.testing.assert_array_equal(out.data, want)

    def test_sigmoid_tanh_values_and_stability(self):
        x = np.array([-1000.0, 0.0, 1000.0])
        s = sigmoid(Tensor(x))
        np.testing.assert_allclose(s.data, [0.0, 0.5, 1.0], atol=1e-12)
        t = tanh(Tensor(x))
        np.testing.assert_allclose(t.data, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_sigmoid_bits_match_reference_formula(self):
        rng = np.random.default_rng(9)
        extremes = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0]
        x = np.concatenate([rng.standard_normal(20_000) * 8, extremes])
        e = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        np.testing.assert_array_equal(sigmoid(Tensor(x)).data.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("out", ["none", "given", "in-place"])
    def test_sigmoid_float_mask_matches_bool_mask(self, out):
        # The numerator's mask is a float array; the bool-mask form it
        # replaced, np.maximum(e, x >= 0), is the oracle.  The LSTM calls
        # it in place on its gate planes.
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, -0.0, tiny, -tiny, 700.0, -700.0, 800.0, -800.0, np.nan])
        plane = np.random.default_rng(10).standard_normal((3, 322, 16)) * 8
        for x in (special, plane):
            e = np.exp(-np.abs(x))
            want = np.maximum(e, x >= 0) / (e + 1.0)
            buf = {"none": None, "given": np.empty_like(x), "in-place": x}[out]
            got = tensor._sigmoid(x, out=buf)
            assert buf is None or got is buf
            assert np.array_equal(got, want, equal_nan=True)

    def test_glu_gate_zero_halves_linear(self):
        rng = np.random.default_rng(7)
        lin = Tensor(rng.standard_normal((3, 4)))
        out = glu(lin, Tensor(np.zeros((3, 4))))
        np.testing.assert_allclose(out.data, 0.5 * lin.data, atol=1e-15)

    def test_glu_saturated_gate_passes_linear(self):
        rng = np.random.default_rng(8)
        lin = Tensor(rng.standard_normal((3, 4)))
        out = glu(lin, Tensor(np.full((3, 4), 50.0)))
        np.testing.assert_allclose(out.data, lin.data, atol=1e-10)

    def test_glu_hand_case(self):
        out = glu(Tensor(np.array([1.0, 2.0])), Tensor(np.array([0.0, 0.0])))
        np.testing.assert_allclose(out.data, [0.5, 1.0])

    def test_glu_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            glu(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_magnitude_exact_and_zero_safe(self):
        re = Tensor(np.array([3.0, 0.0]), requires_grad=True)
        im = Tensor(np.array([4.0, 0.0]), requires_grad=True)
        m = magnitude(re, im)
        np.testing.assert_array_equal(m.data, [5.0, 0.0])
        m.sum().backward()
        np.testing.assert_allclose(re.grad, [3.0 / 5.0, 0.0])
        np.testing.assert_allclose(im.grad, [4.0 / 5.0, 0.0])


class TestNorms:
    def make(self, axes, channels=3, seed=9):
        init = Initializer(seed)
        return AxisNorm(channels, axes, init)

    def test_instance_norm_constant_input_gives_zeros(self):
        norm = self.make(axes=(2, 3))
        out = norm(Tensor(np.full((2, 3, 4, 5), 7.0)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-10)

    def test_instance_norm_standardizes(self):
        rng = np.random.default_rng(10)
        norm = self.make(axes=(2, 3))
        out = norm(Tensor(rng.standard_normal((2, 3, 8, 9)))).data
        np.testing.assert_allclose(out.mean(axis=(2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=(2, 3)), 1.0, atol=1e-3)

    def test_instance_norm_affine_override(self):
        rng = np.random.default_rng(11)
        norm = self.make(axes=(2, 3))
        norm.gamma.data[:] = 0.0
        norm.beta.data[:] = 5.0
        out = norm(Tensor(rng.standard_normal((2, 3, 4, 5))))
        np.testing.assert_allclose(out.data, 5.0, atol=1e-12)

    def test_channel_norm_matches_direct_formula(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 6, 4, 5))
        norm = self.make(axes=(1,), channels=6)
        out = norm(Tensor(x)).data
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-5)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_channel_norm_affine_invariance(self):
        # Exact invariance only holds for eps == 0; scaling the input so
        # the variance dwarfs eps=1e-5 makes the residual effect < 1e-6.
        rng = np.random.default_rng(13)
        x = 100.0 * rng.standard_normal((2, 6, 4, 5))
        norm = self.make(axes=(1,), channels=6)
        a = norm(Tensor(x)).data
        b = norm(Tensor(3.7 * x + 2.2)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_frame_norm_is_causal(self):
        # Statistics over frequency only: corrupting later frames must not
        # change earlier outputs at all.
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 3, 6, 5))
        norm = self.make(axes=(3,))
        full = norm(Tensor(x)).data
        corrupted = x.copy()
        corrupted[:, :, 4:, :] = 99.0
        partial = norm(Tensor(corrupted)).data
        np.testing.assert_array_equal(full[:, :, :4, :], partial[:, :, :4, :])


def axis_norm_unfused(x, gamma, beta, axes, channel_axis=1, eps=1e-5):
    """Normalization as a graph of elementary ops: the fused op's oracle."""
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    normalized = centered * ((var + eps) ** -0.5)
    view = [1] * x.ndim
    view[channel_axis] = gamma.shape[0]
    return normalized * gamma.reshape(view) + beta.reshape(view)


class TestAxisNormFused:
    def problem(self, seed, shape=(2, 4, 6, 7)):
        rng = np.random.default_rng(seed)
        arrays = [
            3.0 * rng.standard_normal(shape) + 1.5,
            rng.standard_normal(shape[1]),
            rng.standard_normal(shape[1]),
        ]
        return arrays, rng.standard_normal(shape)

    @pytest.mark.parametrize("axes", [(3,), (1,), (2, 3)])
    def test_matches_unfused_graph(self, axes):
        arrays, upstream = self.problem(40 + len(axes) + axes[0])
        results = []
        for fn in (axis_norm, axis_norm_unfused):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*leaves, axes)
            (out * Tensor(upstream)).sum().backward()
            results.append([out.data] + [t.grad for t in leaves])
        (out, *grads), (want_out, *want_grads) = results
        np.testing.assert_array_equal(out, want_out)
        for name, got, want in zip(("dx", "dgamma", "dbeta"), grads, want_grads):
            err = np.max(np.abs(got - want))
            assert err <= 1e-12 * np.max(np.abs(want)), (name, err)

    def test_module_forward_is_one_node(self):
        norm = AxisNorm(4, (3,), Initializer(3))
        x = Tensor(np.ones((1, 4, 2, 5)), requires_grad=True)
        out = norm(x)
        assert out._op == "axis_norm"
        assert out._parents == (x, norm.gamma, norm.beta)

    def test_overflowing_variance_raises(self, monkeypatch):
        # Finite inputs whose squared deviations overflow: the variance is
        # inf, so the inverse deviation is 0 and the output stays finite;
        # only the check on the variance catches it.
        arrays, _ = self.problem(44)
        args = [Tensor(arrays[0] * 1e200), Tensor(arrays[1]), Tensor(arrays[2])]
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="axis_norm"):
                axis_norm(*args, (3,))
            without_finite_checks(monkeypatch)
            assert np.all(np.isfinite(axis_norm(*args, (3,)).data))

    def test_affine_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            axis_norm(Tensor(np.zeros((1, 3, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), (2,))


class TestLSTM:
    def test_zero_cell_fixed_point(self):
        h, c = lstm_step(
            Tensor(np.zeros((2, 3))),
            Tensor(np.zeros((2, 4))),
            Tensor(np.zeros((2, 4))),
            Tensor(np.zeros((16, 3))),
            Tensor(np.zeros((16, 4))),
            Tensor(np.zeros(16)),
        )
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(c.data, 0.0)

    def test_gate_saturation_preserves_cell(self):
        hidden = 4
        bias = np.full(4 * hidden, -50.0)
        bias[hidden : 2 * hidden] = 50.0  # forget gate wide open
        h, c = lstm_step(
            Tensor(np.zeros((1, 3))),
            Tensor(np.zeros((1, hidden))),
            Tensor(np.ones((1, hidden))),
            Tensor(np.zeros((4 * hidden, 3))),
            Tensor(np.zeros((4 * hidden, hidden))),
            Tensor(bias),
        )
        np.testing.assert_allclose(c.data, 1.0, atol=1e-10)
        np.testing.assert_allclose(h.data, 0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(40 + seed)
        batch, inputs, hidden = 2, 3, 4
        x = rng.standard_normal((batch, inputs))
        h0 = rng.standard_normal((batch, hidden))
        c0 = rng.standard_normal((batch, hidden))
        w_ih = rng.standard_normal((4 * hidden, inputs))
        w_hh = rng.standard_normal((4 * hidden, hidden))
        bias = rng.standard_normal(4 * hidden)
        h, c = lstm_step(
            Tensor(x), Tensor(h0), Tensor(c0), Tensor(w_ih), Tensor(w_hh), Tensor(bias)
        )
        h_ref, c_ref = lstm_step_loops(x, h0, c0, w_ih, w_hh, bias)
        assert np.max(np.abs(h.data - h_ref)) <= 1e-12
        assert np.max(np.abs(c.data - c_ref)) <= 1e-12

    def test_state_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            lstm_step(
                Tensor(np.zeros((1, 3))),
                Tensor(np.zeros((1, 4))),
                Tensor(np.zeros((1, 5))),
                Tensor(np.zeros((16, 3))),
                Tensor(np.zeros((16, 4))),
                Tensor(np.zeros(16)),
            )

    def test_sequence_output_is_causal(self):
        rng = np.random.default_rng(41)
        lstm = LSTM(3, 4, Initializer(7))
        x = rng.standard_normal((2, 6, 3))
        full = lstm(Tensor(x)).data
        corrupted = x.copy()
        corrupted[:, 4:, :] = 13.0
        partial = lstm(Tensor(corrupted)).data
        np.testing.assert_array_equal(full[:, :4, :], partial[:, :4, :])
        assert np.any(full[:, 4:, :] != partial[:, 4:, :])


def lstm_unfused(x, w_ih, w_hh, bias):
    """The sequence as a graph of ``lstm_step`` cells: the fused op's oracle."""
    batch, steps, inputs = x.shape
    hidden = w_hh.shape[1]
    h = Tensor(np.zeros((batch, hidden)))
    c = Tensor(np.zeros((batch, hidden)))
    outputs = []
    for t in range(steps):
        h, c = lstm_step(x.narrow(1, t, 1).reshape((batch, inputs)), h, c, w_ih, w_hh, bias)
        outputs.append(h.reshape((batch, 1, hidden)))
    return concat(outputs, axis=1)


def lstm_output_and_grads(fn, arrays, upstream):
    """Output of ``fn`` on fresh leaves, and each leaf's gradient of
    ``sum(output * upstream)``."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    (out * Tensor(upstream)).sum().backward()
    return [out.data] + [leaf.grad for leaf in leaves]


def lstm_problem(rng, batch, steps, inputs, hidden):
    bound = 1.0 / np.sqrt(hidden)
    arrays = [
        rng.standard_normal((batch, steps, inputs)),
        rng.uniform(-bound, bound, (4 * hidden, inputs)),
        rng.uniform(-bound, bound, (4 * hidden, hidden)),
        rng.uniform(-bound, bound, 4 * hidden),
    ]
    return arrays, rng.standard_normal((batch, steps, hidden))


def assert_lstm_matches_unfused(arrays, upstream, tol=1e-10):
    fused = lstm_output_and_grads(lstm_sequence, arrays, upstream)
    ref = lstm_output_and_grads(lstm_unfused, arrays, upstream)
    for name, got, want in zip(("out", "dx", "dw_ih", "dw_hh", "dbias"), fused, ref):
        assert got.shape == want.shape, name
        err = np.max(np.abs(got - want), initial=0.0)
        assert err <= tol * np.max(np.abs(want), initial=0.0), (name, err)


class TestLSTMSequence:
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("steps", [1, 16, 17, 32, 33, 37])
    def test_matches_unfused_graph(self, steps, batch):
        # 16 and 32 fill whole 16-step blocks of the input projection and
        # of BPTT; 17, 33 and 37 cross into a partial block.
        rng = np.random.default_rng(300 + steps + batch)
        assert_lstm_matches_unfused(*lstm_problem(rng, batch, steps, 3, 5))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        batch=strategies.integers(1, 4),
        steps=strategies.integers(1, 40),
        inputs=strategies.integers(1, 4),
        hidden=strategies.integers(1, 5),
        seed=strategies.integers(0, 2**16),
    )
    def test_matches_unfused_graph_property(self, batch, steps, inputs, hidden, seed):
        rng = np.random.default_rng(seed)
        assert_lstm_matches_unfused(*lstm_problem(rng, batch, steps, inputs, hidden))

    def test_module_forward_is_one_node(self):
        lstm = LSTM(3, 4, Initializer(7))
        x = Tensor(np.ones((2, 5, 3)), requires_grad=True)
        out = lstm(x)
        assert out._op == "lstm_sequence"
        assert out._parents == (x, lstm.w_ih, lstm.w_hh, lstm.bias)

    def test_inf_input_raises(self):
        rng = np.random.default_rng(310)
        (x, w_ih, w_hh, bias), _ = lstm_problem(rng, 2, 6, 3, 4)
        x[1, 4, 0] = np.inf
        with pytest.raises(NonFiniteError, match="lstm_sequence"):
            lstm_sequence(Tensor(x), Tensor(w_ih), Tensor(w_hh), Tensor(bias))

    def test_overflowing_preactivation_raises(self, monkeypatch):
        # Finite inputs whose projection overflows: the saturating gates
        # would turn the inf into a finite output, so only the per-step
        # check on the pre-activations can catch it.
        args = [Tensor(np.full((1, 3, 2), 1e200)), Tensor(np.full((8, 2), 1e200)),
                Tensor(np.zeros((8, 2))), Tensor(np.zeros(8))]
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="lstm_sequence"):
                lstm_sequence(*args)
            without_finite_checks(monkeypatch)
            assert np.all(np.isfinite(lstm_sequence(*args).data))

    def test_no_grad_records_nothing(self):
        rng = np.random.default_rng(311)
        arrays, _ = lstm_problem(rng, 2, 20, 3, 4)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with no_grad():
            out = lstm_sequence(*leaves)
        assert out._parents == () and not out.requires_grad
        np.testing.assert_array_equal(out.data, lstm_sequence(*leaves).data)

    def test_two_passes_accumulate(self):
        rng = np.random.default_rng(312)
        arrays, upstream = lstm_problem(rng, 3, 19, 2, 4)
        once = lstm_output_and_grads(lstm_sequence, arrays, upstream)[1:]
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        for _ in range(2):  # each pass rebuilds the forward
            (lstm_sequence(*leaves) * Tensor(upstream)).sum().backward()
        for leaf, single in zip(leaves, once):
            np.testing.assert_allclose(leaf.grad, 2.0 * single, rtol=1e-14, atol=0.0)

    def test_backward_peak_is_below_one_gate_gradient_buffer(self):
        # A tiny-config layer: BPTT runs in 16-step blocks over one reused
        # buffer, so its peak stays below the whole-sequence (steps,
        # batch, 4H) gate-gradient buffer a single sweep would fill.
        batch, steps, inputs, hidden = 322, 201, 16, 16
        rng = np.random.default_rng(313)
        arrays, upstream = lstm_problem(rng, batch, steps, inputs, hidden)
        out = lstm_sequence(*(Tensor(a, requires_grad=True) for a in arrays))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out._backward_fn(upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < steps * batch * 4 * hidden * 8

    def test_backward_keeps_only_input_states_and_weights(self):
        # Closure census of a tiny-config layer: BPTT rebuilds each step's
        # gate activations from the kept hidden state, so the node holds
        # x, the hidden states, the cell states and the weights, and no
        # whole-sequence array of gates.
        batch, steps, inputs, hidden = 322, 201, 16, 16
        rng = np.random.default_rng(314)
        arrays, _ = lstm_problem(rng, batch, steps, inputs, hidden)
        out = lstm_sequence(*(Tensor(a, requires_grad=True) for a in arrays))
        captured = {}
        for cell in out._backward_fn.__closure__:
            contents = cell.cell_contents
            if isinstance(contents, np.ndarray):
                captured[id(contents)] = contents
        states = 2 * batch * steps * hidden * 8  # hidden and cell states
        allowed = arrays[0].nbytes + states + sum(a.nbytes for a in arrays[1:])
        assert sum(a.nbytes for a in captured.values()) <= allowed
        for a in captured.values():
            assert not (a.shape[-1] == 4 * hidden and a.size >= steps * batch * 4 * hidden), a.shape

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            lstm_sequence(
                Tensor(np.zeros((1, 2, 3))),
                Tensor(np.zeros((16, 2))),
                Tensor(np.zeros((16, 4))),
                Tensor(np.zeros(16)),
            )


# ---------------------------------------------------------------------------
# fused ops against the elementary ops they replace


def outputs_and_grads(fn, arrays, upstream):
    """Output of ``fn`` on fresh leaves, and each leaf's gradient of
    ``sum(output * upstream)``."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    (out * Tensor(upstream)).sum().backward()
    return out.data, [t.grad for t in leaves]


def assert_same_forward_close_grads(fused, unfused, arrays, upstream, tol=1e-12):
    out, grads = outputs_and_grads(fused, arrays, upstream)
    want_out, want_grads = outputs_and_grads(unfused, arrays, upstream)
    np.testing.assert_array_equal(out, want_out)
    for i, (got, want) in enumerate(zip(grads, want_grads)):
        err = np.max(np.abs(got - want))
        assert err <= tol * np.max(np.abs(want)), (i, err)


class TestAxisNormPReLU:
    @pytest.mark.parametrize("axes", [(3,), (1,), (2, 3)])
    def test_matches_prelu_of_axis_norm(self, axes):
        rng = np.random.default_rng(60 + len(axes) + axes[0])
        shape = (2, 4, 6, 7)
        arrays = [
            3.0 * rng.standard_normal(shape) + 1.5,
            rng.standard_normal(4),
            rng.standard_normal(4),
            rng.uniform(-0.5, 0.5, 4),
        ]

        def fused(x, gamma, beta, alpha):
            return axis_norm(x, gamma, beta, axes, alpha=alpha)

        def unfused(x, gamma, beta, alpha):
            return prelu(axis_norm(x, gamma, beta, axes), alpha)

        assert_same_forward_close_grads(fused, unfused, arrays, rng.standard_normal(shape))

    def test_node_keeps_only_the_normalized_map(self):
        # The PReLU's input is rebuilt in backward, not kept: one node,
        # whose parents are the input and the four parameter vectors.
        rng = np.random.default_rng(64)
        x = leaf(rng, 1, 3, 2, 5)
        params = [leaf(rng, 3) for _ in range(3)]
        out = axis_norm(x, params[0], params[1], (3,), alpha=params[2])
        assert out._op == "axis_norm"
        assert out._parents == (x, *params)

    def test_alpha_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            axis_norm(Tensor(np.zeros((1, 3, 2))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                      (2,), alpha=Tensor(np.ones(2)))


class TestSplitGLU:
    @pytest.mark.parametrize("shape", [(2, 6, 5, 7), (3, 8)])
    def test_matches_glu_on_the_halves(self, shape):
        rng = np.random.default_rng(70 + len(shape))
        arrays = [3.0 * rng.standard_normal(shape)]
        half = shape[1] // 2

        def unfused(x):
            return glu(x.narrow(1, 0, half), x.narrow(1, half, half))

        upstream = rng.standard_normal((shape[0], half) + shape[2:])
        assert_same_forward_close_grads(split_glu, unfused, arrays, upstream)

    def test_odd_channel_count_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            split_glu(Tensor(np.zeros((1, 3, 2))))


class TestConvPadding:
    @pytest.mark.parametrize(
        "kernel,stride,dilation,padding,extent",
        MODEL_CONV_GEOMETRIES,
        ids=["gated-2x3", "refiner-1x3", "temporal-d1", "temporal-d2", "temporal-d16", "pointwise"],
    )
    def test_matches_pad_then_conv(self, kernel, stride, dilation, padding, extent):
        rng = np.random.default_rng(80 + sum(kernel) + dilation[0])
        arrays = [rng.standard_normal((2, 3, *extent)), rng.standard_normal((4, 3, *kernel)),
                  rng.standard_normal(4)]
        (pt, _), (pf, _) = padding

        def fused(x, w, b):
            return conv2d(x, w, b, stride, dilation, padding=(pt, pf))

        def unfused(x, w, b):
            return conv2d(x.pad(((0, 0), (0, 0)) + padding), w, b, stride, dilation)

        out_shape = fused(*map(Tensor, arrays)).shape
        assert_same_forward_close_grads(fused, unfused, arrays, rng.standard_normal(out_shape))

    def test_negative_padding_rejected(self):
        with pytest.raises(ValidationError, match="padding"):
            conv2d(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros((1, 1, 1, 1))),
                   padding=(-1, 0))


def scatter_loops(y, w, shape, stride, dilation):
    """``out[b, o, i*st + p*dt, j*sf + q*df] += sum_c w[c, o, p, q] * y[b, c, i, j]``."""
    (st, sf), (dt, df) = stride, dilation
    out = np.zeros(shape)
    n, c_in, t, f = y.shape
    for b in range(n):
        for i in range(t):
            for j in range(f):
                for p in range(w.shape[2]):
                    for q in range(w.shape[3]):
                        out[b, :, i * st + p * dt, j * sf + q * df] += w[:, :, p, q].T @ y[b, :, i, j]
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    stride=strategies.tuples(strategies.integers(1, 2), strategies.integers(1, 2)),
    dilation=strategies.tuples(strategies.integers(1, 3), strategies.integers(1, 2)),
    kernel=strategies.tuples(strategies.integers(1, 4), strategies.integers(1, 3)),
    batch=strategies.integers(1, 3),
    extent=strategies.tuples(strategies.integers(1, 4), strategies.integers(1, 4)),
    spare=strategies.tuples(strategies.integers(0, 2), strategies.integers(0, 2)),
    seed=strategies.integers(0, 2**16),
)
def test_per_tap_scatter_matches_loops(stride, dilation, kernel, batch, extent, spare, seed):
    rng = np.random.default_rng(seed)
    (st, sf), (dt, df), (kt, kf) = stride, dilation, kernel
    y = rng.standard_normal((batch, 3, *extent))
    w = rng.standard_normal((3, 2, kt, kf))
    shape = (batch, 2, (extent[0] - 1) * st + (kt - 1) * dt + 1 + spare[0],
             (extent[1] - 1) * sf + (kf - 1) * df + 1 + spare[1])
    want = scatter_loops(y, w, shape, stride, dilation)
    got = _scatter(y, w, shape, stride, dilation)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    stride=strategies.tuples(strategies.integers(1, 2), strategies.integers(1, 2)),
    dilation=strategies.tuples(strategies.integers(1, 3), strategies.integers(1, 2)),
    kernel=strategies.tuples(strategies.integers(1, 4), strategies.integers(1, 3)),
    batch=strategies.integers(1, 3),
    channels=strategies.tuples(strategies.integers(1, 5), strategies.integers(1, 5)),
    extra=strategies.tuples(strategies.integers(0, 6), strategies.integers(0, 6)),
    seed=strategies.integers(0, 2**16),
)
def test_per_tap_weight_gradient_matches_tensordot(
    stride, dilation, kernel, batch, channels, extra, seed
):
    # The oracle is the single contraction over every tap's windows that
    # the weight gradients of conv2d and deconv2d were before.
    rng = np.random.default_rng(seed)
    (dt, df), (kt, kf) = dilation, kernel
    b = rng.standard_normal(
        (batch, channels[1], (kt - 1) * dt + 1 + extra[0], (kf - 1) * df + 1 + extra[1])
    )
    windows = _windows(b, kernel, stride, dilation)
    a = rng.standard_normal((batch, channels[0], *windows.shape[2:4]))
    want = np.tensordot(a, windows, axes=([0, 2, 3], [0, 2, 3]))
    got = _tap_products(a, windows)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_weight_gradient_copies_one_tap_at_a_time():
    # With only the weight gradient asked for, the conv backward holds
    # the rebuilt padded input (1x the input), the output gradient's
    # rows and one tap's windows (about 1/2x each at frequency stride
    # 2): 2.0x; the deconv backward holds the input's rows and one tap's
    # windows (1x each): 2.0x.  A contraction over all six taps at once
    # first copies every window: 4.5x and 7.0x.
    rng = np.random.default_rng(41)

    def backward_peak(node):
        g = rng.standard_normal(node.shape)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            node._backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - start

    x = Tensor(rng.standard_normal((2, 16, 201, 161)))
    w = Tensor(rng.standard_normal((16, 16, 2, 3)), requires_grad=True)
    assert backward_peak(conv2d(x, w, stride=(1, 2), padding=(1, 1))) <= 2.5 * x.data.nbytes
    y = Tensor(rng.standard_normal((2, 16, 201, 80)))
    w = Tensor(rng.standard_normal((16, 16, 2, 3)), requires_grad=True)
    assert backward_peak(deconv2d(y, w, stride=(1, 2))) <= 3.0 * y.data.nbytes


class TestLinear:
    def test_identity(self):
        init = Initializer(0)
        layer = Linear(3, 3, init)
        layer.weight.data = np.eye(3)
        layer.bias.data = np.zeros(3)
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(layer(x).data, x.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(50 + seed)
        layer = Linear(4, 3, Initializer(seed))
        x = rng.standard_normal((2, 4))
        out = layer(Tensor(x)).data
        expected = np.zeros((2, 3))
        for n in range(2):
            for o in range(3):
                acc = layer.bias.data[o]
                for i in range(4):
                    acc += layer.weight.data[o, i] * x[n, i]
                expected[n, o] = acc
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_leading_axes_flattened(self):
        rng = np.random.default_rng(51)
        layer = Linear(4, 2, Initializer(3))
        x = rng.standard_normal((2, 5, 4))
        out = layer(Tensor(x))
        assert out.shape == (2, 5, 2)
        flat = layer(Tensor(x.reshape(10, 4)))
        np.testing.assert_array_equal(out.data.reshape(10, 2), flat.data)


class TestCausalityInvariant:
    def test_causal_conv_prefix_is_bit_identical(self):
        rng = np.random.default_rng(60)
        init = Initializer(1)
        conv = Conv2d(2, 3, (2, 3), init, stride=(1, 2))
        x = rng.standard_normal((1, 2, 8, 9))
        t0 = 4
        full = conv(Tensor(x)).data
        corrupted = x.copy()
        corrupted[:, :, t0 + 1 :, :] = 1e6
        partial = conv(Tensor(corrupted)).data
        np.testing.assert_array_equal(full[:, :, : t0 + 1, :], partial[:, :, : t0 + 1, :])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kernel=strategies.tuples(strategies.integers(1, 5), strategies.integers(1, 4)),
        stride_f=strategies.integers(1, 3),
        dilation_t=strategies.integers(1, 4),
        frames=strategies.integers(2, 9),
        width=strategies.integers(4, 12),
        t0=strategies.integers(0, 8),
        seed=strategies.integers(0, 2**16),
    )
    def test_conv2d_layer_geometry_is_causal(
        self, kernel, stride_f, dilation_t, frames, width, t0, seed
    ):
        rng = np.random.default_rng(seed)
        conv = Conv2d(2, 3, kernel, Initializer(seed), stride=(1, stride_f),
                      dilation=(dilation_t, 1))
        x = rng.standard_normal((1, 2, frames, width))
        full = conv(Tensor(x)).data
        assert full.shape[2] == frames
        assert full.shape[3] == downsampled_width(width, kernel[1], stride_f)
        t0 = min(t0, frames - 1)
        poked = x.copy()
        poked[:, :, t0 + 1 :, :] = rng.standard_normal(poked[:, :, t0 + 1 :, :].shape)
        partial = conv(Tensor(poked)).data
        np.testing.assert_array_equal(full[:, :, : t0 + 1], partial[:, :, : t0 + 1])


class FDCase(Module):
    """Helper so gradient checks can traverse arbitrary closures."""

    def __init__(self):
        super().__init__()


class TestGradients:
    """Central finite differences (h=1e-5) vs reverse mode, per op."""

    TOL = 1e-4

    def check(self, fn, tensors, seed=0):
        err = finite_difference_check(fn, tensors)
        assert err <= self.TOL, f"gradient mismatch: {err}"

    @pytest.mark.parametrize("seed", range(5))
    def test_elementwise_chain(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = leaf(rng, 3, 4)
        y = leaf(rng, 3, 4)
        b = leaf(rng, 4)

        def fn():
            z = (x * y + b) - 0.3 * x
            return (z * z).sum()

        self.check(fn, [x, y, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_power_and_mean(self, seed):
        rng = np.random.default_rng(110 + seed)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 5)), requires_grad=True)

        def fn():
            return ((x**-0.5) + (x**2.0)).mean(axis=(0, 1)) * 1.0

        self.check(fn, [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_shape_ops(self, seed):
        rng = np.random.default_rng(120 + seed)
        x = leaf(rng, 2, 3, 4)
        y = leaf(rng, 2, 3, 2)

        def fn():
            a = x.transpose(0, 2, 1).reshape((2, 12))
            b = concat([x.narrow(2, 1, 2), y], axis=2).reshape((2, 12))
            c = x.pad(((0, 0), (0, 1), (1, 0))).narrow(1, 0, 3).reshape((2, -1))
            return (a * a).sum() + (b * c.narrow(1, 0, 12)).sum()

        self.check(fn, [x, y])

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul(self, seed):
        rng = np.random.default_rng(130 + seed)
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4, 2)

        def fn():
            p = matmul(a, b)
            return (p * p).sum()

        self.check(fn, [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_activations(self, seed):
        rng = np.random.default_rng(140 + seed)
        x = Tensor(rng.standard_normal((2, 3, 4)) + 0.1, requires_grad=True)
        alpha = Tensor(rng.uniform(0.1, 0.5, size=3), requires_grad=True)

        def fn():
            a = sigmoid(x) + tanh(x) + relu(x + 0.05)
            p = prelu(x, alpha, channel_axis=1)
            return (a * p).sum()

        self.check(fn, [x, alpha])

    @pytest.mark.parametrize("seed", range(5))
    def test_magnitude(self, seed):
        rng = np.random.default_rng(150 + seed)
        re = Tensor(rng.standard_normal((3, 4)) + 0.5, requires_grad=True)
        im = Tensor(rng.standard_normal((3, 4)) + 0.5, requires_grad=True)

        def fn():
            return magnitude(re, im).sum()

        self.check(fn, [re, im])

    @pytest.mark.parametrize("seed", range(5))
    def test_conv2d(self, seed):
        rng = np.random.default_rng(160 + seed)
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        dilation = (int(rng.integers(1, 3)), 1)
        x = leaf(rng, 2, 2, 6, 5)
        w = leaf(rng, 3, 2, 2, 3)
        b = leaf(rng, 3)

        def fn():
            out = conv2d(x, w, b, stride=stride, dilation=dilation)
            return (out * out).sum()

        self.check(fn, [x, w, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_deconv2d(self, seed):
        rng = np.random.default_rng(170 + seed)
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        x = leaf(rng, 2, 2, 4, 3)
        w = leaf(rng, 2, 3, 2, 3)
        b = leaf(rng, 3)

        def fn():
            out = deconv2d(x, w, b, stride=stride)
            return (out * out).sum()

        self.check(fn, [x, w, b])

    @pytest.mark.parametrize("axes", [(2, 3), (1,), (3,)])
    def test_axis_norm(self, axes):
        # The loss projects onto a fixed random direction: a sum of
        # squares of a normalized output is ~constant in the input
        # (that is the point of normalizing), which would leave nothing
        # for finite differences to resolve.
        rng = np.random.default_rng(180)
        norm = AxisNorm(3, axes, Initializer(5))
        x = leaf(rng, 2, 3, 4, 5)
        direction = Tensor(rng.standard_normal((2, 3, 4, 5)))

        def fn():
            out = norm(x)
            return (out * direction).sum()

        self.check(fn, [x, norm.gamma, norm.beta])

    @pytest.mark.parametrize("axes", [(3,), (1,)])
    def test_axis_norm_prelu(self, axes):
        rng = np.random.default_rng(185)
        norm = AxisNorm(3, axes, Initializer(6))
        act = PReLU(3, Initializer(6))
        x = leaf(rng, 2, 3, 4, 5)
        direction = Tensor(rng.standard_normal((2, 3, 4, 5)))

        def fn():
            out = axis_norm(x, norm.gamma, norm.beta, axes, alpha=act.alpha)
            return (out * direction).sum()

        self.check(fn, [x, norm.gamma, norm.beta, act.alpha])

    @pytest.mark.parametrize("seed", range(3))
    def test_split_glu(self, seed):
        rng = np.random.default_rng(186 + seed)
        x = leaf(rng, 2, 6, 3, 4)

        def fn():
            out = split_glu(x)
            return (out * out).sum()

        self.check(fn, [x])

    @pytest.mark.parametrize("seed", range(3))
    def test_conv2d_padded(self, seed):
        rng = np.random.default_rng(165 + seed)
        stride = (1, int(rng.integers(1, 3)))
        dilation = (int(rng.integers(1, 3)), 1)
        padding = (int(rng.integers(0, 3)), int(rng.integers(0, 2)))
        x = leaf(rng, 2, 2, 4, 5)
        w = leaf(rng, 3, 2, 2, 3)
        b = leaf(rng, 3)

        def fn():
            out = conv2d(x, w, b, stride, dilation, padding)
            return (out * out).sum()

        self.check(fn, [x, w, b])

    @pytest.mark.parametrize("seed", range(3))
    def test_lstm_step(self, seed):
        rng = np.random.default_rng(190 + seed)
        x = leaf(rng, 2, 3)
        h = leaf(rng, 2, 4)
        c = leaf(rng, 2, 4)
        w_ih = leaf(rng, 16, 3)
        w_hh = leaf(rng, 16, 4)
        bias = leaf(rng, 16)

        def fn():
            h2, c2 = lstm_step(x, h, c, w_ih, w_hh, bias)
            return (h2 * h2).sum() + (c2 * c2).sum()

        self.check(fn, [x, h, c, w_ih, w_hh, bias])

    def test_lstm_sequence(self):
        rng = np.random.default_rng(200)
        lstm = LSTM(3, 4, Initializer(11))
        x = leaf(rng, 2, 3, 3)

        def fn():
            out = lstm(x)
            return (out * out).sum()

        self.check(fn, [x, lstm.w_ih, lstm.w_hh, lstm.bias])

    def test_glu_and_linear(self):
        rng = np.random.default_rng(210)
        lin = Linear(4, 3, Initializer(13))
        x = leaf(rng, 5, 4)

        def fn():
            a = lin(x)
            return glu(a, a * 0.5).sum()

        self.check(fn, [x, lin.weight, lin.bias])


class TestModuleSystem:
    def test_conv_param_count_formula(self):
        init = Initializer(0)
        conv = Conv2d(3, 5, (2, 3), init)
        # kt*kf*Cin*Cout + Cout
        expected = 2 * 3 * 3 * 5 + 5
        assert conv.num_parameters() == expected
        by_enumeration = sum(p.size for _, p in conv.named_parameters())
        assert by_enumeration == expected

    def test_aliased_parameter_detected(self):
        init = Initializer(0)

        class Bad(Module):
            def __init__(self):
                super().__init__()
                shared = init.constant((3,), 1.0)
                self.a = shared
                self.b = shared

        with pytest.raises(ValidationError, match="alias"):
            Bad().num_parameters()

    def test_deterministic_initialization(self):
        a = Conv2d(3, 4, (2, 3), Initializer(42))
        b = Conv2d(3, 4, (2, 3), Initializer(42))
        c = Conv2d(3, 4, (2, 3), Initializer(43))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        np.testing.assert_array_equal(a.bias.data, b.bias.data)
        assert np.any(a.weight.data != c.weight.data)

    def test_deterministic_forward(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal((1, 3, 5, 6))
        outs = []
        for _ in range(2):
            conv = Conv2d(3, 4, (2, 3), Initializer(42))
            outs.append(conv(Tensor(x)).data)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_state_dict_roundtrip(self):
        layer = Linear(4, 3, Initializer(1))
        state = layer.state_dict()
        other = Linear(4, 3, Initializer(2))
        other.load_state_dict(state)
        np.testing.assert_array_equal(other.weight.data, layer.weight.data)

    def test_state_dict_mismatch_rejected(self):
        from beamkit.errors import ConfigMismatchError

        layer = Linear(4, 3, Initializer(1))
        state = layer.state_dict()
        del state["bias"]
        with pytest.raises(ConfigMismatchError):
            Linear(4, 3, Initializer(2)).load_state_dict(state)
        bad = layer.state_dict()
        bad["weight"] = np.zeros((9, 9))
        with pytest.raises(ConfigMismatchError):
            Linear(4, 3, Initializer(2)).load_state_dict(bad)


class TestCheckpoint:
    def roundtrip(self, tmp_path, tensors, meta):
        from beamkit.autodiff import load_checkpoint, save_checkpoint

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tensors, meta)
        return load_checkpoint(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        tensors = {
            "enc.weight": rng.standard_normal((3, 4)),
            "enc.bias": rng.standard_normal(4).astype(np.float32),
            "step": np.array([17], dtype=np.int64),
        }
        meta = {"epoch": 3, "val_loss": 0.25}
        loaded, loaded_meta = self.roundtrip(tmp_path, tensors, meta)
        assert loaded_meta == meta
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].dtype == arr.dtype
            np.testing.assert_array_equal(loaded[name], arr)

    def test_bytes_are_deterministic(self, tmp_path):
        from beamkit.autodiff import save_checkpoint

        rng = np.random.default_rng(81)
        tensors = {"b": rng.standard_normal(3), "a": rng.standard_normal((2, 2))}
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_checkpoint(p1, tensors, {"k": 1})
        save_checkpoint(p2, dict(reversed(list(tensors.items()))), {"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        from beamkit.autodiff import load_checkpoint, save_checkpoint
        from beamkit.errors import CheckpointError

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros(2)}, {})
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        import struct

        from beamkit.autodiff import load_checkpoint, save_checkpoint
        from beamkit.errors import CheckpointError

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros(2)}, {})
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 999)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @staticmethod
    def rewrite_header(path, edit):
        """Apply ``edit`` to the JSON header of the checkpoint at ``path``."""
        import json
        import struct

        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[12:20])
        header = json.loads(raw[20 : 20 + header_len])
        edit(header)
        encoded = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:12] + struct.pack("<Q", len(encoded)) + encoded
                         + raw[20 + header_len :])

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda h: h.pop("tensors"), "tensors"),
            (lambda h: h.pop("meta"), "meta"),
            (lambda h: h["tensors"][0].pop("nbytes"), "needs name"),
            (lambda h: h["tensors"].__setitem__(0, "w"), "needs name"),
            (lambda h: h["tensors"][0].update(shape=[7, 7, 7]), "bytes"),
            (lambda h: h["tensors"][0].update(shape=[-1]), "shape"),
            (lambda h: h["tensors"][0].update(dtype="|O"), "dtype"),
            (lambda h: h["tensors"][0].update(offset="0"), "offset"),
        ],
        ids=["no-tensors", "no-meta", "entry-key", "entry-type", "shape-nbytes",
             "negative-dim", "dtype", "offset-type"],
    )
    def test_malformed_header_rejected(self, tmp_path, edit, match):
        from beamkit.autodiff import load_checkpoint, save_checkpoint
        from beamkit.errors import CheckpointError

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.arange(8.0)}, {})
        self.rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        from beamkit.autodiff import load_checkpoint, save_checkpoint
        from beamkit.errors import CheckpointError

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.arange(64.0)}, {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_module_state_through_checkpoint(self, tmp_path):
        from beamkit.autodiff import load_checkpoint, save_checkpoint

        layer = Linear(4, 3, Initializer(21))
        path = tmp_path / "layer.ckpt"
        save_checkpoint(path, layer.state_dict(), {"kind": "linear"})
        tensors, meta = load_checkpoint(path)
        fresh = Linear(4, 3, Initializer(99))
        fresh.load_state_dict(tensors)
        np.testing.assert_array_equal(fresh.weight.data, layer.weight.data)
        np.testing.assert_array_equal(fresh.bias.data, layer.bias.data)
        assert meta == {"kind": "linear"}
