"""Minimal reverse-mode automatic differentiation on numpy arrays.

A :class:`Tensor` wraps an ndarray and remembers how it was produced;
calling :meth:`Tensor.backward` on a scalar result walks the graph in
reverse topological order, with each node's closure accumulating
gradients into its parents.  Unless the graph is retained, the pass
frees each intermediate node (its edges, closure and gradient) as soon
as it has handed its gradient on, so the graph shrinks as backward runs.
The operator set is exactly what the enhancement network needs:
elementwise arithmetic, matmul, reductions, shape ops, 2-D (transposed)
convolution with stride/dilation, the usual activations, a damped
complex-magnitude op, and two fused ops with hand-written gradients:
:func:`axis_norm` (normalization with a per-channel affine, one graph
node that saves only the normalized map and the inverse deviation) and
:func:`lstm_sequence` (a whole LSTM layer as one node, BPTT by hand).

Every operation asserts its outputs are finite (a cheap way to catch
divergence at the op that produced it); disable with
:func:`finite_checks` for speed.  Gradient recording can likewise be
paused with :func:`no_grad`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import NonFiniteError, ValidationError

__all__ = [
    "Tensor",
    "astensor",
    "no_grad",
    "finite_checks",
    "is_grad_enabled",
    "concat",
    "matmul",
    "conv2d",
    "deconv2d",
    "relu",
    "prelu",
    "sigmoid",
    "tanh",
    "magnitude",
    "axis_norm",
    "lstm_sequence",
]

_state = {"grad": True, "finite": True}


def is_grad_enabled() -> bool:
    return _state["grad"]


@contextmanager
def no_grad():
    """Context manager: do not record graph edges inside the block."""
    prev = _state["grad"]
    _state["grad"] = False
    try:
        yield
    finally:
        _state["grad"] = prev


@contextmanager
def finite_checks(enabled: bool):
    """Context manager: toggle the per-op non-finite assertion."""
    prev = _state["finite"]
    _state["finite"] = enabled
    try:
        yield
    finally:
        _state["finite"] = prev


def _check_finite(data: np.ndarray, op: str):
    # A finite sum has only finite terms (an inf or NaN term makes the sum
    # inf or NaN), so one reduction decides the common case exactly; only
    # a sum that overflows needs the elementwise test.
    if not _state["finite"]:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(data, axis=None)
    if not np.isfinite(total) and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op {op!r}")


class Tensor:
    """A numpy array plus the bookkeeping for reverse-mode gradients.

    Parameters
    ----------
    data : array_like
        Values; converted to float64.
    requires_grad : bool
        Leaf flag; results of ops derive theirs from their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op", "_freed")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise ValidationError("cannot wrap a Tensor in a Tensor")
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._op = "leaf"
        self._freed = False

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ValidationError(f"tensor of shape {self.shape} is not a scalar")

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy); treat as read-only."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- graph construction --------------------------------------------
    @staticmethod
    def _result(data, parents, backward_fn, op: str) -> "Tensor":
        _check_finite(data, op)
        out = Tensor(data)
        if _state["grad"] and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
            out._op = op
        return out

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self, retain_graph: bool = False):
        """Reverse-mode gradients of this scalar w.r.t. the whole graph.

        Unless ``retain_graph`` is set, each intermediate node is freed as
        soon as its closure has run: its edges, closure and gradient are
        dropped (``.grad`` reads ``None`` afterwards), so the arrays only
        it kept alive are released during the pass, and a second backward
        pass needs a fresh forward pass.  Leaf gradients are kept either
        way.
        """
        if self.data.size != 1:
            raise ValidationError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if self._freed:
            raise ValidationError(
                "graph already freed by a previous backward; pass retain_graph=True "
                "or rebuild the forward pass"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        # Intermediate (non-leaf) gradients are scratch space for this pass;
        # stale values from an earlier retain_graph pass must not leak in.
        # Leaf gradients deliberately persist so repeated passes accumulate.
        for node in topo:
            if node._backward_fn is not None:
                node.grad = None
        self._accumulate(np.ones_like(self.data))
        # Popping, not iterating, drops the list's reference: in reverse
        # topological order every consumer of a node has already run, so
        # once the node itself has run nothing in the pass needs it.
        while topo:
            node = topo.pop()
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                node._backward_fn(node.grad)
            if not retain_graph:
                node.grad = None
                node._backward_fn = None
                node._parents = ()
                node._freed = True

    # -- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, astensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, astensor(other))

    def __rsub__(self, other):
        return sub(astensor(other), self)

    def __mul__(self, other):
        return mul(self, astensor(other))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, astensor(-1.0))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __truediv__(self, other):
        other = astensor(other)
        return mul(self, power(other, -1.0))

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def narrow(self, axis: int, start: int, length: int):
        return narrow(self, axis, start, length)

    def pad(self, pad_spec):
        return pad(self, pad_spec)


def astensor(value) -> Tensor:
    """Wrap scalars/arrays as (non-grad) tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    excess = g.ndim - len(shape)
    if excess > 0:
        g = g.sum(axis=tuple(range(excess)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise arithmetic ------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._result(data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return Tensor._result(data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._result(data, (a, b), backward, "mul")


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a real scalar exponent."""
    exponent = float(exponent)
    data = a.data**exponent

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * exponent * a.data ** (exponent - 1.0))

    return Tensor._result(data, (a,), backward, "power")


# -- reductions -------------------------------------------------------------


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape).copy())
            return
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        expanded = g
        if not keepdims:
            for ax in sorted(ax % a.ndim for ax in axes):
                expanded = np.expand_dims(expanded, ax)
        a._accumulate(np.broadcast_to(expanded, a.shape).copy())

    return Tensor._result(data, (a,), backward, "sum")


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax % a.ndim]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), astensor(1.0 / count))


# -- shape ops ----------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return Tensor._result(data, (a,), backward, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.transpose(g, inverse))

    return Tensor._result(data, (a,), backward, "transpose")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice ``[start, start+length)`` along one axis."""
    axis = axis % a.ndim
    if start < 0 or length < 1 or start + length > a.shape[axis]:
        raise ValidationError(
            f"narrow [{start}:{start + length}) out of range for axis {axis} "
            f"of shape {a.shape}"
        )
    index = tuple(
        slice(start, start + length) if i == axis else slice(None) for i in range(a.ndim)
    )
    data = a.data[index]

    def backward(g):
        if a.requires_grad:
            full = np.zeros(a.shape, dtype=g.dtype)
            full[index] = g
            a._accumulate(full)

    return Tensor._result(data, (a,), backward, "narrow")


def pad(a: Tensor, pad_spec) -> Tensor:
    """Zero-pad: ``pad_spec`` is a per-axis list of (before, after) pairs."""
    pad_spec = tuple((int(lo), int(hi)) for lo, hi in pad_spec)
    if len(pad_spec) != a.ndim:
        raise ValidationError(f"pad spec {pad_spec} does not match ndim {a.ndim}")
    data = np.pad(a.data, pad_spec)
    index = tuple(
        slice(lo, lo + extent) for (lo, _), extent in zip(pad_spec, a.shape)
    )

    def backward(g):
        if a.requires_grad:
            a._accumulate(g[index])

    return Tensor._result(data, (a,), backward, "pad")


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ValidationError("concat needs at least one tensor")
    axis = axis % tensors[0].ndim
    data = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, extent in zip(tensors, extents):
            if t.requires_grad:
                index = tuple(
                    slice(offset, offset + extent) if i == axis else slice(None)
                    for i in range(g.ndim)
                )
                t._accumulate(g[index])
            offset += extent

    return Tensor._result(data, tensors, backward, "concat")


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product; higher-rank inputs must be reshaped first."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError(f"matmul expects 2-D inputs, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValidationError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor._result(data, (a, b), backward, "matmul")


# -- activations ---------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return Tensor._result(data, (a,), backward, "relu")


def prelu(a: Tensor, alpha: Tensor, channel_axis: int = 1) -> Tensor:
    """``x if x >= 0 else alpha * x`` with one slope per channel.

    ``alpha`` has shape ``(channels,)`` and is applied along
    ``channel_axis`` of the input.
    """
    axis = channel_axis % a.ndim
    if alpha.ndim != 1 or alpha.shape[0] != a.shape[axis]:
        raise ValidationError(
            f"alpha shape {alpha.shape} does not match {a.shape[axis]} channels"
        )
    view = [1] * a.ndim
    view[axis] = alpha.shape[0]
    alpha_b = alpha.data.reshape(view)
    # Equals np.where(x < 0, alpha * x, x) except possibly for the sign of
    # a zero, and avoids np.where's slow data-dependent select.
    data = np.maximum(a.data, 0.0)
    data += alpha_b * np.minimum(a.data, 0.0)

    def backward(g):
        negative = a.data < 0
        if a.requires_grad:
            a._accumulate(np.where(negative, alpha_b * g, g))
        if alpha.requires_grad:
            reduce_axes = tuple(i for i in range(a.ndim) if i != axis)
            alpha._accumulate(np.sum(g * a.data * negative, axis=reduce_axes))

    return Tensor._result(data, (a, alpha), backward, "prelu")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Overflow-free logistic function: ``exp`` only ever sees ``-|x|``.

    ``1/(1+e)`` for ``x >= 0`` and ``e/(1+e)`` below, with ``e = exp(-|x|)``;
    the numerator is ``max(e, x >= 0)`` because ``e <= 1``, which avoids a
    branchy ``np.where``.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * data * (1.0 - data))

    return Tensor._result(data, (a,), backward, "sigmoid")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data**2))

    return Tensor._result(data, (a,), backward, "tanh")


def magnitude(real: Tensor, imag: Tensor) -> Tensor:
    """Elementwise ``sqrt(real**2 + imag**2)`` with a damped gradient.

    The forward value is exact; the backward pass divides by
    ``max(magnitude, 1e-15)`` so bins that are exactly zero contribute a
    zero (rather than undefined) gradient.
    """
    if real.shape != imag.shape:
        raise ValidationError(f"magnitude parts differ in shape: {real.shape} vs {imag.shape}")
    data = np.sqrt(real.data**2 + imag.data**2)
    safe = np.maximum(data, 1e-15)

    def backward(g):
        scale = g / safe
        if real.requires_grad:
            real._accumulate(scale * real.data)
        if imag.requires_grad:
            imag._accumulate(scale * imag.data)

    return Tensor._result(data, (real, imag), backward, "magnitude")


# -- normalization ----------------------------------------------------------------


def axis_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    axes: tuple[int, ...],
    channel_axis: int = 1,
    eps: float = 1e-5,
) -> Tensor:
    """Zero-mean, unit-variance normalization over ``axes``, then a
    per-channel ``gamma * n + beta``, as one graph node.

    The forward pass runs the numpy operations of the elementary-op
    composition (mean as ``sum * (1/n)``, centre, variance, ``+ eps``,
    ``** -0.5``, scale, affine) in the same order, so its values are the
    same bits.  Only the normalized map ``n`` and the inverse deviation
    are kept for the backward pass, which with ``ĝ = g * gamma`` is
    ``dc = inv * (ĝ - n * mean(ĝ * n))`` and ``dx = dc - mean(dc)``.  The
    variance is checked for non-finite values as well as the output: an
    overflowing variance makes ``inv`` zero and would leave the output
    finite.

    Parameters
    ----------
    x : Tensor
    gamma, beta : Tensor, shape (channels,)
        Applied along ``channel_axis`` of ``x``.
    axes : tuple of int
        Axes the statistics are taken over.
    """
    ndim = x.ndim
    channel_axis %= ndim
    channels = x.shape[channel_axis]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ValidationError(
            f"axis_norm gamma {gamma.shape} and beta {beta.shape} do not match "
            f"{channels} channels"
        )
    axes = tuple(axes)
    scale = 1.0 / math.prod(x.shape[ax % ndim] for ax in axes)
    view = [1] * ndim
    view[channel_axis] = channels
    gamma_b = gamma.data.reshape(view)

    mean = x.data.sum(axis=axes, keepdims=True) * scale
    centered = x.data - mean
    var = (centered * centered).sum(axis=axes, keepdims=True) * scale
    _check_finite(var, "axis_norm")
    inv = (var + eps) ** -0.5
    normalized = np.multiply(centered, inv, out=centered)
    data = normalized * gamma_b
    data += beta.data.reshape(view)

    def backward(g):
        reduce_axes = tuple(i for i in range(ndim) if i != channel_axis)
        if gamma.requires_grad:
            gamma._accumulate((g * normalized).sum(axis=reduce_axes))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=reduce_axes))
        if x.requires_grad:
            d = g * gamma_b
            d -= normalized * ((d * normalized).sum(axis=axes, keepdims=True) * scale)
            d *= inv
            d -= d.sum(axis=axes, keepdims=True) * scale
            x._accumulate(d)

    return Tensor._result(data, (x, gamma, beta), backward, "axis_norm")


# -- 2-D convolution -----------------------------------------------------------


def _windows(a: np.ndarray, kernel, stride, dilation) -> np.ndarray:
    """Strided view ``(n, c, t_out, f_out, kt, kf)`` of ``a`` ``(n, c, t, f)``.

    Element ``[b, c, i, j, p, q]`` is ``a[b, c, i*st + p*dt, j*sf + q*df]``.
    """
    (kt, kf), (st, sf), (dt, df) = kernel, stride, dilation
    span = ((kt - 1) * dt + 1, (kf - 1) * df + 1)
    for extent, need in zip(a.shape[2:], span):
        if extent < need:
            raise ValidationError(f"input extent {extent} shorter than dilated kernel span {need}")
    return sliding_window_view(a, span, axis=(2, 3))[:, :, ::st, ::sf, ::dt, ::df]


def _gather(windows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``out[b, o, i, j] = sum_{c,p,q} weight[o, c, p, q] * windows[b, c, i, j, p, q]``.

    One BLAS contraction over (channel, kt, kf).
    """
    return np.moveaxis(np.tensordot(weight, windows, axes=([1, 2, 3], [1, 4, 5])), 0, 1)


def _scatter(y: np.ndarray, weight: np.ndarray, shape, stride, dilation) -> np.ndarray:
    """Adjoint of :func:`_gather`: ``y`` ``(n, c, t, f)`` spread over a zero map.

    ``out[b, o, i*st + p*dt, j*sf + q*df] += sum_c weight[c, o, p, q] * y[b, c, i, j]``.
    One BLAS contraction puts the weight's tap axes first, so each tap's
    slice is contiguous; then one strided add per tap.
    """
    (st, sf), (dt, df) = stride, dilation
    t, f = y.shape[2:]
    taps = np.tensordot(weight.transpose(2, 3, 1, 0), y, axes=([3], [1]))  # (kt, kf, o, n, t, f)
    out = np.zeros(shape, dtype=y.dtype)
    for p in range(weight.shape[2]):
        for q in range(weight.shape[3]):
            rows = slice(p * dt, p * dt + (t - 1) * st + 1, st)
            cols = slice(q * df, q * df + (f - 1) * sf + 1, sf)
            out[:, :, rows, cols] += taps[p, q].transpose(1, 0, 2, 3)
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: tuple[int, int] = (1, 1),
    dilation: tuple[int, int] = (1, 1),
) -> Tensor:
    """Valid (unpadded) 2-D convolution over the last two axes.

    The forward pass gathers every tap window as one strided view and
    contracts it with the weight in a single BLAS call; the input
    gradient is the matching scatter, and the weight gradient contracts
    the output gradient with the same windows.

    Parameters
    ----------
    x : Tensor
        Shape ``(batch, in_channels, time, freq)``.
    weight : Tensor
        Shape ``(out_channels, in_channels, k_time, k_freq)``.
    bias : Tensor or None
        Shape ``(out_channels,)``.
    stride, dilation : (int, int)
        Along (time, freq).  The op does not pad; the causal
        :class:`~.layers.Conv2d` layer pads its input first.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValidationError(f"conv2d expects 4-D input/weight, got {x.shape}, {weight.shape}")
    c_out, c_in, kt, kf = weight.shape
    if x.shape[1] != c_in:
        raise ValidationError(
            f"conv2d channel mismatch: input has {x.shape[1]}, weight expects {c_in}"
        )
    windows = _windows(x.data, (kt, kf), stride, dilation)
    data = _gather(windows, weight.data)
    if bias is not None:
        data += bias.data.reshape(1, c_out, 1, 1)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_scatter(g, weight.data, x.shape, stride, dilation))
        if weight.requires_grad:
            weight._accumulate(np.tensordot(g, windows, axes=([0, 2, 3], [0, 2, 3])))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._result(data, parents, backward, "conv2d")


def deconv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: tuple[int, int] = (1, 1),
) -> Tensor:
    """Transposed 2-D convolution (the adjoint of :func:`conv2d`).

    The forward pass scatters: one BLAS contraction over input channels,
    then one strided add per tap.  The input gradient is the matching
    gather over windows of the output gradient, and the weight gradient
    contracts the input with those windows.

    Parameters
    ----------
    x : Tensor
        Shape ``(batch, in_channels, time, freq)``.
    weight : Tensor
        Shape ``(in_channels, out_channels, k_time, k_freq)``.
    bias : Tensor or None
        Shape ``(out_channels,)``.
    stride : (int, int)
        Upsampling factors; output extent is ``(in - 1) * stride + kernel``
        per axis.  Callers trim/shape the result explicitly.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValidationError(f"deconv2d expects 4-D input/weight, got {x.shape}, {weight.shape}")
    n, c_in, t_in, f_in = x.shape
    c_in_w, c_out, kt, kf = weight.shape
    if c_in != c_in_w:
        raise ValidationError(
            f"deconv2d channel mismatch: input has {c_in}, weight expects {c_in_w}"
        )
    st, sf = stride
    shape = (n, c_out, (t_in - 1) * st + kt, (f_in - 1) * sf + kf)
    data = _scatter(x.data, weight.data, shape, stride, (1, 1))
    if bias is not None:
        data += bias.data.reshape(1, c_out, 1, 1)

    def backward(g):
        windows = _windows(g, (kt, kf), stride, (1, 1))
        if x.requires_grad:
            x._accumulate(_gather(windows, weight.data))
        if weight.requires_grad:
            weight._accumulate(np.tensordot(x.data, windows, axes=([0, 2, 3], [0, 2, 3])))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._result(data, parents, backward, "deconv2d")


# -- recurrence -----------------------------------------------------------------

# Time steps per input-projection matmul: long enough to keep BLAS busy,
# short enough that no whole-sequence (batch, time, 4*hidden) array is
# live when no gradient is recorded.
_LSTM_BLOCK = 16


def _time_major(a: np.ndarray) -> np.ndarray:
    """``(batch, time, n)`` → ``(time * batch, n)``, rows ordered by step."""
    return a.transpose(1, 0, 2).reshape(-1, a.shape[2])


def lstm_sequence(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor) -> Tensor:
    """A whole LSTM layer over time, from a zero state, as one graph node.

    Computes exactly the recurrence of ``layers.lstm_step`` (gate layout
    [input, forget, cell, output], pre-activations summed as
    ``(x Wᵢᵀ + h Wₕᵀ) + b``), but only the recurrence runs step by step:
    the input projection is one matmul per block of time steps.  Gate
    pre-activations are checked for non-finite values at every step,
    because the saturating gates would hide an overflow from the output.
    The backward pass is hand-written BPTT: one reverse sweep fills a
    ``(time, batch, 4*hidden)`` buffer of pre-activation gradients, from
    which the gradients of ``x``, ``w_ih``, ``w_hh`` and ``bias`` are
    each one contraction over all steps.

    Parameters
    ----------
    x : Tensor, shape (batch, time, input_size)
    w_ih : Tensor, shape (4 * hidden, input_size)
    w_hh : Tensor, shape (4 * hidden, hidden)
    bias : Tensor, shape (4 * hidden,)

    Returns
    -------
    Tensor, shape (batch, time, hidden)
        The hidden state after every step.
    """
    hidden = w_hh.shape[-1]
    four_h = 4 * hidden
    if (
        x.ndim != 3
        or w_hh.shape != (four_h, hidden)
        or w_ih.shape != (four_h, x.shape[-1])
        or bias.shape != (four_h,)
    ):
        raise ValidationError(
            f"lstm_sequence shapes disagree: x {x.shape}, w_ih {w_ih.shape}, "
            f"w_hh {w_hh.shape}, bias {bias.shape}"
        )
    batch, steps, n_in = x.shape
    parents = (x, w_ih, w_hh, bias)
    record = _state["grad"] and any(p.requires_grad for p in parents)
    w_ih_t, w_hh_t = w_ih.data.T, w_hh.data.T
    cell = slice(2 * hidden, 3 * hidden)

    # Without a gradient to record, one step's state is kept and
    # overwritten in place; with one, every step's is kept for BPTT.
    kept = steps if record else 1
    acts = np.empty((kept, batch, four_h))
    cells = np.empty((kept, batch, hidden))
    tanh_cells = np.empty((kept, batch, hidden))
    out = np.empty((batch, steps, hidden))
    gates = np.empty((batch, four_h))
    h = np.zeros((batch, hidden))
    c_prev = np.zeros((batch, hidden))
    proj_buf = np.empty((min(steps, _LSTM_BLOCK), batch, four_h))
    for start in range(0, steps, _LSTM_BLOCK):
        block = x.data[:, start : start + _LSTM_BLOCK].transpose(1, 0, 2)
        proj = proj_buf[: len(block)]
        np.matmul(block.reshape(-1, n_in), w_ih_t, out=proj.reshape(-1, four_h))
        for k, x_proj in enumerate(proj):
            t = start + k
            s = t if record else 0
            act, c, tanh_c = acts[s], cells[s], tanh_cells[s]
            np.matmul(h, w_hh_t, out=gates)
            gates += x_proj
            gates += bias.data
            # The cell state needs no check of its own: with finite gates,
            # |c_t| <= t.
            _check_finite(gates, "lstm_sequence")
            _sigmoid(gates, out=act)
            np.tanh(gates[:, cell], out=act[:, cell])
            np.multiply(act[:, hidden : 2 * hidden], c_prev, out=c)
            c += act[:, :hidden] * act[:, cell]
            np.tanh(c, out=tanh_c)
            np.multiply(act[:, 3 * hidden :], tanh_c, out=h)
            out[:, t] = h
            c_prev = c

    def backward(g):
        # One reverse sweep; per step, each gate's pre-activation gradient
        # is dc (i, f, g) or dh (o), times the activation's derivative
        # (s(1-s), or 1-g² for the cell candidate), times its partner in
        # c' = f*c + i*g or h = o*tanh(c').
        dgates = np.empty((steps, batch, four_h))
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            a = acts[t].reshape(batch, 4, hidden)
            d = dgates[t].reshape(batch, 4, hidden)
            tanh_c = tanh_cells[t]
            dh += g[:, t]
            dc += dh * a[:, 3] * (1.0 - tanh_c * tanh_c)
            np.subtract(1.0, a, out=d)
            d *= a
            d[:, 2] = 1.0 - a[:, 2] ** 2
            d[:, :3] *= dc[:, None]
            d[:, 0] *= a[:, 2]
            d[:, 1] *= cells[t - 1] if t else 0.0
            d[:, 2] *= a[:, 0]
            d[:, 3] *= dh * tanh_c
            dc *= a[:, 1]
            dh = dgates[t] @ w_hh.data
        # Rows are (step, batch) pairs, so each gradient is one matmul.
        dgates = dgates.reshape(-1, four_h)
        if x.requires_grad:
            dx = (dgates @ w_ih.data).reshape(steps, batch, n_in)
            x._accumulate(dx.transpose(1, 0, 2))
        if w_ih.requires_grad:
            w_ih._accumulate(dgates.T @ _time_major(x.data))
        if w_hh.requires_grad:
            w_hh._accumulate(dgates[batch:].T @ _time_major(out[:, :-1]))
        if bias.requires_grad:
            bias._accumulate(dgates.sum(axis=0))

    return Tensor._result(out, parents, backward, "lstm_sequence")
