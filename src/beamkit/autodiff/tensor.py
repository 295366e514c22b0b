"""Minimal reverse-mode automatic differentiation on numpy arrays.

A :class:`Tensor` wraps an ndarray and remembers how it was produced;
calling :meth:`Tensor.backward` on a scalar result walks the graph in
reverse topological order, with each node's closure accumulating
gradients into its parents.  The operator set is exactly what the
enhancement network needs: elementwise arithmetic, matmul, reductions,
shape ops, 2-D (transposed) convolution with stride/dilation, the usual
activations, and a damped complex-magnitude op.

Every operation asserts its outputs are finite (a cheap way to catch
divergence at the op that produced it); disable with
:func:`finite_checks` for speed.  Gradient recording can likewise be
paused with :func:`no_grad`.
"""

from __future__ import annotations

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
    "set_default_dtype",
    "get_default_dtype",
]

_state = {"grad": True, "finite": True, "dtype": np.float64}


def set_default_dtype(dtype):
    """Set the dtype new tensors are created with (float64 or float32)."""
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValidationError(f"default dtype must be float32 or float64, got {dtype}")
    _state["dtype"] = dtype.type


def get_default_dtype():
    return _state["dtype"]


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
    if _state["finite"] and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op {op!r}")


class Tensor:
    """A numpy array plus the bookkeeping for reverse-mode gradients.

    Parameters
    ----------
    data : array_like
        Values; converted to the engine's default float dtype.
    requires_grad : bool
        Leaf flag; results of ops derive theirs from their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op", "_freed")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise ValidationError("cannot wrap a Tensor in a Tensor")
        arr = np.asarray(data)
        if arr.dtype != _state["dtype"]:
            arr = arr.astype(_state["dtype"])
        self.data = arr
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

        Unless ``retain_graph`` is set, graph edges are freed as they are
        consumed, so a second backward pass needs a fresh forward pass.
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
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
            if not retain_graph and node._backward_fn is not None:
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
    negative = a.data < 0
    data = np.where(negative, alpha_b * a.data, a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.where(negative, alpha_b * g, g))
        if alpha.requires_grad:
            reduce_axes = tuple(i for i in range(a.ndim) if i != axis)
            alpha._accumulate(np.sum(g * a.data * negative, axis=reduce_axes))

    return Tensor._result(data, (a, alpha), backward, "prelu")


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

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
        Along (time, freq).  Padding is applied by callers with
        :func:`pad`, which keeps causal/frequency padding explicit.
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
