"""Minimal reverse-mode automatic differentiation on numpy arrays.

A :class:`Tensor` is a numpy array plus a graph node (:class:`_Node`):
its shape, dtype, gradient, edges to its parents and backward closure,
but no data.  A graph edge to an op result holds only that node, and an
edge to a leaf holds the leaf itself (its data is the caller's anyway),
so the graph keeps no op output alive: an intermediate array is freed
as soon as the forward code drops its tensor.  Each backward closure captures exactly
the arrays it reads: the other operand's data for :func:`mul` and
:func:`matmul`, the input's for :func:`power`, :func:`prelu` and
:func:`magnitude`, the output's for :func:`split_glu`, the input and
weight for :func:`conv2d` and :func:`deconv2d` (each only when the other's
gradient is wanted), its own saved state for the fused ops and the
activations (for :func:`lstm_sequence`: its input, hidden and cell
states and weights, from which BPTT rebuilds the gate activations), and
shapes alone for the arithmetic and shape ops.

Calling :meth:`Tensor.backward` on a scalar result walks the nodes in
reverse topological order, with each closure accumulating gradients
into its parents' nodes.  The pass frees each intermediate node (its
edges, closure and gradient) as soon as it has handed its gradient on,
so the graph shrinks as backward runs.
The operator set is exactly what the enhancement network needs:
elementwise arithmetic, matmul, reductions, shape ops, 2-D (transposed)
convolution with stride/dilation (:func:`conv2d` pads inside the op,
keeping no padded copy), the usual activations, a damped
complex-magnitude op, and three fused ops with hand-written gradients:
:func:`axis_norm` (normalization with a per-channel affine and an
optional PReLU, one graph node that saves only the normalized map and
the inverse deviation), :func:`split_glu` (a gated linear unit over the
two channel halves of one input) and :func:`lstm_sequence` (a whole
LSTM layer as one node, BPTT by hand in blocks of time steps, each
step's gates rebuilt from the kept hidden state).

Every operation asserts its outputs are finite, a cheap way to catch
divergence at the op that produced it.  Gradient recording can be paused
with :func:`no_grad`.
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
    "is_grad_enabled",
    "concat",
    "matmul",
    "conv2d",
    "deconv2d",
    "relu",
    "prelu",
    "sigmoid",
    "split_glu",
    "tanh",
    "magnitude",
    "axis_norm",
    "lstm_sequence",
]

_state = {"grad": True}


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


def _check_finite(data: np.ndarray, op: str):
    # A finite sum has only finite terms (an inf or NaN term makes the sum
    # inf or NaN), so one reduction decides the common case exactly; only
    # a sum that overflows needs the elementwise test.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(data, axis=None)
    if not np.isfinite(total) and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op {op!r}")


class _Node:
    """A tensor as the gradient graph sees it: everything backward needs
    of it and none of its data."""

    __slots__ = ("shape", "dtype", "grad", "requires_grad", "_parents", "_backward_fn", "_op", "_freed")

    def __init__(self, shape: tuple[int, ...], dtype, requires_grad: bool):
        self.shape = shape
        self.dtype = dtype
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        # Edges: leaf tensors themselves, op results by their nodes.
        self._parents: tuple = ()
        self._backward_fn = None
        self._op = "leaf"
        self._freed = False

    def _accumulate(self, g: np.ndarray, copy: bool = False):
        """Add ``g`` to this node's gradient.

        The first gradient is stored as is, so a backward closure hands
        over a temporary it made; ``copy`` must be set when ``g`` may be
        shared: the child's own gradient, a view of it, or an array
        handed to another parent too.
        """
        if self.grad is None:
            self.grad = g.astype(self.dtype, copy=copy)
        else:
            self.grad += g


def _on_node(name: str) -> property:
    """A :class:`Tensor` attribute that lives on its graph node."""
    return property(
        lambda self: getattr(self._node, name),
        lambda self, value: setattr(self._node, name, value),
    )


class Tensor:
    """A numpy array plus the graph node that records its gradient.

    ``grad``, ``requires_grad`` and the graph fields ``_parents``,
    ``_backward_fn`` and ``_op`` live on the node, so the graph can hold
    a result's node after the tensor and its data are gone.

    Parameters
    ----------
    data : array_like
        Values; converted to float64.
    requires_grad : bool
        Leaf flag; results of ops derive theirs from their parents.
    """

    __slots__ = ("data", "_node")

    grad = _on_node("grad")
    requires_grad = _on_node("requires_grad")
    _parents = _on_node("_parents")
    _backward_fn = _on_node("_backward_fn")
    _op = _on_node("_op")
    _freed = _on_node("_freed")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise ValidationError("cannot wrap a Tensor in a Tensor")
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node(self.data.shape, self.data.dtype, bool(requires_grad))

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- graph construction --------------------------------------------
    @staticmethod
    def _result(data, parents, backward_fn, op: str) -> "Tensor":
        _check_finite(data, op)
        out = Tensor(data)
        if _state["grad"] and any(p.requires_grad for p in parents):
            node = out._node
            node.requires_grad = True
            node._parents = tuple(p if p._op == "leaf" else p._node for p in parents)
            node._backward_fn = backward_fn
            node._op = op
        return out

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode gradients of this scalar w.r.t. the whole graph.

        Each intermediate node is freed as soon as its closure has run:
        its edges, closure and gradient are dropped (``.grad`` reads
        ``None`` afterwards), so the arrays only it kept alive are
        released during the pass, and a second backward pass needs a
        fresh forward pass: one that reaches a freed node, through this
        scalar or a part of the graph another scalar's pass has freed,
        raises before any gradient moves.  Leaf gradients are kept and
        accumulate over passes.
        """
        if self.data.size != 1:
            raise ValidationError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        root = self._node
        topo: list = []
        seen: set[int] = set()
        stack: list[tuple[object, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._freed:
                raise ValidationError(
                    "graph already freed by a previous backward; rebuild the forward pass"
                )
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        root._accumulate(np.ones(root.shape))
        # Popping, not iterating, drops the list's reference: in reverse
        # topological order every consumer of a node has already run, so
        # once the node itself has run nothing in the pass needs it.
        while topo:
            node = topo.pop()
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                node._backward_fn(node.grad)
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
#
# Each op binds its inputs' nodes (``na``, ``nb``, ...) and the arrays its
# backward reads before defining the closure, which then names no input
# tensor: it cannot keep an input's data alive by accident.


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    na, nb = a._node, b._node

    def backward(g):
        if na.requires_grad:
            na._accumulate(_unbroadcast(g, na.shape), copy=True)
        if nb.requires_grad:
            nb._accumulate(_unbroadcast(g, nb.shape), copy=True)

    return Tensor._result(data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    na, nb = a._node, b._node

    def backward(g):
        if na.requires_grad:
            na._accumulate(_unbroadcast(g, na.shape), copy=True)
        if nb.requires_grad:
            nb._accumulate(_unbroadcast(-g, nb.shape))

    return Tensor._result(data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    na, nb = a._node, b._node
    # Each side's gradient reads the other side's data.
    a_data = a.data if nb.requires_grad else None
    b_data = b.data if na.requires_grad else None

    def backward(g):
        if na.requires_grad:
            na._accumulate(_unbroadcast(g * b_data, na.shape))
        if nb.requires_grad:
            nb._accumulate(_unbroadcast(g * a_data, nb.shape))

    return Tensor._result(data, (a, b), backward, "mul")


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a real scalar exponent."""
    exponent = float(exponent)
    data = a.data**exponent
    na, a_data = a._node, a.data

    def backward(g):
        if na.requires_grad:
            na._accumulate(g * exponent * a_data ** (exponent - 1.0))

    return Tensor._result(data, (a,), backward, "power")


# -- reductions -------------------------------------------------------------


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    na = a._node

    def backward(g):
        if not na.requires_grad:
            return
        if axis is None:
            na._accumulate(np.broadcast_to(g, na.shape), copy=True)
            return
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        expanded = g
        if not keepdims:
            for ax in sorted(ax % len(na.shape) for ax in axes):
                expanded = np.expand_dims(expanded, ax)
        na._accumulate(np.broadcast_to(expanded, na.shape), copy=True)

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
    na = a._node

    def backward(g):
        if na.requires_grad:
            na._accumulate(g.reshape(na.shape), copy=True)

    return Tensor._result(data, (a,), backward, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))
    na = a._node

    def backward(g):
        if na.requires_grad:
            na._accumulate(np.transpose(g, inverse), copy=True)

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
    na = a._node

    def backward(g):
        if na.requires_grad:
            full = np.zeros(na.shape, dtype=g.dtype)
            full[index] = g
            na._accumulate(full)

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
    na = a._node

    def backward(g):
        if na.requires_grad:
            na._accumulate(g[index], copy=True)

    return Tensor._result(data, (a,), backward, "pad")


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ValidationError("concat needs at least one tensor")
    axis = axis % tensors[0].ndim
    data = np.concatenate([t.data for t in tensors], axis=axis)
    nodes = [t._node for t in tensors]

    def backward(g):
        offset = 0
        for node in nodes:
            extent = node.shape[axis]
            if node.requires_grad:
                index = tuple(
                    slice(offset, offset + extent) if i == axis else slice(None)
                    for i in range(g.ndim)
                )
                node._accumulate(g[index], copy=True)
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
    na, nb = a._node, b._node
    a_data = a.data if nb.requires_grad else None
    b_data = b.data if na.requires_grad else None

    def backward(g):
        if na.requires_grad:
            na._accumulate(g @ b_data.T)
        if nb.requires_grad:
            nb._accumulate(a_data.T @ g)

    return Tensor._result(data, (a, b), backward, "matmul")


# -- activations ---------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)
    na = a._node

    def backward(g):
        if na.requires_grad:
            na._accumulate(g * mask)

    return Tensor._result(data, (a,), backward, "relu")


def prelu(a: Tensor, alpha: Tensor) -> Tensor:
    """``x if x >= 0 else alpha * x`` with one slope per channel.

    ``alpha`` has shape ``(channels,)`` and is applied along axis 1 of
    the input.
    """
    if a.ndim < 2 or alpha.shape != (a.shape[1],):
        raise ValidationError(f"alpha shape {alpha.shape} does not match input {a.shape}")
    view = [1] * a.ndim
    view[1] = alpha.shape[0]
    alpha_b = alpha.data.reshape(view)
    # Equals np.where(x < 0, alpha * x, x) except possibly for the sign of
    # a zero, and avoids np.where's slow data-dependent select.
    data = np.maximum(a.data, 0.0)
    data += alpha_b * np.minimum(a.data, 0.0)
    na, n_alpha, x = a._node, alpha._node, a.data

    def backward(g):
        negative = x < 0
        if na.requires_grad:
            na._accumulate(np.where(negative, alpha_b * g, g))
        if n_alpha.requires_grad:
            reduce_axes = tuple(i for i in range(x.ndim) if i != 1)
            n_alpha._accumulate(np.sum(g * x * negative, axis=reduce_axes))

    return Tensor._result(data, (a, alpha), backward, "prelu")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Overflow-free logistic function: ``exp`` only ever sees ``-|x|``.

    ``1/(1+e)`` for ``x >= 0`` and ``e/(1+e)`` below, with ``e = exp(-|x|)``;
    the numerator is ``max(e, x >= 0)`` because ``e <= 1``, which avoids a
    branchy ``np.where``.  The mask is written as 0.0/1.0 into ``out``, so
    the maximum runs on two float arrays.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    if out is None:
        out = np.empty_like(e)
    np.greater_equal(x, 0.0, out=out, casting="unsafe")
    np.maximum(e, out, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid(a.data)
    na = a._node

    def backward(g):
        if na.requires_grad:
            na._accumulate(g * data * (1.0 - data))

    return Tensor._result(data, (a,), backward, "sigmoid")


def split_glu(x: Tensor) -> Tensor:
    """Gated linear unit over the two channel halves of ``x`` (axis 1):
    ``lin * sigmoid(gate)`` with ``[lin; gate] = x``, as one graph node.

    The forward values are the bits of ``layers.glu`` on the two halves.
    The backward pass keeps the sigmoid ``s`` and the output
    ``out = lin * s``, never the input: ``dlin = g * s`` and
    ``dgate = g * out * (1 - s)``.
    """
    if x.ndim < 2 or x.shape[1] % 2:
        raise ValidationError(f"split_glu needs an even number of channels, got {x.shape}")
    lin, gate = np.split(x.data, 2, axis=1)
    s = _sigmoid(gate)
    data = lin * s
    nx = x._node

    def backward(g):
        if not nx.requires_grad:
            return
        dx = np.empty(nx.shape)
        dlin, dgate = np.split(dx, 2, axis=1)
        np.multiply(g, s, out=dlin)
        np.multiply(g, data, out=dgate)
        dgate *= 1.0 - s
        nx._accumulate(dx)

    return Tensor._result(data, (x,), backward, "split_glu")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    na = a._node

    def backward(g):
        if na.requires_grad:
            na._accumulate(g * (1.0 - data**2))

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
    n_re, n_im = real._node, imag._node
    # Each part's gradient reads that part's own data.
    re = real.data if n_re.requires_grad else None
    im = imag.data if n_im.requires_grad else None

    def backward(g):
        scale = g / safe
        if n_re.requires_grad:
            n_re._accumulate(scale * re)
        if n_im.requires_grad:
            n_im._accumulate(scale * im)

    return Tensor._result(data, (real, imag), backward, "magnitude")


# -- normalization ----------------------------------------------------------------

# Added to the variance before the inverse square root.
NORM_EPS = 1e-5


def axis_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    axes: tuple[int, ...],
    alpha: Tensor | None = None,
) -> Tensor:
    """Zero-mean, unit-variance normalization over ``axes``, then a
    per-channel ``gamma * n + beta`` and, given ``alpha``, a per-channel
    PReLU, as one graph node.  Channels are axis 1 of ``x``.

    The forward pass runs the numpy operations of the elementary-op
    composition (mean as ``sum * (1/n)``, centre, variance,
    ``+ NORM_EPS``, ``** -0.5``, scale, affine, then :func:`prelu`'s
    ``max(y, 0) + alpha * min(y, 0)``, in place) in the same order, so
    its values are the same bits.  Only the normalized map ``n`` and the
    inverse deviation are kept for the backward pass: it rebuilds the
    affine output ``y`` from ``n`` for the PReLU's gradient, and with
    ``ĝ = g * gamma`` (``g`` taken through the PReLU) it is
    ``dc = inv * (ĝ - n * mean(ĝ * n))`` and ``dx = dc - mean(dc)``.  The
    variance is checked for non-finite values as well as the output: an
    overflowing variance makes ``inv`` zero and would leave the output
    finite.

    Parameters
    ----------
    x : Tensor
    gamma, beta : Tensor, shape (channels,)
    axes : tuple of int
        Axes the statistics are taken over.
    alpha : Tensor, shape (channels,), optional
        PReLU slopes for negative outputs.
    """
    ndim = x.ndim
    channels = x.shape[1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ValidationError(
            f"axis_norm gamma {gamma.shape} and beta {beta.shape} do not match "
            f"{channels} channels"
        )
    if alpha is not None and alpha.shape != (channels,):
        raise ValidationError(
            f"axis_norm alpha {alpha.shape} does not match {channels} channels"
        )
    axes = tuple(axes)
    scale = 1.0 / math.prod(x.shape[ax % ndim] for ax in axes)
    view = [1] * ndim
    view[1] = channels
    gamma_b = gamma.data.reshape(view)
    beta_b = beta.data.reshape(view)

    mean = x.data.sum(axis=axes, keepdims=True) * scale
    centered = x.data - mean
    var = (centered * centered).sum(axis=axes, keepdims=True) * scale
    _check_finite(var, "axis_norm")
    inv = (var + NORM_EPS) ** -0.5
    normalized = np.multiply(centered, inv, out=centered)
    data = normalized * gamma_b
    data += beta_b
    if alpha is not None:
        alpha_b = alpha.data.reshape(view)
        negative_part = np.minimum(data, 0.0)
        negative_part *= alpha_b
        np.maximum(data, 0.0, out=data)
        data += negative_part

    nx, n_gamma, n_beta = x._node, gamma._node, beta._node
    n_alpha = None if alpha is None else alpha._node

    def backward(g):
        reduce_axes = tuple(i for i in range(ndim) if i != 1)
        if n_alpha is not None:
            affine = normalized * gamma_b
            affine += beta_b
            negative = affine < 0
            if n_alpha.requires_grad:
                n_alpha._accumulate(np.sum(g * affine * negative, axis=reduce_axes))
            del affine
            g = np.where(negative, alpha_b * g, g)
        if n_gamma.requires_grad:
            n_gamma._accumulate((g * normalized).sum(axis=reduce_axes))
        if n_beta.requires_grad:
            n_beta._accumulate(g.sum(axis=reduce_axes))
        if nx.requires_grad:
            d = g * gamma_b
            d -= normalized * ((d * normalized).sum(axis=axes, keepdims=True) * scale)
            d *= inv
            d -= d.sum(axis=axes, keepdims=True) * scale
            nx._accumulate(d)

    parents = (x, gamma, beta) if alpha is None else (x, gamma, beta, alpha)
    return Tensor._result(data, parents, backward, "axis_norm")


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
    Per tap, one BLAS matmul over channels fills a reused ``(o, n*t*f)``
    buffer, which one strided add spreads over the map; no array holds
    every tap at once.
    """
    (st, sf), (dt, df) = stride, dilation
    n, c, t, f = y.shape
    c_out, kt, kf = weight.shape[1:]
    rows_in = y.transpose(1, 0, 2, 3).reshape(c, -1)
    tap = np.empty((c_out, rows_in.shape[1]), dtype=y.dtype)
    spread = tap.reshape(c_out, n, t, f).transpose(1, 0, 2, 3)
    out = np.zeros(shape, dtype=y.dtype)
    for p in range(kt):
        for q in range(kf):
            np.matmul(weight[:, :, p, q].T, rows_in, out=tap)
            rows = slice(p * dt, p * dt + (t - 1) * st + 1, st)
            cols = slice(q * df, q * df + (f - 1) * sf + 1, sf)
            out[:, :, rows, cols] += spread
    return out


def _tap_products(a: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """``out[i, j, p, q] = sum_{b,t,f} a[b, i, t, f] * windows[b, j, t, f, p, q]``.

    The weight gradient of both convolutions, shape ``(a_ch, b_ch, kt, kf)``.
    Per tap, one BLAS matmul contracts ``a`` with a copy of that tap's
    windows, so no array holds every tap at once (one contraction over
    the strided view would first copy it into a full im2col array).
    """
    a_ch, b_ch = a.shape[1], windows.shape[1]
    kt, kf = windows.shape[4:]
    rows = a.transpose(1, 0, 2, 3).reshape(a_ch, -1)
    out = np.empty((a_ch, b_ch, kt, kf), dtype=np.result_type(a, windows))
    for p in range(kt):
        for q in range(kf):
            tap = windows[:, :, :, :, p, q].transpose(0, 2, 3, 1)
            out[:, :, p, q] = rows @ tap.reshape(-1, b_ch)
    return out


def _pad_past(a: np.ndarray, padding) -> np.ndarray:
    """A copy of ``a`` ``(n, c, t, f)`` with ``padding = (frames, bins)``
    zeros before its first frame and below its lowest bin, or ``a``
    itself when both are 0."""
    pt, pf = padding
    if not (pt or pf):
        return a
    n, c, t, f = a.shape
    out = np.zeros((n, c, t + pt, f + pf), dtype=a.dtype)
    out[:, :, pt:, pf:] = a
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: tuple[int, int] = (1, 1),
    dilation: tuple[int, int] = (1, 1),
    padding: tuple[int, int] = (0, 0),
) -> Tensor:
    """2-D convolution over the last two axes, zero-padded on one side.

    ``padding = (past_frames, low_bins)`` zeros go before the first frame
    and below the lowest frequency bin (none after), which is the causal
    :class:`~.layers.Conv2d` layer's rule.  The forward pass gathers
    every tap window of the padded input as one strided view and
    contracts it with the weight in a single BLAS call; the input
    gradient is the matching scatter onto the padded shape, sliced back,
    and the weight gradient contracts the output gradient with the same
    windows one tap at a time (:func:`_tap_products`).  The padded copy
    is a temporary: the backward pass rebuilds it only for the weight
    gradient, so the closure keeps just ``x``'s data, and only when the
    weight gradient is wanted.

    Parameters
    ----------
    x : Tensor
        Shape ``(batch, in_channels, time, freq)``.
    weight : Tensor
        Shape ``(out_channels, in_channels, k_time, k_freq)``.
    bias : Tensor or None
        Shape ``(out_channels,)``.
    stride, dilation : (int, int)
        Along (time, freq).
    padding : (int, int)
        Zeros before the first frame and below the lowest bin.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValidationError(f"conv2d expects 4-D input/weight, got {x.shape}, {weight.shape}")
    c_out, c_in, kt, kf = weight.shape
    if x.shape[1] != c_in:
        raise ValidationError(
            f"conv2d channel mismatch: input has {x.shape[1]}, weight expects {c_in}"
        )
    pt, pf = padding = (int(padding[0]), int(padding[1]))
    if pt < 0 or pf < 0:
        raise ValidationError(f"conv2d padding must be >= 0, got {padding}")
    n, _, t, f = x.shape
    padded_shape = (n, c_in, t + pt, f + pf)
    data = _gather(_windows(_pad_past(x.data, padding), (kt, kf), stride, dilation), weight.data)
    if bias is not None:
        data += bias.data.reshape(1, c_out, 1, 1)
    nx, nw, nb = x._node, weight._node, None if bias is None else bias._node
    x_data = x.data if nw.requires_grad else None
    w_data = weight.data if nx.requires_grad else None

    def backward(g):
        if nx.requires_grad:
            dx = _scatter(g, w_data, padded_shape, stride, dilation)
            nx._accumulate(dx[:, :, pt:, pf:])
        if nw.requires_grad:
            windows = _windows(_pad_past(x_data, padding), (kt, kf), stride, dilation)
            nw._accumulate(_tap_products(g, windows))
        if nb is not None and nb.requires_grad:
            nb._accumulate(g.sum(axis=(0, 2, 3)))

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
    contracts the input with those windows one tap at a time
    (:func:`_tap_products`).

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
    nx, nw, nb = x._node, weight._node, None if bias is None else bias._node
    x_data = x.data if nw.requires_grad else None
    w_data = weight.data if nx.requires_grad else None

    def backward(g):
        windows = _windows(g, (kt, kf), stride, (1, 1))
        if nx.requires_grad:
            nx._accumulate(_gather(windows, w_data))
        if nw.requires_grad:
            nw._accumulate(_tap_products(x_data, windows))
        if nb is not None and nb.requires_grad:
            nb._accumulate(g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._result(data, parents, backward, "deconv2d")


# -- recurrence -----------------------------------------------------------------

# Time steps per input-projection matmul, and per BPTT block: long enough
# to keep BLAS busy, short enough that no whole-sequence (time, batch,
# 4*hidden) array is ever live.
_LSTM_BLOCK = 16

# The elementwise work of a step runs on contiguous (4, batch, hidden)
# gate planes in the order [input, forget, output, cell], so the three
# sigmoid gates are one block; entry k is the parameter layout's
# ([input, forget, cell, output]) gate for plane k.
_PLANE_GATES = [0, 1, 3, 2]


def _time_major(a: np.ndarray) -> np.ndarray:
    """``(batch, time, n)`` → ``(time * batch, n)``, rows ordered by step."""
    return a.transpose(1, 0, 2).reshape(-1, a.shape[2])


def _plane_weights(w_ih: np.ndarray, w_hh: np.ndarray, bias: np.ndarray, batch: int):
    """The weights as gate planes: ``(4, input, hidden)`` and ``(4,
    hidden, hidden)`` matmul operands (each plane the transposed rows of
    one gate) and the bias broadcast to ``(4, batch, hidden)``, all
    contiguous, in plane order."""
    hidden = w_hh.shape[1]
    w_ih_planes, w_hh_planes = (
        np.ascontiguousarray(w.reshape(4, hidden, -1)[_PLANE_GATES].transpose(0, 2, 1))
        for w in (w_ih, w_hh)
    )
    bias_planes = np.broadcast_to(bias.reshape(4, 1, hidden)[_PLANE_GATES], (4, batch, hidden))
    return w_ih_planes, w_hh_planes, np.ascontiguousarray(bias_planes)


def _project(x_rows: np.ndarray, batch: int, weights, buf: np.ndarray) -> np.ndarray:
    """The input projection of a block of steps, ``x_rows`` ``(steps *
    batch, input)`` in time-major order: one batched matmul into ``buf``,
    viewed as ``(4, steps, batch, hidden)``."""
    rows = len(x_rows)
    np.matmul(x_rows, weights[0], out=buf[:, :rows])
    return buf[:, :rows].reshape(4, rows // batch, batch, -1)


def _activate(h_prev: np.ndarray, x_proj: np.ndarray, weights, act: np.ndarray, check: bool):
    """One step's gate activations into the planes ``act``, from the
    pre-activation ``(h Wₕᵀ + x Wᵢᵀ) + b`` summed in that order."""
    np.matmul(h_prev, weights[1], out=act)
    act += x_proj
    act += weights[2]
    if check:
        # The cell state needs no check of its own: with finite gates,
        # |c_t| <= t.
        _check_finite(act, "lstm_sequence")
    _sigmoid(act[:3], out=act[:3])
    np.tanh(act[3], out=act[3])


def lstm_sequence(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor) -> Tensor:
    """A whole LSTM layer over time, from a zero state, as one graph node.

    Computes exactly the recurrence of ``layers.lstm_step`` (gate layout
    [input, forget, cell, output], pre-activations summed as
    ``(h Wₕᵀ + x Wᵢᵀ) + b``), but only the recurrence runs step by step:
    the input projection is one matmul per block of time steps.  The
    elementwise work of a step runs on contiguous ``(4, batch, hidden)``
    gate planes ordered [input, forget, output, cell], so one sigmoid
    covers the first three planes and one tanh the last; each matmul
    writes those planes directly, one ``(rows, k) @ (k, hidden)`` product
    per gate.  Gate pre-activations are checked for non-finite values at
    every step, because the saturating gates would hide an overflow from
    the output.

    The node keeps only ``x``, the hidden states (its output), the cell
    states and the weights.  The backward pass is hand-written BPTT over
    the forward's blocks, last block first.  Per block it redoes the
    input projection, and in the reverse sweep it rebuilds step t's gate
    activations from the kept ``h_{t-1}`` just before using them.  The
    rebuild is exact: it runs the forward's matmuls on the same shapes and
    operands and its elementwise operations in the same order, so each
    activation is the bit the forward produced.  Each step's
    pre-activation gradients are written, in the parameter layout, into
    one reused ``(block, batch, 4*hidden)`` buffer, from which that
    block's share of the ``x``, ``w_ih``, ``w_hh`` and ``bias`` gradients
    is one matmul each (``bias`` as a product with a ones vector),
    accumulated over blocks.

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
    x_data, w_ih_data, w_hh_data, bias_data = (p.data for p in parents)
    weights = _plane_weights(w_ih_data, w_hh_data, bias_data, batch)

    # Without a gradient to record, one step's cell state is kept and
    # overwritten in place; with one, every step's is kept for BPTT.
    cells = np.empty((steps if record else 1, batch, hidden))
    proj_buf = np.empty((4, min(steps, _LSTM_BLOCK) * batch, hidden))
    # A block's hidden states, time-major: each step writes and the next
    # reads one contiguous row, and one copy moves the block into ``out``.
    h_block = np.empty((min(steps, _LSTM_BLOCK), batch, hidden))
    act = np.empty((4, batch, hidden))
    tanh_c = np.empty((batch, hidden))
    out = np.empty((batch, steps, hidden))
    h = np.zeros((batch, hidden))
    c_prev = np.zeros((batch, hidden))
    # On a non-finite input a batched matmul can raise the invalid flag
    # (inf·0 in its padding lanes); the per-step check reports it instead.
    with np.errstate(invalid="ignore"):
        for start in range(0, steps, _LSTM_BLOCK):
            x_rows = _time_major(x_data[:, start : start + _LSTM_BLOCK])
            proj = _project(x_rows, batch, weights, proj_buf)
            span = proj.shape[1]
            for k in range(span):
                c = cells[start + k if record else 0]
                _activate(h, proj[:, k], weights, act, check=True)
                np.multiply(act[1], c_prev, out=c)
                c += act[0] * act[3]
                np.tanh(c, out=tanh_c)
                h = h_block[k]
                np.multiply(act[2], tanh_c, out=h)
                c_prev = c
            out[:, start : start + span] = h_block[:span].transpose(1, 0, 2)

    nx, n_ih, n_hh, n_bias = (p._node for p in parents)

    def backward(g):
        # Per step, each gate's pre-activation gradient is dc (i, f, g) or
        # dh (o), times the activation's derivative (s(1-s), or 1-g² for
        # the cell candidate), times its partner in c' = f*c + i*g or
        # h = o*tanh(c').  tanh(c') is recomputed from the kept cell state
        # rather than stored: np.tanh gives the same bits.
        block_buf = np.empty((min(steps, _LSTM_BLOCK), batch, four_h))
        ones = np.ones(len(block_buf) * batch)
        dx = np.empty((steps, batch, n_in)) if nx.requires_grad else None
        d_ih = np.zeros((four_h, n_in)) if n_ih.requires_grad else None
        d_hh = np.zeros((four_h, hidden)) if n_hh.requires_grad else None
        d_bias = np.zeros(four_h) if n_bias.requires_grad else None
        # A step's rebuilt gate activations and their derivatives, as
        # planes in the forward's order.
        a = np.empty((4, batch, hidden))
        d = np.empty((4, batch, hidden))
        tanh_c = np.empty((batch, hidden))
        zeros = np.zeros((batch, hidden))
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        weights = _plane_weights(w_ih_data, w_hh_data, bias_data, batch)
        proj_buf = np.empty((4, len(block_buf) * batch, hidden))
        for start in reversed(range(0, steps, _LSTM_BLOCK)):
            stop = min(start + _LSTM_BLOCK, steps)
            x_rows = _time_major(x_data[:, start:stop])
            proj = _project(x_rows, batch, weights, proj_buf)
            # Step t reads h_{t-1}; step 0's is the zero state.
            first = max(start, 1)
            h_rows = _time_major(out[:, first - 1 : stop - 1])
            h_prev = h_rows.reshape(-1, batch, hidden)
            dgates = block_buf[: stop - start]
            for t in range(stop - 1, start - 1, -1):
                _activate(h_prev[t - first] if t else zeros, proj[:, t - start], weights, a, check=False)
                # The step's row of the buffer, as gate planes in parameter order.
                row = dgates[t - start].reshape(batch, 4, hidden).transpose(1, 0, 2)
                np.tanh(cells[t], out=tanh_c)
                dh += g[:, t]
                dc += dh * a[2] * (1.0 - tanh_c * tanh_c)
                np.subtract(1.0, a[:3], out=d[:3])
                d[:3] *= a[:3]
                np.square(a[3], out=d[3])
                np.subtract(1.0, d[3], out=d[3])
                d[:2] *= dc
                d[3] *= dc
                np.multiply(d[0], a[3], out=row[0])
                np.multiply(d[1], cells[t - 1] if t else 0.0, out=row[1])
                np.multiply(d[3], a[0], out=row[2])
                np.multiply(d[2], dh * tanh_c, out=row[3])
                dc *= a[1]
                dh = dgates[t - start] @ w_hh_data
            # Rows are (step, batch) pairs, so each share is one matmul.
            rows = dgates.reshape(-1, four_h)
            if dx is not None:
                np.matmul(rows, w_ih_data, out=dx[start:stop].reshape(-1, n_in))
            if d_ih is not None:
                d_ih += rows.T @ x_rows
            if d_hh is not None:
                d_hh += rows[(first - start) * batch :].T @ h_rows
            if d_bias is not None:
                d_bias += ones[: len(rows)] @ rows
        if dx is not None:
            nx._accumulate(dx.transpose(1, 0, 2))
        if d_ih is not None:
            n_ih._accumulate(d_ih)
        if d_hh is not None:
            n_hh._accumulate(d_hh)
        if d_bias is not None:
            n_bias._accumulate(d_bias)

    return Tensor._result(out, parents, backward, "lstm_sequence")
