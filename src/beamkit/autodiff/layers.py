"""Neural-network layers on top of the tensor engine.

Modules hold named :class:`Parameter` tensors, support recursive
traversal for optimizers and checkpoints, and are initialized
deterministically: an :class:`Initializer` seeded once per model hands
every parameter its values in registration order.

Convolutions are causal along time.  :class:`Conv2d` owns the padding
rule (past frames and low-frequency bins; :func:`downsampled_width` is
the resulting width) and hands it to :func:`~.tensor.conv2d`, which pads
inside the op, and :func:`causal_crop` trims a transposed convolution's
output to the mirror geometry.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigMismatchError, ValidationError
from .tensor import (
    Tensor,
    axis_norm,
    conv2d,
    deconv2d,
    lstm_sequence,
    matmul,
    prelu,
    sigmoid,
    tanh,
    transpose,
)

__all__ = [
    "Parameter",
    "Initializer",
    "Module",
    "ModuleList",
    "Conv2d",
    "ConvTranspose2d",
    "causal_crop",
    "downsampled_width",
    "Linear",
    "PReLU",
    "AxisNorm",
    "LSTM",
    "lstm_step",
    "glu",
]


class Parameter(Tensor):
    """A leaf tensor that optimizers update."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Initializer:
    """Deterministic parameter factory.

    One RNG stream per model, seeded by ``seed``; parameters are drawn in
    registration order, so an identical module structure with an identical
    seed reproduces identical values bit for bit.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(np.random.SeedSequence([0x1A7E5, int(seed)]))

    def kaiming_uniform(self, shape, fan_in: int) -> Parameter:
        return self.uniform(shape, math.sqrt(6.0 / fan_in))

    def uniform(self, shape, bound: float) -> Parameter:
        return Parameter(self._rng.uniform(-bound, bound, size=shape))

    def constant(self, shape, value: float) -> Parameter:
        return Parameter(np.full(shape, float(value)))


class Module:
    """Base class: child modules and parameters register via attribute set."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, child in self._modules.items():
            yield from child.named_parameters(f"{prefix}{name}.")

    def parameters(self):
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total parameter count, rejecting aliased (double-counted) tensors."""
        seen: dict[int, str] = {}
        total = 0
        for name, param in self.named_parameters():
            if id(param) in seen:
                raise ValidationError(
                    f"parameter {name!r} aliases {seen[id(param)]!r}; "
                    "each parameter must be reachable exactly once"
                )
            seen[id(param)] = name
            total += param.size
        return total

    def zero_grad(self):
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise ConfigMismatchError(
                f"state dict mismatch: missing {missing}, unexpected {unexpected}"
            )
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ConfigMismatchError(
                    f"parameter {name!r}: checkpoint shape {value.shape} "
                    f"!= model shape {param.shape}"
                )
            param.data = value.astype(param.data.dtype, copy=True)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable sequence of child modules."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module):
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


def downsampled_width(width: int, kernel: int, stride: int) -> int:
    """Output width of a :class:`Conv2d` over ``width`` frequency bins.

    The layer pads ``(kernel-1)//2`` zeros on the low-frequency side only,
    so the default (kernel 3, stride 2) chain maps 161→80→40→20→10→5.
    """
    pad = (kernel - 1) // 2
    return (width + pad - kernel) // stride + 1


class Conv2d(Module):
    """Causal 2-D convolution over (time, freq).

    The layer's ``padding`` is ``(k_time-1)·dilation_time`` past frames,
    so output frame ``t`` sees only input frames ``<= t`` and a time
    stride of 1 keeps the frame count, and ``(k_freq-1)//2`` bins below
    the lowest frequency, so the output width is
    :func:`downsampled_width`.  :func:`~.tensor.conv2d` applies it inside
    the op, so no padded copy of the input outlives the call.  A 1×1
    conv is not padded.

    Parameters
    ----------
    in_channels, out_channels : int
    kernel : (int, int)
        (k_time, k_freq).
    init : Initializer
    stride, dilation : (int, int)
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: tuple[int, int],
        init: Initializer,
        stride: tuple[int, int] = (1, 1),
        dilation: tuple[int, int] = (1, 1),
    ):
        super().__init__()
        self.stride = tuple(stride)
        self.dilation = tuple(dilation)
        kt, kf = kernel
        self.padding = ((kt - 1) * self.dilation[0], (kf - 1) // 2)
        fan_in = in_channels * kt * kf
        self.weight = init.kaiming_uniform((out_channels, in_channels, kt, kf), fan_in)
        self.bias = init.uniform((out_channels,), 1.0 / math.sqrt(fan_in))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.dilation, self.padding)


class ConvTranspose2d(Module):
    """Transposed 2-D convolution; :func:`causal_crop` trims its output."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: tuple[int, int],
        init: Initializer,
        stride: tuple[int, int] = (1, 1),
    ):
        super().__init__()
        self.stride = tuple(stride)
        kt, kf = kernel
        fan_in = in_channels * kt * kf
        self.weight = init.kaiming_uniform((in_channels, out_channels, kt, kf), fan_in)
        self.bias = init.uniform((out_channels,), 1.0 / math.sqrt(fan_in))

    def forward(self, x: Tensor) -> Tensor:
        return deconv2d(x, self.weight, self.bias, stride=self.stride)


def causal_crop(y: Tensor, frames: int, width: int) -> Tensor:
    """Trim a transposed conv's (batch, channel, time, freq) output.

    Keeps the first ``frames`` frames (later ones see future input),
    drops the first frequency column (the image of :class:`Conv2d`'s
    low-frequency padding), then crops or zero-fills the high-frequency
    side to ``width``.
    """
    if y.shape[2] != frames:
        y = y.narrow(2, 0, frames)
    have = y.shape[3] - 1
    y = y.narrow(3, 1, min(have, width))
    if have < width:
        y = y.pad(((0, 0), (0, 0), (0, 0), (0, width - have)))
    return y


class Linear(Module):
    """Affine map on the last axis: ``y = x @ W.T + b``."""

    def __init__(self, in_features: int, out_features: int, init: Initializer):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = init.kaiming_uniform((out_features, in_features), in_features)
        self.bias = init.uniform((out_features,), 1.0 / math.sqrt(in_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValidationError(
                f"linear expects last axis {self.in_features}, got shape {x.shape}"
            )
        lead = x.shape[:-1]
        flat = x.reshape((-1, self.in_features)) if x.ndim != 2 else x
        out = matmul(flat, transpose(self.weight, (1, 0))) + self.bias
        if x.ndim != 2:
            out = out.reshape(lead + (self.out_features,))
        return out


class PReLU(Module):
    """Per-channel parametric ReLU, slope initialized to 0.25."""

    def __init__(self, channels: int, init: Initializer):
        super().__init__()
        self.alpha = init.constant((channels,), 0.25)

    def forward(self, x: Tensor) -> Tensor:
        return prelu(x, self.alpha)


class AxisNorm(Module):
    """Normalize to zero mean / unit variance over ``axes``, per-channel affine.

    ``axes=(2, 3)`` on a (batch, channel, time, freq) map is classic
    instance normalization; ``axes=(3,)`` normalizes each frame's frequency
    slice independently (causal — no statistics cross time); ``axes=(1,)``
    is layer normalization over the channel axis.  The learned scale and
    shift are always one pair per channel (axis 1).
    """

    def __init__(self, channels: int, axes: tuple[int, ...], init: Initializer):
        super().__init__()
        self.axes = tuple(axes)
        self.gamma = init.constant((channels,), 1.0)
        self.beta = init.constant((channels,), 0.0)

    def forward(self, x: Tensor) -> Tensor:
        return axis_norm(x, self.gamma, self.beta, self.axes)


def glu(linear_branch: Tensor, gate_branch: Tensor) -> Tensor:
    """Gated linear unit: ``linear * sigmoid(gate)``; shapes must match.

    Built from elementary ops; the gated layers run the fused
    :func:`~.tensor.split_glu`, and this is its test oracle.
    """
    if linear_branch.shape != gate_branch.shape:
        raise ValidationError(
            f"GLU branches differ in shape: {linear_branch.shape} vs {gate_branch.shape}"
        )
    return linear_branch * sigmoid(gate_branch)


def lstm_step(
    x: Tensor,
    h: Tensor,
    c: Tensor,
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
) -> tuple[Tensor, Tensor]:
    """One LSTM cell update for a batch of rows.

    Gate layout along the stacked axis is [input, forget, cell, output]:

        i = sigmoid(Wi x + Ui h + bi)      f = sigmoid(Wf x + Uf h + bf)
        g = tanh(Wg x + Ug h + bg)         o = sigmoid(Wo x + Uo h + bo)
        c' = f * c + i * g                 h' = o * tanh(c')

    Parameters
    ----------
    x : Tensor, shape (batch, input_size)
    h, c : Tensor, shape (batch, hidden)
    w_ih : Tensor, shape (4 * hidden, input_size)
    w_hh : Tensor, shape (4 * hidden, hidden)
    bias : Tensor, shape (4 * hidden,)
    """
    hidden = h.shape[-1]
    if c.shape != h.shape:
        raise ValidationError(f"state shapes differ: h {h.shape}, c {c.shape}")
    if w_hh.shape != (4 * hidden, hidden):
        raise ValidationError(
            f"w_hh shape {w_hh.shape} does not match hidden size {hidden}"
        )
    gates = matmul(x, transpose(w_ih, (1, 0))) + matmul(h, transpose(w_hh, (1, 0))) + bias
    i = sigmoid(gates.narrow(1, 0, hidden))
    f = sigmoid(gates.narrow(1, hidden, hidden))
    g = tanh(gates.narrow(1, 2 * hidden, hidden))
    o = sigmoid(gates.narrow(1, 3 * hidden, hidden))
    c_next = f * c + i * g
    h_next = o * tanh(c_next)
    return h_next, c_next


class LSTM(Module):
    """Unidirectional single-layer LSTM run along the time axis.

    The forward pass is one :func:`~.tensor.lstm_sequence` node (batched
    input projection, hand-written BPTT); :func:`lstm_step` is the same
    cell built from elementary ops and serves as its test oracle.  All
    weights and the single bias vector are initialized uniformly in
    ``(-1/sqrt(hidden), +1/sqrt(hidden))``.
    """

    def __init__(self, input_size: int, hidden_size: int, init: Initializer):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / math.sqrt(hidden_size)
        self.w_ih = init.uniform((4 * hidden_size, input_size), bound)
        self.w_hh = init.uniform((4 * hidden_size, hidden_size), bound)
        self.bias = init.uniform((4 * hidden_size,), bound)

    def forward(self, x: Tensor) -> Tensor:
        """Map (batch, time, input_size) to (batch, time, hidden_size)."""
        if x.ndim != 3 or x.shape[-1] != self.input_size:
            raise ValidationError(
                f"LSTM expects (batch, time, {self.input_size}), got {x.shape}"
            )
        return lstm_sequence(x, self.w_ih, self.w_hh, self.bias)
