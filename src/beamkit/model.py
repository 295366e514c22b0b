"""Causal neural beamformer: embedding network, weight head, filter-and-sum.

The network consumes a multichannel complex spectrogram as stacked
real/imaginary channel planes and emits framewise complex beamforming
weights (or a single reference-channel mask), which are applied by a
conjugate filter-and-sum.  Every stage is causal along time: frame ``t``
of any intermediate or output tensor depends only on input frames
``<= t``.

Layout convention: all internal feature maps are ``(batch, channels,
time, freq)``.  A P-channel spectrogram enters as ``2P`` planes ordered
``[Re(ch 0..P-1), Im(ch 0..P-1)]``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import (
    LSTM,
    AxisNorm,
    Conv2d,
    ConvTranspose2d,
    Initializer,
    Linear,
    Module,
    ModuleList,
    Parameter,
    PReLU,
    Tensor,
    axis_norm,
    causal_crop,
    concat,
    downsampled_width,
    no_grad,
    relu,
    split_glu,
)
from ._decode import decode
from .errors import ConfigError, ValidationError
from .stft import FREQ_BINS, ComplexSpectrogram, compress

__all__ = [
    "ModelConfig",
    "NeuralBeamformer",
    "build_model",
    "tiny_config",
    "filter_and_sum",
    "filter_and_sum_ri",
    "ri_stack",
    "ri_unstack",
    "REFERENCE_CHANNEL",
]

REFERENCE_CHANNEL = 0

BF_TYPES = ("recurrent", "mask")

# The paper's fixed geometry.  Kernels and strides are (time, freq) pairs:
# the gated encoder/decoder kernel, the frequency U-Net kernel, and the
# stride both use (every frame kept, frequency halved).  Then the temporal
# conv's kernel (frames) and the number of stacked LSTMs in the weight head.
GLU_KERNEL = (2, 3)
UNET_KERNEL = (1, 3)
FREQ_STRIDE = (1, 2)
STCM_KERNEL = 5
LSTM_LAYERS = 2


@dataclass(frozen=True)
class ModelConfig:
    """The beamformer's sizes, with defaults at full scale.

    The kernels, strides and LSTM depth are the module constants
    :data:`GLU_KERNEL`, :data:`UNET_KERNEL`, :data:`FREQ_STRIDE`,
    :data:`STCM_KERNEL` and :data:`LSTM_LAYERS`.  The input has the
    fixed front end's :data:`~.stft.FREQ_BINS` frequency bins.

    ``bf_type`` selects the weight head; both are channel layer-norm,
    ``LSTM_LAYERS`` frequency-shared unidirectional LSTMs and a two-layer
    fully-connected head.  ``"recurrent"`` emits ``2·mics`` filter planes;
    ``"mask"`` emits a single complex mask that is applied to the
    reference channel only (no beamforming).

    ``multi_output=False`` restricts the recurrent head to the
    single-mask output; it is forced by ``bf_type="mask"`` and must agree
    with it.

    A layer whose ``unet_block_depths_*`` entry is 0 has no frequency
    U-Net refiner, so all-zero depths give the plain gated encoder and
    decoder.  Input and target spectrograms are power-compressed by
    :func:`~.stft.compress` at its default exponent.
    """

    mics: int = 9
    embedding_channels: int = 64
    encoder_layers: int = 5
    unet_block_depths_encoder: tuple[int, ...] = (4, 3, 2, 1, 0)
    unet_block_depths_decoder: tuple[int, ...] = (1, 2, 3, 4, 0)
    stcn_groups: int = 3
    stcm_per_group: int = 6
    stcm_dilations: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    stcm_squeeze_channels: int = 64
    bf_type: str = "recurrent"
    lstm_hidden: int = 64
    multi_output: bool | None = None

    def __post_init__(self):
        if self.multi_output is None:
            object.__setattr__(self, "multi_output", self.bf_type != "mask")
        self.validate()

    # -- validation ------------------------------------------------------
    def validate(self):
        if self.mics < 1:
            raise ConfigError(f"mics must be >= 1, got {self.mics}")
        if self.embedding_channels < 1:
            raise ConfigError("embedding_channels must be >= 1")
        if self.encoder_layers < 1:
            raise ConfigError("encoder_layers must be >= 1")
        for name, depths in (
            ("unet_block_depths_encoder", self.unet_block_depths_encoder),
            ("unet_block_depths_decoder", self.unet_block_depths_decoder),
        ):
            if len(depths) != self.encoder_layers:
                raise ConfigError(
                    f"{name} must list one depth per layer "
                    f"({self.encoder_layers}), got {depths}"
                )
            if any(d < 0 for d in depths):
                raise ConfigError(f"{name} entries must be >= 0, got {depths}")
        if len(self.stcm_dilations) != self.stcm_per_group:
            raise ConfigError(
                f"stcm_dilations must list one dilation per block "
                f"({self.stcm_per_group}), got {self.stcm_dilations}"
            )
        if self.stcn_groups < 0 or self.stcm_per_group < 1:
            raise ConfigError("temporal stack sizes must be positive")
        if any(d < 1 for d in self.stcm_dilations):
            raise ConfigError("temporal dilations must be >= 1")
        if self.bf_type not in BF_TYPES:
            raise ConfigError(f"bf_type must be one of {BF_TYPES}, got {self.bf_type!r}")
        if self.bf_type == "mask" and self.multi_output:
            raise ConfigError("bf_type 'mask' emits a single mask; multi_output must be False")
        if self.lstm_hidden < 1:
            raise ConfigError("lstm_hidden must be >= 1")
        self.encoder_widths()  # raises on an inconsistent width chain

    # -- derived geometry --------------------------------------------------
    @property
    def input_channels(self) -> int:
        return 2 * self.mics

    @property
    def head_output_channels(self) -> int:
        return 2 * self.mics if self.multi_output else 2

    def encoder_widths(self) -> list[int]:
        """Frequency widths [input, after layer 1, ..., after layer n]."""
        widths = [FREQ_BINS]
        for i in range(self.encoder_layers):
            nxt = downsampled_width(widths[-1], GLU_KERNEL[1], FREQ_STRIDE[1])
            if nxt < 2:
                raise ConfigError(
                    f"encoder layer {i + 1} would reduce the frequency width "
                    f"to {nxt} (chain {widths}); reduce encoder_layers"
                )
            widths.append(nxt)
            inner = nxt
            for j in range(self.unet_block_depths_encoder[i]):
                inner = downsampled_width(inner, UNET_KERNEL[1], FREQ_STRIDE[1])
                if inner < 2:
                    raise ConfigError(
                        f"encoder layer {i + 1} sub-unet stage {j + 1} "
                        f"would reduce the frequency width to {inner}"
                    )
        return widths

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        """Decode a ``model`` section (type rules in :mod:`beamkit.config`)."""
        return decode(cls, raw, "model")


def tiny_config() -> ModelConfig:
    """A desk-scale configuration that trains in seconds, not hours."""
    return ModelConfig(
        mics=2,
        embedding_channels=8,
        encoder_layers=3,
        unet_block_depths_encoder=(2, 1, 0),
        unet_block_depths_decoder=(1, 2, 0),
        stcn_groups=1,
        stcm_per_group=2,
        stcm_dilations=(1, 2),
        stcm_squeeze_channels=16,
        lstm_hidden=16,
    )


# ---------------------------------------------------------------------------
# building blocks


class _NormAct(Module):
    """Per-frame frequency normalization followed by PReLU.

    Statistics are taken over the frequency axis independently at every
    (batch, channel, frame) — unlike whole-utterance instance
    normalization this keeps the layer strictly causal.  Both run as one
    :func:`~.autodiff.axis_norm` node: per channel, the affine scale
    ``gamma`` (initially 1) and shift ``beta`` (0), then the PReLU slope
    ``alpha`` (0.25).
    """

    def __init__(self, channels: int, init: Initializer):
        super().__init__()
        self.gamma = init.constant((channels,), 1.0)
        self.beta = init.constant((channels,), 0.0)
        self.alpha = init.constant((channels,), 0.25)

    def forward(self, x: Tensor) -> Tensor:
        return axis_norm(x, self.gamma, self.beta, (3,), alpha=self.alpha)


class _DownUnit(Module):
    """Stride-2 frequency halving causal conv + norm + PReLU."""

    def __init__(self, channels: int, init: Initializer):
        super().__init__()
        self.conv = Conv2d(channels, channels, UNET_KERNEL, init, stride=FREQ_STRIDE)
        self.post = _NormAct(channels, init)

    def forward(self, x: Tensor) -> Tensor:
        return self.post(self.conv(x))


class _UpUnit(Module):
    """Transposed conv doubling the frequency width, then norm + PReLU.

    :func:`causal_crop` trims the raw output to the input's frames and
    the mirror target width.
    """

    def __init__(self, in_channels, out_channels, target_width, init):
        super().__init__()
        self.deconv = ConvTranspose2d(
            in_channels, out_channels, UNET_KERNEL, init, stride=FREQ_STRIDE
        )
        self.post = _NormAct(out_channels, init)
        self.target_width = int(target_width)

    def forward(self, x: Tensor) -> Tensor:
        return self.post(causal_crop(self.deconv(x), x.shape[2], self.target_width))


class FrequencyUnet(Module):
    """A small frequency-axis U-Net applied residually inside a layer.

    ``depth`` halving stages compress the frequency axis, mirrored
    upsampling stages restore it; inner skip connections are channel
    concatenations.  Every stage is per-frame (:data:`UNET_KERNEL` spans
    one frame), so causal along time.  The caller adds the block's output
    to its input.
    """

    def __init__(self, channels, depth, width, init):
        super().__init__()
        if depth < 1:
            raise ConfigError(
                "FrequencyUnet depth must be >= 1; a layer with depth 0 has no refiner"
            )
        self.depth = depth
        widths = [width]
        for _ in range(depth):
            widths.append(downsampled_width(widths[-1], UNET_KERNEL[1], FREQ_STRIDE[1]))
        self.downs = ModuleList(_DownUnit(channels, init) for _ in range(depth))
        self.ups = ModuleList(
            _UpUnit(channels if j == 0 else 2 * channels, channels, widths[depth - 1 - j], init)
            for j in range(depth)
        )

    def forward(self, x: Tensor) -> Tensor:
        skips = []
        cur = x
        for down in self.downs:
            cur = down(cur)
            skips.append(cur)
        for j, up in enumerate(self.ups):
            inp = cur if j == 0 else concat([cur, skips[self.depth - 1 - j]], axis=1)
            cur = up(inp)
        return cur


def _gated(linear: Module, gate: Module, weight_axis: int) -> Module:
    """``linear`` widened to 2C outputs ``[linear; gate]``: ``gate``'s
    weight (stacked along ``weight_axis``) and bias appended to its own.

    The caller builds both same-shape branches first, so the initializer
    draws linear weight, linear bias, gate weight, gate bias in turn.
    """
    linear.weight = Parameter(
        np.concatenate([linear.weight.data, gate.weight.data], axis=weight_axis)
    )
    linear.bias = Parameter(np.concatenate([linear.bias.data, gate.bias.data]))
    return linear


class GatedConvLayer(Module):
    """Encoder layer: gated conv halving frequency, then a residual refiner.

    ``conv`` is one causal conv with 2C outputs, the linear branch
    followed by the gate, which :func:`split_glu` combines.
    """

    def __init__(self, in_channels, channels, unet_depth, out_width, init):
        super().__init__()
        self.conv = _gated(
            Conv2d(in_channels, channels, GLU_KERNEL, init, stride=FREQ_STRIDE),
            Conv2d(in_channels, channels, GLU_KERNEL, init, stride=FREQ_STRIDE),
            weight_axis=0,
        )
        self.post = _NormAct(channels, init)
        self.refiner = None
        if unet_depth > 0:
            self.refiner = FrequencyUnet(channels, unet_depth, out_width, init)

    def forward(self, x: Tensor) -> Tensor:
        y = self.post(split_glu(self.conv(x)))
        if self.refiner is not None:
            y = self.refiner(y) + y
        return y


class GatedDeconvLayer(Module):
    """Decoder layer: gated transposed conv doubling frequency + refiner.

    ``deconv`` is one transposed conv with 2C outputs, the linear branch
    followed by the gate, which :func:`split_glu` combines.  The gated
    output is trimmed by :func:`causal_crop`: trailing frames (which
    would depend on future input) are dropped, keeping the layer causal,
    and the frequency axis is fitted to the encoder's mirror width.
    """

    def __init__(self, in_channels, channels, unet_depth, target_width, init):
        super().__init__()
        self.deconv = _gated(
            ConvTranspose2d(in_channels, channels, GLU_KERNEL, init, stride=FREQ_STRIDE),
            ConvTranspose2d(in_channels, channels, GLU_KERNEL, init, stride=FREQ_STRIDE),
            weight_axis=1,
        )
        self.post = _NormAct(channels, init)
        self.target_width = int(target_width)
        self.refiner = None
        if unet_depth > 0:
            self.refiner = FrequencyUnet(channels, unet_depth, target_width, init)

    def forward(self, x: Tensor) -> Tensor:
        y = split_glu(self.deconv(x))
        y = self.post(causal_crop(y, x.shape[2], self.target_width))
        if self.refiner is not None:
            y = self.refiner(y) + y
        return y


class SqueezedTemporalBlock(Module):
    """Residual causal dilated temporal convolution with channel squeeze.

    The wide feature vector (channels × final frequency width, flattened)
    is squeezed through a pointwise conv, filtered along time by a
    dilated causal conv, and expanded back; the block adds its input.
    Normalization is over the channel axis per frame (causal).
    """

    def __init__(self, wide, squeeze, dilation, init):
        super().__init__()
        self.squeeze = Conv2d(wide, squeeze, (1, 1), init)
        self.pre = _ChannelNormAct(squeeze, init)
        self.dilated = Conv2d(squeeze, squeeze, (STCM_KERNEL, 1), init, dilation=(dilation, 1))
        self.mid = _ChannelNormAct(squeeze, init)
        self.expand = Conv2d(squeeze, wide, (1, 1), init)

    def forward(self, x: Tensor) -> Tensor:
        y = self.pre(self.squeeze(x))
        y = self.mid(self.dilated(y))
        return self.expand(y) + x


class _ChannelNormAct(Module):
    """PReLU then per-frame channel layer-norm (order: act after conv)."""

    def __init__(self, channels: int, init: Initializer):
        super().__init__()
        self.act = PReLU(channels, init)
        self.norm = AxisNorm(channels, (1,), init)

    def forward(self, x: Tensor) -> Tensor:
        return self.norm(self.act(x))


class RecurrentSubbandHead(Module):
    """Weight head: channel LN → stacked LSTMs per subband → 2 FC layers.

    The LSTMs run along time independently for every frequency index
    with one shared set of weights, mirroring classical beamformers that
    treat subbands independently.
    """

    def __init__(self, channels, hidden, out_channels, init):
        super().__init__()
        self.norm = AxisNorm(channels, (1,), init)
        sizes = [channels] + [hidden] * LSTM_LAYERS
        self.lstms = ModuleList(
            LSTM(sizes[i], sizes[i + 1], init) for i in range(LSTM_LAYERS)
        )
        self.fc_hidden = Linear(hidden, hidden, init)
        self.fc_out = Linear(hidden, out_channels, init)

    def forward(self, emb: Tensor) -> Tensor:
        n, c, t, f = emb.shape
        y = self.norm(emb)
        seq = y.transpose(0, 3, 2, 1).reshape((n * f, t, c))
        for lstm in self.lstms:
            seq = lstm(seq)
        h = relu(self.fc_hidden(seq))
        out = self.fc_out(h)
        out_ch = out.shape[-1]
        return out.reshape((n, f, t, out_ch)).transpose(0, 3, 2, 1)


# ---------------------------------------------------------------------------
# filter-and-sum


def filter_and_sum_ri(weights: Tensor, mixture: Tensor) -> Tensor:
    """Conjugate filter-and-sum on stacked real/imaginary planes.

    ``weights`` carries ``2·K`` planes ``[Re(0..K-1), Im(0..K-1)]`` and
    ``mixture`` ``2·P`` planes with ``K <= P``; the first ``K`` mixture
    channels are filtered (``K=1`` is the reference-mask case).  Output
    planes are ``[Re, Im]`` of ``sum_k conj(w_k) · x_k``.
    """
    if weights.shape[1] % 2 or mixture.shape[1] % 2:
        raise ValidationError("real/imaginary planes must pair up")
    k = weights.shape[1] // 2
    p = mixture.shape[1] // 2
    if k > p:
        raise ValidationError(
            f"{k} filters cannot apply to {p} mixture channels"
        )
    wr, wi = weights.narrow(1, 0, k), weights.narrow(1, k, k)
    xr, xi = mixture.narrow(1, 0, k), mixture.narrow(1, p, k)
    out_re = (wr * xr + wi * xi).sum(axis=1, keepdims=True)
    out_im = (wr * xi - wi * xr).sum(axis=1, keepdims=True)
    return concat([out_re, out_im], axis=1)


def filter_and_sum(weights: np.ndarray, spec: ComplexSpectrogram) -> ComplexSpectrogram:
    """Conjugate filter-and-sum on complex arrays: ``Σ_p conj(M^p)·X^p``.

    ``weights`` has the spectrogram's (freq, time, channel) shape, or
    (freq, 1, channel) for one weight vector per frequency applied to
    every frame; the result is a single-channel spectrogram with the same
    geometry.
    """
    weights = np.asarray(weights, dtype=np.complex128)
    freq, _, channels = spec.data.shape
    if weights.shape not in (spec.data.shape, (freq, 1, channels)):
        raise ValidationError(
            f"weights shape {weights.shape} does not match spectrogram "
            f"shape {spec.data.shape}"
        )
    combined = np.sum(np.conj(weights) * spec.data, axis=2, keepdims=True)
    return spec.with_data(combined)


def ri_stack(spec: ComplexSpectrogram) -> np.ndarray:
    """(freq, time, chan) complex → (2·chan, time, freq) stacked planes."""
    moved = np.transpose(spec.data, (2, 1, 0))
    return np.concatenate([moved.real, moved.imag], axis=0)


def ri_unstack(planes: np.ndarray, template: ComplexSpectrogram) -> ComplexSpectrogram:
    """(2, time, freq) planes → single-channel complex spectrogram."""
    if planes.ndim != 3 or planes.shape[0] != 2:
        raise ValidationError(f"expected (2, time, freq) planes, got {planes.shape}")
    data = (planes[0] + 1j * planes[1]).T[:, :, None]
    return template.with_data(np.ascontiguousarray(data))


# ---------------------------------------------------------------------------
# the model


class NeuralBeamformer(Module):
    """Embedding network + weight head + conjugate filter-and-sum."""

    def __init__(self, cfg: ModelConfig, init: Initializer):
        super().__init__()
        self.cfg = cfg
        c = cfg.embedding_channels
        widths = cfg.encoder_widths()

        encoder = []
        for i in range(cfg.encoder_layers):
            in_ch = cfg.input_channels if i == 0 else c
            encoder.append(
                GatedConvLayer(in_ch, c, cfg.unet_block_depths_encoder[i], widths[i + 1], init)
            )
        self.encoder = ModuleList(encoder)

        wide = c * widths[-1]
        blocks = []
        for _ in range(cfg.stcn_groups):
            for dilation in cfg.stcm_dilations:
                blocks.append(
                    SqueezedTemporalBlock(wide, cfg.stcm_squeeze_channels, dilation, init)
                )
        self.temporal = ModuleList(blocks)

        decoder = []
        for i in range(cfg.encoder_layers):
            target = widths[cfg.encoder_layers - 1 - i]
            decoder.append(
                GatedDeconvLayer(2 * c, c, cfg.unet_block_depths_decoder[i], target, init)
            )
        self.decoder = ModuleList(decoder)

        self.head = RecurrentSubbandHead(c, cfg.lstm_hidden, cfg.head_output_channels, init)

    # -- stages ----------------------------------------------------------
    def embed(self, x: Tensor) -> Tensor:
        """RI input planes (N, 2P, T, F) → embedding (N, C, T, F)."""
        if x.ndim != 4 or x.shape[1] != self.cfg.input_channels:
            raise ValidationError(
                f"expected (batch, {self.cfg.input_channels}, time, freq) "
                f"input, got {x.shape}"
            )
        if x.shape[3] != FREQ_BINS:
            raise ConfigError(
                f"input has {x.shape[3]} frequency bins, model expects {FREQ_BINS}"
            )
        skips = []
        cur = x
        for layer in self.encoder:
            cur = layer(cur)
            skips.append(cur)

        n, c, t, w = cur.shape
        flat = cur.transpose(0, 1, 3, 2).reshape((n, c * w, t, 1))
        for block in self.temporal:
            flat = block(flat)
        cur = flat.reshape((n, c, w, t)).transpose(0, 1, 3, 2)

        for i, layer in enumerate(self.decoder):
            skip = skips[self.cfg.encoder_layers - 1 - i]
            cur = layer(concat([cur, skip], axis=1))
        return cur

    def beam_weights(self, embedding: Tensor) -> Tensor:
        """Embedding (N, C, T, F) → weight planes (N, 2K, T, F)."""
        return self.head(embedding)

    def forward(self, x: Tensor) -> Tensor:
        """RI input planes → enhanced (N, 2, T, F) RI planes."""
        weights = self.beam_weights(self.embed(x))
        return filter_and_sum_ri(weights, x)

    # -- spectrogram-level convenience ------------------------------------
    def enhance_spectrogram(self, spec: ComplexSpectrogram) -> ComplexSpectrogram:
        """Run the full pipeline on one multichannel spectrogram.

        The output lives in the compressed domain (decompress before
        waveform synthesis), matching the domain the loss is computed in.
        """
        if spec.data.shape[2] != self.cfg.mics:
            raise ConfigError(
                f"spectrogram has {spec.data.shape[2]} channels, model "
                f"expects {self.cfg.mics}"
            )
        if spec.data.shape[0] != FREQ_BINS:
            raise ConfigError(
                f"spectrogram has {spec.data.shape[0]} frequency bins, "
                f"model expects {FREQ_BINS}"
            )
        spec = compress(spec)
        with no_grad():
            planes = self.forward(Tensor(ri_stack(spec)[None]))
        return ri_unstack(planes.data[0], spec)


def build_model(cfg: ModelConfig, seed: int) -> NeuralBeamformer:
    """Construct the network with deterministic seeded initialization."""
    return NeuralBeamformer(cfg, Initializer(seed))
