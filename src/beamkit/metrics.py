"""Waveform quality metrics and the spectral training loss.

Metrics operate on mono waveforms (``WaveBuffer`` or plain 1-D arrays)
and saturate at ±60 dB so tables stay finite when an estimate is a
perfect (or perfectly scaled) copy of the reference.  The loss combines
a complex squared-error term with a magnitude squared-error term over
time-frequency bins; :func:`loss_tensors` is the differentiable route
used by training, and :func:`loss_report` is its plain-array reference
(the tests hold :func:`loss_tensors` to it), computing identical
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, magnitude
from .errors import ValidationError
from .signals import WaveBuffer
from .stft import ComplexSpectrogram

__all__ = [
    "SATURATION_DB",
    "LossReport",
    "loss_report",
    "loss_tensors",
    "si_snr_db",
    "snr_db",
]

# Metric values are clipped to this magnitude: a bit-exact estimate has
# -inf error energy, and tables need finite entries.
SATURATION_DB = 60.0


# ---------------------------------------------------------------------------
# waveform metrics


def _as_mono(wave, name: str) -> np.ndarray:
    """Coerce a WaveBuffer or array-like to a finite 1-D float64 vector."""
    if isinstance(wave, WaveBuffer):
        if wave.num_channels != 1:
            raise ValidationError(
                f"{name} must be mono, got {wave.num_channels} channels"
            )
        data = wave.data[0]
    else:
        data = np.asarray(wave, dtype=np.float64)
        if data.ndim != 1:
            raise ValidationError(f"{name} must be 1-D, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{name} contains non-finite samples")
    return np.asarray(data, dtype=np.float64)


def _saturate_db(numerator: float, denominator: float) -> float:
    """10·log10(numerator/denominator) clipped to ±SATURATION_DB."""
    if numerator <= 0.0:
        return -SATURATION_DB
    if denominator <= 0.0:
        return SATURATION_DB
    return float(np.clip(10.0 * np.log10(numerator / denominator),
                         -SATURATION_DB, SATURATION_DB))


def si_snr_db(estimate, reference) -> float:
    """Scale-invariant SNR of ``estimate`` against ``reference``, in dB.

    Both signals are zero-meaned, the estimate is projected onto the
    reference (``s_t = <e,s>·s/‖s‖²``), and the result is
    ``10·log10(‖s_t‖²/‖e − s_t‖²)``, saturated at ±60 dB.  Any positive
    rescaling of the estimate leaves the value unchanged.
    """
    est = _as_mono(estimate, "estimate")
    ref = _as_mono(reference, "reference")
    if est.shape != ref.shape:
        raise ValidationError(
            f"estimate has {est.size} samples, reference has {ref.size}"
        )
    est = est - est.mean()
    ref = ref - ref.mean()
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValidationError("reference has zero energy after mean removal")
    projected = (np.dot(est, ref) / ref_energy) * ref
    residual = est - projected
    return _saturate_db(float(np.dot(projected, projected)),
                        float(np.dot(residual, residual)))


def snr_db(estimate, reference) -> float:
    """Classical SNR ``10·log10(‖s‖²/‖e − s‖²)`` in dB, saturated at ±60.

    No scaling allowance: a gain error counts as error energy (a doubled
    copy of the reference scores 0 dB, as does an all-zero estimate).
    """
    est = _as_mono(estimate, "estimate")
    ref = _as_mono(reference, "reference")
    if est.shape != ref.shape:
        raise ValidationError(
            f"estimate has {est.size} samples, reference has {ref.size}"
        )
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValidationError("reference has zero energy")
    error = est - ref
    return _saturate_db(ref_energy, float(np.dot(error, error)))


# ---------------------------------------------------------------------------
# spectral loss


@dataclass(frozen=True)
class LossReport:
    """Weighted sum of complex and magnitude squared-error terms.

    ``total = lambda_ri·ri_term + lambda_mag·mag_term``; every field is
    non-negative.  ``ri_term`` is the mean over time-frequency bins of
    the complex squared error ``|Ŝ − S|²`` and ``mag_term`` the mean of
    ``(|Ŝ| − |S|)²``.
    """

    total: float
    ri_term: float
    mag_term: float
    lambda_ri: float = 0.5
    lambda_mag: float = 0.5

    def __post_init__(self):
        for name in ("total", "ri_term", "mag_term", "lambda_ri", "lambda_mag"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")
        expected = self.lambda_ri * self.ri_term + self.lambda_mag * self.mag_term
        if abs(self.total - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValidationError(
                f"total {self.total} does not equal "
                f"{self.lambda_ri}*ri + {self.lambda_mag}*mag = {expected}"
            )

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "ri_term": self.ri_term,
            "mag_term": self.mag_term,
            "lambda_ri": self.lambda_ri,
            "lambda_mag": self.lambda_mag,
        }


def _as_complex(spec, name: str) -> np.ndarray:
    if isinstance(spec, ComplexSpectrogram):
        return spec.data
    arr = np.asarray(spec)
    if arr.size == 0:
        raise ValidationError(f"{name} is empty")
    return arr.astype(np.complex128)


def loss_report(
    estimate,
    target,
    lambda_ri: float = 0.5,
    lambda_mag: float = 0.5,
) -> LossReport:
    """Spectral loss between two same-shaped complex spectrograms.

    Estimate and target live in whatever domain the model works in (the
    compressed domain when compression is enabled).  Accepts
    ``ComplexSpectrogram`` or complex arrays of identical shape.
    """
    est = _as_complex(estimate, "estimate")
    tgt = _as_complex(target, "target")
    if est.shape != tgt.shape:
        raise ValidationError(
            f"estimate shape {est.shape} does not match target shape {tgt.shape}"
        )
    diff = est - tgt
    ri = float(np.mean(diff.real**2 + diff.imag**2))
    mag = float(np.mean((np.abs(est) - np.abs(tgt)) ** 2))
    total = lambda_ri * ri + lambda_mag * mag
    return LossReport(total, ri, mag, lambda_ri, lambda_mag)


def loss_tensors(
    estimate: Tensor,
    target: Tensor,
    lambda_ri: float = 0.5,
    lambda_mag: float = 0.5,
) -> tuple[Tensor, Tensor, Tensor]:
    """Differentiable loss on stacked real/imaginary planes.

    Both tensors are ``(batch, 2, time, freq)`` with plane 0 real and
    plane 1 imaginary.  Returns ``(total, ri_term, mag_term)`` scalar
    tensors whose values match :func:`loss_report` on the equivalent
    complex arrays: the means divide by ``batch·time·freq`` so each
    time-frequency bin's complex squared error counts once.
    """
    if estimate.ndim != 4 or estimate.shape[1] != 2:
        raise ValidationError(
            f"expected (batch, 2, time, freq) estimate planes, got {estimate.shape}"
        )
    if estimate.shape != target.shape:
        raise ValidationError(
            f"estimate shape {estimate.shape} does not match target shape "
            f"{target.shape}"
        )
    n, _, t, f = estimate.shape
    bins = float(n * t * f)
    diff = estimate - target
    ri = (diff * diff).sum() * (1.0 / bins)

    est_mag = magnitude(estimate.narrow(1, 0, 1), estimate.narrow(1, 1, 1))
    tgt_mag = magnitude(target.narrow(1, 0, 1), target.narrow(1, 1, 1))
    mag_diff = est_mag - tgt_mag
    mag = (mag_diff * mag_diff).sum() * (1.0 / bins)

    total = ri * lambda_ri + mag * lambda_mag
    return total, ri, mag
