"""Waveform quality metrics and the spectral training loss.

Metrics operate on mono waveforms given as 1-D arrays and saturate at
±60 dB so tables stay finite when an estimate is a perfect (or perfectly
scaled) copy of the reference.  The training loss, :func:`loss_tensors`,
combines a complex squared-error term with a magnitude squared-error
term over time-frequency bins, differentiably on stacked real/imaginary
planes.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, magnitude
from .errors import ValidationError

__all__ = [
    "SATURATION_DB",
    "loss_tensors",
    "si_snr_db",
    "snr_db",
]

# Metric values are clipped to this magnitude: a bit-exact estimate has
# -inf error energy, and tables need finite entries.
SATURATION_DB = 60.0

# The training loss weights its complex and magnitude terms equally.
LOSS_WEIGHT_RI = 0.5
LOSS_WEIGHT_MAG = 0.5


# ---------------------------------------------------------------------------
# waveform metrics


def _as_mono(wave, name: str) -> np.ndarray:
    """Coerce an array-like to a finite 1-D float64 vector."""
    data = np.asarray(wave, dtype=np.float64)
    if data.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{name} contains non-finite samples")
    return data


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


def loss_tensors(estimate: Tensor, target: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Differentiable loss on stacked real/imaginary planes.

    Both tensors are ``(batch, 2, time, freq)`` with plane 0 real and
    plane 1 imaginary.  Returns ``(total, ri_term, mag_term)`` scalar
    tensors with ``total = ri_term·LOSS_WEIGHT_RI + mag_term·LOSS_WEIGHT_MAG``:
    ``ri_term`` is the mean over time-frequency bins of the complex
    squared error ``|Ŝ − S|²`` and ``mag_term`` the mean of
    ``(|Ŝ| − |S|)²``.  The means divide by ``batch·time·freq`` so each
    bin's complex squared error counts once.
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

    total = ri * LOSS_WEIGHT_RI + mag * LOSS_WEIGHT_MAG
    return total, ri, mag
