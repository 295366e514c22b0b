"""Oracle-masked spatial covariance estimation and MVDR beamforming.

This is the classic utterance-level baseline: a time-frequency mask
(here the oracle ideal ratio mask) weights the mixture's outer products
into speech and noise spatial covariance matrices, the speech steering
vector is extracted as the principal eigenvector, and the minimum-variance
distortionless-response solution turns both into one complex weight vector
per frequency bin that is applied to every frame.

Every operation is batched over frequency and independent across bins.
Arrays use the (freq, time, channel) spectrogram layout and (freq, mic,
mic) covariance layout throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSteeringError, SolverError, ValidationError
from .model import REFERENCE_CHANNEL, filter_and_sum
from .stft import ComplexSpectrogram

MASK_FLOOR = 1e-8
DIAGONAL_LOADING = 1e-6
POWER_ITERATIONS = 200
POWER_TOLERANCE = 1e-10

STEERING_MODES = ("unit", "reference")


@dataclass(frozen=True)
class SteeringVector:
    """Per-frequency look direction: (freq, mic) complex.

    ``mode`` records the normalization: "unit" for unit Euclidean norm per
    frequency, "reference" for a first component pinned to exactly 1.  In
    both modes the reference-channel component is real and non-negative.
    """

    values: np.ndarray
    mode: str = "unit"

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValidationError(
                f"steering vector must be (freq, mic), got ndim={arr.ndim}"
            )
        if self.mode not in STEERING_MODES:
            raise ValidationError(
                f"steering mode must be one of {STEERING_MODES}, got {self.mode!r}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("steering vector contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def num_mics(self) -> int:
        return self.values.shape[1]


def irm(speech: ComplexSpectrogram, noise: ComplexSpectrogram) -> np.ndarray:
    """Ideal ratio mask |S|/(|S|+|N|) on the reference channel, (freq, time).

    Bins where both images vanish get 0.5 (no evidence either way).
    """
    s = np.abs(speech.data[:, :, REFERENCE_CHANNEL])
    n = np.abs(noise.data[:, :, REFERENCE_CHANNEL])
    if s.shape != n.shape:
        raise ValidationError(
            f"speech grid {s.shape} does not match noise grid {n.shape}"
        )
    total = s + n
    mask = np.full(s.shape, 0.5)
    active = total > 0.0
    mask[active] = s[active] / total[active]
    return mask


def validate_mask(mask: np.ndarray, spec: ComplexSpectrogram) -> np.ndarray:
    """Check a (freq, time) weighting against a spectrogram's grid."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != spec.data.shape[:2]:
        raise ValidationError(
            f"mask grid {mask.shape} does not match spectrogram grid "
            f"{spec.data.shape[:2]}"
        )
    if not np.all(np.isfinite(mask)):
        raise ValidationError("mask contains non-finite values")
    if mask.min() < 0.0 or mask.max() > 1.0:
        raise ValidationError(
            f"mask values must lie in [0, 1], got range "
            f"[{mask.min()}, {mask.max()}]"
        )
    return mask


def spatial_covariance(
    mixture: ComplexSpectrogram, mask: np.ndarray
) -> np.ndarray:
    """Mask-weighted spatial covariance per frequency, (freq, mic, mic).

    ``Φ_f = Σ_t m_{f,t}·X_{f,t}X_{f,t}^H / max(Σ_t m_{f,t}, 1e-8)``,
    symmetrized to be exactly Hermitian.
    """
    mask = validate_mask(mask, mixture)
    x = mixture.data
    # One (freq, time, mic) temporary: conj(m·X) as the left factor of a
    # batched matmul gives Σ_t m·conj(X_p)·X_q, whose conjugate is Φ.
    w = x * mask[:, :, None]
    np.conjugate(w, out=w)
    weighted = np.conj(np.matmul(np.swapaxes(w, 1, 2), x))
    denom = np.maximum(mask.sum(axis=1), MASK_FLOOR)
    phi = weighted / denom[:, None, None]
    return 0.5 * (phi + np.conj(np.swapaxes(phi, 1, 2)))


def _covariance_stack(phi: np.ndarray) -> np.ndarray:
    """A finite (freq, mic, mic) complex stack, or a ValidationError."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.ndim != 3 or phi.shape[1] != phi.shape[2] or phi.shape[1] == 0:
        raise ValidationError(f"covariance must be (freq, mic, mic), got {phi.shape}")
    bad = ~np.isfinite(phi).all(axis=(1, 2))
    if bad.any():
        raise ValidationError(
            f"covariance at frequency {np.argmax(bad)} contains non-finite values"
        )
    return phi


def _principal_eigenvectors(mats: np.ndarray) -> np.ndarray:
    """Dominant eigenvector of each Hermitian PSD matrix by power iteration.

    Each frequency starts from the first canonical basis vector its matrix
    does not annihilate, so exact ties (such as a scaled identity) resolve
    deterministically to that direction, and freezes once its direction
    stops moving.  The lowest failing frequency's error is raised.
    """
    num_freqs, p = mats.shape[:2]
    starts = np.linalg.norm(mats, axis=1) > 0.0  # [f, k]: ‖Φ_f e_k‖ > 0
    failures = {
        f: f"covariance at frequency {f} annihilates every canonical direction"
        if mats[f].any()
        else f"zero covariance matrix at frequency {f}: no steering direction exists"
        for f in np.flatnonzero(~starts.any(axis=1))
    }
    vecs = np.zeros((num_freqs, p), dtype=np.complex128)
    vecs[np.arange(num_freqs), np.argmax(starts, axis=1)] = 1.0
    active = np.flatnonzero(starts.any(axis=1))
    for _ in range(POWER_ITERATIONS):
        if active.size == 0:
            break
        nxt = np.matmul(mats[active], vecs[active, :, None])[:, :, 0]
        norm = np.linalg.norm(nxt, axis=1)
        live = norm > 0.0
        for f in active[~live]:
            failures[f] = f"power iteration collapsed at frequency {f}"
        active, vec, nxt = active[live], vecs[active[live]], nxt[live] / norm[live, None]
        vecs[active] = nxt
        # Compare directions modulo sign so a negative dominant eigenvalue
        # (possible only through rounding; inputs are PSD) still converges.
        moved = np.minimum(
            np.linalg.norm(nxt - vec, axis=1), np.linalg.norm(nxt + vec, axis=1)
        )
        active = active[moved >= POWER_TOLERANCE]
    if failures:
        raise DegenerateSteeringError(failures[min(failures)])
    return vecs


def _rotate_reference_real(values: np.ndarray) -> np.ndarray:
    """Multiply each row by a unit phase so its reference component is real ≥ 0.

    Where the reference component is numerically zero, the component of
    largest magnitude sets the phase instead, keeping the result
    deterministic; an all-zero row is left as it is.
    """
    rows = np.arange(values.shape[0])
    mags = np.abs(values)
    weak = mags[:, REFERENCE_CHANNEL] < 1e-12 * np.linalg.norm(values, axis=1)
    pivot_idx = np.where(weak, np.argmax(mags, axis=1), REFERENCE_CHANNEL)
    pivot, size = values[rows, pivot_idx], mags[rows, pivot_idx]
    live = size > 0.0
    out = values.copy()
    out[live] *= (np.conj(pivot[live]) / size[live])[:, None]
    # z·conj(z)/|z| is exactly |z|; write that value directly so the pivot
    # component carries no rounding residue in its imaginary part.
    out[rows[live], pivot_idx[live]] = size[live]
    return out


def noise_compensated_speech_covariance(
    phi_s: np.ndarray, phi_n: np.ndarray
) -> np.ndarray:
    """Speech covariance with the noise estimate subtracted, kept PSD.

    Mask-weighted mixture statistics contaminate the speech covariance
    with noise energy, which biases its principal eigenvector away from
    the speech direction wherever the per-bin SNR is poor.  Subtracting
    the noise covariance estimate removes that bias to first order.  The
    difference can be indefinite, so each matrix is shifted by
    ``trace(Φ_n)·I`` — an upper bound on the magnitude of any negative
    eigenvalue of the difference — which restores positive
    semidefiniteness without moving any eigenvector: the dominant
    direction of the result is the algebraically largest eigenvalue's
    direction of the difference, i.e. the speech subspace when one
    exists.
    """
    phi_s, phi_n = _covariance_stack(phi_s), _covariance_stack(phi_n)
    if phi_s.shape != phi_n.shape:
        raise ValidationError(
            f"covariance stacks must share a (freq, mic, mic) shape, got "
            f"{phi_s.shape} and {phi_n.shape}"
        )
    shift = np.trace(phi_n, axis1=1, axis2=2).real
    p = phi_s.shape[1]
    return phi_s - phi_n + shift[:, None, None] * np.eye(p, dtype=np.complex128)


def steering_from_covariance(phi_s: np.ndarray) -> SteeringVector:
    """Principal eigenvector per frequency as a unit-norm steering vector."""
    vectors = _principal_eigenvectors(_covariance_stack(phi_s))
    return SteeringVector(_rotate_reference_real(vectors), mode="unit")


def reference_normalize(steering: SteeringVector) -> SteeringVector:
    """Rescale each frequency's vector so the reference component is 1.

    With the distortionless constraint this pins the beamformer to unit
    gain toward the speech image on the reference channel.
    """
    values = steering.values
    ref = values[:, REFERENCE_CHANNEL]
    norms = np.linalg.norm(values, axis=1)
    weak = np.abs(ref) < 1e-8 * norms
    if np.any(weak):
        f = int(np.nonzero(weak)[0][0])
        raise DegenerateSteeringError(
            f"steering at frequency {f} has a vanishing reference component; "
            "reference normalization is undefined"
        )
    return SteeringVector(values / ref[:, None], mode="reference")


def mvdr_weights(phi_n: np.ndarray, steering: SteeringVector) -> np.ndarray:
    """Distortionless minimum-variance weights per frequency, (freq, mic).

    The noise covariance is diagonally loaded with ``1e-6·trace/P`` before
    the solve; the result satisfies ``w^H c = 1`` at machine precision.
    """
    phi_n = _covariance_stack(phi_n)
    c = steering.values
    if c.shape != phi_n.shape[:2]:
        raise ValidationError(
            f"steering grid {c.shape} does not match covariance grid "
            f"{phi_n.shape[:2]}"
        )
    p = phi_n.shape[1]
    eye = np.eye(p, dtype=np.complex128)
    weights = np.empty_like(c)
    for f in range(phi_n.shape[0]):
        trace = np.trace(phi_n[f]).real
        loaded = phi_n[f] + (DIAGONAL_LOADING * trace / p) * eye
        try:
            solved = np.linalg.solve(loaded, c[f])
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"noise covariance at frequency {f} is singular after "
                f"diagonal loading: {exc}"
            ) from exc
        denom = np.vdot(c[f], solved)
        if not np.isfinite(denom) or abs(denom) < 1e-300:
            raise SolverError(
                f"distortionless normalization degenerate at frequency {f} "
                f"(c^H Φ⁻¹ c = {denom})"
            )
        weights[f] = solved / denom
    return weights


def apply_utterance_beamformer(
    weights: np.ndarray, mixture: ComplexSpectrogram
) -> ComplexSpectrogram:
    """Apply one weight vector per frequency to every frame: ``w_f^H X_{f,t}``."""
    weights = np.asarray(weights, dtype=np.complex128)
    if weights.shape != (mixture.data.shape[0], mixture.data.shape[2]):
        raise ValidationError(
            f"weights grid {weights.shape} does not match spectrogram "
            f"(freq, channel) grid "
            f"{(mixture.data.shape[0], mixture.data.shape[2])}"
        )
    broadcast = np.broadcast_to(
        weights[:, None, :], mixture.data.shape
    )
    return filter_and_sum(broadcast, mixture)


def oracle_mvdr_enhance(
    mixture: ComplexSpectrogram,
    speech: ComplexSpectrogram,
    noise: ComplexSpectrogram,
) -> ComplexSpectrogram:
    """Full oracle pipeline: IRM → covariances → steering → MVDR → apply.

    ``speech`` and ``noise`` are the clean source images used only to form
    the oracle mask, which reads their reference channel alone; they share
    one shape and the mixture's (freq, frames) grid.  The beamformer itself
    sees the mixture.  The steering vector comes from the noise-compensated
    speech covariance and is reference-normalized, so the output aims at
    unit gain on the reference-channel speech image.
    """
    if (
        speech.data.shape != noise.data.shape
        or speech.data.shape[:2] != mixture.data.shape[:2]
    ):
        raise ValidationError(
            "speech and noise spectrograms must share one shape and the "
            f"mixture's (freq, frames) grid, got {mixture.data.shape}, "
            f"{speech.data.shape}, {noise.data.shape}"
        )
    mask = irm(speech, noise)
    phi_s = spatial_covariance(mixture, mask)
    phi_n = spatial_covariance(mixture, 1.0 - mask)
    target = noise_compensated_speech_covariance(phi_s, phi_n)
    steering = reference_normalize(steering_from_covariance(target))
    weights = mvdr_weights(phi_n, steering)
    return apply_utterance_beamformer(weights, mixture)
