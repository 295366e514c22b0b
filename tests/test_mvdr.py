"""Tests for masked covariance estimation and MVDR beamforming."""

import tracemalloc
import warnings

import numpy as np
import pytest

from beamkit.errors import DegenerateSteeringError, SolverError, ValidationError
from beamkit.model import filter_and_sum
from beamkit.mvdr import (
    POWER_ITERATIONS,
    POWER_TOLERANCE,
    SteeringVector,
    _principal_eigenvectors,
    _rotate_reference_real,
    apply_utterance_beamformer,
    irm,
    mvdr_weights,
    noise_compensated_speech_covariance,
    oracle_mvdr_enhance,
    reference_normalize,
    spatial_covariance,
    steering_from_covariance,
)
from beamkit.rooms import ArraySpec, RoomSpec, SceneSpec, synthesize_mixture
from beamkit.signals import WaveBuffer, noise_like, speech_like
from beamkit.stft import ComplexSpectrogram, StftConfig, istft, stft


def spec_of(data: np.ndarray) -> ComplexSpectrogram:
    data = np.asarray(data, dtype=np.complex128)
    return ComplexSpectrogram(data, fft_size=(data.shape[0] - 1) * 2)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_psd(rng, p, ridge=0.0):
    a = crandn(rng, p, p)
    return a @ a.conj().T + ridge * np.eye(p)


def distortionless_candidates(rng, steering_row, count):
    """Random weight vectors rescaled onto the constraint v^H c = 1."""
    p = steering_row.shape[0]
    v = crandn(rng, count, p)
    inner = np.conj(v) @ steering_row
    keep = np.abs(inner) > 1e-6
    return v[keep] / np.conj(inner[keep])[:, None]


def noise_powers(candidates, phi):
    return np.einsum("np,pq,nq->n", np.conj(candidates), phi, candidates).real


# Per-frequency reference implementations that the batched code replaced.


def einsum_covariance(x, mask):
    weighted = np.einsum("ft,ftp,ftq->fpq", mask, x, np.conj(x))
    phi = weighted / np.maximum(mask.sum(axis=1), 1e-8)[:, None, None]
    return 0.5 * (phi + np.conj(np.swapaxes(phi, 1, 2)))


def loop_principal_eigenvector(mat, freq_index):
    """Power iteration on one matrix; returns (vector, iterations run)."""
    p = mat.shape[0]
    if not np.any(mat != 0.0):
        raise DegenerateSteeringError(
            f"zero covariance matrix at frequency {freq_index}: "
            "no steering direction exists"
        )
    vec = None
    for start in range(p):
        candidate = np.zeros(p, dtype=np.complex128)
        candidate[start] = 1.0
        if np.linalg.norm(mat @ candidate) > 0.0:
            vec = candidate
            break
    if vec is None:
        raise DegenerateSteeringError(
            f"covariance at frequency {freq_index} annihilates every "
            "canonical direction"
        )
    for iteration in range(1, POWER_ITERATIONS + 1):
        nxt = mat @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            raise DegenerateSteeringError(
                f"power iteration collapsed at frequency {freq_index}"
            )
        nxt = nxt / norm
        if min(np.linalg.norm(nxt - vec), np.linalg.norm(nxt + vec)) < POWER_TOLERANCE:
            return nxt, iteration
        vec = nxt
    return vec, POWER_ITERATIONS


def loop_rotate_reference_real(values):
    out = values.copy()
    for f in range(out.shape[0]):
        row = out[f]
        pivot_idx = 0
        if abs(row[pivot_idx]) < 1e-12 * np.linalg.norm(row):
            pivot_idx = int(np.argmax(np.abs(row)))
        pivot = row[pivot_idx]
        if abs(pivot) > 0.0:
            rotated = row * (np.conj(pivot) / abs(pivot))
            rotated[pivot_idx] = abs(pivot)
            out[f] = rotated
    return out


def loop_steering(phi):
    found = [loop_principal_eigenvector(mat, f) for f, mat in enumerate(phi)]
    vectors = np.array([vec for vec, _ in found])
    return loop_rotate_reference_real(vectors), [its for _, its in found]


def mixed_psd_stack(rng, p, count):
    """Identities, rank-1 matrices, near-ties, generic PSD matrices and
    ones whose first canonical direction is null, so that power iteration
    starts from different basis vectors and stops at many iterations."""
    mats = []
    for f in range(count):
        kind = f % 5
        if kind == 0:
            mats.append(np.eye(p, dtype=complex) * (1.0 + f))
        elif kind == 1:
            c = crandn(rng, p)
            mats.append(np.outer(c, np.conj(c)))
        elif kind == 2:
            q, _ = np.linalg.qr(crandn(rng, p, p))
            eigs = np.linspace(0.1, 0.5, p)
            eigs[-1], eigs[-2] = 1.0, 1.0 - 10.0 ** -(1 + f % 3)
            mats.append((q * eigs) @ q.conj().T)
        elif kind == 3:
            mats.append(random_psd(rng, p))
        else:
            mat = random_psd(rng, p)
            mat[0, :] = mat[:, 0] = 0.0
            mats.append(mat)
    return np.stack(mats)


def relative_rows(got, want):
    return np.max(np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1))


class TestIrm:
    def test_equal_magnitudes_give_half(self):
        s = spec_of(np.full((3, 4, 1), 2.0 - 1.0j))
        n = spec_of(np.full((3, 4, 1), 1.0 + 2.0j))  # same magnitude sqrt(5)
        np.testing.assert_allclose(irm(s, n), 0.5, atol=1e-15)

    def test_zero_noise_gives_one(self):
        s = spec_of(np.ones((3, 4, 1)))
        n = spec_of(np.zeros((3, 4, 1)))
        np.testing.assert_array_equal(irm(s, n), 1.0)

    def test_zero_speech_gives_zero(self):
        s = spec_of(np.zeros((3, 4, 1)))
        n = spec_of(np.ones((3, 4, 1)))
        np.testing.assert_array_equal(irm(s, n), 0.0)

    def test_both_zero_gives_half(self):
        s = spec_of(np.zeros((3, 4, 1)))
        n = spec_of(np.zeros((3, 4, 1)))
        np.testing.assert_array_equal(irm(s, n), 0.5)

    def test_bounded_and_finite_on_random_input(self):
        rng = np.random.default_rng(0)
        s = spec_of(crandn(rng, 5, 20, 2))
        n = spec_of(crandn(rng, 5, 20, 2))
        mask = irm(s, n)
        assert mask.shape == (5, 20)
        assert np.all(np.isfinite(mask))
        assert mask.min() >= 0.0 and mask.max() <= 1.0

    def test_uses_reference_channel_only(self):
        rng = np.random.default_rng(1)
        s = crandn(rng, 5, 6, 3)
        n = crandn(rng, 5, 6, 3)
        base = irm(spec_of(s), spec_of(n))
        s2, n2 = s.copy(), n.copy()
        s2[:, :, 1:] = 9.0
        n2[:, :, 1:] = -3.0j
        np.testing.assert_array_equal(irm(spec_of(s2), spec_of(n2)), base)


class TestSpatialCovariance:
    def test_zero_mask_gives_zero_matrices(self):
        rng = np.random.default_rng(2)
        x = spec_of(crandn(rng, 3, 8, 2))
        phi = spatial_covariance(x, np.zeros((3, 8)))
        np.testing.assert_array_equal(phi, 0.0)

    def test_single_frame_full_mask_is_outer_product(self):
        rng = np.random.default_rng(3)
        x = crandn(rng, 2, 1, 3)
        phi = spatial_covariance(spec_of(x), np.ones((2, 1)))
        for f in range(2):
            v = x[f, 0]
            np.testing.assert_allclose(phi[f], np.outer(v, np.conj(v)), atol=1e-14)
            assert np.trace(phi[f]).real == pytest.approx(np.sum(np.abs(v) ** 2))
            # rank 1: all but the top eigenvalue vanish
            eigs = np.linalg.eigvalsh(phi[f])
            assert eigs[-1] == pytest.approx(np.sum(np.abs(v) ** 2))
            assert np.all(np.abs(eigs[:-1]) <= 1e-12 * eigs[-1])

    def test_hermitian_and_psd_on_100_random_inputs(self):
        # PSD judged by an independent dense eigendecomposition.
        rng = np.random.default_rng(4)
        for _ in range(100):
            f, t, p = rng.integers(1, 4), rng.integers(1, 12), rng.integers(2, 5)
            x = spec_of(crandn(rng, f, t, p))
            mask = rng.uniform(0.0, 1.0, size=(f, t))
            phi = spatial_covariance(x, mask)
            np.testing.assert_array_equal(phi, np.conj(np.swapaxes(phi, 1, 2)))
            for mat in phi:
                eigs = np.linalg.eigvalsh(mat)
                assert eigs.min() >= -1e-8 * max(np.trace(mat).real, 1e-30)

    def test_estimator_consistency_in_frame_count(self):
        rng = np.random.default_rng(5)
        p = 3
        chol = crandn(rng, p, p)
        true_cov = chol @ chol.conj().T
        errors = {}
        for frames in (100, 10_000):
            z = crandn(rng, 1, frames, p)
            x = np.einsum("pq,ftq->ftp", chol, z)
            phi = spatial_covariance(spec_of(x), np.ones((1, frames)))
            errors[frames] = np.linalg.norm(phi[0] - true_cov)
        assert errors[10_000] < errors[100]

    def test_scaling_by_a_scales_covariance_by_a_squared(self):
        rng = np.random.default_rng(6)
        x = crandn(rng, 2, 9, 3)
        mask = rng.uniform(0.2, 1.0, size=(2, 9))
        phi = spatial_covariance(spec_of(x), mask)
        phi_scaled = spatial_covariance(spec_of(2.5 * x), mask)
        np.testing.assert_allclose(phi_scaled, 2.5**2 * phi, rtol=1e-12)

    def test_mask_grid_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValidationError, match="grid"):
            spatial_covariance(spec_of(crandn(rng, 3, 4, 2)), np.ones((3, 5)))

    @pytest.mark.parametrize("layout", ["contiguous", "stft"])
    def test_matches_einsum_oracle(self, layout):
        rng = np.random.default_rng(40)
        for p in (2, 3, 9):
            # stft returns a (freq, time, mic) view of a (time, freq, mic) buffer.
            x = crandn(rng, 50, 21, p).transpose(1, 0, 2)
            if layout == "contiguous":
                x = np.ascontiguousarray(x)
            mask = rng.uniform(0.0, 1.0, size=x.shape[:2])
            mask[3] = 0.0  # one bin with no weight: the floor divides
            got = spatial_covariance(spec_of(x), mask)
            want = einsum_covariance(x, mask)
            scale = np.abs(want).max(axis=(1, 2), keepdims=True)
            assert np.max(np.abs(got - want) / np.maximum(scale, 1e-300)) <= 1e-12
            np.testing.assert_array_equal(got[3], 0.0)

    def test_peak_memory_is_one_input_copy(self):
        rng = np.random.default_rng(41)
        x = spec_of(crandn(rng, 161, 600, 9))
        mask = rng.uniform(0.0, 1.0, size=(161, 600))
        tracemalloc.start()
        try:
            spatial_covariance(x, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * x.data.nbytes

    def test_out_of_range_mask_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValidationError, match="0, 1"):
            spatial_covariance(spec_of(crandn(rng, 2, 3, 2)), np.full((2, 3), 1.5))


class TestSteering:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(9)
        for p in (2, 3, 9):
            c = crandn(rng, p)
            phi = np.outer(c, np.conj(c))[None]
            got = steering_from_covariance(phi).values[0]
            cosine = abs(np.vdot(got, c)) / np.linalg.norm(c)
            assert cosine >= 1.0 - 1e-8
            assert got[0].imag == 0.0 and got[0].real >= 0.0

    def test_identity_tie_breaks_to_first_basis_vector(self):
        got = steering_from_covariance(np.eye(3, dtype=complex)[None])
        np.testing.assert_array_equal(got.values[0], np.array([1.0, 0.0, 0.0]))

    def test_matches_dense_eigensolver_oracle(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 30:
            p = int(rng.integers(2, 6))
            phi = random_psd(rng, p)
            eigvals, eigvecs = np.linalg.eigh(phi)
            if eigvals[-2] / eigvals[-1] > 0.9:
                continue  # near-tie: both routes are legitimately ambiguous
            oracle = eigvecs[:, -1]
            pivot = oracle[0] if abs(oracle[0]) > 1e-12 else oracle[
                int(np.argmax(np.abs(oracle)))
            ]
            oracle = oracle * (np.conj(pivot) / abs(pivot))
            got = steering_from_covariance(phi[None]).values[0]
            np.testing.assert_allclose(got, oracle, atol=1e-6)
            checked += 1

    def test_zero_matrix_raises_with_frequency(self):
        phi = np.zeros((2, 3, 3), dtype=complex)
        phi[0] = np.eye(3)
        with pytest.raises(DegenerateSteeringError, match="frequency 1"):
            steering_from_covariance(phi)

    @pytest.mark.parametrize("p", [2, 3, 9])
    def test_matches_per_frequency_loop_on_random_stacks(self, p):
        rng = np.random.default_rng(42 + p)
        phi = np.stack([random_psd(rng, p) for _ in range(24)])
        want, _ = loop_steering(phi)
        assert relative_rows(steering_from_covariance(phi).values, want) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3, 9])
    def test_matches_loop_when_frequencies_freeze_at_different_iterations(self, p):
        rng = np.random.default_rng(50 + p)
        phi = mixed_psd_stack(rng, p, 24)
        want, iterations = loop_steering(phi)
        # Immediate stops (identity, rank 1), slow near-ties and the cap.
        assert min(iterations) <= 2 and POWER_ITERATIONS in iterations
        assert len(set(iterations)) >= 5
        got = steering_from_covariance(phi).values
        assert relative_rows(got, want) <= 1e-12
        np.testing.assert_array_equal(got[0], np.eye(p)[0])

    def test_error_names_lowest_failing_frequency(self):
        nilpotent = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(DegenerateSteeringError, match="collapsed at frequency 0"):
            steering_from_covariance(np.stack([nilpotent, np.zeros((2, 2))]))
        with pytest.raises(DegenerateSteeringError, match="zero .* frequency 0"):
            steering_from_covariance(np.stack([np.zeros((2, 2)), nilpotent]))

    def test_every_failure_kind_matches_the_loop_message(self):
        # Entries of 1e-170 are nonzero, but every column norm underflows.
        tiny = np.full((2, 2), 1e-170, dtype=complex)
        nilpotent = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        for bad in (np.zeros((2, 2)), tiny, nilpotent):
            phi = np.stack([np.eye(2), np.eye(2), bad, np.zeros((2, 2))])
            with pytest.raises(DegenerateSteeringError) as want:
                loop_steering(phi)
            with pytest.raises(DegenerateSteeringError) as got:
                _principal_eigenvectors(phi.astype(complex))
            assert str(got.value) == str(want.value)
            assert "frequency 2" in str(got.value)

    def test_rotation_matches_loop_with_zero_pivots(self):
        rng = np.random.default_rng(60)
        values = crandn(rng, 8, 4)
        values[1, 0] = 0.0  # zero reference: the largest component pivots
        values[2] = 0.0  # all-zero row: left as it is
        values[3, 0] = 1e-14 * np.exp(0.4j)  # numerically zero reference
        values[4] = [0.0, 0.0, -2.0j, 0.0]
        got = _rotate_reference_real(values)
        want = loop_rotate_reference_real(values)
        live = np.linalg.norm(want, axis=1) > 0.0
        assert relative_rows(got[live], want[live]) <= 1e-12
        # Each pivot is written as |pivot|: real and positive, exactly.
        rows = [0, 1, 3, 5, 6, 7]
        pivots = np.argmax(np.abs(values), axis=1)
        pivots[[0, 5, 6, 7]] = 0
        assert np.all(got[rows, pivots[rows]].imag == 0.0)
        assert np.all(got[rows, pivots[rows]].real > 0.0)
        np.testing.assert_array_equal(got[4], [0.0, 0.0, 2.0, 0.0])
        np.testing.assert_array_equal(got[2], 0.0)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 2), (2, 0, 0)])
    def test_malformed_stack_rejected(self, shape):
        with pytest.raises(ValidationError, match="freq, mic, mic"):
            steering_from_covariance(np.ones(shape, dtype=complex))

    def test_non_finite_covariance_rejected_by_name(self):
        phi = np.stack([np.eye(3, dtype=complex)] * 3)
        phi[1, 0, 2] = np.nan
        phi[2, 1, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="frequency 1 .*non-finite"):
                steering_from_covariance(phi)

    def test_unit_norm_and_reference_phase(self):
        rng = np.random.default_rng(11)
        phi = np.stack([random_psd(rng, 4) for _ in range(5)])
        steering = steering_from_covariance(phi)
        assert steering.mode == "unit"
        np.testing.assert_allclose(
            np.linalg.norm(steering.values, axis=1), 1.0, atol=1e-12
        )
        ref = steering.values[:, 0]
        assert np.all(ref.imag == 0.0) and np.all(ref.real >= 0.0)

    def test_reference_normalize_pins_first_component(self):
        rng = np.random.default_rng(12)
        phi = np.stack([random_psd(rng, 3) for _ in range(4)])
        refd = reference_normalize(steering_from_covariance(phi))
        assert refd.mode == "reference"
        np.testing.assert_array_equal(refd.values[:, 0], 1.0)

    def test_strided_mic_axis_accepted(self):
        rng = np.random.default_rng(13)
        values = (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))).T
        assert not values.flags.c_contiguous
        np.testing.assert_array_equal(SteeringVector(values).values, values)
        values[4, 1] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            SteeringVector(values)

    def test_reference_normalize_rejects_vanishing_reference(self):
        values = np.array([[0.0, 1.0, 0.0]], dtype=complex)
        with pytest.raises(DegenerateSteeringError, match="frequency 0"):
            reference_normalize(SteeringVector(values))


class TestNoiseCompensation:
    def test_recovers_exact_direction_under_additive_noise(self):
        # If the speech estimate is (rank-1 speech) + (exactly the noise
        # covariance), subtraction leaves the rank-1 part and the isotropic
        # shift moves no eigenvector: steering recovers the direction.
        rng = np.random.default_rng(30)
        for p in (2, 3, 5):
            c = crandn(rng, p)
            phi_n = random_psd(rng, p)
            phi_s = 4.0 * np.outer(c, np.conj(c)) + phi_n
            target = noise_compensated_speech_covariance(phi_s[None], phi_n[None])
            got = steering_from_covariance(target).values[0]
            cosine = abs(np.vdot(got, c)) / np.linalg.norm(c)
            assert cosine >= 1.0 - 1e-6

    def test_result_is_psd(self):
        # The trace shift bounds every negative eigenvalue of the
        # difference; an independent dense eigendecomposition confirms.
        rng = np.random.default_rng(31)
        phi_s = np.stack([random_psd(rng, 4) for _ in range(20)])
        phi_n = np.stack([random_psd(rng, 4) for _ in range(20)])
        target = noise_compensated_speech_covariance(phi_s, phi_n)
        np.testing.assert_array_equal(
            target, np.conj(np.swapaxes(target, 1, 2))
        )
        for mat in target:
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() >= -1e-8 * np.trace(mat).real

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="share"):
            noise_compensated_speech_covariance(
                np.zeros((2, 3, 3), dtype=complex), np.zeros((2, 2, 2), dtype=complex)
            )


class TestMvdrWeights:
    def test_identity_noise_returns_steering_direction(self):
        c = np.zeros((1, 3), dtype=complex)
        c[0, 0] = 1.0
        w = mvdr_weights(np.eye(3, dtype=complex)[None], SteeringVector(c))
        np.testing.assert_array_equal(w, c)

    def test_diagonal_noise_hand_case(self):
        # Φ = diag(1, 4), c = (1, 1)/√2: Φ⁻¹c ∝ (1, 1/4) and the
        # distortionless normalization gives w = (8, 2) / (5·√2).
        phi = np.diag([1.0, 4.0]).astype(complex)[None]
        c = np.array([[1.0, 1.0]], dtype=complex) / np.sqrt(2)
        w = mvdr_weights(phi, SteeringVector(c))
        expected = np.array([8.0, 2.0]) / (5.0 * np.sqrt(2))
        np.testing.assert_allclose(w[0], expected, rtol=1e-5)
        assert np.vdot(w[0], c[0]) == pytest.approx(1.0, abs=1e-8)

        # Brute-force sweep: no random distortionless vector does better.
        rng = np.random.default_rng(13)
        candidates = distortionless_candidates(rng, c[0], 100_000)
        assert noise_powers(w, phi[0])[0] <= noise_powers(
            candidates, phi[0]
        ).min() + 1e-10

    def test_optimality_against_random_sweeps(self):
        rng = np.random.default_rng(14)
        for trial in range(50):
            p = 2 if trial % 2 == 0 else 3
            phi = random_psd(rng, p, ridge=1.0)
            c = crandn(rng, p)
            c = c * (np.conj(c[0]) / abs(c[0]))
            c = c / np.linalg.norm(c)
            w = mvdr_weights(phi[None], SteeringVector(c[None]))[0]
            candidates = distortionless_candidates(rng, c, 10_000)
            assert noise_powers(w[None], phi)[0] <= noise_powers(
                candidates, phi
            ).min() + 1e-10

    def test_distortionless_on_random_batch(self):
        rng = np.random.default_rng(15)
        phi = np.stack([random_psd(rng, 4, ridge=0.1) for _ in range(20)])
        steering = reference_normalize(steering_from_covariance(
            np.stack([random_psd(rng, 4) for _ in range(20)])
        ))
        w = mvdr_weights(phi, steering)
        residual = np.abs(np.einsum("fp,fp->f", np.conj(w), steering.values) - 1.0)
        assert residual.max() <= 1e-8

    def test_singular_matrix_names_frequency(self):
        phi = np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)])
        c = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(SolverError, match="frequency 1"):
            mvdr_weights(phi, SteeringVector(c))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_covariance_rejected_by_name(self, bad):
        phi = np.stack([np.eye(2, dtype=complex)] * 3)
        phi[2, 1, 0] = bad
        c = np.array([[1.0, 0.0]] * 3, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="frequency 2 .*non-finite"):
                mvdr_weights(phi, SteeringVector(c))

    def test_scaling_covariance_leaves_weights_unchanged(self):
        rng = np.random.default_rng(16)
        phi = random_psd(rng, 3, ridge=0.5)[None]
        c = crandn(rng, 3)
        c = (c * (np.conj(c[0]) / abs(c[0])))[None]
        w = mvdr_weights(phi, SteeringVector(c))
        w_scaled = mvdr_weights(7.3**2 * phi, SteeringVector(c))
        np.testing.assert_allclose(w_scaled, w, rtol=1e-10)

    def test_anechoic_two_mic_scene_beats_monte_carlo(self):
        # Single frequency, two mics: speech arrives with a pure phase
        # delay, noise has partial inter-mic coherence.  With w^H c = 1 the
        # output SNR is 1 / (w^H Φ_n w), so MVDR must beat every random
        # distortionless competitor.
        rng = np.random.default_rng(17)
        c = np.array([1.0, np.exp(-1j * np.pi / 3)], dtype=complex)
        coherence = 0.5 * np.exp(0.3j)
        phi = np.array([[1.0, coherence], [np.conj(coherence), 1.0]])
        w = mvdr_weights(phi[None], SteeringVector(c[None] / np.sqrt(2)))[0]
        mvdr_snr = 1.0 / noise_powers(w[None], phi)[0]
        candidates = distortionless_candidates(rng, c / np.sqrt(2), 1000)
        best_random = (1.0 / noise_powers(candidates, phi)).max()
        assert mvdr_snr >= best_random - 1e-9


class TestApplyUtteranceBeamformer:
    def test_selector_returns_reference_channel(self):
        rng = np.random.default_rng(18)
        x = spec_of(crandn(rng, 3, 5, 4))
        w = np.zeros((3, 4), dtype=complex)
        w[:, 0] = 1.0
        out = apply_utterance_beamformer(w, x)
        np.testing.assert_array_equal(out.data[:, :, 0], x.data[:, :, 0])

    def test_bit_exact_against_framewise_filter_and_sum(self):
        rng = np.random.default_rng(19)
        for freq, frames, mics in [(4, 6, 3), (161, 40, 9)]:
            x = spec_of(crandn(rng, freq, frames, mics))
            w = crandn(rng, freq, mics)
            out = apply_utterance_beamformer(w, x)
            broadcast = np.broadcast_to(w[:, None, :], x.data.shape)
            assert np.array_equal(out.data, filter_and_sum(broadcast, x).data)

    def test_weight_grid_mismatch_rejected(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ValidationError, match="grid"):
            apply_utterance_beamformer(
                np.ones((4, 2), dtype=complex), spec_of(crandn(rng, 4, 6, 3))
            )


def small_scene(seed=0, snr_db=0.0, rt60=0.25):
    rng = np.random.default_rng(seed)
    room = RoomSpec((6.0, 5.0, 3.0), rt60=rt60)
    array = ArraySpec.uniform_linear((3.0, 2.5, 1.5), num_mics=3, spacing=0.04)
    scene = SceneSpec(
        room=room,
        array=array,
        speech_position=(4.2, 3.4, 1.6),
        noise_position=(1.6, 1.2, 1.4),
        snr_db=snr_db,
    )
    speech = speech_like(1.0, rng)
    noise = noise_like(1.0, rng)
    return synthesize_mixture(speech, noise, scene)


class TestOraclePipeline:
    def test_reduces_noise_and_keeps_speech_on_synthesized_scene(self):
        mixture, speech_img, noise_img = small_scene(seed=21)
        cfg = StftConfig()
        mix = stft(mixture, cfg)
        s = stft(speech_img, cfg)
        n = stft(noise_img, cfg)

        enhanced = oracle_mvdr_enhance(mix, s, n)
        assert enhanced.data.shape == (mix.data.shape[0], mix.data.shape[1], 1)

        # Linearity: the beamformer output splits into the beamformed
        # speech and noise images, so measure each part separately.
        mask = irm(s, n)
        phi_s = spatial_covariance(mix, mask)
        phi_n = spatial_covariance(mix, 1.0 - mask)
        target = noise_compensated_speech_covariance(phi_s, phi_n)
        steering = reference_normalize(steering_from_covariance(target))
        w = mvdr_weights(phi_n, steering)
        speech_out = apply_utterance_beamformer(w, s)
        noise_out = apply_utterance_beamformer(w, n)
        np.testing.assert_allclose(
            speech_out.data + noise_out.data, enhanced.data, atol=1e-10
        )

        noise_in = np.sum(np.abs(n.data[:, :, 0]) ** 2)
        noise_after = np.sum(np.abs(noise_out.data) ** 2)
        speech_in = np.sum(np.abs(s.data[:, :, 0]) ** 2)
        speech_after = np.sum(np.abs(speech_out.data) ** 2)
        assert noise_after < 0.5 * noise_in
        assert 0.25 * speech_in < speech_after < 4.0 * speech_in

    def test_improves_time_domain_quality_on_synthesized_scene(self):
        def si_snr_db(est, ref):
            est = est - est.mean()
            ref = ref - ref.mean()
            target = (np.dot(est, ref) / np.dot(ref, ref)) * ref
            residual = est - target
            return 10 * np.log10(
                np.dot(target, target) / max(np.dot(residual, residual), 1e-30)
            )

        cfg = StftConfig()
        mixture, speech_img, noise_img = small_scene(seed=33, snr_db=-2.0)
        mix = stft(mixture, cfg)
        enhanced = oracle_mvdr_enhance(
            mix, stft(speech_img, cfg), stft(noise_img, cfg)
        )
        out = istft(enhanced, cfg).data[0]
        ref = speech_img.data[0]
        gained = si_snr_db(out[: ref.size], ref) - si_snr_db(mixture.data[0], ref)
        assert gained >= 1.0

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(22)
        mix = spec_of(crandn(rng, 3, 5, 2))
        s = spec_of(crandn(rng, 3, 5, 2))
        with pytest.raises(ValidationError, match="share"):
            oracle_mvdr_enhance(mix, s, spec_of(crandn(rng, 3, 4, 2)))

    def test_images_off_the_mixture_grid_rejected(self):
        rng = np.random.default_rng(23)
        mix = spec_of(crandn(rng, 3, 5, 2))
        off_grid = spec_of(crandn(rng, 3, 4, 1))
        with pytest.raises(ValidationError, match="grid"):
            oracle_mvdr_enhance(mix, off_grid, off_grid)
        with pytest.raises(ValidationError, match="share"):
            oracle_mvdr_enhance(
                mix, spec_of(crandn(rng, 3, 5, 1)), spec_of(crandn(rng, 3, 5, 2))
            )

    def test_reference_channel_images_give_identical_output(self):
        rng = np.random.default_rng(24)
        cfg = StftConfig()
        mixture, speech_img, noise_img = (
            WaveBuffer(rng.standard_normal((9, 4000)), 16_000) for _ in range(3)
        )
        mix = stft(mixture, cfg)
        full = oracle_mvdr_enhance(mix, stft(speech_img, cfg), stft(noise_img, cfg))
        reference_only = oracle_mvdr_enhance(
            mix,
            stft(WaveBuffer(speech_img.data[:1], 16_000), cfg),
            stft(WaveBuffer(noise_img.data[:1], 16_000), cfg),
        )
        np.testing.assert_array_equal(reference_only.data, full.data)
