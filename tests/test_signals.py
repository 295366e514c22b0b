"""Synthetic test signals: the harmonic bank against its direct-sum oracle."""

import math
import re

import numpy as np
import pytest

from beamkit import signals
from beamkit.errors import ValidationError
from beamkit.signals import WaveBuffer, speech_like

# Agreement of the Horner harmonic bank with the direct sum, relative to
# the peak sample.  Set from the float64 spacing at k·φ ≈ 4e5 rad (the
# largest harmonic argument of a 6 s signal), which bounds how exactly
# the direct sum itself is known; the measured worst case over 40 seeds
# × {0.5, 2, 6} s is 3.8e-12.
HARMONIC_AGREEMENT = 1e-9


def direct_harmonic_sum(phase, amplitudes, offsets):
    """``Σ_k a_k · sin(k·phase + θ_k)`` as one ``np.sin`` per harmonic,
    accumulated in ascending ``k``: the formula the bank replaces."""
    voiced = np.zeros(phase.shape)
    for k, (amplitude, offset) in enumerate(zip(amplitudes, offsets), start=1):
        voiced += amplitude * np.sin(k * phase + offset)
    return voiced


@pytest.mark.parametrize("duration", [0.5, 2.0, 6.0])
def test_speech_like_matches_direct_harmonic_sum(monkeypatch, duration):
    for seed in range(3):
        bank = speech_like(duration, np.random.default_rng(seed)).mono()
        with monkeypatch.context() as patch:
            patch.setattr(signals, "_harmonic_bank", direct_harmonic_sum)
            direct = speech_like(duration, np.random.default_rng(seed)).mono()
        peak = np.max(np.abs(direct))
        assert np.max(np.abs(bank - direct)) <= HARMONIC_AGREEMENT * peak


def test_harmonic_bank_single_harmonic_is_a_sine():
    phase = np.linspace(0.0, 50.0, 1001)
    out = signals._harmonic_bank(phase, [0.7], np.array([1.3]))
    np.testing.assert_allclose(out, 0.7 * np.sin(phase + 1.3), rtol=0, atol=1e-13)


def test_vector_offset_draw_keeps_the_scalar_stream():
    # speech_like draws its K harmonic offsets in one call; the stream it
    # leaves for the later draws must be that of K scalar draws.
    vector, scalar = np.random.default_rng(5), np.random.default_rng(5)
    drawn = vector.uniform(0, 2 * np.pi, 31)
    expected = [scalar.uniform(0, 2 * np.pi) for _ in range(31)]
    np.testing.assert_array_equal(drawn, expected)
    assert vector.standard_normal() == scalar.standard_normal()


@pytest.mark.parametrize(
    "rate",
    [16000.9, 16000.0, True, "16000", 0, -16000, np.float64(16000)],
    ids=["fractional", "float", "bool", "string", "zero", "negative", "numpy-float"],
)
def test_wave_buffer_refuses_a_rate_that_is_not_a_positive_integer(rate):
    # A fractional rate used to be truncated: 16000.9 became 16000 Hz.
    with pytest.raises(ValidationError, match=re.escape(f"got {rate!r}")):
        WaveBuffer(np.ones(320), rate)


@pytest.mark.parametrize("rate", [16000, np.int32(16000), np.int64(8000)])
def test_wave_buffer_keeps_an_integer_rate_as_int(rate):
    buffer = WaveBuffer(np.ones(320), rate)
    assert buffer.sample_rate == rate and type(buffer.sample_rate) is int


@pytest.mark.parametrize(
    "source", [signals.speech_like, signals.noise_like], ids=lambda f: f.__name__
)
@pytest.mark.parametrize("duration", [math.nan, math.inf], ids=["nan", "inf"])
def test_source_refuses_a_non_finite_duration(source, duration):
    # NaN ended in numpy's "cannot convert float NaN to integer", inf in
    # an OverflowError.
    with pytest.raises(ValidationError, match="finite"):
        source(duration, np.random.default_rng(0))
