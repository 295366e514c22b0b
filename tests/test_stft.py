"""Tests for the STFT front end and power compression."""

import tracemalloc

import numpy as np
import pytest
from scipy.signal import get_window

from beamkit.errors import ConfigMismatchError, EmptySignalError, ValidationError
from beamkit.signals import WaveBuffer, noise_like, speech_like
from beamkit.stft import (
    ANALYSIS_WINDOW,
    NORM_FLOOR,
    ComplexSpectrogram,
    StftConfig,
    cola_interior,
    compress,
    decompress,
    istft,
    stft,
)

CFG = StftConfig()  # 320/160/320 periodic Hann


def roundtrip_error(x: np.ndarray, cfg: StftConfig = CFG) -> float:
    """Relative L2 reconstruction error over the fully-overlapped interior."""
    wave = WaveBuffer(x, 16000)
    back = istft(stft(wave, cfg), cfg)
    region = cola_interior(wave.num_samples, cfg)
    ref = wave.data[:, region]
    err = back.data[:, region] - ref
    return float(np.linalg.norm(err) / np.linalg.norm(ref))


class TestConfig:
    def test_defaults(self):
        assert CFG.frame_length == 320
        assert CFG.frame_shift == 160
        assert CFG.fft_size == 320
        assert CFG.freq_bins == 161

    def test_window_is_periodic_hann(self):
        w = CFG.analysis_window()
        n = np.arange(320)
        np.testing.assert_allclose(w, 0.5 * (1 - np.cos(2 * np.pi * n / 320)), atol=1e-12)
        assert w[0] == 0.0
        # One read-only array, the bits scipy gives for a periodic Hann.
        assert w is ANALYSIS_WINDOW and not w.flags.writeable
        assert np.array_equal(w, get_window("hann", 320, fftbins=True))


class TestAnalysis:
    def test_dc_under_hann_window(self):
        # The periodic Hann window is itself a three-term cosine, so a DC
        # frame transforms to the window's spectrum: 160 at bin 0, -80 at
        # bin 1, and nothing beyond.
        wave = WaveBuffer(np.ones(320), 16000)
        spec = stft(wave, CFG).channel(0)
        np.testing.assert_allclose(spec[0, 0], 160.0, atol=1e-9)
        np.testing.assert_allclose(spec[1, 0], -80.0, atol=1e-9)
        assert np.max(np.abs(spec[2:, 0])) < 1e-10 * np.abs(spec[0, 0])

    def test_sine_1khz_peaks_at_bin_20(self):
        t = np.arange(3200) / 16000
        wave = WaveBuffer(np.sin(2 * np.pi * 1000 * t), 16000)
        spec = stft(wave, CFG).channel(0)
        # 320-pt FFT at 16 kHz -> 50 Hz per bin; 1000 Hz falls on bin 20.
        mags = np.abs(spec[:, 5])
        assert int(np.argmax(mags)) == 20

    def test_frame_count_is_ceil(self):
        for n, expected in [(320, 2), (160, 1), (161, 2), (1, 1), (480, 3), (481, 4)]:
            wave = WaveBuffer(np.ones(n), 16000)
            assert stft(wave, CFG).num_frames == expected

    def test_frames_index_causally(self):
        # An impulse at sample 400 must not appear in frames that end
        # before it: frame t covers [160 t, 160 t + 320).
        x = np.zeros(1600)
        x[400] = 1.0
        spec = stft(WaveBuffer(x, 16000), CFG).channel(0)
        energy = np.sum(np.abs(spec) ** 2, axis=0)
        assert energy[0] == 0.0  # frame 0 covers [0, 320)
        assert energy[1] > 0  # frame 1 covers [160, 480)
        assert energy[2] > 0  # frame 2 covers [320, 640)
        assert np.all(energy[3:] == 0.0)

    def test_multichannel_shape_and_order(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 1000))
        spec = stft(WaveBuffer(x, 16000), CFG)
        assert spec.data.shape == (161, 7, 3)
        for ch in range(3):
            mono = stft(WaveBuffer(x[ch], 16000), CFG)
            np.testing.assert_array_equal(spec.channel(ch), mono.channel(0))

    def test_empty_signal_rejected(self):
        with pytest.raises(EmptySignalError):
            WaveBuffer(np.zeros((1, 0)), 16000)

    def test_non_finite_rejected(self):
        wave = WaveBuffer(np.ones(320), 16000)
        wave.data[0, 5] = np.nan
        with pytest.raises(ValidationError):
            stft(wave, CFG)

    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_other_sample_rate_rejected(self, rate):
        # The front end's geometry is in samples at 16 kHz.
        with pytest.raises(ValidationError, match=f"waveform rate {rate} Hz, expected 16000 Hz"):
            stft(WaveBuffer(np.ones(320), rate), CFG)

    def test_strided_channel_axis_accepted(self):
        # A (mic, time, freq) array transposed to (freq, time, mic) has a
        # non-contiguous last axis; the finiteness check must not care.
        rng = np.random.default_rng(12)
        shape = (3, 4, 161)
        data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).transpose(2, 1, 0)
        assert not data.flags.c_contiguous
        spec = ComplexSpectrogram(data)
        np.testing.assert_array_equal(spec.data, data)
        data[7, 2, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            ComplexSpectrogram(data)

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("index", [(0, 0, 0), (80, 2, 1), (160, 4, 2)], ids=["first", "middle", "last"])
    def test_one_non_finite_bin_rejected(self, part, value, index):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((161, 5, 3)) + 1j * rng.standard_normal((161, 5, 3))
        getattr(data, part)[index] = value
        with pytest.raises(ValidationError, match="non-finite"):
            ComplexSpectrogram(data)

    def test_finite_bins_whose_sum_overflows_accepted(self):
        # The sum of these bins overflows in both parts; every bin is finite.
        data = np.full((161, 4, 2), 1e308 - 1e308j)
        spec = ComplexSpectrogram(data)
        np.testing.assert_array_equal(spec.data, data)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        a, b = 2.5, -0.7
        lhs = stft(WaveBuffer(a * x + b * y, 16000), CFG).data
        rhs = a * stft(WaveBuffer(x, 16000), CFG).data + b * stft(WaveBuffer(y, 16000), CFG).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * np.abs(rhs).max())


def gather_stft(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """The framing stft used before the copy-free one: every frame of every
    channel gathered by fancy indexing, windowed in a second copy, and all
    transformed at once.  Returns ``(freq, frames, channels)`` bins."""
    shift, length = cfg.frame_shift, cfg.frame_length
    num_frames = -(-x.shape[1] // shift)
    padded = np.zeros((x.shape[0], (num_frames - 1) * shift + length))
    padded[:, : x.shape[1]] = x
    starts = np.arange(num_frames) * shift
    frames = padded[:, starts[:, None] + np.arange(length)]
    spec = np.fft.rfft(frames * cfg.analysis_window(), n=cfg.fft_size, axis=-1)
    return spec.transpose(2, 1, 0)


class TestFraming:
    @pytest.mark.parametrize("channels", [1, 9])
    @pytest.mark.parametrize("num_samples", [1, 1000, 4801])
    @pytest.mark.parametrize("cfg", [CFG], ids=["default"])
    def test_matches_gather_framing(self, channels, num_samples, cfg):
        x = np.random.default_rng(num_samples).standard_normal((channels, num_samples))
        spec = stft(WaveBuffer(x, 16000), cfg)
        assert np.array_equal(spec.data, gather_stft(x, cfg))
        assert spec.data.flags.c_contiguous

    def test_peak_memory_within_half_the_output(self):
        # The gather framing holds every frame twice plus the bins (about
        # 3.3x the output for 9 channels); framing one channel at a time
        # holds one channel's frames and bins on top of the output.
        x = np.random.default_rng(3).standard_normal((9, 32000))
        wave = WaveBuffer(x, 16000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            spec = stft(wave, CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.5 * spec.data.nbytes

    def test_one_channel_peak_holds_no_second_copy_of_the_bins(self):
        # 600 frames: a 1.47 MiB output, 1.46 MiB of windowed frames and a
        # 0.73 MiB padded channel, 3.80 MiB at peak as measured.  Bins
        # made in a temporary and then copied would add 1.47 MiB more.
        wave = WaveBuffer(np.random.default_rng(4).standard_normal((1, 96000)), 16000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            stft(wave, CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 3.95 * 2**20


class TestSynthesis:
    def test_zero_spectrogram_gives_silence(self):
        spec = ComplexSpectrogram(np.zeros((161, 5, 1), dtype=complex), num_samples=800)
        wave = istft(spec, CFG)
        assert wave.num_samples == 800
        np.testing.assert_array_equal(wave.data, 0.0)

    def test_output_length_untrimmed(self):
        spec = ComplexSpectrogram(np.zeros((161, 5, 1), dtype=complex))
        assert istft(spec, CFG).num_samples == 4 * 160 + 320

    def test_geometry_mismatch_rejected(self):
        # 161 bins, but from 160-sample frames at an 80-sample hop.
        spec = ComplexSpectrogram(
            np.zeros((161, 5, 1), dtype=complex), frame_shift=80, frame_length=160
        )
        with pytest.raises(ConfigMismatchError, match="frame_shift=80"):
            istft(spec, CFG)

    def test_roundtrip_white_noise(self):
        rng = np.random.default_rng(3)
        assert roundtrip_error(rng.standard_normal(16000)) <= 1e-6

    def test_roundtrip_multichannel(self):
        rng = np.random.default_rng(4)
        assert roundtrip_error(rng.standard_normal((4, 9000))) <= 1e-6

    def test_roundtrip_speech_shaped_six_seconds(self):
        wave = speech_like(6.0, np.random.default_rng(123))
        assert roundtrip_error(wave.data) <= 1e-6

    def test_roundtrip_random_lengths(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(16000, 96001))
            assert roundtrip_error(rng.standard_normal(n)) <= 1e-6

    def test_roundtrip_on_leading_taper_follows_floored_normalizer(self):
        # Samples covered only by the first frame are divided by the floored
        # squared window, so synthesis returns x[i] scaled by
        # norm[i] / max(norm[i], floor): exact once the window has risen
        # above the floor, attenuated by that known ratio below it.
        rng = np.random.default_rng(6)
        x = rng.standard_normal(4000)
        wave = WaveBuffer(x, 16000)
        back = istft(stft(wave, CFG), CFG)
        assert back.num_samples == 4000

        window = CFG.analysis_window()
        lead = window[: CFG.frame_shift] ** 2
        expected_scale = lead / np.maximum(lead, NORM_FLOOR)
        np.testing.assert_allclose(
            back.data[0, : CFG.frame_shift],
            x[: CFG.frame_shift] * expected_scale,
            atol=1e-9,
        )
        # Beyond the floor crossing the scale is exactly one.
        exact = expected_scale == 1.0
        assert exact.sum() > 100
        np.testing.assert_allclose(back.data[0, CFG.frame_shift :], x[CFG.frame_shift :], atol=1e-9)
        assert back.data[0, 0] == 0.0

    @pytest.mark.parametrize("length,shift,window", [(320, 160, "hann")])
    @pytest.mark.parametrize("num_frames", [1, 2, 5, 37, 601])
    def test_overlap_add_equals_frame_loop(self, length, shift, window, num_frames):
        rng = np.random.default_rng(num_frames)
        shape = (CFG.freq_bins, num_frames, 2)
        spec = ComplexSpectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        # Reference: one windowed frame at a time, in frame order, with a
        # window scipy builds afresh.
        w = get_window(window, length, fftbins=True)
        frames = np.fft.irfft(spec.data.transpose(2, 1, 0), n=length, axis=-1) * w
        out_len = (num_frames - 1) * shift + length
        out = np.zeros((2, out_len))
        norm = np.zeros(out_len)
        for t in range(num_frames):
            out[:, t * shift : t * shift + length] += frames[:, t, :]
            norm[t * shift : t * shift + length] += w**2
        out /= np.maximum(norm, NORM_FLOOR)
        assert np.array_equal(istft(spec, CFG).data, out)


class TestCompression:
    def test_sqrt_of_four(self):
        np.testing.assert_allclose(compress(np.array(4 + 0j)), 2 + 0j, rtol=1e-12)

    def test_negative_real_preserves_phase(self):
        np.testing.assert_allclose(compress(np.array(-9 + 0j)), -3 + 0j, rtol=1e-12)

    def test_zero_maps_to_zero(self):
        for e in (0.25, 0.5, 1.0):
            assert compress(np.array(0j), e) == 0j
            assert decompress(np.array(0j), e) == 0j

    def test_decompress_squares(self):
        np.testing.assert_allclose(decompress(np.array(2 + 0j)), 4 + 0j, rtol=1e-12)

    def test_pure_imaginary(self):
        np.testing.assert_allclose(decompress(np.array(3j)), 9j, rtol=1e-12)
        np.testing.assert_allclose(compress(np.array(9j)), 3j, rtol=1e-12)

    def test_roundtrip_random_tensor(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((161, 7, 3)) + 1j * rng.standard_normal((161, 7, 3))
        for e in (0.3, 0.5, 1.0):
            back = decompress(compress(z, e), e)
            assert np.max(np.abs(back - z) / np.abs(z)) <= 1e-12

    def test_phase_preserved(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        np.testing.assert_allclose(np.angle(compress(z)), np.angle(z), atol=1e-12)

    def test_monotone_in_magnitude(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        order = np.argsort(np.abs(z))
        compressed_sorted = np.abs(compress(z))[order]
        assert np.all(np.diff(compressed_sorted) > 0)

    def test_exponent_one_is_identity(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        np.testing.assert_allclose(compress(z, 1.0), z, rtol=1e-15)

    def test_bad_exponent_rejected(self):
        for e in (0.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                compress(np.array(1 + 0j), e)
            with pytest.raises(ValidationError):
                decompress(np.array(1 + 0j), e)

    def test_spectrogram_metadata_preserved(self):
        wave = noise_like(0.5, np.random.default_rng(14))
        spec = stft(wave, CFG)
        comp = compress(spec)
        assert isinstance(comp, ComplexSpectrogram)
        assert comp.num_samples == spec.num_samples
        assert comp.frame_shift == spec.frame_shift
        np.testing.assert_allclose(np.abs(comp.data), np.abs(spec.data) ** 0.5, rtol=1e-12)

    def test_compressed_roundtrip_through_synthesis(self):
        wave = speech_like(1.0, np.random.default_rng(15))
        spec = stft(wave, CFG)
        back = istft(decompress(compress(spec)), CFG)
        region = cola_interior(wave.num_samples, CFG)
        np.testing.assert_allclose(
            back.data[:, region], wave.data[:, region], atol=1e-9
        )
