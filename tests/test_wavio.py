"""Tests for WAV file I/O."""

import numpy as np
import pytest
from scipy.io import wavfile

from beamkit.errors import WavFormatError
from beamkit.signals import WaveBuffer
from beamkit.wavio import read_wav, write_wav


def write_pcm16(path, x, rate=16000):
    """Quantize ``x`` as PCM16 (``clip(round(x * 32768))``) and write it with
    scipy: files from elsewhere are often PCM16, though beamkit writes float32."""
    wavfile.write(path, rate, np.clip(np.round(x * 32768), -32768, 32767).astype(np.int16))


class TestRoundTrip:
    def test_float32_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5000)).astype(np.float32).astype(np.float64)
        path = tmp_path / "f32.wav"
        write_wav(path, WaveBuffer(x, 16000))
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(back.data, x)

    def test_pcm16_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(2)
        x = np.clip(rng.standard_normal(8000) * 0.3, -0.999, 0.999)
        path = tmp_path / "p16.wav"
        write_pcm16(path, x)
        back = read_wav(path)
        assert back.sample_rate == 16000
        assert np.max(np.abs(back.data[0] - x)) <= 1.0 / 32768

    def test_pcm16_clamps_overrange(self, tmp_path):
        # The clamped extremes read back as the ends of [-1, 1).
        x = np.array([2.0, -2.0, 0.0])
        path = tmp_path / "clip.wav"
        write_pcm16(path, x)
        back = read_wav(path)
        np.testing.assert_allclose(back.data[0], [32767 / 32768, -1.0, 0.0])

    def test_eight_channels_preserved_in_order(self, tmp_path):
        x = np.tile(np.arange(8, dtype=np.float64)[:, None] / 10, (1, 100))
        path = tmp_path / "8ch.wav"
        write_wav(path, WaveBuffer(x, 16000))
        back = read_wav(path)
        assert back.num_channels == 8
        np.testing.assert_array_equal(back.data, x.astype(np.float32))

    def test_mono_file_is_single_channel(self, tmp_path):
        path = tmp_path / "mono.wav"
        write_wav(path, WaveBuffer(np.zeros(100), 8000))
        back = read_wav(path)
        assert back.num_channels == 1
        assert back.sample_rate == 8000


class TestErrors:
    def test_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "8k.wav"
        write_wav(path, WaveBuffer(np.zeros(100), 8000))
        with pytest.raises(WavFormatError, match="16000"):
            read_wav(path, expect_rate=16000)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"RIFFnot really a wav file at all")
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "absent.wav")

    def test_unsupported_encoding_rejected(self, tmp_path):
        path = tmp_path / "i32.wav"
        wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(WavFormatError, match="int32"):
            read_wav(path)
