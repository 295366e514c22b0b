"""Tests for WAV file I/O.  scipy.io.wavfile is the oracle here only;
beamkit does not import it."""

import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile
from wavfiles import IEEE_FLOAT, PCM, chunk, wav_file

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


class TestScipyOracle:
    @pytest.mark.parametrize("channels", [1, 2, 9])
    def test_writer_gives_scipys_bytes(self, tmp_path, channels):
        x = np.random.default_rng(channels).standard_normal((channels, 1001))
        write_wav(tmp_path / "ours.wav", WaveBuffer(x, 16000))
        payload = x.T.astype(np.float32)
        wavfile.write(tmp_path / "scipy.wav", 16000, payload[:, 0] if channels == 1 else payload)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize("extras", ["none", "list-and-odd"])
    @pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
    @pytest.mark.parametrize("channels", [1, 9])
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_reader_agrees_with_scipy(self, tmp_path, encoding, channels, extensible, extras):
        rng = np.random.default_rng(channels)
        if encoding == "pcm16":
            frames = rng.integers(-32768, 32768, (301, channels)).astype("<i2")
            tag, scale = PCM, 32768.0
        else:
            frames = rng.standard_normal((301, channels)).astype("<f4")
            tag, scale = IEEE_FLOAT, 1.0
        before = after = b""
        if extras == "list-and-odd":
            # A LIST chunk ahead of fmt, and an odd-sized one, with its
            # pad byte, between fmt and data.
            before = chunk(b"LIST", b"INFOISFT" + struct.pack("<I", 6) + b"beam\0\0")
            after = chunk(b"odd ", b"abc")
        path = tmp_path / "in.wav"
        path.write_bytes(wav_file(frames, tag, extensible, before=before, after=after))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns of the chunk it skips
            rate, want = wavfile.read(path)
        got = read_wav(path)
        assert got.sample_rate == rate == 16000
        np.testing.assert_array_equal(got.data, want.reshape(301, channels).T / scale)


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

    @pytest.mark.parametrize(
        "tag,bits,extensible,name",
        [(PCM, 8, False, "uint8"), (PCM, 24, False, "int32"), (PCM, 32, True, "int32"),
         (IEEE_FLOAT, 64, False, "float64"), (7, 8, False, "8-bit format 0x0007")],
        ids=["pcm8", "pcm24", "pcm32-extensible", "float64", "mu-law"],
    )
    def test_other_encodings_are_named(self, tmp_path, tag, bits, extensible, name):
        path = tmp_path / "other.wav"
        frames = np.zeros((10, 1), dtype=f"V{bits // 8}")  # one channel of ``bits``
        path.write_bytes(wav_file(frames, tag, extensible))
        with pytest.raises(WavFormatError, match=f"unsupported WAV encoding {name} in "):
            read_wav(path)


def float32_file(channels=2, frames=50) -> bytes:
    return wav_file(np.full((frames, channels), 0.25, dtype="<f4"), IEEE_FLOAT)


def with_size(raw: bytes, cid: bytes, size: int) -> bytes:
    """``raw`` with the size of its first ``cid`` chunk restated."""
    at = raw.index(cid) + 4
    return raw[:at] + struct.pack("<I", size) + raw[at + 4 :]


class TestMalformed:
    """Every damaged layout raises WavFormatError, never a bare exception."""

    @pytest.mark.parametrize(
        "raw,message",
        [(float32_file()[:-8], "data chunk holds 392 of its 400 bytes"),
         (float32_file()[:-5], "data chunk holds 395 of its 400 bytes"),
         (with_size(float32_file(), b"data", 398), "not whole 8-byte frames"),
         (float32_file().replace(b"fmt ", b"fmx "), "no fmt chunk"),
         (float32_file().replace(b"data", b"dat "), "no data chunk"),
         (b"RIFF\0\0\0\0WAVE" + chunk(b"fmt ", bytes(14)) + chunk(b"data", bytes(8)),
          "fmt chunk of 14 bytes, need 16"),
         (b"RIFX" + float32_file()[4:], "not a little-endian RIFF/WAVE file"),
         (b"RF64" + float32_file()[4:], "not a little-endian RIFF/WAVE file"),
         (float32_file()[:10], "shorter than a RIFF header"),
         (float32_file().replace(struct.pack("<HH", 8, 32), struct.pack("<HH", 4, 32)),
          "2 channels of 32 bits in blocks of 4 bytes")],
        ids=["cut-a-frame", "cut-5-bytes", "part-frame", "no-fmt", "no-data", "short-fmt",
             "rifx", "rf64", "short-riff", "block-align"],
    )
    def test_refused_with_one_error(self, tmp_path, raw, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(WavFormatError, match=message):
            read_wav(path)

    def test_short_extensible_fmt_refused(self, tmp_path):
        raw = wav_file(np.zeros((4, 2), dtype="<f4"), IEEE_FLOAT, extensible=True)
        fmt = raw.index(b"fmt ")
        # Keep 18 of the 40 bytes, and say so.
        raw = raw[:fmt + 4] + struct.pack("<I", 18) + raw[fmt + 8 : fmt + 26] + raw[fmt + 48 :]
        path = tmp_path / "short.wav"
        path.write_bytes(raw)
        with pytest.raises(WavFormatError, match="extensible fmt chunk of 18 bytes, need 40"):
            read_wav(path)
