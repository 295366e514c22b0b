"""Tests for image-method RIRs and scene synthesis."""

import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from beamkit import rooms
from beamkit.errors import (
    EmptySignalError,
    GenerationError,
    GeometryError,
    ManifestSchemaError,
    ValidationError,
)
from beamkit.rooms import (
    ArraySpec,
    RoomSpec,
    SceneSampling,
    SceneSpec,
    absorption_from_rt60,
    build_corpus,
    default_max_order,
    doa_separation_deg,
    image_method_rir,
    read_manifest,
    rebuild_scene_audio,
    sample_scene,
    synthesize_mixture,
)
from beamkit.signals import WaveBuffer, noise_like, speech_like
from beamkit.wavio import read_wav

C = 343.0
FS = 16000


def make_scene(
    dims=(5.0, 4.0, 3.0),
    rt60=0.5,
    mic_center=(2.0, 2.0, 1.5),
    num_mics=1,
    speech=(3.0, 2.0, 1.5),
    noise=(1.0, 1.0, 1.0),
    snr_db=0.0,
):
    return SceneSpec(
        room=RoomSpec(dims, rt60=rt60),
        array=ArraySpec.uniform_linear(mic_center, num_mics=num_mics),
        speech_position=np.asarray(speech, dtype=float),
        noise_position=np.asarray(noise, dtype=float),
        snr_db=snr_db,
    )


def speech_rir(scene, max_order=None):
    return image_method_rir(scene.room, scene.array, scene.speech_position, max_order)


class TestSpecArrays:
    def test_specs_freeze_copies_not_the_callers_arrays(self):
        mics = np.array([[2.0, 2.0, 1.5], [2.1, 2.0, 1.5]])
        speech = np.array([3.0, 2.0, 1.5])
        noise = np.array([1.0, 1.0, 1.0])
        scene = SceneSpec(RoomSpec((5.0, 4.0, 3.0), rt60=0.5), ArraySpec(mics), speech, noise, 0.0)
        # Each write raised "assignment destination is read-only" when the
        # specs froze the caller's own float64 arrays.
        mics[0, 0] = speech[0] = noise[0] = 0.5
        assert scene.array.mic_positions[0, 0] == 2.0
        assert scene.speech_position[0] == 3.0 and scene.noise_position[0] == 1.0
        taps = speech_rir(scene)
        assert taps.dtype == np.float64 and taps.shape[0] == 2
        for held in (scene.array.mic_positions, scene.speech_position, taps):
            assert not held.flags.writeable


class TestAbsorption:
    def test_sabine_hand_value(self):
        # V = 5*4*3 = 60, S = 2*(20 + 15 + 12) = 94:
        # alpha = 0.161 * 60 / (94 * 0.5) = 9.66 / 47.
        room = RoomSpec((5.0, 4.0, 3.0), rt60=0.5)
        alpha = absorption_from_rt60(room)
        assert alpha == pytest.approx(9.66 / 47.0, rel=1e-14)
        assert alpha == pytest.approx(0.2055, abs=5e-5)

    def test_long_rt60_limit(self):
        room = RoomSpec((5.0, 4.0, 3.0), rt60=1e9)
        assert 0 < absorption_from_rt60(room) < 1e-8

    def test_short_rt60_clamps_to_anechoic(self):
        # alpha would be 9.66 / (94 * 0.01) ~ 10.3 > 1.
        room = RoomSpec((5.0, 4.0, 3.0), rt60=0.01)
        assert absorption_from_rt60(room) == 1.0

    def test_invalid_room_rejected(self):
        with pytest.raises(GeometryError):
            RoomSpec((5.0, -4.0, 3.0), rt60=0.5)
        with pytest.raises(ValidationError):
            RoomSpec((5.0, 4.0, 3.0), rt60=0.0)


class TestImageMethod:
    def test_anechoic_direct_path(self):
        # rt60 = 0.05 s in this room implies alpha > 1, i.e. anechoic.
        # Source exactly 1 m from the single mic: one tap at
        # round(16000 / 343) = 47 with amplitude 1 / (4 pi).
        scene = make_scene(rt60=0.05)
        assert absorption_from_rt60(scene.room) == 1.0
        rir = speech_rir(scene)
        taps = rir[0]
        assert taps[47] == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-12)
        other = np.sum(np.abs(taps)) - np.abs(taps[47])
        assert other == 0.0

    def test_max_order_zero_is_direct_path_regardless_of_alpha(self):
        scene = make_scene(rt60=0.5, num_mics=3)
        rir = speech_rir(scene, max_order=0)
        for p in range(3):
            d = np.linalg.norm(scene.array.mic_positions[p] - scene.speech_position)
            idx = int(round(d / C * FS))
            assert rir[p, idx] == pytest.approx(1.0 / (4 * np.pi * d), rel=1e-12)
            assert np.sum(rir[p] != 0.0) == 1

    def test_symmetric_mics_get_identical_rirs(self):
        # Room symmetric about x = 3 with the array centered there; a source
        # on that plane is mirrored onto itself, so the first and last mics
        # (mirror images of each other) must see identical RIRs.
        scene = SceneSpec(
            room=RoomSpec((6.0, 4.0, 3.0), rt60=0.3),
            array=ArraySpec.uniform_linear((3.0, 1.7, 1.5), num_mics=9),
            speech_position=np.array([3.0, 2.9, 1.8]),
            noise_position=np.array([1.0, 1.0, 1.0]),
            snr_db=0.0,
        )
        rir = speech_rir(scene, max_order=6)
        np.testing.assert_allclose(rir[0], rir[8], atol=1e-12, rtol=0)
        np.testing.assert_allclose(rir[1], rir[7], atol=1e-12, rtol=0)

    def test_mirrored_scene_reverses_mics(self):
        # Reflecting the source across the array's perpendicular-bisector
        # plane (x = room_length / 2, where the array is centered) maps mic p
        # onto mic P-1-p and leaves the room invariant, so the mirrored
        # scene's RIRs are the original's in reversed mic order.
        room = RoomSpec((6.0, 4.0, 3.0), rt60=0.3)
        array = ArraySpec.uniform_linear((3.0, 1.7, 1.5), num_mics=5)
        base = dict(room=room, array=array, noise_position=np.array([3.0, 3.0, 2.0]), snr_db=0.0)
        scene = SceneSpec(speech_position=np.array([2.2, 2.9, 1.8]), **base)
        mirrored = SceneSpec(speech_position=np.array([3.8, 2.9, 1.8]), **base)
        rir = speech_rir(scene, max_order=8)
        rir_m = speech_rir(mirrored, max_order=8)
        np.testing.assert_allclose(rir_m, rir[::-1], atol=1e-10, rtol=0)

    def test_leading_tap_is_direct_path(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            scene = sample_scene(rng)
            rir = image_method_rir(
                scene.room, scene.array, scene.noise_position, max_order=8
            )
            d = np.linalg.norm(
                scene.array.mic_positions - scene.noise_position, axis=1
            )
            for p in range(rir.shape[0]):
                first = int(np.flatnonzero(rir[p])[0])
                assert first == int(round(d[p] / C * FS))

    def test_rir_length_follows_rt60(self):
        scene = make_scene(rt60=0.25)
        rir = speech_rir(scene)
        assert rir.shape[1] == int(np.ceil(0.25 * FS))

    def test_energy_decay_on_average(self):
        # Average (per-scene-normalized) energy in consecutive 10 ms windows
        # after the direct path must be non-increasing for absorptive walls.
        rng = np.random.default_rng(22)
        cfg = SceneSampling(rt60_range=(0.3, 0.5))
        width = 160
        num_windows = 8
        profiles = []
        for _ in range(20):
            scene = sample_scene(rng, cfg)
            assert absorption_from_rt60(scene.room) < 1.0
            taps = speech_rir(scene, max_order=10)[0]
            start = int(np.flatnonzero(taps)[0])
            windows = [
                np.sum(taps[start + w * width : start + (w + 1) * width] ** 2)
                for w in range(num_windows)
            ]
            profiles.append(np.array(windows) / windows[0])
        avg = np.mean(profiles, axis=0)
        assert np.all(np.diff(avg) <= 1e-12)

    def test_taps_match_norm_distances(self, monkeypatch):
        # The column-wise distances must give the taps that
        # np.linalg.norm over (images, 3) rows gives, bit for bit.
        scene = sample_scene(np.random.default_rng(23))
        fast = speech_rir(scene)
        monkeypatch.setattr(
            rooms, "_image_distances",
            lambda images, mic: np.linalg.norm(images.T - mic, axis=1),
        )
        slow = speech_rir(scene)
        assert np.array_equal(fast, slow)

    def test_source_on_wall_rejected(self):
        with pytest.raises(GeometryError):
            make_scene(speech=(0.0, 2.0, 1.5))

    def test_source_outside_rejected(self):
        with pytest.raises(GeometryError):
            make_scene(noise=(6.0, 2.0, 1.5))

    @pytest.mark.parametrize("source", [(0.0, 2.0, 1.5), (6.0, 2.0, 1.5), (3.0, 2.0)])
    def test_traced_source_must_be_inside(self, source):
        scene = make_scene()
        with pytest.raises(GeometryError):
            image_method_rir(scene.room, scene.array, source)

    def test_traced_mic_must_be_inside(self):
        scene = make_scene()
        outside = ArraySpec.uniform_linear((2.0, 2.0, 3.0), num_mics=1)
        with pytest.raises(GeometryError, match="microphone"):
            image_method_rir(scene.room, outside, scene.speech_position)

    def test_negative_max_order_rejected(self):
        with pytest.raises(ValidationError):
            speech_rir(make_scene(), max_order=-1)

    def test_source_on_mic_rejected(self):
        scene = make_scene(speech=(2.0, 2.0, 1.5))
        with pytest.raises(GeometryError):
            speech_rir(scene)

    def test_default_max_order_bounded(self):
        assert default_max_order(RoomSpec((3.0, 3.0, 2.5), rt60=0.7)) == 30
        # ceil(343 * 0.05 / 3) + 1 = ceil(5.717) + 1 = 7
        assert default_max_order(RoomSpec((10.0, 10.0, 3.0), rt60=0.05)) == 7


class TestSynthesizeMixture:
    def setup_method(self):
        self.rng = np.random.default_rng(31)
        self.scene = make_scene(num_mics=3, rt60=0.2, snr_db=0.0)

    def test_additivity_is_bit_exact(self):
        speech = speech_like(0.5, self.rng)
        noise = noise_like(0.5, self.rng)
        mix, sp, nz = synthesize_mixture(speech, noise, self.scene, max_order=4)
        assert np.all(mix.data - sp.data - nz.data == 0.0)
        assert mix.num_channels == 3
        assert mix.num_samples == speech.num_samples

    @pytest.mark.parametrize("snr_db", [-6.0, 0.0, 4.0])
    def test_snr_contract_on_reference_channel(self, snr_db):
        scene = make_scene(num_mics=3, rt60=0.2, snr_db=snr_db)
        speech = speech_like(0.5, self.rng)
        noise = noise_like(0.5, self.rng)
        _, sp, nz = synthesize_mixture(speech, noise, scene, max_order=4)
        measured = 10 * np.log10(np.sum(sp.data[0] ** 2) / np.sum(nz.data[0] ** 2))
        assert measured == pytest.approx(snr_db, abs=1e-6)

    def test_silent_noise_without_flag_rejected(self):
        speech = speech_like(0.5, self.rng)
        silent = WaveBuffer(np.zeros(speech.num_samples), FS)
        with pytest.raises(EmptySignalError):
            synthesize_mixture(speech, silent, self.scene, max_order=4)

    def test_zero_speech_rejected(self):
        silent = WaveBuffer(np.zeros(8000), FS)
        noise = noise_like(0.5, self.rng)
        with pytest.raises(EmptySignalError):
            synthesize_mixture(silent, noise, self.scene, max_order=4)

    def test_rate_mismatch_rejected(self):
        speech = speech_like(0.5, self.rng)
        noise = WaveBuffer(noise_like(0.5, self.rng).data, 8000)
        with pytest.raises(ValidationError, match="noise rate 8000 Hz, expected 16000 Hz"):
            synthesize_mixture(speech, noise, self.scene)

    def test_sources_at_another_rate_rejected(self):
        # The RIRs are always at the pipeline's 16 kHz.
        speech = WaveBuffer(speech_like(0.5, self.rng).data, 8000)
        noise = WaveBuffer(noise_like(0.5, self.rng).data, 8000)
        with pytest.raises(ValidationError, match="speech rate 8000 Hz, expected 16000 Hz"):
            synthesize_mixture(speech, noise, self.scene)


class TestSampleScene:
    def test_fixed_seed_is_deterministic(self):
        a = sample_scene(np.random.default_rng(77))
        b = sample_scene(np.random.default_rng(77))
        assert a.room.dimensions == b.room.dimensions
        assert a.room.rt60 == b.room.rt60
        np.testing.assert_array_equal(a.array.mic_positions, b.array.mic_positions)
        np.testing.assert_array_equal(a.speech_position, b.speech_position)
        np.testing.assert_array_equal(a.noise_position, b.noise_position)
        assert a.snr_db == b.snr_db

    def test_constraints_hold_on_every_draw(self):
        rng = np.random.default_rng(78)
        cfg = SceneSampling()
        grid = np.asarray(cfg.source_distances)
        for _ in range(300):
            s = sample_scene(rng, cfg)
            (lx, ly, lz) = s.room.dimensions
            assert 3.0 <= lx <= 10.0 and 3.0 <= ly <= 10.0 and 2.5 <= lz <= 3.0
            assert 0.05 <= s.room.rt60 <= 0.7
            assert s.array.num_mics == 9
            spacing = np.diff(s.array.mic_positions[:, 0])
            np.testing.assert_allclose(spacing, 0.04, atol=1e-12)
            dims = np.asarray(s.room.dimensions)
            assert np.all(s.array.mic_positions > 0.5 - 1e-9)
            assert np.all(s.array.mic_positions < dims - (0.5 - 1e-9))
            center = s.array.center
            for pos in (s.speech_position, s.noise_position):
                assert np.all(pos > 0.1 - 1e-12) and np.all(pos < dims - (0.1 - 1e-12))
                dist = np.linalg.norm(pos - center)
                assert np.min(np.abs(grid - dist)) < 1e-9
            separation = doa_separation_deg(center, s.speech_position, s.noise_position)
            assert separation >= 5.0 - 1e-9
            assert s.snr_db in cfg.snr_grid_db

    def test_snr_histogram_covers_grid(self):
        rng = np.random.default_rng(79)
        seen = {sample_scene(rng).snr_db for _ in range(2000)}
        assert seen == {-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0}

    def test_budget_exhaustion_raises(self):
        cfg = SceneSampling(source_distances=(50.0,), rejection_budget=200)
        with pytest.raises(GenerationError):
            sample_scene(np.random.default_rng(80), cfg)


class TestCorpus:
    CFG = SceneSampling(rt60_range=(0.15, 0.3))

    def test_count_zero_gives_empty_manifest(self, tmp_path):
        path = build_corpus(tmp_path / "c0", count=0, master_seed=1, sampling=self.CFG)
        header, scenes = read_manifest(path)
        assert header["count"] == 0
        assert scenes == []
        assert list((tmp_path / "c0" / "audio").iterdir()) == []

    def test_rebuild_is_byte_identical(self, tmp_path):
        kwargs = dict(count=3, master_seed=42, sampling=self.CFG, duration=0.5, max_order=4)
        p1 = build_corpus(tmp_path / "a", **kwargs)
        p2 = build_corpus(tmp_path / "b", **kwargs)
        assert (tmp_path / "a" / "manifest.jsonl").read_bytes() == (
            tmp_path / "b" / "manifest.jsonl"
        ).read_bytes()
        _, scenes = read_manifest(p1)
        assert len(scenes) == 3
        for rec in scenes:
            for key in ("mixture_path", "target_path"):
                b1 = (tmp_path / "a" / rec[key]).read_bytes()
                b2 = (tmp_path / "b" / rec[key]).read_bytes()
                assert b1 == b2

    def test_total_duration_arithmetic(self, tmp_path):
        path = build_corpus(
            tmp_path / "d", count=5, master_seed=7, sampling=self.CFG, duration=2.0, max_order=2
        )
        _, scenes = read_manifest(path)
        total = sum(rec["num_samples"] for rec in scenes) / 16000
        assert total == pytest.approx(5 * 2.0)

    def test_regeneration_from_manifest_seed(self, tmp_path):
        out = tmp_path / "e"
        path = build_corpus(
            out, count=2, master_seed=9, sampling=self.CFG, duration=0.5, max_order=4
        )
        header, scenes = read_manifest(path)
        rec = scenes[1]
        scene, mixture, speech_img, _ = rebuild_scene_audio(rec, header)
        assert scene.snr_db == rec["snr_db"]
        on_disk = read_wav(out / rec["mixture_path"])
        assert np.max(np.abs(on_disk.data - mixture.data.astype(np.float32))) == 0.0
        target = read_wav(out / rec["target_path"])
        assert np.max(np.abs(target.data[0] - speech_img.data[0].astype(np.float32))) == 0.0

    def test_rebuild_honours_every_sampling_field(self, tmp_path):
        # Both wall margins are off their defaults; the header must carry
        # them, or the rebuild draws other array and source positions.
        cfg = SceneSampling(
            rt60_range=(0.15, 0.3), array_wall_margin=1.2, source_wall_margin=0.4
        )
        out = tmp_path / "m"
        path = build_corpus(out, count=2, master_seed=5, sampling=cfg, duration=0.5)
        header, scenes = read_manifest(path)
        assert header["sampling"] == json.loads(json.dumps(asdict(cfg)))
        for rec in scenes:
            scene, mixture, speech_img, _ = rebuild_scene_audio(rec, header)
            assert scene.array.mic_positions.tolist() == rec["array"]["mic_positions"]
            on_disk = read_wav(out / rec["mixture_path"]).data
            assert np.array_equal(on_disk, mixture.data.astype(np.float32))
            target = read_wav(out / rec["target_path"]).data[0]
            assert np.array_equal(target, speech_img.data[0].astype(np.float32))

    @pytest.mark.parametrize("name", [f.name for f in fields(SceneSampling)])
    def test_header_lacking_a_sampling_field_rejected(self, tmp_path, name):
        path = build_corpus(tmp_path / "g", count=0, master_seed=1, sampling=self.CFG)
        header = json.loads(open(path).read())
        del header["sampling"][name]
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
        with pytest.raises(ManifestSchemaError, match=f"lacks field '{name}'"):
            read_manifest(path)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = build_corpus(tmp_path / "f", count=0, master_seed=1, sampling=self.CFG)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = 999
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
        with pytest.raises(ManifestSchemaError, match="999"):
            read_manifest(path)
