"""Command-line interface: subcommands, exit codes, config echo, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from beamkit import __version__
from beamkit.cli import build_parser, main
from beamkit.model import ModelConfig, build_model
from beamkit.training import save_model_checkpoint
from beamkit.wavio import WaveBuffer, read_wav, write_wav


def tiny_model_fields() -> dict:
    """Desk-scale two-mic model section for fast CLI runs."""
    return {
        "mics": 2,
        "embedding_channels": 8,
        "encoder_layers": 3,
        "unet_block_depths_encoder": [2, 1, 0],
        "unet_block_depths_decoder": [1, 2, 0],
        "stcn_groups": 1,
        "stcm_per_group": 2,
        "stcm_dilations": [1, 2],
        "stcm_squeeze_channels": 16,
        "lstm_hidden": 16,
    }


def simulate_args(out_dir) -> list:
    return [
        "simulate", "--out", str(out_dir), "--count", "3", "--seed", "11",
        "--set", "simulate.duration_seconds=1.0",
        "--set", "simulate.sampling.num_mics=2",
    ]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(simulate_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus_dir):
    """One CLI training run (1 epoch) on the module corpus."""
    out = tmp_path_factory.mktemp("run")
    config = {
        "model": {**tiny_model_fields(), "bf_type": "mask"},
        "train": {
            "epochs": 1,
            "batch_size": 2,
            "segment_seconds": 0.8,
            "manifest": str(corpus_dir / "manifest.jsonl"),
        },
    }
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config))
    rc = main(["train", "--config", str(config_path),
               "--out", str(out / "artifacts"), "--seed", "5"])
    assert rc == 0
    return out / "artifacts"


class TestParser:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--out", "/tmp/x"])
        assert excinfo.value.code == 2

    def test_missing_out_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["rir"])
        assert excinfo.value.code == 2

    def test_bad_system_choice_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--out", "/tmp/x", "--system", "wiener"])
        assert excinfo.value.code == 2

    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
        commands = set(actions[-1].choices)
        assert commands == {"simulate", "train", "enhance", "evaluate", "rir"}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"beamkit {__version__}"

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "beamkit", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == f"beamkit {__version__}"


class TestExitCodes:
    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        rc = main(["rir", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_config_section_exits_2(self, tmp_path):
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({"mystery": {}}))
        assert main(["rir", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_bad_override_value_exits_2(self, tmp_path):
        rc = main(["rir", "--out", str(tmp_path / "o"), "--set", "rir.rt60=-1"])
        assert rc == 2

    def test_negative_seed_exits_2(self, tmp_path):
        rc = main(["rir", "--out", str(tmp_path / "o"), "--seed", "-3"])
        assert rc == 2

    def test_bad_log_level_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BEAMKIT_LOG", "chatty")
        rc = main(["rir", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "BEAMKIT_LOG" in capsys.readouterr().err

    def test_log_levels_accepted(self, tmp_path, monkeypatch):
        for level in ("debug", "info", "warning", "error"):
            monkeypatch.setenv("BEAMKIT_LOG", level)
            assert main(["rir", "--out", str(tmp_path / level),
                         "--set", "rir.num_mics=1", "--set", "rir.rt60=0.1"]) == 0

    def test_unset_train_manifest_exits_2(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "o")]) == 2

    def test_missing_train_manifest_file_exits_4(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "o"),
                   "--manifest", str(tmp_path / "nowhere.jsonl")])
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    def test_missing_evaluate_manifest_file_exits_4(self, tmp_path):
        rc = main(["evaluate", "--out", str(tmp_path / "o"), "--system", "identity",
                   "--manifest", str(tmp_path / "nowhere.jsonl")])
        assert rc == 4

    def test_tampered_manifest_schema_exits_3(self, tmp_path, corpus_dir, capsys):
        lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = 99
        tampered = tmp_path / "manifest.jsonl"
        tampered.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        rc = main(["evaluate", "--out", str(tmp_path / "o"), "--system", "identity",
                   "--manifest", str(tampered)])
        assert rc == 3
        assert "validation error" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "line_no,text,message",
        [(1, b"{not json", ":1: invalid JSON"), (2, b"{not json", ":2: invalid JSON"),
         (2, b"[1, 2]", ":2: record is not a JSON object"), (2, b"\xff", ": not UTF-8")],
    )
    def test_malformed_manifest_line_exits_3(
        self, tmp_path, corpus_dir, capsys, line_no, text, message
    ):
        lines = (corpus_dir / "manifest.jsonl").read_bytes().splitlines()
        lines[line_no - 1] = text
        broken = tmp_path / "manifest.jsonl"
        broken.write_bytes(b"\n".join(lines) + b"\n")
        rc = main(["evaluate", "--out", str(tmp_path / "o"), "--system", "identity",
                   "--manifest", str(broken)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"manifest.jsonl{message}" in err[0]

    @staticmethod
    def drop_manifest_field(corpus_dir, out_dir, line_no, path):
        """Copy of the corpus manifest with ``path`` deleted from one record."""
        lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
        record = json.loads(lines[line_no - 1])
        owner = record
        for key in path[:-1]:
            owner = owner[key]
        del owner[path[-1]]
        lines[line_no - 1] = json.dumps(record)
        broken = out_dir / "manifest.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        return broken

    @pytest.mark.parametrize(
        "line_no,path,message",
        [(1, ("sampling",), ":1: manifest header lacks field 'sampling'"),
         (1, ("sampling", "num_mics"), "header field 'sampling' lacks field 'num_mics'"),
         (3, ("snr_db",), ":3: scene record lacks field 'snr_db'")],
    )
    def test_evaluate_manifest_missing_field_exits_3(
        self, tmp_path, corpus_dir, capsys, line_no, path, message
    ):
        broken = self.drop_manifest_field(corpus_dir, tmp_path, line_no, path)
        rc = main(["evaluate", "--out", str(tmp_path / "o"), "--system", "identity",
                   "--manifest", str(broken)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert message in err[0]

    def test_train_manifest_missing_scene_field_exits_3(self, tmp_path, corpus_dir, capsys):
        broken = self.drop_manifest_field(corpus_dir, tmp_path, 2, ("mixture_path",))
        rc = main(["train", "--out", str(tmp_path / "o"),
                   "--set", f"train.manifest={broken}", "--set", "model.mics=2"])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert ":2: scene record lacks field 'mixture_path'" in err[0]

    def test_malformed_checkpoint_header_exits_4(self, tmp_path, capsys):
        from beamkit.autodiff import save_checkpoint

        ckpt = tmp_path / "bad.bkt"
        save_checkpoint(ckpt, {"w": np.zeros(2)}, {})
        raw = ckpt.read_bytes()
        header = b'{"meta":{}}'
        ckpt.write_bytes(raw[:12] + len(header).to_bytes(8, "little") + header)
        wav = tmp_path / "mix.wav"
        write_wav(wav, WaveBuffer(np.zeros((2, 1600)), 16000))
        rc = main(["enhance", "--out", str(tmp_path / "o"),
                   "--checkpoint", str(ckpt), "--input", str(wav)])
        assert rc == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "tensors" in err[0]


class TestSimulate:
    def test_writes_manifest_audio_and_config_echo(self, corpus_dir):
        manifest = corpus_dir / "manifest.jsonl"
        assert manifest.is_file()
        lines = manifest.read_text().splitlines()
        assert len(lines) == 1 + 3  # header + one record per scene
        wavs = sorted(os.listdir(corpus_dir / "audio"))
        assert len(wavs) == 6  # mixture + target per scene

        echo = json.loads((corpus_dir / "effective_config.json").read_text())
        assert echo["command"] == "simulate"
        assert echo["version"] == __version__
        assert echo["config"]["seed"] == 11
        assert echo["config"]["simulate"]["count"] == 3
        assert echo["config"]["simulate"]["sampling"]["num_mics"] == 2

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(simulate_args(out2)) == 0
        first = (corpus_dir / "manifest.jsonl").read_bytes()
        assert (out2 / "manifest.jsonl").read_bytes() == first
        for name in sorted(os.listdir(corpus_dir / "audio")):
            assert (out2 / "audio" / name).read_bytes() == \
                (corpus_dir / "audio" / name).read_bytes()

    def test_flag_overrides_set_and_file(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"simulate": {"count": 5}}))
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(config), "--out", str(out),
                   "--seed", "11",
                   "--set", "simulate.count=4",
                   "--set", "simulate.duration_seconds=0.5",
                   "--set", "simulate.sampling.num_mics=1",
                   "--count", "2"])
        assert rc == 0
        echo = json.loads((out / "effective_config.json").read_text())
        assert echo["config"]["simulate"]["count"] == 2  # flag beats --set beats file
        lines = (out / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 2


class TestRir:
    def test_channel_count_and_determinism(self, tmp_path):
        args = ["--set", "rir.num_mics=3", "--set", "rir.rt60=0.15"]
        assert main(["rir", "--out", str(tmp_path / "a")] + args) == 0
        assert main(["rir", "--out", str(tmp_path / "b")] + args) == 0
        wave = read_wav(tmp_path / "a" / "rir.wav")
        assert wave.data.shape[0] == 3
        assert wave.sample_rate == 16000
        assert (tmp_path / "a" / "rir.wav").read_bytes() == \
            (tmp_path / "b" / "rir.wav").read_bytes()

    def test_first_arrival_delay_matches_geometry(self, tmp_path):
        # Source 1 m from the array center on the broadside axis.
        assert main([
            "rir", "--out", str(tmp_path / "o"),
            "--set", "rir.num_mics=1",
            "--set", "rir.rt60=0.1",
            "--set", "rir.array_center=[3.0,2.5,1.5]",
            "--set", "rir.source_position=[3.0,3.5,1.5]",
        ]) == 0
        taps = read_wav(tmp_path / "o" / "rir.wav").data[0]
        first = np.flatnonzero(np.abs(taps) > 1e-12)[0]
        expected = round(16000 * 1.0 / 343.0)
        assert first == expected


class TestTrain:
    def test_artifacts_and_report(self, trained_run, capsys):
        for name in ("checkpoint_best.bkt", "checkpoint_final.bkt",
                     "loss_curve.jsonl", "training_summary.txt",
                     "effective_config.json"):
            assert (trained_run / name).is_file()
        records = [json.loads(line)
                   for line in (trained_run / "loss_curve.jsonl").read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["epoch"] == 1
        echo = json.loads((trained_run / "effective_config.json").read_text())
        assert echo["command"] == "train"
        assert echo["config"]["train"]["epochs"] == 1
        assert echo["config"]["model"]["bf_type"] == "mask"


@pytest.fixture(scope="module")
def passthrough_checkpoint(tmp_path_factory):
    """A mask-head model whose output layer is pinned to the unit mask.

    Zeroing the final linear layer's weights and setting its bias to
    (1, 0) makes the complex mask exactly 1 everywhere, so enhancement
    reduces to: transform the reference channel, compress, decompress,
    invert.  The output must then match the reference channel.
    """
    root = tmp_path_factory.mktemp("passthrough")
    cfg = ModelConfig(**tiny_model_fields(), bf_type="mask")
    model = build_model(cfg, seed=0)
    model.head.fc_out.weight.data[:] = 0.0
    model.head.fc_out.bias.data[:] = np.array([1.0, 0.0])
    path = root / "unit_mask.bkt"
    save_model_checkpoint(path, model)
    return path


@pytest.fixture(scope="module")
def quiet_start_wav(tmp_path_factory):
    """Two-channel noise whose first analysis frame is silent.

    Synthesis attenuates the leading partial-overlap samples, so the
    passthrough comparison is exact only when that region carries no
    energy.
    """
    root = tmp_path_factory.mktemp("wavs")
    rng = np.random.default_rng(123)
    data = 0.3 * rng.standard_normal((2, 16000))
    data[:, :320] = 0.0
    path = root / "mixture.wav"
    write_wav(path, WaveBuffer(data, 16000), encoding="float32")
    return path


class TestEnhance:
    def test_unit_mask_reproduces_reference_channel(
        self, passthrough_checkpoint, quiet_start_wav, tmp_path
    ):
        out = tmp_path / "o"
        rc = main(["enhance", "--out", str(out),
                   "--checkpoint", str(passthrough_checkpoint),
                   "--input", str(quiet_start_wav)])
        assert rc == 0
        enhanced = read_wav(out / "enhanced.wav")
        reference = read_wav(quiet_start_wav).data[0]
        assert enhanced.data.shape == (1, 16000)
        assert enhanced.sample_rate == 16000
        rel = np.linalg.norm(enhanced.data[0] - reference) / np.linalg.norm(reference)
        assert rel <= 1e-6

    def test_wrong_sample_rate_exits_4(self, passthrough_checkpoint, tmp_path, capsys):
        slow = tmp_path / "slow.wav"
        write_wav(slow, WaveBuffer(np.zeros((2, 4000)) + 0.1, 8000))
        rc = main(["enhance", "--out", str(tmp_path / "o"),
                   "--checkpoint", str(passthrough_checkpoint),
                   "--input", str(slow)])
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    def test_channel_mismatch_exits_2(self, passthrough_checkpoint, tmp_path, capsys):
        wide = tmp_path / "wide.wav"
        rng = np.random.default_rng(5)
        write_wav(wide, WaveBuffer(0.1 * rng.standard_normal((3, 8000)), 16000))
        rc = main(["enhance", "--out", str(tmp_path / "o"),
                   "--checkpoint", str(passthrough_checkpoint),
                   "--input", str(wide)])
        assert rc == 2
        assert "channels" in capsys.readouterr().err

    def test_unset_checkpoint_exits_2(self, quiet_start_wav, tmp_path):
        rc = main(["enhance", "--out", str(tmp_path / "o"),
                   "--input", str(quiet_start_wav)])
        assert rc == 2


class TestEvaluate:
    def test_identity_prints_summary_and_writes_metrics(
        self, corpus_dir, tmp_path, capsys
    ):
        out = tmp_path / "o"
        rc = main(["evaluate", "--out", str(out), "--system", "identity",
                   "--manifest", str(corpus_dir / "manifest.jsonl")])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "bucket" in stdout and "si_snr_noisy_db" in stdout
        assert (out / "metrics.jsonl").is_file()
        rows = [json.loads(line)
                for line in (out / "metrics.jsonl").read_text().splitlines()]
        scene_rows = [r for r in rows if r["kind"] == "scene_metrics"]
        assert len(scene_rows) == 3
        for row in scene_rows:
            assert row["si_snr_enhanced_db"] == row["si_snr_noisy_db"]

    def test_trained_model_with_audio_dump(self, corpus_dir, trained_run, tmp_path):
        out = tmp_path / "o"
        rc = main(["evaluate", "--out", str(out),
                   "--manifest", str(corpus_dir / "manifest.jsonl"),
                   "--checkpoint", str(trained_run / "checkpoint_best.bkt"),
                   "--max-scenes", "2", "--dump-audio"])
        assert rc == 0
        dumps = sorted(os.listdir(out / "audio"))
        assert len(dumps) == 2
        for name in dumps:
            wave = read_wav(out / "audio" / name)
            assert wave.data.shape[0] == 1
        echo = json.loads((out / "effective_config.json").read_text())
        assert echo["config"]["evaluate"]["dump_audio"] is True
        assert echo["config"]["evaluate"]["max_scenes"] == 2

    def test_unset_checkpoint_for_model_system_exits_2(self, corpus_dir, tmp_path):
        rc = main(["evaluate", "--out", str(tmp_path / "o"),
                   "--manifest", str(corpus_dir / "manifest.jsonl")])
        assert rc == 2
