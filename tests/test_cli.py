"""Command-line interface: subcommands, exit codes, config echo, determinism."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from wavfiles import IEEE_FLOAT, PCM, wav_file

import beamkit
from beamkit import __version__
from beamkit.cli import build_parser, main
from beamkit.config import RunConfig
from beamkit.errors import CheckpointError
from beamkit.model import ModelConfig, build_model
from beamkit.training import load_trained_model, save_model_checkpoint
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

    def test_bad_system_choice_exits_2(self, tmp_path, capsys):
        # The config checks the name once; argparse takes any string.
        assert main(["evaluate", "--out", str(tmp_path / "o"), "--system", "wiener"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "beamkit: configuration error: evaluate.system must be one of "
            "('model', 'identity', 'oracle-mvdr'), got 'wiener'"
        ]
        assert not (tmp_path / "o").exists()

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
        # The child finds the package where this process imported it from,
        # whatever the caller's PYTHONPATH.
        src = os.path.dirname(os.path.dirname(os.path.abspath(beamkit.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "beamkit", "--version"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert result.stdout.strip() == f"beamkit {__version__}"

    def test_a_run_leaves_scipy_unimported(self, tmp_path):
        # In a child process: this one has imported scipy already, for the
        # tests that take it as their oracle.
        src = os.path.dirname(os.path.dirname(os.path.abspath(beamkit.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        corpus, run = tmp_path / "c", tmp_path / "run"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {**tiny_model_fields(), "bf_type": "mask"},
            "train": {"epochs": 1, "batch_size": 1, "segment_seconds": 0.4,
                      "manifest": str(corpus / "manifest.jsonl")},
        }))
        script = textwrap.dedent(f"""
            import sys
            from beamkit.cli import main
            runs = [
                ["simulate", "--out", {str(corpus)!r}, "--count", "1",
                 "--set", "simulate.duration_seconds=0.5",
                 "--set", "simulate.sampling.num_mics=2"],
                ["train", "--config", {str(config)!r}, "--out", {str(run)!r}],
                ["evaluate", "--system", "oracle-mvdr", "--out", {str(tmp_path / "e")!r},
                 "--manifest", {str(corpus / "manifest.jsonl")!r}],
                ["enhance", "--checkpoint", {str(run / "checkpoint_final.bkt")!r},
                 "--input", {str(corpus / "audio" / "scene_000000_mixture.wav")!r},
                 "--out", {str(tmp_path / "x")!r}],
            ]
            for args in runs:
                assert main(args) == 0, args[0]
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, loaded
        """)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "x" / "enhanced.wav").is_file()


class TestExitCodes:
    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        rc = main(["rir", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,extra",
        [("rir", []), ("rir", ["--set", "train.epochs=1"]), ("rir", ["--seed", "3"]),
         ("simulate", ["--count", "1"])],
        ids=["alone", "set", "seed", "flag"],
    )
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, command, extra):
        # With an override, a seed or a flag this ended in an AttributeError
        # or TypeError traceback (exit 1).
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        rc = main([command, "--config", str(bad), "--out", str(tmp_path / "o"), *extra])
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"beamkit: configuration error: {bad}: config must be an object, got [1, 2]"
        ]

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # Ended in a UnicodeDecodeError traceback (exit 1).
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        rc = main(["rir", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"configuration error: {bad} is not UTF-8 JSON" in err[0]

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

    def test_ill_typed_train_manifest_exits_2_naming_it(self, tmp_path, capsys):
        # The manifests were once held outside their section, and this
        # error named ``train_manifest``, a field no config file has.
        rc = main(["train", "--out", str(tmp_path / "o"), "--set", "train.manifest=5"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["beamkit: configuration error: train.manifest must be a string "
                       "or null, got 5"]

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

    def test_version_1_manifest_exits_3(self, tmp_path, corpus_dir, capsys):
        # A version 1 header recorded ten of the sampler's fields.
        lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = 1
        for name in ("array_wall_margin", "source_wall_margin", "rejection_budget"):
            del header["sampling"][name]
        old = tmp_path / "manifest.jsonl"
        old.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        rc = main(["evaluate", "--out", str(tmp_path / "o"), "--system", "identity",
                   "--manifest", str(old)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "schema version 1 unsupported" in err[0]


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

    @pytest.mark.parametrize(
        "line_no,name,value,message",
        [(1, "duration", "0.5", ":1: manifest header field duration must be a number, got '0.5'"),
         (1, "duration", True, "header field duration must be a number, got True"),
         (1, "sample_rate", "16000", "header field sample_rate must be an integer, got '16000'"),
         (1, "sample_rate", 16000.5, "header field sample_rate must be an integer, got 16000.5"),
         (1, "max_order", "3", "header field max_order must be null, got '3'"),
         (1, "max_order", 4, ":1: manifest header field max_order must be null, got 4"),
         (2, "seed", "abc", ":2: scene record field seed must be a list, got 'abc'"),
         (2, "seed", [-1, 0], "field seed must be a list of integers >= 0, got [-1, 0]"),
         (2, "seed", [1.5, 0], "field seed[0] must be an integer, got 1.5"),
         (3, "snr_db", "x", ":3: scene record field snr_db must be a number, got 'x'"),
         (1, "duration", math.inf, ":1: manifest header field duration must be finite, got inf"),
         (3, "snr_db", math.nan, ":3: scene record field snr_db must be finite, got nan")],
        ids=["duration-string", "duration-bool", "sample_rate-string", "sample_rate-fraction",
             "max_order-string", "max_order-integer", "seed-string", "seed-negative",
             "seed-fraction", "snr_db-string", "duration-inf", "snr_db-nan"],
    )
    def test_malformed_manifest_number_exits_3(
        self, tmp_path, corpus_dir, capsys, line_no, name, value, message
    ):
        lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
        record = json.loads(lines[line_no - 1])
        record[name] = value
        lines[line_no - 1] = json.dumps(record)
        broken = tmp_path / "manifest.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--out", str(tmp_path / "o"), "--system", "identity",
                   "--manifest", str(broken)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert message in err[0]

    @pytest.mark.parametrize(
        "name,value,message",
        [("id", ["x"], "field id must be a string, got ['x']"),
         ("id", "../x", "field id must be a file name without a directory, got '../x'"),
         ("mixture_path", 5, "field mixture_path must be a string, got 5"),
         ("target_path", None, "field target_path must be a string, got None")],
        ids=["id-list", "id-directory", "mixture_path-number", "target_path-null"],
    )
    @pytest.mark.parametrize(
        "args",
        [["evaluate", "--system", "identity", "--dump-audio"], ["train", "--set", "model.mics=2"]],
        ids=["evaluate", "train"],
    )
    def test_malformed_manifest_string_exits_3(
        self, tmp_path, corpus_dir, capsys, args, name, value, message
    ):
        # Paths are joined onto the manifest's directory and the id names
        # dumped audio, so each is checked before any scene is read.
        lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record[name] = value
        lines[1] = json.dumps(record)
        broken = tmp_path / "manifest.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        rc = main(args + ["--out", str(tmp_path / "o"), "--manifest", str(broken)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f":2: scene record {message}" in err[0]

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

    @pytest.mark.parametrize(
        "meta,field",
        [({}, "model must be"),
         ({"model": 5}, "model must be"),
         # a checkpoint written while ModelConfig still had these two fields
         ({"model": {**tiny_model_fields(), "use_unet_blocks": True, "compression": True}},
          "unknown model config fields: ['compression', 'use_unet_blocks']"),
         # a layer's checkpoint, not a model's (exited 2)
         ({"kind": "linear"}, "kind 'linear' is not 'model_checkpoint'")],
        ids=["no-model", "model-not-object", "removed-model-switches", "not-a-model"],
    )
    def test_malformed_checkpoint_metadata_exits_4(self, tmp_path, capsys, meta, field):
        from beamkit.autodiff import save_checkpoint

        ckpt = tmp_path / "bad.bkt"
        save_checkpoint(ckpt, {"w": np.zeros(2)}, {"kind": "model_checkpoint", **meta})
        wav = tmp_path / "mix.wav"
        write_wav(wav, WaveBuffer(np.zeros((2, 1600)), 16000))
        rc = main(["enhance", "--out", str(tmp_path / "o"),
                   "--checkpoint", str(ckpt), "--input", str(wav)])
        assert rc == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"checkpoint metadata: {field}" in err[0]

    @pytest.mark.parametrize(
        "args", [["evaluate", "--system", "identity"], ["train"]], ids=["evaluate", "train"]
    )
    def test_ill_typed_header_sampling_exits_3(self, tmp_path, corpus_dir, capsys, args):
        lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["sampling"]["snr_grid_db"] = 5  # rng.choice(5) would draw from 0..4 dB
        tampered = tmp_path / "manifest.jsonl"
        tampered.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        rc = main(args + ["--out", str(tmp_path / "o"), "--manifest", str(tampered)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "sampling.snr_grid_db must be a list, got 5" in err[0]

    @pytest.mark.parametrize(
        "edit,message",
        [(lambda h: h["sampling"].update(rt60_range=[1e6, 1e6]),
          "field sampling.rt60_range must not exceed 10.0 s, got (1000000.0, 1000000.0)"),
         (lambda h: h["sampling"].update(num_mics="9"),
          "field sampling.num_mics must be an integer, got '9'"),
         (lambda h: h["sampling"].pop("min_doa_deg"),
          "field 'sampling' lacks field 'min_doa_deg'"),
         (lambda h: h["sampling"].update(max_order=4),
          "has unknown sampling config fields: ['max_order']"),
         (lambda h: h.update(sampling=[1, 2]), "field sampling must be an object, got [1, 2]"),
         (lambda h: h["sampling"].update(min_doa_deg=181),
          "field sampling.min_doa_deg must be in [0, 180], got 181")],
        ids=["rt60-beyond-bound", "num_mics-string", "missing", "unknown", "not-an-object",
             "min-doa-beyond-half-turn"],
    )
    def test_bad_header_sampling_names_manifest_and_line(
        self, tmp_path, corpus_dir, capsys, edit, message
    ):
        # A bad sampling entry was reported without the manifest's path
        # and line, which every other header error carries.
        lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        edit(header)
        tampered = tmp_path / "manifest.jsonl"
        tampered.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        rc = main(["evaluate", "--system", "identity", "--out", str(tmp_path / "o"),
                   "--manifest", str(tampered)])
        assert rc == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            f"beamkit: validation error: {tampered}:1: manifest header {message}"
        ]

    def test_corpus_wavs_at_another_rate_exit_4(self, tmp_path, corpus_dir, capsys):
        # The header still says 16000 Hz; train used to run on these WAVs,
        # cropping 1 s segments that held 8000 samples.
        copy = tmp_path / "corpus"
        shutil.copytree(corpus_dir, copy)
        for wav in (copy / "audio").iterdir():
            write_wav(wav, WaveBuffer(read_wav(wav).data, 8000))
        rc = main(["train", "--out", str(tmp_path / "o"), "--set", "model.mics=2",
                   "--manifest", str(copy / "manifest.jsonl")])
        assert rc == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "sample rate 8000 Hz, expected 16000 Hz" in err[0]

    @pytest.mark.parametrize(
        "args", [["evaluate", "--system", "identity"], ["train"]], ids=["evaluate", "train"]
    )
    def test_header_sample_rate_other_than_16000_exits_3(
        self, tmp_path, corpus_dir, capsys, args
    ):
        lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["sample_rate"] = 8000
        tampered = tmp_path / "manifest.jsonl"
        tampered.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        rc = main(args + ["--out", str(tmp_path / "o"), "--manifest", str(tampered)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "header field sample_rate must be 16000, got 8000" in err[0]


# Model settings that are constants now; each still has its old default here.
FIXED_ASSIGNMENTS = [
    "model.glu_kernel=[2,3]", "model.glu_stride=[1,2]", "model.unet_kernel=[1,3]",
    "model.unet_stride=[1,2]", "model.stcm_kernel=5", "model.lstm_layers=2",
    "model.compression_exponent=0.5",
]
FIXED_MODEL_FIELDS = {a.split("=")[0] for a in FIXED_ASSIGNMENTS}
# The training recipe's constants, each at its old default.
FIXED_TRAIN = [
    "train.beta1=0.9", "train.beta2=0.999", "train.epsilon=1e-8",
    "train.plateau_patience=2", "train.lambda_ri=0.5", "train.lambda_mag=0.5",
]
FIXED_TRAIN_FIELDS = {a.split("=")[0] for a in FIXED_TRAIN}
# The STFT front end, the sample rate and the reflection order (each
# room's default_max_order) are constants too: (subcommand, assignment,
# the one error line's unknown-field clause).
FIXED_FRONT_END = [
    ("simulate", "simulate.sample_rate=8000", "unknown simulate config fields: ['sample_rate']"),
    ("rir", "rir.sample_rate=8000", "unknown rir config fields: ['sample_rate']"),
    ("simulate", "stft.fft_size=512", "unknown config fields: ['stft']"),
    ("simulate", "model.freq_bins=257", "unknown model config fields: ['freq_bins']"),
    ("simulate", "simulate.max_order=4", "unknown simulate config fields: ['max_order']"),
    ("rir", "rir.max_order=4", "unknown rir config fields: ['max_order']"),
]
# Non-finite numbers outside the train section: (subcommand, assignment,
# the dotted field the one error line names).
NON_FINITE = [
    ("simulate", "simulate.duration_seconds=NaN", "simulate.duration_seconds"),
    ("simulate", "simulate.duration_seconds=1e400", "simulate.duration_seconds"),
    ("rir", "rir.rt60=NaN", "rir.rt60"),
    ("simulate", "simulate.sampling.mic_spacing=NaN", "simulate.sampling.mic_spacing"),
    ("simulate", "simulate.sampling.array_height=NaN", "simulate.sampling.array_height"),
]


class TestConfigDecoding:
    @pytest.mark.parametrize(
        "assignment,field",
        [
            ("model=5", "model"),
            ("train=[1]", "train"),
            ('model.mics="9"', "model.mics"),
            ('train.epochs="3"', "train.epochs"),
            ("simulate.sampling.rt60_range=3", "simulate.sampling.rt60_range"),
            ("simulate.sampling.rt60_range=[0.3]", "simulate.sampling.rt60_range"),
            ("rir.room_dimensions=5", "rir.room_dimensions"),
            ('evaluate.max_scenes="a"', "evaluate.max_scenes"),
            ('simulate.sampling.num_mics="a"', "simulate.sampling.num_mics"),
            ("simulate.sampling.room_length=[1,2,3]", "simulate.sampling.room_length"),
            ("simulate.sampling.snr_grid_db=5", "simulate.sampling.snr_grid_db"),
            # one per leaf field type of RunConfig().to_dict()
            ("simulate.count=2.0", "simulate.count"),
            ("train.learning_rate=true", "train.learning_rate"),
            ("model.multi_output=1", "model.multi_output"),
            ("enhance.checkpoint=3", "enhance.checkpoint"),
            ('simulate.sampling.room_width=[3,"10"]', "simulate.sampling.room_width[1]"),
            ("model.stcm_dilations=[1,2,4,8,16,true]", "model.stcm_dilations[5]"),
            ('simulate.sampling.min_doa_deg="5"', "simulate.sampling.min_doa_deg"),
            # fixed geometry: the field is refused as unknown before its
            # value is decoded, so the one error line still names it
            ("model.glu_kernel=3", "model.glu_kernel"),
            ("model.glu_kernel=[2]", "model.glu_kernel"),
            ('model.unet_stride=[1,"2"]', "model.unet_stride"),
        ],
    )
    def test_ill_typed_value_exits_2_naming_the_field(
        self, tmp_path, capsys, assignment, field
    ):
        rc = main(["simulate", "--out", str(tmp_path / "o"),
                   "--set", "simulate.count=0", "--set", assignment])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        if field in FIXED_MODEL_FIELDS:
            name = field.split(".")[1]
            assert f"configuration error: unknown model config fields: ['{name}']" in err[0]
        else:
            assert f"configuration error: {field} must be" in err[0]

    @pytest.mark.parametrize("field", ["epsilon", "segment_seconds", "lambda_ri", "lambda_mag"])
    @pytest.mark.parametrize("value", ["1e400", "NaN"])
    def test_non_finite_train_number_exits_2(self, tmp_path, capsys, corpus_dir, field, value):
        # 1e400 parses as inf; both used to pass the range checks, and an
        # infinite segment length ended in an OverflowError traceback.
        rc = main(["train", "--out", str(tmp_path / "o"),
                   "--manifest", str(corpus_dir / "manifest.jsonl"),
                   "--set", f"train.{field}={value}"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        if f"train.{field}" in FIXED_TRAIN_FIELDS:
            assert f"configuration error: unknown train config fields: ['{field}']" in err[0]
        else:
            assert f"configuration error: train.{field} must be finite, got " in err[0]

    @pytest.mark.parametrize(
        "command,assignment,field", NON_FINITE, ids=[a for _, a, _ in NON_FINITE]
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command, assignment, field):
        # Each used to pass the range checks and end in a traceback (or,
        # for array_height, in exhausting the source-draw budget).
        rc = main([command, "--out", str(tmp_path / "o"), "--set", "simulate.count=1",
                   "--set", "simulate.duration_seconds=0.5", "--set", assignment])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        value = "inf" if assignment.endswith("1e400") else "nan"
        assert err == [f"beamkit: configuration error: {field} must be finite, got {value}"]

    @pytest.mark.parametrize("assignment", FIXED_ASSIGNMENTS)
    def test_fixed_geometry_is_an_unknown_field(self, tmp_path, capsys, assignment):
        # The kernels, strides, LSTM depth and compression are constants,
        # so even their old default values are refused.
        rc = main(["simulate", "--out", str(tmp_path / "o"),
                   "--set", "simulate.count=0", "--set", assignment])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        field = assignment.split("=")[0].split(".")[1]
        assert f"unknown model config fields: ['{field}']" in err[0]

    @pytest.mark.parametrize("assignment", FIXED_TRAIN)
    def test_fixed_training_recipe_is_an_unknown_field(self, tmp_path, capsys, assignment):
        # Adam's coefficients, the plateau patience and the loss weights
        # are constants, so even their old default values are refused.
        rc = main(["simulate", "--out", str(tmp_path / "o"),
                   "--set", "simulate.count=0", "--set", assignment])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        field = assignment.split("=")[0].split(".")[1]
        assert err == [f"beamkit: configuration error: unknown train config fields: ['{field}']"]

    @pytest.mark.parametrize(
        "command,assignment,message", FIXED_FRONT_END, ids=[a for _, a, _ in FIXED_FRONT_END]
    )
    def test_fixed_front_end_is_an_unknown_field(
        self, tmp_path, capsys, command, assignment, message
    ):
        # simulate.sample_rate=8000 used to write a corpus that train and
        # evaluate accepted and enhance refused.
        rc = main([command, "--out", str(tmp_path / "o"),
                   "--set", "simulate.count=0", "--set", assignment])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"beamkit: configuration error: {message}"]

    def test_leaf_fields_are_pinned(self):
        # Each settable value is one more configuration to test; a new one
        # has to be added here on purpose.
        def leaves(node, prefix=""):
            for key, value in node.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        assert sorted(leaves(RunConfig().to_dict())) == [
            "enhance.checkpoint", "enhance.input_wav",
            "evaluate.checkpoint", "evaluate.dump_audio", "evaluate.manifest",
            "evaluate.max_scenes", "evaluate.system",
            "model.bf_type", "model.embedding_channels", "model.encoder_layers",
            "model.lstm_hidden", "model.mics", "model.multi_output",
            "model.stcm_dilations", "model.stcm_per_group",
            "model.stcm_squeeze_channels", "model.stcn_groups",
            "model.unet_block_depths_decoder", "model.unet_block_depths_encoder",
            "rir.array_center", "rir.mic_spacing", "rir.num_mics",
            "rir.room_dimensions", "rir.rt60", "rir.source_position",
            "seed",
            "simulate.count", "simulate.duration_seconds",
            "simulate.sampling.array_height", "simulate.sampling.array_wall_margin",
            "simulate.sampling.mic_spacing", "simulate.sampling.min_doa_deg",
            "simulate.sampling.num_mics", "simulate.sampling.rejection_budget",
            "simulate.sampling.room_height", "simulate.sampling.room_length",
            "simulate.sampling.room_width", "simulate.sampling.rt60_range",
            "simulate.sampling.snr_grid_db", "simulate.sampling.source_distances",
            "simulate.sampling.source_wall_margin",
            "train.batch_size", "train.epochs", "train.learning_rate", "train.manifest",
            "train.seed", "train.segment_seconds", "train.val_manifest",
        ]

    def test_grad_accumulation_is_an_unknown_field(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path / "o"),
                   "--set", "simulate.count=0", "--set", "train.grad_accumulation=2"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "unknown train config fields: ['grad_accumulation']" in err[0]

    @pytest.mark.parametrize(
        "raw", [RunConfig().to_dict(), {"model": tiny_model_fields()}], ids=["default", "tiny"]
    )
    def test_round_trip(self, raw):
        cfg = RunConfig.from_dict(raw)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


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
    def test_fractional_delay_is_an_unknown_field(self, tmp_path, capsys):
        rc = main(["rir", "--out", str(tmp_path / "o"), "--set", "rir.fractional_delay=sinc8"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "unknown rir config fields: ['fractional_delay']" in err[0]

    @pytest.mark.parametrize(
        "assignment,name",
        [("rir.source_position=[0.0,3.0,1.5]", "source"),
         ("rir.array_center=[3.0,2.5,3.0]", "microphone")],
    )
    def test_source_or_mic_on_a_wall_exits_3(self, tmp_path, capsys, assignment, name):
        rc = main(["rir", "--out", str(tmp_path / "o"), "--set", assignment])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"validation error: {name} " in err[0]
        assert "is not strictly inside room" in err[0]

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
        # A checkpoint records the trainer's fields, not the corpus paths.
        from beamkit.autodiff import load_checkpoint

        _, meta = load_checkpoint(trained_run / "checkpoint_final.bkt")
        assert sorted(meta["train"]) == [
            "batch_size", "epochs", "learning_rate", "seed", "segment_seconds"]


@pytest.fixture(scope="module")
def passthrough_checkpoint(tmp_path_factory):
    """A mask-head model whose output layer is pinned to the unit mask.

    Zeroing the final linear layer's weights and setting its bias to
    (1, 0) makes the complex mask exactly 1 everywhere, so enhancement
    reduces to: transform the reference channel, compress, decompress,
    invert.  The output must then match the reference channel.
    """
    root = tmp_path_factory.mktemp("passthrough")
    cfg = ModelConfig.from_dict({**tiny_model_fields(), "bf_type": "mask"})
    model = build_model(cfg, seed=0)
    model.head.fc_out.weight.data[:] = 0.0
    model.head.fc_out.bias.data[:] = np.array([1.0, 0.0])
    path = root / "unit_mask.bkt"
    save_model_checkpoint(path, model)
    return path


def rewrite_checkpoint_header(source, target, edit):
    """Copy checkpoint ``source`` to ``target`` with ``edit`` applied to
    its parsed JSON header; the payload is copied unchanged."""
    raw = source.read_bytes()
    length = int.from_bytes(raw[12:20], "little")
    header = json.loads(raw[20 : 20 + length])
    edit(header)
    encoded = json.dumps(header).encode("utf-8")
    target.write_bytes(raw[:12] + len(encoded).to_bytes(8, "little") + encoded
                       + raw[20 + length :])


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
    write_wav(path, WaveBuffer(data, 16000))
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

    def test_checkpoint_carrying_grad_accumulation_still_enhances(
        self, passthrough_checkpoint, quiet_start_wav, tmp_path
    ):
        # Checkpoints written while TrainConfig had grad_accumulation carry
        # it in meta["train"], which loading never decodes.
        self.check_old_train_meta_enhances_alike(
            passthrough_checkpoint, quiet_start_wav, tmp_path, {"grad_accumulation": 1}
        )

    def test_checkpoint_carrying_the_old_training_recipe_still_enhances(
        self, passthrough_checkpoint, quiet_start_wav, tmp_path
    ):
        # Checkpoints written while TrainConfig had the Adam coefficients,
        # the plateau patience and the loss weights carry them too.
        old = {a.split("=")[0].split(".")[1]: json.loads(a.split("=")[1]) for a in FIXED_TRAIN}
        self.check_old_train_meta_enhances_alike(
            passthrough_checkpoint, quiet_start_wav, tmp_path, old
        )

    @staticmethod
    def check_old_train_meta_enhances_alike(original, wav, tmp_path, old_train):
        from beamkit.autodiff import load_checkpoint, save_checkpoint

        tensors, meta = load_checkpoint(original)
        assert not old_train.keys() & meta["train"].keys()
        meta["train"].update(old_train)
        older = tmp_path / "older.bkt"
        save_checkpoint(older, tensors, meta)
        outputs = []
        for checkpoint in (original, older):
            out = tmp_path / checkpoint.stem
            assert main(["enhance", "--out", str(out), "--checkpoint", str(checkpoint),
                         "--input", str(wav)]) == 0
            outputs.append((out / "enhanced.wav").read_bytes())
        assert outputs[0] == outputs[1]

    def test_checkpoint_carrying_fixed_geometry_exits_4(
        self, passthrough_checkpoint, quiet_start_wav, tmp_path, capsys
    ):
        # Checkpoints written while ModelConfig had the kernel, stride,
        # LSTM-depth and compression fields carry them in meta["model"].
        from beamkit.autodiff import load_checkpoint, save_checkpoint

        tensors, meta = load_checkpoint(passthrough_checkpoint)
        meta["model"]["glu_kernel"] = [2, 3]
        older = tmp_path / "older.bkt"
        save_checkpoint(older, tensors, meta)
        rc = main(["enhance", "--out", str(tmp_path / "o"), "--checkpoint", str(older),
                   "--input", str(quiet_start_wav)])
        assert rc == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "checkpoint metadata: unknown model config fields: ['glu_kernel']" in err[0]
        with pytest.raises(CheckpointError, match="glu_kernel"):
            load_trained_model(older)

    def test_checkpoint_carrying_freq_bins_exits_4(
        self, passthrough_checkpoint, quiet_start_wav, tmp_path, capsys
    ):
        # Checkpoints written while the front end was settable carry
        # freq_bins in meta["model"] (and an stft entry, which is ignored).
        from beamkit.autodiff import load_checkpoint, save_checkpoint

        tensors, meta = load_checkpoint(passthrough_checkpoint)
        assert "stft" not in meta and "freq_bins" not in meta["model"]
        meta["model"]["freq_bins"] = 161
        meta["stft"] = {"frame_length": 320, "frame_shift": 160, "fft_size": 320, "window": "hann"}
        older = tmp_path / "older.bkt"
        save_checkpoint(older, tensors, meta)
        rc = main(["enhance", "--out", str(tmp_path / "o"), "--checkpoint", str(older),
                   "--input", str(quiet_start_wav)])
        assert rc == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "checkpoint metadata: unknown model config fields: ['freq_bins']" in err[0]
        with pytest.raises(CheckpointError, match="freq_bins"):
            load_trained_model(older)

    def test_checkpoint_whose_tensors_do_not_fit_its_model_exits_4(
        self, passthrough_checkpoint, quiet_start_wav, tmp_path, capsys
    ):
        # The file contradicts itself, so it is an i/o error, not a
        # configuration error (exit 2) as it was.
        from beamkit.autodiff import load_checkpoint, save_checkpoint

        tensors, meta = load_checkpoint(passthrough_checkpoint)
        meta["model"]["lstm_hidden"] = 17
        edited = tmp_path / "edited.bkt"
        save_checkpoint(edited, tensors, meta)
        rc = main(["enhance", "--out", str(tmp_path / "o"), "--checkpoint", str(edited),
                   "--input", str(quiet_start_wav)])
        assert rc == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"i/o error: {edited}: parameter 'head.lstms.0.w_ih': checkpoint shape" in err[0]

    def test_checkpoint_listing_a_tensor_twice_exits_4(
        self, passthrough_checkpoint, quiet_start_wav, tmp_path, capsys
    ):
        # The later entry was loaded silently, and the run then failed with
        # a state dict mismatch (exit 2).
        def rename_second_as_first(header):
            header["tensors"][1]["name"] = header["tensors"][0]["name"]

        twice = tmp_path / "twice.bkt"
        rewrite_checkpoint_header(passthrough_checkpoint, twice, rename_second_as_first)
        rc = main(["enhance", "--out", str(tmp_path / "o"), "--checkpoint", str(twice),
                   "--input", str(quiet_start_wav)])
        assert rc == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"beamkit: i/o error: {twice}: tensor ")
        assert err[0].endswith(" is listed twice")

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

    @pytest.mark.parametrize("cut", [8, 5], ids=["a-frame", "5-bytes"])
    def test_truncated_wav_exits_4(self, passthrough_checkpoint, quiet_start_wav, tmp_path, cut):
        # Used to print a two-line WavFileWarning, enhance the shorter
        # signal and exit 0.
        short = tmp_path / "short.wav"
        short.write_bytes(quiet_start_wav.read_bytes()[:-cut])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, err = run_main(["enhance", "--out", str(tmp_path / "o"),
                                "--checkpoint", str(passthrough_checkpoint),
                                "--input", str(short)])
        assert (rc, len(err), caught) == (4, 1, [])
        assert f"data chunk holds {128000 - cut} of its 128000 bytes" in err[0]


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

    def test_header_with_null_max_order_evaluates_alike(self, corpus_dir, tmp_path):
        # A corpus written while the reflection order was a setting
        # carries "max_order": null in its header; it scores as before.
        lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert "max_order" not in header
        old = tmp_path / "old.jsonl"
        old.write_text("\n".join([json.dumps({**header, "max_order": None}), *lines[1:]]) + "\n")
        written = {}
        for name, manifest in (("new", corpus_dir / "manifest.jsonl"), ("old", old)):
            out = tmp_path / name
            assert main(["evaluate", "--out", str(out), "--system", "oracle-mvdr",
                         "--manifest", str(manifest)]) == 0
            written[name] = [(out / f).read_bytes()
                             for f in ("metrics.jsonl", "metrics_summary.txt")]
        assert written["old"] == written["new"]

    def test_unset_checkpoint_for_model_system_exits_2(self, corpus_dir, tmp_path):
        rc = main(["evaluate", "--out", str(tmp_path / "o"),
                   "--manifest", str(corpus_dir / "manifest.jsonl")])
        assert rc == 2


# Any JSON value: a scalar, or a short list or object of scalars.
JSON_SCALARS = (strategies.none() | strategies.booleans() | strategies.integers()
                | strategies.floats() | strategies.text(max_size=8))
JSON_VALUES = (JSON_SCALARS | strategies.lists(JSON_SCALARS, max_size=3)
               | strategies.dictionaries(strategies.text(max_size=4), JSON_SCALARS, max_size=2))


def run_main(args) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one CLI run; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, err.getvalue().strip().splitlines()


class TestRecordFuzz:
    """One field of a file record replaced by any JSON value: the run
    succeeds, or fails with the file's exit code and one line."""

    @pytest.fixture(scope="class")
    def small_corpus(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz_corpus")
        assert run_main(["simulate", "--out", str(out), "--count", "1",
                         "--set", "simulate.duration_seconds=0.5",
                         "--set", "simulate.sampling.num_mics=2"])[0] == 0
        return out

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=strategies.data(), value=JSON_VALUES)
    def test_manifest_record_field_exits_0_or_3(self, small_corpus, data, value):
        lines = (small_corpus / "manifest.jsonl").read_text().splitlines()
        line = data.draw(strategies.sampled_from([0, 1]), label="line")
        record = json.loads(lines[line])
        record[data.draw(strategies.sampled_from(sorted(record)), label="field")] = value
        lines[line] = json.dumps(record)
        fuzzed = small_corpus / "fuzzed.jsonl"
        fuzzed.write_text("\n".join(lines) + "\n")
        rc, err = run_main(["evaluate", "--system", "identity", "--manifest", str(fuzzed),
                            "--out", str(small_corpus / "o")])
        assert (rc, len(err)) in {(0, 0), (3, 1)}, err

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=strategies.data())
    def test_checkpoint_tensor_entry_field_exits_0_or_4(
        self, passthrough_checkpoint, quiet_start_wav, tmp_path_factory, data
    ):
        root = tmp_path_factory.getbasetemp() / "fuzz_checkpoint"
        root.mkdir(exist_ok=True)

        def replace(header):
            # Besides any JSON value, the field may take another entry's
            # value: a name listed twice, or an offset into another tensor.
            entries = header["tensors"]
            entry = data.draw(strategies.sampled_from(entries), label="entry")
            field = data.draw(strategies.sampled_from(sorted(entry)), label="field")
            others = strategies.sampled_from([other[field] for other in entries])
            entry[field] = data.draw(JSON_VALUES | others, label="value")

        fuzzed = root / "fuzzed.bkt"
        rewrite_checkpoint_header(passthrough_checkpoint, fuzzed, replace)
        rc, err = run_main(["enhance", "--checkpoint", str(fuzzed),
                            "--input", str(quiet_start_wav), "--out", str(root / "o")])
        assert (rc, len(err)) in {(0, 0), (4, 1)}, err


class TestWavFuzz:
    """A WAV input cut short, or with one header or chunk-size byte
    changed: enhance succeeds, or fails with exit 3 or 4 and one line,
    and never with a Python warning."""

    @pytest.fixture(scope="class")
    def wavs(self):
        rng = np.random.default_rng(2817)
        signal = 0.1 * rng.standard_normal((800, 2))
        return {
            "float32": wav_file(signal.astype("<f4"), IEEE_FLOAT),
            "pcm16": wav_file(np.round(signal * 32768).astype("<i2"), PCM),
            "extensible": wav_file(signal.astype("<f4"), IEEE_FLOAT, extensible=True),
        }

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=strategies.data())
    def test_damaged_input_exits_0_3_or_4(
        self, passthrough_checkpoint, wavs, tmp_path_factory, data
    ):
        root = tmp_path_factory.getbasetemp() / "fuzz_wav"
        root.mkdir(exist_ok=True)
        raw = bytearray(wavs[data.draw(strategies.sampled_from(sorted(wavs)), label="file")])
        if data.draw(strategies.booleans(), label="truncate"):
            raw = raw[: data.draw(strategies.integers(0, len(raw) - 1), label="length")]
        else:
            # Every chunk header, and so every chunk size, lies before the samples.
            at = data.draw(strategies.integers(0, raw.index(b"data") + 7), label="offset")
            raw[at] = data.draw(
                strategies.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
        fuzzed = root / "fuzzed.wav"
        fuzzed.write_bytes(bytes(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, err = run_main(["enhance", "--checkpoint", str(passthrough_checkpoint),
                                "--input", str(fuzzed), "--out", str(root / "o")])
        assert (rc, len(err)) in {(0, 0), (3, 1), (4, 1)}, err
        assert caught == []
