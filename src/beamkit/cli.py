"""Command-line entry point: one binary, five subcommands.

``beamkit simulate|train|enhance|evaluate|rir`` each take ``--config``
(JSON file), ``--seed`` (overrides the config seed), ``--out`` (output
directory, required), and repeatable ``--set section.field=value``
overrides.  Every run validates its full configuration before doing any
work and echoes the effective configuration plus the build version into
``<out>/effective_config.json``.

Log verbosity comes from the ``BEAMKIT_LOG`` environment variable
(``debug``, ``info``, ``warning``, or ``error``; default ``warning``).

Exit codes:

====  =====================================================
   0  success
   1  internal error (divergence, solver failure, ...)
   2  configuration error (bad flag, bad JSON, bad field)
   3  input validation / manifest schema error
   4  I/O error (missing file, WAV format, checkpoint format)
====  =====================================================
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import __version__
from .config import EVALUATE_SYSTEMS, RunConfig, load_run_config
from .errors import (
    BeamkitError,
    CheckpointError,
    ConfigError,
    ConfigMismatchError,
    ManifestSchemaError,
    ValidationError,
    WavFormatError,
)
from .model import build_model
from .rooms import ArraySpec, RoomSpec, build_corpus, image_method_rir
from .signals import SAMPLE_RATE
from .training import (
    enhance_waveform,
    evaluate,
    load_trained_model,
    train,
)
from .wavio import WaveBuffer, read_wav, write_wav

__all__ = ["build_parser", "main"]

log = logging.getLogger("beamkit")

_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_IO = 4


def _setup_logging():
    """Configure logging from the BEAMKIT_LOG environment variable."""
    name = os.environ.get("BEAMKIT_LOG", "warning").strip().lower()
    if name not in _LOG_LEVELS:
        raise ConfigError(
            f"BEAMKIT_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )
    logging.basicConfig(
        level=_LOG_LEVELS[name],
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamkit",
        description="Multichannel speech enhancement: simulate, train, "
        "enhance, evaluate, and inspect room impulse responses.",
    )
    parser.add_argument(
        "--version", action="version", version=f"beamkit {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument(
            "--seed", type=int, default=None,
            help="unsigned 64-bit seed; overrides the config seed",
        )
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--set", action="append", default=[], metavar="PATH=VALUE",
            help="override one config field, e.g. train.learning_rate=1e-3 "
            "(repeatable; applied in order, after the file, before --seed)",
        )

    p = sub.add_parser("simulate", help="synthesize a scene corpus with a manifest")
    add_common(p)
    p.add_argument("--count", type=int, default=None, help="number of scenes")

    p = sub.add_parser("train", help="train the neural beamformer on a corpus")
    add_common(p)
    p.add_argument("--manifest", default=None, help="training corpus manifest")
    p.add_argument("--val-manifest", default=None, help="validation corpus manifest")

    p = sub.add_parser("enhance", help="enhance one multichannel WAV file")
    add_common(p)
    p.add_argument("--checkpoint", default=None, help="trained model checkpoint")
    p.add_argument("--input", default=None, help="16 kHz multichannel WAV to enhance")

    p = sub.add_parser("evaluate", help="score a system over a corpus manifest")
    add_common(p)
    p.add_argument("--manifest", default=None, help="corpus manifest to score")
    p.add_argument("--checkpoint", default=None, help="trained model checkpoint")
    p.add_argument(
        "--system", default=None, choices=EVALUATE_SYSTEMS,
        help="which system to score (default: model)",
    )
    p.add_argument("--max-scenes", type=int, default=None, help="limit scene count")
    p.add_argument(
        "--dump-audio", action="store_true", default=False,
        help="also write each enhanced scene as a WAV under <out>/audio",
    )

    p = sub.add_parser("rir", help="dump the impulse responses for one geometry")
    add_common(p)

    return parser


def _flag_overrides(args: argparse.Namespace) -> list[str]:
    """Convenience flags become ordinary overrides, applied after --set."""
    mapping = {
        "simulate": [("count", "simulate.count")],
        "train": [("manifest", "train.manifest"), ("val_manifest", "train.val_manifest")],
        "enhance": [("checkpoint", "enhance.checkpoint"), ("input", "enhance.input_wav")],
        "evaluate": [
            ("manifest", "evaluate.manifest"),
            ("checkpoint", "evaluate.checkpoint"),
            ("system", "evaluate.system"),
            ("max_scenes", "evaluate.max_scenes"),
        ],
        "rir": [],
    }
    assignments = []
    for attr, dotted in mapping[args.command]:
        value = getattr(args, attr)
        if value is not None:
            assignments.append(f"{dotted}={json.dumps(value)}")
    if args.command == "evaluate" and args.dump_audio:
        assignments.append("evaluate.dump_audio=true")
    return assignments


def _echo_config(out_dir: str, command: str, cfg: RunConfig):
    """Record what actually ran: command, build version, full config."""
    payload = {
        "command": command,
        "version": __version__,
        "config": cfg.to_dict(),
    }
    path = os.path.join(out_dir, "effective_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"{what} is required (set it in the config or by flag)")
    return value


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    sim = cfg.simulate
    manifest = build_corpus(
        out_dir,
        count=sim.count,
        master_seed=cfg.seed,
        sampling=sim.sampling,
        duration=sim.duration_seconds,
        max_order=sim.max_order,
    )
    print(f"wrote {sim.count} scenes; manifest: {manifest}")
    return 0


def cmd_train(cfg: RunConfig, out_dir: str) -> int:
    manifest = _require_file(
        _require(cfg.train_manifest, "train.manifest"), "training manifest"
    )
    if cfg.val_manifest is not None:
        _require_file(cfg.val_manifest, "validation manifest")
    model = build_model(cfg.model, seed=cfg.seed)
    log.info("model has %d parameters", model.num_parameters())
    result = train(
        model, manifest, cfg.train, val_manifest_path=cfg.val_manifest, out_dir=out_dir
    )
    last = result.records[-1]
    print(
        f"trained {len(result.records)} epochs; "
        f"final train loss {last['train_loss']:.6f}; "
        f"best val loss {result.best_val_loss:.6f} at epoch {result.best_epoch}"
    )
    print(f"best checkpoint: {result.best_checkpoint}")
    print(f"final checkpoint: {result.final_checkpoint}")
    return 0


def cmd_enhance(cfg: RunConfig, out_dir: str) -> int:
    checkpoint = _require_file(
        _require(cfg.enhance.checkpoint, "enhance.checkpoint"), "checkpoint"
    )
    input_wav = _require_file(
        _require(cfg.enhance.input_wav, "enhance.input_wav"), "input WAV"
    )
    model, _, _ = load_trained_model(checkpoint)
    mixture = read_wav(input_wav, expect_rate=SAMPLE_RATE)
    if mixture.data.shape[0] != model.cfg.mics:
        raise ConfigMismatchError(
            f"{input_wav} has {mixture.data.shape[0]} channels but the "
            f"checkpoint expects {model.cfg.mics}"
        )
    enhanced = enhance_waveform(model, mixture)
    out_path = os.path.join(out_dir, "enhanced.wav")
    write_wav(out_path, enhanced, encoding="float32")
    print(f"wrote {out_path} ({enhanced.data.shape[1]} samples, mono)")
    return 0


def cmd_evaluate(cfg: RunConfig, out_dir: str) -> int:
    section = cfg.evaluate
    manifest = _require_file(
        _require(section.manifest, "evaluate.manifest"), "corpus manifest"
    )
    if section.system == "model":
        checkpoint = _require_file(
            _require(section.checkpoint, "evaluate.checkpoint"), "checkpoint"
        )
        system, _, _ = load_trained_model(checkpoint)
    else:
        system = section.system
    result = evaluate(
        system,
        manifest,
        out_dir=out_dir,
        max_scenes=section.max_scenes,
        dump_audio=section.dump_audio,
    )
    with open(result.summary_path, "r", encoding="utf-8") as fh:
        print(fh.read(), end="")
    return 0


def cmd_rir(cfg: RunConfig, out_dir: str) -> int:
    """Write the impulse responses from ``rir.source_position`` to each mic
    of the configured array as one float32 WAV channel per mic."""
    section = cfg.rir
    taps = image_method_rir(
        RoomSpec(dimensions=section.room_dimensions, rt60=section.rt60),
        ArraySpec.uniform_linear(
            section.array_center, num_mics=section.num_mics, spacing=section.mic_spacing
        ),
        section.source_position,
        max_order=section.max_order,
    )
    out_path = os.path.join(out_dir, "rir.wav")
    write_wav(out_path, WaveBuffer(taps, SAMPLE_RATE), encoding="float32")
    num_mics, num_taps = taps.shape
    print(f"wrote {out_path} ({num_mics} channels, {num_taps} taps)")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "enhance": cmd_enhance,
    "evaluate": cmd_evaluate,
    "rir": cmd_rir,
}


def _fail(label: str, exc: BaseException, code: int) -> int:
    print(f"beamkit: {label}: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        overrides = list(args.set) + _flag_overrides(args)
        cfg = load_run_config(args.config, overrides, seed=args.seed)
        out_dir = os.path.abspath(args.out)
        os.makedirs(out_dir, exist_ok=True)
        _echo_config(out_dir, args.command, cfg)
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        return _fail("configuration error", exc, EXIT_CONFIG)
    except (ValidationError, ManifestSchemaError) as exc:
        return _fail("validation error", exc, EXIT_VALIDATION)
    except (WavFormatError, CheckpointError, OSError) as exc:
        return _fail("i/o error", exc, EXIT_IO)
    except BeamkitError as exc:
        return _fail("error", exc, EXIT_INTERNAL)
