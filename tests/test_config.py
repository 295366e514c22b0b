"""The config dataclasses refuse NaN and ±inf, and an RT60 beyond
``rooms.MAX_RT60``, when built directly, not only through the JSON
decoder."""

import json
import math
import re

import pytest

from beamkit.cli import main
from beamkit.config import RirSection, SimulateSection
from beamkit.errors import ConfigError
from beamkit.rooms import MAX_RT60, SceneSampling, build_corpus

NON_FINITE = [
    (SceneSampling, "mic_spacing", math.nan, "mic_spacing"),
    (SceneSampling, "array_height", math.nan, "array_height"),
    (SceneSampling, "min_doa_deg", -math.inf, "min_doa_deg"),
    (SceneSampling, "source_distances", (1.0, math.nan), "source_distances[1]"),
    (SceneSampling, "snr_grid_db", (math.inf,), "snr_grid_db[0]"),
    (SimulateSection, "duration_seconds", math.nan, "simulate.duration_seconds"),
    (RirSection, "rt60", math.inf, "rir.rt60"),
    (RirSection, "source_position", (math.nan, 1.0, 1.0), "rir.source_position[0]"),
]


@pytest.mark.parametrize("cls,name,value,where", NON_FINITE, ids=[c[3] for c in NON_FINITE])
def test_non_finite_number_rejected(cls, name, value, where):
    with pytest.raises(ConfigError, match="^" + re.escape(where) + " must be finite, got "):
        cls(**{name: value})


def evaluate_with_sampling(tmp_path, capsys, name, value) -> tuple[int, list[str]]:
    """Exit code and stderr lines of ``evaluate`` on a one-scene corpus
    whose header states ``value`` for sampling field ``name``."""
    path = build_corpus(tmp_path / "c", count=1, master_seed=1,
                        sampling=SceneSampling(num_mics=2), duration=0.5)
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    header["sampling"][name] = value
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    rc = main(["evaluate", "--out", str(tmp_path / "o"), "--system", "identity",
               "--manifest", str(path)])
    return rc, capsys.readouterr().err.strip().splitlines()


def test_non_finite_manifest_sampling_exits_3(tmp_path, capsys):
    rc, err = evaluate_with_sampling(tmp_path, capsys, "mic_spacing", math.nan)
    assert rc == 3
    assert len(err) == 1
    assert "sampling.mic_spacing must be finite, got nan" in err[0]


def test_rt60_bound_is_inclusive():
    assert RirSection(rt60=MAX_RT60).rt60 == MAX_RT60
    assert SceneSampling(rt60_range=(0.1, MAX_RT60)).rt60_range == (0.1, MAX_RT60)


@pytest.mark.parametrize(
    "cls,name,value,message",
    [(RirSection, "rt60", 10.5, "rir.rt60 must be in (0, 10.0], got 10.5"),
     (SceneSampling, "rt60_range", (0.1, 10.5),
      "rt60_range must not exceed 10.0 s, got (0.1, 10.5)")],
    ids=["rir.rt60", "rt60_range"],
)
def test_rt60_beyond_bound_rejected(cls, name, value, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        cls(**{name: value})


@pytest.mark.parametrize(
    "command,assignment,message",
    [("rir", "rir.rt60=1e6", "rir.rt60 must be in (0, 10.0], got 1000000.0"),
     ("simulate", "simulate.sampling.rt60_range=[1e6,1e6]",
      "rt60_range must not exceed 10.0 s, got (1000000.0, 1000000.0)")],
    ids=["rir", "simulate"],
)
def test_rt60_beyond_bound_exits_2(tmp_path, capsys, command, assignment, message):
    # Each ended in a numpy memory-error traceback asking for the RIR
    # taps of a 1e6 s reverberation: 1.05 TiB (rir), 238 GiB (simulate).
    rc = main([command, "--out", str(tmp_path / "o"), "--set", "simulate.count=1",
               "--set", assignment])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"beamkit: configuration error: {message}"]


def test_manifest_rt60_beyond_bound_exits_3(tmp_path, capsys):
    rc, err = evaluate_with_sampling(tmp_path, capsys, "rt60_range", [1e6, 1e6])
    assert rc == 3
    assert len(err) == 1
    assert "manifest header field rt60_range must not exceed 10.0 s" in err[0]
