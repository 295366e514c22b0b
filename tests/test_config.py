"""The config dataclasses refuse NaN and ±inf, an RT60 beyond
``rooms.MAX_RT60`` and a scene longer than ``rooms.MAX_DURATION``, when
built directly, not only through the JSON decoder.  Built directly, a
section names the bare field; through a run config or a manifest, the
error names the field's dotted path."""

import json
import math
import re

import pytest

from beamkit.cli import main
from beamkit.config import RirSection, SimulateSection
from beamkit.errors import ConfigError
from beamkit.rooms import MAX_DURATION, MAX_RT60, SceneSampling, build_corpus

NON_FINITE = [
    (SceneSampling, "mic_spacing", math.nan, "mic_spacing"),
    (SceneSampling, "array_height", math.nan, "array_height"),
    (SceneSampling, "min_doa_deg", -math.inf, "min_doa_deg"),
    (SceneSampling, "source_distances", (1.0, math.nan), "source_distances[1]"),
    (SceneSampling, "snr_grid_db", (math.inf,), "snr_grid_db[0]"),
    (SimulateSection, "duration_seconds", math.nan, "duration_seconds"),
    (RirSection, "rt60", math.inf, "rt60"),
    (RirSection, "source_position", (math.nan, 1.0, 1.0), "source_position[0]"),
]


@pytest.mark.parametrize("cls,name,value,where", NON_FINITE, ids=[c[3] for c in NON_FINITE])
def test_non_finite_number_rejected(cls, name, value, where):
    with pytest.raises(ConfigError, match="^" + re.escape(where) + " must be finite, got "):
        cls(**{name: value})


def evaluate_with_header(tmp_path, capsys, field, value) -> tuple[int, list[str]]:
    """Exit code and stderr lines of ``evaluate`` on a one-scene corpus
    whose header states ``value`` for the dotted header ``field``."""
    path = build_corpus(tmp_path / "c", count=1, master_seed=1,
                        sampling=SceneSampling(num_mics=2), duration=0.5)
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    *parents, leaf = field.split(".")
    node = header
    for key in parents:
        node = node[key]
    node[leaf] = value
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    rc = main(["evaluate", "--out", str(tmp_path / "o"), "--system", "identity",
               "--manifest", str(path)])
    return rc, capsys.readouterr().err.strip().splitlines()


def test_non_finite_manifest_sampling_exits_3(tmp_path, capsys):
    rc, err = evaluate_with_header(tmp_path, capsys, "sampling.mic_spacing", math.nan)
    assert rc == 3
    assert len(err) == 1
    assert "sampling.mic_spacing must be finite, got nan" in err[0]


def test_rt60_bound_is_inclusive():
    assert RirSection(rt60=MAX_RT60).rt60 == MAX_RT60
    assert SceneSampling(rt60_range=(0.1, MAX_RT60)).rt60_range == (0.1, MAX_RT60)


@pytest.mark.parametrize(
    "cls,name,value,message",
    [(RirSection, "rt60", 10.5, "rt60 must be in (0, 10.0], got 10.5"),
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
      "simulate.sampling.rt60_range must not exceed 10.0 s, got (1000000.0, 1000000.0)")],
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
    rc, err = evaluate_with_header(tmp_path, capsys, "sampling.rt60_range", [1e6, 1e6])
    assert rc == 3
    assert len(err) == 1
    assert "manifest header field sampling.rt60_range must not exceed 10.0 s" in err[0]


def test_duration_bound_is_inclusive():
    assert SimulateSection(duration_seconds=MAX_DURATION).duration_seconds == MAX_DURATION
    with pytest.raises(ConfigError, match=r"^duration_seconds must not exceed 60.0 s, got 60.5$"):
        SimulateSection(duration_seconds=60.5)


def test_duration_beyond_bound_exits_2(tmp_path, capsys):
    # Ended in a numpy memory-error traceback asking for 116 TiB of speech.
    rc = main(["simulate", "--out", str(tmp_path / "o"), "--count", "1",
               "--set", "simulate.duration_seconds=1e9"])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "beamkit: configuration error: simulate.duration_seconds must not exceed "
        "60.0 s, got 1000000000.0"
    ]
    assert not (tmp_path / "o" / "audio").exists()


def test_manifest_duration_beyond_bound_exits_3(tmp_path, capsys):
    rc, err = evaluate_with_header(tmp_path, capsys, "duration", 1e9)
    assert rc == 3
    assert len(err) == 1
    assert err[0].endswith(":1: manifest header field duration must be in (0, 60.0], "
                           "got 1000000000.0")


def test_source_distance_bound_is_the_farthest_reach():
    reach = math.hypot(10 - 0.1 - 0.5 - 8 * 0.04 / 2, 10 - 0.1 - 0.5, 1.5 - 0.1)
    assert SceneSampling(source_distances=(0.5, reach)).source_distances == (0.5, reach)
    with pytest.raises(ConfigError, match="^source_distances must not exceed 13.255 m"):
        SceneSampling(source_distances=(0.5, math.nextafter(reach, math.inf)))
    # A higher array reaches further down, a shorter one not as far along x.
    assert SceneSampling(source_distances=(13.3,), array_height=2.0).array_height == 2.0
    with pytest.raises(ConfigError, match="must not exceed 13.193 m"):
        SceneSampling(source_distances=(13.25,), num_mics=2, mic_spacing=0.5)


def test_manifest_unreachable_source_distance_exits_3(tmp_path, capsys):
    rc, err = evaluate_with_header(tmp_path, capsys, "sampling.source_distances", [100])
    assert rc == 3
    assert len(err) == 1
    assert "manifest header field sampling.source_distances must not exceed 13.353 m" in err[0]


def test_min_doa_bounds_are_inclusive():
    assert SceneSampling(min_doa_deg=0).min_doa_deg == 0
    assert SceneSampling(min_doa_deg=180.0).min_doa_deg == 180.0


RANGE_ERRORS = [
    ("simulate", "simulate.sampling.room_length=[5,3]",
     "simulate.sampling.room_length must satisfy 0 < low <= high, got (5, 3)"),
    ("simulate", "simulate.sampling.num_mics=0", "simulate.sampling.num_mics must be >= 1, got 0"),
    # No two directions are more than 180 degrees apart, so no source
    # draw could meet a larger separation.
    ("simulate", "simulate.sampling.min_doa_deg=181",
     "simulate.sampling.min_doa_deg must be in [0, 180], got 181"),
    ("simulate", "simulate.sampling.min_doa_deg=-1",
     "simulate.sampling.min_doa_deg must be in [0, 180], got -1"),
    # No source 0.1 m inside a 10 x 10 x 3 m room is further than 13.255 m
    # from a centre 0.5 m (plus half the aperture) from the walls and
    # 1.5 m high; the sampler used to spend its whole budget and exit 1.
    ("simulate", "simulate.sampling.source_distances=[100]",
     "simulate.sampling.source_distances must not exceed 13.255 m, the farthest a "
     "source can be from the array centre in the largest room, got (100,)"),
    ("simulate", "simulate.count=-1", "simulate.count must be >= 0, got -1"),
    ("train", "train.epochs=0", "train.epochs must be >= 1, got 0"),
    ("train", "model.stcn_groups=-1", "model.stcn_groups must be >= 0, got -1"),
    ("rir", "rir.num_mics=0", "rir.num_mics must be >= 1, got 0"),
    ("evaluate", "evaluate.max_scenes=0",
     "evaluate.max_scenes must be an integer >= 1 or null, got 0"),
]


@pytest.mark.parametrize("command,assignment,message", RANGE_ERRORS,
                         ids=[c[1] for c in RANGE_ERRORS])
def test_range_error_names_the_dotted_field(tmp_path, capsys, command, assignment, message):
    # Each section names the bare field; the decoder puts its path in front.
    rc = main([command, "--out", str(tmp_path / "o"), "--set", assignment])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"beamkit: configuration error: {message}"
    ]
