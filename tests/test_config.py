"""The config dataclasses refuse NaN and ±inf when built directly, not
only through the JSON decoder."""

import json
import math
import re

import pytest

from beamkit.cli import main
from beamkit.config import RirSection, SimulateSection
from beamkit.errors import ConfigError
from beamkit.rooms import SceneSampling, build_corpus

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


def test_non_finite_manifest_sampling_exits_3(tmp_path, capsys):
    path = build_corpus(tmp_path / "c", count=1, master_seed=1,
                        sampling=SceneSampling(num_mics=2), duration=0.5)
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    header["sampling"]["mic_spacing"] = math.nan
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    rc = main(["evaluate", "--out", str(tmp_path / "o"), "--system", "identity",
               "--manifest", str(path)])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "sampling.mic_spacing must be finite, got nan" in err[0]
