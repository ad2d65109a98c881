import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from coocsim import dynamics

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "stage_split.py"


def _load():
    spec = importlib.util.spec_from_file_location("stage_split", SCRIPT)
    stage_split = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_split)
    return stage_split


@pytest.fixture
def stage_split(monkeypatch):
    """The script, run from the root of the checkout as bench.py is; the
    workload inputs it writes are removed afterwards."""
    monkeypatch.chdir(ROOT)
    stage_split = _load()
    yield stage_split
    shutil.rmtree(ROOT / stage_split.bench.WORK, ignore_errors=True)


def _split(stage_split, capsys, workload):
    """The JSON split of one repeat of ``workload`` at workload seed 1, and
    the run's ``run_meta.json``; the wrapped functions are restored after it."""
    before = [getattr(dynamics, name) for name in stage_split.WRAPPED]
    stage_split.main(["--workload", workload, "--repeats", "1"])
    assert [getattr(dynamics, name) for name in stage_split.WRAPPED] == before
    out = json.loads(capsys.readouterr().out)
    meta = json.loads((stage_split.bench.WORK / workload / "out" / "run_meta.json").read_text())
    assert out["workload"] == workload and out["seed"] == 1
    assert out["program_seed"] == meta["seed"]
    stages = set(stage_split.STAGES) | {"total", "minor_faults"}
    for group in stage_split.GROUPS:
        assert set(out[group]) == stages, group
        assert out[group]["minor_faults"] >= 0, group
        if group != "walk_only_ticks" or out["walk_only_tick_count"]:
            assert out[group]["uniforms"] > 0, group
    assert out["walk_only_ticks"]["field"] == out["walk_only_ticks"]["deactivation"] == 0
    assert out["tick_0"]["field"] > 0
    assert out["all_ticks"]["minor_faults"] >= out["tick_0"]["minor_faults"]
    stretched = out["walk_stretches"]
    assert set(stretched) == set(stage_split.STRETCH_KEYS)
    assert out["stepped_tick_count"] + stretched["ticks"] == meta["steps"]
    assert stretched["minor_faults"] >= 0
    assert (stretched["uniforms"] > 0) == (stretched["ticks"] > 0) == (stretched["total"] > 0)
    return out, meta


def test_stage_split_reports_every_stage_of_every_group(stage_split, capsys):
    """A stage a step skipped counts as 0 s, and a tick with no field call
    is walk-only. dense_freeze has follow ticks, a walk-only tick and then
    walk stretches: stepped and stretched ticks make its 60. At workload seed
    1 it runs 19,622 walkers with program seed 3620304598."""
    out, meta = _split(stage_split, capsys, "dense_freeze")
    assert 0 < out["walk_only_tick_count"] < out["stepped_tick_count"] < 60
    assert out["walk_stretches"]["ticks"] > 0
    assert meta["seed"] == 3620304598 and meta["sizes"]["walkers"] == 19622


def test_stage_split_of_the_small_set(stage_split, capsys):
    """The workload where per-call overhead dominates gets a split too: 13
    populations of 100 agents over 100 ticks, following on ticks after 0."""
    out, meta = _split(stage_split, capsys, "small_set")
    assert meta["steps"] == 100 and set(meta["sizes"].values()) == {100}
    assert len(meta["sizes"]) == 13 and out["follow_ticks"]["field"] > 0
    assert out["walk_stretches"]["ticks"] == 0 and out["stepped_tick_count"] == 100


def test_stage_split_of_the_star_ring(stage_split, capsys):
    """Every tick of the benchmark's generated hub and 400-ring run builds a
    field and counts freezes."""
    out, meta = _split(stage_split, capsys, "star_ring")
    assert sorted(meta["sizes"]) == sorted(stage_split.bench.prepare("star_ring", 1).names)
    assert out["walk_only_tick_count"] == out["walk_stretches"]["ticks"] == 0
    for group in ("tick_0", "follow_ticks", "all_ticks"):
        assert out[group]["field"] > 0 and out[group]["deactivation"] > 0, group
