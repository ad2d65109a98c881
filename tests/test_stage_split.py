import importlib.util
import json
from pathlib import Path

from coocsim import dynamics

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stage_split.py"


def _load():
    spec = importlib.util.spec_from_file_location("stage_split", SCRIPT)
    stage_split = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_split)
    return stage_split


def test_stage_split_reports_every_stage_of_every_group(capsys):
    """The dense_freeze run has follow ticks and walk-only ticks; a stage a
    step skipped counts as 0 s, and a tick with no field call is walk-only."""
    stage_split = _load()
    before = [getattr(dynamics, name) for name in stage_split.WRAPPED]
    stage_split.main(["--repeats", "1"])
    assert [getattr(dynamics, name) for name in stage_split.WRAPPED] == before
    out = json.loads(capsys.readouterr().out)
    stages = set(stage_split.STAGES) | {"total"}
    for group in ("tick_0", "ticks_1_6", "walk_only_ticks", "all_ticks"):
        assert set(out[group]) == stages, group
        assert out[group]["uniforms"] > 0, group
    assert 0 < out["walk_only_tick_count"] < 60
    assert out["walk_only_ticks"]["field"] == out["walk_only_ticks"]["deactivation"] == 0
    assert out["tick_0"]["field"] > 0


def test_stage_split_of_the_star_ring(capsys):
    """Every tick of the hub and 400-ring run builds a field and counts
    freezes; the wrapped functions are restored afterwards."""
    stage_split = _load()
    before = [getattr(dynamics, name) for name in stage_split.WRAPPED]
    stage_split.main(["--workload", "star_ring", "--repeats", "1"])
    assert [getattr(dynamics, name) for name in stage_split.WRAPPED] == before
    out = json.loads(capsys.readouterr().out)
    assert out["workload"] == "star_ring" and out["walk_only_tick_count"] == 0
    for group in ("tick_0", "ticks_1_7", "all_ticks"):
        assert set(out[group]) == set(stage_split.STAGES) | {"total"}, group
        assert out[group]["field"] > 0 and out[group]["deactivation"] > 0, group
