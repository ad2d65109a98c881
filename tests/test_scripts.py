"""Smoke runs of the experiment scripts, each with tiny arguments: they import
names of ``coocsim.io`` and ``coocsim.lattice`` that a change could break."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    """The module of ``scripts/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _run_main(monkeypatch, name, *args):
    """Run the ``main()`` of ``scripts/<name>.py`` with ``args`` as its command line."""
    script = _load(name)
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    script.main()


def test_small_set_report_writes_a_report_per_tick_and_prints_both_ratios(
        monkeypatch, capsys, tmp_path):
    _run_main(monkeypatch, "small_set_report", "--seeds", 1, "--ticks", 0, 2, "--out", tmp_path)
    reports = sorted(tmp_path.iterdir())
    assert [path.name for path in reports] == ["report_seed0_t0.csv", "report_seed0_t2.csv"]
    for path in reports:
        lines = path.read_text().splitlines()
        assert lines[0] == "population,count" and lines[-1].startswith("_average,")
        assert len(lines) == 14   # the header, 12 populations besides walkers, the average
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and out[0].startswith("1 seeds, final tick 2")
    assert [line.split(": count/average = ")[0] for line in out[1:]] == [
        "particles", "ab_initio_calculations"]


def test_drift_diffusion_check_prints_one_sample_per_agent_tick(monkeypatch, capsys):
    _run_main(monkeypatch, "drift_diffusion_check", "--agents", 1000, "--ticks", 1)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "samples: 1000"
    assert out[1].startswith("mean step: ") and out[2].startswith("mean squared step: ")


def test_toy_aggregation_writes_a_snapshot_per_split_and_tick(monkeypatch, capsys, tmp_path):
    _run_main(monkeypatch, "toy_aggregation", "--seeds", 1, "--ticks", 0, 1, "--side", 21,
              "--snapshots", tmp_path)
    snapshots = sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*.ppm"))
    assert snapshots == [f"w{w}_p{p}/snapshot_t{t}.ppm"
                         for w, p in ((200, 800), (500, 500), (800, 200)) for t in (0, 1)]
    # One 8 x 8 pixel block per patch of the 21 x 21 world.
    assert all((tmp_path / name).read_bytes().startswith(b"P6\n168 168\n255\n")
               for name in snapshots)
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [
        ["walkers=200", "particles=800"], ["walkers=500", "particles=500"],
        ["walkers=800", "particles=200"]]


def _sweep_rows(monkeypatch, capsys, option, sizes):
    """The cells of each row that ``scripts/sweep.py option sizes`` prints.

    Each size runs in its own process, which finds ``coocsim`` on ``PYTHONPATH``."""
    monkeypatch.setenv("PYTHONPATH", str(SCRIPTS.parent / "src"))
    _run_main(monkeypatch, "sweep", option, *sizes)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and out[0].startswith("| side | populations | agents |")
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in out[2:]]


def test_side_sweep_prints_the_peak_memory_and_one_wrap_table_per_side(monkeypatch, capsys):
    rows = _sweep_rows(monkeypatch, capsys, "--sides", (21, 31))
    for (side, pops, agents, wall, vmhwm, pads), size in zip(rows, (21, 31)):
        assert (side, pops, agents) == (str(size), "2", "1000")
        assert float(wall) > 0 and float(vmhwm) > 0 and pads == "3"


def test_pop_sweep_prints_the_wall_time_and_peak_memory_per_size(monkeypatch, capsys):
    rows = _sweep_rows(monkeypatch, capsys, "--pops", (4, 6))
    for (side, pops, agents, wall, vmhwm, pads), size in zip(rows, (4, 6)):
        assert (side, pops, agents) == ("101", str(size), str(20 * size))
        assert float(wall) > 0 and float(vmhwm) > 0 and pads == "3"


def test_sweep_without_a_peak_memory_line_is_one_error_line(monkeypatch):
    """A host whose ``/proc/self/status`` has no ``VmHWM`` line, as the child reads it."""
    monkeypatch.setenv("PYTHONPATH", str(SCRIPTS.parent / "src"))
    script = _load("sweep")
    monkeypatch.setattr(script, "CHILD", script.CHILD.replace('"VmHWM:"', '"NoSuchLine:"'))
    monkeypatch.setattr(sys, "argv", ["sweep", "--sides", "21"])
    with pytest.raises(SystemExit) as exited:
        script.main()
    assert str(exited.value).startswith("error:") and "VmHWM" in str(exited.value)
    assert "\n" not in str(exited.value)
