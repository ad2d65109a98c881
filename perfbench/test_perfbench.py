"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import bench
import child
from tracer import Tracer, package_modules

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def checkout(monkeypatch):
    monkeypatch.chdir(ROOT)
    yield ROOT
    shutil.rmtree(ROOT / bench.WORK, ignore_errors=True)


def _bindings() -> dict[tuple[str, str], int]:
    return {(mod.__name__, key): id(value)
            for mod in package_modules() for key, value in vars(mod).items()}


def test_traced_run_restores_every_binding(checkout, tmp_path):
    coocsim = child._import_program(checkout)
    before = _bindings()
    argv = ["run", "--rules", "data/rules.txt", "--matrix", "data/matrix_toy.txt",
            "--side", "11", "--size", "5", "--steps", "3", "--report-ticks", "0,3",
            "--target", "walkers", "--out", str(tmp_path / "out")]
    result = child.run_traced(coocsim, argv)
    assert result["rc"] == 0
    # disk_sum is only reached through the names dynamics and metrics import.
    assert result["calls"]["lattice.disk_sum"] > 0
    assert result["calls"]["dynamics.step"] == 3
    assert result["counts"]["agent_uniforms_draws"] == 3 * 10
    assert _bindings() == before


def test_missing_function_is_unmeasured_not_zero(checkout):
    child._import_program(checkout)
    with Tracer() as tracer:
        assert not tracer.wrap("coocsim.lattice", "no_such_kernel", "lattice.disk_sum")
    result = {"missing": sorted(tracer.missing), "broken_counts": [], "total": {},
              "self": {}, "calls": {}, "counts": {}, "step_peak_alloc_bytes": None,
              "output_bytes": 0}
    values = bench.layer_values(result)
    assert values["lattice.disk_sum_s"][2] is None
    assert values["lattice.disk_sum_calls"][2] is None
    assert values["dynamics.step_calls"][2] == 0


def test_flipped_output_byte_counts_as_failure(checkout, monkeypatch, capsys):
    real_invoke = bench.invoke
    calls = []

    def flip_second(spec, mode, k):
        result, problems = real_invoke(spec, mode, k)
        calls.append(mode)
        if len(calls) == 2:
            report = spec.out / f"report_t{spec.cfg['steps']}.csv"
            data = bytearray(report.read_bytes())
            data[-2] ^= 1
            report.write_bytes(bytes(data))
        return result, problems

    monkeypatch.setattr(bench, "invoke", flip_second)
    seed = json.loads(bench.DIGESTS.read_text())["default_seed"]
    assert bench.main(["--workload", "small_set", "--seed", str(seed), "--seconds", "0"]) == 0
    out = capsys.readouterr()
    summary = json.loads(out.out.strip().splitlines()[-1])
    # One warm-up, then one whole cycle of program seeds.
    assert summary["attempted"] == 1 + bench.PROGRAM_SEEDS["small_set"]
    assert summary["failed"] == 1
    assert summary["correct"] is False
    assert "digest differs" in out.err
