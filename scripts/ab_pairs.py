#!/usr/bin/env python3
"""Alternating A/B pairs of ``perfbench/bench.py`` between two checkouts.

For each workload seed, runs the benchmark once in the parent checkout and
once in the change checkout, each from the root of its own checkout with
identical settings. Odd seeds run the parent first, even seeds the change
first, so a drift of the host's speed does not favour one side. Prints one
line per run on stderr and, on stdout, one JSON object with every pair, the
change's wins on the calibrated ``wall_s`` (ties count for neither side), and
each side's median and quartiles of every end-to-end metric of the runs
(``wall_s``, ``setup_s``, ``agent_ticks_per_s``, ``peak_rss_mb``):

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload dense_freeze \\
        --seeds 1-10 --seconds 35

It also gives the verdicts of the claim rule. ``claim_met``: the change wins
at least nine tenths of the pairs and its median ``wall_s`` is below the
parent's by more than the parent's interquartile range. ``regressed``, per
metric: the change's median is worse than the parent's by more than the
relative ``bound`` that ``BENCHMARK.json`` sets for that metric, in the
direction of its ``better``. A single seed, such as a held-out one
(``--seeds 4099``), gives one pair: its medians are that pair's values, and
the quartiles and ``claim_met`` are left out.

The two checkouts must resolve to paths of equal length. Identical code run
from checkouts whose paths differ in length took different numbers of minor
page faults per star_ring run (8950, 11183 and 11211 at one seed, for three
path lengths), while two different paths of equal length gave the same
counts seed by seed: the path's length shifts the program's memory layout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4099"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def end_to_end_metrics() -> dict[str, dict]:
    """The end-to-end metrics of ``BENCHMARK.json`` by name, each with its
    ``better`` (``"lower"`` or ``"higher"``) and relative ``bound``."""
    return {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def summarize(runs: dict[int, dict[str, dict[str, float]]]) -> dict:
    """From ``{seed: {"parent": {metric: value}, "change": {metric: value}}}``:
    the change's wins on ``wall_s`` (a lower value wins), per metric each
    side's median and quartiles rounded to 4 decimals, ``claim_met``, and
    ``regressed`` for each end-to-end metric of ``BENCHMARK.json``. One pair
    has no quartiles, so it gets neither them nor ``claim_met``."""
    bounds = end_to_end_metrics()
    out: dict = {"runs": {str(seed): pair for seed, pair in runs.items()},
                 "change_wins": sum(pair["change"]["wall_s"] < pair["parent"]["wall_s"]
                                    for pair in runs.values())}
    medians, regressed = {}, {}
    for metric in next(iter(runs.values()))["parent"]:
        out[metric] = {}
        for side in ("parent", "change"):
            values = [pair[side][metric] for pair in runs.values()]
            medians[metric, side] = statistics.median(values)
            out[metric][f"{side}_median"] = round(medians[metric, side], 4)
            if len(values) > 1:
                out[metric][f"{side}_quartiles"] = [
                    round(q, 4) for q in statistics.quantiles(values, n=4)[::2]]
        if metric in bounds:
            parent, change = medians[metric, "parent"], medians[metric, "change"]
            worse = (change - parent) / parent
            if bounds[metric]["better"] == "higher":
                worse = -worse
            regressed[metric] = worse > bounds[metric]["bound"]
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles([pair["parent"]["wall_s"] for pair in runs.values()], n=4)
        out["claim_met"] = (10 * out["change_wins"] >= 9 * len(runs)
                            and medians["wall_s", "parent"] - medians["wall_s", "change"] > q3 - q1)
    out["regressed"] = regressed
    return out


def bench_metrics(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One ``bench.py`` run in ``checkout``: its end-to-end metrics, after
    checking that every output was correct and no invocation failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: seed {seed}: incorrect outputs or failed invocations")
    return {name: round(metric["value"], 4) for name, metric in result["metrics"].items()}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1,4099"')
    ap.add_argument("--seconds", type=float, default=35)
    args = ap.parse_args(argv)
    seeds = list(dict.fromkeys(parse_seeds(args.seeds)))
    paths = [str(checkout.resolve()) for checkout in (args.parent, args.change)]
    if len(paths[0]) != len(paths[1]):  # see the module docstring
        raise SystemExit(f"error: checkout paths {paths[0]!r} and {paths[1]!r} differ in "
                         f"length ({len(paths[0])} and {len(paths[1])} characters); "
                         "use paths of equal length")

    runs: dict[int, dict[str, dict[str, float]]] = {}
    for seed in seeds:
        got = {}
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            got[side] = bench_metrics(getattr(args, side), args.workload, seed, args.seconds)
            shown = " ".join(f"{name} {value}" for name, value in got[side].items())
            print(f"seed {seed} {side}: {shown}", file=sys.stderr)
        runs[seed] = {"parent": got["parent"], "change": got["change"]}
    how = (f"workload seeds {args.seeds}, one {args.seconds:g} s run per side and seed; "
           "odd seeds ran the parent first, even seeds the change first")
    print(json.dumps({"how": how, **summarize(runs)}, indent=1))


if __name__ == "__main__":
    main()
