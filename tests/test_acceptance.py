"""Acceptance suite: one check per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines
and timings. Checks 3 and 4 are currently red; the neighbourhood statistic
saturates at the configured densities (see the printed measurements), which
caps the attainable contrast below the stated targets. They are kept as
written rather than loosened.
"""

import time
from pathlib import Path

import numpy as np

from coocsim import (
    Lattice,
    TransitionDistribution,
    bias_weights,
    crowding_indices,
    estimate_drift_diffusion,
    neighborhood_counts,
    overlap_report,
    potential_at,
    run,
    significant_populations,
)
from coocsim.cli import main
from coocsim.io import parse_matrix, parse_rules
from coocsim.model import InteractionMatrixEntry, InteractionRule

from reference import (
    make_small_set_model,
    make_state,
    make_toy_model,
    make_walk_model,
    oracle_neighborhood_counts,
    oracle_potential,
    uniform_placement_fraction,
)

DATA = Path(__file__).resolve().parents[1] / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"


def _report(name: str, ok: bool, detail: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} ({detail}) [{time.perf_counter() - started:.2f}s]")
    assert ok, f"{name}: {detail}"


def test_criterion_1_crowding_indices_exact():
    started = time.perf_counter()
    big = crowding_indices(Lattice(51), 1000)
    small = crowding_indices(Lattice(31), 1300)
    ok = (big.patch_count, big.critical_count) == (2601, 650) and \
         (small.patch_count, small.critical_count) == (961, 240)
    _report("1 crowding indices", ok,
            f"A=51 -> ({big.patch_count}, {big.critical_count}), "
            f"A=31 -> ({small.patch_count}, {small.critical_count})", started)


def test_criterion_2_parser_golden_texts():
    started = time.perf_counter()
    rules = parse_rules((DATA / "rules.txt").read_text())
    toy = parse_matrix((DATA / "matrix_toy.txt").read_text())
    small = parse_matrix((DATA / "matrix_small_set.txt").read_text())
    ok = rules == [
        InteractionRule("walk", "random-walk", "deactivate-none"),
        InteractionRule("cooc", "follow-path", "deactivate-source"),
    ]
    ok = ok and toy == [
        InteractionMatrixEntry("particles", "walk", 0, 0),
        InteractionMatrixEntry("walkers", "walk", 0, 0),
        InteractionMatrixEntry("particles", "cooc", 1, 1, "walkers", 2.0),
    ]
    sources = {e.source_family for e in small}
    coocs = [e for e in small if e.target_family is not None]
    ok = ok and len(small) == 26 and len(sources) == 13 and len(coocs) == 13
    ok = ok and all(e.cardinality == 1 and e.distance == 2.0 for e in coocs)
    _report("2 parser golden texts", ok,
            f"{len(rules)} rules, {len(toy)} toy entries, {len(small)} small-set entries", started)


def test_criterion_3_toy_aggregation():
    """Three size splits; per seed the source fraction near targets must rise
    by tick 3 and beat three times the uniform-placement baseline by tick 10.
    Required in at least 9 of 10 seeds per split."""
    started = time.perf_counter()
    lines = []
    ok = True
    for walkers, particles in ((200, 800), (500, 500), (800, 200)):
        baseline = uniform_placement_fraction(51, walkers, particles, 2.0,
                                              placements=100, seed=1)
        successes = 0
        t3_wins = 0
        t10_vals = []
        for seed in range(10):
            model = make_toy_model(walkers=walkers, particles=particles,
                                   side=51, seed=seed, max_ticks=10)
            res = run(model, report_ticks=[0, 3, 10], observers=[
                lambda s, m: neighborhood_counts(s, "walkers", 2.0).counts["particles"] / particles,
            ])
            f0 = res.observations[0][0]
            f3 = res.observations[3][0]
            f10 = res.observations[10][0]
            t3_wins += f3 > f0
            t10_vals.append(f10)
            if f3 > f0 and f10 > 3 * baseline:
                successes += 1
        lines.append(
            f"{walkers}/{particles}: baseline={baseline:.3f} 3x={3 * baseline:.3f} "
            f"t3>t0 in {t3_wins}/10, t10 mean={np.mean(t10_vals):.3f}, ok {successes}/10"
        )
        ok = ok and successes >= 9
    _report("3 toy aggregation", ok, "; ".join(lines), started)


def test_criterion_4_small_set_neighbour_ratios():
    """13 populations of 100 on a 31-patch side; at tick 1000 the two linked
    populations must stand at 1.5x the average (and be flagged at factor
    1.5), with the 10-seed mean ratio inside 2.0 +- 0.5."""
    started = time.perf_counter()
    per_seed_ok = 0
    ratios = []
    for seed in range(10):
        model = make_small_set_model(size=100, side=31, seed=seed, max_ticks=1000)
        res = run(model, report_ticks=[1000],
                  observers=[lambda s, m: neighborhood_counts(s, "walkers", 2.0)])
        report = res.observations[1000][0]
        avg = report.global_average
        r_particles = report.counts["particles"] / avg
        r_ab = report.counts["ab_initio_calculations"] / avg
        ratios += [r_particles, r_ab]
        flagged = set(significant_populations(report, 1.5))
        if (r_particles >= 1.5 and r_ab >= 1.5
                and {"particles", "ab_initio_calculations"} <= flagged):
            per_seed_ok += 1
    mean_ratio = float(np.mean(ratios))
    ok = per_seed_ok == 10 and 1.5 <= mean_ratio <= 2.5
    _report("4 small-set ratios", ok,
            f"linked >= 1.5x in {per_seed_ok}/10 seeds, mean ratio {mean_ratio:.3f} "
            f"(target 2.0 +- 0.5)", started)


def test_criterion_5_diffusion_moments():
    started = time.perf_counter()
    model = make_walk_model(n_agents=10_000, side=101, seed=17, max_ticks=10)
    res = run(model, report_ticks=range(11),
              observers=[lambda s, m: s.positions.copy()])
    traj = np.stack([res.observations[t][0] for t in range(11)])
    est = estimate_drift_diffusion(traj, model.lattice)
    msd_ok = abs(est.mean_square_step - 1.5) / 1.5 < 0.05
    drift_ok = (abs(est.mean_step[0]) <= 3 * est.mean_step_se[0]
                and abs(est.mean_step[1]) <= 3 * est.mean_step_se[1])
    _report("5 diffusion moments", msd_ok and drift_ok,
            f"msd/tick={est.mean_square_step:.4f} (want 1.5 +- 5%), "
            f"drift=({est.mean_step[0]:.4f}, {est.mean_step[1]:.4f}) "
            f"within 3se={drift_ok}, n={est.samples}", started)


def test_criterion_6_brute_force_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    model = make_small_set_model(size=40, side=23)
    names = model.population_names
    mismatches = 0
    for _ in range(100):
        n_per = int(rng.integers(5, 39))  # 13 populations -> up to 507 agents
        rows = []
        for name in names:
            for _ in range(n_per):
                rows.append((name, tuple(rng.integers(0, 23, 2)), bool(rng.random() < 0.85)))
        state = make_state(23, names, rows)
        d = float(rng.choice([1.0, 2.0, 3.0]))
        report = neighborhood_counts(state, "walkers", d)
        if report.counts != oracle_neighborhood_counts(state, "walkers", d)[0]:
            mismatches += 1
        for _ in range(3):
            agent = int(rng.integers(0, len(rows)))
            cand = (int(rng.integers(0, 23)), int(rng.integers(0, 23)))
            got = potential_at(cand, agent, state, model)
            want = oracle_potential(cand, agent, state, model)
            if got != want:
                mismatches += 1
    _report("6 brute-force equivalence", mismatches == 0,
            f"100 states, exact match, {mismatches} mismatches", started)


def _run_cli_into(tmp_path, name):
    out = tmp_path / name
    rc = main([
        "run",
        "--rules", str(DATA / "rules.txt"),
        "--matrix", str(DATA / "matrix_small_set.txt"),
        "--side", "31", "--size", "100", "--steps", "40",
        "--seed", "31337", "--report-ticks", "0,20,40",
        "--target", "walkers", "--distance", "2.0",
        "--snapshots",
        "--out", str(out),
    ])
    assert rc == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_criterion_7_byte_identical_outputs(tmp_path):
    started = time.perf_counter()
    first = _run_cli_into(tmp_path, "a")
    second = _run_cli_into(tmp_path, "b")
    same_twice = first == second
    _report("7 determinism", same_twice,
            f"{len(first)} files, rerun identical={same_twice}", started)


def test_criterion_8_transition_kernel_fuzz():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    n = 100_000
    h_plus = rng.integers(0, 80, size=(n, 8))
    h_minus = rng.integers(0, 80, size=(n, 8))
    beta = rng.uniform(0.0, 10.0, size=(n, 1))
    probs = bias_weights(h_plus, h_minus, beta)
    sums_ok = np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
    nonneg_ok = (probs >= 0.0).all()
    flat = bias_weights(h_plus, h_minus, 0.0)
    uniform_ok = (flat == 0.125).all()
    spot = TransitionDistribution(probs[0])  # the type enforces the contract
    _report("8 transition kernel", sums_ok and nonneg_ok and uniform_ok,
            f"1e5 rows: max |sum-1|={np.abs(probs.sum(axis=1) - 1.0).max():.2e}, "
            f"beta=0 exactly uniform={uniform_ok}", started)


def test_fixture_replay_overlap_lists():
    started = time.perf_counter()
    tor = overlap_report((TEST_DATA / "tor_hits.txt").read_text().split(),
                         (TEST_DATA / "tor_reference.txt").read_text().split())
    actb = overlap_report((TEST_DATA / "actb_hits.txt").read_text().split(),
                          (TEST_DATA / "actb_reference.txt").read_text().split())
    ok = tor.common_count == 11 and actb.common_count == 11
    _report("9 overlap fixture replay", ok,
            f"tor common={tor.common_count}, actb common={actb.common_count}", started)
