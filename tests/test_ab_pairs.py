import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

# Ten dense_freeze wall_s pairs (seconds) of an earlier A/B run.
PARENT = [0.4028, 0.3873, 0.3902, 0.376, 0.3985, 0.3869, 0.3955, 0.3907, 0.4041, 0.3807]
CHANGE = [0.3122, 0.3163, 0.3066, 0.318, 0.3141, 0.3141, 0.3137, 0.3193, 0.3255, 0.3074]


def _walls(pairs):
    return {seed: {"parent": {"wall_s": p}, "change": {"wall_s": c}}
            for seed, (p, c) in enumerate(pairs, start=1)}


def test_summary_of_canned_pairs():
    out = ab_pairs.summarize(_walls(zip(PARENT, CHANGE)))
    assert out["runs"]["4"] == {"parent": {"wall_s": 0.376}, "change": {"wall_s": 0.318}}
    assert out["change_wins"] == 10
    assert out["wall_s"]["parent_median"] == 0.3904
    assert out["wall_s"]["parent_quartiles"] == [0.3854, 0.3996]
    assert out["wall_s"]["change_median"] == 0.3141
    assert out["wall_s"]["change_quartiles"] == [0.311, 0.3183]


def test_ties_and_losses_are_not_wins():
    out = ab_pairs.summarize(_walls([(0.30, 0.30), (0.30, 0.31), (0.30, 0.29), (0.32, 0.28)]))
    assert out["change_wins"] == 2
    assert out["wall_s"]["parent_median"] == 0.3
    assert out["wall_s"]["change_median"] == 0.295


def test_every_end_to_end_metric_is_summarized_and_wins_stay_on_wall_s():
    """The change loses on wall_s in three of four pairs but wins on every
    other metric: the wins count wall_s only, and each metric gets each
    side's median and quartiles."""
    names = ("wall_s", "setup_s", "agent_ticks_per_s", "peak_rss_mb")
    parent = [(0.20, 0.030, 400000.0, 50.0), (0.21, 0.034, 410000.0, 50.5),
              (0.19, 0.026, 390000.0, 49.5), (0.22, 0.038, 420000.0, 51.0)]
    change = [(0.21, 0.020, 500000.0, 45.0), (0.22, 0.024, 510000.0, 45.5),
              (0.18, 0.016, 490000.0, 44.5), (0.23, 0.028, 520000.0, 46.0)]
    runs = {seed: {"parent": dict(zip(names, p)), "change": dict(zip(names, c))}
            for seed, (p, c) in enumerate(zip(parent, change), start=1)}
    out = ab_pairs.summarize(runs)
    assert out["change_wins"] == 1
    assert [name for name in out if name in names] == list(names)
    assert out["setup_s"] == {"parent_median": 0.032, "parent_quartiles": [0.027, 0.037],
                              "change_median": 0.022, "change_quartiles": [0.017, 0.027]}
    assert out["agent_ticks_per_s"]["parent_median"] == 405000.0
    assert out["agent_ticks_per_s"]["change_quartiles"] == [492500.0, 517500.0]
    assert out["peak_rss_mb"]["parent_median"] == 50.25
    assert out["peak_rss_mb"]["change_median"] == 45.25
    assert out["wall_s"]["change_median"] == 0.215


def test_claim_rule_verdicts():
    """A gain on wall_s is claimed only with at least 9 wins in 10 and a
    median gap wider than the parent's interquartile range; a metric
    regresses when its median is worse than the parent's by more than its
    bound in BENCHMARK.json (0.2 for both here), in the metric's own direction."""
    bounds = ab_pairs.end_to_end_metrics()
    assert bounds["wall_s"]["bound"] == bounds["agent_ticks_per_s"]["bound"] == 0.2
    assert bounds["agent_ticks_per_s"]["better"] == "higher"

    def pairs(walls, rates):
        return {seed: {"parent": {"wall_s": p, "agent_ticks_per_s": rp},
                       "change": {"wall_s": c, "agent_ticks_per_s": rc}}
                for seed, ((p, c), (rp, rc)) in enumerate(zip(walls, rates), start=1)}

    steady = [(100.0, 100.0)] * 10
    out = ab_pairs.summarize(pairs(zip(PARENT, CHANGE), steady))
    assert out["claim_met"] and out["regressed"] == {"wall_s": False, "agent_ticks_per_s": False}

    # Nine wins in ten, but 0.3904 - 0.3874 is inside the parent's 0.3854-0.3996.
    close = [(p, p - 0.003) for p in PARENT[:9]] + [(PARENT[9], PARENT[9] + 0.01)]
    out = ab_pairs.summarize(pairs(close, steady))
    assert out["change_wins"] == 9 and not out["claim_met"]
    # Eight wins in ten of a wide gap are not enough either.
    eight = list(zip(PARENT, CHANGE))[:8] + [(0.30, 0.31), (0.30, 0.32)]
    assert not ab_pairs.summarize(pairs(eight, steady))["claim_met"]

    # 25% slower and 25% fewer agent ticks per second are beyond the bound;
    # 15% of each is within it.
    out = ab_pairs.summarize(pairs([(0.2, 0.25)] * 10, [(100.0, 75.0)] * 10))
    assert not out["claim_met"]
    assert out["regressed"] == {"wall_s": True, "agent_ticks_per_s": True}
    out = ab_pairs.summarize(pairs([(0.2, 0.23)] * 10, [(100.0, 85.0)] * 10))
    assert out["regressed"] == {"wall_s": False, "agent_ticks_per_s": False}


def test_seed_lists():
    assert ab_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert ab_pairs.parse_seeds("1,4099") == [1, 4099]
    assert ab_pairs.parse_seeds("3-4,9") == [3, 4, 9]


def test_a_single_seed_prints_its_pair_without_quartiles_or_claim(monkeypatch, capsys, tmp_path):
    """A held-out seed runs one pair: each metric's medians are that pair's
    values, and the quartiles and ``claim_met``, which one pair cannot give,
    are left out; ``regressed`` still judges the medians."""
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    values = {"parent": {"wall_s": 0.2, "peak_rss_mb": 50.0},
              "change": {"wall_s": 0.19, "peak_rss_mb": 60.0}}
    for seeds in ("4099", "3,3", "5-5"):
        ran = []
        monkeypatch.setattr(ab_pairs, "bench_metrics", lambda checkout, workload, seed, seconds:
                            ran.append(seed) or values[checkout.name])
        ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "small_set", "--seeds", seeds])
        out = json.loads(capsys.readouterr().out)
        assert len(ran) == 2 and len(set(ran)) == 1
        assert out["change_wins"] == 1 and "claim_met" not in out
        assert out["wall_s"] == {"parent_median": 0.2, "change_median": 0.19}
        assert out["peak_rss_mb"] == {"parent_median": 50.0, "change_median": 60.0}
        assert out["regressed"] == {"wall_s": False, "peak_rss_mb": True}


def test_checkouts_whose_paths_differ_in_length_are_refused_before_any_run(
        monkeypatch, tmp_path):
    """Unequal path lengths shift the memory layout of the runs, so the
    script stops with one error line before it runs a benchmark; paths of
    equal length go on to the runs."""
    for name in ("parent", "change", "longer_parent"):
        (tmp_path / name).mkdir()
    monkeypatch.setattr(ab_pairs, "bench_metrics", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as stopped:
        ab_pairs.main([str(tmp_path / "longer_parent"), str(tmp_path / "change"),
                       "--workload", "small_set", "--seeds", "1-2"])
    message = str(stopped.value.code)
    assert message.startswith("error: checkout paths") and "\n" not in message
    assert "equal length" in message

    ran = []
    monkeypatch.setattr(ab_pairs, "bench_metrics",
                        lambda checkout, *args: ran.append(checkout.name) or {"wall_s": 0.1})
    ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                   "--workload", "small_set", "--seeds", "1-2"])
    assert sorted(ran) == ["change", "change", "parent", "parent"]
