import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

# Ten dense_freeze wall_s pairs (seconds) of an earlier A/B run.
PARENT = [0.4028, 0.3873, 0.3902, 0.376, 0.3985, 0.3869, 0.3955, 0.3907, 0.4041, 0.3807]
CHANGE = [0.3122, 0.3163, 0.3066, 0.318, 0.3141, 0.3141, 0.3137, 0.3193, 0.3255, 0.3074]


def test_summary_of_canned_pairs():
    runs = {seed: {"parent": p, "change": c}
            for seed, (p, c) in enumerate(zip(PARENT, CHANGE), start=1)}
    out = ab_pairs.summarize(runs)
    assert out["runs"]["4"] == {"parent": 0.376, "change": 0.318}
    assert out["change_wins"] == 10
    assert out["parent_median"] == 0.3904
    assert out["parent_quartiles"] == [0.3854, 0.3996]
    assert out["change_median"] == 0.3141
    assert out["change_quartiles"] == [0.311, 0.3183]


def test_ties_and_losses_are_not_wins():
    runs = {1: {"parent": 0.30, "change": 0.30}, 2: {"parent": 0.30, "change": 0.31},
            3: {"parent": 0.30, "change": 0.29}, 4: {"parent": 0.32, "change": 0.28}}
    out = ab_pairs.summarize(runs)
    assert out["change_wins"] == 2
    assert out["parent_median"] == 0.3
    assert out["change_median"] == 0.295


def test_seed_lists():
    assert ab_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert ab_pairs.parse_seeds("1,4099") == [1, 4099]
    assert ab_pairs.parse_seeds("3-4,9") == [3, 4, 9]
