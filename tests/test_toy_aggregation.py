import importlib.util
from pathlib import Path

import pytest

from reference import uniform_placement_fraction

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "toy_aggregation.py"


def _load():
    spec = importlib.util.spec_from_file_location("toy_aggregation", SCRIPT)
    toy_aggregation = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy_aggregation)
    return toy_aggregation


def test_closed_form_chance_level_matches_uniform_placement():
    """1 - (1 - k/A)^n on the 51 x 51 torus at distance 2 (k = 13 patches)
    against 100 Monte Carlo placements of every split. Across seeds those
    placements spread by about 0.003, so 0.01 is over three spreads."""
    toy_aggregation = _load()
    got = [toy_aggregation.chance_level(51, walkers, 2.0) for walkers, _ in toy_aggregation.SPLITS]
    assert [round(level, 3) for level in got] == [0.633, 0.918, 0.982]
    for level, (walkers, particles) in zip(got, toy_aggregation.SPLITS):
        simulated = uniform_placement_fraction(51, walkers, particles, 2.0, placements=100, seed=0)
        assert level == pytest.approx(simulated, abs=0.01), (walkers, particles)
