import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")

DATA = Path(__file__).resolve().parents[1] / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def rules_text() -> str:
    return (DATA / "rules.txt").read_text()


@pytest.fixture(scope="session")
def matrix_toy_text() -> str:
    return (DATA / "matrix_toy.txt").read_text()


@pytest.fixture(scope="session")
def matrix_small_text() -> str:
    return (DATA / "matrix_small_set.txt").read_text()


@pytest.fixture
def validate_calls(monkeypatch) -> list:
    """The models ``validate`` is called with, counted through every module
    binding of it in the package, as the perfbench tracer rebinds them."""
    import coocsim.model

    original, calls = coocsim.model.validate, []

    def counted(model):
        calls.append(model)
        return original(model)

    for name, module in list(sys.modules.items()):
        if name == "coocsim" or name.startswith("coocsim."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls
