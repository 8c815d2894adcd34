import os
from pathlib import Path

import pytest
from hypothesis import settings

from plam.gen import closed_corpus

# `pytest --hypothesis-profile=ci` prints a reproduction blob on failure
settings.register_profile("ci", print_blob=True)

# `pythonpath` in pyproject.toml puts src/ on this process's path only;
# tests that start `python -m plam.cli` need it in the environment too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

CORPUS_SEED = 12345
CORPUS_SIZE = 500
CORPUS_MAX_TERM = 12


@pytest.fixture(scope="session")
def corpus():
    """The deterministic closed-term corpus shared by the heavier suites."""
    return closed_corpus(CORPUS_SEED, CORPUS_SIZE, max_size=CORPUS_MAX_TERM)


@pytest.fixture(scope="session")
def small_corpus():
    """A smaller corpus for the game-certificate and tree suites."""
    return closed_corpus(777, 120, max_size=8)
