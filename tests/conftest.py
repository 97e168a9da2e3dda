import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def cli_cmd():
    """Base argv for invoking the command-line interface in a subprocess."""
    return [sys.executable, "-m", "hpsig.cli"]


@pytest.fixture(scope="session")
def complex_betti():
    """Betti numbers of a complex from the float ranks of its differentials;
    the rank decisions are safe on differentials with small integer entries."""
    def betti(c) -> tuple[int, ...]:
        ranks = [int(np.linalg.matrix_rank(dp)) if dp.size else 0 for dp in c.d]

        def rank(p):
            return ranks[p] if 0 <= p < len(ranks) else 0

        return tuple(c.space.dims[p] - rank(p) - rank(p - 1) for p in range(c.n + 1))
    return betti
