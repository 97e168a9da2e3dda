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


@pytest.fixture(scope="session")
def path_gluing():
    """How far the branch formulas of a rho path, rho._PathData.branch, are
    from gluing into one path from diag(S', -S) to its negative: the
    largest 2-norm of branch(j - 1, j) - branch(j, j) over the junctions
    j = 1, ..., 5, and the larger of the 2-norms of branch(0, 0) -
    diag(S', -S) and branch(5, 6) + diag(S', -S)."""
    def gluing(pd) -> tuple[float, float]:
        ends = pd.assemble(pd.Sp, None, None, -pd.S)
        junction = max(np.linalg.norm(pd.branch(j - 1, float(j)) - pd.branch(j, float(j)), 2)
                       for j in range(1, 6))
        endpoint = max(np.linalg.norm(pd.branch(0, 0.0) - ends, 2),
                       np.linalg.norm(pd.branch(5, 6.0) + ends, 2))
        return float(junction), float(endpoint)
    return gluing


@pytest.fixture(scope="session")
def graded_operand():
    """The operand whose spectrum is that of scale D + S for an even complex,
    formed in one piece: the Hermitian part of S on the entries joining
    degrees of equal parity, that of scale D on the others."""
    def operand(c, scale: float = 1.0) -> np.ndarray:
        s, d = c.S_on, scale * c.D_on
        return np.where(c.space.grading.same, (s + s.conj().T) * 0.5, (d + d.conj().T) * 0.5)
    return operand


@pytest.fixture(scope="session")
def split_agrees():
    """Checks a DualitySpectrum decomposed one connected component at a time
    (hpc_core.GradedSum) against one dense eigvalsh of its operand: each
    eigenvalue within N eps ||M||, the same certificate verdicts, and, where
    no eigenvalue lies that close to 0, the same positive ranks."""
    def agrees(split, operand: np.ndarray, tol_inv: float = 1e-8) -> None:
        dense = np.linalg.eigvalsh(operand)
        bound = len(dense) * np.finfo(float).eps * float(np.abs(dense).max())
        assert split.plus.shape == dense.shape
        assert float(np.abs(split.plus - dense).max()) <= bound
        assert np.array_equal(split.minus, -split.plus[::-1])
        whole = type(split)(dense, -dense[::-1], split.slack)
        assert ([cert.passed for cert in split.certificates(tol_inv)]
                == [cert.passed for cert in whole.certificates(tol_inv)])
        if float(np.abs(dense).min()) > bound:
            assert split.positive_ranks() == whole.positive_ranks()
    return agrees
