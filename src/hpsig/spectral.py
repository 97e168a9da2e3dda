"""Hermitian spectral toolkit: eigensystems with their functional calculus
(``HermitianEigensystem.apply``), spectral projections, and invertibility
certificates.

Everything here works on plain matrices in an orthonormal basis.  Callers with
weighted inner products conjugate into orthonormal coordinates first (see
``hpc_core.HPComplex.to_orthonormal``).  All operations are pure and
deterministic: two calls on identical input yield identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NoSpectralGapError(ArithmeticError):
    """An eigenvalue sits inside the gap tolerance around zero."""


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def operator_norm(a) -> float:
    m = np.asarray(a, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part (A + A*)/2."""
    h = a + a.conj().T
    h *= 0.5
    return np.linalg.eigvalsh(h)


def require_gap(eigenvalues: np.ndarray, gap_tol: float, what: str,
                slack: float = 0.0) -> InvertibilityCertificate:
    """spectrum_certificate, once it passes; NoSpectralGapError otherwise."""
    return _require(spectrum_certificate(eigenvalues, gap_tol, slack), gap_tol, what, slack)


def require_gap_between(gap: float, top: float, gap_tol: float, what: str) -> None:
    """require_gap for a spectrum known by its min and max |eigenvalue|."""
    _require(gap_certificate(gap, top, gap_tol), gap_tol, what, 0.0)


def _require(cert: InvertibilityCertificate, gap_tol: float, what: str,
             slack: float) -> InvertibilityCertificate:
    if not cert.passed:
        less = " - slack" if slack else ""
        raise NoSpectralGapError(
            f"no spectral gap for {what}: min |eigenvalue|{less} {cert.min_singular:.3e} "
            f"<= {gap_tol:.1e} * {cert.max_singular:.3e}")
    return cert


@dataclass(frozen=True)
class HermitianEigensystem:
    """Eigenvalues ascending and orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """V f(L) V* for a scalar function fn applied to each eigenvalue: the
        functional calculus of the decomposed matrix."""
        vals = np.asarray([fn(x) for x in self.eigenvalues], dtype=complex)
        return (self.vectors * vals) @ self.vectors.conj().T

    def require_gap(self, gap_tol: float, what: str) -> HermitianEigensystem:
        """self, once its eigenvalues pass require_gap."""
        require_gap(self.eigenvalues, gap_tol, what)
        return self

    def positive_rank(self) -> int:
        return int((self.eigenvalues > 0).sum())

    def positive_projection(self) -> np.ndarray:
        return self.apply(lambda x: 1.0 if x.real > 0 else 0.0)


def _require_hermitian(m: np.ndarray, eigenvalues: np.ndarray, tol_sym: float) -> None:
    herm_resid = float(np.linalg.norm(m - m.conj().T))
    if herm_resid > tol_sym * max(float(np.abs(eigenvalues).max()), 1.0):
        raise ValueError(f"matrix is not Hermitian: residual {herm_resid:.3e}")


def eig_hermitian(a, tol_sym: float = 1e-10) -> HermitianEigensystem:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Ordering is ascending by eigenvalue; each eigenvector is phase-normalized
    so its first non-negligible component is positive real.  Raises
    ``ValueError`` on non-Hermitian input: ||A - A*|| in the Frobenius norm
    (an upper bound on the 2-norm) above tol_sym * max(max |eigenvalue|, 1).
    """
    m = _as_matrix(a)
    if m.size == 0:
        return HermitianEigensystem(np.zeros(0), np.zeros((0, 0), dtype=complex))
    vals, vecs = np.linalg.eigh(m)
    _require_hermitian(m, vals, tol_sym)
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))
        if nz.size:
            pivot = col[nz[0]]
            phase = pivot / abs(pivot)
            vecs[:, j] = col / phase
    return HermitianEigensystem(vals, vecs)


def positive_projection(a, gap_tol: float = 1e-8, tol_sym: float = 1e-10) -> np.ndarray:
    """Spectral projection onto the positive part of an invertible Hermitian matrix."""
    return eig_hermitian(a, tol_sym).require_gap(
        gap_tol, "positive projection").positive_projection()


def positive_rank(a, gap_tol: float = 1e-8, tol_sym: float = 1e-10) -> int:
    """Number of positive eigenvalues, certified by the spectral gap; the
    Hermitian check is that of eig_hermitian, without the eigenvectors."""
    m = _as_matrix(a)
    if m.size == 0:
        return 0
    vals = np.linalg.eigvalsh(m)
    _require_hermitian(m, vals, tol_sym)
    require_gap(vals, gap_tol, "positive rank")
    return int((vals > 0).sum())


@dataclass(frozen=True)
class InvertibilityCertificate:
    """Smallest singular value with the pass/fail verdict against a threshold."""

    min_singular: float
    max_singular: float
    condition: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "min_singular": self.min_singular,
            "max_singular": self.max_singular,
            "condition": self.condition,
            "threshold": self.threshold,
            "passed": self.passed,
        }


def gap_certificate(gap: float, top: float, tol_inv: float,
                    slack: float = 0.0) -> InvertibilityCertificate:
    """The invertibility rule for H + E, H Hermitian with min and max |eigenvalue|
    gap and top, and ||E||_2 <= slack: by Weyl, gap - slack bounds
    sigma_min(H + E) below, and the certificate passes iff that exceeds
    tol_inv * top."""
    smin = gap - slack
    cond = top / smin if smin > 0 else np.inf
    threshold = tol_inv * top
    return InvertibilityCertificate(smin, top, cond, threshold, smin > threshold)


def spectrum_certificate(eigenvalues: np.ndarray, tol_inv: float,
                         slack: float = 0.0) -> InvertibilityCertificate:
    """gap_certificate of the Hermitian part with these eigenvalues."""
    if eigenvalues.size == 0:
        return InvertibilityCertificate(np.inf, 0.0, 1.0, 0.0, True)
    size = np.abs(eigenvalues)
    return gap_certificate(float(size.min()), float(size.max()), tol_inv, slack)


def invertibility_certificate(a, tol_inv: float = 1e-8) -> InvertibilityCertificate:
    """Passes iff min singular value > tol_inv * ||A||: spectrum_certificate of
    the singular values, the |eigenvalues| of the Hermitian [[0, A], [A*, 0]]."""
    return spectrum_certificate(np.linalg.svd(_as_matrix(a), compute_uv=False), tol_inv)
