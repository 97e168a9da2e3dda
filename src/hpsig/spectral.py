"""Hermitian spectral toolkit: eigensystems, spectral projections, functional
calculus, and invertibility certificates.

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


def require_gap(eigenvalues: np.ndarray, gap_tol: float, what: str) -> None:
    """Raises NoSpectralGapError unless min |eigenvalue| clears
    gap_tol * max |eigenvalue|."""
    if eigenvalues.size == 0:
        return
    size = np.abs(eigenvalues)
    require_gap_between(float(size.min()), float(size.max()), gap_tol, what)


def require_gap_between(gap: float, top: float, gap_tol: float, what: str) -> None:
    """require_gap for a spectrum known by its min and max |eigenvalue|."""
    scale = max(top, 1e-300)
    if gap <= gap_tol * scale:
        raise NoSpectralGapError(
            f"no spectral gap for {what}: min |eigenvalue| {gap:.3e} "
            f"<= {gap_tol:.1e} * {scale:.3e}")


@dataclass(frozen=True)
class HermitianEigensystem:
    """Eigenvalues ascending and orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """V f(L) V* for a scalar function fn applied to the eigenvalues."""
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


#: named scalar functions admitted by functional_calculus
_PLAIN_FUNCTIONS = {
    "x/sqrt(1+x^2)": lambda x: x / np.sqrt(1.0 + x * x),
    "1/sqrt(1+x^2)": lambda x: 1.0 / np.sqrt(1.0 + x * x),
}


def functional_calculus(a, fn: str, exponent: float | None = None,
                        gap_tol: float = 1e-8, tol_sym: float = 1e-10) -> np.ndarray:
    """Apply a named scalar function to a Hermitian matrix spectrally.

    fn is one of:
      - "x/sqrt(1+x^2)"
      - "1/sqrt(1+x^2)"
      - "sign_power": x -> x / |x|^s for s = exponent in [0, 1]; needs a gap
      - "abs_power":  x -> |x|^t  for t = exponent >= 0
    """
    es = eig_hermitian(a, tol_sym)
    if fn in _PLAIN_FUNCTIONS:
        f = _PLAIN_FUNCTIONS[fn]
        return es.apply(lambda x: f(x.real))
    if fn == "sign_power":
        if exponent is None or not 0.0 <= exponent <= 1.0:
            raise ValueError("sign_power needs exponent s in [0, 1]")
        es.require_gap(gap_tol, "sign-preserving power")
        s = exponent
        return es.apply(lambda x: np.sign(x.real) * abs(x.real) ** (1.0 - s))
    if fn == "abs_power":
        if exponent is None or exponent < 0:
            raise ValueError("abs_power needs exponent t >= 0")
        t = exponent
        return es.apply(lambda x: abs(x.real) ** t)
    raise ValueError(f"unknown function {fn!r}")


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


def invertibility_certificate(a, tol_inv: float = 1e-8) -> InvertibilityCertificate:
    """Certify invertibility via the eigenvalues of A*A.

    Passes iff min singular value > tol_inv * ||A||.
    """
    m = _as_matrix(a)
    if m.size == 0:
        return InvertibilityCertificate(np.inf, 0.0, 1.0, 0.0, True)
    gram = m.conj().T @ m
    vals = np.linalg.eigvalsh(gram)
    vals = np.clip(vals, 0.0, None)
    smin = float(np.sqrt(vals[0]))
    smax = float(np.sqrt(vals[-1]))
    cond = smax / smin if smin > 0 else np.inf
    threshold = tol_inv * smax
    return InvertibilityCertificate(smin, smax, cond, threshold, smin > threshold)
