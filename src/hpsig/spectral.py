"""Hermitian spectral toolkit: eigensystems with their functional calculus
(``HermitianEigensystem.apply``), positive ranks, and invertibility
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


def _float_or_complex(a) -> np.ndarray:
    """a as an array: float64 is kept, anything else is complex128."""
    m = np.asarray(a)
    return m if m.dtype == np.float64 else m.astype(complex, copy=False)


def real_if_exact(a) -> np.ndarray:
    """a in float64 when it has no imaginary part, complex128 otherwise: an
    exact test, with no tolerance.  A complex matrix whose imaginary part is
    0 has the same decompositions in float64, at a fraction of the cost."""
    m = _float_or_complex(a)
    if m.dtype == np.float64 or m.imag.any():
        return m
    return np.ascontiguousarray(m.real)


def _as_matrix(a) -> np.ndarray:
    m = _float_or_complex(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def operator_norm(a) -> float:
    """The 2-norm, real for float64 input; a matrix with no nonzero entry has
    norm 0 without an SVD."""
    m = _float_or_complex(a)
    if not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


def graded_norm(a, offsets) -> float:
    """The 2-norm of a square matrix graded by the index ranges
    offsets[p]:offsets[p + 1], read off its nonzero degree blocks.

    Row and column blocks linked by a nonzero block fall into one group;
    rows and columns of different groups share no nonzero entry, so a is
    their direct sum up to a permutation and its norm is the largest group
    norm.  A matrix with no nonzero entry has norm 0 without an SVD, one
    group is one SVD of the whole matrix, and several are one batched
    SVD over the groups, zero-padded to a common shape, which only adds zero
    singular values.  It is taken in float64 when a has no imaginary part
    (real_if_exact).
    """
    m = real_if_exact(a)
    if not m.any():
        return 0.0
    ranges = _degree_ranges(offsets)
    links = _nonzero_blocks(m, ranges)
    # node i < len(ranges) is row block i, node len(ranges) + j column block j
    place, extent = _block_groups(links, [hi - lo for lo, hi in ranges])
    if len(extent) == 1:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    batch = np.zeros((len(extent), max(r for r, _ in extent), max(c for _, c in extent)),
                     dtype=m.dtype)
    for i, j in links:
        (g, r), (_, c) = place[i], place[len(ranges) + j]
        (rlo, rhi), (clo, chi) = ranges[i], ranges[j]
        batch[g, r:r + rhi - rlo, c:c + chi - clo] = m[rlo:rhi, clo:chi]
    return float(np.linalg.svd(batch, compute_uv=False)[:, 0].max())


def _degree_ranges(offsets) -> list[tuple[int, int]]:
    """The nonempty index ranges offsets[p]:offsets[p + 1]."""
    return [(lo, hi) for lo, hi in zip(offsets, offsets[1:]) if hi > lo]


def _nonzero_blocks(m: np.ndarray, ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The (row, column) pairs of range numbers whose block of m has a
    nonzero entry."""
    starts = [lo for lo, _ in ranges]
    rows, cols = np.logical_or.reduceat(
        np.logical_or.reduceat(m != 0, starts, axis=0), starts, axis=1).nonzero()
    return list(zip(rows.tolist(), cols.tolist()))


def _block_groups(links: list, sizes: list[int]) -> tuple[dict, list]:
    """The connected components of the bipartite graph whose nodes are the
    row blocks 0..b-1 and the column blocks b..2b-1 of sizes, b = len(sizes),
    with an edge (i, b + j) per link (i, j).  Returns, for each linked node,
    its group and its first row or column within the group (blocks in degree
    order), and the [rows, columns] extent of each group."""
    b = len(sizes)
    root = list(range(2 * b))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for i, j in links:
        root[find(i)] = find(b + j)
    label: dict[int, int] = {}
    place, extent = {}, []
    for node in sorted({i for i, _ in links} | {b + j for _, j in links}):
        g = label.setdefault(find(node), len(label))
        if g == len(extent):
            extent.append([0, 0])
        side = int(node >= b)
        place[node] = (g, extent[g][side])
        extent[g][side] += sizes[node - side * b]
    return place, extent


def right_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b^{-1} from one solve of b^T x^T = a^T, without inverting b."""
    return np.linalg.solve(b.T, a.T).T


def require_gap(eigenvalues: np.ndarray, gap_tol: float, what: str,
                slack: float = 0.0) -> InvertibilityCertificate:
    """spectrum_certificate, once it passes; NoSpectralGapError otherwise."""
    cert = spectrum_certificate(eigenvalues, gap_tol, slack)
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
    A float64 matrix is decomposed in real arithmetic, any other in complex.
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


def gapped_eigenvalues(a, gap_tol: float, what: str, tol_sym: float) -> np.ndarray:
    """The eigenvalues of a Hermitian matrix, ascending, once they pass
    require_gap: one eigvalsh, behind the Hermitian check of eig_hermitian."""
    m = _as_matrix(a)
    if m.size == 0:
        return np.zeros(0)
    vals = np.linalg.eigvalsh(m)
    _require_hermitian(m, vals, tol_sym)
    require_gap(vals, gap_tol, what)
    return vals


def positive_rank(a, gap_tol: float = 1e-8, tol_sym: float = 1e-10) -> int:
    """Number of positive eigenvalues of a Hermitian matrix, certified by the
    spectral gap."""
    return int((gapped_eigenvalues(a, gap_tol, "positive rank", tol_sym) > 0).sum())


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
