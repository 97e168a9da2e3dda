"""Oriented closed triangulations and the machinery derived from them:
cochain complexes, fundamental cycles, cap-product dualities, the exact
cup-product intersection-form oracle, and harmonic reduction.

Homology-level decisions (ranks, signatures of pairings) are made in exact
rational arithmetic; floating point only enters through the spectral side,
which the oracle is there to check.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from hashlib import sha256
from typing import Mapping, Sequence

import numpy as np

from . import spectral
from .hpc_core import (DEFAULT_TOL, DomainError, DualityDegenerateError,
                       GradedSpace, HPComplex, StructuralError, Tolerances)
from .rho import HomotopyEquivalence


# ---------------------------------------------------------------------------
# exact rational linear algebra


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (matrix, pivot cols)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rational_rank(a: np.ndarray) -> int:
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(a, dtype=np.int64)]
    if not rows:
        return 0
    _, pivots = rref(rows)
    return len(pivots)


def rational_nullspace(a: np.ndarray) -> list[list[Fraction]]:
    """Basis of the rational kernel of an integer matrix (columns as vectors)."""
    a = np.asarray(a, dtype=np.int64)
    nrows, ncols = a.shape
    rows = [[Fraction(int(x)) for x in row] for row in a]
    if nrows == 0:
        return [[Fraction(1 if i == j else 0) for i in range(ncols)] for j in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def symmetric_signature(q: list[list[Fraction]]) -> tuple[int, int, int]:
    """(positives, negatives, zeros) of a symmetric rational matrix by exact
    congruence diagonalization."""
    m = [list(r) for r in q]
    k = len(m)
    pos = neg = zero = 0
    idx = 0
    while idx < k:
        if m[idx][idx] == 0:
            swapped = False
            for j in range(idx + 1, k):
                if m[j][j] != 0:
                    m[idx], m[j] = m[j], m[idx]
                    for row in m:
                        row[idx], row[j] = row[j], row[idx]
                    swapped = True
                    break
            if not swapped:
                hit = None
                for i in range(idx, k):
                    for j in range(i + 1, k):
                        if m[i][j] != 0:
                            hit = (i, j)
                            break
                    if hit:
                        break
                if hit is None:
                    zero += k - idx
                    break
                i, j = hit
                # row/col i += row/col j makes the (i,i) entry 2*m[i][j] != 0
                m[i] = [a + b for a, b in zip(m[i], m[j])]
                for row in m:
                    row[i] = row[i] + row[j]
                continue
        piv = m[idx][idx]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(idx + 1, k):
            if m[i][idx] != 0:
                f = m[i][idx] / piv
                m[i] = [a - f * b for a, b in zip(m[i], m[idx])]
                for row in m:
                    row[i] = row[i] - f * row[idx]
        idx += 1
    return pos, neg, zero


# ---------------------------------------------------------------------------
# triangulations


@dataclass(frozen=True, eq=False)
class SimplicialManifold:
    """Closed oriented pseudomanifold given by facets with orientation signs.

    Facet vertex tuples are stored sorted ascending; the orientation sign of a
    facet refers to that sorted order.
    """

    n: int
    vertices: int
    facets: tuple[tuple[int, ...], ...]
    orientations: tuple[int, ...]

    def __post_init__(self):
        facets = tuple(tuple(sorted(int(v) for v in f)) for f in self.facets)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "orientations", tuple(int(s) for s in self.orientations))

    @cached_property
    def simplices(self) -> list[list[tuple[int, ...]]]:
        """All p-simplices as sorted tuples, p = 0..n, each list sorted."""
        out = [set() for _ in range(self.n + 1)]
        for f in self.facets:
            for p in range(self.n + 1):
                for c in itertools.combinations(f, p + 1):
                    out[p].add(c)
        return [sorted(s) for s in out]

    @cached_property
    def simplex_index(self) -> list[dict[tuple[int, ...], int]]:
        return [{s: i for i, s in enumerate(level)} for level in self.simplices]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def canonical_document(self) -> dict:
        order = sorted(range(len(self.facets)), key=lambda i: self.facets[i])
        return {
            "n": self.n,
            "vertices": self.vertices,
            "facets": [list(self.facets[i]) for i in order],
            "orientations": [self.orientations[i] for i in order],
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical_document(), sort_keys=True,
                          separators=(",", ":")).encode()
        return sha256(blob).hexdigest()


def _check_structure(n: int, vertices: int, facets, orientations) -> SimplicialManifold:
    if n < 0:
        raise StructuralError("dimension must be nonnegative")
    if len(facets) == 0:
        raise StructuralError("no facets")
    if len(orientations) != len(facets):
        raise StructuralError("need one orientation sign per facet")
    seen = set()
    for f in facets:
        if len(set(f)) != n + 1:
            raise StructuralError(f"facet {f} does not have {n + 1} distinct vertices")
        if any(v < 0 or v >= vertices for v in f):
            raise StructuralError(f"facet {f} references vertices outside 0..{vertices - 1}")
        key = tuple(sorted(f))
        if key in seen:
            raise StructuralError(f"duplicate facet {key}")
        seen.add(key)
    for s in orientations:
        if s not in (1, -1):
            raise StructuralError(f"orientation sign must be +-1, got {s}")
    sm = SimplicialManifold(n, vertices, tuple(tuple(f) for f in facets),
                            tuple(orientations))
    if n == 0:
        return sm
    # closed: every (n-1)-face in exactly two facets
    count: Counter = Counter()
    for f in sm.facets:
        for c in itertools.combinations(f, n):
            count[c] += 1
    bad = [face for face, k in count.items() if k != 2]
    if bad:
        raise StructuralError(f"not a closed pseudomanifold: face {bad[0]} lies in "
                              f"{count[bad[0]]} facets (expected 2)")
    # oriented: induced orientations on each shared face cancel
    induced: dict[tuple[int, ...], int] = {}
    for f, eps in zip(sm.facets, sm.orientations):
        for i in range(n + 1):
            face = f[:i] + f[i + 1:]
            induced[face] = induced.get(face, 0) + eps * (-1) ** i
    bad = [face for face, total in induced.items() if total != 0]
    if bad:
        raise StructuralError(f"orientations do not cancel on face {bad[0]}")
    return sm


def load_simplicial(doc: Mapping) -> SimplicialManifold:
    """Parse and fully verify a triangulation document."""
    try:
        n = int(doc["n"])
        vertices = int(doc["vertices"])
        facets = [tuple(int(v) for v in f) for f in doc["facets"]]
        orientations = [int(s) for s in doc["orientations"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed triangulation document: {exc}") from exc
    return _check_structure(n, vertices, facets, orientations)


def orient_facets(facets: Sequence[Sequence[int]], n: int) -> list[int]:
    """Orientation signs making the facet sum a cycle (connected orientable input)."""
    facets = [tuple(sorted(f)) for f in facets]
    if n == 0:
        return [1] * len(facets)
    probe = SimplicialManifold(n, max(max(f) for f in facets) + 1,
                               tuple(facets), tuple([1] * len(facets)))
    bnd = boundary_matrices(probe)[-1]
    kernel = rational_nullspace(bnd)
    if len(kernel) != 1:
        raise StructuralError(
            f"top boundary kernel has rank {len(kernel)}; cannot orient")
    v = kernel[0]
    lead = next(x for x in v if x != 0)
    v = [x / abs(lead) for x in v]
    if any(abs(x) != 1 for x in v):
        raise StructuralError("triangulation is not orientable (non-unit cycle weights)")
    order = probe.simplex_index[n]
    return [int(v[order[f]]) for f in facets]


def boundary_matrices(sm: SimplicialManifold) -> list[np.ndarray]:
    """Integer boundary matrices C_p -> C_{p-1}, p = 1..n."""
    out = []
    for p in range(1, sm.n + 1):
        rows = len(sm.simplices[p - 1])
        cols = len(sm.simplices[p])
        B = np.zeros((rows, cols), dtype=np.int64)
        idx = sm.simplex_index[p - 1]
        for j, s in enumerate(sm.simplices[p]):
            for i in range(p + 1):
                face = s[:i] + s[i + 1:]
                B[idx[face], j] += (-1) ** i
        out.append(B)
    return out


def coboundary_matrices(sm: SimplicialManifold) -> list[np.ndarray]:
    return [B.T.copy() for B in boundary_matrices(sm)]


def betti_numbers(sm: SimplicialManifold) -> tuple[int, ...]:
    """Exact rational Betti numbers."""
    ds = coboundary_matrices(sm)
    ranks = [rational_rank(d) for d in ds]
    out = []
    for p in range(sm.n + 1):
        rk_out = ranks[p] if p < len(ranks) else 0
        rk_in = ranks[p - 1] if p >= 1 else 0
        out.append(len(sm.simplices[p]) - rk_out - rk_in)
    return tuple(out)


def cochain_complex(sm: SimplicialManifold) -> HPComplex:
    """Integer cochain complex with the standard basis; no duality attached."""
    dims = sm.dims
    space = GradedSpace(sm.n, dims)
    ds = tuple(d.astype(complex) for d in coboundary_matrices(sm))
    return HPComplex(space, ds, None, "weak")


def fundamental_cycle(sm: SimplicialManifold) -> np.ndarray:
    """Signed facet sum over the canonical top-simplex order; boundary is
    verified to vanish in exact integer arithmetic."""
    z = np.zeros(len(sm.simplices[sm.n]), dtype=np.int64)
    order = sm.simplex_index[sm.n]
    for f, eps in zip(sm.facets, sm.orientations):
        z[order[f]] += eps
    if sm.n > 0:
        bz = boundary_matrices(sm)[-1] @ z
        if np.any(bz != 0):
            raise StructuralError("fundamental cycle has nonzero boundary "
                                  "(orientation data is inconsistent)")
    return z


def duality_phase(p: int, n: int) -> complex:
    """i^(p(p-1) + floor(n/2)), the degree-p normalization of the duality."""
    return 1j ** ((p * (p - 1) + n // 2) % 4)


def _cap_operator(sm: SimplicialManifold) -> np.ndarray:
    """Front-face/back-face cap with the fundamental cycle, degree p -> n-p,
    chains identified with cochains through the standard basis."""
    dims = sm.dims
    off = np.cumsum([0, *dims])
    total = off[-1]
    T = np.zeros((total, total), dtype=complex)
    n = sm.n
    for f, eps in zip(sm.facets, sm.orientations):
        for p in range(n + 1):
            front = f[:p + 1]
            back = f[p:]
            r = off[n - p] + sm.simplex_index[n - p][back]
            c = off[p] + sm.simplex_index[p][front]
            T[r, c] += eps
    return T


def symmetrized_duality(skeleton: HPComplex, T: np.ndarray, tol: Tolerances,
                        harmonic: bool = False) -> tuple[np.ndarray, str]:
    """Duality (T + T*)/2 for the differential of skeleton, and its name.

    Should D+-S fail invertibility (or with harmonic=True), S is compressed
    onto the harmonic subspace ker(D^2), where the cap action is the homology
    pairing, and extended by zero.  Raises DualityDegenerateError when that
    fails too: the cap operator does not induce a homology isomorphism.
    """
    S = (T + skeleton.adjoint(T)) / 2.0
    if not harmonic:
        D = skeleton.D
        cert_p = spectral.invertibility_certificate(skeleton.to_orthonormal(D + S), tol.inv)
        cert_m = spectral.invertibility_certificate(skeleton.to_orthonormal(D - S), tol.inv)
        if cert_p.passed and cert_m.passed:
            return S, "symmetrized-cap"
    d_on = skeleton.D_on
    es = spectral.eig_hermitian(d_on @ d_on, tol.sym)
    scale = max(1.0, float(np.abs(es.eigenvalues).max()) if es.eigenvalues.size else 1.0)
    kernel = es.vectors[:, np.abs(es.eigenvalues) <= tol.inv * scale]
    proj = kernel @ kernel.conj().T
    s_on = proj @ skeleton.to_orthonormal(S) @ proj
    s_on = (s_on + s_on.conj().T) / 2.0
    cert_p = spectral.invertibility_certificate(d_on + s_on, tol.inv)
    cert_m = spectral.invertibility_certificate(d_on - s_on, tol.inv)
    if not (cert_p.passed and cert_m.passed):
        raise DualityDegenerateError(
            "duality degenerate: cap product does not induce a homology "
            "isomorphism (symmetrized and harmonic constructions both fail; "
            f"min singulars {cert_p.min_singular:.3e}, {cert_m.min_singular:.3e})")
    sp = skeleton.space
    S = sp.g_half_inv @ s_on @ sp.g_half if sp.has_weights else s_on
    return S, "harmonic-fallback"


def cap_duality(sm: SimplicialManifold, tol: Tolerances = DEFAULT_TOL,
                construction: str = "auto") -> HPComplex:
    """Cochain complex with the symmetrized, phase-normalized cap duality.

    construction: "auto" tries the symmetrized cap and, should D+-S fail
    invertibility, falls back to the duality compressed onto the harmonic
    subspace (where the cap action is the homology pairing) extended by zero;
    "harmonic" forces the compressed construction.  meta["duality"] records
    which construction produced S.  Either way the result must be Poincaré,
    otherwise the duality is degenerate and the input was not a closed
    oriented manifold.
    """
    if construction not in ("auto", "harmonic"):
        raise DomainError(f"unknown duality construction {construction!r}")
    c = cochain_complex(sm)
    dims = sm.dims
    off = np.cumsum([0, *dims])
    T = _cap_operator(sm)
    for p in range(sm.n + 1):
        T[:, off[p]:off[p + 1]] *= duality_phase(p, sm.n)
    S, used = symmetrized_duality(c, T, tol, harmonic=construction == "harmonic")
    D = c.D

    # the point and other rigid cases can land on the strict tier
    eye = np.eye(c.total_dim)
    strict = (spectral.operator_norm(S @ S - eye) <= tol.sym * max(1.0, spectral.operator_norm(S) ** 2)
              and spectral.operator_norm(S @ D + D @ S)
              <= tol.sym * max(1.0, spectral.operator_norm(S) * max(1.0, spectral.operator_norm(D))))
    tier = "strict" if strict else "weak"
    return HPComplex(c.space, c.d, S, tier, {"duality": used})


# ---------------------------------------------------------------------------
# intersection-form oracle (exact arithmetic throughout)


@dataclass(frozen=True, eq=False)
class IntersectionForm:
    """Middle-degree cup pairing against the fundamental cycle."""

    middle_degree: int
    basis: tuple[tuple[Fraction, ...], ...]     # cocycle representatives
    pairing: tuple[tuple[Fraction, ...], ...]
    rank: int
    signature: int
    symmetric: bool

    def to_dict(self) -> dict:
        return {
            "middle_degree": self.middle_degree,
            "rank": self.rank,
            "signature": self.signature,
            "symmetric": self.symmetric,
            "pairing": [[str(x) for x in row] for row in self.pairing],
        }


def _cohomology_basis(sm: SimplicialManifold, p: int) -> list[list[Fraction]]:
    """Rational cocycle representatives of H^p in the standard cochain basis."""
    ds = coboundary_matrices(sm)
    d_out = ds[p] if p < len(ds) else np.zeros((0, len(sm.simplices[p])), dtype=np.int64)
    kernel = rational_nullspace(d_out)
    if p == 0:
        image_cols: list[list[Fraction]] = []
    else:
        d_in = ds[p - 1]
        cols = [[Fraction(int(d_in[i, j])) for i in range(d_in.shape[0])]
                for j in range(d_in.shape[1])]
        if d_in.size:
            # pivot columns of d_in form a basis of its image
            _, pivots = rref([[Fraction(int(d_in[i, j])) for j in range(d_in.shape[1])]
                              for i in range(d_in.shape[0])])
            image_cols = [cols[j] for j in pivots]
        else:
            image_cols = []
    # select kernel vectors independent from the image: RREF of [image | kernel]
    dim = len(sm.simplices[p])
    stacked = []
    for i in range(dim):
        row = [v[i] for v in image_cols] + [v[i] for v in kernel]
        stacked.append(row)
    if not stacked or not stacked[0]:
        return []
    _, pivots = rref(stacked)
    reps = [kernel[j - len(image_cols)] for j in pivots if j >= len(image_cols)]
    return reps


def intersection_form_oracle(sm: SimplicialManifold,
                             tol: Tolerances = DEFAULT_TOL) -> IntersectionForm:
    """Cup-product pairing on middle cohomology, evaluated on the fundamental
    cycle, with exact non-degeneracy and signature computations."""
    if sm.n % 2 != 0:
        raise DomainError("intersection form needs an even-dimensional manifold")
    p = sm.n // 2
    reps = _cohomology_basis(sm, p)
    k = len(reps)
    z = fundamental_cycle(sm)
    order = sm.simplex_index
    pairing = [[Fraction(0)] * k for _ in range(k)]
    for f, eps in zip(sm.facets, sm.orientations):
        front = order[p][f[:p + 1]]
        back = order[p][f[p:]]
        for i in range(k):
            fi = reps[i][front]
            if fi == 0:
                continue
            for j in range(k):
                bj = reps[j][back]
                if bj != 0:
                    pairing[i][j] += eps * fi * bj
    symmetric = all(pairing[i][j] == pairing[j][i] for i in range(k) for j in range(k))
    antisymmetric = all(pairing[i][j] == -pairing[j][i] for i in range(k) for j in range(k))
    rank = len(rref([list(r) for r in pairing])[1]) if k else 0
    if rank != k:
        raise StructuralError(
            f"intersection pairing is degenerate (rank {rank} < {k}); the homology "
            "computation or the input manifold is broken")
    if sm.n % 4 == 0:
        if not symmetric:
            raise StructuralError("middle pairing must be symmetric in dimensions 4k")
        pos, neg, zero = symmetric_signature(pairing)
        signature = pos - neg
    else:
        if not antisymmetric:
            raise StructuralError("middle pairing must be antisymmetric in dimensions 4k+2")
        signature = 0
    return IntersectionForm(p, tuple(tuple(v) for v in reps),
                            tuple(tuple(r) for r in pairing), rank, signature,
                            symmetric)


# ---------------------------------------------------------------------------
# harmonic reduction


def harmonic_reduction(c: HPComplex, tol: Tolerances = DEFAULT_TOL
                       ) -> tuple[HPComplex, HomotopyEquivalence]:
    """Compress a complex onto ker(D^2) with zero differential.

    Returns the minimal model together with the homotopy equivalence
    (projection f, inclusion g, chain homotopy through the inverse of D^2 on
    its range).  Signature and Betti data are preserved.
    """
    sp = c.space
    D_on = c.D_on
    delta = D_on @ D_on
    scale = max(1.0, spectral.operator_norm(delta))
    thr = tol.inv * scale

    cols = []
    dims_min = []
    for p in range(sp.n + 1):
        sl = sp.degree_slice(p)
        block = delta[sl, sl]
        if block.size == 0:
            dims_min.append(0)
            continue
        es = spectral.eig_hermitian(block, tol.sym)
        kernel = es.vectors[:, np.abs(es.eigenvalues) <= thr]
        dims_min.append(kernel.shape[1])
        lift = np.zeros((sp.total_dim, kernel.shape[1]), dtype=complex)
        lift[sl, :] = kernel
        cols.append(lift)
    u = np.hstack([x for x in cols if x.size]) if cols else np.zeros((sp.total_dim, 0))

    g = sp.g_half_inv @ u if sp.has_weights else u          # min -> full
    f = u.conj().T @ sp.g_half if sp.has_weights else u.conj().T

    es = spectral.eig_hermitian(delta, tol.sym)
    inv = np.where(np.abs(es.eigenvalues) > thr, 1.0, 0.0) / np.where(
        np.abs(es.eigenvalues) > thr, es.eigenvalues, 1.0)
    green_on = (es.vectors * inv) @ es.vectors.conj().T
    d_on = c.to_orthonormal(c.d_total)
    hprime_on = d_on.conj().T @ green_on
    if sp.has_weights:
        hprime = sp.g_half_inv @ hprime_on @ sp.g_half
    else:
        hprime = hprime_on

    space_min = GradedSpace(sp.n, tuple(dims_min))
    d_min = tuple(np.zeros((dims_min[p + 1], dims_min[p]), dtype=complex)
                  for p in range(sp.n))
    S_min = None
    tier = "weak"
    if c.S is not None:
        S_min = f @ np.asarray(c.S) @ g
        eye = np.eye(space_min.total_dim)
        strict = spectral.operator_norm(S_min @ S_min - eye) <= tol.sym * max(
            1.0, spectral.operator_norm(S_min) ** 2)
        tier = "strict" if strict else "weak"
    minimal = HPComplex(space_min, d_min, S_min, tier, {"duality": "harmonic-compression"})
    he = HomotopyEquivalence(
        source=c, target=minimal, f=f, g=g,
        h=np.zeros((space_min.total_dim, space_min.total_dim), dtype=complex),
        h_prime=hprime)
    return minimal, he
