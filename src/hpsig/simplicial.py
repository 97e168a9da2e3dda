"""Oriented closed triangulations and the machinery derived from them:
cochain complexes, fundamental cycles, cap-product dualities, the exact
cup-product intersection-form oracle, and harmonic reduction.

Homology-level decisions (ranks, signatures of pairings) are made in exact
rational arithmetic; floating point only enters through the spectral side,
which the oracle is there to check.  Coboundaries are kept as sparse integer
rows {column: nonzero int} and brought to row echelon form fraction-free, on
Python ints: a rank is the number of leading columns, and only the middle
degree, whose kernel the oracle reads, is back-substituted to reduced form.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from hashlib import sha256
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import spectral
from .hpc_core import (DEFAULT_TOL, DomainError, DualityDegenerateError,
                       GradedSpace, HPComplex, StructuralError, Tolerances)
from .rho import HomotopyEquivalence


# ---------------------------------------------------------------------------
# exact rational linear algebra


def _echelon(rows: Iterable[dict[int, int]]
             ) -> tuple[dict[int, dict[int, int]], list[int]]:
    """Fraction-free row echelon form of sparse integer rows {column: nonzero
    int}.  Each row, in order, is reduced by its leading column against the
    rows kept so far (see _eliminate) until it vanishes or leads in a column
    no kept row leads in; then it is kept.  Returns the kept rows by leading
    column and the positions of the kept rows among the input.  The leading
    columns are the pivot columns of the reduced row echelon form, and a row
    is kept iff it is independent of the rows before it.  Kept rows are
    primitive when the input rows are."""
    echelon: dict[int, dict[int, int]] = {}
    kept = []
    for pos, row in enumerate(rows):
        while row:
            lead = min(row)
            pivot_row = echelon.get(lead)
            if pivot_row is None:
                echelon[lead] = row
                kept.append(pos)
                break
            row = _eliminate(row, pivot_row, lead)
    return echelon, kept


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], c: int) -> dict[int, int]:
    """row <- (a/g)*row - (b/g)*pivot_row, a = pivot_row[c], b = row[c],
    g = gcd(a, b), which clears column c, divided by its content; a new
    dict, so rows may be shared between echelons."""
    a, b = pivot_row[c], row[c]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = row.copy() if a == 1 else {j: a * x for j, x in row.items()}
    for j, x in pivot_row.items():
        y = out.get(j, 0) - b * x
        if y:
            out[j] = y
        else:
            del out[j]
    return _primitive(out)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by its content (the gcd of its entries)."""
    g = math.gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _back_substitute(echelon: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The reduced row echelon form of an echelon from _echelon, by leading
    column: from the last leading column back, each row is cleared in the
    leading columns of the rows after it, fraction-free as in _echelon.
    Reduced row r is the integer row divided by its entry in column r."""
    reduced: dict[int, dict[int, int]] = {}
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        # the rows after this one are zero in each other's leading columns,
        # so clearing one of those columns fills in none of the others
        for c in [c for c in row if c != lead and c in reduced]:
            row = _eliminate(row, reduced[c], c)
        reduced[lead] = row
    return reduced


def _integer_row(row: Sequence) -> dict[int, int]:
    """A row of ints or Fractions scaled to a primitive sparse integer row."""
    scale = math.lcm(*(x.denominator for x in row))
    return _primitive({j: x.numerator * (scale // x.denominator)
                       for j, x in enumerate(row) if x})


def _integer_nullspace(reduced: dict[int, dict[int, int]], ncols: int
                       ) -> list[tuple[list[int], int]]:
    """Kernel basis, read off the reduced rows of a matrix with ncols columns
    (_back_substitute of its echelon), as (integer vector, scale) pairs, one
    per free column in ascending order; vector / scale is the rational basis
    vector."""
    in_free: defaultdict = defaultdict(list)
    for pc, row in reduced.items():
        for fc, x in row.items():
            if fc != pc:
                in_free[fc].append((pc, row[pc], x))
    basis = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        scale = math.lcm(*(a for _, a, _ in in_free[fc]))
        v = [0] * ncols
        v[fc] = scale
        for pc, a, x in in_free[fc]:
            v[pc] = -x * (scale // a)
        basis.append((v, scale))
    return basis


def _to_fractions(v: list[int], scale: int) -> list[Fraction]:
    zero = Fraction(0)
    return [Fraction(x, scale) if x else zero for x in v]


def symmetric_signature(q: list[list[Fraction]]) -> tuple[int, int, int]:
    """(positives, negatives, zeros) of a symmetric rational matrix by exact
    congruence diagonalization: split off a nonzero diagonal pivot through
    its Schur complement until none is left."""
    m = [list(r) for r in q]
    pos = neg = 0
    while m:
        i = next((i for i, row in enumerate(m) if row[i] != 0), None)
        if i is None:
            hit = next(((i, j) for i, row in enumerate(m)
                        for j, x in enumerate(row) if x != 0), None)
            if hit is None:
                break
            i, j = hit
            # row/col i += row/col j makes the (i,i) entry 2*m[i][j] != 0
            m[i] = [a + b for a, b in zip(m[i], m[j])]
            for row in m:
                row[i] = row[i] + row[j]
            continue
        piv, top = m[i][i], m[i]
        pos, neg = (pos + 1, neg) if piv > 0 else (pos, neg + 1)
        m = [[x - row[i] * y / piv for c, (x, y) in enumerate(zip(row, top)) if c != i]
             for r, row in enumerate(m) if r != i]
    return pos, neg, len(q) - pos - neg


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

    @cached_property
    def coboundary_rows(self) -> tuple[list[dict[int, int]], ...]:
        """The rows of each integer coboundary d_p: C^p -> C^{p+1}, p = 0..n-1,
        sparse, one per (p+1)-simplex: its p + 2 faces with signs +-1."""
        out = []
        for p in range(self.n):
            idx = self.simplex_index[p]
            out.append([{idx[s[:i] + s[i + 1:]]: -1 if i % 2 else 1 for i in range(p + 2)}
                        for s in self.simplices[p + 1]])
        return tuple(out)

    @cached_property
    def boundaries(self) -> tuple[np.ndarray, ...]:
        """Read-only integer boundary matrices C_p -> C_{p-1}, p = 1..n: the
        transposed coboundaries."""
        out = []
        for p, rows in enumerate(self.coboundary_rows):
            B = np.zeros((len(self.simplices[p]), len(rows)), dtype=np.int64)
            for j, row in enumerate(rows):
                B[list(row), j] = list(row.values())
            B.flags.writeable = False
            out.append(B)
        return tuple(out)

    @cached_property
    def coboundary_echelons(self) -> tuple[dict[int, dict[int, int]], ...]:
        """The echelon of each coboundary d_p, p = 0..n (d_n has no rows), by
        leading column; the Betti numbers and the cohomology basis share
        them."""
        return tuple(_echelon(rows)[0] for rows in self.coboundary_rows) + ({},)

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
    incident = _face_incidence(sm.facets, n)
    # oriented: induced orientations on each shared face cancel
    for f in sm.facets:
        for i in range(n + 1):
            face = f[:i] + f[i + 1:]
            if sum(sm.orientations[k] * sign for k, sign in incident[face]):
                raise StructuralError(f"orientations do not cancel on face {face}")
    return sm


def _face_incidence(facets: Sequence[tuple[int, ...]], n: int
                    ) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Each (n-1)-face -> [(facet position, sign of the face in the facet's
    boundary)]; raises StructuralError unless every face lies in two facets."""
    incident: defaultdict = defaultdict(list)
    for k, f in enumerate(facets):
        for i in reversed(range(n + 1)):
            incident[f[:i] + f[i + 1:]].append((k, -1 if i % 2 else 1))
    for face, inc in incident.items():
        if len(inc) != 2:
            raise StructuralError(f"not a closed pseudomanifold: face {face} lies in "
                                  f"{len(inc)} facets (expected 2)")
    return incident


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
    """Orientation signs making the facet sum a cycle (connected orientable
    input), by breadth-first search across shared (n-1)-faces; the last facet
    in sorted order gets +1."""
    facets = [tuple(sorted(f)) for f in facets]
    if n == 0:
        return [1] * len(facets)
    incident = _face_incidence(facets, n)
    root = max(range(len(facets)), key=facets.__getitem__)
    signs = [0] * len(facets)
    signs[root] = 1
    queue = deque([root])
    while queue:
        k = queue.popleft()
        f = facets[k]
        for i in range(n + 1):
            (a, sa), (b, sb) = incident[f[:i] + f[i + 1:]]
            other, want = a + b - k, -signs[k] * sa * sb
            if signs[other] == 0:
                signs[other] = want
                queue.append(other)
            elif signs[other] != want:
                raise StructuralError("triangulation is not orientable")
    if 0 in signs:
        raise StructuralError("facets are not connected through (n-1)-faces")
    return signs


def betti_numbers(sm: SimplicialManifold) -> tuple[int, ...]:
    """Exact rational Betti numbers."""
    ranks = [len(echelon) for echelon in sm.coboundary_echelons]
    out = []
    for p in range(sm.n + 1):
        rk_in = ranks[p - 1] if p >= 1 else 0
        out.append(len(sm.simplices[p]) - ranks[p] - rk_in)
    return tuple(out)


def cochain_complex(sm: SimplicialManifold) -> HPComplex:
    """Integer cochain complex with the standard basis, d in float64; no
    duality attached."""
    dims = sm.dims
    space = GradedSpace(sm.n, dims)
    ds = tuple(b.T.astype(float) for b in sm.boundaries)
    return HPComplex(space, ds, None, "weak")


def fundamental_cycle(sm: SimplicialManifold) -> np.ndarray:
    """Signed facet sum over the canonical top-simplex order; boundary is
    verified to vanish in exact integer arithmetic."""
    z = np.zeros(len(sm.simplices[sm.n]), dtype=np.int64)
    order = sm.simplex_index[sm.n]
    for f, eps in zip(sm.facets, sm.orientations):
        z[order[f]] += eps
    if sm.n > 0:
        bz = sm.boundaries[-1] @ z
        if np.any(bz != 0):
            raise StructuralError("fundamental cycle has nonzero boundary "
                                  "(orientation data is inconsistent)")
    return z


def duality_phase(p: int, n: int) -> complex:
    """i^(p(p-1) + floor(n/2)), the degree-p normalization of the duality."""
    return 1j ** ((p * (p - 1) + n // 2) % 4)


def _cap_operator(sm: SimplicialManifold) -> np.ndarray:
    """Front-face/back-face cap with the fundamental cycle, degree p -> n-p,
    chains identified with cochains through the standard basis; an integer
    matrix in float64."""
    dims = sm.dims
    off = np.cumsum([0, *dims])
    total = off[-1]
    T = np.zeros((total, total))
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
                        meta: Mapping[str, str], harmonic: bool = False) -> HPComplex:
    """The weak complex with skeleton's differential and the duality
    S = (T + T*)/2, whose meta is meta plus "duality", naming how S was made;
    it carries the cached spectrum of D +- S that certified it.  S is
    summed into T when their dtypes agree, so that it takes no memory beyond
    T's: T is the caller's scratch, and is overwritten.

    Should D+-S fail invertibility (or with harmonic=True), S is compressed
    onto the harmonic subspace ker(D^2), where the cap action is the homology
    pairing, and extended by zero; the kernel is the one harmonic_reduction
    reads, from the degree blocks of D^2.  Raises DualityDegenerateError when
    that fails too: the cap operator does not induce a homology isomorphism.
    """
    sp = skeleton.space
    adj = skeleton.adjoint(T)
    S = np.add(T, adj, out=T if T.dtype == adj.dtype else adj)
    del adj
    # not *= 0.5: complex multiplication signs some zeros otherwise than
    # division, and the shipped fixtures pin the bytes of S
    S /= 2.0
    if not harmonic:
        c = HPComplex(sp, skeleton.d, S, "weak", {**meta, "duality": "symmetrized-cap"})
        if all(cert.passed for cert in c.spectrum.certificates(tol.inv)):
            return c
    u, _ = _laplacian_blocks(skeleton, tol)
    proj = u @ u.conj().T
    s_on = proj @ skeleton.to_orthonormal(S) @ proj
    s_on = (s_on + s_on.conj().T) / 2.0
    c = HPComplex(sp, skeleton.d, sp.g_half_inv @ s_on @ sp.g_half if sp.has_weights else s_on,
                  "weak", {**meta, "duality": "harmonic-fallback"})
    cert_p, cert_m = c.spectrum.certificates(tol.inv)
    if not (cert_p.passed and cert_m.passed):
        raise DualityDegenerateError(
            "duality degenerate: cap product does not induce a homology "
            "isomorphism (symmetrized and harmonic constructions both fail; "
            f"min singulars {cert_p.min_singular:.3e}, {cert_m.min_singular:.3e})")
    return c


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
    # the phases are +-1 for n = 0, 1 (mod 4), applied in float64, and +-i
    # otherwise
    phases = [duality_phase(p, sm.n) for p in range(sm.n + 1)]
    if any(z.imag for z in phases):
        T = T.astype(complex)
    else:
        phases = [z.real for z in phases]
    for p, z in enumerate(phases):
        T[:, off[p]:off[p + 1]] *= z
    # the point and other rigid cases can land on the strict tier
    return symmetrized_duality(c, T, tol, {},
                               harmonic=construction == "harmonic").at_achieved_tier(tol)


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


def _cohomology_basis(sm: SimplicialManifold, p: int) -> list[list[Fraction]]:
    """Rational cocycle representatives of H^p in the standard cochain basis:
    the kernel vectors of d_p, one per free column f, each kept unless it
    depends on the image of d_{p-1} and the kernel vectors before it.

    A kernel vector is fixed by its entries in the free columns, where the
    one of f is a multiple of the unit vector at f.  So the vector of f
    depends on the image and the vectors of the free columns before f iff
    some image vector, restricted to the free columns, has f as its largest
    nonzero column after elimination: iff f leads in the echelon of the
    restricted image rows keyed by descending free column."""
    dim = len(sm.simplices[p])
    kernel = _integer_nullspace(_back_substitute(sm.coboundary_echelons[p]), dim)
    if not kernel:
        return []
    free = [j for j in range(dim) if j not in sm.coboundary_echelons[p]]
    leads: set[int] = set()
    if p:
        descending = free[::-1]
        key = {j: i for i, j in enumerate(descending)}
        # the columns of d_{p-1} at its pivot columns form a basis of its
        # image, each restricted to the free columns of d_p
        columns: defaultdict = defaultdict(dict)
        for i, row in enumerate(sm.coboundary_rows[p - 1]):
            for j, x in row.items():
                if i in key:
                    columns[j][key[i]] = x
        echelon, _ = _echelon(columns[j] for j in sorted(sm.coboundary_echelons[p - 1]))
        leads = {descending[k] for k in echelon}
    return [_to_fractions(*v) for f, v in zip(free, kernel) if f not in leads]


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
    rank = len(_echelon(map(_integer_row, pairing))[0])
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


def _laplacian_blocks(c: HPComplex, tol: Tolerances
                      ) -> tuple[np.ndarray, list[tuple[spectral.HermitianEigensystem,
                                                        np.ndarray]]]:
    """Each degree block of the Laplacian D^2 of c, in orthonormal
    coordinates, decomposed once: D^2 = dd* + d*d is block diagonal by degree
    because d^2 = 0, and block p is the row-block product D[p, :] D[:, p].
    Returns per degree the eigensystem with the mask of its kernel,
    |lambda| <= tol.inv * max(1, largest |lambda| over all blocks), and the
    harmonic basis u, those kernel vectors lifted to the total space in
    degree order.  The blocks are complex where D is real: a real eigh picks
    another basis of each kernel, and the shipped reductions pin this one."""
    sp = c.space
    d_on = c.D_on.astype(complex, copy=False)
    systems = [spectral.eig_hermitian(d_on[sl, :] @ d_on[:, sl], tol.sym)
               for sl in map(sp.degree_slice, range(sp.n + 1))]
    top = max((float(np.abs(es.eigenvalues).max()) for es in systems
               if es.eigenvalues.size), default=0.0)
    kernels = [np.abs(es.eigenvalues) <= tol.inv * max(1.0, top) for es in systems]
    lifts = []
    for p, (es, kernel) in enumerate(zip(systems, kernels)):
        lift = np.zeros((sp.total_dim, int(kernel.sum())), dtype=complex)
        lift[sp.degree_slice(p)] = es.vectors[:, kernel]
        lifts.append(lift)
    return np.hstack(lifts), list(zip(systems, kernels))


def harmonic_reduction(c: HPComplex, tol: Tolerances = DEFAULT_TOL
                       ) -> tuple[HPComplex, HomotopyEquivalence]:
    """Compress a complex onto ker(D^2) with zero differential.

    Returns the minimal model together with the homotopy equivalence
    (projection f, inclusion g, chain homotopy d* G through the Green
    operator G of D^2, its inverse on the range).  The harmonic basis and G
    both come from the eigensystems of the degree blocks of D^2, so G is
    block diagonal by degree.  Signature and Betti data are preserved.
    """
    sp = c.space
    u, blocks = _laplacian_blocks(c, tol)
    dims_min = [int(kernel.sum()) for _, kernel in blocks]

    g = sp.g_half_inv @ u if sp.has_weights else u          # min -> full
    f = u.conj().T @ sp.g_half if sp.has_weights else u.conj().T

    green_on = np.zeros((sp.total_dim, sp.total_dim), dtype=complex)
    for p, (es, kernel) in enumerate(blocks):
        inv = np.where(kernel, 0.0, 1.0) / np.where(kernel, 1.0, es.eigenvalues)
        sl = sp.degree_slice(p)
        green_on[sl, sl] = (es.vectors * inv) @ es.vectors.conj().T
    # d* G maps degree p + 1 to degree p: one block of d* times one of G,
    # in complex arithmetic as the Laplacian blocks are
    d_on = c.to_orthonormal(c.d_total).astype(complex, copy=False)
    hprime_on = np.zeros((sp.total_dim, sp.total_dim), dtype=complex)
    for p in range(sp.n):
        lo, hi = sp.degree_slice(p), sp.degree_slice(p + 1)
        hprime_on[lo, hi] = d_on[hi, lo].conj().T @ green_on[hi, hi]
    if sp.has_weights:
        hprime = sp.g_half_inv @ hprime_on @ sp.g_half
    else:
        hprime = hprime_on

    space_min = GradedSpace(sp.n, tuple(dims_min))
    d_min = tuple(np.zeros((dims_min[p + 1], dims_min[p]), dtype=complex)
                  for p in range(sp.n))
    S_min = None if c.S is None else f @ np.asarray(c.S) @ g
    minimal = HPComplex(space_min, d_min, S_min, "weak", {"duality": "harmonic-compression"})
    if S_min is not None:
        minimal = minimal.at_achieved_tier(tol)
    he = HomotopyEquivalence(
        source=c, target=minimal, f=f, g=g,
        h=np.zeros((space_min.total_dim, space_min.total_dim), dtype=complex),
        h_prime=hprime)
    return minimal, he
