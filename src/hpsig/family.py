"""Fibered complexes: a simplicial base, a duality complex as fiber, and
invertible chain automorphisms gluing the fiber over base edges.

The total complex has one construction, the twisted graded tensor
product: the base coboundary transports fiber values between vertex frames
(the least vertex of each simplex anchors its fiber copy), and flatness is
exactly the cocycle condition over base triangles.  With identity
transitions it is the plain graded product, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import spectral
from .hpc_core import (DEFAULT_TOL, HPComplex, StructuralError, Tolerances, _assemble,
                       decode_matrix, encode_matrix, hpcomplex_from_json, hpcomplex_to_json)
from .products import derive_sign_rule, _tensor_space
from .signature import signature_even
from .simplicial import (SimplicialManifold, cap_duality, duality_phase,
                         harmonic_reduction, load_simplicial, symmetrized_duality)


@dataclass(frozen=True, eq=False)
class FiberedComplex:
    """Base triangulation, fiber complex, and per-edge transitions psi_ij
    (an invertible chain automorphism of the fiber mapping frame i to frame j,
    each degree to itself; missing edges default to the identity, reversed
    edges to the inverse).

    transports stacks every psi_ij, read-only, once per distinct matrix
    after the identity at index 0, with one inverse per distinct stored
    matrix; transport(i, j) is the index of psi_ij in it."""

    base: SimplicialManifold
    fiber: HPComplex
    transitions: Mapping[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        edges = set(self.base.simplices[1]) if self.base.n >= 1 else set()
        fixed = {}
        nf = self.fiber.total_dim
        degree = np.repeat(np.arange(self.fiber.n + 1), self.fiber.space.dims)
        for key, mat in self.transitions.items():
            i, j = int(key[0]), int(key[1])
            if tuple(sorted((i, j))) not in edges:
                raise StructuralError(f"transition on ({i},{j}) but no such base edge")
            m = np.asarray(mat, dtype=complex)
            if m.shape != (nf, nf):
                raise StructuralError(f"transition ({i},{j}) has shape {m.shape}, "
                                      f"expected {(nf, nf)}")
            if m[degree[:, None] != degree].any():
                raise StructuralError(f"transition ({i},{j}) mixes fiber degrees")
            fixed[(i, j)] = m
        # psi in both directions of every stored edge, one inverse per
        # distinct matrix, so equal transitions have inverses with equal bits
        inverses: dict[bytes, np.ndarray] = {}
        psi = {}
        for (i, j), m in fixed.items():
            key = m.tobytes()
            if key not in inverses:
                try:
                    inverses[key] = np.linalg.inv(m)
                except np.linalg.LinAlgError as exc:
                    raise StructuralError(f"transition ({i},{j}) is not invertible") from exc
            psi[(j, i)] = inverses[key]
        psi.update(fixed)
        # the transports stacked once per distinct matrix after the identity
        table, slot, index = [np.eye(nf, dtype=complex)], {}, {}
        index[table[0].tobytes()] = 0
        for edge, m in psi.items():
            slot[edge] = index.setdefault(m.tobytes(), len(table))
            if slot[edge] == len(table):
                table.append(m)
        table = np.stack(table)
        table.setflags(write=False)
        object.__setattr__(self, "transitions", fixed)
        object.__setattr__(self, "transports", table)
        object.__setattr__(self, "_slot", slot)

    def transport(self, i: int, j: int) -> int:
        """The index in transports of psi from frame i to frame j along the
        edge (i, j): 0, the identity, unless (i, j) or (j, i) is stored."""
        return self._slot.get((i, j), 0)

    def transition(self, i: int, j: int) -> np.ndarray:
        """psi from frame i to frame j along the edge (i, j): the stored
        transition, else the inverse of the stored reverse one, computed at
        construction, else the identity; read-only."""
        return self.transports[self.transport(i, j)]


@dataclass(frozen=True)
class FiberedReport:
    """Residuals of the gluing invariants."""

    chain_map_residual: float
    cocycle_residual: float
    duality_residual: float
    threshold: float
    duality_compatible: bool
    passed: bool

    def to_dict(self) -> dict:
        return {"chain_map_residual": self.chain_map_residual,
                "cocycle_residual": self.cocycle_residual,
                "duality_residual": self.duality_residual,
                "threshold": self.threshold,
                "duality_compatible": self.duality_compatible,
                "passed": self.passed}


def _norms(mats: list[np.ndarray]) -> list[float]:
    """The 2-norm of each of mats, all of one shape, with one SVD per
    distinct matrix (keyed by its bytes): a twisted bundle repeats few."""
    norms: dict[bytes, float] = {}
    out = []
    for m in mats:
        key = m.tobytes()
        if key not in norms:
            norms[key] = spectral.operator_norm(m)
        out.append(norms[key])
    return out


def validate_fibered(fc: FiberedComplex, tol: Tolerances = DEFAULT_TOL) -> FiberedReport:
    fiber = fc.fiber
    d = fiber.d_total
    psis = list(fc.transitions.values())
    chain = max(_norms([psi @ d - d @ psi for psi in psis]), default=0.0)
    dual = 0.0
    if fiber.S is not None:
        s = np.asarray(fiber.S)
        dual = max(_norms([fiber.adjoint(psi) @ s @ psi - s for psi in psis]), default=0.0)
    cocycle = 0.0
    if fc.base.n >= 2:
        cocycle = max(_norms([fc.transition(b, c) @ fc.transition(a, b) - fc.transition(a, c)
                              for (a, b, c) in fc.base.simplices[2]]), default=0.0)
    scale = max([1.0] + _norms(psis))
    thr = tol.sym * scale * max(1.0, scale)
    compatible = dual <= thr
    passed = chain <= thr and cocycle <= thr
    return FiberedReport(chain, cocycle, dual, thr, compatible, passed)


# ---------------------------------------------------------------------------
# total complex


def total_complex(fc: FiberedComplex, tol: Tolerances = DEFAULT_TOL) -> HPComplex:
    """Twisted graded tensor of the base cochain complex (cap duality) with
    the fiber.  Identity transitions reproduce the plain graded product."""
    _require_total(fc, validate_fibered(fc, tol))
    return _twisted_product(fc, cap_duality(fc.base, tol), tol)


def _require_total(fc: FiberedComplex, rep: FiberedReport) -> None:
    """Raise StructuralError unless fc, with the gluing report rep, has a
    total complex with a duality."""
    if fc.fiber.S is None:
        raise StructuralError("no fiberwise duality: the fiber complex carries "
                              "no duality operator")
    if not rep.passed:
        raise StructuralError(f"fibered complex invalid: {rep.to_dict()}")
    if not rep.duality_compatible:
        raise StructuralError("no fiberwise duality: transitions do not preserve "
                              "the fiber duality operator")


def _twisted_product(fc: FiberedComplex, base_c: HPComplex, tol: Tolerances) -> HPComplex:
    """The total complex of a valid fc over base_c, the cap duality of its base."""
    fiber, base = fc.fiber, fc.base
    m, n = base_c.n, fiber.n
    space, pairs, offs = _tensor_space(base_c, fiber)
    rule = derive_sign_rule(m, n)
    fsp = fiber.space
    fdim = fsp.dims

    def blocks(q: int) -> np.ndarray:
        """The degree-q diagonal blocks of every transport."""
        return fc.transports[:, fsp.degree_slice(q), fsp.degree_slice(q)]

    # twisted differential: base coboundary with anchor transport + fiber
    # part.  Face pos of a (p+1)-simplex tau enters d with (-1)^pos, in the
    # order of coboundary_rows; only face 0 has another least vertex, tau[1],
    # whose frame is transported to tau[0]'s.
    faces = []
    for p, rows in enumerate(base.coboundary_rows):
        taus = base.simplices[p + 1]
        face = np.fromiter((i for row in rows for i in row), int)
        sign = np.fromiter((x for row in rows for x in row.values()), float)
        psi = np.zeros(face.size, int)
        psi[::p + 2] = [fc.transport(tau[1], tau[0]) for tau in taus]
        faces.append((np.repeat(np.arange(len(taus)), p + 2), face, sign, psi))
    ds = []
    for k in range(m + n):
        parts = []
        for (p, q) in pairs[k]:
            nbase = len(base.simplices[p])
            if nbase == 0 or fdim[q] == 0:
                continue
            if p + 1 <= m:
                tau, sigma, sign, psi = faces[p]
                parts.append((offs[(p + 1, q)] + tau * fdim[q], offs[(p, q)] + sigma * fdim[q],
                              sign[:, None, None] * blocks(q)[psi]))
            if q + 1 <= n and fdim[q + 1]:
                i = np.arange(nbase)
                piece = ((-1.0) ** p) * fiber.d[q]
                parts.append((offs[(p, q + 1)] + i * fdim[q + 1], offs[(p, q)] + i * fdim[q],
                              piece))
        ds.append(_assemble((space.dims[k + 1], space.dims[k]), parts))

    # twisted cap duality: front/back split of each facet with anchor
    # transport, the front face (f[0..p]) in degree p and the back face
    # (f[p..m]) in degree m - p, the fiber transported from f[0] to f[p]
    eps = np.array(base.orientations)
    sfib = np.asarray(fiber.S)
    parts = []
    for p in range(m + 1):
        front, back, psi = (np.array(x) for x in zip(*(
            (base.simplex_index[p][f[:p + 1]], base.simplex_index[m - p][f[p:]],
             fc.transport(f[0], f[p])) for f in base.facets)))
        for q in range(n + 1):
            if fdim[q] == 0 or fdim[n - q] == 0:
                continue
            # psi S_fib per transport, each product formed as the
            # per-simplex assembly formed it
            sblock = sfib[fsp.degree_slice(n - q), fsp.degree_slice(q)]
            psi_s = np.stack([t @ sblock for t in blocks(n - q)])
            coeff = eps * (duality_phase(p, m) * rule.sigma(p, q))
            parts.append((space.offsets[m + n - p - q] + offs[(m - p, n - q)]
                          + back * fdim[n - q],
                          space.offsets[p + q] + offs[(p, q)] + front * fdim[q],
                          coeff[:, None, None] * psi_s[psi]))
    T = _assemble((space.total_dim, space.total_dim), parts)

    skeleton = HPComplex(space, tuple(ds), None, "weak")
    twist = "trivial" if (fc.transports == fc.transports[0]).all() else "nontrivial"
    return symmetrized_duality(skeleton, T, tol, {"twist": twist})


# ---------------------------------------------------------------------------
# monodromy


def _spanning_tree_transports(fc: FiberedComplex) -> tuple[dict[int, np.ndarray],
                                                           list[tuple[int, int]]]:
    """BFS tree transports root -> vertex and the non-tree edges (loops)."""
    if fc.base.n < 1:
        return {v[0]: np.eye(fc.fiber.total_dim, dtype=complex)
                for v in fc.base.simplices[0]}, []
    adj: dict[int, list[int]] = {}
    for (i, j) in fc.base.simplices[1]:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    root = min(adj)
    transports = {root: np.eye(fc.fiber.total_dim, dtype=complex)}
    queue = [root]
    tree_edges = set()
    while queue:
        v = queue.pop(0)
        for w in sorted(adj[v]):
            if w not in transports:
                transports[w] = fc.transition(v, w) @ transports[v]
                tree_edges.add(tuple(sorted((v, w))))
                queue.append(w)
    if len(transports) != len(adj):
        raise StructuralError("base 1-skeleton is not connected")
    loops = [e for e in fc.base.simplices[1] if e not in tree_edges]
    return transports, loops


@dataclass(frozen=True, eq=False)
class MonodromyReport:
    loops: tuple[tuple[int, int], ...]
    actions: tuple[np.ndarray, ...]    # induced maps on fiber homology (root frame)
    residuals: tuple[float, ...]       # distance to the identity
    trivial: bool

    def to_dict(self) -> dict:
        return {"loops": [list(e) for e in self.loops],
                "residuals": list(self.residuals),
                "trivial": self.trivial}


def monodromy_homology_action(fc: FiberedComplex,
                              tol: Tolerances = DEFAULT_TOL) -> MonodromyReport:
    """Induced action of each base loop generator on the fiber homology."""
    transports, loops = _spanning_tree_transports(fc)
    _, he = harmonic_reduction(fc.fiber, tol)
    proj, incl = he.f, he.g
    # one inverse per distinct transport: with identity transitions all are 1
    distinct = {transports[j].tobytes(): transports[j] for _, j in loops}
    inverses = {key: np.linalg.inv(psi) for key, psi in distinct.items()}
    actions = [proj @ (inverses[transports[j].tobytes()] @ fc.transition(i, j)
                       @ transports[i]) @ incl for (i, j) in loops]
    eye = np.eye(proj.shape[0])
    residuals = _norms([a - eye for a in actions])
    scale = max([1.0] + _norms(actions))
    trivial = all(r <= tol.sym * scale for r in residuals)
    return MonodromyReport(tuple(loops), tuple(actions), tuple(residuals), trivial)


# ---------------------------------------------------------------------------
# multiplicativity check


@dataclass(frozen=True)
class CHSReport:
    """sgn(base) * sgn(fiber) vs sgn(total).  The fiber signature needs no
    check per base vertex: a transport psi preserving the degrees and the
    duality conjugates the fiber by the unitary W = G'^(1/2) psi G^(-1/2),
    D' +- S' = W (D +- S) W*, so every frame has the signature of the fiber.
    monodromy and gluing are the action and the gluing report the check
    computed; to_dict leaves them out."""

    outcome: str        # pass | fail | hypothesis_not_met | odd_dimension
    sgn_base: int | None
    sgn_fiber: int | None
    sgn_total: int | None
    note: str = ""
    monodromy: MonodromyReport | None = field(default=None, repr=False, compare=False)
    gluing: FiberedReport | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.outcome in ("pass", "odd_dimension")

    def to_dict(self) -> dict:
        return {"outcome": self.outcome, "sgn_base": self.sgn_base,
                "sgn_fiber": self.sgn_fiber, "sgn_total": self.sgn_total,
                "note": self.note}


def chs_check(fc: FiberedComplex, tol: Tolerances = DEFAULT_TOL) -> CHSReport:
    """Verify multiplicativity of the signature over a fibered complex."""
    gluing = validate_fibered(fc, tol)
    mono = monodromy_homology_action(fc, tol)
    if not mono.trivial:
        return CHSReport("hypothesis_not_met", None, None, None,
                         "monodromy acts nontrivially on fiber homology", mono, gluing)
    m, n = fc.base.n, fc.fiber.n
    if m % 2 == 1 or n % 2 == 1:
        return CHSReport("odd_dimension", 0, 0, 0,
                         "odd base or fiber dimension: both sides vanish by convention",
                         mono, gluing)
    base_c = cap_duality(fc.base, tol)
    sgn_base = signature_even(base_c, tol)
    sgn_fiber = signature_even(fc.fiber, tol)
    _require_total(fc, gluing)
    # the total carries the spectrum that certified D +- S invertible
    sgn_total = signature_even(_twisted_product(fc, base_c, tol), tol)
    ok = sgn_total == sgn_base * sgn_fiber
    return CHSReport("pass" if ok else "fail", sgn_base, sgn_fiber, sgn_total, "",
                     mono, gluing)


# ---------------------------------------------------------------------------
# JSON


def fibered_to_json(fc: FiberedComplex) -> dict:
    return {
        "base": fc.base.canonical_document(),
        "fiber": hpcomplex_to_json(fc.fiber),
        "transitions": {f"{i},{j}": encode_matrix(m)
                        for (i, j), m in sorted(fc.transitions.items())},
    }


def fibered_from_json(doc: Mapping) -> FiberedComplex:
    try:
        base = load_simplicial(doc["base"])
        fiber = hpcomplex_from_json(doc["fiber"])
    except KeyError as exc:
        raise StructuralError(f"malformed fibered document: {exc}") from exc
    docs = doc.get("transitions", {})
    if not isinstance(docs, dict):
        raise StructuralError("malformed fibered document: transitions must be an object")
    transitions = {}
    nf = fiber.total_dim
    for key, mat in docs.items():
        try:
            i, j = (int(x) for x in key.split(","))
        except ValueError as exc:
            raise StructuralError(f"malformed transition key {key!r}: expected 'i,j'"
                                  ) from exc
        transitions[(i, j)] = decode_matrix(mat, (nf, nf))
    return FiberedComplex(base, fiber, transitions)
