"""Homotopy-equivalence data and the secondary invariants attached to it:
the six-segment duality path S_f(t) on the sum complex, invertibility
certificates along it, and the terminal segment that closes it.

The path lives on A' + A with D = D' + D and duality diag(S', -S).  It
connects diag(S', -S) at t = 0 to its negative at t = 6 through five
junctions; D +- S_f(t) must stay invertible at every t, which is certified
on whole intervals from finitely many samples.  A failure is reported with
its location t* rather than assumed away.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import spectral
from .hpc_core import (DEFAULT_TOL, DualityDegenerateError, GradedSum, Grading,
                       HPComplex, StructuralError, Tolerances, decode_matrix,
                       encode_matrix, hpcomplex_from_json, hpcomplex_to_json,
                       require_valid)
from .signature import (_BISECTIONS, LocalizationSchedule, _certify, _Point,
                        localized_signature_path)


@dataclass(frozen=True, eq=False)
class HomotopyEquivalence:
    """Chain maps f: A' -> A and g: A -> A' with chain homotopies.

    h lives on the target (1 - f g = d h + h d), h_prime on the source
    (1 - g f = d' h' + h' d').  The uniform control constant of the geometric
    picture is vacuous at finite dimension and is recorded as such by
    validate_homotopy_equivalence.
    """

    source: HPComplex
    target: HPComplex
    f: np.ndarray
    g: np.ndarray
    h: np.ndarray
    h_prime: np.ndarray

    def __post_init__(self):
        ns, nt = self.source.total_dim, self.target.total_dim
        shapes = {"f": (nt, ns), "g": (ns, nt), "h": (nt, nt), "h_prime": (ns, ns)}
        for name, want in shapes.items():
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != want:
                raise StructuralError(f"{name}: expected shape {want}, got {m.shape}")
            object.__setattr__(self, name, m)
        if self.source.n != self.target.n:
            raise StructuralError("source and target must share the top degree")

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def complexes(self) -> tuple[HPComplex, ...]:
        """The source, and the target unless it is the same object."""
        return (self.source,) if self.source is self.target else (self.source, self.target)


def identity_equivalence(c: HPComplex) -> HomotopyEquivalence:
    eye = np.eye(c.total_dim, dtype=complex)
    zero = np.zeros_like(eye)
    return HomotopyEquivalence(c, c, eye, eye.copy(), zero, zero.copy())


@dataclass(frozen=True)
class HEReport:
    """Residuals of the four chain-level identities."""

    chain_map_f: float
    chain_map_g: float
    homotopy_target: float
    homotopy_source: float
    threshold: float
    control_condition: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "chain_map_f": self.chain_map_f,
            "chain_map_g": self.chain_map_g,
            "homotopy_target": self.homotopy_target,
            "homotopy_source": self.homotopy_source,
            "threshold": self.threshold,
            "control_condition": self.control_condition,
            "passed": self.passed,
        }


def validate_homotopy_equivalence(he: HomotopyEquivalence,
                                  tol: Tolerances = DEFAULT_TOL) -> HEReport:
    # the maps are complex, so the identities are checked in complex
    # arithmetic, d converted once rather than in each product
    ds = he.source.d_total.astype(complex, copy=False)
    dt = he.target.d_total.astype(complex, copy=False)
    eye_s = np.eye(he.source.total_dim)
    eye_t = np.eye(he.target.total_dim)
    r_f = spectral.operator_norm(he.f @ ds - dt @ he.f)
    r_g = spectral.operator_norm(he.g @ dt - ds @ he.g)
    r_ht = spectral.operator_norm(eye_t - he.f @ he.g - dt @ he.h - he.h @ dt)
    r_hs = spectral.operator_norm(eye_s - he.g @ he.f - ds @ he.h_prime - he.h_prime @ ds)
    scale = max(1.0, spectral.operator_norm(he.f), spectral.operator_norm(he.g),
                spectral.operator_norm(ds), spectral.operator_norm(dt))
    thr = tol.sym * scale * scale
    passed = all(r <= thr for r in (r_f, r_g, r_ht, r_hs))
    return HEReport(r_f, r_g, r_ht, r_hs, thr,
                    "finite-dimensional: homotopy tracks bounded, constant recorded as 0",
                    passed)


# ---------------------------------------------------------------------------
# the six-branch path (orthonormal coordinates)


class _PathData:
    """Precomputed orthonormal-coordinate operators for the path."""

    def __init__(self, he: HomotopyEquivalence):
        self.he = he
        src, tgt = he.source, he.target
        self.ns = src.total_dim
        self.nt = tgt.total_dim
        self.Sp = src.S_on
        self.S = tgt.S_on
        f = np.asarray(he.f)
        if src.space.has_weights or tgt.space.has_weights:
            f = tgt.space.g_half @ f @ src.space.g_half_inv
        self.f = f
        self.fSf = f.conj().T @ self.S @ f
        self.fS = f.conj().T @ self.S        # target -> source block
        self.Sf = self.S @ f                 # source -> target block
        self.D = self.assemble(src.D_on, None, None, tgt.D_on)
        grading = Grading(np.concatenate([src.space.parity, tgt.space.parity]))
        # S_f(t) maps degree p to n - p, and every H(t) is nonzero only where
        # one of the five blocks it is assembled from is
        cover = self.assemble((self.Sp != 0) | (self.fSf != 0), self.fS != 0, self.Sf != 0,
                              self.S != 0)
        self.graded = GradedSum(grading, he.n, self.D, cover)

    def assemble(self, a11, a12, a21, a22) -> np.ndarray:
        m = np.zeros((self.ns + self.nt, self.ns + self.nt), dtype=complex)
        if a11 is not None:
            m[:self.ns, :self.ns] = a11
        if a12 is not None:
            m[:self.ns, self.ns:] = a12
        if a21 is not None:
            m[self.ns:, :self.ns] = a21
        if a22 is not None:
            m[self.ns:, self.ns:] = a22
        return m

    def branch(self, k: int, t: float) -> np.ndarray:
        """Branch k in {0..5} evaluated at path time t (valid on its segment)."""
        if k == 0:
            return self.assemble((1 - t) * self.Sp + t * self.fSf, None, None, -self.S)
        if k == 1:
            th = np.pi / 2.0 * (t - 1.0)
            c, s = np.cos(th), np.sin(th)
            return self.assemble(c * self.fSf, s * self.fS, s * self.Sf, -c * self.S)
        if k in (2, 3):
            # phase half-turn over t in [2, 4]; the printed per-segment phases
            # are glued into the unique continuous rotation
            ph = np.exp(1j * np.pi * (t - 2.0) / 2.0)
            return self.assemble(None, ph * self.fS, np.conj(ph) * self.Sf, None)
        if k == 4:
            th = np.pi / 2.0 * (5.0 - t)
            c, s = np.cos(th), np.sin(th)
            return self.assemble(-c * self.fSf, -s * self.fS, -s * self.Sf, c * self.S)
        if k == 5:
            return self.assemble(-((t - 5.0) * self.Sp + (6.0 - t) * self.fSf),
                                 None, None, self.S)
        raise ValueError(f"branch index {k} out of range")

    def value(self, t: float) -> np.ndarray:
        k = min(int(np.floor(t)), 5)
        return self.branch(k, t)

    @functools.cached_property
    def _rotation_norms(self) -> tuple[float, float]:
        """||A|| and ||B|| for A = diag(f*Sf, -S) and B = [[0, f*S], [Sf, 0]]:
        on [1, 2], S_f(t) = cos(th) A + sin(th) B with th = pi (t - 1) / 2."""
        norm = spectral.operator_norm
        return (max(norm(self.fSf), self.he.target.S_norm),
                max(norm(self.fS), norm(self.Sf)))

    def lipschitz(self) -> tuple[float, float]:
        """Bounds on ||d S_f(t) / dt||_2 over [0, 1] and over [1, 2].  Only
        the source block moves on the first; the second is at most
        pi/2 (||A|| + ||B||)."""
        return (spectral.operator_norm(self.fSf - self.Sp),
                0.5 * np.pi * sum(self._rotation_norms))

    def sup_norm(self) -> float:
        """max(||S'||, ||A|| + ||B||), a bound on ||S_f(t)||_2 over [0, 6]: on
        [0, 1], S_f(t) = diag((1 - t) S' + t f*Sf, -S) has norm at most
        max(||S'||, ||A||), on [1, 2] it is cos(th) A + sin(th) B, on [2, 4]
        a unitary conjugate of B, and (4, 6] mirrors [0, 2) up to sign."""
        return max(self.he.source.S_norm, sum(self._rotation_norms))


def _parts(pd: _PathData, t: float) -> tuple[np.ndarray, np.ndarray]:
    """S_f(t) = H + K/2 with H Hermitian and K skew: H and K."""
    sf = pd.value(t)
    k = sf - sf.conj().T
    return sf - 0.5 * k, k


def _rotation_sup(x: np.ndarray, y: np.ndarray,
                  inner=lambda x, y: np.vdot(x, y).real) -> float:
    """The largest ||cos(th) x + sin(th) y|| over all th, for the norm of the
    real inner product inner, by default Frobenius': the root of the
    largest eigenvalue of the Gram matrix of x and y."""
    a, c, b = inner(x, x), inner(y, y), inner(x, y)
    return float(np.sqrt(0.5 * (a + c) + np.hypot(0.5 * (a - c), b)))


def _skew_bounds(pd: _PathData, parts) -> tuple[float, float]:
    """Bounds over the whole path on ||K(t)||_F and on the Frobenius norm of
    the parity-violating entries of D + H(t), from parts, the (H, K) at
    t = 0, 1, 2; those entries are read in place, under the grading's mask.
    Both parts are affine in t on [0, 1], so their norms are largest at an
    end; on [1, 2] they are cos(th) X + sin(th) Y for X, Y their values at
    t = 1, 2; [2, 4] keeps the norms of t = 2 and (4, 6] mirrors [0, 2).
    Both bounds are raised by a relative 1e-12, so that they stay above the
    norms as they are rounded at any t."""
    gs = pd.graded
    (h0, k0), (h1, k1), (h2, k2) = parts
    skew = max(float(np.linalg.norm(k0)), _rotation_sup(k1, k2))
    off = gs.d_off_parity + max(math.sqrt(gs.off_parity_inner(h0, h0)),
                                _rotation_sup(h1, h2, gs.off_parity_inner))
    up = 1.0 + 1e-12
    return skew * up, off * up


class _Sample(NamedTuple):
    """One path sample of the graded parts of D +- H."""

    plus: float                # min |eigenvalue| of the graded D + H
    minus: float               # min |eigenvalue| of the graded D - H
    rank: int | None = None    # even n: positive eigenvalues of D + H
    negative: int | None = None  # even n: negative eigenvalues of D + H

    def mirrored(self) -> _Sample:
        """The sample at 6 - t read from this one at t: D +- S_f(6 - t) is
        D -+ S_f(t), and for even n the positive eigenvalues of D - H are
        the negative ones of D + H, since eps (D + H) eps = -(D - H)."""
        return _Sample(self.minus, self.plus, self.negative, self.rank)


def _sample(pd: _PathData, t: float) -> _Sample:
    """D +- H at path time t (_sample_of)."""
    return _sample_of(pd, _parts(pd, t)[0])


def _sample_of(pd: _PathData, h: np.ndarray) -> _Sample:
    """D +- H for h, the Hermitian part H of the path at some time, through
    hpc_core.GradedSum.spectrum_of, which overwrites h for even n: one
    eigvalsh of each diagonal block of the graded D + H for even n, two
    half-size SVDs for odd n.
    rho_path applies the path's slack, so none is passed here."""
    sp = pd.graded.spectrum_of(h, 0.0)
    if pd.graded.even_n:
        gap = float(np.abs(sp.plus).min())
        return _Sample(gap, gap, *sp.positive_ranks())
    return _Sample(float(sp.plus[-1]), float(sp.minus[-1]))


@dataclass(frozen=True, eq=False)
class RhoPath:
    """Duality path certified invertible on whole intervals.

    Only [0, 2] is decomposed.  On [2, 4], D + S_f(t) = U (D + S_f(2)) U*
    for U = diag(1, e^{-i pi (t - 2)/2}), which commutes with D and eps, so
    the sample at t = 2 holds on the whole interval; past 4, branch(4, t) =
    -branch(1, 6 - t) and branch(5, t) = -branch(0, 6 - t), so D +- S_f(t)
    is D -+ S_f(6 - t).  [0, 1] and [1, 2] are certified by signature's
    interval rule: S_f(t) is Lipschitz with the constants of
    _PathData.lipschitz on each, and each sample's bound is its min
    |eigenvalue| of the graded D +- H less the Weyl slack, which bounds the
    skew and parity-violating parts over the whole path.

    times are the junctions, and min_sv_plus and min_sv_minus the min
    |eigenvalue| of the graded Hermitian parts of D +- S_f(t) there: t = 3
    and 4 read t = 2, and t = 5 and 6 read t = 1 and 0 with the two
    exchanged.  margins are those of [0, 1] and [1, 2], and midpoints the
    times bisection sampled.  selfadjoint_residual bounds ||S_f(t) - S_f(t)*||_F
    over [0, 6].  passed means: every interval is certified and the path is
    self-adjoint.
    """

    times: tuple[float, ...]
    min_sv_plus: tuple[float, ...]
    min_sv_minus: tuple[float, ...]
    margins: tuple[float, ...]
    midpoints: tuple[float, ...]
    selfadjoint_residual: float
    threshold: float
    min_singular: float
    passed: bool
    failed_at: float | None
    _data: _PathData = field(repr=False)
    _slack: float = field(repr=False)

    @property
    def min_margin(self) -> float:
        return min(self.margins)

    def to_dict(self) -> dict:
        return {
            "times": list(self.times),
            "min_sv_plus": list(self.min_sv_plus),
            "min_sv_minus": list(self.min_sv_minus),
            "margins": list(self.margins),
            "min_margin": self.min_margin,
            "midpoints": list(self.midpoints),
            "selfadjoint_residual": self.selfadjoint_residual,
            "threshold": self.threshold,
            "min_singular": self.min_singular,
            "passed": self.passed,
            "failed_at": self.failed_at,
        }


# the junctions of the six branches, the path's starting grid
JUNCTIONS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def rho_path(he: HomotopyEquivalence, tol: Tolerances = DEFAULT_TOL) -> RhoPath:
    """Certify D +- S_f(t) invertible on the whole of [0, 6], starting from
    its junctions."""
    her = validate_homotopy_equivalence(he, tol)
    if not her.passed:
        raise StructuralError(f"homotopy-equivalence identities fail: {her.to_dict()}")
    for c in he.complexes:
        require_valid(c, tol)

    pd = _PathData(he)
    # D and diag(S', -S) are block diagonal: their norms are those validate read
    s_norm = max(he.source.S_norm, he.target.S_norm)
    threshold = (spectral.relative_floor(tol.inv, pd.ns + pd.nt)
                 * max(1.0, max(he.source.D_norm, he.target.D_norm) + s_norm))
    # the parts at t = 0, 1, 2 serve the bounds, then the samples, which
    # overwrite them
    parts = [_parts(pd, t) for t in JUNCTIONS[:3]]
    skew, off = _skew_bounds(pd, parts)
    slack = 0.5 * (skew + pd.graded.d_skew) + off

    head = [_sample_of(pd, h) for h, _ in parts]
    s0, s1, s2 = head
    grid = (s0, s1, s2, s2, s2, s1.mirrored(), s0.mirrored())

    def point(t: float, smp: _Sample) -> _Point:
        return _Point(t, (smp.rank, smp.negative), min(smp.plus, smp.minus) - slack,
                      threshold)

    decomposed = list(head)
    midpoints: list[float] = []

    def sample(t: float) -> _Point:
        midpoints.append(t)
        decomposed.append(_sample(pd, t))
        return point(t, decomposed[-1])

    l0, l1 = pd.lipschitz()
    margins, failed_at = _certify([point(t, smp) for t, smp in zip(JUNCTIONS, head)],
                                  lambda a, b: l0 if b.x <= 1.0 else l1,
                                  sample, _BISECTIONS)
    passed = failed_at is None and skew <= tol.sym * max(1.0, s_norm)
    return RhoPath(JUNCTIONS, tuple(s.plus for s in grid), tuple(s.minus for s in grid),
                   tuple(margins), tuple(sorted(midpoints)), skew, float(threshold),
                   min(min(s.plus, s.minus) for s in decomposed), passed, failed_at, pd,
                   slack)


# ---------------------------------------------------------------------------
# the terminal segment


@dataclass(frozen=True, eq=False)
class TerminalCheck:
    """The localization of the sum complex A' + A^op that closes a passed
    duality path.

    B+-(s) of the sum is diag(B+-(s) of A', B-+(s) of A): block diagonal,
    so its schedule is the schedules of A' and of A, each at its own size,
    with B+ and B- exchanged on A, and a single schedule when A' is A.
    Everything else the segment needs follows from the path.  For even n,
    B+ of the sum at s = 1 is the path at t = 0 and B- the path at t = 6,
    so their positive ranks are equal.  For odd n, the family u(t) = X+
    X_f(t - 1)^{-1}, t in [1, 7], X the (even rows, odd columns) block, is
    invertible wherever the path is, and sigma_min(u) >= sigma_min(X+) /
    (||D|| + sup_t ||S_f(t)||); odd_bound is that bound, with sigma_min(X+)
    read from the path's t = 0 sample less its slack, and it must clear the
    path's threshold.  failed_at is the time at which the first failing
    schedule could not be certified.
    """

    schedules: tuple[LocalizationSchedule, ...]
    odd_bound: float | None
    failed_at: float | None
    passed: bool

    @property
    def min_margin(self) -> float:
        return min(s.margin for s in self.schedules)

    def to_dict(self) -> dict:
        return {
            "min_margin": self.min_margin,
            "odd_bound": self.odd_bound,
            "failed_at": self.failed_at,
            "passed": self.passed,
        }


def terminal_check(he: HomotopyEquivalence, path: RhoPath,
                   tol: Tolerances = DEFAULT_TOL) -> TerminalCheck:
    """The terminal segment continuing path, the passed rho_path of he."""
    if path._data.he is not he:
        raise ValueError("path was computed for another homotopy equivalence")
    if not path.passed:
        raise DualityDegenerateError(
            f"duality path fails at t*={path.failed_at}: the map does not "
            "implement the duality")
    schedules = tuple(localized_signature_path(c, tol=tol) for c in he.complexes)
    odd_bound = None
    if he.n % 2:
        d_norm = max(he.source.D_norm, he.target.D_norm)
        odd_bound = (path.min_sv_plus[0] - path._slack) / (d_norm + path._data.sup_norm())
    failed_at = next((s.failed_at for s in schedules if s.failed_at is not None), None)
    passed = (all(s.passed for s in schedules)
              and (odd_bound is None or odd_bound > path.threshold))
    return TerminalCheck(schedules, odd_bound, failed_at, passed)


# ---------------------------------------------------------------------------
# JSON


def he_to_json(he: HomotopyEquivalence) -> dict:
    return {
        "source": hpcomplex_to_json(he.source),
        "target": hpcomplex_to_json(he.target),
        "f": encode_matrix(he.f),
        "g": encode_matrix(he.g),
        "h": encode_matrix(he.h),
        "h_prime": encode_matrix(he.h_prime),
    }


def he_from_json(doc) -> HomotopyEquivalence:
    try:
        source = hpcomplex_from_json(doc["source"])
        # an identity decodes to one complex, as identity_equivalence builds it
        target = (source if doc["target"] == doc["source"]
                  else hpcomplex_from_json(doc["target"]))
        f, g, h, h_prime = (doc[key] for key in ("f", "g", "h", "h_prime"))
    except KeyError as exc:
        raise StructuralError(f"malformed homotopy-equivalence document: {exc}") from exc
    nt, ns = target.total_dim, source.total_dim
    return HomotopyEquivalence(
        source, target,
        decode_matrix(f, (nt, ns)),
        decode_matrix(g, (ns, nt)),
        decode_matrix(h, (nt, nt)),
        decode_matrix(h_prime, (ns, ns)),
    )
