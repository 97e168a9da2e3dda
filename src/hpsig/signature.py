"""Index representatives of the duality pairing: even-dimensional signatures
from positive spectral projections, odd-dimensional invertible
representatives, and the sampled rescaled-metric localization path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .hpc_core import (DEFAULT_TOL, DomainError, DualitySpectrum,
                       DualityDegenerateError, HPComplex, Tolerances,
                       require_valid)
from .spectral import InvertibilityCertificate, NoSpectralGapError


def _require_gaps(sp: DualitySpectrum, tol: Tolerances) -> list[InvertibilityCertificate]:
    """The certificates of D + S and D - S; DualityDegenerateError unless both pass."""
    try:
        return [spectral.require_gap(v, tol.inv, what, sp.slack)
                for v, what in ((sp.plus, "D+S"), (sp.minus, "D-S"))]
    except NoSpectralGapError as exc:
        raise DualityDegenerateError(str(exc)) from exc


def signature_even(c: HPComplex, tol: Tolerances = DEFAULT_TOL) -> int:
    """rank P+(D+S) - rank P+(D-S) for an even-dimensional complex."""
    if c.n % 2 != 0:
        raise DomainError(f"signature_even needs even top degree, got {c.n}")
    require_valid(c, tol)
    rp, rm = c.spectrum.positive_ranks()
    return rp - rm


@dataclass(frozen=True, eq=False)
class OddIndexRepresentative:
    """(D+S)(D-S)^{-1} restricted to the even-degree part, with certificates."""

    u: np.ndarray
    certificate: InvertibilityCertificate
    selfadjoint_residual: float | None   # of iDS on the even part; strict tier only
    even_dim: int

    @property
    def passed(self) -> bool:
        return self.certificate.passed


@dataclass(frozen=True)
class _Point:
    """One sample of a path of operators at coordinate x: two positive ranks
    (or None), a lower bound on the smallest singular value there, and the
    threshold that bound must exceed.  On the localization schedule x is
    s = t^(-1/2) and the ranks are those of B+(s) and B-(s) (even n)."""

    x: float
    ranks: tuple[int, int] | None
    bound: float
    threshold: float


def _point(c: HPComplex, tol: Tolerances, s: float, h: np.ndarray) -> _Point:
    """The sample of B+-(s) = s D +- S, read from the gap certificates of
    its spectrum: the cached one at s = 1, otherwise the eigenvalues of the
    graded B+(s) for even n, which serve B-(s) = -eps B+(s) eps as well,
    and the SVDs of X+- for odd n.  h is the Hermitian part of S: an even
    sample writes s D into one copy of it, an odd one reads it.  As s <= 1,
    the slack of D bounds that of s D (GradedSum.spectrum_of), and each
    sample reads the slack of the cached spectrum.  The bound is the gap
    less the Weyl slack; a sample where it does not clear the threshold
    fails the interval it ends, as _interval reads it."""
    if s == 1.0:
        sp = c.spectrum
    else:
        gs = c.graded
        sp = gs.spectrum_of(h.copy() if gs.even_n else h, c.spectrum.slack, s)
    gaps = sp.certificates(tol.inv)
    ranks = tuple(sp.positive_ranks()) if c.n % 2 == 0 else None
    return _Point(s, ranks, min(g.min_singular for g in gaps),
                  max(g.threshold for g in gaps))


def _odd_representative(c: HPComplex, tol: Tolerances) -> OddIndexRepresentative:
    """u = (D+S)(D-S)^{-1} on the even part of an odd complex the caller has
    validated.  D +- S = [[0, X+-], [Y+-, 0]] by degree parity, so u = X+
    X-^{-1}.  On the strict tier the self-adjointness residual is ||A - A*||
    for A = iDS on the even part."""
    gs = c.graded
    u = spectral.right_divide(*gs.blocks(gs.operand(c.S_on)))
    cert = spectral.invertibility_certificate(u, tol.inv)
    if not cert.passed:
        raise DualityDegenerateError(
            f"odd representative not invertible (min singular {cert.min_singular:.3e})")
    residual = None
    if c.tier == "strict":
        ev = c.space.grading.even
        a = (1j * c.D_on[ev, :]) @ c.S_on[:, ev]
        residual = spectral.operator_norm(a - a.conj().T)
    return OddIndexRepresentative(u, cert, residual, int(c.space.grading.even.size))


def odd_index_representative(c: HPComplex, tol: Tolerances = DEFAULT_TOL
                             ) -> OddIndexRepresentative:
    """Invertible representative on the even-degree part for odd top degree."""
    if c.n % 2 != 1:
        raise DomainError(f"odd representative needs odd top degree, got {c.n}")
    require_valid(c, tol)
    return _odd_representative(c, tol)


# bisections of one interval before a schedule or path fails on it: the
# unit intervals of rho's grid are cut down to 1/128, finer than 0.01, and
# a schedule samples at most 127 midpoints
_BISECTIONS = 7


def _interval(a: _Point, b: _Point, lipschitz: float, sample, bisections: int
              ) -> tuple[float, float | None]:
    """The margin of the interval from a to b, and the x at which it fails,
    or None once it is certified.

    The sampled operators are lipschitz-Lipschitz in x, and so is their
    smallest singular value, which is therefore at least (a.bound + b.bound
    - lipschitz |a.x - b.x|) / 2 between the two samples.  The margin is
    that bound less the larger threshold, and the interval is certified
    when it is positive and the ranks of its ends are equal.  An end whose
    bound does not clear its threshold fails the interval there.
    Otherwise sample(x) samples the midpoint and each half is certified in
    turn, at most bisections deep, so that ends whose ranks differ are
    narrowed to the failure between them; the margin of a bisected
    interval is the least of its parts'."""
    margin = (0.5 * (a.bound + b.bound - lipschitz * abs(a.x - b.x))
              - max(a.threshold, b.threshold))
    for end in (a, b):
        if end.bound <= end.threshold:
            return margin, end.x
    if margin > 0.0 and a.ranks == b.ranks:
        return margin, None
    x = 0.5 * (a.x + b.x)
    if not bisections:
        return margin, x
    mid = sample(x)
    left = _interval(a, mid, lipschitz, sample, bisections - 1)
    if left[1] is not None:
        return left
    right = _interval(mid, b, lipschitz, sample, bisections - 1)
    return min(left[0], right[0]), right[1]


def _certify(points: list[_Point], lipschitz_of, sample, bisections: int
             ) -> tuple[list[float], float | None]:
    """Certify each interval between consecutive points by _interval, with
    lipschitz_of(a, b) its constant; return the margins and the first x at
    which an interval fails, or None."""
    margins, failures = [], []
    for a, b in zip(points, points[1:]):
        margin, failed = _interval(a, b, lipschitz_of(a, b), sample, bisections)
        margins.append(margin)
        failures.append(failed)
    return margins, next((x for x in failures if x is not None), None)


@dataclass(frozen=True, eq=False)
class LocalizationSchedule:
    """Rescaled-metric path of index representatives, certified on the
    whole of [1, t_max].

    Rescaling G_p by t^(n/2 - p) leaves S fixed in orthonormal coordinates
    and scales D by t^(-1/2), so sample t reads B+-(t) = t^(-1/2) D +- S
    through hpc_core.GradedSum.  times are the endpoints 1 and t_max, and
    each sample is the gap certificates of B+-(t): even samples take one
    eigvalsh of B+(t), since B-(t) = -eps B+(t) eps, and record its ranks;
    odd samples take the SVDs of X+-.  Between them, the Lipschitz bound of
    _interval certifies that B+-(t) stays invertible, and for even n that
    the ranks, and so the signature, stay constant, bisecting where it does
    not close; margin is that of the interval [1, t_max], midpoints lists
    the times bisection sampled, and failed_at is the first time at which
    the schedule could not be certified, an endpoint included.  So for odd
    n the class of u(t) = X+(t) X-(t)^{-1} is that of u = u(1), which only
    _odd_representative forms.
    """

    times: tuple[float, ...]
    ranks: tuple[tuple[int, int], ...] | None
    min_singulars: tuple[float, ...]  # gap of B+-(t) less the Weyl slack
    margin: float
    midpoints: tuple[float, ...]
    failed_at: float | None

    @property
    def passed(self) -> bool:
        return self.failed_at is None

    def to_dict(self) -> dict:
        return {
            "times": list(self.times),
            "ranks": [list(r) for r in self.ranks] if self.ranks is not None else None,
            "min_singulars": list(self.min_singulars),
            "margin": self.margin,
            "midpoints": list(self.midpoints),
            "failed_at": self.failed_at,
            "passed": self.passed,
        }


def localized_signature_path(c: HPComplex, t_max: float = 10.0,
                             tol: Tolerances = DEFAULT_TOL) -> LocalizationSchedule:
    """Sample the index representative along inner-product rescalings t in
    [1, t_max], starting from the endpoints, and certify the interval
    between them."""
    if not (math.isfinite(t_max) and t_max >= 1.0):
        raise DomainError(f"t_max must be finite and >= 1, got {t_max}")
    require_valid(c, tol)
    times = (1.0, float(t_max))
    h = c.graded.hermitian_part(c.S_on)
    points = [_point(c, tol, t ** -0.5, h) for t in times]
    midpoints: list[float] = []

    def sample(s: float) -> _Point:
        midpoints.append(s ** -2.0)
        return _point(c, tol, s, h)

    # B+-(s) = s D +- S is ||D||-Lipschitz in s
    (margin,), failed_s = _certify(points, lambda a, b: c.D_norm, sample, _BISECTIONS)
    failed_at = None
    if failed_s is not None:
        # a failing endpoint reports its own time, not one read back from its s
        ends = {p.x: t for p, t in zip(points, times)}
        failed_at = ends.get(failed_s, failed_s ** -2.0)
    return LocalizationSchedule(
        times, tuple(p.ranks for p in points) if c.n % 2 == 0 else None,
        tuple(p.bound for p in points), margin, tuple(sorted(midpoints)), failed_at)


def signature_report(c: HPComplex, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Machine-readable signature data for one complex the caller has
    validated (``cmd_sgn`` does, through the localization schedule).  Its
    gaps are checked under these tolerances; on an odd complex it forms the
    representative u as odd_index_representative does, which must be
    invertible."""
    certs = _require_gaps(c.spectrum, tol)
    if c.n % 2 == 0:
        rp, rm = c.spectrum.positive_ranks()
        return {
            "kind": "even",
            "signature": rp - rm,
            "ranks": [rp, rm],
            "minSingular": [cert.min_singular for cert in certs],
        }
    rep = _odd_representative(c, tol)
    return {
        "kind": "odd",
        "signature": 0,
        "ranks": None,
        "minSingular": [rep.certificate.min_singular],
        "evenPartDim": rep.even_dim,
        "selfAdjointResidual": rep.selfadjoint_residual,
    }
