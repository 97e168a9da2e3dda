"""Index representatives of the duality pairing: even-dimensional signatures
from positive spectral projections, odd-dimensional invertible
representatives, and the sampled rescaled-metric localization path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .hpc_core import (DEFAULT_TOL, DomainError, DualityDegenerateError,
                       HPComplex, StructuralError, Tolerances, validate)
from .spectral import (HermitianEigensystem, InvertibilityCertificate,
                       NoSpectralGapError)


def _require_valid(c: HPComplex, tol: Tolerances) -> None:
    report = validate(c, tol)
    if not report.poincare:
        raise DualityDegenerateError(
            f"duality degenerate: min singular values "
            f"{report.cert_plus.min_singular:.3e}, {report.cert_minus.min_singular:.3e}")
    if not report.passed:
        bad = [ch.name for ch in report.checks if not ch.passed]
        raise StructuralError(f"complex fails axiom checks: {bad}")


def _eigensystems(c: HPComplex, tol: Tolerances, t: float = 1.0
                  ) -> tuple[HermitianEigensystem, HermitianEigensystem]:
    """One gap-checked eigensystem each of B+-(t) = t^(-1/2) D +- S (at t = 1
    the factor is exactly 1.0, so these are bitwise D +- S)."""
    d_on = t ** -0.5 * c.D_on
    try:
        return (spectral.eig_hermitian(d_on + c.S_on, tol.sym).require_gap(tol.inv, "D+S"),
                spectral.eig_hermitian(d_on - c.S_on, tol.sym).require_gap(tol.inv, "D-S"))
    except NoSpectralGapError as exc:
        raise DualityDegenerateError(str(exc)) from exc


def signature_even(c: HPComplex, tol: Tolerances = DEFAULT_TOL) -> int:
    """rank P+(D+S) - rank P+(D-S) for an even-dimensional complex."""
    if c.n % 2 != 0:
        raise DomainError(f"signature_even needs even top degree, got {c.n}")
    _require_valid(c, tol)
    ep, em = _eigensystems(c, tol)
    return ep.positive_rank() - em.positive_rank()


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


def _odd_sample(c: HPComplex, tol: Tolerances, t: float = 1.0
                ) -> tuple[np.ndarray, InvertibilityCertificate]:
    """u = B+(t) B-(t)^{-1} on the even part and its certificate.  Of the
    axioms only the invertibility of B+-(t) depends on t; the gaps certify it."""
    d_on = t ** -0.5 * c.D_on
    bp, bm = d_on + c.S_on, d_on - c.S_on
    try:
        spectral.require_gap(np.linalg.eigvalsh(bp), tol.inv, "D+S")
        spectral.require_gap(np.linalg.eigvalsh(bm), tol.inv, "D-S")
    except NoSpectralGapError as exc:
        raise DualityDegenerateError(str(exc)) from exc
    ev = c.even_indices
    u = (bp @ np.linalg.inv(bm))[np.ix_(ev, ev)]
    cert = spectral.invertibility_certificate(u, tol.inv)
    if not cert.passed:
        raise DualityDegenerateError(
            f"odd representative not invertible (min singular {cert.min_singular:.3e})")
    return u, cert


def _odd_representative(c: HPComplex, tol: Tolerances) -> OddIndexRepresentative:
    """The odd representative of a complex the caller has validated."""
    u, cert = _odd_sample(c, tol)
    ev = c.even_indices
    resid = None
    if c.tier == "strict":
        a = (1j * c.D_on @ c.S_on)[np.ix_(ev, ev)]
        resid = spectral.operator_norm(a - a.conj().T)
    return OddIndexRepresentative(u, cert, resid, int(ev.size))


def odd_index_representative(c: HPComplex, tol: Tolerances = DEFAULT_TOL
                             ) -> OddIndexRepresentative:
    """Invertible representative on the even-degree part for odd top degree."""
    if c.n % 2 != 1:
        raise DomainError(f"odd representative needs odd top degree, got {c.n}")
    _require_valid(c, tol)
    return _odd_representative(c, tol)


@dataclass(frozen=True, eq=False)
class LocalizationSchedule:
    """Sampled rescaled-metric path of index representatives.

    Rescaling G_p by t^(n/2 - p) leaves S fixed in orthonormal coordinates
    and scales D by t^(-1/2), so sample t recomputes the parity representative
    from B+-(t) = t^(-1/2) D +- S; signatures (even) or invertibility
    certificates (odd) must be constant/pass across the whole schedule.
    """

    kind: str                       # "even" | "odd"
    times: tuple[float, ...]
    signatures: tuple[int, ...] | None
    ranks: tuple[tuple[int, int], ...] | None
    min_singulars: tuple[float, ...]
    step_norms: tuple[float, ...]   # ||R_{k+1} - R_k||
    lipschitz: float                # max step norm / step width
    constant: bool
    passed: bool
    # even: the complex, tolerances and eigenvalues of B+- at t = 1
    _unit: tuple | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "times": list(self.times),
            "factors": list(self.times),   # scale factor t at time t
            "signatures": list(self.signatures) if self.signatures is not None else None,
            "ranks": [list(r) for r in self.ranks] if self.ranks is not None else None,
            "min_singulars": list(self.min_singulars),
            "step_norms": list(self.step_norms),
            "lipschitz": self.lipschitz,
            "constant": self.constant,
            "passed": self.passed,
        }


def localized_signature_path(c: HPComplex, t_max: float = 10.0, samples: int = 10,
                             tol: Tolerances = DEFAULT_TOL) -> LocalizationSchedule:
    """Sample the index representative along inner-product rescalings t in [1, t_max]."""
    if t_max < 1.0 or samples < 1:
        raise DomainError("need t_max >= 1 and at least one sample")
    _require_valid(c, tol)
    times = np.linspace(1.0, t_max, samples).tolist()
    even = c.n % 2 == 0
    ranks: list[tuple[int, int]] = []
    min_sv: list[float] = []
    reps: list[np.ndarray] = []
    unit = None
    for t in times:
        try:
            if even:
                ep, em = _eigensystems(c, tol, t)
                if unit is None:         # times[0] = 1: bitwise D +- S
                    unit = (c, tol, ep.eigenvalues, em.eigenvalues)
                ranks.append((ep.positive_rank(), em.positive_rank()))
                reps.append(ep.positive_projection() - em.positive_projection())
                min_sv.append(min(float(np.abs(es.eigenvalues).min()) for es in (ep, em)))
            else:
                u, cert = _odd_sample(c, tol, t)
                reps.append(u)
                min_sv.append(cert.min_singular)
        except (DualityDegenerateError, NoSpectralGapError) as exc:
            raise DualityDegenerateError(
                f"localization sample t={t:.6g} failed: {exc}") from exc
    sigs = [rp - rm for rp, rm in ranks]
    steps = [float(spectral.operator_norm(b - a)) for a, b in zip(reps, reps[1:])]
    width = times[1] - times[0] if samples > 1 else 1.0
    lipschitz = max(steps) / width if steps else 0.0
    constant = len(set(sigs)) <= 1
    passed = constant and all(sv > 0 for sv in min_sv)
    return LocalizationSchedule(
        "even" if even else "odd", tuple(times),
        tuple(sigs) if even else None,
        tuple(ranks) if even else None,
        tuple(min_sv), tuple(steps), lipschitz, constant, passed, unit)


def signature_report(c: HPComplex, tol: Tolerances = DEFAULT_TOL,
                     schedule: LocalizationSchedule | None = None) -> dict:
    """Machine-readable signature data for one complex the caller has
    validated (``cmd_sgn`` does, through the localization schedule).  An
    even schedule of c under tol lends its t = 1 eigenvalues of D +- S."""
    if c.n % 2 == 0:
        unit = schedule._unit if schedule is not None else None
        if unit is not None and unit[0] is c and unit[1] == tol:
            vals = unit[2:]
        else:
            vals = [es.eigenvalues for es in _eigensystems(c, tol)]
        rp, rm = (int((v > 0).sum()) for v in vals)
        doc = {
            "kind": "even",
            "signature": rp - rm,
            "ranks": [rp, rm],
            "minSingular": [float(np.abs(v).min()) for v in vals],
        }
    else:
        rep = _odd_representative(c, tol)
        doc = {
            "kind": "odd",
            "signature": 0,
            "ranks": None,
            "minSingular": [rep.certificate.min_singular],
            "evenPartDim": rep.even_dim,
            "selfAdjointResidual": rep.selfadjoint_residual,
        }
    if schedule is not None:
        doc["schedule"] = schedule.to_dict()
    return doc
