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
                       DualityDegenerateError, HPComplex, StructuralError,
                       Tolerances, duality_spectrum, validate)
from .spectral import InvertibilityCertificate, NoSpectralGapError


def _require_valid(c: HPComplex, tol: Tolerances) -> None:
    report = validate(c, tol)
    if not report.poincare:
        raise DualityDegenerateError(
            f"duality degenerate: min singular values "
            f"{report.cert_plus.min_singular:.3e}, {report.cert_minus.min_singular:.3e}")
    if not report.passed:
        bad = [ch.name for ch in report.checks if not ch.passed]
        raise StructuralError(f"complex fails axiom checks: {bad}")


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
    _require_valid(c, tol)
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


def _odd_sample(c: HPComplex, tol: Tolerances, t: float = 1.0
                ) -> tuple[np.ndarray, InvertibilityCertificate]:
    """u = B+(t) B-(t)^{-1} on the even part and its certificate.  Of the
    axioms only the invertibility of B+-(t) depends on t; the gaps certify it."""
    d_on = t ** -0.5 * c.D_on
    _require_gaps(c.spectrum if t == 1.0 else duality_spectrum(d_on, c.S_on, c.S_skew), tol)
    bp, bm = d_on + c.S_on, d_on - c.S_on
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
    step_norms: tuple[float, ...]   # ||R_{k+1} - R_k||_2
    lipschitz: float                # max step norm / step width
    constant: bool
    passed: bool

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
    if not math.isfinite(t_max):
        raise DomainError(f"t_max must be finite, got {t_max}")
    if t_max < 1.0 or samples < 1:
        raise DomainError("need t_max >= 1 and at least one sample")
    _require_valid(c, tol)
    times = np.linspace(1.0, t_max, samples).tolist()
    even = c.n % 2 == 0
    ranks: list[tuple[int, int]] = []
    min_sv: list[float] = []
    reps: list[np.ndarray] = []
    for t in times:
        try:
            if even:       # gap-checked eigensystems of B+-(t)
                d_on = t ** -0.5 * c.D_on
                ep = spectral.eig_hermitian(d_on + c.S_on, tol.sym).require_gap(tol.inv, "D+S")
                em = spectral.eig_hermitian(d_on - c.S_on, tol.sym).require_gap(tol.inv, "D-S")
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
    steps = [_step_norm(b - a, even) for a, b in zip(reps, reps[1:])]
    width = times[1] - times[0] if samples > 1 else 1.0
    lipschitz = max(steps) / width if steps else 0.0
    constant = len(set(sigs)) <= 1
    passed = constant and all(sv > 0 for sv in min_sv)
    return LocalizationSchedule(
        "even" if even else "odd", tuple(times),
        tuple(sigs) if even else None,
        tuple(ranks) if even else None,
        tuple(min_sv), tuple(steps), lipschitz, constant, passed)


def _step_norm(step: np.ndarray, even: bool) -> float:
    """||step||_2; an even step is a difference of Hermitian projections, so
    its 2-norm is the max |eigenvalue| of its Hermitian part."""
    if not even:
        return spectral.operator_norm(step)
    return float(np.abs(spectral.hermitian_eigenvalues(step)).max())


def signature_report(c: HPComplex, tol: Tolerances = DEFAULT_TOL,
                     schedule: LocalizationSchedule | None = None) -> dict:
    """Machine-readable signature data for one complex the caller has
    validated (``cmd_sgn`` does, through the localization schedule)."""
    if c.n % 2 == 0:
        certs = _require_gaps(c.spectrum, tol)
        rp, rm = c.spectrum.positive_ranks()
        doc = {
            "kind": "even",
            "signature": rp - rm,
            "ranks": [rp, rm],
            "minSingular": [cert.min_singular for cert in certs],
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
