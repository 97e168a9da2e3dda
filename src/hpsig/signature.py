"""Index representatives of the duality pairing: even-dimensional signatures
from positive spectral projections, odd-dimensional invertible
representatives, and the sampled rescaled-metric localization path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .hpc_core import (DEFAULT_TOL, DomainError, DualityDegenerateError,
                       HPComplex, StructuralError, Tolerances,
                       rescale_inner_products, validate)
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


def _eigensystems(c: HPComplex, tol: Tolerances
                  ) -> tuple[HermitianEigensystem, HermitianEigensystem]:
    """One gap-checked eigensystem each of D+S and D-S."""
    try:
        return (spectral.eig_hermitian(c.b_plus_on(), tol.sym).require_gap(tol.inv, "D+S"),
                spectral.eig_hermitian(c.b_minus_on(), tol.sym).require_gap(tol.inv, "D-S"))
    except NoSpectralGapError as exc:
        raise DualityDegenerateError(str(exc)) from exc


def _ranks(c: HPComplex, tol: Tolerances) -> tuple[int, int]:
    ep, em = _eigensystems(c, tol)
    return ep.positive_rank(), em.positive_rank()


def signature_even(c: HPComplex, tol: Tolerances = DEFAULT_TOL) -> int:
    """rank P+(D+S) - rank P+(D-S) for an even-dimensional complex."""
    if c.n % 2 != 0:
        raise DomainError(f"signature_even needs even top degree, got {c.n}")
    _require_valid(c, tol)
    rp, rm = _ranks(c, tol)
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


def odd_index_representative(c: HPComplex, tol: Tolerances = DEFAULT_TOL
                             ) -> OddIndexRepresentative:
    """Invertible representative on the even-degree part for odd top degree."""
    if c.n % 2 != 1:
        raise DomainError(f"odd representative needs odd top degree, got {c.n}")
    _require_valid(c, tol)
    bp = c.b_plus_on()
    bm = c.b_minus_on()
    ev = c.even_indices
    u_full = bp @ np.linalg.inv(bm)
    u = u_full[np.ix_(ev, ev)]
    cert = spectral.invertibility_certificate(u, tol.inv)
    if not cert.passed:
        raise DualityDegenerateError(
            f"odd representative not invertible (min singular {cert.min_singular:.3e})")
    resid = None
    if c.tier == "strict":
        a = (1j * c.D_on @ c.S_on)[np.ix_(ev, ev)]
        resid = spectral.operator_norm(a - a.conj().T)
    return OddIndexRepresentative(u, cert, resid, int(ev.size))


@dataclass(frozen=True, eq=False)
class LocalizationSchedule:
    """Sampled rescaled-metric path of index representatives.

    For each sample time t the complex is rescaled by factor t and the parity
    representative recomputed; signatures (even) or invertibility certificates
    (odd) must be constant/pass across the whole schedule.
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
    times = np.linspace(1.0, t_max, samples)
    even = c.n % 2 == 0
    sigs: list[int] = []
    ranks: list[tuple[int, int]] = []
    min_sv: list[float] = []
    reps: list[np.ndarray] = []
    for t in times:
        ct = rescale_inner_products(c, float(t))
        try:
            if even:
                ep, em = _eigensystems(ct, tol)
                rp, rm = ep.positive_rank(), em.positive_rank()
                ranks.append((rp, rm))
                sigs.append(rp - rm)
                reps.append(ep.positive_projection() - em.positive_projection())
                min_sv.append(min(
                    spectral.invertibility_certificate(ct.b_plus_on(), tol.inv).min_singular,
                    spectral.invertibility_certificate(ct.b_minus_on(), tol.inv).min_singular))
            else:
                rep = odd_index_representative(ct, tol)
                reps.append(rep.u)
                min_sv.append(rep.certificate.min_singular)
        except (DualityDegenerateError, NoSpectralGapError) as exc:
            raise DualityDegenerateError(
                f"localization sample t={float(t):.6g} failed: {exc}") from exc
    steps = [float(spectral.operator_norm(b - a)) for a, b in zip(reps, reps[1:])]
    width = float(times[1] - times[0]) if samples > 1 else 1.0
    lipschitz = max(steps) / width if steps else 0.0
    constant = len(set(sigs)) <= 1 if even else True
    passed = constant and all(sv > 0 for sv in min_sv)
    return LocalizationSchedule(
        "even" if even else "odd",
        tuple(float(t) for t in times),
        tuple(sigs) if even else None,
        tuple(ranks) if even else None,
        tuple(min_sv), tuple(steps), lipschitz, constant, passed)


def signature_report(c: HPComplex, tol: Tolerances = DEFAULT_TOL,
                     schedule: LocalizationSchedule | None = None) -> dict:
    """Machine-readable signature data for one complex."""
    if c.n % 2 == 0:
        rp, rm = _ranks(c, tol)
        doc = {
            "kind": "even",
            "signature": rp - rm,
            "ranks": [rp, rm],
            "minSingular": [
                spectral.invertibility_certificate(c.b_plus_on(), tol.inv).min_singular,
                spectral.invertibility_certificate(c.b_minus_on(), tol.inv).min_singular,
            ],
        }
    else:
        rep = odd_index_representative(c, tol)
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
