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
                       DualityDegenerateError, GradedSum, HPComplex, StructuralError,
                       Tolerances, validate)
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


def _graded(c: HPComplex, t: float) -> GradedSum:
    """t^(-1/2) D through the grading: the complex's own at t = 1."""
    return c.graded if t == 1.0 else GradedSum(c.space.grading, c.n, t ** -0.5 * c.D_on)


def _odd_sample(c: HPComplex, tol: Tolerances, t: float = 1.0
                ) -> tuple[np.ndarray, InvertibilityCertificate]:
    """u = B+(t) B-(t)^{-1} on the even part and its certificate.  Of the
    axioms only the invertibility of B+-(t) depends on t; the gaps certify it.
    B+-(t) = [[0, X+-], [Y+-, 0]] by degree parity, so u = X+ X-^{-1}."""
    gs = _graded(c, t)
    _require_gaps(c.spectrum if t == 1.0 else gs.spectrum(c.S_on, c.S_skew), tol)
    u = spectral.right_divide(*gs.blocks(gs.operand(c.S_on)))
    cert = spectral.invertibility_certificate(u, tol.inv)
    if not cert.passed:
        raise DualityDegenerateError(
            f"odd representative not invertible (min singular {cert.min_singular:.3e})")
    return u, cert


def _selfadjoint_residual(c: HPComplex) -> float | None:
    """||A - A*|| for A = iDS on the even part; strict tier only."""
    if c.tier != "strict":
        return None
    ev = c.space.grading.even
    a = (1j * c.D_on @ c.S_on)[np.ix_(ev, ev)]
    return spectral.operator_norm(a - a.conj().T)


def odd_index_representative(c: HPComplex, tol: Tolerances = DEFAULT_TOL
                             ) -> OddIndexRepresentative:
    """Invertible representative on the even-degree part for odd top degree."""
    if c.n % 2 != 1:
        raise DomainError(f"odd representative needs odd top degree, got {c.n}")
    _require_valid(c, tol)
    u, cert = _odd_sample(c, tol)
    return OddIndexRepresentative(u, cert, _selfadjoint_residual(c),
                                  int(c.space.grading.even.size))


@dataclass(frozen=True, eq=False)
class LocalizationSchedule:
    """Sampled rescaled-metric path of index representatives.

    Rescaling G_p by t^(n/2 - p) leaves S fixed in orthonormal coordinates
    and scales D by t^(-1/2), so sample t recomputes the parity representative
    from B+-(t) = t^(-1/2) D +- S through hpc_core.GradedSum; signatures
    (even) or invertibility certificates (odd) must be constant/pass across
    the whole schedule.  Even samples decompose B+(t) only: P+(B-(t)) =
    eps (1 - P) eps for P = P+(B+(t)), so R = P + eps P eps - 1 is 2P - 1 on
    the parity blocks P_ee and P_oo, which a sample keeps, and 0 between them.
    """

    kind: str                       # "even" | "odd"
    times: tuple[float, ...]
    signatures: tuple[int, ...] | None
    ranks: tuple[tuple[int, int], ...] | None
    min_singulars: tuple[float, ...]  # even: gap less the Weyl slack; odd: of u
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
    reps: list = []
    h = c.graded.hermitian_part(c.S_on) if even else None
    for t in times:
        try:
            if even:       # one eigensystem of the graded B+(t) serves B-(t)
                gs = _graded(c, t)
                es = spectral.eig_hermitian(gs.graded_plus(h.copy()))
                cert = spectral.require_gap(es.eigenvalues, tol.inv, "D+-S",
                                            gs.slack(h, c.S_skew))
                ranks.append((es.positive_rank(), c.total_dim - es.positive_rank()))
                pos = es.vectors[:, es.eigenvalues > 0]     # P = pos pos*
                rep = tuple(pos[ix] @ pos[ix].conj().T for ix in (gs.grading.even, gs.grading.odd))
            else:
                rep, cert = _odd_sample(c, tol, t)
        except (DualityDegenerateError, NoSpectralGapError) as exc:
            raise DualityDegenerateError(
                f"localization sample t={t:.6g} failed: {exc}") from exc
        reps.append(rep)
        min_sv.append(cert.min_singular)
    sigs = [rp - rm for rp, rm in ranks]
    steps = [_step_norm(a, b, even) for a, b in zip(reps, reps[1:])]
    width = times[1] - times[0] if samples > 1 else 1.0
    lipschitz = max(steps) / width if steps else 0.0
    constant = len(set(sigs)) <= 1
    passed = constant and all(sv > 0 for sv in min_sv)
    return LocalizationSchedule(
        "even" if even else "odd", tuple(times),
        tuple(sigs) if even else None,
        tuple(ranks) if even else None,
        tuple(min_sv), tuple(steps), lipschitz, constant, passed)


def _step_norm(a, b, even: bool) -> float:
    """||R_b - R_a||_2.  An even R is kept as its parity blocks (P_ee, P_oo):
    it is 2P - 1 on each and 0 between them, so the step is 2 max |eigenvalue|
    of the blocks' Hermitian differences; an empty block contributes 0."""
    if not even:
        return spectral.operator_norm(b - a)
    diffs = [q - p for p, q in zip(a, b) if p.size]
    return 2.0 * max(float(np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T))).max())
                     for d in diffs)


def signature_report(c: HPComplex, tol: Tolerances = DEFAULT_TOL,
                     schedule: LocalizationSchedule | None = None) -> dict:
    """Machine-readable signature data for one complex the caller has
    validated (``cmd_sgn`` does, through the localization schedule).  A
    schedule must be this complex's under these tolerances: on an odd
    complex its first sample, t = 1, is the representative itself."""
    certs = _require_gaps(c.spectrum, tol)      # under this report's tolerances
    if c.n % 2 == 0:
        rp, rm = c.spectrum.positive_ranks()
        doc = {
            "kind": "even",
            "signature": rp - rm,
            "ranks": [rp, rm],
            "minSingular": [cert.min_singular for cert in certs],
        }
    else:
        min_sv = (schedule.min_singulars[0] if schedule is not None
                  else _odd_sample(c, tol)[1].min_singular)
        doc = {
            "kind": "odd",
            "signature": 0,
            "ranks": None,
            "minSingular": [min_sv],
            "evenPartDim": int(c.space.grading.even.size),
            "selfAdjointResidual": _selfadjoint_residual(c),
        }
    if schedule is not None:
        doc["schedule"] = schedule.to_dict()
    return doc
