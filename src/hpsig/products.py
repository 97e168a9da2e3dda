"""Graded tensor products of duality complexes with parity-dependent sign
rules, signature multiplicativity checks, and the operator identities of the
mixed-parity proofs as executable witnesses.

The sign sigma(p, q) multiplying S_A (x) S_B on the (p, q) summand is pinned
by brute force against the strict axioms (self-adjointness, S^2 = 1,
SD = -DS, invertibility of D +- S) on acyclic strict witnesses with nonzero
differential.  For odd x odd parities no real +-1 assignment exists, so the
search family carries an optional global phase i; the found rules agree with
the Hodge-star conventions in all four parity cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import spectral
from .hpc_core import (DEFAULT_TOL, IDENTITY_TOL, CheckResult, DomainError,
                       DualityDegenerateError, GradedSpace, HPComplex, StructuralError,
                       Tolerances, _assemble, require_valid, validate)
from .signature import signature_even
from .spectral import InvertibilityCertificate


def parity_case(m: int, n: int) -> str:
    return f"{'even' if m % 2 == 0 else 'odd'}_x_{'even' if n % 2 == 0 else 'odd'}"


def k_factor(m: int, n: int) -> int:
    """Index normalization constant: 1 when m*n is even, 2 when odd."""
    return 1 if (m * n) % 2 == 0 else 2


@dataclass(frozen=True)
class SignRule:
    """sigma(p, q) = i^phase * (-1)^(alpha pq + beta p + gamma q + delta)."""

    m_parity: int
    n_parity: int
    alpha: int
    beta: int
    gamma: int
    delta: int
    phase: int

    def sigma(self, p: int, q: int) -> complex:
        sign = (-1.0) ** ((self.alpha * p * q + self.beta * p
                           + self.gamma * q + self.delta) % 2)
        return (1j ** self.phase) * sign

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
                "delta": self.delta, "phase_power": self.phase}


def _tensor_space(a: HPComplex, b: HPComplex):
    """The graded space of a (x) b, degree-major: for each total degree the
    (p, q) summands with p ascending, summand (p, q) with the inner product
    G_a(p) (x) G_b(q).  Returns the space, the summands per degree and the
    offset of each summand inside its degree."""
    m, n = a.n, b.n
    pairs, offs, dims = {}, {}, []
    for k in range(m + n + 1):
        pairs[k] = [(p, k - p) for p in range(max(0, k - n), min(m, k) + 1)]
        o = 0
        for (p, q) in pairs[k]:
            offs[(p, q)] = o
            o += a.space.dims[p] * b.space.dims[q]
        dims.append(o)
    inner = None
    if a.space.has_weights or b.space.has_weights:
        inner = tuple(_assemble((dims[k], dims[k]),
                                [(offs[(p, q)], offs[(p, q)],
                                  np.kron(a.space.g_block(p), b.space.g_block(q)))
                                 for (p, q) in pairs[k]])
                      for k in range(m + n + 1))
    return GradedSpace(m + n, tuple(dims), inner), pairs, offs


def graded_tensor_with_rule(a: HPComplex, b: HPComplex, rule: SignRule) -> HPComplex:
    """Product complex d_A (x) 1 + E_A (x) d_B with duality sigma * S_A (x) S_B."""
    m, n = a.n, b.n
    space, pairs, offs = _tensor_space(a, b)
    dim_a, dim_b = a.space.dims, b.space.dims

    ds = []
    for k in range(m + n):
        parts = []
        for (p, q) in pairs[k]:
            if not dim_a[p] * dim_b[q]:
                continue
            if p < m and dim_a[p + 1]:
                parts.append((offs[(p + 1, q)], offs[(p, q)],
                              np.kron(a.d[p], np.eye(dim_b[q]))))
            if q < n and dim_b[q + 1]:
                parts.append((offs[(p, q + 1)], offs[(p, q)],
                              ((-1.0) ** p) * np.kron(np.eye(dim_a[p]), b.d[q])))
        ds.append(_assemble((space.dims[k + 1], space.dims[k]), parts))

    S = None
    if a.S is not None and b.S is not None:
        parts = []
        for k, summands in pairs.items():
            for (p, q) in summands:
                if not dim_a[p] * dim_b[q] * dim_a[m - p] * dim_b[n - q]:
                    continue
                SA = a.S[a.space.degree_slice(m - p), a.space.degree_slice(p)]
                SB = b.S[b.space.degree_slice(n - q), b.space.degree_slice(q)]
                parts.append((space.offsets[m + n - k] + offs[(m - p, n - q)],
                              space.offsets[k] + offs[(p, q)],
                              rule.sigma(p, q) * np.kron(SA, SB)))
        S = _assemble((space.total_dim, space.total_dim), parts)

    tier = "strict" if (a.tier == b.tier == "strict" and S is not None) else "weak"
    meta = {"sign_rule": f"alpha={rule.alpha} beta={rule.beta} gamma={rule.gamma} "
                         f"delta={rule.delta} phase_power={rule.phase}"}
    return HPComplex(space, tuple(ds), S, tier, meta)


def _search_witnesses(parity: int) -> list[HPComplex]:
    """Strict acyclic/harmonic complexes of the given parity used as oracles."""
    from . import fixtures     # late: `python -m hpsig.fixtures` warns if hpsig loads it
    if parity % 2 == 1:
        return [fixtures.hyperbolic_odd(), fixtures.circle_model()]
    return [fixtures.hyperbolic_even(), fixtures.sphere_model()]


@lru_cache(maxsize=None)
def _derive_sign_rule_cached(m_parity: int, n_parity: int) -> SignRule:
    wit_a = _search_witnesses(m_parity)
    wit_b = _search_witnesses(n_parity)
    tol = DEFAULT_TOL
    for phase, alpha, beta, gamma, delta in itertools.product((0, 1), repeat=5):
        rule = SignRule(m_parity, n_parity, alpha, beta, gamma, delta, phase)
        ok = True
        for a, b in itertools.product(wit_a, wit_b):
            t = graded_tensor_with_rule(a, b, rule)
            if not validate(t, tol).passed:
                ok = False
                break
        if ok:
            return rule
    raise StructuralError(
        f"no consistent product sign assignment for parities "
        f"({m_parity}, {n_parity}); duality conventions are broken upstream")


def derive_sign_rule(m: int, n: int) -> SignRule:
    """Pin the product sign rule for top degrees (m, n) by brute force.

    Deterministic: the lexicographically first passing assignment is returned.
    For m odd and n even the result is checked to be +1 on even fiber degrees
    and -1 on odd ones, the two cases fixed by the mixed-parity computation.
    """
    rule = _derive_sign_rule_cached(m % 2, n % 2)
    if m % 2 == 1 and n % 2 == 0:
        if not (rule.sigma(0, 0) == 1 and rule.sigma(0, 1) == -1
                and rule.sigma(1, 2) == 1):
            raise StructuralError("derived odd x even sign rule does not match "
                                  "the displayed convention")
    return rule


def graded_tensor(a: HPComplex, b: HPComplex) -> HPComplex:
    """Graded tensor product with the derived parity sign rule."""
    return graded_tensor_with_rule(a, b, derive_sign_rule(a.n, b.n))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True, eq=False)
class ProductWitnessReport:
    identities: tuple[CheckResult, ...]
    certificates: tuple[InvertibilityCertificate, ...]
    extras: dict = field(default_factory=dict)
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "identities": [i.to_dict() for i in self.identities],
            "certificates": [c.to_dict() for c in self.certificates],
            "extras": dict(sorted(self.extras.items())),
            "passed": self.passed,
        }


def _sgn_or_zero(c: HPComplex, tol: Tolerances) -> int:
    if c.n % 2 == 1:
        return 0
    return signature_even(c, tol)


class ProductSignature(NamedTuple):
    """extras: sgn_a, sgn_b, sgn_product and the product's dims; passed:
    sgn_product = sgn_a * sgn_b."""

    passed: bool
    extras: dict


def product_signature_check(a: HPComplex, b: HPComplex,
                            tol: Tolerances = DEFAULT_TOL) -> ProductSignature:
    """Assert sgn(a (x) b) = sgn(a) * sgn(b), with sgn = 0 in odd dimensions."""
    for c in (a, b):
        require_valid(c, tol)
    t = graded_tensor(a, b)
    sa = _sgn_or_zero(a, tol)
    sb = _sgn_or_zero(b, tol)
    st = _sgn_or_zero(t, tol)
    return ProductSignature(st == sa * sb, {"sgn_a": sa, "sgn_b": sb, "sgn_product": st,
                                            "dims": list(t.space.dims)})


def _require_strict(c: HPComplex, tol: Tolerances, who: str) -> None:
    message = f"{who} factor must validate at the strict tier"
    try:
        require_valid(c, tol)
    except (StructuralError, DualityDegenerateError) as exc:
        raise StructuralError(message) from exc
    if not c.meets_strict_tier(tol):
        raise StructuralError(message)


def witness_even_odd(a: HPComplex, b: HPComplex,
                     tol: Tolerances = DEFAULT_TOL) -> ProductWitnessReport:
    """Positivity identity for the interpolation between the product
    representative and its spectral flattening, certified for all s in [0,1].

    W_{+-,s} = B_a^{+-}/|B_a^{+-}|^s (x) 1 + 1 (x) S_b D_b must satisfy
    W*W = |B|^{2(1-s)} (x) 1 + 1 (x) D_b^2 > 0; the endpoints are B itself
    (s=0) and the difference of its spectral projections (s=1).  In the
    eigenbasis of B, W is the direct sum over the eigenvalues lam of the
    blocks mu + S_b D_b, mu = sign(lam)|lam|^(1-s), and each block of
    W*W less the model is mu E1 + E2 with E1 = SD + (SD)*, E2 = (SD)*(SD) - D^2
    (S = S_b, D = D_b), neither depending on s or lam.  As |mu| lies between
    1 and |lam|, one residual and one lower bound on sigma_min(W)^2 hold for
    every s; both hold for any S, strict or not.
    """
    if a.n % 2 != 0 or b.n % 2 != 1:
        raise DomainError("needs an even first factor and an odd second factor")
    _require_strict(a, tol, "even")
    _require_strict(b, tol, "odd")
    if b.S_norm == 0.0:
        raise StructuralError("odd factor carries no duality")

    sd = b.S_on @ b.D_on
    e1 = spectral.operator_norm(sd + sd.conj().T)
    e2 = spectral.operator_norm(sd.conj().T @ sd - b.D_on @ b.D_on)
    # |mu| / max(1, mu^2 + ||D||^2) <= 1 bounds the residual of every block
    resid = e1 + e2 / max(1.0, b.D_norm ** 2)
    ident = CheckResult("positivity", resid, IDENTITY_TOL, resid <= IDENTITY_TOL)
    # the singular values of the dense W carry rounding of order its size
    # times eps, which the certified bounds leave room for
    rounding = a.total_dim * b.total_dim * float(np.finfo(float).eps)
    certs = []
    for bop in (a.D_on + a.S_on, a.D_on - a.S_on):
        size = np.abs(spectral.gapped_eigenvalues(bop, tol.inv, "sign-preserving power",
                                                  tol.sym))
        lo, hi = min(1.0, float(size.min())), max(1.0, float(size.max()))
        # W*W = mu^2 + mu E1 + (SD)*(SD) with (SD)*(SD) >= 0, so
        # sigma_min(W)^2 >= mu^2 - |mu| ||E1||, with lo <= |mu| <= hi
        bound = lo * lo - hi * e1
        top = (hi + b.S_norm * b.D_norm) * (1.0 + rounding)
        certs.append(spectral.gap_certificate(math.sqrt(max(bound, 0.0)), top, tol.inv,
                                              a.total_dim * b.total_dim, rounding * top))
    passed = ident.passed and all(c.passed for c in certs)
    return ProductWitnessReport(identities=(ident,), certificates=tuple(certs),
                                passed=passed)


def witness_odd_even(a: HPComplex, b: HPComplex,
                     tol: Tolerances = DEFAULT_TOL) -> ProductWitnessReport:
    """Symmetry/projection identities of the mixed-parity reduction.

    On the even factor b builds S1 = S_b, S2 = g(D_b) + S_b f(D_b) with
    g(x) = x/sqrt(1+x^2), f(x) = 1/sqrt(1+x^2), and P = (S2 S1 S2 + 1)/2;
    verifies S2^2 = 1, (S2 S1 S2)^2 = 1, P projection, and the exact rank
    identity rank P - dim(negative eigenspace of S_b) = sgn(b).
    """
    if a.n % 2 != 1 or b.n % 2 != 0:
        raise DomainError("needs an odd first factor and an even second factor")
    require_valid(a, tol)
    _require_strict(b, tol, "even")

    nb = b.total_dim
    eye = np.eye(nb)
    db, sb = b.D_on, b.S_on
    es = spectral.eig_hermitian(db, tol.sym)
    g_d = es.apply(lambda x: x / np.sqrt(1.0 + x * x))
    f_d = es.apply(lambda x: 1.0 / np.sqrt(1.0 + x * x))
    s1 = sb
    s2 = g_d + sb @ f_d
    sym = s2 @ s1 @ s2
    p = (sym + eye) / 2.0

    idents = []
    for name, resid in (
            ("S2_squared", spectral.operator_norm(s2 @ s2 - eye)),
            ("S2S1S2_squared", spectral.operator_norm(sym @ sym - eye)),
            ("P_idempotent", spectral.operator_norm(p @ p - p)),
            ("P_selfadjoint", spectral.operator_norm(p - p.conj().T))):
        idents.append(CheckResult(name, float(resid), IDENTITY_TOL, resid <= IDENTITY_TOL))

    rank_p = spectral.positive_rank(sym, tol.inv, tol.sym)  # = rank of P
    neg_s = nb - spectral.positive_rank(sb, tol.inv, tol.sym)
    sgn_b = signature_even(b, tol)
    rank_ok = rank_p - neg_s == sgn_b
    idents.append(CheckResult("rank_identity", float(abs(rank_p - neg_s - sgn_b)),
                              0.0, rank_ok))
    passed = all(i.passed for i in idents)
    return ProductWitnessReport(
        identities=tuple(idents), certificates=(),
        extras={"rank_P": rank_p, "reference_rank": neg_s, "sgn_even_factor": sgn_b},
        passed=passed)
