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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fixtures, spectral
from .hpc_core import (DEFAULT_TOL, DomainError, GradedSpace, HPComplex,
                       StructuralError, Tolerances, validate)
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
    case: str

    def sigma(self, p: int, q: int) -> complex:
        sign = (-1.0) ** ((self.alpha * p * q + self.beta * p
                           + self.gamma * q + self.delta) % 2)
        return (1j ** self.phase) * sign

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
                "delta": self.delta, "phase_power": self.phase, "case": self.case}


def _tensor_layout(a: HPComplex, b: HPComplex):
    """Degree-major layout of the product: for each total degree the (p, q)
    summands with p ascending; returns (pairs per degree, dims, inner offsets)."""
    m, n = a.n, b.n
    total = m + n
    pairs = {}
    dims = []
    offs = {}
    for k in range(total + 1):
        lst = [(p, k - p) for p in range(max(0, k - n), min(m, k) + 1)]
        pairs[k] = lst
        o = 0
        for (p, q) in lst:
            offs[(p, q)] = o
            o += a.space.dims[p] * b.space.dims[q]
        dims.append(o)
    return pairs, dims, offs


def graded_tensor_with_rule(a: HPComplex, b: HPComplex, rule: SignRule) -> HPComplex:
    """Product complex d_A (x) 1 + E_A (x) d_B with duality sigma * S_A (x) S_B."""
    m, n = a.n, b.n
    total = m + n
    pairs, dims, offs = _tensor_layout(a, b)
    off_k = np.cumsum([0, *dims])

    inner = None
    if a.space.has_weights or b.space.has_weights:
        inner = []
        for k in range(total + 1):
            g = np.zeros((dims[k], dims[k]), dtype=complex)
            for (p, q) in pairs[k]:
                blk = np.kron(a.space.g_block(p), b.space.g_block(q))
                o = offs[(p, q)]
                g[o:o + blk.shape[0], o:o + blk.shape[1]] = blk
            inner.append(g)
        inner = tuple(inner)
    space = GradedSpace(total, tuple(dims), inner)

    ds = []
    for k in range(total):
        blk = np.zeros((dims[k + 1], dims[k]), dtype=complex)
        for (p, q) in pairs[k]:
            da, db = a.space.dims[p], b.space.dims[q]
            if da == 0 or db == 0:
                continue
            if p + 1 <= m and a.space.dims[p + 1]:
                piece = np.kron(a.d[p], np.eye(db))
                o2 = offs[(p + 1, q)]
                o1 = offs[(p, q)]
                blk[o2:o2 + piece.shape[0], o1:o1 + piece.shape[1]] += piece
            if q + 1 <= n and b.space.dims[q + 1]:
                piece = ((-1.0) ** p) * np.kron(np.eye(da), b.d[q])
                o2 = offs[(p, q + 1)]
                o1 = offs[(p, q)]
                blk[o2:o2 + piece.shape[0], o1:o1 + piece.shape[1]] += piece
        ds.append(blk)

    S = None
    if a.S is not None and b.S is not None:
        S = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        sa, sb = np.asarray(a.S), np.asarray(b.S)
        for k in range(total + 1):
            for (p, q) in pairs[k]:
                SA = sa[a.space.degree_slice(m - p), a.space.degree_slice(p)]
                SB = sb[b.space.degree_slice(n - q), b.space.degree_slice(q)]
                if SA.size == 0 or SB.size == 0:
                    continue
                piece = rule.sigma(p, q) * np.kron(SA, SB)
                r = off_k[total - k] + offs[(m - p, n - q)]
                c = off_k[k] + offs[(p, q)]
                S[r:r + piece.shape[0], c:c + piece.shape[1]] += piece

    tier = "strict" if (a.tier == b.tier == "strict" and S is not None) else "weak"
    meta = {"sign_rule": f"alpha={rule.alpha} beta={rule.beta} gamma={rule.gamma} "
                         f"delta={rule.delta} phase_power={rule.phase}"}
    return HPComplex(space, tuple(ds), S, tier, meta)


def _search_witnesses(parity: int) -> list[HPComplex]:
    """Strict acyclic/harmonic complexes of the given parity used as oracles."""
    if parity % 2 == 1:
        return [fixtures.hyperbolic_odd(), fixtures.circle_model()]
    return [fixtures.hyperbolic_even(), fixtures.sphere_model()]


@lru_cache(maxsize=None)
def _derive_sign_rule_cached(m_parity: int, n_parity: int) -> SignRule:
    wit_a = _search_witnesses(m_parity)
    wit_b = _search_witnesses(n_parity)
    tol = DEFAULT_TOL
    for phase, alpha, beta, gamma, delta in itertools.product((0, 1), repeat=5):
        rule = SignRule(m_parity, n_parity, alpha, beta, gamma, delta, phase,
                        parity_case(m_parity, n_parity))
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
    return SignRule(m % 2, n % 2, rule.alpha, rule.beta, rule.gamma, rule.delta,
                    rule.phase, parity_case(m, n))


def graded_tensor(a: HPComplex, b: HPComplex) -> HPComplex:
    """Graded tensor product with the derived parity sign rule."""
    return graded_tensor_with_rule(a, b, derive_sign_rule(a.n, b.n))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Identity:
    name: str
    residual: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual,
                "threshold": self.threshold, "passed": self.passed}


@dataclass(frozen=True, eq=False)
class ProductWitnessReport:
    kind: str
    case: str
    k_normalization: int
    identities: tuple[Identity, ...]
    certificates: tuple[InvertibilityCertificate, ...]
    samples: tuple[float, ...]
    extras: dict = field(default_factory=dict)
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case,
            "k_normalization": self.k_normalization,
            "identities": [i.to_dict() for i in self.identities],
            "certificates": [c.to_dict() for c in self.certificates],
            "samples": list(self.samples),
            "extras": dict(sorted(self.extras.items())),
            "passed": self.passed,
        }


def _sgn_or_zero(c: HPComplex, tol: Tolerances) -> int:
    if c.n % 2 == 1:
        return 0
    return signature_even(c, tol)


def product_signature_check(a: HPComplex, b: HPComplex,
                            tol: Tolerances = DEFAULT_TOL) -> ProductWitnessReport:
    """Assert sgn(a (x) b) = sgn(a) * sgn(b), with sgn = 0 in odd dimensions."""
    for c in (a, b):
        if not validate(c, tol).passed:
            raise StructuralError("factor complex fails validation")
    t = graded_tensor(a, b)
    sa = _sgn_or_zero(a, tol)
    sb = _sgn_or_zero(b, tol)
    st = _sgn_or_zero(t, tol)
    ok = st == sa * sb
    ident = Identity("signature_multiplicative", float(abs(st - sa * sb)), 0.0, ok)
    return ProductWitnessReport(
        kind="signature_product",
        case=parity_case(a.n, b.n),
        k_normalization=k_factor(a.n, b.n),
        identities=(ident,),
        certificates=(),
        samples=(),
        extras={"sgn_a": sa, "sgn_b": sb, "sgn_product": st,
                "dims": list(t.space.dims)},
        passed=ok)


def _require_strict(c: HPComplex, tol: Tolerances, who: str) -> None:
    rep = validate(c, tol)
    if not rep.passed or rep.tier_achieved != "strict":
        raise StructuralError(f"{who} factor must validate at the strict tier")


def witness_even_odd(a: HPComplex, b: HPComplex, samples: int = 11,
                     tol: Tolerances = DEFAULT_TOL) -> ProductWitnessReport:
    """Positivity identity for the interpolation between the product
    representative and its spectral flattening.

    For s in [0,1] W_{+-,s} = B_a^{+-}/|B_a^{+-}|^s (x) 1 + 1 (x) S_b D_b must
    satisfy W*W = |B|^{2(1-s)} (x) 1 + 1 (x) D_b^2 > 0; the endpoints are
    B itself (s=0) and the difference of its spectral projections (s=1).
    In the eigenbasis V of B, W is (V (x) 1)-conjugate to the direct sum over
    the eigenvalues lam of the blocks sign(lam)|lam|^(1-s) + S_b D_b, so each
    sample checks the identity block by block and certifies W from the
    singular values of all blocks.
    """
    if a.n % 2 != 0 or b.n % 2 != 1:
        raise DomainError("needs an even first factor and an odd second factor")
    if samples < 2:
        raise DomainError(f"the witness needs at least 2 samples (s = 0 and s = 1), "
                          f"got {samples}")
    _require_strict(a, tol, "even")
    _require_strict(b, tol, "odd")
    if b.S is None or spectral.operator_norm(b.S) == 0.0:
        raise StructuralError("odd factor carries no duality")

    sd = b.S_on @ b.D_on
    d2 = b.D_on @ b.D_on
    eye_b = np.eye(b.total_dim)
    grid = np.linspace(0.0, 1.0, samples)
    idents: list[Identity] = []
    certs: list[InvertibilityCertificate] = []
    for pm, bop in (("+", a.b_plus_on()), ("-", a.b_minus_on())):
        es = spectral.eig_hermitian(bop, tol.sym).require_gap(tol.inv,
                                                              "sign-preserving power")
        lam = es.eigenvalues
        for s in grid:
            w = (np.sign(lam) * np.abs(lam) ** (1.0 - s))[:, None, None] * eye_b + sd
            rhs = (np.abs(lam) ** (2.0 * (1.0 - s)))[:, None, None] * eye_b + d2
            lhs = w.conj().transpose(0, 2, 1) @ w
            scale = max(1.0, _block_norm(rhs))
            resid = _block_norm(lhs - rhs) / scale
            thr = tol.identity
            idents.append(Identity(f"positivity[B{pm},s={float(s):.2f}]",
                                   float(resid), thr, resid <= thr))
            # min eig of W*W = sigma_min(W)^2
            cert = spectral.spectrum_certificate(np.linalg.svd(w, compute_uv=False),
                                                 tol.inv)
            mineig = cert.min_singular ** 2
            idents.append(Identity(f"positive_definite[B{pm},s={float(s):.2f}]",
                                   -mineig, 0.0, mineig > 0.0))
            certs.append(cert)
        # endpoints: ||X (x) 1|| = ||X||; certs[-samples] is this sign's s = 0
        # sample, whose largest singular value is ||W_0||
        r0 = spectral.operator_norm(es.apply(lambda x: x) - bop)
        thr0 = tol.identity * max(1.0, certs[-samples].max_singular)
        idents.append(Identity(f"endpoint_s0[B{pm}]", float(r0), thr0, r0 <= thr0))
        proj_diff = (es.positive_projection()
                     - spectral.positive_projection(-bop, tol.inv, tol.sym))
        r1 = spectral.operator_norm(es.apply(np.sign) - proj_diff)
        idents.append(Identity(f"endpoint_s1[B{pm}]", float(r1), tol.identity,
                               r1 <= tol.identity))
    passed = all(i.passed for i in idents) and all(c.passed for c in certs)
    return ProductWitnessReport(
        kind="even_odd_witness", case=parity_case(a.n, b.n),
        k_normalization=k_factor(a.n, b.n),
        identities=tuple(idents), certificates=tuple(certs),
        samples=tuple(float(s) for s in grid), extras={}, passed=passed)


def _block_norm(blocks: np.ndarray) -> float:
    """The 2-norm of the direct sum of a stack of square blocks."""
    return float(np.linalg.norm(blocks, 2, axis=(1, 2)).max())


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
    rep_a = validate(a, tol)
    if not rep_a.passed:
        raise StructuralError("odd factor fails validation")
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
        idents.append(Identity(name, float(resid), tol.identity, resid <= tol.identity))

    rank_p = spectral.positive_rank(sym, tol.inv, tol.sym)  # = rank of P
    neg_s = nb - spectral.positive_rank(sb, tol.inv, tol.sym)
    sgn_b = signature_even(b, tol)
    rank_ok = rank_p - neg_s == sgn_b
    idents.append(Identity("rank_identity", float(abs(rank_p - neg_s - sgn_b)),
                           0.0, rank_ok))
    passed = all(i.passed for i in idents)
    return ProductWitnessReport(
        kind="odd_even_witness", case=parity_case(a.n, b.n),
        k_normalization=k_factor(a.n, b.n),
        identities=tuple(idents), certificates=(), samples=(),
        extras={"rank_P": rank_p, "reference_rank": neg_s, "sgn_even_factor": sgn_b},
        passed=passed)
