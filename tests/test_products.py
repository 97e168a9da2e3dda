"""Graded tensor products: sign rules, multiplicativity, parity witnesses."""

import itertools

import numpy as np
import pytest

from hpsig import fixtures
from hpsig.hpc_core import (DEFAULT_TOL, DomainError, GradedSpace, HPComplex,
                            StructuralError, Tolerances, validate)
from hpsig.products import (derive_sign_rule, graded_tensor,
                            graded_tensor_with_rule, k_factor,
                            product_signature_check, witness_even_odd,
                            witness_odd_even)
from hpsig.signature import signature_even
from hpsig.simplicial import cap_duality
from hpsig.spectral import (eig_hermitian, invertibility_certificate,
                            positive_projection)

MODELS = {
    "point": (fixtures.point_model, 1),
    "circle": (fixtures.circle_model, 0),
    "sphere": (fixtures.sphere_model, 0),
    "torus": (fixtures.torus_model, 0),
    "cp2": (fixtures.cp2_model, 1),
}


def test_point_is_unit_of_product():
    for name, (build, _) in MODELS.items():
        c = build()
        t = graded_tensor(fixtures.point_model(), c)
        assert t.space.dims == c.space.dims
        assert np.array_equal(np.asarray(t.S), np.asarray(c.S))
        for d1, d2 in zip(t.d, c.d):
            assert np.array_equal(d1, d2)


def test_sphere_squared():
    t = graded_tensor(fixtures.sphere_model(), fixtures.sphere_model())
    assert t.total_dim == 4 and t.n == 4
    assert validate(t).passed
    assert signature_even(t) == 0


def test_cp2_squared():
    t = graded_tensor(fixtures.cp2_model(), fixtures.cp2_model())
    assert t.n == 8 and t.total_dim == 9
    assert signature_even(t) == 1


def test_full_multiplicativity_grid():
    for (na, (ba, sa)), (nb, (bb, sb)) in itertools.product(MODELS.items(), repeat=2):
        rep = product_signature_check(ba(), bb())
        assert rep.passed, (na, nb, rep.extras)
        assert rep.extras["sgn_product"] == sa * sb
        assert rep.k_normalization == k_factor(ba().n, bb().n)


def test_k_normalization_values():
    # 1 for even products of dimensions, 2 for odd times odd
    assert k_factor(2, 1) == 1
    assert k_factor(1, 2) == 1
    assert k_factor(2, 4) == 1
    assert k_factor(1, 1) == 2
    assert k_factor(3, 5) == 2


def test_circle_times_circle_matches_torus_model():
    t = graded_tensor(fixtures.circle_model(), fixtures.circle_model())
    t2 = fixtures.torus_model()
    # product degree-1 order is (dy, dx); the torus model uses (dx, dy)
    perm = np.eye(4)[:, [0, 2, 1, 3]]
    assert np.array_equal(perm.T @ np.asarray(t.S) @ perm, np.asarray(t2.S))
    assert signature_even(t) == 0
    assert validate(t).tier_achieved == "strict"


def test_products_of_strict_fixtures_stay_strict():
    pairs = [(fixtures.sphere_model, fixtures.circle_model),
             (fixtures.circle_model, fixtures.cp2_model),
             (fixtures.hyperbolic_odd, fixtures.hyperbolic_even),
             (fixtures.hyperbolic_odd, fixtures.hyperbolic_odd)]
    for ba, bb in pairs:
        rep = validate(graded_tensor(ba(), bb()))
        assert rep.passed and rep.tier_achieved == "strict"


def test_sign_rule_odd_even_matches_displayed_cases():
    rule = derive_sign_rule(1, 2)
    for p in range(2):
        for q in range(3):
            assert rule.sigma(p, q) == (1 if q % 2 == 0 else -1)


def test_sign_rule_unit_case_trivial():
    rule = derive_sign_rule(0, 4)
    assert all(rule.sigma(p, q) == 1 for p in range(5) for q in range(5))


def test_sign_rule_even_odd_by_brute_force():
    rule = derive_sign_rule(2, 1)
    t = graded_tensor_with_rule(fixtures.sphere_model(), fixtures.circle_model(), rule)
    rep = validate(t)
    assert rep.passed and rep.tier_achieved == "strict"


def test_sign_rule_odd_odd_needs_phase():
    rule = derive_sign_rule(1, 1)
    assert rule.phase == 1
    assert rule.sigma(0, 0) == 1j and rule.sigma(0, 1) == -1j


def test_grading_operator_exact_identities():
    c = cap_duality(fixtures.sphere_triangulation())
    e = c.map_degrees(lambda p: (-1) ** p)
    d = c.d_total
    assert np.array_equal(e @ e, np.eye(c.total_dim, dtype=complex))
    assert np.array_equal(e @ d, -d @ e)


def test_associativity_up_to_regrading():
    builds = [fixtures.point_model, fixtures.circle_model, fixtures.sphere_model]
    for ba, bb, bc in itertools.product(builds, repeat=3):
        a, b, c = ba(), bb(), bc()
        left = graded_tensor(graded_tensor(a, b), c)
        right = graded_tensor(a, graded_tensor(b, c))
        assert left.space.dims == right.space.dims
        assert validate(left).passed and validate(right).passed
        if left.n % 2 == 0:
            assert signature_even(left) == signature_even(right)
    # with a point factor the identification is the identity
    a = fixtures.circle_model()
    left = graded_tensor(graded_tensor(a, fixtures.point_model()), a)
    right = graded_tensor(a, graded_tensor(fixtures.point_model(), a))
    assert np.array_equal(np.asarray(left.S), np.asarray(right.S))


def test_products_of_weak_tier_cap_complexes():
    # simplicial complexes on both sides: the product still certifies and
    # multiplies signatures (torus = circle x circle has signature 0)
    a = cap_duality(fixtures.circle_triangulation())
    t = graded_tensor(a, a)
    rep = validate(t)
    assert rep.passed and rep.poincare
    assert signature_even(t) == 0
    b = cap_duality(fixtures.sphere_triangulation())
    mixed = product_signature_check(b, fixtures.cp2_model())
    assert mixed.passed and mixed.extras["sgn_product"] == 0


def test_graded_tensor_with_weighted_factor():
    from hpsig.hpc_core import rescale_inner_products
    a = rescale_inner_products(fixtures.torus_model(), 2.0)
    t = graded_tensor(a, fixtures.circle_model())
    rep = validate(t)
    assert rep.passed and rep.tier_achieved == "strict"
    assert t.space.has_weights


def test_witness_even_odd_point_circle():
    rep = witness_even_odd(fixtures.point_model(), fixtures.circle_model())
    assert rep.passed
    assert max(i.residual for i in rep.identities if "positivity" in i.name) <= 1e-12
    assert rep.k_normalization == 1


def test_witness_even_odd_sphere_circle_eleven_samples():
    rep = witness_even_odd(fixtures.sphere_model(), fixtures.circle_model(), samples=11)
    assert rep.passed
    assert len(rep.samples) == 11
    assert all(c.passed for c in rep.certificates)


def test_witness_even_odd_with_nonzero_differentials():
    rep = witness_even_odd(fixtures.hyperbolic_even(), fixtures.hyperbolic_odd())
    assert rep.passed
    assert max(i.residual for i in rep.identities) <= 1e-9


def test_witness_even_odd_rejects_zero_duality():
    b = HPComplex(GradedSpace(1, (1, 1)), (np.zeros((1, 1)),),
                  np.zeros((2, 2)), "strict")
    with pytest.raises(StructuralError):
        witness_even_odd(fixtures.sphere_model(), b)


def test_witness_even_odd_parity_check():
    with pytest.raises(DomainError):
        witness_even_odd(fixtures.circle_model(), fixtures.sphere_model())


def _kron_witness(a, b, samples, tol=DEFAULT_TOL):
    """Dense reference for witness_even_odd: W, W*W and its model built as
    (dim a * dim b)-size Kronecker products.  Returns the (residual, passed)
    pairs of the identities in report order, and the certificates."""
    sd, d2 = b.S_on @ b.D_on, b.D_on @ b.D_on
    eye_a, eye_b = np.eye(a.total_dim), np.eye(b.total_dim)
    norm = lambda m: float(np.linalg.norm(m, 2))
    idents, certs = [], []
    for bop in (a.b_plus_on(), a.b_minus_on()):
        es = eig_hermitian(bop)
        for s in np.linspace(0.0, 1.0, samples):
            w = (np.kron(es.apply(lambda x: np.sign(x) * abs(x) ** (1.0 - s)), eye_b)
                 + np.kron(eye_a, sd))
            rhs = (np.kron(es.apply(lambda x: abs(x) ** (2.0 * (1.0 - s))), eye_b)
                   + np.kron(eye_a, d2))
            resid = norm(w.conj().T @ w - rhs) / max(1.0, norm(rhs))
            cert = invertibility_certificate(w, tol.inv)
            idents += [(resid, resid <= tol.identity),
                       (-cert.min_singular ** 2, cert.min_singular > 0.0)]
            certs.append(cert)
        w0 = np.kron(bop, eye_b) + np.kron(eye_a, sd)
        r0 = norm(np.kron(es.apply(lambda x: x), eye_b) + np.kron(eye_a, sd) - w0)
        proj_diff = positive_projection(bop) - positive_projection(-bop)
        r1 = norm(es.apply(np.sign) - proj_diff)
        idents += [(r0, r0 <= tol.identity * max(1.0, norm(w0))),
                   (r1, r1 <= tol.identity)]
    return idents, certs


def _close(x, y):
    """Agreement to 1e-12 relative; the floor 1 of the scale is that of the
    identities, whose residuals are relative to max(1, norm)."""
    return abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


def _even_odd_pairs():
    pairs = [(fixtures.point_model(), fixtures.circle_model()),
             (fixtures.sphere_model(), fixtures.circle_model()),
             (fixtures.torus_model(), fixtures.hyperbolic_odd()),
             (fixtures.hyperbolic_even(), fixtures.hyperbolic_odd())]
    rng = np.random.default_rng(8)
    for n_even, blocks in ((2, 2), (2, 3), (4, 1)):
        pairs.append((fixtures.random_strict_complex(rng, n_even, blocks),
                      fixtures.random_strict_complex(rng, 1, 2)))
    return pairs


@pytest.mark.parametrize("index", range(7))
def test_witness_even_odd_blocks_match_the_kronecker_witness(index):
    a, b = _even_odd_pairs()[index]
    rep = witness_even_odd(a, b, samples=6)
    idents, certs = _kron_witness(a, b, samples=6)
    assert len(rep.identities) == len(idents) and len(rep.certificates) == len(certs)
    for got, (resid, passed) in zip(rep.identities, idents):
        assert _close(got.residual, resid), got.name
        assert got.passed == passed, got.name
    for got, ref in zip(rep.certificates, certs):
        for key in ("min_singular", "max_singular", "condition", "threshold"):
            assert _close(getattr(got, key), getattr(ref, key)), key
        assert got.passed == ref.passed
    assert rep.passed and all(passed for _, passed in idents)


def test_witness_even_odd_fails_positivity_when_s_anticommutes_only_roughly():
    # S + 1e-6 E stays Hermitian and degree-reversing; S'^2 = 1 + 1e-12 and
    # S'D + DS' = 1e-6 E D pass at the strict tier under tol.sym = 1e-4, but
    # W*W = |B|^(2 - 2s) (x) 1 + 1 (x) D^2 fails by about 1e-6
    h = fixtures.hyperbolic_odd()
    e = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    b = HPComplex(h.space, h.d, np.asarray(h.S) + 1e-6 * e, "strict")
    tol = Tolerances(sym=1e-4)
    rep_b = validate(b, tol)
    assert rep_b.passed and rep_b.tier_achieved == "strict"
    rep = witness_even_odd(fixtures.sphere_model(), b, tol=tol)
    positivity = [i for i in rep.identities if i.name.startswith("positivity")]
    assert len(positivity) == 2 * 11
    assert not any(i.passed for i in positivity)
    assert min(i.residual for i in positivity) > 1e3 * tol.identity
    assert not rep.passed


@pytest.mark.parametrize("build,expected_rank_delta", [
    (fixtures.point_model, 1),
    (fixtures.sphere_model, 0),
    (fixtures.torus_model, 0),
    (fixtures.cp2_model, 1),
    (fixtures.hyperbolic_even, 0),
])
def test_witness_odd_even_rank_identity(build, expected_rank_delta):
    rep = witness_odd_even(fixtures.circle_model(), build())
    assert rep.passed
    assert rep.extras["rank_P"] - rep.extras["reference_rank"] == expected_rank_delta
    assert rep.extras["sgn_even_factor"] == expected_rank_delta
    assert max(i.residual for i in rep.identities if i.name != "rank_identity") <= 1e-9


def test_witness_odd_even_point_values():
    rep = witness_odd_even(fixtures.hyperbolic_odd(), fixtures.point_model())
    assert rep.extras["rank_P"] == 1 and rep.extras["reference_rank"] == 0
