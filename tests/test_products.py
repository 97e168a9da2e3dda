"""Graded tensor products: sign rules, multiplicativity, parity witnesses."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from hpsig import fixtures
from hpsig.hpc_core import (IDENTITY_TOL, DomainError, GradedSpace, HPComplex,
                            StructuralError, Tolerances, hpcomplex_from_json,
                            rescale_inner_products, validate)
from hpsig.products import (derive_sign_rule, graded_tensor, graded_tensor_with_rule,
                            k_factor,
                            product_signature_check, witness_even_odd,
                            witness_odd_even)
from hpsig.signature import signature_even
from hpsig.simplicial import cap_duality, load_simplicial
from hpsig.spectral import eig_hermitian

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

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


@pytest.mark.parametrize("a, b", [("cp2", "torus"), ("circle", "sphere"),
                                  ("cp2", "circle"), ("circle", "circle")],
                         ids=["even_x_even", "odd_x_even", "even_x_odd", "odd_x_odd"])
def test_reported_dims_are_those_of_the_product(a, b):
    # product_signature_check builds no product for mixed parity, so it
    # reports the convolution of the factors' dims, which it must equal
    a, b = MODELS[a][0](), MODELS[b][0]()
    rep = product_signature_check(a, b)
    assert rep.extras["dims"] == list(graded_tensor(a, b).space.dims)
    assert all(type(k) is int for k in rep.extras["dims"])


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


def _shipped_complexes():
    """Every complex a fixture file ships, and each triangulation's cap duality."""
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        if "facets" in doc:
            yield path.stem, cap_duality(load_simplicial(doc))
        elif "dims" in doc:
            yield path.stem, hpcomplex_from_json(doc)
        else:
            for key in ("source", "target", "fiber"):
                if key in doc:
                    yield f"{path.stem}.{key}", hpcomplex_from_json(doc[key])


def test_grading_operator_exact_identities():
    # eps D eps = -D and eps S eps = (-1)^n S hold bitwise, so the
    # parity-violating part of every D +- S the package certifies is 0
    seen = 0
    for name, c in _shipped_complexes():
        e = np.diag(c.space.parity)
        d, s = c.D_on, c.S_on
        assert np.array_equal(e @ e, np.eye(c.total_dim)), name
        assert np.array_equal(e @ c.d_total, -c.d_total @ e), name
        assert np.array_equal(e @ d @ e, -d), name
        assert np.array_equal(e @ s @ e, (-1) ** c.n * s), name
        seen += 1
    assert seen == 26


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
    a = rescale_inner_products(fixtures.torus_model(), 2.0)
    t = graded_tensor(a, fixtures.circle_model())
    rep = validate(t)
    assert rep.passed and rep.tier_achieved == "strict"
    assert t.space.has_weights


def kron_loop_tensor(a: HPComplex, b: HPComplex) -> HPComplex:
    """a (x) b under the derived sign rule, built as the product once was:
    the Kronecker products of G, d and S of each summand added into
    complex128 zeros at its offsets."""
    m, n = a.n, b.n
    rule = derive_sign_rule(m, n)
    pairs = [[(p, k - p) for p in range(max(0, k - n), min(m, k) + 1)]
             for k in range(m + n + 1)]
    offs, dims = {}, []
    for summands in pairs:
        dims.append(0)
        for (p, q) in summands:
            offs[(p, q)] = dims[-1]
            dims[-1] += a.space.dims[p] * b.space.dims[q]
    start = np.cumsum([0, *dims])

    def add(out, r, c, piece):
        out[r:r + piece.shape[0], c:c + piece.shape[1]] += piece

    inner = [np.zeros((dim, dim), complex) for dim in dims]
    ds = [np.zeros((dims[k + 1], dims[k]), complex) for k in range(m + n)]
    S = np.zeros((start[-1], start[-1]), complex)
    for k, summands in enumerate(pairs):
        for (p, q) in summands:
            o = offs[(p, q)]
            add(inner[k], o, o, np.kron(a.space.g_block(p), b.space.g_block(q)))
            if p < m:
                add(ds[k], offs[(p + 1, q)], o, np.kron(a.d[p], np.eye(b.space.dims[q])))
            if q < n:
                add(ds[k], offs[(p, q + 1)], o,
                    (-1.0) ** p * np.kron(np.eye(a.space.dims[p]), b.d[q]))
            sa = a.S[a.space.degree_slice(m - p), a.space.degree_slice(p)]
            sb = b.S[b.space.degree_slice(n - q), b.space.degree_slice(q)]
            add(S, start[m + n - k] + offs[(m - p, n - q)], start[k] + o,
                rule.sigma(p, q) * np.kron(sa, sb))
    weighted = a.space.has_weights or b.space.has_weights
    return HPComplex(GradedSpace(m + n, tuple(dims), tuple(inner) if weighted else None),
                     tuple(ds), S)


def _strict(n: int, blocks: int, weight: float = 1.0):
    return lambda: rescale_inner_products(
        fixtures.random_strict_complex(np.random.default_rng([n, blocks]), n, blocks), weight)


# the five parity pairs of the benchmark's signature workload, and a
# weighted factor
TENSOR_PAIRS = {
    "cp2_model x strict_n4_b4": (fixtures.cp2_model, _strict(4, 4)),
    "strict_n1_b4 x strict_n1_b8": (_strict(1, 4), _strict(1, 8)),
    "strict_n1_b32 x cp2_model": (_strict(1, 32), fixtures.cp2_model),
    "torus_model x strict_n4_b8": (fixtures.torus_model, _strict(4, 8)),
    "cp2_model x strict_n1_b32": (fixtures.cp2_model, _strict(1, 32)),
    "weighted_strict_n4_b8 x circle_model": (_strict(4, 8, 2.0), fixtures.circle_model),
}


@pytest.mark.parametrize("name", sorted(TENSOR_PAIRS))
def test_graded_tensor_equals_the_kron_loop_bytes(name):
    a, b = (build() for build in TENSOR_PAIRS[name])
    got, want = graded_tensor(a, b), kron_loop_tensor(a, b)
    assert got.space.dims == want.space.dims
    for x, y in zip((*got.d, got.S, *got.space.inner), (*want.d, want.S, *want.space.inner)):
        assert (x is None) == (y is None)
        if y is not None:
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()


def test_witness_even_odd_point_circle():
    rep = witness_even_odd(fixtures.point_model(), fixtures.circle_model())
    assert rep.passed
    assert max(i.residual for i in rep.identities if "positivity" in i.name) <= 1e-12


def test_witness_even_odd_sphere_circle_one_identity_two_certificates():
    rep = witness_even_odd(fixtures.sphere_model(), fixtures.circle_model())
    assert rep.passed
    assert [i.name for i in rep.identities] == ["positivity"]
    assert len(rep.certificates) == 2 and all(c.passed for c in rep.certificates)


def test_witness_even_odd_with_nonzero_differentials():
    rep = witness_even_odd(fixtures.hyperbolic_even(), fixtures.hyperbolic_odd())
    assert rep.passed
    assert max(i.residual for i in rep.identities) <= 1e-9


def test_witness_even_odd_rejects_zero_duality():
    b = HPComplex(GradedSpace(1, (1, 1)), (np.zeros((1, 1)),),
                  np.zeros((2, 2)), "strict")
    with pytest.raises(StructuralError):
        witness_even_odd(fixtures.sphere_model(), b)


def _sphere_cap():
    return cap_duality(fixtures.sphere_triangulation())


def _circle_cap():
    return cap_duality(fixtures.circle_triangulation())


@pytest.mark.parametrize("witness, a, b, who", [
    (witness_even_odd, _sphere_cap, fixtures.circle_model, "even"),
    (witness_even_odd, fixtures.sphere_model, _circle_cap, "odd"),
    (witness_odd_even, fixtures.circle_model, _sphere_cap, "even"),
], ids=["even_odd-even", "even_odd-odd", "odd_even-even"])
def test_witnesses_reject_poincare_factors_off_the_strict_tier(witness, a, b, who):
    # the symmetrized cap dualities validate, but S^2 = 1 fails on them
    a, b = a(), b()
    assert validate(a).passed and validate(b).passed
    with pytest.raises(StructuralError, match=f"{who} factor must validate at the strict tier"):
        witness(a, b)


def test_witness_even_odd_parity_check():
    with pytest.raises(DomainError):
        witness_even_odd(fixtures.circle_model(), fixtures.sphere_model())


def _kron_witness(a, b, grid):
    """Dense reference for witness_even_odd: W and W*W less its model built as
    (dim a * dim b)-size Kronecker products at each s of grid.  Returns the
    residuals of the positivity identity over both signs and the grid, and
    per sign of B+- the smallest and largest singular value of W over the
    grid.  It also checks the endpoints the witness interpolates between: W
    at s = 0 is B (x) 1 + 1 (x) S_b D_b, and B/|B| is the difference of the
    spectral projections of B and -B."""
    sd, d2 = b.S_on @ b.D_on, b.D_on @ b.D_on
    eye_a, eye_b = np.eye(a.total_dim), np.eye(b.total_dim)
    norm = lambda m: float(np.linalg.norm(m, 2))
    resids, extremes = [], []
    for bop in (a.D_on + a.S_on, a.D_on - a.S_on):
        es = eig_hermitian(bop)
        singular = []
        for s in grid:
            w = (np.kron(es.apply(lambda x: np.sign(x) * abs(x) ** (1.0 - s)), eye_b)
                 + np.kron(eye_a, sd))
            rhs = (np.kron(es.apply(lambda x: abs(x) ** (2.0 * (1.0 - s))), eye_b)
                   + np.kron(eye_a, d2))
            resids.append(norm(w.conj().T @ w - rhs) / max(1.0, norm(rhs)))
            singular.append(np.linalg.svd(w, compute_uv=False))
        extremes.append((min(sv.min() for sv in singular), max(sv.max() for sv in singular)))
        w0 = np.kron(bop, eye_b) + np.kron(eye_a, sd)
        r0 = norm(np.kron(es.apply(lambda x: x), eye_b) + np.kron(eye_a, sd) - w0)
        assert r0 <= IDENTITY_TOL * max(1.0, norm(w0))

        def positive(m):
            return eig_hermitian(m).apply(lambda x: 1.0 if x > 0 else 0.0)

        assert norm(es.apply(np.sign) - positive(bop) + positive(-bop)) <= IDENTITY_TOL
    return resids, extremes


def _assert_bounds_the_kronecker_witness(rep, a, b):
    """The report's one residual and two certificates hold for all s in
    [0, 1]: they bound the dense reference at 101 times of it."""
    resids, extremes = _kron_witness(a, b, np.linspace(0.0, 1.0, 101))
    (positivity,) = rep.identities
    assert positivity.name == "positivity"
    # where the identity holds exactly, the dense residuals are the rounding
    # of the Kronecker products, of order their size times eps
    rounding = a.total_dim * b.total_dim * np.finfo(float).eps
    assert max(resids) <= positivity.residual + rounding
    assert len(rep.certificates) == 2
    for cert, (smin, smax) in zip(rep.certificates, extremes):
        assert cert.min_singular <= smin
        assert cert.max_singular >= smax


def _even_odd_pairs():
    pairs = [(fixtures.point_model(), fixtures.circle_model()),
             (fixtures.sphere_model(), fixtures.circle_model()),
             (fixtures.torus_model(), fixtures.hyperbolic_odd()),
             (fixtures.hyperbolic_even(), fixtures.hyperbolic_odd())]
    rng = np.random.default_rng(8)
    for n_even, blocks in ((2, 2), (2, 3), (4, 1)):
        pairs.append((fixtures.random_strict_complex(rng, n_even, blocks),
                      fixtures.random_strict_complex(rng, 1, 2)))
    # |B+-| = 1 on cp2; |B+-| = sqrt 2 > 1 = sigma_min(W_1) over the kernel of D_b;
    # with D_b = 0, ||W_0|| = max |B+-|, which ranges over [1, sqrt 2] here
    pairs += [(fixtures.cp2_model(), fixtures.circle_model()),
              (fixtures.hyperbolic_even(), fixtures.circle_model()),
              (fixtures.random_strict_complex(np.random.default_rng(8), 2, 3),
               fixtures.circle_model())]
    # S_on Hermitian only up to rounding: the witness reads |B+-| with the
    # nonzero slack of the cached spectrum
    pairs.append((rescale_inner_products(fixtures.hyperbolic_even(), 0.3),
                  fixtures.hyperbolic_odd()))
    assert pairs[-1][0].spectrum.slack > 0
    return pairs


@pytest.mark.parametrize("index", range(11))
def test_witness_even_odd_blocks_match_the_kronecker_witness(index):
    a, b = _even_odd_pairs()[index]
    rep = witness_even_odd(a, b)
    _assert_bounds_the_kronecker_witness(rep, a, b)
    assert rep.passed


def _loose_odd_factors() -> dict:
    """Odd factors that pass the strict tier only under a loose tol.sym, each
    with that tolerance; S = S_b and D = D_b."""
    h = fixtures.hyperbolic_odd()
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return {
        # S + 1e-6 swap: SD + DS = 2e-6, while S^2 - 1 = 1e-12
        "rough": (HPComplex(h.space, h.d, np.asarray(h.S) + 1e-6 * swap, "strict"),
                  Tolerances(sym=1e-4)),
        # 1.001 S: SD = -DS still, but (SD)*(SD) - D^2 = 0.002001 D^2
        "scaled": (HPComplex(h.space, h.d, 1.001 * np.asarray(h.S), "strict"),
                   Tolerances(sym=1e-2)),
        # S = swap with d = -1.2: SD = -1.2, so the block |lam|^(1-s) + SD of
        # W_s is 0 where |lam|^(1-s) = 1.2
        "singular": (HPComplex(h.space, (np.array([[-1.2]], dtype=complex),), swap,
                               "strict"), Tolerances(sym=2.5)),
    }


@pytest.mark.parametrize("name", ["rough", "scaled", "singular"])
def test_witness_even_odd_bounds_the_kronecker_witness_off_the_strict_tier(name):
    b, tol = _loose_odd_factors()[name]
    a = fixtures.hyperbolic_even()
    rep_b = validate(b, tol)
    assert rep_b.passed and rep_b.tier_achieved == "strict"
    rep = witness_even_odd(a, b, tol=tol)
    _assert_bounds_the_kronecker_witness(rep, a, b)
    assert not rep.passed


def test_witness_even_odd_fails_positivity_when_s_anticommutes_only_roughly():
    # S + 1e-6 E stays Hermitian and degree-reversing; S'^2 = 1 + 1e-12 and
    # S'D + DS' = 1e-6 E D pass at the strict tier under tol.sym = 1e-4, but
    # W*W = |B|^(2 - 2s) (x) 1 + 1 (x) D^2 fails by about 1e-6
    b, tol = _loose_odd_factors()["rough"]
    rep_b = validate(b, tol)
    assert rep_b.passed and rep_b.tier_achieved == "strict"
    rep = witness_even_odd(fixtures.sphere_model(), b, tol=tol)
    positivity = [i for i in rep.identities if i.name.startswith("positivity")]
    assert len(positivity) == 1
    assert not any(i.passed for i in positivity)
    assert min(i.residual for i in positivity) > 1e3 * IDENTITY_TOL
    assert not rep.passed


def test_witness_even_odd_fails_its_certificate_where_w_is_singular_inside():
    # W_s of the B+ and B- eigenvalues sqrt 2 is singular at the interior
    # s* = 1 - log 1.2 / log sqrt 2, between the certified endpoints
    b, tol = _loose_odd_factors()["singular"]
    a = fixtures.hyperbolic_even()
    s_star = 1.0 - np.log(1.2) / np.log(np.sqrt(2.0))
    _, extremes = _kron_witness(a, b, [0.0, 1.0])
    assert all(smin > 0.19 for smin, _ in extremes)
    _, extremes = _kron_witness(a, b, [s_star])
    assert all(smin < 1e-12 for smin, _ in extremes)
    rep = witness_even_odd(a, b, tol=tol)
    assert not any(c.passed for c in rep.certificates)
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
