"""Axiom validation, sums, rescaling, orientation reversal, JSON round trips."""

import json
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from hpsig import fixtures
from hpsig.family import fibered_from_json, total_complex
from hpsig.hpc_core import (DEFAULT_TOL, GradedSpace, HPComplex, StructuralError,
                            DomainError, DualityDegenerateError, Tolerances, direct_sum,
                            hpcomplex_from_json, hpcomplex_to_json, require_valid,
                            rescale_inner_products, reverse_orientation, validate)
from hpsig.products import graded_tensor, product_signature_check
from hpsig.rho import identity_equivalence, rho_path
from hpsig.signature import _point, signature_even
from hpsig.simplicial import (betti_numbers, cap_duality, cochain_complex, load_simplicial,
                              orient_facets)
from hpsig.spectral import operator_norm

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_point_strict_tier_passes():
    rep = validate(fixtures.point_model())
    assert rep.passed
    assert rep.tier_achieved == "strict"
    assert rep.cert_plus.min_singular == pytest.approx(1.0)
    assert rep.cert_minus.min_singular == pytest.approx(1.0)


def test_point_with_zero_duality_fails_invertibility():
    space = GradedSpace(0, (1,))
    c = HPComplex(space, (), np.array([[0.0]], dtype=complex), "weak")
    rep = validate(c)
    assert not rep.poincare
    assert rep.cert_plus.min_singular == 0.0


@pytest.mark.parametrize("call", [
    require_valid,
    lambda c: rho_path(identity_equivalence(c)),
    lambda c: product_signature_check(c, fixtures.circle_model()),
], ids=["require_valid", "rho_path", "product_signature_check"])
def test_validation_failures_name_the_failing_checks(call):
    # S doubled, declared strict: D +- 2S stays invertible and 2S
    # anticommutes with D, so only the check S^2 = 1 fails
    c = fixtures.sphere_model()
    doubled = HPComplex(c.space, c.d, 2.0 * np.asarray(c.S), "strict")
    with pytest.raises(StructuralError, match=r"axiom checks: \['strict_S_squared'\]"):
        call(doubled)
    zero = HPComplex(GradedSpace(0, (1,)), (), np.array([[0.0]], dtype=complex), "weak")
    with pytest.raises(DualityDegenerateError, match="duality degenerate"):
        call(zero)
    call(c)


def test_torus_cap_duality_weak_tier_passes():
    cap = cap_duality(fixtures.torus_triangulation())
    rep = validate(cap)
    assert rep.passed and rep.poincare
    # residuals on record for the symmetrization outcome, strict ones included
    assert rep.check("S_self_adjoint").residual <= rep.check("S_self_adjoint").threshold
    assert rep.strict_s_squared_residual >= 0.0
    assert rep.strict_anticommute_residual >= 0.0
    assert cap.meta["duality"] == "symmetrized-cap"
    # brute-force invertibility oracle, independent of the certificate path:
    # solve against the identity and check the reconstruction
    for sign in (+1, -1):
        a = cap.D + sign * np.asarray(cap.S)
        x = np.linalg.solve(a, np.eye(cap.total_dim))
        assert np.abs(a @ x - np.eye(cap.total_dim)).max() < 1e-10


def test_direct_sum_point_point():
    s = direct_sum(fixtures.point_model(), fixtures.point_model())
    assert s.space.dims == (2,)
    assert signature_even(s) == 2


def test_direct_sum_rejects_mismatched_top_degree():
    with pytest.raises(StructuralError):
        direct_sum(fixtures.sphere_model(), fixtures.cp2_model())


def test_direct_sum_with_reversed_orientation_cancels():
    c = fixtures.cp2_model()
    s = direct_sum(c, reverse_orientation(c))
    assert signature_even(s) == 0


def test_rescale_identity_factor_is_noop():
    c = fixtures.sphere_model()
    assert rescale_inner_products(c, 1.0) is c


def test_rescale_point_signature_invariant():
    for lam in (0.1, 0.5, 1.0, 2.0, 10.0):
        assert signature_even(rescale_inner_products(fixtures.point_model(), lam)) == 1


def test_rescale_rejects_nonpositive():
    with pytest.raises(DomainError):
        rescale_inner_products(fixtures.point_model(), 0.0)
    with pytest.raises(DomainError):
        rescale_inner_products(fixtures.point_model(), -2.0)


def test_rescale_scales_nonzero_spectrum_by_inverse_sqrt():
    # expected values from an independent eigendecomposition before/after
    cap = cap_duality(fixtures.sphere_triangulation())
    before = np.linalg.eigvalsh(cap.D_on)
    nonzero_before = np.sort(np.abs(before[np.abs(before) > 1e-8]))
    lam = 4.0
    after = np.linalg.eigvalsh(rescale_inner_products(cap, lam).D_on)
    nonzero_after = np.sort(np.abs(after[np.abs(after) > 1e-8]))
    assert nonzero_after == pytest.approx(nonzero_before / np.sqrt(lam))
    # harmonic model: D = 0, nothing to scale, signature stays put
    model = rescale_inner_products(fixtures.sphere_model(), lam)
    assert np.abs(model.D).max() == 0.0
    assert signature_even(model) == 0


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_rescale_preserves_signature_on_all_even_fixtures(lam):
    for build in (fixtures.sphere_model, fixtures.torus_model, fixtures.cp2_model):
        c = build()
        assert signature_even(rescale_inner_products(c, lam)) == signature_even(c)
    cap = cap_duality(fixtures.sphere_triangulation())
    assert signature_even(rescale_inner_products(cap, lam)) == signature_even(cap)


def test_rescale_keeps_self_adjointness_and_tier():
    cap = cap_duality(fixtures.torus_triangulation())
    rep = validate(rescale_inner_products(cap, 3.7))
    assert rep.passed
    strict = rescale_inner_products(fixtures.cp2_model(), 2.5)
    rep = validate(strict)
    assert rep.passed and rep.tier_achieved == "strict"


def test_reverse_orientation_negates_signature():
    for build in (fixtures.point_model, fixtures.sphere_model, fixtures.cp2_model):
        c = build()
        assert signature_even(reverse_orientation(c)) == -signature_even(c)


def test_reverse_orientation_is_involution():
    c = fixtures.cp2_model()
    back = reverse_orientation(reverse_orientation(c))
    assert np.array_equal(np.asarray(back.S), np.asarray(c.S))


def test_signature_additivity_on_even_pairs():
    builds = [fixtures.sphere_model, fixtures.torus_model]
    for ba in builds:
        for bb in builds:
            a, b = ba(), bb()
            assert signature_even(direct_sum(a, b)) == signature_even(a) + signature_even(b)
    a, b = fixtures.cp2_model(), fixtures.cp2_model()
    assert signature_even(direct_sum(a, b)) == 2


def test_cochain_differentials_exact():
    for build in (fixtures.sphere_triangulation, fixtures.torus_triangulation):
        c = cochain_complex(build())
        d = c.d_total
        assert np.abs(d @ d).max() == 0.0
        for dp in c.d:
            assert np.array_equal(dp, np.round(dp.real))


def test_validate_is_deterministic():
    cap = cap_duality(fixtures.torus_triangulation())
    a = json.dumps(validate(cap).to_dict(), sort_keys=True)
    b = json.dumps(validate(cap).to_dict(), sort_keys=True)
    assert a == b


def test_validate_requires_positive_definite_inner_products():
    bad = GradedSpace(0, (2,), (np.array([[1.0, 0.0], [0.0, -1.0]]),))
    c = HPComplex(bad, (), np.eye(2, dtype=complex), "weak")
    with pytest.raises(StructuralError):
        validate(c)


def test_dimension_mismatch_rejected():
    space = GradedSpace(1, (1, 1))
    with pytest.raises(StructuralError):
        HPComplex(space, (np.zeros((2, 1)),), None, "weak")
    with pytest.raises(StructuralError):
        HPComplex(space, (np.zeros((1, 1)),), np.zeros((3, 3)), "weak")


def test_duality_block_pattern_enforced():
    # an entry on a degree-preserving block violates the reversal pattern
    c = fixtures.sphere_model()
    bad = np.array(c.S)
    bad[0, 0] = 0.5
    rep = validate(HPComplex(c.space, c.d, bad, "weak"))
    assert not rep.check("S_degree_reversing").passed
    assert not rep.passed



def test_blockwise_residuals_match_the_full_size_definitions():
    # d^2 is read over its blocks d_{p+1} d_p, and the entries of S outside
    # the pattern p -> n - p per column degree; the references are the
    # full-size product and mask
    cap = cap_duality(load_simplicial(json.loads((FIXTURE_DIR / "cp2_9.json").read_text())))
    sp = cap.space
    # integer and dyadic entries: both products are exact
    for d in (cap.d, cap.d[:1] + (cap.d[1] + 0.5,) + cap.d[2:]):
        c = HPComplex(sp, d, cap.S, "weak")
        dt = c.d_total
        assert c.d_squared_residual == float(np.abs(dt @ dt).max())
    assert cap.d_squared_residual == 0.0 < c.d_squared_residual
    degree = np.repeat(np.arange(sp.n + 1), sp.dims)
    for q in range(sp.n + 1):
        for p in range(sp.n + 1):
            s = np.array(cap.S)
            s[sp.offsets[q], sp.offsets[p]] += 0.25 * (1 + q + 2 * p)
            c = HPComplex(sp, cap.d, s, "weak")
            ref = float(np.where(degree[:, None] + degree == sp.n, 0.0, np.abs(s)).max())
            assert c.S_block_residual == ref
            assert (ref > 0) == (q != sp.n - p)

def test_json_round_trip_exact():
    for build in (fixtures.cp2_model, fixtures.torus_model, fixtures.hyperbolic_even):
        c = build()
        back = hpcomplex_from_json(hpcomplex_to_json(c))
        assert back.space.dims == c.space.dims
        assert np.array_equal(np.asarray(back.S), np.asarray(c.S))
        for d1, d2 in zip(back.d, c.d):
            assert np.array_equal(d1, d2)
        assert back.tier == c.tier


def _cp2_9_cap():
    return cap_duality(load_simplicial(json.loads((FIXTURE_DIR / "cp2_9.json").read_text())))


@pytest.mark.parametrize("imag,dtype", [(0.0, np.float64), (1e-300, np.complex128),
                                        (-0.0, np.complex128)],
                         ids=["plus_zero", "tiny", "minus_zero"])
def test_operators_are_stored_real_exactly_when_every_imaginary_part_is_plus_zero(imag,
                                                                                  dtype):
    # one imaginary part of the stored operators of cp2_9's cap duality set
    # to imag in turn: d_1, S and an inner product G_2 = 1
    cap = _cp2_9_cap()
    assert cap.S.dtype == np.float64
    assert all(dp.dtype == np.float64 for dp in cap.d)

    def edited(a):
        out = np.array(a, dtype=complex)
        i, j = np.argwhere(out != 0)[0]
        out[i, j] = complex(out[i, j].real, imag)
        return out

    d = list(cap.d)
    d[1] = edited(d[1])
    inner = [None] * (cap.n + 1)
    inner[2] = edited(np.eye(cap.space.dims[2]))
    space = GradedSpace(cap.n, cap.space.dims, tuple(inner))
    for c, stored, given in (
            (HPComplex(cap.space, tuple(d), cap.S), lambda c: c.d[1], d[1]),
            (HPComplex(cap.space, cap.d, edited(cap.S)), lambda c: c.S, edited(cap.S)),
            (HPComplex(space, cap.d, cap.S), lambda c: c.space.inner[2], inner[2])):
        # the stored bits are the given ones, signed zeros included
        assert stored(c).dtype == dtype
        want = given.real if dtype == np.float64 else given
        assert stored(c).tobytes() == np.ascontiguousarray(want).tobytes()
    # d_total and D take the dtype of the blocks
    c = HPComplex(cap.space, tuple(d), cap.S)
    assert c.d_total.dtype == c.D.dtype == dtype
    assert all(dp.dtype == np.float64 for p, dp in enumerate(c.d) if p != 1)


@pytest.mark.parametrize("name,real", [("point", True), ("circle3", True), ("sphere_d3", False),
                                       ("torus7", False), ("cp2_9", True)])
def test_cap_dualities_are_real_for_n_0_and_1_mod_4(name, real):
    sm = load_simplicial(json.loads((FIXTURE_DIR / f"{name}.json").read_text()))
    cap = cap_duality(sm)
    assert cap.S.dtype == (np.float64 if real else np.complex128)
    assert all(dp.dtype == np.float64 for dp in cochain_complex(sm).d + cap.d)


def test_reverse_orientation_of_a_real_duality_is_stored_complex():
    # the flipped S has imaginary parts -0.0, which the shipped
    # he_offgrid_crossing.json pins
    c = fixtures.circle_model()
    assert c.S.dtype == np.float64
    flipped = reverse_orientation(c).S
    assert flipped.dtype == np.complex128
    assert np.signbit(flipped.imag).all() and np.array_equal(flipped, -c.S)


def _encoded(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("path", sorted(p.name for p in FIXTURE_DIR.glob("*.json")
                                        if p.name.startswith(("he_", "fc_"))
                                        or p.name.endswith("_model.json")))
def test_json_round_trips_of_the_shipped_files_are_byte_identical(path):
    from hpsig.family import fibered_to_json
    from hpsig.rho import he_from_json, he_to_json

    text = (FIXTURE_DIR / path).read_text()
    doc = json.loads(text)
    if path.startswith("he_"):
        back = he_to_json(he_from_json(doc))
    elif path.startswith("fc_"):
        back = fibered_to_json(fibered_from_json(doc))
    else:
        back = hpcomplex_to_json(hpcomplex_from_json(doc))
    assert _encoded(back) == text


def test_json_round_trip_with_weights():
    c = rescale_inner_products(fixtures.torus_model(), 3.0)
    back = hpcomplex_from_json(hpcomplex_to_json(c))
    for p in range(c.n + 1):
        assert np.allclose(back.space.g_block(p), c.space.g_block(p), atol=0, rtol=0)
    assert validate(back).passed


def test_complex_betti_matches_known_values(complex_betti):
    # the float ranks of the test-side helper agree with the exact oracle
    for sm, want in ((fixtures.sphere_triangulation(), (1, 0, 1)),
                     (fixtures.torus_triangulation(), (1, 2, 1))):
        assert complex_betti(cochain_complex(sm)) == betti_numbers(sm) == want


def _shipped_complexes():
    """Each shipped complex fixture, and the cap duality of each shipped
    triangulation, as a function building a fresh copy."""
    out = {}
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        if "facets" in doc:
            out[path.stem] = lambda doc=doc: cap_duality(load_simplicial(doc))
        elif "dims" in doc:
            out[path.stem] = lambda doc=doc: hpcomplex_from_json(doc)
    return out


def _roughly_strict():
    # strict under sym = 1e-3, weak under the default 1e-10
    c = fixtures.hyperbolic_odd()
    return HPComplex(c.space, c.d, c.S + 1e-6 * np.array([[0, 1], [1, 0]]), "weak")


SHIPPED = {**_shipped_complexes(), "roughly_strict": _roughly_strict}
TOLERANCES = (DEFAULT_TOL, Tolerances(sym=1e-3, inv=1e-2))


@pytest.mark.parametrize("name", sorted(SHIPPED))
@pytest.mark.parametrize("order", [1, -1])
def test_validate_caches_nothing_that_depends_on_the_tolerances(name, order):
    first, second = TOLERANCES[::order]
    c = SHIPPED[name]()
    before = validate(c, first)
    again = validate(c, second).to_dict()
    assert again == validate(SHIPPED[name](), second).to_dict()
    assert validate(c, first).to_dict() == before.to_dict()
    if name == "roughly_strict":
        assert before.tier_achieved != again["tier_achieved"]


CACHED_NORMS = ("S_norm", "S_skew", "S_squared_residual", "anticommute_residual", "D_norm")


def full_size_norms(c: HPComplex) -> list[float]:
    """The five cached norms, each one SVD of the whole matrix."""
    s, d, eye = c.S_on, c.D_on, np.eye(c.total_dim)
    return [operator_norm(m) for m in (s, s - s.conj().T, s @ s - eye, s @ d + d @ s, d)]


def _fc_sphere_x_cp2_total():
    doc = json.loads((FIXTURE_DIR / "fc_sphere_x_cp2.json").read_text())
    return total_complex(fibered_from_json(doc))


NORM_REFERENCE = {
    **{f"cap_{name}": lambda name=name: cap_duality(getattr(fixtures, f"{name}_triangulation")())
       for name in ("circle", "sphere", "torus", "cp2")},
    "cp2_9_weighted": lambda: rescale_inner_products(cap_duality(load_simplicial(
        json.loads((FIXTURE_DIR / "cp2_9.json").read_text()))), 2.0),
    **{name: getattr(fixtures, name) for name in ("point_model", "circle_model", "sphere_model",
                                                  "torus_model", "cp2_model")},
    **{f"random_n{n}_seed{seed}": lambda n=n, seed=seed: fixtures.random_strict_complex(
        np.random.default_rng(seed), n, 3) for n in (1, 2, 4) for seed in (0, 1)},
    "fc_sphere_x_cp2_total": _fc_sphere_x_cp2_total,
}


def _assert_cached_norms_match(c: HPComplex) -> None:
    """||S - S*|| and ||D|| are taken over the connected degree-block groups
    of their matrix, a direct sum up to a permutation: neither may move.
    ||S||, ||S^2 - 1|| and ||SD + DS|| are read off the self-adjoint part of
    S, exactly when S is self-adjoint and degree-reversing, as it is here up
    to rounding; the last two sum the same products in another order than
    the dense reference, so they may also move by
    N eps ||S|| max(||S||, ||D||, 1), the rounding of the products."""
    ref = full_size_norms(c)
    ours = [getattr(c, norm) for norm in CACHED_NORMS]
    rounding = c.total_dim * np.finfo(float).eps * ref[0] * max(ref[0], ref[4], 1.0)
    for i, (got, want) in enumerate(zip(ours, ref)):
        product = CACHED_NORMS[i] in ("S_squared_residual", "anticommute_residual")
        assert got == pytest.approx(want, rel=1e-13, abs=rounding if product else 0)


@pytest.mark.parametrize("name", sorted(NORM_REFERENCE))
def test_cached_norms_match_the_full_size_norms(name):
    _assert_cached_norms_match(NORM_REFERENCE[name]())


def test_cached_norms_see_entries_outside_the_duality_pattern():
    # S maps degree p to n - p; on cp2_9 the blocks S[4, 0] and S[0, 4] carry
    # ||S||.  An entry from degree 0 to degree 0 merges the groups of
    # ||S - S*||, which only a norm that reads the whole pattern of nonzero
    # blocks sees; ||S||, ||S^2 - 1|| and ||SD + DS|| see it through e, the
    # Frobenius norm of the entries outside the self-adjoint part of S
    cap = cap_duality(load_simplicial(json.loads((FIXTURE_DIR / "cp2_9.json").read_text())))
    s = np.array(cap.S)
    s[0, 1] += 1e-3
    c = HPComplex(cap.space, cap.d, s, cap.tier)
    assert c.S_block_residual == pytest.approx(1e-3)
    assert c.S_skew == pytest.approx(1e-3)
    s_, skew, _, _, d = full_size_norms(c)
    assert (c.S_skew, c.D_norm) == (pytest.approx(skew, rel=1e-13, abs=0),
                                    pytest.approx(d, rel=1e-13, abs=0))
    assert c._s_part.rest == pytest.approx(1e-3)
    _assert_norm_bounds(c)
    # each bound is the cap duality's own norm plus terms of the order of e
    # (its slack: e, e (2 ||h|| + e) and 2 e ||D||_F)
    e, frobenius_d = 1e-3, float(np.linalg.norm(c.D_on))
    for got, base in zip(_bounded_norms(c), _bounded_norms(cap)):
        assert base < got <= base + 2.0 * e * (2.0 * s_ + e + frobenius_d)


SCALED_SUMS = {
    "cap_torus": lambda: cap_duality(fixtures.torus_triangulation()),
    "cap_circle": lambda: cap_duality(fixtures.circle_triangulation()),
    **{f"random_n{n}": lambda n=n: fixtures.random_strict_complex(np.random.default_rng(5), n, 3)
       for n in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(SCALED_SUMS))
def test_scaled_graded_sum_equals_the_rebuilt_one(name):
    # for a D that keeps the grading rules exactly, a schedule sample writes
    # s D into a copy of the Hermitian part of S: every operand and spectrum
    # must be bitwise those of a sum built from s D
    from hpsig.hpc_core import GradedSum
    c = SCALED_SUMS[name]()
    gs = c.graded
    assert gs.d_skew == gs.d_off_parity == 0.0
    s = 7.0 ** -0.5
    ref = GradedSum(c.space.grading, c.n, s * c.D_on, c.S_on)
    h = gs.hermitian_part(c.S_on)
    held = h.copy()
    ours = gs.spectrum_of(h.copy() if gs.even_n else h, gs.slack(h, c.S_skew), s)
    for a, b in zip(ours, ref.spectrum(c.S_on, c.S_skew)):
        assert np.array_equal(a, b)
    if c.n % 2:
        for a, b in zip(gs.blocks(gs.operand(c.S_on), s), ref.blocks(ref.operand(c.S_on))):
            assert np.array_equal(a, b)
    # a sample leaves the Hermitian part it is handed as it was, and the
    # unscaled sum as it was
    _point(c, DEFAULT_TOL, s, h)
    assert np.array_equal(h.view(np.uint8), held.view(np.uint8))
    assert np.array_equal(gs.spectrum(c.S_on, c.S_skew).plus, c.spectrum.plus)


# D +- S of an even complex is decomposed one connected component of its
# nonzero pattern at a time: the union of the blocks' spectra against one
# dense eigvalsh of the same operand (conftest's split_agrees)


def _permuted_block_diagonal(rng) -> tuple[np.ndarray, int, int]:
    """A Hermitian direct sum of dense blocks of 1 to 6 rows, some of them
    zero, under a random symmetric permutation, with its number of
    components (each index of a zero block is one) and of zero eigenvalues."""
    sizes = rng.integers(1, 7, size=int(rng.integers(1, 6)))
    m = np.zeros((sizes.sum(), sizes.sum()), dtype=complex if rng.random() < 0.5 else float)
    at = components = zeros = 0
    for k in sizes:
        if rng.random() < 0.2:
            components, zeros = components + k, zeros + k
        else:
            a = rng.standard_normal((k, k)) + (1j * rng.standard_normal((k, k))
                                                if m.dtype == complex else 0.0)
            m[at:at + k, at:at + k] = a + a.conj().T
            components += 1
        at += k
    perm = rng.permutation(len(m))
    return m[np.ix_(perm, perm)], components, zeros


def test_split_spectrum_of_permuted_block_diagonal_matrices(split_agrees):
    # top degree 0: every entry keeps the parity rule, so the operand is
    # the matrix itself; the cover is nonzero on one triangle only, and the
    # sum takes its transpose
    from hpsig.hpc_core import GradedSum
    rng = np.random.default_rng(33)
    for _ in range(200):
        m, components, zeros = _permuted_block_diagonal(rng)
        size = len(m)
        gs = GradedSum(GradedSpace(0, (size,)).grading, 0, np.zeros((size, size)), np.tril(m))
        assert len(gs._blocks) == components
        split = gs.spectrum_of(m.copy(), 0.0)
        split_agrees(split, m)
        assert np.count_nonzero(split.plus == 0.0) >= zeros


@pytest.mark.parametrize("n", [2, 4])
def test_split_spectrum_of_random_strict_complexes(n, split_agrees, graded_operand):
    # n = 4 pieces are all cp2 models, whose d is 0: D + S splits into the
    # degrees {0, 4} and {2}.  Rescaled inner products keep the pattern
    rng = np.random.default_rng(34)
    for blocks in (1, 2, 5):
        c = fixtures.random_strict_complex(rng, n, blocks)
        for lam in (1.0, 0.3, 4.0):
            scaled = rescale_inner_products(c, lam)
            split_agrees(scaled.spectrum, graded_operand(scaled))
            if n == 4:
                assert len(scaled.graded._blocks) == 2


def test_rescaled_sample_keeps_the_components_of_d_plus_s(graded_operand):
    # rescaled inner products leave D_on Hermitian only up to rounding, so a
    # schedule sample reads s D through a copy of the sum for s D; it must
    # keep the components of D + S, not find those of D alone, which over
    # the cp2 model fiber are one per fiber index
    c = rescale_inner_products(_fc_sphere_x_cp2_total(), 0.3)
    gs = c.graded
    assert gs.d_skew > 0 and len(gs._blocks) == 2
    h = gs.hermitian_part(c.S_on)
    for t in (2.0, 10.0):
        s = t ** -0.5
        point = _point(c, DEFAULT_TOL, s, h)
        dense = np.linalg.eigvalsh(graded_operand(c, s))
        bound = c.total_dim * np.finfo(float).eps * float(np.abs(dense).max())
        slack = gs.slack(h, c.S_skew)
        assert abs(point.bound - (float(np.abs(dense).min()) - slack)) <= bound
        assert point.ranks == (int((dense > 0).sum()), int((dense < 0).sum()))


@pytest.mark.parametrize("build", [fixtures.cp2_triangulation, fixtures.torus_triangulation])
def test_connected_cap_duality_is_decomposed_whole(build):
    # a cap duality links every degree to its neighbours through D and to
    # its dual through S: one component, read in place, whose spectrum is
    # bitwise one eigvalsh of the whole operand
    c = cap_duality(build())
    gs = c.graded
    assert gs._blocks == ((slice(None), slice(None)),)
    whole = np.where(c.space.grading.same, gs.hermitian_part(c.S_on), gs.hermitian) + 0.0
    assert np.array_equal(c.spectrum.plus, np.linalg.eigvalsh(whole))


# ||S||, ||S^2 - 1|| and ||SD + DS|| are read off the self-adjoint part h of S
# with a Weyl slack for e = ||S - h||_F: upper bounds, exact when e = 0


def _dense_norms(c: HPComplex) -> list[float]:
    s, d = c.S_on, c.D_on
    return [operator_norm(m) for m in (s, s @ s - np.eye(c.total_dim), s @ d + d @ s)]


def _bounded_norms(c: HPComplex) -> list[float]:
    return [c.S_norm, c.S_squared_residual, c.anticommute_residual]


def _assert_norm_bounds(c: HPComplex) -> None:
    """Each bound is at least the dense 2-norm, less N eps times its scale:
    ||S||, ||S||^2 and ||S|| ||D||, at least 1, the scales the strict-tier
    thresholds are relative to.  When e = 0 it is the dense norm up to
    1e-12 of its scale."""
    dense = _dense_norms(c)
    s, d = max(dense[0], 1.0), max(operator_norm(c.D_on), 1.0)
    for got, want, scale in zip(_bounded_norms(c), dense, (s, s * s, s * d)):
        assert got >= want - c.total_dim * np.finfo(float).eps * scale
        if c._s_part.rest == 0.0:
            assert abs(got - want) <= 1e-12 * scale


def _relabelled(sm, seed: int):
    """sm with its vertices permuted, oriented afresh."""
    perm = np.random.default_rng(seed).permutation(sm.vertices)
    facets = [[int(perm[v]) for v in f] for f in sm.facets]
    return load_simplicial({"n": sm.n, "vertices": sm.vertices, "facets": facets,
                            "orientations": orient_facets(facets, sm.n)})


def _sphere(n: int):
    """The boundary of the (n + 1)-simplex."""
    facets = [list(f) for f in combinations(range(n + 2), n + 1)]
    return load_simplicial({"n": n, "vertices": n + 2, "facets": facets,
                            "orientations": orient_facets(facets, n)})


def _random_strict(seed: int, n: int) -> HPComplex:
    """A random strict complex of top degree n = 1..4; n = 3 as the graded
    tensor of top degrees 1 and 2."""
    rng = np.random.default_rng(seed)
    if n == 3:
        return graded_tensor(fixtures.random_strict_complex(rng, 1),
                             fixtures.random_strict_complex(rng, 2))
    return fixtures.random_strict_complex(rng, n, 3)


def _random_duality(seed: int, n: int, dims: tuple[int, ...], top: float) -> HPComplex:
    """A weak complex with random d and a random S that is exactly
    self-adjoint and degree-reversing (e = 0), each X_p scaled to norm top,
    so that for top < 2^(1/2) only the zeros of a pair that is not square
    have |lambda^2 - 1| = 1."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    space = GradedSpace(n, dims)
    s = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for p in range(n // 2 + 1):
        rows, cols = space.degree_slice(n - p), space.degree_slice(p)
        x = gauss(dims[n - p], dims[p])
        if p == n - p:
            x = x + x.conj().T
        x *= top / max(operator_norm(x), 1e-300)
        s[rows, cols] = x
        s[cols, rows] = x.conj().T
    return HPComplex(space, tuple(gauss(dims[p + 1], dims[p]) for p in range(n)), s)


def _off_pattern(c: HPComplex, at: int = 0) -> HPComplex:
    """c with 3 ||S|| added to the diagonal entry at of S, in degree 0 for
    at = 0 and in degree n for at = -1: S is then not degree-reversing
    (unless n = 0), so e > 0."""
    s = np.array(c.S, dtype=complex)
    s[at, at] += 3.0 * max(c.S_norm, 1.0)
    return HPComplex(c.space, c.d, s, "weak")


NORM_BOUND_CASES = {
    **{f"random_n{n}_seed{seed}": partial(_random_strict, seed, n)
       for n in (1, 2, 3, 4) for seed in (0, 1, 2)},
    **{f"random_n{n}_rescaled{lam}": lambda n=n, lam=lam: rescale_inner_products(
        _random_strict(3, n), lam) for n in (1, 2, 3, 4) for lam in (0.5, 3.0)},
    **{f"cap_torus7_relabelled{seed}": lambda seed=seed: cap_duality(
        _relabelled(fixtures.torus_triangulation(), seed)) for seed in (1, 2)},
    **{f"cap_sphere{n}": lambda n=n: cap_duality(_sphere(n)) for n in (1, 2, 3, 4)},
    "cap_cp2_9": lambda: cap_duality(_relabelled(fixtures.cp2_triangulation(), 3)),
    "cap_cp2_9_rescaled": lambda: rescale_inner_products(
        cap_duality(fixtures.cp2_triangulation()), 2.0),
    **{f"random_weak_n{n}_seed{seed}": partial(_random_duality, seed, n, dims, 1.2)
       for n, dims in ((1, (3, 2)), (2, (2, 1, 3)), (3, (1, 3, 2, 2))) for seed in (0, 1, 2)},
    **{f"off_pattern_random_n{n}": lambda n=n: _off_pattern(_random_strict(4, n))
       for n in (1, 2, 3, 4)},
    "off_pattern_cap_sphere3": lambda: _off_pattern(cap_duality(_sphere(3))),
    **{f"off_pattern_top_random_n{n}": lambda n=n: _off_pattern(_random_strict(5, n), -1)
       for n in (1, 2, 3, 4)},
    "off_pattern_cap_torus7": lambda: _off_pattern(cap_duality(fixtures.torus_triangulation())),
}


@pytest.mark.parametrize("name", sorted(NORM_BOUND_CASES))
def test_norms_read_off_the_self_adjoint_part_bound_the_dense_norms(name):
    c = NORM_BOUND_CASES[name]()
    if name.startswith("off_pattern"):
        assert c._s_part.rest > 1.0
    elif name.startswith(("cap_", "random_weak")) and "rescaled" not in name:
        assert c._s_part.rest == 0.0
    _assert_norm_bounds(c)
