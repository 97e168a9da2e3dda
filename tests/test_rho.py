"""Homotopy-equivalence validation, the six-branch duality path, and the
parity certificates, including the orientation-mismatch negative control."""

import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from hpsig import fixtures
from hpsig.hpc_core import (DualityDegenerateError, GradedSpace, HPComplex,
                            StructuralError, Tolerances, direct_sum, hpcomplex_to_json,
                            rescale_inner_products, reverse_orientation, validate)
from hpsig.rho import (HomotopyEquivalence, _PathData, _sample,
                       he_from_json, he_to_json,
                       identity_equivalence, rho_certificate_even,
                       rho_certificate_odd, rho_path,
                       validate_homotopy_equivalence)
from hpsig.simplicial import cap_duality, harmonic_reduction, load_simplicial


def mismatch_equivalence(build=fixtures.sphere_model):
    c = build()
    ident = identity_equivalence(c)
    return HomotopyEquivalence(c, reverse_orientation(c), ident.f, ident.g,
                               ident.h, ident.h_prime)


def test_identity_equivalence_residuals_zero():
    rep = validate_homotopy_equivalence(identity_equivalence(fixtures.torus_model()))
    assert rep.passed
    assert rep.chain_map_f == 0.0 and rep.homotopy_source == 0.0


def test_harmonic_reduction_equivalence_validates():
    cap = cap_duality(fixtures.sphere_triangulation())
    _, he = harmonic_reduction(cap)
    rep = validate_homotopy_equivalence(he)
    assert rep.passed


def test_sign_error_detected():
    cap = cap_duality(fixtures.sphere_triangulation())
    _, he = harmonic_reduction(cap)
    broken = HomotopyEquivalence(he.source, he.target, -he.f, he.g, he.h, he.h_prime)
    rep = validate_homotopy_equivalence(broken)
    assert not rep.passed
    assert rep.homotopy_source > rep.threshold


def test_rho_path_identity_sphere_model():
    path = rho_path(identity_equivalence(fixtures.sphere_model()), samples=601)
    assert path.passed
    assert path.min_singular > 0.9
    assert path.endpoint_residual <= 1e-12
    assert path.junction_residual <= 1e-10


@pytest.mark.parametrize("build", [fixtures.sphere_triangulation,
                                   fixtures.torus_triangulation])
def test_rho_path_harmonic_reduction(build):
    cap = cap_duality(build())
    _, he = harmonic_reduction(cap)
    path = rho_path(he, samples=301)
    assert path.passed
    assert path.min_singular > 0.1


def test_rho_path_negative_control_fails_with_location():
    path = rho_path(mismatch_equivalence(), samples=601)
    assert not path.passed
    assert path.failed_at == pytest.approx(0.5, abs=1e-6)


def test_rho_path_negative_control_fails_at_the_first_midpoint():
    # S_f(0.5) = diag(0, S) on the sphere model: the midpoint of [0, 1]
    # fails on its own
    path = rho_path(mismatch_equivalence())
    assert not path.passed
    assert path.failed_at == 0.5 and 0.5 in path.midpoints


@pytest.mark.parametrize("samples", [7, 601])
@pytest.mark.parametrize("build", [fixtures.circle_model, fixtures.sphere_model])
def test_rho_path_fails_an_off_grid_crossing(build, samples):
    # D + S_f(t) is singular at t* = 1 / 1.988 = 0.50302, between the grid
    # points 0.50 and 0.51 of 601 samples, and every grid sample clears the
    # threshold plus the slack: a verdict read from the samples passes
    he = fixtures.offgrid_crossing(build())
    t_star = 1.0 / 1.988
    assert _sample(_PathData(he), t_star).plus < 1e-15
    path = rho_path(he, samples=samples)
    assert min(path.min_sv_plus + path.min_sv_minus) > path.threshold + path._slack
    assert not path.passed
    # within the width of the last bisection of a grid interval
    assert abs(path.failed_at - t_star) <= 6.0 / (samples - 1) / 2 ** 7
    assert min(path.margins) <= 0.0


def with_random_duality(c: HPComplex, rng: np.random.Generator) -> HPComplex:
    """c of top degree 1 with S = [[0, A*], [A, 0]] for a random unitary A:
    still self-adjoint with S^2 = 1, but no longer anticommuting with D."""
    k = c.space.dims[0]
    a, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    s = np.zeros((2 * k, 2 * k), dtype=complex)
    s[k:, :k] = a
    s[:k, k:] = a.conj().T
    return HPComplex(c.space, c.d, s, "weak")


def two_dualities_equivalence() -> HomotopyEquivalence:
    """Identity maps between two dualities on one complex: the odd path
    where min_sv_plus and min_sv_minus differ."""
    c = fixtures.random_strict_complex(np.random.default_rng(1), 1, 3)
    rng = np.random.default_rng(7)
    ident = identity_equivalence(c)
    return HomotopyEquivalence(with_random_duality(c, rng), with_random_duality(c, rng),
                               ident.f, ident.g, ident.h, ident.h_prime)


@pytest.mark.parametrize("name", ["circle_model", "sphere_model", "he_reduction_sphere_d3",
                                  "strict_n4", "weighted_n2", "weighted_n1", "weak_n1"])
def test_rho_path_eigenvalues_match_singular_values(name, fixture_dir):
    if name == "weak_n1":
        he = two_dualities_equivalence()
    elif name.startswith("he_"):
        he = he_from_json(json.loads((fixture_dir / f"{name}.json").read_text()))
    elif name == "strict_n4":
        he = identity_equivalence(
            fixtures.random_strict_complex(np.random.default_rng(4), 4, 3))
    elif name.startswith("weighted_"):
        c = rescale_inner_products(
            fixtures.random_strict_complex(np.random.default_rng(5), int(name[-1]), 3), 1.7)
        assert c.space.has_weights and np.abs(c.D_on).max() > 0.1
        he = identity_equivalence(c)
    else:
        he = identity_equivalence(getattr(fixtures, name)())
    path = rho_path(he, samples=61)
    assert path.passed
    if name == "weak_n1":
        assert max(abs(p - m) for p, m in zip(path.min_sv_plus, path.min_sv_minus)) > 0.1
    pd = _PathData(he)
    scale = path.threshold / Tolerances().inv
    for t, p, m in zip(path.times, path.min_sv_plus, path.min_sv_minus):
        sf = pd.value(t)
        assert p == pytest.approx(np.linalg.svd(pd.D + sf, compute_uv=False)[-1],
                                  rel=0, abs=1e-12 * scale)
        assert m == pytest.approx(np.linalg.svd(pd.D - sf, compute_uv=False)[-1],
                                  rel=0, abs=1e-12 * scale)


def skewed_sphere(delta: float, skew: float) -> HPComplex:
    """Sphere-like complex whose duality has Hermitian part with eigenvalues
    +-delta and skew part of 2-norm 2*skew; S itself stays invertible."""
    space = GradedSpace(2, (1, 0, 1))
    d = (np.zeros((0, 1), dtype=complex), np.zeros((1, 0), dtype=complex))
    s = np.array([[0, delta + skew], [delta - skew, 0]], dtype=complex)
    return HPComplex(space, d, s, "weak")


@pytest.mark.parametrize("skew, passes", [(0.8e-5, False), (1e-9, True)])
def test_rho_path_weyl_slack_for_skew_part(skew, passes):
    # min |eigenvalue| of the Hermitian part is 1e-5 at every sample, above
    # the threshold 1e-8; ||K||_F = 4 * skew, so the slack 2 * skew decides
    tol = Tolerances(sym=1e-4)
    path = rho_path(identity_equivalence(skewed_sphere(1e-5, skew)), samples=61, tol=tol)
    assert path.threshold == pytest.approx(1e-8)
    assert path.min_singular == pytest.approx(1e-5)
    assert path.selfadjoint_residual == pytest.approx(4 * skew)
    assert path.passed is passes
    assert path.failed_at == (None if passes else 0.0)


def test_validate_certifies_a_skewed_duality_by_weyl():
    # sigma_min / sigma_max of D +- S is 0.2e-5 / 1.8e-5: min |eigenvalue| 1e-5
    # of the Hermitian part minus the slack ||S - S*||_2 / 2 = 0.8e-5 is exact
    rep = validate(skewed_sphere(1e-5, 0.8e-5), Tolerances(sym=1e-4))
    assert rep.passed and rep.poincare
    assert rep.cert_plus.min_singular == pytest.approx(0.2e-5)
    assert rep.cert_minus.min_singular == pytest.approx(0.2e-5)


def self_equivalence(c: HPComplex, f: np.ndarray) -> HomotopyEquivalence:
    """c to itself by an invertible f; with d = 0 every such f is a homotopy
    equivalence, degree-preserving or not."""
    assert all(not dp.any() for dp in c.d)
    zero = np.zeros_like(f)
    return HomotopyEquivalence(c, c, f, np.linalg.inv(f), zero, zero.copy())


def dense_reference(he: HomotopyEquivalence, samples: int):
    """The ungraded sampler: min |eigenvalue| of the whole D + H and D - H,
    two eigvalsh per sample, with the skew-part Weyl slack only."""
    pd = _PathData(he)
    d_hermitian = 0.5 * (pd.D + pd.D.conj().T)
    mins, skew = [], 0.0
    for t in np.linspace(0.0, 6.0, samples):
        sf = pd.value(float(t))
        k = sf - sf.conj().T
        h = sf - 0.5 * k
        skew = max(skew, float(np.linalg.norm(k)))
        mins.append(min(float(np.abs(np.linalg.eigvalsh(d_hermitian + sign * h)).min())
                        for sign in (1, -1)))
    return np.array(mins), 0.5 * (skew + pd.graded.d_skew)


def parity_violation(he: HomotopyEquivalence, samples: int) -> float:
    """Largest Frobenius norm, over the samples, of the entries of the
    Hermitian part of S_f(t) that break eps S_f eps = (-1)^n S_f."""
    pd = _PathData(he)
    eps = np.concatenate([he.source.space.parity, he.target.space.parity])
    bad = np.outer(eps, eps) != (-1) ** he.n
    out = 0.0
    for t in np.linspace(0.0, 6.0, samples):
        sf = pd.value(float(t))
        out = max(out, float(np.linalg.norm((0.5 * (sf + sf.conj().T))[bad])))
    return out


def circle_shear():
    # f = [[1, 1], [-1, -2 + 2j]] mixes degrees 0 and 1.  The degree-changing
    # entries of f^* S f give (S + f^* S f)/2 = S_f(0.5) a kernel, although
    # its parity-preserving part (1 - t) + t beta, beta = -3 + 2j, never
    # vanishes: only the parity-violating part makes the path singular.
    return self_equivalence(fixtures.circle_model(),
                            np.array([[1, 1], [-1, -2 + 2j]], dtype=complex))


def torus_shear(delta: float):
    f = np.eye(4, dtype=complex)
    f[1, 0] = delta                      # degree 0 -> degree 1
    return self_equivalence(fixtures.torus_model(), f)


@pytest.mark.parametrize("build, passes", [
    (lambda: torus_shear(1e-3), True),
    (lambda: self_equivalence(fixtures.circle_model(),
                              np.array([[1, 0], [1e-3, 1]], dtype=complex)), True),
    (circle_shear, False),
], ids=["torus_small", "circle_small", "circle_shear"])
def test_rho_path_parity_violating_negative_control(build, passes):
    he = build()
    path = rho_path(he, samples=61)
    mins, slack = dense_reference(he, 61)
    violation = parity_violation(he, 61)
    assert violation > 1e-4
    assert bool((mins > path.threshold + slack).all()) is passes
    assert path.passed is passes
    assert path._slack >= violation
    if not passes:
        # the whole operator is singular where the graded part is not
        assert mins[5] <= path.threshold          # t = 0.5
        assert path.min_singular > 0.4


def degree_mixing_sum_complex() -> HPComplex:
    """The sum complex A' + A of circle_shear with the duality S_f(0.5): its
    graded part is invertible, but S_f(0.5), and with d = 0 so D +- S_f(0.5),
    has a kernel."""
    he = circle_shear()
    pd = _PathData(he)
    src, tgt = he.source.space, he.target.space
    # the path orders source before target; the sum complex orders by degree
    order = np.concatenate([np.r_[src.degree_slice(p), pd.ns + np.r_[tgt.degree_slice(p)]]
                            for p in range(he.n + 1)])
    s_f = pd.value(0.5)[np.ix_(order, order)]
    sum_complex = direct_sum(he.source, reverse_orientation(he.target))
    return HPComplex(sum_complex.space, sum_complex.d, s_f, "weak")


def test_degree_mixing_duality_fails_through_the_parity_slack(cli_cmd, tmp_path):
    c = degree_mixing_sum_complex()
    assert np.abs(np.linalg.eigvalsh(np.asarray(c.S))).min() < 1e-12
    assert np.abs(c.spectrum.plus).min() == pytest.approx(1.0)   # the graded part
    # the parity-violating entries -1 and -2 of f* S f / 2 are in the slack
    assert c.spectrum.slack == pytest.approx(5 ** 0.5)
    loose = Tolerances(sym=0.7)          # 0.7 ||S|| = 2.1 admits the block residual 2
    rep = validate(c, loose)
    assert [ch.name for ch in rep.checks if not ch.passed] == ["poincare_plus",
                                                                "poincare_minus"]
    path = tmp_path / "degree_mixing.json"
    path.write_text(json.dumps(hpcomplex_to_json(c)))
    proc = subprocess.run([*cli_cmd, "check", str(path), "--tol-sym", "0.7"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    axioms = json.loads(proc.stdout)["checks"][0]["report"]["checks"]
    assert [ch["name"] for ch in axioms if not ch["passed"]] == ["poincare_plus",
                                                                  "poincare_minus"]
    proc = subprocess.run([*cli_cmd, "sgn", str(path), "--tol-sym", "0.7"],
                          capture_output=True, text=True)
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_rho_certificate_rejects_path_of_another_equivalence():
    he = identity_equivalence(fixtures.sphere_model())
    other = identity_equivalence(fixtures.sphere_model())
    with pytest.raises(ValueError):
        rho_certificate_even(he, rho_path(other, samples=61), samples=61)


def test_rho_path_junctions_continuous_on_all_fixtures():
    for build in (fixtures.circle_model, fixtures.sphere_model,
                  fixtures.torus_model, fixtures.cp2_model):
        path = rho_path(identity_equivalence(build()), samples=61)
        assert path.junction_residual <= 1e-10
        assert path.selfadjoint_residual <= 1e-10


def test_rho_certificate_odd_identity_circle():
    he = identity_equivalence(fixtures.circle_model())
    cert = rho_certificate_odd(he, rho_path(he, samples=61), samples=61)
    assert cert.passed
    assert min(cert.min_singulars) > 0
    assert cert.schedule.passed


def test_rho_certificate_odd_collapse_equivalence():
    # circle model plus a cancelling differential-coupled pair, collapsed back
    big = direct_sum(fixtures.circle_model(), fixtures.hyperbolic_odd())
    minimal, he = harmonic_reduction(big)
    assert minimal.space.dims == (1, 1)
    cert = rho_certificate_odd(he, rho_path(he, samples=61), samples=61)
    assert cert.passed


def test_rho_certificate_odd_rejects_broken_data():
    he = identity_equivalence(fixtures.circle_model())
    broken = HomotopyEquivalence(he.source, he.target, he.f, 0.5 * he.g, he.h,
                                 he.h_prime)
    assert not validate_homotopy_equivalence(broken).passed
    with pytest.raises(StructuralError):
        rho_certificate_odd(broken, rho_path(broken, samples=31), samples=31)


@pytest.mark.parametrize("build", [fixtures.sphere_model, fixtures.cp2_model])
def test_rho_certificate_even_identity(build):
    he = identity_equivalence(build())
    cert = rho_certificate_even(he, rho_path(he, samples=61), samples=61)
    assert cert.passed
    assert cert.constant and cert.equal
    assert len(set(cert.ranks_minus)) == 1
    assert cert.ranks_plus[0] == cert.ranks_minus[0]


def test_rho_certificate_even_reduction_torus():
    cap = cap_duality(fixtures.torus_triangulation())
    _, he = harmonic_reduction(cap)
    cert = rho_certificate_even(he, rho_path(he, samples=41), samples=41)
    assert cert.passed
    assert cert.schedule.constant


def test_rho_certificate_even_rejects_mismatch():
    with pytest.raises(DualityDegenerateError):
        he = mismatch_equivalence()
        rho_certificate_even(he, rho_path(he, samples=61), samples=61)


def test_interval_certificate_reports_margins():
    # the default starting grid is the junctions 0, 1, ..., 6; [0, 1] and
    # [1, 2] are certified, [1, 2] after one midpoint (L1 = pi against gaps 1)
    path = rho_path(identity_equivalence(fixtures.sphere_model()))
    assert path.times == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert len(path.margins) == 2 and path.min_margin > 0
    assert path.midpoints == (1.5,)
    doc = path.to_dict()
    assert doc["min_margin"] == min(doc["margins"])
    assert "refined_times" not in doc and "refined_min_sv" not in doc


def dense_odd_min_singulars(he: HomotopyEquivalence, samples: int) -> list[float]:
    """The full-size construction of the odd family: the even rows of
    (D + S)(D + S_f(t - 1))^{-1} from one transposed solve, on the even columns."""
    pd = _PathData(he)
    ev = np.flatnonzero(np.concatenate([he.source.space.parity,
                                        he.target.space.parity]) == 1)
    b_plus = pd.D + pd.diag_duality()
    out = []
    for t in np.linspace(1.0, 7.0, samples):
        u = np.linalg.solve((pd.D + pd.value(float(t) - 1.0)).T, b_plus[ev, :].T)[ev, :].T
        out.append(float(np.linalg.svd(u, compute_uv=False)[-1]))
    return out


def three_sphere_reduction() -> HomotopyEquivalence:
    """The harmonic reduction of the boundary of the 4-simplex."""
    sm = load_simplicial({"n": 3, "vertices": 5,
                          "facets": [[v for v in range(5) if v != i] for i in range(5)],
                          "orientations": [(-1) ** i for i in range(5)]})
    return harmonic_reduction(cap_duality(sm))[1]


@pytest.mark.parametrize("build", [
    lambda: identity_equivalence(fixtures.circle_model()),
    lambda: identity_equivalence(fixtures.random_strict_complex(np.random.default_rng(1), 1, 8)),
    lambda: identity_equivalence(fixtures.random_strict_complex(np.random.default_rng(2), 1, 3)),
    three_sphere_reduction,
    lambda: self_equivalence(fixtures.circle_model(),
                             np.array([[1, 0], [1e-3, 1]], dtype=complex)),
], ids=["identity_circle", "identity_n1_b8", "identity_n1_b3", "reduction_sphere3",
        "circle_small"])
def test_odd_family_matches_the_full_size_solve(build):
    # D + S and D + S_f(t - 1) are [[0, X], [X*, 0]] by degree parity, so the
    # even block of (D + S)(D + S_f)^{-1} is X+ X_f^{-1}, one half-size solve
    he = build()
    assert he.n % 2 == 1
    cert = rho_certificate_odd(he, rho_path(he, samples=61), samples=61)
    assert cert.passed
    assert cert.min_singulars == pytest.approx(dense_odd_min_singulars(he, 61),
                                               rel=1e-12, abs=0)


def test_odd_family_glues_onto_localization_schedule():
    # at the end of the path segment the family is the scale-1 representative
    # of the sum complex; singular values agree across the two bases
    he = identity_equivalence(fixtures.circle_model())
    cert = rho_certificate_odd(he, rho_path(he, samples=61), samples=61)
    assert cert.times[-1] == 7.0
    assert cert.min_singulars[-1] == pytest.approx(cert.schedule.min_singulars[0],
                                                   abs=1e-10)


def test_rho_path_on_weighted_complex():
    from hpsig.hpc_core import rescale_inner_products
    c = rescale_inner_products(fixtures.torus_model(), 2.5)
    path = rho_path(identity_equivalence(c), samples=121)
    assert path.passed
    assert path.junction_residual <= 1e-10


def test_he_json_round_trip():
    cap = cap_duality(fixtures.sphere_triangulation())
    _, he = harmonic_reduction(cap)
    back = he_from_json(he_to_json(he))
    assert np.array_equal(back.f, he.f)
    assert np.array_equal(back.h_prime, he.h_prime)
    assert validate_homotopy_equivalence(back).passed


def per_sample_scan(he: HomotopyEquivalence, times) -> list:
    """The scan without the phase and mirror identities: the graded sampler
    at every time."""
    pd = _PathData(he)
    return [_sample(pd, float(t)) for t in times]


def he_fixture(name: str):
    path = Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.json"
    return lambda: he_from_json(json.loads(path.read_text()))


SCAN_CASES = {
    "he_identity_sphere_model": he_fixture("he_identity_sphere_model"),
    "he_reduction_sphere_d3": he_fixture("he_reduction_sphere_d3"),
    "he_orientation_mismatch": he_fixture("he_orientation_mismatch"),
    "reduction_sphere_d3":
        lambda: harmonic_reduction(cap_duality(fixtures.sphere_triangulation()))[1],
    "reduction_sphere3": three_sphere_reduction,
    "identity_n1": lambda: identity_equivalence(
        fixtures.random_strict_complex(np.random.default_rng(5), 1, 4)),
    "identity_n2": lambda: identity_equivalence(
        fixtures.random_strict_complex(np.random.default_rng(6), 2, 3)),
    "identity_n4_weighted": lambda: identity_equivalence(rescale_inner_products(
        fixtures.random_strict_complex(np.random.default_rng(7), 4, 2), 1.7)),
    "two_dualities_n1": two_dualities_equivalence,
    "cp2_model_mismatch": lambda: mismatch_equivalence(fixtures.cp2_model),
}


@pytest.mark.parametrize("build", SCAN_CASES.values(), ids=SCAN_CASES.keys())
def test_rho_path_matches_the_per_sample_scan(build):
    # rho_path decomposes only [0, 2]; [2, 4] reads t = 2 and t > 4 reads
    # 6 - t with D + S and D - S exchanged.  Only two_dualities_n1 has
    # min_sv_plus != min_sv_minus, and only cp2_model_mismatch, of signature
    # 2 at t = 0, has more positive than negative eigenvalues of D + H
    he = build()
    path = rho_path(he)
    ref = per_sample_scan(he, path.times)
    assert path.min_sv_plus == pytest.approx([s.plus for s in ref], rel=1e-12, abs=0)
    assert path.min_sv_minus == pytest.approx([s.minus for s in ref], rel=1e-12, abs=0)
    if he.n % 2 == 0:
        assert [path.positive_rank(t) for t in path.times] == [s.rank for s in ref]
        if path.passed:
            cert = rho_certificate_even(he, path)
            ranks = [s.rank for s in per_sample_scan(he, np.array(cert.times) - 1.0)]
            assert list(cert.ranks_minus) == ranks


@pytest.mark.parametrize("name", ["he_identity_sphere_model", "he_reduction_sphere_d3",
                                  "he_orientation_mismatch", "reduction_sphere_d3",
                                  "identity_n2", "identity_n4_weighted", "cp2_model_mismatch"])
def test_rho_certificate_samples_match_the_per_sample_scan(name):
    # the certificate reads each rank from the certified interval of the
    # path that contains t - 1, or its mirror, and decomposes nothing; the
    # per-sample scan decomposes every time.  The mismatches' paths fail,
    # and their ranks move along the path
    he = SCAN_CASES[name]()
    assert he.n % 2 == 0
    path = rho_path(he, samples=61)
    if not path.passed:
        with pytest.raises(DualityDegenerateError):
            rho_certificate_even(he, path, samples=41)
        return
    cert = rho_certificate_even(he, path, samples=41)
    ref = per_sample_scan(he, np.linspace(0.0, 6.0, 41))
    assert list(cert.ranks_minus) == [s.rank for s in ref]
