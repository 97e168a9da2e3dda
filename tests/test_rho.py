"""Homotopy-equivalence validation, the six-branch duality path, and the
terminal segment that closes it, with their negative controls."""

import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from hpsig import cli, fixtures
from hpsig.hpc_core import (DualityDegenerateError, GradedSpace, HPComplex,
                            StructuralError, Tolerances, direct_sum, hpcomplex_to_json,
                            rescale_inner_products, reverse_orientation, validate)
from hpsig.rho import (HomotopyEquivalence, _PathData, _rotation_sup, _sample,
                       he_from_json, he_to_json, identity_equivalence, rho_path,
                       terminal_check, validate_homotopy_equivalence)
from hpsig.signature import odd_index_representative
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


def test_rho_path_identity_sphere_model(path_gluing):
    path = rho_path(identity_equivalence(fixtures.sphere_model()))
    assert path.passed
    assert path.min_singular > 0.9
    junction, endpoint = path_gluing(path._data)
    assert endpoint <= 1e-12
    assert junction <= 1e-10


@pytest.mark.parametrize("build", [fixtures.sphere_triangulation,
                                   fixtures.torus_triangulation])
def test_rho_path_harmonic_reduction(build):
    cap = cap_duality(build())
    _, he = harmonic_reduction(cap)
    path = rho_path(he)
    assert path.passed
    assert path.min_singular > 0.1


def test_rho_path_negative_control_fails_at_the_first_midpoint():
    # S_f(0.5) = diag(0, S) on the sphere model: the midpoint of [0, 1]
    # fails on its own
    path = rho_path(mismatch_equivalence())
    assert not path.passed
    assert path.failed_at == 0.5 and 0.5 in path.midpoints


@pytest.mark.parametrize("sweep", [7, 601])
@pytest.mark.parametrize("build", [fixtures.circle_model, fixtures.sphere_model])
def test_rho_path_fails_an_off_grid_crossing(build, sweep):
    # D + S_f(t) is singular at t* = 1 / 1.988 = 0.50302, between the points
    # 0.50 and 0.51 of a sweep of 601 times, and every sample of the sweep,
    # or of the 7 junctions, clears the threshold plus the slack: a verdict
    # read from the samples passes
    he = fixtures.offgrid_crossing(build())
    t_star = 1.0 / 1.988
    pd = _PathData(he)
    assert _sample(pd, t_star).plus < 1e-15
    path = rho_path(he)
    swept = [_sample(pd, float(t)) for t in np.linspace(0.0, 6.0, sweep)]
    assert min(min(s.plus, s.minus) for s in swept) > path.threshold + path._slack
    assert not path.passed
    # within the width of the last bisection of a unit interval
    assert abs(path.failed_at - t_star) <= 1.0 / 2 ** 7
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
    path = rho_path(he)
    assert path.passed
    if name == "weak_n1":
        assert max(abs(p - m) for p, m in zip(path.min_sv_plus, path.min_sv_minus)) > 0.1
    pd = _PathData(he)
    scale = path.threshold / Tolerances().inv
    # the path's junctions, then the sampler over a sweep of 601 times
    swept = [(t, _sample(pd, t)) for t in np.linspace(0.0, 6.0, 601).tolist()]
    for t, p, m in [*zip(path.times, path.min_sv_plus, path.min_sv_minus),
                    *((t, smp.plus, smp.minus) for t, smp in swept)]:
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
    path = rho_path(identity_equivalence(skewed_sphere(1e-5, skew)), tol=tol)
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
    path = rho_path(he)
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
    assert all(ch.passed for ch in rep.checks) and not rep.passed
    assert not rep.cert_plus.passed and not rep.cert_minus.passed
    path = tmp_path / "degree_mixing.json"
    path.write_text(json.dumps(hpcomplex_to_json(c)))
    proc = subprocess.run([*cli_cmd, "check", str(path), "--tol-sym", "0.7"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    axioms = json.loads(proc.stdout)["checks"][0]["report"]
    assert all(ch["passed"] for ch in axioms["checks"]) and not axioms["passed"]
    assert not axioms["cert_plus"]["passed"] and not axioms["cert_minus"]["passed"]
    proc = subprocess.run([*cli_cmd, "sgn", str(path), "--tol-sym", "0.7"],
                          capture_output=True, text=True)
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_rho_certificate_rejects_path_of_another_equivalence():
    he = identity_equivalence(fixtures.sphere_model())
    other = identity_equivalence(fixtures.sphere_model())
    with pytest.raises(ValueError):
        terminal_check(he, rho_path(other))


def test_rho_path_junctions_continuous_on_all_fixtures(path_gluing):
    # the branch formulas glue into one path from diag(S', -S) to its
    # negative; rho_path samples that path and reports no self-check of it
    for build in (fixtures.circle_model, fixtures.sphere_model,
                  fixtures.torus_model, fixtures.cp2_model):
        path = rho_path(identity_equivalence(build()))
        assert max(path_gluing(path._data)) <= 1e-10
        assert path.selfadjoint_residual <= 1e-10
    # a reduction glues as well, and a wrong branch shows: the half-turn
    # phase of [2, 4] started at t = 1 misses both of its junctions
    pd = _PathData(harmonic_reduction(cap_duality(fixtures.torus_triangulation()))[1])
    assert max(path_gluing(pd)) <= 1e-10
    branch = pd.branch

    def shifted(k, t):
        return branch(k, t - 1.0 if k in (2, 3) else t)

    pd.branch = shifted
    assert path_gluing(pd)[0] > 0.5


def test_rho_certificate_odd_identity_circle():
    he = identity_equivalence(fixtures.circle_model())
    path = rho_path(he)
    term = terminal_check(he, path)
    assert term.passed
    assert term.odd_bound > path.threshold
    # source and target are one complex: one schedule
    assert len(term.schedules) == 1 and term.schedules[0].passed


def test_rho_certificate_odd_collapse_equivalence():
    # circle model plus a cancelling differential-coupled pair, collapsed back
    big = direct_sum(fixtures.circle_model(), fixtures.hyperbolic_odd())
    minimal, he = harmonic_reduction(big)
    assert minimal.space.dims == (1, 1)
    term = terminal_check(he, rho_path(he))
    assert term.passed
    assert len(term.schedules) == 2


def test_rho_certificate_odd_rejects_broken_data():
    he = identity_equivalence(fixtures.circle_model())
    broken = HomotopyEquivalence(he.source, he.target, he.f, 0.5 * he.g, he.h,
                                 he.h_prime)
    assert not validate_homotopy_equivalence(broken).passed
    with pytest.raises(StructuralError):
        terminal_check(broken, rho_path(broken))


def sum_ranks(term) -> tuple[int, int]:
    """The positive ranks of B+ and B- of the sum complex A' + A^op at s = 1,
    read from the summands' schedules: B+-(1) of the sum is diag(D' +- S',
    D -+ S)."""
    (rp_src, rm_src), (rp_tgt, rm_tgt) = (s.ranks[0] for s in
                                          (term.schedules[0], term.schedules[-1]))
    return rp_src + rm_tgt, rm_src + rp_tgt


def assert_even_terminal_reads_the_path(he, path, term):
    # B+ of the sum at s = 1 is the path at t = 0 and B- the path at t = 6
    pd = _PathData(he)
    assert sum_ranks(term) == (_sample(pd, 0.0).rank, _sample(pd, 6.0).rank)
    assert term.odd_bound is None


@pytest.mark.parametrize("build", [fixtures.sphere_model, fixtures.cp2_model])
def test_rho_certificate_even_identity(build):
    he = identity_equivalence(build())
    path = rho_path(he)
    term = terminal_check(he, path)
    assert term.passed and term.failed_at is None
    (sched,) = term.schedules
    assert sched.ranks[0] == sched.ranks[1]
    assert_even_terminal_reads_the_path(he, path, term)


def test_rho_certificate_even_reduction_torus():
    cap = cap_duality(fixtures.torus_triangulation())
    _, he = harmonic_reduction(cap)
    path = rho_path(he)
    term = terminal_check(he, path)
    assert term.passed
    assert [s.ranks[0] == s.ranks[1] for s in term.schedules] == [True, True]
    # each summand at its own size
    assert [len(s.ranks) for s in term.schedules] == [2, 2]
    assert he.source.total_dim != he.target.total_dim
    assert_even_terminal_reads_the_path(he, path, term)


def test_rho_certificate_even_rejects_mismatch():
    with pytest.raises(DualityDegenerateError):
        he = mismatch_equivalence()
        terminal_check(he, rho_path(he))


def test_terminal_crossing_fails_the_terminal_segment(capsys, fixture_dir):
    # the identity on a complex whose localization schedule has two opposite
    # crossings between t = 2 and t = 3: the duality path passes, and only
    # the terminal segment can fail
    path = str(fixture_dir / "he_terminal_crossing.json")
    assert cli.main(["rho", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["duality_path_invertible"]["passed"]
    term = checks["terminal_segment"]
    assert not term["passed"] and 2.0 < term["failed_at"] < 3.0
    assert rep["data"]["terminal"]["min_margin"] <= 0.0


@pytest.mark.parametrize("name", ["he_identity_sphere_model", "he_identity_circle3"])
def test_tight_symmetry_tolerance_passes_a_certified_path(capsys, fixture_dir, name):
    # the branch formulas meet at t = 2 and 4 only up to the rounding of
    # cos(pi/2), about 1e-16; that is no property of the input, so under
    # --tol-sym 1e-16 the path, certified with a wide margin, still passes
    assert cli.main(["rho", str(fixture_dir / f"{name}.json"), "--tol-sym", "1e-16"]) == 0
    rep = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["duality_path_invertible"]["passed"]
    assert checks["duality_path_invertible"]["failed_at"] is None
    assert rep["data"]["path"]["min_margin"] > 0.1


def test_odd_bound_below_the_threshold_fails_the_terminal_segment(capsys, fixture_dir):
    # under --tol-inv 0.1 the path's threshold, 0.1 (||D|| + ||S||) = 0.273,
    # is above the whole-path bound sigma_min(X+) / (||D|| + sup ||S_f||) =
    # 0.268 of circle3's identity: the path and the schedule pass, and the
    # bound, which has no location, fails the terminal segment
    path = str(fixture_dir / "he_identity_circle3.json")
    assert cli.main(["rho", path, "--tol-inv", "0.1"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in rep["checks"] if not c["passed"]] == ["terminal_segment"]
    term = rep["data"]["terminal"]
    assert term["odd_bound"] < rep["data"]["path"]["threshold"]
    assert term["failed_at"] is None and term["min_margin"] > 0


def test_he_from_json_decodes_an_identity_to_one_complex(fixture_dir):
    def load(name):
        return he_from_json(json.loads((fixture_dir / f"{name}.json").read_text()))

    ident = load("he_identity_sphere_model")
    assert ident.source is ident.target and len(ident.complexes) == 1
    mismatch = load("he_orientation_mismatch")
    assert mismatch.source is not mismatch.target and len(mismatch.complexes) == 2


def test_rotation_sup_matches_a_dense_sweep():
    # the largest ||cos(th) x + sin(th) y||_F over th, from 4001 angles on
    # [0, pi] (th + pi flips the sign) and 4001 more around the best of them
    def norm_at(th):
        return float(np.linalg.norm(np.cos(th) * x + np.sin(th) * y))

    rng = np.random.default_rng(0)
    step = np.pi / 4000
    for shape in ((3, 3), (4, 2), (6, 6)):
        for _ in range(5):
            x, y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    for _ in range(2))
            best = max(np.linspace(0.0, np.pi, 4001), key=norm_at)
            refined = max(norm_at(th) for th in np.linspace(best - step, best + step, 4001))
            sup = _rotation_sup(x, y)
            assert sup >= norm_at(best)
            assert sup == pytest.approx(refined, rel=1e-9, abs=0)


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


def dense_odd_family(he: HomotopyEquivalence, t: float) -> np.ndarray:
    """The full-size construction of the odd family at t in [1, 7]: the even
    rows of (D + S)(D + S_f(t - 1))^{-1} from one transposed solve, on the
    even columns."""
    pd = _PathData(he)
    ev = np.flatnonzero(np.concatenate([he.source.space.parity,
                                        he.target.space.parity]) == 1)
    b_plus = pd.D + pd.value(0.0)
    return np.linalg.solve((pd.D + pd.value(t - 1.0)).T, b_plus[ev, :].T)[ev, :].T


def dense_odd_min_singulars(he: HomotopyEquivalence, samples: int) -> list[float]:
    return [float(np.linalg.svd(dense_odd_family(he, float(t)), compute_uv=False)[-1])
            for t in np.linspace(1.0, 7.0, samples)]


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
    # the terminal check's whole-path bound on sigma_min of the family,
    # decomposing nothing, is below the dense full-size sigma_min at every
    # one of 601 times and clears the path's threshold
    he = build()
    assert he.n % 2 == 1
    path = rho_path(he)
    term = terminal_check(he, path)
    assert term.passed
    assert path.threshold < term.odd_bound <= min(dense_odd_min_singulars(he, 601))


def test_odd_family_glues_onto_localization_schedule():
    # at t = 7 the family is diag(u', u^{-1}) for u', u the scale-1
    # representatives of A' and A, which the summand schedules start from:
    # the sum complex's representative, with B+ and B- exchanged on A
    collapse = direct_sum(fixtures.circle_model(), fixtures.hyperbolic_odd())
    for he in (identity_equivalence(
                   fixtures.random_strict_complex(np.random.default_rng(2), 1, 3)),
               harmonic_reduction(collapse)[1]):
        family = np.linalg.svd(dense_odd_family(he, 7.0), compute_uv=False)
        parts = [np.linalg.svd(odd_index_representative(c).u, compute_uv=False)
                 for c in (he.source, he.target)]
        assert np.sort(family) == pytest.approx(np.sort(np.concatenate(
            [parts[0], 1.0 / parts[1]])), rel=1e-10, abs=0)


def test_rho_path_on_weighted_complex(path_gluing):
    from hpsig.hpc_core import rescale_inner_products
    c = rescale_inner_products(fixtures.torus_model(), 2.5)
    path = rho_path(identity_equivalence(c))
    assert path.passed
    assert path_gluing(path._data)[0] <= 1e-10


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
    if he.n % 2 == 0 and path.passed:
        # no eigenvalue crosses zero along a certified path
        assert len({s.rank for s in ref}) == 1


@pytest.mark.parametrize("build", SCAN_CASES.values(), ids=SCAN_CASES.keys())
def test_path_sup_norm_bounds_a_dense_sweep(build):
    # the odd bound of the terminal check divides by ||D|| + sup_norm(),
    # which must bound ||S_f(t)||_2 at each of 601 times, up to rounding
    pd = _PathData(build())
    dense = max(np.linalg.norm(pd.value(float(t)), 2) for t in np.linspace(0.0, 6.0, 601))
    assert dense <= pd.sup_norm() * (1.0 + 1e-12)


@pytest.mark.parametrize("name", ["he_identity_sphere_model", "he_reduction_sphere_d3",
                                  "he_orientation_mismatch", "reduction_sphere_d3",
                                  "identity_n2", "identity_n4_weighted", "cp2_model_mismatch"])
def test_rho_certificate_samples_match_the_per_sample_scan(name):
    # the terminal check reads the rank equality at s = 1 from the path and
    # decomposes nothing at the path's size; the per-sample scan decomposes
    # 41 times, and each rank equals both ranks of the sum complex at s = 1.
    # The mismatches' paths fail, and their ranks move along the path
    he = SCAN_CASES[name]()
    assert he.n % 2 == 0
    path = rho_path(he)
    if not path.passed:
        with pytest.raises(DualityDegenerateError):
            terminal_check(he, path)
        return
    term = terminal_check(he, path)
    ref = per_sample_scan(he, np.linspace(0.0, 6.0, 41))
    rank_plus, rank_minus = sum_ranks(term)
    assert [s.rank for s in ref] == [rank_plus] * 41 and rank_minus == rank_plus
