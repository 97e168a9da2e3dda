"""Index representatives: even signature, odd representative, localization."""

import json
from pathlib import Path

import numpy as np
import pytest

from hpsig import fixtures
from hpsig.hpc_core import (DomainError, DualityDegenerateError, GradedSpace,
                            HPComplex, Tolerances, direct_sum, rescale_inner_products,
                            reverse_orientation)
from hpsig.products import graded_tensor
from hpsig.signature import (_interval, _Point, localized_signature_path,
                             odd_index_representative, signature_even, signature_report)
from hpsig.simplicial import cap_duality, load_simplicial
from hpsig.spectral import positive_rank


def test_point_signature_one():
    assert signature_even(fixtures.point_model()) == 1


def test_sphere_model_signature_zero():
    c = fixtures.sphere_model()
    assert positive_rank(c.D_on + c.S_on) == 1
    assert positive_rank(c.D_on - c.S_on) == 1
    assert signature_even(c) == 0


def test_cp2_model_signature_one():
    c = fixtures.cp2_model()
    assert positive_rank(c.D_on + c.S_on) == 2
    assert positive_rank(c.D_on - c.S_on) == 1
    assert signature_even(c) == 1


def test_signature_even_rejects_odd_degree():
    with pytest.raises(DomainError):
        signature_even(fixtures.circle_model())


def test_rank_complements_on_fixtures():
    for build in (fixtures.sphere_model, fixtures.torus_model, fixtures.cp2_model):
        c = build()
        assert (positive_rank(c.D_on + c.S_on) + positive_rank(c.D_on - c.S_on)
                == c.total_dim)
    cap = cap_duality(fixtures.torus_triangulation())
    assert (positive_rank(cap.D_on + cap.S_on) + positive_rank(cap.D_on - cap.S_on)
            == cap.total_dim)


def test_odd_representative_circle():
    rep = odd_index_representative(fixtures.circle_model())
    assert rep.u == pytest.approx(np.array([[-1.0 + 0j]]))
    assert rep.passed
    assert rep.selfadjoint_residual <= 1e-12


def test_odd_representative_zero_duality_errors():
    space = GradedSpace(1, (1, 1))
    c = HPComplex(space, (np.zeros((1, 1)),), np.zeros((2, 2)), "weak")
    with pytest.raises(DualityDegenerateError):
        odd_index_representative(c)


def test_odd_representative_direct_sum():
    s = direct_sum(fixtures.circle_model(), fixtures.circle_model())
    rep = odd_index_representative(s)
    assert rep.u == pytest.approx(-np.eye(2))


def _signatures(sched) -> list[int]:
    return [rp - rm for rp, rm in sched.ranks]


def test_localized_path_point():
    sched = localized_signature_path(fixtures.point_model(), 10.0)
    assert _signatures(sched) == [1, 1]
    assert sched.passed


def test_localized_path_cp2():
    sched = localized_signature_path(fixtures.cp2_model(), 10.0)
    assert set(_signatures(sched)) == {1}
    assert sched.passed


def test_localized_path_cap_sphere_lipschitz():
    sched = localized_signature_path(cap_duality(fixtures.sphere_triangulation()), 10.0)
    assert set(_signatures(sched)) == {0}
    assert sched.passed
    # the Lipschitz bound in s = t^(-1/2) certifies the interval [1, 10]
    assert sched.margin > 0.0
    assert sched.failed_at is None


def test_localized_path_odd_circle():
    sched = localized_signature_path(fixtures.circle_model(), 10.0)
    assert sched.ranks is None
    assert all(sv > 0 for sv in sched.min_singulars)
    assert sched.passed


def test_reverse_orientation_negates_even_signature():
    cap = cap_duality(fixtures.cp2_triangulation())
    assert signature_even(reverse_orientation(cap)) == -signature_even(cap)


def test_signature_report_shapes():
    even = signature_report(fixtures.cp2_model())
    assert even["kind"] == "even" and even["signature"] == 1
    assert even["ranks"] == [2, 1]
    odd = signature_report(fixtures.circle_model())
    assert odd["kind"] == "odd" and odd["signature"] == 0


def test_signature_report_reads_only_its_own_schedule():
    # the report reads its own complex's spectrum, gap-checked under its own
    # tolerances, whatever schedule ran before it; cmd_sgn attaches the schedule
    c = fixtures.cp2_model()
    own = signature_report(c)
    assert own["signature"] == 1 and "schedule" not in own
    localized_signature_path(reverse_orientation(c))
    assert signature_report(c) == own
    with pytest.raises(DualityDegenerateError):     # gap 1 <= 2 * max |eigenvalue|
        signature_report(c, Tolerances(inv=2.0))


def test_odd_signature_report_reads_the_schedule_under_its_own_tolerances():
    # the report's minSingular is that of u = X+ X-^{-1} at t = 1; the
    # schedule's first sample is the gap of X+-, which bounds it below
    c = fixtures.circle_model()
    schedule = localized_signature_path(c)
    rep = odd_index_representative(c)
    assert signature_report(c)["minSingular"] == [rep.certificate.min_singular]
    assert 0.0 < schedule.min_singulars[0] <= rep.certificate.min_singular
    with pytest.raises(DualityDegenerateError):     # gap 1 <= 2 * max |eigenvalue|
        signature_report(c, Tolerances(inv=2.0))


def _reference_complexes():
    from hpsig.hpc_core import rescale_inner_products
    odd = fixtures.random_strict_complex(np.random.default_rng(2019), 1, 3)
    return [fixtures.cp2_model(), fixtures.circle_model(),
            cap_duality(fixtures.sphere_triangulation()),
            rescale_inner_products(fixtures.torus_model(), 2.5),
            odd, rescale_inner_products(odd, 1.7)]


def _sampled_times(sched) -> tuple[list, list]:
    """Every time the schedule sampled, grid and midpoints in order, and
    the index of each grid time in that list."""
    times = sorted(sched.times + sched.midpoints)
    return times, [times.index(t) for t in sched.times]


def _interval_margin(c: HPComplex, sched, least, top) -> float:
    """The margin of the schedule's interval by the Lipschitz bound in s =
    t^(-1/2), with ||D||_2 taken dense, from the least singular values and
    largest |eigenvalue|s of B+-(t) at every sampled time (_sampled_times):
    a bisected interval's margin is the least of its parts'."""
    from hpsig.hpc_core import DEFAULT_TOL
    times, grid = _sampled_times(sched)
    s = [t ** -0.5 for t in times]
    d_norm = np.linalg.norm(c.D_on, 2)
    parts = [0.5 * (least[k] + least[k + 1] - d_norm * (s[k] - s[k + 1]))
             - DEFAULT_TOL.inv * max(top[k], top[k + 1]) for k in range(len(s) - 1)]
    (first, last) = grid
    return min(parts[first:last])


def _assert_u_clears_the_sample(x_plus, x_minus, bound: float) -> None:
    """sigma_min(u) >= bound / ||X-||_2 > 0 for u = X+ X-^{-1}, from dense
    LAPACK: the schedule's bound is at most sigma_min(X+), and sigma_min(u)
    >= sigma_min(X+) / ||X-||_2.  Equality holds for 1 x 1 blocks, so the
    two sides may differ by rounding."""
    u = np.linalg.solve(x_minus.T, x_plus.T).T
    floor = bound / np.linalg.norm(x_minus, 2)
    assert floor > 0.0
    assert np.linalg.svd(u, compute_uv=False)[-1] >= floor * (1.0 - 1e-12)


@pytest.mark.parametrize("index", range(6), ids=[
    "cp2_model", "circle_model", "cap_sphere", "torus_model_weighted", "random_odd",
    "random_odd_weighted"])
def test_localized_path_matches_rescaled_complexes(index):
    # the schedule samples t^(-1/2) D +- S on the input complex; the reference
    # rebuilds the complex with G_p rescaled by t^(n/2 - p) at every sample
    from hpsig.hpc_core import rescale_inner_products
    from hpsig.spectral import eig_hermitian
    c = _reference_complexes()[index]
    sched = localized_signature_path(c)
    times, grid = _sampled_times(sched)
    ix = np.ix_(c.space.grading.even, c.space.grading.odd)
    ranks, blocks, least, top = [], [], [], []
    for t in times:
        ct = rescale_inner_products(c, t)
        b_plus, b_minus = ct.D_on + ct.S_on, ct.D_on - ct.S_on
        svs = [np.linalg.svd(b, compute_uv=False) for b in (b_plus, b_minus)]
        least.append(min(sv[-1] for sv in svs))
        top.append(max(sv[0] for sv in svs))
        blocks.append((b_plus[ix], b_minus[ix]))
        if c.n % 2 == 0:
            ep, em = eig_hermitian(b_plus), eig_hermitian(b_minus)
            ranks.append((int((ep.eigenvalues > 0).sum()), int((em.eigenvalues > 0).sum())))
    for k, bound in zip(grid, sched.min_singulars):
        assert bound == pytest.approx(least[k], rel=0, abs=1e-12 * top[k])
        if c.n % 2:
            _assert_u_clears_the_sample(*blocks[k], bound)
    if c.n % 2 == 0:
        assert sched.ranks == tuple(ranks[k] for k in grid)
    assert sched.passed
    assert sched.margin == pytest.approx(_interval_margin(c, sched, least, top),
                                         rel=0, abs=1e-12 * max(top))


def test_schedule_samples_take_the_slack_of_the_validated_spectrum():
    # S + 4e-11 K with K skew-Hermitian on the degree-reversal pattern, as
    # in test_cli: the slack of D +- S bounds that of t^(-1/2) D +- S, so
    # each sample's bound is its least |eigenvalue| less that slack
    cap = cap_duality(fixtures.sphere_triangulation())
    a = np.random.default_rng(0).standard_normal((cap.total_dim, cap.total_dim))
    degree = np.repeat(np.arange(cap.n + 1), cap.space.dims)
    k = 1j * np.where(degree[:, None] + degree == cap.n, a + a.T, 0.0)
    c = HPComplex(cap.space, cap.d, np.asarray(cap.S) + 4e-11 * k / np.linalg.norm(k, 2))
    sched = localized_signature_path(c)
    slack, gs = c.spectrum.slack, c.graded
    assert slack > 1e-11 and sched.passed
    for t, bound in zip(sched.times, sched.min_singulars):
        sp = gs.spectrum_of(gs.hermitian_part(c.S_on), 0.0, t ** -0.5)
        assert bound == float(np.abs(sp.plus).min()) - slack


def _even_schedule_complexes():
    fixture_dir = Path(__file__).resolve().parent.parent / "fixtures"
    caps = [cap_duality(load_simplicial(json.loads((fixture_dir / f"{name}.json").read_text())))
            for name in ("cp2_9", "torus7", "sphere_d3")]
    # a strict n = 4 complex with D != 0, so that P+(B+(t)) moves with t
    product = graded_tensor(fixtures.hyperbolic_even(),
                            fixtures.random_strict_complex(np.random.default_rng(4), 2, 2))
    return caps + [rescale_inner_products(product, 1.7)]


@pytest.mark.parametrize("index", range(4), ids=["cp2_9", "torus7", "sphere_d3",
                                                 "strict_n4_weighted"])
def test_even_margins_match_the_full_size_spectra(index):
    # the schedule decomposes only the graded B+(t) and reads B-(t) from it;
    # the reference decomposes the Hermitian parts of both at full size
    c = _even_schedule_complexes()[index]
    sched = localized_signature_path(c)
    assert sched.passed and c.n % 2 == 0
    times, grid = _sampled_times(sched)
    ranks, least, top = [], [], []
    for t in times:
        spectra = []
        for sign in (1.0, -1.0):
            b = t ** -0.5 * c.D_on + sign * c.S_on
            spectra.append(np.linalg.eigvalsh(0.5 * (b + b.conj().T)))
        ranks.append(tuple(int((v > 0).sum()) for v in spectra))
        least.append(min(float(np.abs(v).min()) for v in spectra))
        top.append(max(float(np.abs(v).max()) for v in spectra))
    assert set(ranks) == set(sched.ranks)
    assert sched.ranks == tuple(ranks[k] for k in grid)
    np.testing.assert_allclose(sched.min_singulars, [least[k] for k in grid],
                               rtol=1e-12, atol=0)
    assert sched.margin == pytest.approx(_interval_margin(c, sched, least, top),
                                         rel=0, abs=1e-12 * max(top))


def _acyclic(n):
    """dims 1 in degrees n-1 and n, d_{n-1} = [[1]] and S = 0: D = [[0, 1], [1, 0]]
    keeps D +- S invertible, but its part of t^(-1/2) D +- S shrinks like t^(-1/2)."""
    dims = tuple(int(p >= n - 1) for p in range(n + 1))
    d = tuple(np.ones((dims[p + 1], dims[p])) for p in range(n))
    return HPComplex(GradedSpace(n, dims), d, np.zeros((2, 2)), "weak")


@pytest.mark.parametrize("model", ["sphere_model", "circle_model"])
def test_localized_path_fails_once_the_gap_closes(model):
    # the model's part keeps |eigenvalue| 1, so the gap t^(-1/2) against
    # tol.inv = 1e-8 closes at t = 1e16; on the odd side the representative
    # u stays invertible, so only the gap check of B+-(t) can fail the sample
    base = getattr(fixtures, model)()
    c = direct_sum(base, _acyclic(base.n))
    assert localized_signature_path(c, 1e15).passed
    sched = localized_signature_path(c, 1e18)
    assert not sched.passed and sched.failed_at == 1e18


def test_cp2_9_first_interval_closes_with_one_midpoint(monkeypatch):
    # from the endpoints alone, the gaps 0.238 and 0.179 of t = 1 and 10 do
    # not cover ||D|| (1 - 10^(-1/2)) = 2.05; three levels of bisection in
    # s close every part, two do not
    from hpsig import signature
    c = _even_schedule_complexes()[0]
    sched = localized_signature_path(c)
    assert sched.times == (1.0, 10.0) and len(sched.midpoints) == 7
    assert sched.passed and sched.margin >= 0.05
    monkeypatch.setattr(signature, "_BISECTIONS", 3)
    assert localized_signature_path(c).margin == sched.margin
    monkeypatch.setattr(signature, "_BISECTIONS", 2)
    assert not localized_signature_path(c).passed


@pytest.mark.parametrize("t_up, t_down", [(2.3, 2.7), (2.5, 2.5)], ids=["apart", "together"])
def test_crossings_between_samples_fail_the_interval_certificate(t_up, t_down, capsys,
                                                                tmp_path):
    # one eigenvalue crosses zero upwards and one downwards between the
    # samples t = 1 and t = 10, so the ranks agree at both and a verdict
    # read from the samples alone passes.  Apart, bisection narrows the
    # midpoint whose ranks differ to the first crossing; together, the
    # bisection runs out
    from hpsig import cli
    from hpsig.hpc_core import hpcomplex_to_json
    c = direct_sum(fixtures.schedule_crossing(t_up),
                   reverse_orientation(fixtures.schedule_crossing(t_down)))
    sched = localized_signature_path(c)
    assert set(sched.ranks) == {(4, 4)}
    assert not sched.passed and 2.0 < sched.failed_at < 3.0
    assert sched.margin <= 0.0
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(hpcomplex_to_json(c)))
    assert cli.main(["sgn", str(path)]) == 1
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["name"] == "localization_schedule" and not check["passed"]
    assert check["failed_at"] == sched.failed_at and check["margin"] == sched.margin


def _apart_crossings():
    return direct_sum(fixtures.schedule_crossing(2.3),
                      reverse_orientation(fixtures.schedule_crossing(2.7)))


@pytest.mark.parametrize("samples", range(2, 11))
def test_crossings_fail_at_the_first_crossing_from_every_starting_grid(samples):
    # the interval rule the schedule runs from its endpoints and rho from
    # its junctions, run from samples evenly spaced times in [1, 10]:
    # wherever the grid falls, at most one grid time lies between the
    # crossings at t = 2.3 and 2.7, and bisection locates the first one
    from hpsig.hpc_core import DEFAULT_TOL
    from hpsig.signature import _BISECTIONS, _certify, _point
    c = _apart_crossings()
    h = c.graded.hermitian_part(c.S_on)
    points = [_point(c, DEFAULT_TOL, t ** -0.5, h) for t in np.linspace(1.0, 10.0, samples)]
    margins, failed_s = _certify(points, lambda a, b: c.D_norm,
                                 lambda x: _point(c, DEFAULT_TOL, x, h), _BISECTIONS)
    assert len(margins) == samples - 1 and failed_s is not None
    assert 2.0 < failed_s ** -2.0 < 3.0 and abs(failed_s ** -2.0 - 2.3) < 0.05
    if samples == 2:
        assert localized_signature_path(c).failed_at == failed_s ** -2.0


def test_odd_crossing_between_samples_fails_the_interval_certificate(capsys, tmp_path):
    # X+(t) crosses zero at t = 2.5, between the samples t = 1 and t = 10,
    # where the gaps of X+- are positive; only the interval rule sees it
    from hpsig import cli
    from hpsig.hpc_core import hpcomplex_to_json
    c = fixtures.odd_schedule_crossing(2.5)
    sched = localized_signature_path(c)
    assert sched.ranks is None and min(sched.min_singulars) > 0.0
    assert not sched.passed and 2.0 < sched.failed_at < 3.0
    path = tmp_path / "odd_crossing.json"
    path.write_text(json.dumps(hpcomplex_to_json(c)))
    assert cli.main(["sgn", str(path)]) == 1
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["name"] == "localization_schedule" and not check["passed"]
    assert check["failed_at"] == sched.failed_at


@pytest.mark.parametrize("build", [fixtures.schedule_crossing, fixtures.odd_schedule_crossing],
                         ids=["even", "odd"])
def test_singular_endpoint_fails_the_schedule_there(build, capsys, tmp_path):
    # B+-(t) is singular at t = 4: as t_max it fails the schedule at t_max,
    # as inside [1, 10] it fails the interval there, through one channel;
    # singular at t = 1, the complex is not Poincare, an input error
    from hpsig import cli
    from hpsig.hpc_core import hpcomplex_to_json
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(hpcomplex_to_json(build(4.0))))
    for t_max, at in (("4", lambda t: t == 4.0), ("10", lambda t: 3.9 < t < 4.0)):
        assert cli.main(["sgn", str(path), "--t-max", t_max]) == 1
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert not check["passed"] and at(check["failed_at"]) and check["margin"] <= 0.0
    path.write_text(json.dumps(hpcomplex_to_json(build(1.0))))
    assert cli.main(["sgn", str(path), "--t-max", "4"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mid_ranks, failed", [((2, 2), None), ((3, 1), 0.25)],
                         ids=["equal", "differ"])
def test_interval_fails_when_the_midpoint_ranks_differ(mid_ranks, failed):
    # the ends clear their thresholds but the interval does not close, so
    # the midpoint is sampled; its bound closes both halves, and only its
    # ranks can fail the interval, in the first half, whose ends differ
    a, b = (_Point(x, (2, 2), 1.0, 0.1) for x in (0.0, 1.0))
    sampled = []

    def sample(x: float) -> _Point:
        sampled.append(x)
        return _Point(x, mid_ranks, 1.0, 0.1)

    margin, failed_at = _interval(a, b, 3.0, sample, 1)
    assert sampled == [0.5]
    assert failed_at == failed
    if failed is None:
        assert margin == pytest.approx(0.5 * (2.0 - 3.0 * 0.5) - 0.1)


def test_interval_fails_at_a_singular_midpoint_with_its_half_margin():
    # a sampled midpoint whose bound does not clear its threshold fails the
    # first half at the midpoint, with that half's margin
    a, b = (_Point(x, (2, 2), 1.0, 0.1) for x in (0.0, 1.0))
    margin, failed_at = _interval(a, b, 3.0, lambda x: _Point(x, (2, 2), 0.0, 0.1), 1)
    assert failed_at == 0.5
    assert margin == pytest.approx(0.5 * (1.0 - 3.0 * 0.5) - 0.1)


def _simplex_boundary(n: int) -> dict:
    """The boundary of the (n + 1)-simplex, an n-sphere."""
    return {"n": n, "vertices": n + 2,
            "facets": [[v for v in range(n + 2) if v != i] for i in range(n + 2)],
            "orientations": [(-1) ** i for i in range(n + 2)]}


def _complex128_schedule(c: HPComplex, times) -> tuple[list, list, list, list, list]:
    """Per sample t, from complex128 LAPACK on B+-(t) = t^(-1/2) D +- S: the
    spectrum (eigenvalues of B+-(t) for even n, singular values of their
    (even, odd) blocks X+- for odd n), the positive ranks (even n), the
    blocks X+- (odd n), and the least and largest |eigenvalue| of B+-(t),
    which the samples and the interval margins read."""
    ix = np.ix_(c.space.grading.even, c.space.grading.odd)
    spectra, ranks, blocks, least, top = [], [], [], [], []
    for t in times:
        b_plus, b_minus = (np.asarray(t ** -0.5 * c.D_on + sign * c.S_on, dtype=complex)
                           for sign in (1.0, -1.0))
        if c.n % 2 == 0:
            pair = tuple(np.linalg.eigvalsh(b) for b in (b_plus, b_minus))
            ranks.append(tuple(int((v > 0).sum()) for v in pair))
        else:
            blocks.append((b_plus[ix], b_minus[ix]))
            pair = tuple(np.linalg.svd(x, compute_uv=False) for x in blocks[-1])
        spectra.append(pair)
        least.append(min(float(np.abs(v).min()) for v in pair))
        top.append(max(float(np.abs(v).max()) for v in pair))
    return spectra, ranks, blocks, least, top


@pytest.mark.parametrize("doc", ["cp2_9", 4, 5], ids=["cp2_9", "sphere4", "sphere5"])
def test_real_decompositions_match_complex_lapack(doc):
    # D is an integer matrix and S is real for n = 0, 1 (mod 4), so hpsig
    # decomposes D +- S in float64; the reference takes the same matrices
    # to complex128 LAPACK
    if doc == "cp2_9":
        fixture_dir = Path(__file__).resolve().parent.parent / "fixtures"
        doc = json.loads((fixture_dir / "cp2_9.json").read_text())
    else:
        doc = _simplex_boundary(doc)
    c = cap_duality(load_simplicial(doc))
    assert not c.D_on.imag.any() and not c.S_on.imag.any()
    assert c.spectrum.slack == 0.0       # the gaps are the least |eigenvalues|
    sched = localized_signature_path(c)
    assert sched.passed
    times, grid = _sampled_times(sched)
    spectra, ranks, blocks, least, top = _complex128_schedule(c, times)
    for ours, ref in zip(c.spectrum[:2], spectra[0]):
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(sched.min_singulars, [least[k] for k in grid],
                               rtol=1e-12, atol=0)
    assert sched.margin == pytest.approx(_interval_margin(c, sched, least, top),
                                         rel=0, abs=1e-12 * max(top))
    if c.n % 2:
        for k, bound in zip(grid, sched.min_singulars):
            _assert_u_clears_the_sample(*blocks[k], bound)
    else:
        assert c.spectrum.positive_ranks() == list(ranks[0])
        assert set(ranks) == set(sched.ranks)
        assert sched.ranks == tuple(ranks[k] for k in grid)
        assert signature_even(c) == ranks[0][0] - ranks[0][1]
