"""Index representatives: even signature, odd representative, localization."""

import numpy as np
import pytest

from hpsig import fixtures
from hpsig.hpc_core import (DomainError, DualityDegenerateError, GradedSpace,
                            HPComplex, Tolerances, direct_sum,
                            reverse_orientation)
from hpsig.signature import (localized_signature_path, odd_index_representative,
                             signature_even, signature_report)
from hpsig.simplicial import cap_duality
from hpsig.spectral import positive_rank


def test_point_signature_one():
    assert signature_even(fixtures.point_model()) == 1


def test_sphere_model_signature_zero():
    c = fixtures.sphere_model()
    assert positive_rank(c.b_plus_on()) == 1
    assert positive_rank(c.b_minus_on()) == 1
    assert signature_even(c) == 0


def test_cp2_model_signature_one():
    c = fixtures.cp2_model()
    assert positive_rank(c.b_plus_on()) == 2
    assert positive_rank(c.b_minus_on()) == 1
    assert signature_even(c) == 1


def test_signature_even_rejects_odd_degree():
    with pytest.raises(DomainError):
        signature_even(fixtures.circle_model())


def test_rank_complements_on_fixtures():
    for build in (fixtures.sphere_model, fixtures.torus_model, fixtures.cp2_model):
        c = build()
        assert (positive_rank(c.b_plus_on()) + positive_rank(c.b_minus_on())
                == c.total_dim)
    cap = cap_duality(fixtures.torus_triangulation())
    assert (positive_rank(cap.b_plus_on()) + positive_rank(cap.b_minus_on())
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


def test_localized_path_point():
    sched = localized_signature_path(fixtures.point_model(), 10.0, 10)
    assert sched.signatures == tuple([1] * 10)
    assert sched.constant and sched.passed


def test_localized_path_cp2():
    sched = localized_signature_path(fixtures.cp2_model(), 10.0, 10)
    assert set(sched.signatures) == {1}
    assert sched.passed


def test_localized_path_cap_sphere_lipschitz():
    sched = localized_signature_path(cap_duality(fixtures.sphere_triangulation()),
                                     10.0, 12)
    assert set(sched.signatures) == {0}
    assert sched.passed
    assert sched.lipschitz >= 0.0
    assert len(sched.step_norms) == 11


def test_localized_path_odd_circle():
    sched = localized_signature_path(fixtures.circle_model(), 10.0, 10)
    assert sched.kind == "odd"
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
    c = fixtures.cp2_model()
    own = signature_report(c, schedule=localized_signature_path(c))
    assert own["signature"] == 1
    # the t = 1 eigensystems of another complex, or gap-checked under other
    # tolerances, are not those of this report
    other = signature_report(c, schedule=localized_signature_path(reverse_orientation(c)))
    assert other["signature"] == 1
    with pytest.raises(DualityDegenerateError):     # gap 1 <= 2 * max |eigenvalue|
        signature_report(c, Tolerances(inv=2.0), schedule=localized_signature_path(c))


def test_odd_signature_report_reads_the_schedule_under_its_own_tolerances():
    c = fixtures.circle_model()
    schedule = localized_signature_path(c)
    assert signature_report(c, schedule=schedule)["minSingular"] == \
        signature_report(c)["minSingular"] == [schedule.min_singulars[0]]
    with pytest.raises(DualityDegenerateError):     # gap 1 <= 2 * max |eigenvalue|
        signature_report(c, Tolerances(inv=2.0), schedule=schedule)


def _reference_complexes():
    from hpsig.hpc_core import rescale_inner_products
    odd = fixtures.random_strict_complex(np.random.default_rng(2019), 1, 3)
    return [fixtures.cp2_model(), fixtures.circle_model(),
            cap_duality(fixtures.sphere_triangulation()),
            rescale_inner_products(fixtures.torus_model(), 2.5),
            odd, rescale_inner_products(odd, 1.7)]


@pytest.mark.parametrize("index", range(6), ids=[
    "cp2_model", "circle_model", "cap_sphere", "torus_model_weighted", "random_odd",
    "random_odd_weighted"])
def test_localized_path_matches_rescaled_complexes(index):
    # the schedule samples t^(-1/2) D +- S on the input complex; the reference
    # rebuilds the complex with G_p rescaled by t^(n/2 - p) at every sample
    from hpsig.hpc_core import DEFAULT_TOL, rescale_inner_products
    from hpsig.spectral import eig_hermitian
    c = _reference_complexes()[index]
    sched = localized_signature_path(c, 10.0, 7)
    reps, ranks = [], []
    for k, t in enumerate(sched.times):
        ct = rescale_inner_products(c, t)
        if c.n % 2 == 0:
            ep, em = eig_hermitian(ct.b_plus_on()), eig_hermitian(ct.b_minus_on())
            ranks.append((ep.positive_rank(), em.positive_rank()))
            reps.append(ep.positive_projection() - em.positive_projection())
            svs = [np.linalg.svd(b, compute_uv=False) for b in (ct.b_plus_on(), ct.b_minus_on())]
            scale = max(s[0] for s in svs)
            assert sched.min_singulars[k] == pytest.approx(min(s[-1] for s in svs),
                                                           rel=0, abs=1e-12 * scale)
        else:
            from hpsig.signature import _odd_sample
            rep = odd_index_representative(ct)
            u = _odd_sample(c, DEFAULT_TOL, t)[0]
            scale = np.linalg.norm(rep.u, 2)
            assert np.abs(u - rep.u).max() <= 1e-12 * scale
            assert sched.min_singulars[k] == pytest.approx(rep.certificate.min_singular,
                                                           rel=0, abs=1e-12 * scale)
            reps.append(rep.u)
    if c.n % 2 == 0:
        assert sched.ranks == tuple(ranks)
        assert sched.signatures == tuple(rp - rm for rp, rm in ranks)
    steps = [np.linalg.norm(b - a, 2) for a, b in zip(reps, reps[1:])]
    assert sched.step_norms == pytest.approx(steps, rel=0, abs=1e-12 * max(steps + [1.0]))


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
    assert localized_signature_path(c, 1e15, 2).passed
    with pytest.raises(DualityDegenerateError, match=r"t=1e\+18"):
        localized_signature_path(c, 1e18, 2)
