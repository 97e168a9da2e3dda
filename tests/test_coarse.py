"""Propagation bookkeeping: supports, composition/tensor bounds, fibration
projections, localization paths, and the almost-projection product."""

import gc
import json
import weakref

import numpy as np
import pytest

from hpsig import cli
from hpsig.coarse import (FiniteMetricSpace, LocalizationPath, SupportedOperator,
                          add, almost_projection_product, compose, evaluation,
                          largest_distance, path_space, product_space, prop_along_base,
                          propagation, rescale_metric, tensor)
from hpsig.hpc_core import DomainError, StructuralError


def band_matrix(rng, n, bandwidth):
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(max(0, i - bandwidth), min(n, i + bandwidth + 1)):
            m[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
    return m


def test_metric_axioms_enforced():
    with pytest.raises(StructuralError):
        FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(StructuralError):
        FiniteMetricSpace(np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0],
                                    [1.0, 1.0, 0.0]]))  # triangle fails


def test_identity_has_zero_propagation():
    x = path_space(5)
    assert propagation(SupportedOperator(x, np.eye(5))) == 0.0


def test_adjacency_propagation_one():
    x = path_space(5)
    adj = np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1)
    assert propagation(SupportedOperator(x, adj)) == 1.0


def test_band_matrix_propagation_equals_bandwidth():
    rng = np.random.default_rng(0)
    x = path_space(10)
    for b in range(4):
        op = SupportedOperator(x, band_matrix(rng, 10, b))
        # brute force over all supported pairs
        want = max((x.dist[i, j] for i, j in zip(*np.nonzero(op.support))),
                   default=0.0)
        assert propagation(op) == want == b


def test_largest_distance_reduces_each_support_in_a_stack():
    rng = np.random.default_rng(9)
    x = path_space(7)
    mats = [band_matrix(rng, 7, b) for b in range(4)] + [np.zeros((7, 7))]
    ops = [SupportedOperator(x, m) for m in mats]
    stacked = largest_distance(x.dist, np.stack([op.support for op in ops]))
    assert stacked.tolist() == [propagation(op) for op in ops] == [0, 1, 2, 3, 0]


def test_compose_with_identity_preserves():
    rng = np.random.default_rng(1)
    x = path_space(8)
    a = SupportedOperator(x, band_matrix(rng, 8, 2))
    eye = SupportedOperator(x, np.eye(8))
    assert propagation(compose(a, eye)) == propagation(a)


def test_compose_subadditive_random():
    rng = np.random.default_rng(2)
    x = path_space(12)
    for _ in range(100):
        a = SupportedOperator(x, band_matrix(rng, 12, int(rng.integers(0, 4))))
        b = SupportedOperator(x, band_matrix(rng, 12, int(rng.integers(0, 4))))
        assert propagation(compose(a, b)) <= propagation(a) + propagation(b) + 1e-12


def test_sum_bound_random():
    rng = np.random.default_rng(3)
    x = path_space(10)
    for _ in range(100):
        a = SupportedOperator(x, band_matrix(rng, 10, int(rng.integers(0, 4))))
        b = SupportedOperator(x, band_matrix(rng, 10, int(rng.integers(0, 4))))
        assert propagation(add(a, b)) <= max(propagation(a), propagation(b)) + 1e-12


def test_tensor_trivial_cases():
    x, y = path_space(3), path_space(4)
    eye_x = SupportedOperator(x, np.eye(3))
    eye_y = SupportedOperator(y, np.eye(4))
    assert propagation(tensor(eye_x, eye_y)) == 0.0
    adj = np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1)
    assert propagation(tensor(SupportedOperator(x, adj), eye_y)) == 1.0


def test_tensor_l2_bound_random():
    rng = np.random.default_rng(4)
    x, y = path_space(6), path_space(5)
    for _ in range(100):
        a = SupportedOperator(x, band_matrix(rng, 6, int(rng.integers(0, 3))))
        b = SupportedOperator(y, band_matrix(rng, 5, int(rng.integers(0, 3))))
        t = tensor(a, b)
        bound = np.hypot(propagation(a), propagation(b))
        assert propagation(t) <= bound + 1e-12


def test_tensor_max_metric_bound():
    rng = np.random.default_rng(5)
    x, y = path_space(5), path_space(5)
    for _ in range(50):
        a = SupportedOperator(x, band_matrix(rng, 5, int(rng.integers(0, 3))))
        b = SupportedOperator(y, band_matrix(rng, 5, int(rng.integers(0, 3))))
        t = tensor(a, b, metric="max")
        assert propagation(t) <= max(propagation(a), propagation(b)) + 1e-12


def drawn_widths(stack):
    """Per matrix of a stack of band matrices, the largest |i - j| of its
    nonzero entries, asserting its support is the whole band of that width."""
    size = stack.shape[-1]
    off = np.abs(np.arange(size)[:, None] - np.arange(size))
    widths = [int(off[m != 0].max(initial=0)) for m in stack]
    for m, w in zip(stack, widths):
        assert np.array_equal(m != 0, off <= w)
    return widths


@pytest.mark.parametrize("seed", range(5))
def test_random_band_operator_matches_scalar_draws(seed):
    # each drawn matrix is zero exactly off a band, its bandwidths cover
    # every allowed value, a, b and c share no entry, and the seed fixes
    # the stacks
    stacks = cli._draw_band_stacks(np.random.default_rng(seed), 40, 12, 4)
    again = cli._draw_band_stacks(np.random.default_rng(seed), 40, 12, 4)
    assert [s.shape for s in stacks] == [(40, 12, 12), (40, 12, 12), (40, 4, 4)]
    assert all(s.tobytes() == t.tobytes() for s, t in zip(stacks, again))
    widths = [set(drawn_widths(s)) for s in stacks]
    assert widths == [{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2}]
    va, vb, vc = (set(s[s != 0].tolist()) for s in stacks)
    assert not (va & vb or va & vc or vb & vc)


def drawn_instances(rng, instances):
    """The instances (a, b, c) _coarse_counts draws from rng, block by block."""
    for start in range(0, instances, cli._COARSE_BLOCK):
        yield from zip(*cli._draw_band_stacks(
            rng, min(cli._COARSE_BLOCK, instances - start), 12, 4))


def reference_coarse_counts(stacks, metric):
    """The coarse suite on the drawn instances (a, b, c) as one loop pass per
    instance over supported operators."""
    space, small = path_space(12), path_space(4)
    sub_ok = sum_ok = ten_ok = base_ok = 0
    for ma, mb, mc in stacks:
        a, b = SupportedOperator(space, ma, 0.0), SupportedOperator(space, mb, 0.0)
        c = SupportedOperator(small, mc, 0.0)
        sub_ok += compose(a, b).propagation <= a.propagation + b.propagation + 1e-9
        sum_ok += add(a, b).propagation <= max(a.propagation, b.propagation) + 1e-9
        t = tensor(a, c, metric=metric)
        if metric == "l2":
            bound = float(np.hypot(a.propagation, c.propagation))
        else:
            bound = max(a.propagation, c.propagation)
        ten_ok += t.propagation <= bound + 1e-9
        base_ok += prop_along_base(t) <= t.propagation + 1e-9
    return sub_ok, sum_ok, ten_ok, base_ok


@pytest.mark.parametrize("metric", ["l2", "max"])
def test_stacked_propagations_match_supported_operators(metric):
    space, small = path_space(12), path_space(4)
    a, b, c = cli._draw_band_stacks(np.random.default_rng(3), 60, 12, 4)
    got = cli._stacked_propagations(a, b, c, space, small,
                                    product_space(space, small, metric))
    for i in range(60):
        oa, ob = SupportedOperator(space, a[i], 0.0), SupportedOperator(space, b[i], 0.0)
        oc = SupportedOperator(small, c[i], 0.0)
        t = tensor(oa, oc, metric=metric)
        want = (oa.propagation, ob.propagation, oc.propagation,
                compose(oa, ob).propagation, add(oa, ob).propagation,
                t.propagation, prop_along_base(t))
        assert tuple(float(p[i]) for p in got) == want


@pytest.mark.parametrize("metric", ["l2", "max"])
@pytest.mark.parametrize("seed", [0, 5, 42])
def test_stacked_coarse_suite_matches_per_instance_loop(seed, metric):
    for instances in (0, 1, 127, 128, 129, 300):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = cli._coarse_counts(rng, instances, metric, path_space(12), path_space(4))
        assert counts == reference_coarse_counts(drawn_instances(ref_rng, instances), metric)
        assert counts == (instances,) * 4
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_coarse_suite_reports_a_widened_product(monkeypatch, capsys):
    # the support of the first instance's product a b gains the corner
    # (0, 11), further than any two bandwidths below 4 reach
    matmul = np.matmul
    widened = []

    def widen_first(x, y):
        out = matmul(x, y)
        if not widened:
            out[0, 0, -1] = 1.0
            widened.append(out.shape)
        return out

    monkeypatch.setattr(np, "matmul", widen_first)
    assert cli.main(["coarse", "--instances", "300"]) == cli.EXIT_CHECK_FAILURE
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert widened == [(cli._COARSE_BLOCK, 12, 12)]
    sub = checks.pop("composition_subadditive")
    assert (sub["ok"], sub["total"], sub["passed"]) == (299, 300, False)
    assert all(c["passed"] for c in checks.values())


@pytest.mark.parametrize("metric", ["l2", "max"])
def test_product_space_is_built_once_per_factor_pair(metric):
    x, y = path_space(3), path_space(4)
    prod = product_space(x, y, metric)
    assert product_space(x, y, metric) is prod
    # path_space returns the same space per arguments: equal copies of the
    # factors are other keys
    assert path_space(3) is x
    fresh = product_space(FiniteMetricSpace(x.dist), FiniteMetricSpace(y.dist), metric)
    assert fresh is not prod
    assert np.array_equal(prod.dist, fresh.dist) and prod.pi == fresh.pi
    assert prod.base is x


def test_product_space_metrics_give_different_spaces():
    x, y = path_space(3), path_space(3)
    l2, mx = product_space(x, y, "l2"), product_space(x, y, "max")
    assert l2 is not mx
    assert not np.array_equal(l2.dist, mx.dist)


def test_product_space_unknown_metric_raises_every_call():
    x, y = path_space(2), path_space(2)
    for _ in range(2):
        with pytest.raises(DomainError):
            product_space(x, y, "l1")


def test_product_space_keeps_a_bounded_number_of_factors_alive():
    two_points = path_space(2).dist
    x = FiniteMetricSpace(two_points)
    ref = weakref.ref(x)
    product_space(x, x)
    del x
    y = path_space(2)
    for _ in range(100):
        product_space(FiniteMetricSpace(two_points), y)
    gc.collect()
    assert ref() is None


def test_prop_along_base_trivial_cases():
    x, y = path_space(3), path_space(3)
    prod = product_space(x, y)
    fiberwise = np.kron(np.eye(3), np.ones((3, 3)))
    assert prop_along_base(SupportedOperator(prod, fiberwise)) == 0.0
    cross = np.zeros((9, 9))
    cross[0, 6] = 1.0   # base points 0 and 2
    assert prop_along_base(SupportedOperator(prod, cross)) == 2.0


def test_prop_along_base_dominated_by_propagation():
    rng = np.random.default_rng(6)
    x, y = path_space(4), path_space(4)
    prod = product_space(x, y)
    for _ in range(100):
        m = rng.standard_normal((16, 16)) * (rng.random((16, 16)) < 0.3)
        op = SupportedOperator(prod, m)
        assert prop_along_base(op) <= propagation(op) + 1e-12


def test_prop_along_base_requires_labeling():
    x = path_space(4)
    with pytest.raises(StructuralError):
        prop_along_base(SupportedOperator(x, np.eye(4)))


def test_evaluation_constant_path():
    x = path_space(4)
    op = SupportedOperator(x, np.eye(4))
    path = LocalizationPath((1.0, 2.0, 3.0), (op, op, op))
    value, obstruction = evaluation(path)
    assert value is op and not obstruction


def test_evaluation_vanishing_at_one():
    x = path_space(4)
    ops = tuple(SupportedOperator(x, (1.0 - 1.0 / t) * np.eye(4), 1e-12)
                for t in (1.0, 2.0, 4.0))
    path = LocalizationPath((1.0, 2.0, 4.0), ops)
    _, obstruction = evaluation(path)
    assert obstruction


def test_evaluation_bridge_from_localization_schedule():
    # the odd representative of the circle model gives a nonvanishing path
    from hpsig import fixtures
    from hpsig.signature import localized_signature_path, odd_index_representative
    sched = localized_signature_path(fixtures.circle_model(), 4.0)
    x = path_space(1)
    ops = tuple(SupportedOperator(
        x, odd_index_representative(fixtures.circle_model()).u) for _ in sched.times)
    path = LocalizationPath(sched.times, ops)
    _, obstruction = evaluation(path)
    assert not obstruction


def test_envelope_is_nonincreasing_majorant():
    x = path_space(6)
    mats = []
    for width in (3, 1, 2, 0):
        m = np.zeros((6, 6))
        m[0, width] = 1.0
        mats.append(SupportedOperator(x, m))
    path = LocalizationPath((1.0, 2.0, 3.0, 4.0), tuple(mats))
    assert path.propagations == (3.0, 1.0, 2.0, 0.0)
    assert path.envelope == (3.0, 2.0, 2.0, 0.0)
    assert all(e >= p for e, p in zip(path.envelope, path.propagations))


def test_almost_projection_product_exact_projections():
    x = path_space(4)
    p = np.zeros((4, 4))
    p[0, 0] = 1.0
    q = np.diag([1.0, 1.0, 0.0, 0.0])
    times = (1.0, 2.0)
    f_path = LocalizationPath(times, tuple(SupportedOperator(x, p, 1e-15)
                                           for _ in times))
    g_path = LocalizationPath(times, (SupportedOperator(x, np.eye(4), 1e-15),
                                      SupportedOperator(x, q, 1e-15)))
    out, report = almost_projection_product(f_path, g_path, r=5.0)
    assert report["passed"]
    assert report["max_defect"] <= 1e-12


def test_almost_projection_product_tenth_defect():
    x = path_space(4)
    f = np.zeros((4, 4))
    f[0, 0] = 1.0
    f[1, 2] = f[2, 1] = 0.09   # defect just under 1/10
    q = np.diag([1.0, 0.0, 0.0, 0.0])
    times = (1.0, 2.0)
    f_path = LocalizationPath(times, tuple(SupportedOperator(x, f, 1e-15)
                                           for _ in times))
    g_path = LocalizationPath(times, (SupportedOperator(x, np.eye(4), 1e-15),
                                      SupportedOperator(x, q, 1e-15)))
    out, report = almost_projection_product(f_path, g_path, r=5.0)
    assert report["passed"]
    assert report["max_defect"] <= 0.3


def test_almost_projection_product_rejects_large_propagation():
    x = path_space(6)
    f = np.zeros((6, 6))
    f[0, 0] = 1.0
    f[1, 5] = f[5, 1] = 0.05
    times = (1.0, 2.0)
    f_path = LocalizationPath(times, tuple(SupportedOperator(x, f, 1e-15)
                                           for _ in times))
    g_path = LocalizationPath(times, tuple(SupportedOperator(x, np.eye(6), 1e-15)
                                           for _ in times))
    with pytest.raises(DomainError, match="propagation"):
        almost_projection_product(f_path, g_path, r=2.0)


def test_rescale_metric():
    x = path_space(7)
    assert np.array_equal(rescale_metric(x, 1.0).dist, x.dist)
    adj = np.diag(np.ones(6), 1) + np.diag(np.ones(6), -1)
    op3 = SupportedOperator(rescale_metric(x, 3.0), adj)
    assert propagation(op3) == 3.0
    with pytest.raises(DomainError):
        rescale_metric(x, 0.0)


def test_rescaled_back_units_shrink():
    # fixed support measured in rescaled-back units: prop/s -> 0
    x = path_space(9)
    m = np.zeros((9, 9))
    m[0, 2] = 1.0
    back_units = []
    for k in (1, 2, 4, 8, 16):
        scaled = rescale_metric(x, float(k))
        op = SupportedOperator(scaled, m)
        assert propagation(op) == propagation(SupportedOperator(x, m)) * k
        back_units.append(propagation(SupportedOperator(x, m)) / k)
    assert all(b > a for a, b in zip(back_units[1:], back_units[:-1]))


def test_evaluation_multiplicative():
    x = path_space(4)
    rng = np.random.default_rng(8)
    times = (1.0, 2.0, 3.0)
    ops_a = tuple(SupportedOperator(x, band_matrix(rng, 4, 1)) for _ in times)
    ops_b = tuple(SupportedOperator(x, band_matrix(rng, 4, 1)) for _ in times)
    pa = LocalizationPath(times, ops_a)
    pb = LocalizationPath(times, ops_b)
    prod = LocalizationPath(times, tuple(compose(a, b)
                                         for a, b in zip(ops_a, ops_b)))
    va, _ = evaluation(pa)
    vb, _ = evaluation(pb)
    vp, _ = evaluation(prod)
    assert np.array_equal(vp.matrix, (compose(va, vb)).matrix)
