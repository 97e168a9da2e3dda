"""Acceptance criteria.

Each test prints one PASS/FAIL line (run with -s to see them) and enforces
the stated tolerance and wall-time budget.  Expected integers come from the
exact rational oracle or from closed-form fixture arithmetic, never from the
floating-point path under test.
"""

import itertools
import subprocess
import time

import numpy as np

from hpsig import fixtures
from hpsig.family import FiberedComplex, chs_check, monodromy_homology_action, total_complex
from hpsig.hpc_core import direct_sum, rescale_inner_products, reverse_orientation
from hpsig.products import (graded_tensor, product_signature_check,
                            witness_even_odd, witness_odd_even)
from hpsig.rho import (HomotopyEquivalence, _sample, identity_equivalence, rho_path,
                       terminal_check)
from hpsig.signature import signature_even
from hpsig.simplicial import cap_duality, harmonic_reduction, intersection_form_oracle
from hpsig.coarse import (LocalizationPath, SupportedOperator,
                          almost_projection_product, add, compose, path_space,
                          product_space, prop_along_base, propagation, tensor)


class Criterion:
    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget = budget_s
        self.started = time.monotonic()

    def finish(self, ok=True):
        elapsed = time.monotonic() - self.started
        verdict = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number} [{verdict}] {self.title} "
              f"({elapsed:.2f}s / budget {self.budget:.0f}s)")
        assert ok, f"criterion {self.number} failed"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s")


def test_criterion_1_oracle_agreement():
    crit = Criterion(1, "spectral signature equals exact cup-product oracle", 5.0)
    expected = {"sphere": 0, "torus": 0, "cp2": 1}
    builds = {"sphere": fixtures.sphere_triangulation,
              "torus": fixtures.torus_triangulation,
              "cp2": fixtures.cp2_triangulation}
    ok = True
    for name, build in builds.items():
        sm = build()
        oracle = intersection_form_oracle(sm).signature
        spectral_sgn = signature_even(cap_duality(sm))
        ok = ok and oracle == spectral_sgn == expected[name]
    crit.finish(ok)


def test_criterion_2_product_formula_grid():
    crit = Criterion(2, "signature is multiplicative over the fixture grid", 10.0)
    grid = {"point": (fixtures.point_model, 1), "circle": (fixtures.circle_model, 0),
            "sphere": (fixtures.sphere_model, 0), "torus": (fixtures.torus_model, 0),
            "cp2": (fixtures.cp2_model, 1)}
    ok = True
    for (na, (ba, sa)), (nb, (bb, sb)) in itertools.product(grid.items(), repeat=2):
        rep = product_signature_check(ba(), bb())
        ok = ok and rep.passed and rep.extras["sgn_product"] == sa * sb
    cp2_sq = graded_tensor(fixtures.cp2_model(), fixtures.cp2_model())
    ok = ok and signature_even(cp2_sq) == 1
    crit.finish(ok)


def test_criterion_3_parity_witnesses():
    crit = Criterion(3, "mixed-parity operator identities at 1e-9", 10.0)
    ok = True
    for a, b in [(fixtures.point_model, fixtures.circle_model),
                 (fixtures.sphere_model, fixtures.circle_model),
                 (fixtures.torus_model, fixtures.hyperbolic_odd),
                 (fixtures.hyperbolic_even, fixtures.hyperbolic_odd)]:
        rep = witness_even_odd(a(), b())
        ok = ok and rep.passed
        ok = ok and all(i.residual <= 1e-9 for i in rep.identities
                        if i.name.startswith("positivity"))
    for a, b in [(fixtures.circle_model, fixtures.point_model),
                 (fixtures.circle_model, fixtures.sphere_model),
                 (fixtures.circle_model, fixtures.cp2_model),
                 (fixtures.hyperbolic_odd, fixtures.hyperbolic_even)]:
        rep = witness_odd_even(a(), b())
        ok = ok and rep.passed
        named = {i.name: i for i in rep.identities}
        for name in ("S2_squared", "S2S1S2_squared", "P_idempotent", "P_selfadjoint"):
            ok = ok and named[name].residual <= 1e-9
        ok = ok and named["rank_identity"].residual == 0.0
    crit.finish(ok)


def _reduction_equivalences():
    out = []
    for build in (fixtures.circle_triangulation, fixtures.sphere_triangulation,
                  fixtures.torus_triangulation):
        _, he = harmonic_reduction(cap_duality(build()))
        out.append(he)
    _, he = harmonic_reduction(fixtures.cp2_model())
    out.append(he)
    return out


def test_criterion_4_rho_certificates(path_gluing):
    crit = Criterion(4, "duality paths certified invertible on all of [0, 6] and "
                        "clear at 601 times, terminal segments certified, negative "
                        "control located", 30.0)
    ok = True
    identities = [identity_equivalence(b()) for b in
                  (fixtures.circle_model, fixtures.sphere_model,
                   fixtures.cp2_model, fixtures.torus_model)]
    for he in identities + _reduction_equivalences():
        path = rho_path(he)
        ok = ok and path.passed and path.min_singular > 0
        swept = (_sample(path._data, float(t)) for t in np.linspace(0.0, 6.0, 601))
        ok = ok and all(min(s.plus, s.minus) > path.threshold + path._slack for s in swept)
        ok = ok and path_gluing(path._data)[0] <= 1e-10
        ok = ok and terminal_check(he, path).passed
    ident = identity_equivalence(fixtures.sphere_model())
    control = HomotopyEquivalence(
        fixtures.sphere_model(), reverse_orientation(fixtures.sphere_model()),
        ident.f, ident.g, ident.h, ident.h_prime)
    bad_path = rho_path(control)
    ok = ok and not bad_path.passed and bad_path.failed_at is not None
    crit.finish(ok)


def test_criterion_5_family_multiplicativity(complex_betti):
    crit = Criterion(5, "untwisted total = graded product, multiplicativity, "
                        "Wang rank constraint", 10.0)
    ok = True
    fc = FiberedComplex(fixtures.sphere_triangulation(), fixtures.cp2_model())
    tot = total_complex(fc)
    ref = graded_tensor(cap_duality(fixtures.sphere_triangulation()),
                        fixtures.cp2_model())
    ok = ok and np.array_equal(np.asarray(tot.S), np.asarray(ref.S))
    ok = ok and all(np.array_equal(d1, d2) for d1, d2 in zip(tot.d, ref.d))
    for fiber, sgn_f in ((fixtures.cp2_model, 1), (fixtures.sphere_model, 0)):
        rep = chs_check(FiberedComplex(fixtures.sphere_triangulation(), fiber()))
        ok = ok and rep.outcome == "pass" and rep.sgn_fiber == sgn_f
    twist = FiberedComplex(fixtures.circle_triangulation(), fixtures.torus_model(),
                           {(2, 0): fixtures.fiber_rotation_on_torus_model()})
    mono = monodromy_homology_action(twist)
    act = mono.actions[0]
    blocks = [act[0:1, 0:1], act[1:3, 1:3], act[3:4, 3:4]]
    wang = []
    prev_coker = 0
    for k in range(4):
        ker = coker = 0
        if k <= 2:
            m = blocks[k] - np.eye(blocks[k].shape[0])
            rank = np.linalg.matrix_rank(m)
            ker = coker = blocks[k].shape[0] - rank
        wang.append(ker + prev_coker)
        prev_coker = coker
    ok = ok and list(complex_betti(total_complex(twist))) == wang
    crit.finish(ok)


def test_criterion_6_coarse_bookkeeping():
    crit = Criterion(6, "propagation bounds and almost-projection arithmetic "
                        "on seeded instances", 10.0)
    rng = np.random.default_rng(20260811)
    x = path_space(12)
    y = path_space(5)

    def band(space, b):
        n = space.size
        m = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(max(0, i - b), min(n, i + b + 1)):
                m[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
        return SupportedOperator(space, m)

    ok = True
    for _ in range(100):
        a = band(x, int(rng.integers(0, 4)))
        b = band(x, int(rng.integers(0, 4)))
        ok = ok and propagation(compose(a, b)) <= propagation(a) + propagation(b) + 1e-12
        ok = ok and propagation(add(a, b)) <= max(propagation(a), propagation(b)) + 1e-12
        c = band(y, int(rng.integers(0, 3)))
        t = tensor(a, c)
        ok = ok and propagation(t) <= np.hypot(propagation(a), propagation(c)) + 1e-12
        ok = ok and prop_along_base(t) <= propagation(t) + 1e-12
    small = path_space(4)
    times = (1.0, 2.0)
    for _ in range(100):
        coupling = rng.uniform(0.0, 0.09)   # defect c^2 + c stays under 1/10
        f = np.zeros((4, 4))
        f[0, 0] = 1.0
        f[1, 2] = f[2, 1] = coupling
        fo = SupportedOperator(small, f, 1e-15)
        defect = np.linalg.norm(fo.matrix @ fo.matrix - fo.matrix, 2)
        assert defect <= 0.1
        go_id = SupportedOperator(small, np.eye(4), 1e-15)
        go = SupportedOperator(small, np.diag([1.0, 0, 0, 0]), 1e-15)
        f_path = LocalizationPath(times, (fo, fo))
        g_path = LocalizationPath(times, (go_id, go))
        _, rep = almost_projection_product(f_path, g_path, r=5.0)
        ok = ok and rep["passed"] and rep["max_defect"] <= 0.3
    crit.finish(ok)


def test_criterion_7_structural_invariance():
    crit = Criterion(7, "signature invariant under rescaling, odd under "
                        "orientation, additive under sums", 5.0)
    ok = True
    complexes = [fixtures.sphere_model(), fixtures.torus_model(),
                 fixtures.cp2_model(), cap_duality(fixtures.sphere_triangulation())]
    for c in complexes:
        base = signature_even(c)
        for lam in (0.1, 1.0, 10.0):
            ok = ok and signature_even(rescale_inner_products(c, lam)) == base
        ok = ok and signature_even(reverse_orientation(c)) == -base
    pairs = [(fixtures.cp2_model(), fixtures.cp2_model()),
             (fixtures.sphere_model(), fixtures.torus_model()),
             (fixtures.torus_model(), fixtures.sphere_model())]
    for a, b in pairs:
        ok = ok and signature_even(direct_sum(a, b)) == signature_even(a) + signature_even(b)
    crit.finish(ok)


def test_criterion_8_deterministic_reports(fixture_dir, cli_cmd):
    crit = Criterion(8, "two runs of the full suite produce byte-identical "
                        "reports", 120.0)
    battery = [
        ("check", str(fixture_dir / "sphere_d3.json")),
        ("check", str(fixture_dir / "torus7.json")),
        ("check", str(fixture_dir / "fc_torus_twist.json")),
        ("sgn", str(fixture_dir / "cp2_model.json")),
        ("sgn", str(fixture_dir / "circle_model.json")),
        ("product", str(fixture_dir / "cp2_model.json"),
         str(fixture_dir / "cp2_model.json")),
        ("product", str(fixture_dir / "sphere_model.json"),
         str(fixture_dir / "circle_model.json")),
        ("rho", str(fixture_dir / "he_identity_sphere_model.json")),
        ("chs", str(fixture_dir / "fc_sphere_x_cp2.json")),
        ("coarse", "--instances", "100"),
    ]
    ok = True
    for cmd in battery:
        argv = [*cli_cmd, *cmd, "--seed", "42"]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    crit.finish(ok)
