"""Work counts: each fact about an operator is computed once per command.

Calls are counted by replacing a function, wherever a module namespace binds
it, with a counting wrapper; hpsig modules bind most names by from-import.
"""

import functools
import gc
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hpsig import (cli, coarse, family, fixtures, hpc_core, products, rho, signature, simplicial,
                   spectral)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _namespaces(prefix: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]


class Calls(list):
    """The shape of the first argument of each call, with its dtype in dtypes
    and the innermost hpsig function that made the call, as
    "module.function", in callers."""

    def __init__(self):
        super().__init__()
        self.dtypes = []
        self.callers = []

    def by(self, caller: str) -> list:
        return [shape for shape, who in zip(self, self.callers) if who == caller]

    def complex(self) -> list:
        """The shapes of the calls whose first argument is complex."""
        return [shape for shape, dtype in zip(self, self.dtypes)
                if dtype is not None and dtype.kind == "c"]


def _hpsig_caller(frame) -> str | None:
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("hpsig."):
            return f"{module.removeprefix('hpsig.')}.{frame.f_code.co_name}"
        frame = frame.f_back
    return None


def count_calls(monkeypatch, prefix: str, fn) -> Calls:
    """Wrap fn in every module under prefix; the returned list grows per call
    by the shape of the call's first argument, its dtypes by the dtype of
    that argument (None for one that is not an array), and its callers by
    the innermost hpsig function on the stack."""
    calls = Calls()

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]) if args else None)
        calls.dtypes.append(getattr(args[0], "dtype", None) if args else None)
        calls.callers.append(_hpsig_caller(sys._getframe(1)))
        return fn(*args, **kwargs)

    for ns in _namespaces(prefix):
        for attr, obj in list(vars(ns).items()):
            if obj is fn:
                monkeypatch.setattr(ns, attr, counted)
    return calls


def _calls_during(monkeypatch, module, name: str, calls: list) -> list:
    """Wrap module.name; the returned list grows per call of it by the part
    of each of calls that the call made."""
    during = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        before = [len(c) for c in calls]
        out = fn(*args, **kwargs)
        during.append([c[n:] for c, n in zip(calls, before)])
        return out

    monkeypatch.setattr(module, name, wrapper)
    return during


def run_cli(capsys, *argv) -> int:
    code = cli.main(list(argv))
    capsys.readouterr()
    return code


def test_main_builds_one_parser_per_process(monkeypatch, capsys, fixture_dir):
    # a fresh cache, so the first call builds the parser here
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    calls = count_calls(monkeypatch, "hpsig", cli.build_parser)
    for _ in range(2):
        assert run_cli(capsys, "check", str(fixture_dir / "point.json")) == 0
    assert len(calls) == 1


def test_sgn_validates_once(monkeypatch, capsys, fixture_dir):
    # validate and require_valid both run the checks through _axiom_checks
    calls = count_calls(monkeypatch, "hpsig", hpc_core._axiom_checks)
    assert run_cli(capsys, "sgn", str(fixture_dir / "cp2_model.json")) == 0
    assert len(calls) == 1


def test_rho_runs_the_duality_path_once(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "hpsig", rho.rho_path)
    assert run_cli(capsys, "rho", str(fixture_dir / "he_identity_sphere_model.json")) == 0
    assert len(calls) == 1


def test_rho_validates_the_identities_once(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "hpsig", rho.validate_homotopy_equivalence)
    assert run_cli(capsys, "rho", str(fixture_dir / "he_identity_sphere_model.json")) == 0
    assert len(calls) == 1


def test_eig_hermitian_makes_no_svd(monkeypatch):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    a = a + a.conj().T
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    np.linalg.norm(a, 2)                 # the 2-norm runs through the counted svd
    assert len(calls) == 1
    calls.clear()
    es = spectral.eig_hermitian(a)
    assert len(calls) == 0
    assert es.eigenvalues == pytest.approx(np.linalg.eigvalsh(a))


@pytest.mark.parametrize("name", ["he_identity_sphere_model.json",
                                  "he_reduction_sphere_d3.json"])
def test_rho_builds_the_path_data_once(monkeypatch, capsys, fixture_dir, name):
    calls = count_calls(monkeypatch, "hpsig", rho._PathData)
    assert run_cli(capsys, "rho", str(fixture_dir / name)) == 0
    assert len(calls) == 1


def test_rho_path_svd_count_does_not_grow_with_samples(monkeypatch):
    # norm(m, 2) reaches svd through a module global of numpy.linalg._linalg
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    in_samples = _calls_during(monkeypatch, rho, "_sample", [calls])
    rho.rho_path(rho.identity_equivalence(fixtures.cp2_model()))
    # an even sample is one eigvalsh: every svd is a norm, taken once
    assert calls and len(in_samples) >= 3
    assert all(not svd for (svd,) in in_samples)


def test_rho_certificate_even_eigh_count_does_not_grow_with_samples(monkeypatch, capsys,
                                                                    fixture_dir):
    # on a passing rho every decomposition at the path's size is rho_path's,
    # and the terminal check takes only eigenvalues, at the summands' sizes:
    # those of their schedules, whatever the path sampled
    calls = _decompositions(monkeypatch)
    eigh, eigvalsh, svd, solve = calls
    inside = _calls_during(monkeypatch, rho, "terminal_check", calls)
    for name, size in (("he_identity_sphere_model", 4), ("he_reduction_sphere_d3", 16)):
        for c in (*calls, inside):
            c.clear()
        assert run_cli(capsys, "rho", str(fixture_dir / f"{name}.json")) == 0
        (_, eigvalsh_t, svd_t, _), = inside
        assert not eigh and not solve and not svd_t
        assert eigvalsh_t and all(max(shape) < size for shape in eigvalsh_t)
        # t = 0, 1, 2 and the midpoint 1.5
        assert eigvalsh.count((size, size)) == 4
        # the summands' schedules alone, on complexes validated beforehand,
        # as rho_path validates them
        he = rho.he_from_json(json.loads((fixture_dir / f"{name}.json").read_text()))
        for c in he.complexes:
            hpc_core.require_valid(c)
        eigvalsh.clear()
        for c in he.complexes:
            signature.localized_signature_path(c)
        assert eigvalsh_t == eigvalsh


def test_rho_path_makes_one_eigvalsh_per_even_sample(monkeypatch, fixture_dir):
    doc = json.loads((fixture_dir / "he_reduction_sphere_d3.json").read_text())
    eigvalsh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    in_samples = _calls_during(monkeypatch, rho, "_sample", [eigvalsh])
    he = rho.he_from_json(doc)
    assert he.n % 2 == 0
    path = rho.rho_path(he)
    # D + H serves D - H as well; only t = 0, 1, 2 and the midpoints are
    # decomposed, [2, 4] reads t = 2 and t > 4 reads its mirror 6 - t
    assert len(in_samples) == 3 + len(path.midpoints)
    assert all(len(e) == 1 for (e,) in in_samples)


def test_rho_odd_sample_makes_no_eigvalsh(monkeypatch):
    c = fixtures.random_strict_complex(np.random.default_rng(3), 1, 4)
    pd = rho._PathData(rho.identity_equivalence(c))
    eigvalsh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    svd = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    for t in np.linspace(0.0, 6.0, 13):
        rho._sample(pd, float(t))
    assert len(eigvalsh) == 0
    assert len(svd) == 2 * 13            # the (even, odd) blocks of D + H and D - H


def test_rho_certificate_odd_solves_without_inverting(monkeypatch, fixture_dir):
    # the terminal check of an odd passing rho takes SVDs only in the
    # summands' schedules: its bound on the odd family reads the path's
    # t = 0 sample and the norms the path took, and it inverts nothing
    he = rho.he_from_json(json.loads((fixture_dir / "he_identity_circle3.json").read_text()))
    assert he.n % 2 == 1 and he.source is he.target
    path = rho.rho_path(he)
    calls = [count_calls(monkeypatch, "numpy.linalg", fn)
             for fn in (np.linalg.inv, np.linalg.solve, np.linalg.svd)]
    in_schedules = _calls_during(monkeypatch, rho, "localized_signature_path", calls)
    assert rho.terminal_check(he, path).passed
    assert in_schedules == [calls]
    inv, solve, _ = calls
    # the schedule samples are the gaps of X+-: no u = X+ X-^{-1} is formed
    assert len(inv) == 0 and solve == []


def test_rho_path_reads_the_norms_of_d_and_the_duality(monkeypatch):
    he = rho.identity_equivalence(
        fixtures.random_strict_complex(np.random.default_rng(1), 1, 8))
    pd = rho._PathData(he)
    normed = []
    operator_norm = spectral.operator_norm

    def recorded(a):
        normed.append(np.asarray(a))
        return operator_norm(a)

    monkeypatch.setattr(spectral, "operator_norm", recorded)
    assert rho.rho_path(he).passed
    # both are block diagonal: their norms are the summands' D_norm and S_norm;
    # diag(S', -S) is the path at t = 0
    for m in (pd.D, pd.value(0.0)):
        assert not any(np.array_equal(a, m) for a in normed)


def test_total_complex_inverts_each_transition_once(monkeypatch):
    fc = family.FiberedComplex(fixtures.circle_triangulation(), fixtures.torus_model(),
                               {(2, 0): fixtures.fiber_rotation_on_torus_model()})
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.inv)
    family.total_complex(fc)
    assert len(calls) <= len(fc.transitions)


def _seam_twisted_grid_torus(k: int) -> family.FiberedComplex:
    """The k x k grid torus, vertex (i, j) labelled i*k + j, whose edges
    crossing the column seam all carry one rotation of the torus fiber."""
    def v(i, j):
        return (i % k) * k + (j % k)

    facets = [tri for i in range(k) for j in range(k)
              for tri in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                          (v(i, j), v(i + 1, j + 1), v(i, j + 1)))]
    base = simplicial.load_simplicial({"n": 2, "vertices": k * k, "facets": facets,
                                       "orientations": simplicial.orient_facets(facets, 2)})
    rotation = fixtures.fiber_rotation_on_torus_model()
    seam = {(v(i, k - 1), v(i + r, 0)): rotation for i in range(k) for r in (0, 1)}
    return family.FiberedComplex(base, fixtures.torus_model(), seam)


def test_total_complex_inverts_a_shared_seam_rotation_once(monkeypatch):
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.inv)
    fc = _seam_twisted_grid_torus(3)
    assert len(fc.transitions) == 6
    assert family.total_complex(fc).meta["twist"] == "nontrivial"
    assert len(calls) == 1


def _traced_peak(fn) -> int:
    """The peak of the bytes tracemalloc traces while fn() runs.  LAPACK's
    private copies of its operands are not traced, so this counts hpsig's
    own arrays only."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_total_complex_decomposes_two_blocks_of_half_size(monkeypatch):
    # the torus model fiber has d = 0 and its transports keep degrees, so a
    # fiber index of degree q meets degree 2 - q only through S: D + S of
    # the total is the direct sum of two blocks of 300, up to a permutation
    # S = (T + T*)/2 is exactly Hermitian, so ||S - S*|| = 0, which the slack
    # of D +- S reads, takes no decomposition of the self-adjoint part of S
    eigvalsh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    spectra = _calls_during(monkeypatch, hpc_core.GradedSum, "spectrum_of", [eigvalsh])
    parts = count_calls(monkeypatch, "hpsig", hpc_core._self_adjoint_part)
    tot = family.total_complex(_seam_twisted_grid_torus(5))
    assert tot.total_dim == 600 and (600, 600) not in parts
    assert spectra[-1] == [[(300, 300)] * 2]
    assert [dtype.name for dtype in eigvalsh.dtypes[-2:]] == ["float64"] * 2


def test_total_complex_holds_four_dense_arrays_at_most():
    # certifying the total complex holds S, D, the operand of D +- S and a
    # copy of the diagonal block of it being decomposed at once, besides
    # LAPACK's untraced copy of that block, of at most 300 x 300
    # (test_total_complex_decomposes_two_blocks_of_half_size): T is
    # overwritten by S, neither d nor its adjoint is kept beside D, and the
    # Weyl slack reads the skew and parity-violating entries in place.  In
    # operands, LAPACK's copy counted: 4.01 + 0.25 measured, 3.78 + 1.00
    # when D + S was decomposed whole
    fc = _seam_twisted_grid_torus(5)
    peak = _traced_peak(lambda: family.total_complex(fc))
    tot = family.total_complex(fc)
    assert tot.total_dim == 600 and tot.S.dtype == tot.D.dtype == np.float64
    assert peak / (8 * tot.total_dim ** 2) + (300 / tot.total_dim) ** 2 <= 4.4


def test_graded_sum_reads_its_norms_in_place():
    # ||D - D*|| is read 64 rows at a time, and the entries of D and of the
    # Hermitian part of S that break the parity rules are summed under the
    # grading's masks; copying them took 1.02 and 0.50 operands.  The
    # boolean pattern the components are found in, 1/8 operand, is released
    # before D is read
    tot = family.total_complex(_seam_twisted_grid_torus(5))
    operand = 8 * tot.total_dim ** 2
    assert tot.D_on.dtype == np.float64
    assert _traced_peak(lambda: hpc_core.GradedSum(tot.space.grading, tot.n, tot.D_on,
                                                       tot.S_on)) \
        <= 0.3 * operand
    gs = tot.graded
    h = gs.hermitian_part(tot.S_on)
    assert _traced_peak(lambda: gs.slack(h, tot.S_skew)) <= 0.05 * operand


def test_localization_sample_adds_one_operand():
    # the schedule keeps the Hermitian part of S, and each sample writes s D
    # into one copy of it: two arrays beyond the validated complex
    c = simplicial.cap_duality(fixtures.cp2_triangulation())
    hpc_core.require_valid(c)
    assert c.total_dim == 255 and c.D.dtype == np.float64
    peak = _traced_peak(lambda: signature.localized_signature_path(c))
    assert peak <= 2.6 * 8 * c.total_dim ** 2


def test_hermitian_part_allocates_one_operand():
    # (S + S*)/2 is summed into the array that takes S*: a complex S costs
    # one 16 N^2 operand and no conjugate beside it
    c = simplicial.cap_duality(_seam_twisted_grid_torus(5).base)
    assert c.total_dim == 150 and c.S_on.dtype == np.complex128
    peak = _traced_peak(lambda: c.graded.hermitian_part(c.S_on))
    assert peak <= 1.1 * 16 * c.total_dim ** 2


def test_harmonic_reduction_decomposes_each_degree_block_once(monkeypatch):
    cap = simplicial.cap_duality(fixtures.cp2_triangulation())
    eigh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    svd = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    simplicial.harmonic_reduction(cap)
    assert sorted(eigh) == [(9, 9), (36, 36), (36, 36), (84, 84), (90, 90)]
    assert (255, 255) not in svd


def test_harmonic_duality_decomposes_no_full_size_laplacian(monkeypatch):
    eigh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    cap = simplicial.cap_duality(fixtures.cp2_triangulation(), construction="harmonic")
    assert cap.meta["duality"] == "harmonic-fallback"
    assert (255, 255) not in eigh


@pytest.mark.parametrize("transitions", [{}, {(0, 1): fixtures.fiber_rotation_on_torus_model()}],
                         ids=["untwisted", "twisted"])
def test_monodromy_inverts_each_distinct_transport_once(monkeypatch, transitions):
    fc = family.FiberedComplex(fixtures.torus_triangulation(), fixtures.torus_model(),
                               transitions)
    inverted = []
    inv = np.linalg.inv

    def recorded(a):
        inverted.append(np.asarray(a).tobytes())
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    mono = family.monodromy_homology_action(fc)
    assert len(mono.loops) == 15         # 21 edges, 6 of them in the spanning tree
    assert len(inverted) == len(set(inverted))
    if not transitions:
        assert len(inverted) == 1        # every transport is 1


def test_sgn_odd_validates_once(monkeypatch, capsys, fixture_dir):
    # the odd schedule samples t^(-1/2) D +- S on the validated input complex
    calls = count_calls(monkeypatch, "hpsig", hpc_core._axiom_checks)
    assert run_cli(capsys, "sgn", str(fixture_dir / "circle_model.json")) == 0
    assert len(calls) == 1


def test_localization_builds_no_rescaled_complex(monkeypatch):
    c = simplicial.cap_duality(fixtures.sphere_triangulation())
    assert not c.space.has_weights
    rescaled = count_calls(monkeypatch, "hpsig", hpc_core.rescale_inner_products)
    eigh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    eigvalsh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    sched = signature.localized_signature_path(c, 10.0)
    assert len(rescaled) == 0
    # eigenvalues only, of B+(t) per sample: B-(t) = -eps B+(t) eps, and
    # t = 1 reads the cached spectrum of D + S
    assert len(eigh) == 0 and len(eigvalsh) == 1 + len(sched.midpoints)


def test_even_signature_makes_no_gram_certificate(monkeypatch):
    c = simplicial.cap_duality(fixtures.sphere_triangulation())
    calls = count_calls(monkeypatch, "hpsig", spectral.invertibility_certificate)
    signature.localized_signature_path(c, 10.0)
    assert len(calls) == 0               # validate reads the spectrum of D +- S
    signature.signature_report(c)
    assert len(calls) == 0


def test_product_of_even_complexes_makes_no_eigh(monkeypatch, capsys, fixture_dir):
    # the three signatures read the cached eigenvalues of D +- S
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    cp2 = str(fixture_dir / "cp2_model.json")
    assert run_cli(capsys, "product", cp2, cp2) == 0
    assert len(calls) == 0


def test_even_odd_witness_decomposes_each_factor_operator_once(monkeypatch, capsys,
                                                               fixture_dir):
    eigh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    eigvalsh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    svd = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    inside = _calls_during(monkeypatch, products, "witness_even_odd", [eigvalsh])
    a, b = (str(fixture_dir / f"{name}.json") for name in ("cp2_model", "circle_model"))
    assert run_cli(capsys, "product", a, b) == 0
    # the eigenvalues of B+ and of B- once each, and no eigenvectors
    assert len(eigh) == 0
    assert inside == [[[(3, 3), (3, 3)]]]
    # W is checked block by block: no matrix of the product's size 3 * 2
    assert (6, 6) not in [shape[-2:] for shape in svd]


def test_odd_even_witness_decomposes_the_even_differential_once(monkeypatch, capsys,
                                                                fixture_dir):
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    a, b = (str(fixture_dir / f"{name}.json") for name in ("circle_model", "cp2_model"))
    assert run_cli(capsys, "product", a, b) == 0
    assert len(calls) == 1               # g(D_b) and f(D_b) from one eigensystem


@pytest.mark.parametrize("t_max", [3, 10])
def test_sgn_odd_runs_each_schedule_sample_once(monkeypatch, capsys, fixture_dir, t_max):
    calls = count_calls(monkeypatch, "hpsig", signature._odd_representative)
    assert run_cli(capsys, "sgn", str(fixture_dir / "circle_model.json"),
                   "--t-max", str(t_max)) == 0
    # only the report forms u, at t = 1; the schedule reads the gaps of X+-
    assert len(calls) == 1


def test_check_makes_no_invertibility_certificate(monkeypatch, capsys, fixture_dir):
    # D +- S is Hermitian: cap_duality and validate certify it from eigenvalues
    calls = count_calls(monkeypatch, "hpsig", spectral.invertibility_certificate)
    assert run_cli(capsys, "check", str(fixture_dir / "cp2_9.json")) == 0
    assert len(calls) == 0


def test_chs_computes_the_monodromy_once(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "hpsig", family.monodromy_homology_action)
    assert run_cli(capsys, "chs", str(fixture_dir / "fc_sphere_x_cp2.json")) == 0
    assert len(calls) == 1


def test_signature_even_reads_the_cached_spectrum(monkeypatch):
    c = fixtures.cp2_model()
    hpc_core.validate(c)
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    eigh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    assert signature.signature_even(c) == 1
    assert signature.signature_report(c)["signature"] == 1
    assert len(calls) == 0 and len(eigh) == 0


def test_sgn_cp2_9_eigh_count(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    assert run_cli(capsys, "sgn", str(fixture_dir / "cp2_9.json")) == 0
    # the schedule needs eigenvalues only
    assert len(calls) == 0


def test_sgn_cp2_9_decomposes_one_full_size_matrix(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    assert run_cli(capsys, "sgn", str(fixture_dir / "cp2_9.json")) == 0
    # the cached spectrum of D + S, which t = 1 and the report read, the
    # middle block S[2, 2] of the self-adjoint part of S, which ||S|| reads,
    # the graded B+(t) at t = 10, and the 7 midpoints of three bisection
    # levels; all in float64, and none of half size
    assert calls == [(255, 255), (84, 84)] + [(255, 255)] * 8
    assert {dtype.name for dtype in calls.dtypes} == {"float64"}


@pytest.mark.parametrize("n", [2, 4])
def test_sgn_even_strict_complex_makes_two_eigvalsh(monkeypatch, capsys, tmp_path, n):
    # two spectra, the cached one at t = 1 and that of the graded B+(10):
    # the endpoints close [1, 10] without a midpoint.  Before them, the
    # middle degree block of the self-adjoint part of S, for ||S||, and for
    # n = 2 the 14 x 14 Gram matrix of the even x odd block of SD + DS.  For
    # n = 4 every piece is the cp2 model, whose d is 0: SD + DS = 0, and
    # D + S is the direct sum of its blocks on degrees {0, 4} and {2}
    c = fixtures.random_strict_complex(np.random.default_rng(3), n, 8)
    middle = c.space.dims[n // 2]
    assert middle == {2: 14, 4: 8}[n]
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(hpc_core.hpcomplex_to_json(c)))
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    assert run_cli(capsys, "sgn", str(path)) == 0
    gram, spectrum = {2: ([(14, 14)], [(30, 30)]), 4: ([], [(16, 16), (8, 8)])}[n]
    assert calls == [(middle, middle)] + gram + spectrum * 2


def test_check_cp2_9_eigvalsh_count(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    assert run_cli(capsys, "check", str(fixture_dir / "cp2_9.json")) == 0
    # the spectrum of D + S, whose negative reversed is that of D - S, the
    # middle degree block S[2, 2] of the self-adjoint part of S, and the
    # Gram matrix Y*Y of the 129 x 126 even x odd block Y of SD + DS
    assert calls == [(255, 255), (84, 84), (126, 126)]


def test_sgn_odd_decomposes_only_half_size_blocks(monkeypatch, capsys, fixture_dir):
    eigvalsh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    inv = count_calls(monkeypatch, "numpy.linalg", np.linalg.inv)
    solve = count_calls(monkeypatch, "numpy.linalg", np.linalg.solve)
    assert run_cli(capsys, "sgn", str(fixture_dir / "circle_model.json")) == 0
    # odd D +- S is [[0, X+-], [X+-*, 0]]: singular values of X+- per
    # sample and u = X+ X-^{-1} once, all of size 1 for the circle model
    assert len(eigvalsh) == 0 and len(inv) == 0
    assert solve == [(1, 1)]


def test_validate_takes_each_two_norm_once(monkeypatch):
    # all five norms of this complex are nonzero, so each needs a
    # decomposition
    c = fixtures.random_strict_complex(np.random.default_rng(2), 2, 2)
    assert not c.space.has_weights       # no inner-product checks
    assert c.space.dims == (2, 4, 2)
    svd = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    eigvalsh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    hpc_core.validate(c)
    # ||S|| and ||S^2 - 1|| from one SVD of X_0 = S[2, 0] and one eigvalsh of
    # the middle block S[1, 1]; ||S - S*|| from one SVD of K_1 = S[1, 1] -
    # S[1, 1]*, the one block of S - S* that rounding left nonzero, and ||D||
    # from one of its 4 x 4 even x odd block
    assert svd == [(2, 2), (4, 4), (4, 4)]
    # the middle block, ||SD + DS|| from the Gram matrix of its even x odd
    # block, then the spectrum of D + S
    assert eigvalsh == [(4, 4), (4, 4), (8, 8)]


def test_check_reduces_each_coboundary_once(monkeypatch, capsys, fixture_dir):
    echelon, back_substitute = simplicial._echelon, simplicial._back_substitute
    echelons, back_substituted = [], []

    def counted_echelon(rows):
        rows = list(rows)
        echelons.append(len(rows))
        return echelon(rows)

    def counted_back_substitute(e):
        back_substituted.append(len(e))
        return back_substitute(e)

    monkeypatch.setattr(simplicial, "_echelon", counted_echelon)
    monkeypatch.setattr(simplicial, "_back_substitute", counted_back_substitute)
    lapack = _decompositions(monkeypatch)
    assert run_cli(capsys, "check", str(fixture_dir / "cp2_9.json")) == 0
    # one echelon per coboundary d_0..d_3, by its rows, one per (p+1)-simplex;
    # the cocycle selection, of the rank d_1 = 28 image vectors restricted
    # to the 84 - 55 = 29 free columns of d_2; the 1 x 1 pairing
    assert echelons == [36, 84, 90, 36, 28, 1]
    # one back-substitution, of the middle degree's d_2 of rank 55
    assert back_substituted == [55]
    assert sum(map(len, lapack)) == 5


def test_check_cp2_9_svd_count(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    assert run_cli(capsys, "check", str(fixture_dir / "cp2_9.json")) == 0
    # ||S|| and ||S^2 - 1|| from X_0 = S[4, 0] and X_1 = S[3, 1], neither
    # padded; ||SD + DS|| is an eigvalsh of a Gram matrix: the symmetrized
    # S is exactly self-adjoint, and the weak tier never reads ||D||
    assert calls == [(36, 9), (90, 36)]


def test_check_torus7_takes_norms_over_degree_blocks(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    assert run_cli(capsys, "check", str(fixture_dir / "torus7.json")) == 0
    # degrees of dimension 7, 21 and 14: no norm is taken at the full 42
    assert calls and max(max(shape) for shape in calls) <= 21


def _weighted_cp2_9():
    return hpc_core.rescale_inner_products(simplicial.cap_duality(
        simplicial.load_simplicial(json.loads(
            (FIXTURE_DIR / "cp2_9.json").read_text()))), 2.0)


@pytest.mark.parametrize("build", [fixtures.cp2_model, fixtures.hyperbolic_even,
                                   _weighted_cp2_9])
def test_revalidating_under_other_tolerances_decomposes_nothing(monkeypatch, build):
    c = build()
    first = hpc_core.validate(c)
    calls = [count_calls(monkeypatch, "numpy.linalg", fn)
             for fn in (np.linalg.svd, np.linalg.eigh, np.linalg.eigvalsh)]
    loose = hpc_core.Tolerances(sym=1e-3, inv=1e-2)
    assert hpc_core.validate(c, loose).checks != first.checks
    assert hpc_core.validate(c).to_dict() == first.to_dict()
    assert calls == [[], [], []]


def test_product_cp2_model_squared_svd_count(monkeypatch, capsys, fixture_dir):
    products._derive_sign_rule_cached.cache_clear()      # count the derivation too
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    cp2 = str(fixture_dir / "cp2_model.json")
    assert run_cli(capsys, "product", cp2, cp2) == 0
    # per complex, the two factors, the product and the sign-rule search's
    # products, one SVD per shape of the nonzero blocks X_p of the
    # self-adjoint part of S, which ||S|| and ||S^2 - 1|| read, and one of
    # ||D|| over its even x odd block where D is nonzero; SD + DS is 0 on each
    # (51 calls when each validate took its own norms)
    assert calls == ([(1, 1)] * 3 + [(4, 4), (8, 8), (1, 1), (2, 2), (4, 4), (1, 1),
                                     (2, 2), (4, 4), (1, 1), (1, 1), (2, 2)])
    assert calls.by("spectral.operator_norm") == [(8, 8), (4, 4), (4, 4)]


def test_chs_decomposes_the_total_one_component_at_a_time(monkeypatch, capsys,
                                                          fixture_dir):
    # the cp2 model fiber has d = 0, so D + S of the 42-dimensional total
    # over the sphere is the direct sum of its blocks of 28 and 14
    eigvalsh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    spectra = _calls_during(monkeypatch, hpc_core.GradedSum, "spectrum_of", [eigvalsh])
    assert run_cli(capsys, "chs", str(fixture_dir / "fc_sphere_x_cp2.json")) == 0
    assert [[(28, 28), (14, 14)]] in spectra
    assert (42, 42) not in eigvalsh


def test_chs_validates_the_gluing_and_builds_the_base_duality_once(monkeypatch, capsys,
                                                                  fixture_dir):
    gluing = count_calls(monkeypatch, "hpsig", family.validate_fibered)
    cap = count_calls(monkeypatch, "hpsig", simplicial.cap_duality)
    assert run_cli(capsys, "chs", str(fixture_dir / "fc_sphere_x_cp2.json")) == 0
    assert len(gluing) == 1
    assert len(cap) == 1


def test_even_odd_witness_scales_positivity_without_a_norm_of_the_model(monkeypatch,
                                                                       capsys,
                                                                       fixture_dir):
    svd = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    inside = _calls_during(monkeypatch, products, "witness_even_odd", [svd])
    a, b = (str(fixture_dir / f"{name}.json") for name in ("cp2_model", "circle_model"))
    assert run_cli(capsys, "product", a, b) == 0
    rng = np.random.default_rng(8)
    even, odd = fixtures.random_strict_complex(rng, 2), fixtures.random_strict_complex(rng, 1)
    for c in (even, odd):
        hpc_core.validate(c)             # its norms are cached before the witness
    products.witness_even_odd(even, odd)
    # the norms of E1 and E2, one SVD of size dim b each unless that is 0 (as
    # on the circle model, whose D_b is 0); neither W nor the model is taken
    [[on_circle], [on_random]] = inside
    assert on_circle == []
    assert 0 < len(on_random) <= 2
    assert all(shape == (odd.total_dim, odd.total_dim) for shape in on_random)


def test_coarse_builds_each_metric_space_once(monkeypatch, capsys):
    built = []
    post_init = coarse.FiniteMetricSpace.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(coarse.FiniteMetricSpace, "__post_init__", counted)
    coarse.path_space.cache_clear()
    coarse._product_space.cache_clear()
    counts = []
    for instances in (100, 1000):
        built.clear()
        misses = coarse._product_space.cache_info().misses
        assert run_cli(capsys, "coarse", "--instances", str(instances)) == 0
        counts.append((len(built), coarse._product_space.cache_info().misses - misses))
    # the first command builds the 12- and 4-point paths, their product, the
    # 6-point path and its square; a second one in the same process finds
    # the paths, and so their products, in the caches
    assert counts == [(5, 2), (0, 0)]


def test_chs_takes_the_three_signatures_once(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "hpsig", signature.signature_even)
    assert run_cli(capsys, "chs", str(fixture_dir / "fc_sphere_x_cp2.json")) == 0
    # sgn(base), sgn(fiber) and sgn(total), and none per base vertex: every
    # frame has the fiber's signature
    assert calls.callers == ["family.chs_check"] * 3


def test_chs_takes_one_norm_per_distinct_matrix(monkeypatch):
    # every seam edge of the 4 x 4 grid torus carries one rotation, so the
    # gluing and the loop actions repeat a few matrices
    fc = _seam_twisted_grid_torus(4)
    normed = []
    operator_norm = spectral.operator_norm

    def recorded(a):
        m = np.asarray(a)
        if m.any():                      # a zero matrix has norm 0 without an SVD
            normed.append(m.tobytes())
        return operator_norm(a)

    monkeypatch.setattr(spectral, "operator_norm", recorded)
    assert family.validate_fibered(fc).passed
    assert normed and len(normed) == len(set(normed))
    normed.clear()
    mono = family.monodromy_homology_action(fc)
    assert len(mono.loops) == 33         # 48 edges, 15 of them in the spanning tree
    assert normed and len(normed) == len(set(normed))


def _simplex_boundary(n: int) -> dict:
    """The boundary of the (n + 1)-simplex, an n-sphere."""
    return {"n": n, "vertices": n + 2,
            "facets": [[v for v in range(n + 2) if v != i] for i in range(n + 2)],
            "orientations": [(-1) ** i for i in range(n + 2)]}


def _decompositions(monkeypatch) -> list:
    return [count_calls(monkeypatch, "numpy.linalg", fn)
            for fn in (np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd, np.linalg.solve)]


@pytest.mark.parametrize("command", ["sgn", "check"])
def test_cp2_9_decomposes_in_real_arithmetic(monkeypatch, capsys, fixture_dir, command):
    # D is an integer matrix and S is real for n = 4: D +- S and the
    # validated residuals are decomposed in float64
    calls = _decompositions(monkeypatch)
    assert run_cli(capsys, command, str(fixture_dir / "cp2_9.json")) == 0
    eigh, eigvalsh, svd, _ = calls
    assert eigvalsh and svd and not eigh
    assert [c.complex() for c in calls] == [[], [], [], []]


def test_sgn_on_the_five_sphere_solves_in_real_arithmetic(monkeypatch, capsys, tmp_path):
    # n = 5: S is real for n = 1 (mod 4), so the schedule's SVDs of X+-,
    # the one u = X+ X-^{-1} and its certificate are real
    path = tmp_path / "sphere5.json"
    path.write_text(json.dumps(_simplex_boundary(5)))
    _, _, svd, solve = _decompositions(monkeypatch)
    assert run_cli(capsys, "sgn", str(path)) == 0
    assert len(solve) == 1 and svd
    assert svd.complex() == [] and solve.complex() == []


def _run_sgn_on(monkeypatch, capsys, tmp_path, c: hpc_core.HPComplex) -> list:
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(hpc_core.hpcomplex_to_json(c)))
    calls = _decompositions(monkeypatch)
    assert run_cli(capsys, "sgn", str(path)) == 0
    return calls


def test_sgn_on_a_complex_duality_decomposes_in_complex(monkeypatch, capsys, tmp_path):
    c = fixtures.random_strict_complex(np.random.default_rng(1), 4, 4)
    eigh, eigvalsh, _, _ = _run_sgn_on(monkeypatch, capsys, tmp_path, c)
    assert not eigh
    assert eigvalsh and eigvalsh.complex() == list(eigvalsh)


def test_the_real_dtype_test_is_exact(monkeypatch, capsys, tmp_path):
    # one entry of the real cap duality of cp2_9 with imaginary part 1e-300,
    # far below every tolerance, is enough to keep D +- S complex; cap.S is
    # stored in float64, so the entry is added to a complex copy
    cap = simplicial.cap_duality(simplicial.load_simplicial(json.loads(
        (FIXTURE_DIR / "cp2_9.json").read_text())))
    s = np.array(cap.S, dtype=complex)
    i, j = np.argwhere(s != 0)[0]
    s[i, j] += 1e-300j
    c = hpc_core.HPComplex(cap.space, cap.d, s, cap.tier, cap.meta)
    eigh, eigvalsh, svd, _ = _run_sgn_on(monkeypatch, capsys, tmp_path, c)
    assert len(eigh) == 0
    assert eigvalsh.count((255, 255)) == 9 and eigvalsh.complex() == [(255, 255)] * 9
    # the entry lies in S[0, 4], so X_0, the block of the self-adjoint part
    # it enters, is complex, and so is K_0 = S[4, 0] - S[0, 4]*, the one
    # nonzero block of S - S*, which joins X_0 in one batched SVD; the middle
    # block S[2, 2] of ||S|| stays float64
    assert i < 9 and j >= 219
    assert svd.complex() == [(2, 36, 9)] and eigvalsh.count((84, 84)) == 1
