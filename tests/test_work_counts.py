"""Work counts: each fact about an operator is computed once per command.

Calls are counted by replacing a function, wherever a module namespace binds
it, with a counting wrapper; hpsig modules bind most names by from-import.
"""

import json
import sys

import numpy as np
import pytest

from hpsig import cli, family, fixtures, hpc_core, rho, signature, simplicial, spectral


def _namespaces(prefix: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]


def count_calls(monkeypatch, prefix: str, fn) -> list:
    """Wrap fn in every module under prefix; the returned list grows per call
    by the shape of the call's first argument."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]) if args else None)
        return fn(*args, **kwargs)

    for ns in _namespaces(prefix):
        for attr, obj in list(vars(ns).items()):
            if obj is fn:
                monkeypatch.setattr(ns, attr, counted)
    return calls


def run_cli(capsys, *argv) -> int:
    code = cli.main(list(argv))
    capsys.readouterr()
    return code


def test_sgn_validates_once(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "hpsig", hpc_core.validate)
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
    counts = []
    for samples in (61, 601):
        # a fresh complex each time: ||S - S*||_2 is cached on the complex
        he = rho.identity_equivalence(fixtures.cp2_model())
        calls.clear()
        rho.rho_path(he, samples=samples)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_rho_certificate_even_eigh_count_does_not_grow_with_samples(monkeypatch):
    he = rho.identity_equivalence(fixtures.cp2_model())
    path = rho.rho_path(he, samples=61)
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    counts = []
    for samples in (61, 121):
        calls.clear()
        assert rho.rho_certificate_even(he, path, samples=samples).passed
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_rho_path_makes_one_eigvalsh_per_even_sample(monkeypatch, fixture_dir):
    doc = json.loads((fixture_dir / "he_reduction_sphere_d3.json").read_text())
    eigvalsh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    sampled = count_calls(monkeypatch, "hpsig", rho._sample)
    counts = []
    for samples in (61, 121):
        # a fresh equivalence each time: the source and target spectra of
        # D +- S are cached on their complexes
        he = rho.he_from_json(doc)
        assert he.n % 2 == 0
        eigvalsh.clear()
        sampled.clear()
        rho.rho_path(he, samples=samples, refine=False)
        counts.append((len(eigvalsh), len(sampled)))
    # 60 more samples cost 60 more eigvalsh: D + H serves D - H as well
    assert counts[1][1] - counts[0][1] == 60
    assert counts[1][0] - counts[0][0] == 60


def test_rho_odd_sample_makes_no_eigvalsh(monkeypatch):
    c = fixtures.random_strict_complex(np.random.default_rng(3), 1, 4)
    pd = rho._PathData(rho.identity_equivalence(c))
    eigvalsh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigvalsh)
    svd = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    for t in np.linspace(0.0, 6.0, 13):
        rho._sample(pd, float(t))
    assert len(eigvalsh) == 0
    assert len(svd) == 2 * 13            # the (even, odd) blocks of D + H and D - H


@pytest.mark.parametrize("path_samples, cert_samples, off_grid", [(601, 121, 0),
                                                                 (61, 41, 20)])
def test_rho_certificate_even_reads_the_path_ranks(monkeypatch, path_samples,
                                                   cert_samples, off_grid):
    he = rho.identity_equivalence(fixtures.cp2_model())
    path = rho.rho_path(he, samples=path_samples)
    sampled = count_calls(monkeypatch, "hpsig", rho._sample)
    assert rho.rho_certificate_even(he, path, samples=cert_samples).passed
    # certificate sample i is path sample i (path_samples - 1) / (cert_samples - 1)
    # when that is an integer; only the others are sampled again
    assert len(sampled) == off_grid


def test_rho_certificate_odd_solves_without_inverting(monkeypatch):
    he = rho.identity_equivalence(fixtures.circle_model())
    path = rho.rho_path(he, samples=61)
    inv = count_calls(monkeypatch, "numpy.linalg", np.linalg.inv)
    solve = count_calls(monkeypatch, "numpy.linalg", np.linalg.solve)
    odd_sample = count_calls(monkeypatch, "hpsig", signature._odd_sample)
    assert rho.rho_certificate_odd(he, path, samples=41).passed
    assert len(solve) == 41
    assert len(inv) == len(odd_sample)   # only the localization schedule's u


def test_total_complex_inverts_each_transition_once(monkeypatch):
    fc = family.FiberedComplex(fixtures.circle_triangulation(), fixtures.torus_model(),
                               {(2, 0): fixtures.fiber_rotation_on_torus_model()})
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.inv)
    family.total_complex(fc)
    assert len(calls) <= len(fc.transitions)


def test_sgn_odd_validates_once(monkeypatch, capsys, fixture_dir):
    # the odd schedule samples t^(-1/2) D +- S on the validated input complex
    calls = count_calls(monkeypatch, "hpsig", hpc_core.validate)
    assert run_cli(capsys, "sgn", str(fixture_dir / "circle_model.json")) == 0
    assert len(calls) == 1


def test_localization_builds_no_rescaled_complex(monkeypatch):
    c = simplicial.cap_duality(fixtures.sphere_triangulation())
    assert not c.space.has_weights
    rescaled = count_calls(monkeypatch, "hpsig", hpc_core.rescale_inner_products)
    eigh = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    signature.localized_signature_path(c, 10.0, 7)
    assert len(rescaled) == 0
    assert len(eigh) == 2 * 7            # one each of B+(t) and B-(t) per sample


def test_even_signature_makes_no_gram_certificate(monkeypatch):
    c = simplicial.cap_duality(fixtures.sphere_triangulation())
    calls = count_calls(monkeypatch, "hpsig", spectral.invertibility_certificate)
    signature.localized_signature_path(c, 10.0, 7)
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
    svd = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    a, b = (str(fixture_dir / f"{name}.json") for name in ("cp2_model", "circle_model"))
    assert run_cli(capsys, "product", a, b) == 0
    # B+ and B- once each, and -B+ and -B- for the s = 1 endpoint
    assert len(eigh) <= 4
    # W is checked block by block: no matrix of the product's size 3 * 2
    assert (6, 6) not in [shape[-2:] for shape in svd]


def test_odd_even_witness_decomposes_the_even_differential_once(monkeypatch, capsys,
                                                                fixture_dir):
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.eigh)
    a, b = (str(fixture_dir / f"{name}.json") for name in ("circle_model", "cp2_model"))
    assert run_cli(capsys, "product", a, b) == 0
    assert len(calls) == 1               # g(D_b) and f(D_b) from one eigensystem


@pytest.mark.parametrize("samples", [3, 10])
def test_sgn_odd_runs_each_schedule_sample_once(monkeypatch, capsys, fixture_dir,
                                                samples):
    calls = count_calls(monkeypatch, "hpsig", signature._odd_sample)
    assert run_cli(capsys, "sgn", str(fixture_dir / "circle_model.json"),
                   "--samples-schedule", str(samples)) == 0
    # the report reads the t = 1 sample from the schedule
    assert len(calls) == samples


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
    # 2 per schedule sample; the report reads the t = 1 sample's pair
    assert len(calls) == 20


def test_validate_takes_each_two_norm_once(monkeypatch):
    c = fixtures.cp2_model()
    assert not c.space.has_weights       # no inner-product checks
    calls = count_calls(monkeypatch, "numpy.linalg", np.linalg.svd)
    hpc_core.validate(c)
    # ||S||, ||S - S*||, ||S^2 - 1||, ||SD + DS|| and ||D||
    assert len(calls) == 5


def test_check_reduces_each_coboundary_once(monkeypatch, capsys, fixture_dir):
    calls = count_calls(monkeypatch, "hpsig", simplicial.rref)
    assert run_cli(capsys, "check", str(fixture_dir / "cp2_9.json")) == 0
    # the four coboundaries, the [image | kernel] selection and the pairing rank
    assert len(calls) == 6
