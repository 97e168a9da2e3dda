"""Work counts: each fact about an operator is computed once per command.

Calls are counted by replacing a function, wherever a module namespace binds
it, with a counting wrapper; hpsig modules bind most names by from-import.
"""

import sys

import numpy as np
import pytest

from hpsig import cli, hpc_core, rho, spectral


def _namespaces(prefix: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]


def count_calls(monkeypatch, prefix: str, fn) -> list:
    """Wrap fn in every module under prefix; the returned list grows per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
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
