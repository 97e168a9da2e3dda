"""Fixture corpus integrity: shipped files match the builders byte for byte,
and every fixture satisfies its structural claims."""

import itertools
import subprocess
import sys
from collections import Counter

from hpsig import fixtures
from hpsig.hpc_core import validate
from hpsig.simplicial import betti_numbers


def test_shipped_corpus_matches_builders(fixture_dir, tmp_path):
    regenerated = fixtures.write_corpus(tmp_path)
    assert regenerated
    for path in regenerated:
        shipped = fixture_dir / path.name
        assert shipped.exists(), f"missing shipped fixture {path.name}"
        assert shipped.read_bytes() == path.read_bytes(), path.name


def test_documented_regeneration_command_runs_without_warnings(fixture_dir, tmp_path):
    # runpy warns when importing the package has already loaded the module it runs
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "hpsig.fixtures", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in fixture_dir.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes(), name


def test_models_validate_at_strict_tier():
    for name, build in fixtures.MODELS.items():
        rep = validate(build())
        assert rep.passed and rep.tier_achieved == "strict", name


def test_cp2_triangulation_combinatorics():
    sm = fixtures.cp2_triangulation()
    # f-vector of the nine-vertex projective plane
    assert sm.dims == (9, 36, 84, 90, 36)
    assert betti_numbers(sm) == (1, 0, 1, 0, 1)
    euler = sum((-1) ** p * d for p, d in enumerate(sm.dims))
    assert euler == 3
    count = Counter()
    for f in sm.facets:
        for c in itertools.combinations(f, 4):
            count[c] += 1
    assert all(v == 2 for v in count.values())


def test_torus_rotation_is_duality_compatible():
    import numpy as np
    rot = fixtures.fiber_rotation_on_torus_model()
    t2 = fixtures.torus_model()
    s = np.asarray(t2.S)
    assert np.abs(rot.conj().T @ s @ rot - s).max() == 0.0
    # the plain swap is not compatible: it reverses the orientation
    swap = np.eye(4, dtype=complex)
    swap[1:3, 1:3] = np.array([[0, 1], [1, 0]])
    assert np.abs(swap.conj().T @ s @ swap - s).max() > 1.0
