"""End-to-end CLI behavior: exit codes, report schema, byte stability."""

import argparse
import json
import os
import re
import subprocess
import sys
from hashlib import sha256

import numpy as np
import pytest

from hpsig import cli, fixtures
from hpsig.hpc_core import HPComplex, hpcomplex_to_json, validate
from hpsig.signature import signature_even
from hpsig.simplicial import cap_duality


def run(cli_cmd, *args):
    return subprocess.run([*cli_cmd, *args], capture_output=True, text=True)


def report_of(proc):
    return json.loads(proc.stdout)


def test_check_point_passes(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "check", str(fixture_dir / "point.json"))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["schema"] == "hpsig-report/9"
    assert rep["outcome"] == "pass"


def test_check_torus_reports_oracle(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "check", str(fixture_dir / "torus7.json"))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["data"]["oracle_signature"] == 0
    assert rep["data"]["betti"] == [1, 2, 1]


def test_corrupted_json_exits_two(cli_cmd, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run(cli_cmd, "check", str(bad))
    assert proc.returncode == 2
    assert "cannot parse" in proc.stderr


def test_missing_file_exits_two(cli_cmd, tmp_path):
    proc = run(cli_cmd, "check", str(tmp_path / "absent.json"))
    assert proc.returncode == 2


def test_sgn_point_and_cp2(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "sgn", str(fixture_dir / "point_model.json"))
    assert proc.returncode == 0
    assert report_of(proc)["data"]["signature"] == 1
    proc = run(cli_cmd, "sgn", str(fixture_dir / "cp2_model.json"))
    assert report_of(proc)["data"]["signature"] == 1


def test_sgn_odd_certificate(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "sgn", str(fixture_dir / "circle_model.json"))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["data"]["kind"] == "odd"
    # the certificate of u is no check of its own: signature_report raises
    # unless it passes, and its value is data.minSingular
    assert [c["name"] for c in rep["checks"]] == ["localization_schedule"]
    assert rep["data"]["minSingular"] == [pytest.approx(1.0, rel=1e-12)]


def test_sgn_on_triangulation(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "sgn", str(fixture_dir / "cp2_9.json"))
    assert proc.returncode == 0
    assert report_of(proc)["data"]["signature"] == 1


def test_sgn_on_odd_triangulation(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "sgn", str(fixture_dir / "circle3.json"))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["data"]["kind"] == "odd" and rep["outcome"] == "pass"


def test_check_homotopy_equivalence_file(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "check", str(fixture_dir / "he_reduction_sphere_d3.json"))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["data"]["kind"] == "homotopy_equivalence"
    assert rep["outcome"] == "pass"


def test_product_cp2_cp2(cli_cmd, fixture_dir):
    path = str(fixture_dir / "cp2_model.json")
    proc = run(cli_cmd, "product", path, path)
    assert proc.returncode == 0
    rep = report_of(proc)
    extras = rep["checks"][0]["extras"]
    assert extras["sgn_product"] == 1 == extras["sgn_a"] * extras["sgn_b"]


def test_product_point_passthrough(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "product", str(fixture_dir / "point_model.json"),
               str(fixture_dir / "torus_model.json"))
    rep = report_of(proc)
    assert rep["checks"][0]["extras"]["sgn_product"] == 0
    assert proc.returncode == 0


def test_product_witnesses_run_for_mixed_parity(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "product", str(fixture_dir / "sphere_model.json"),
               str(fixture_dir / "circle_model.json"))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert [c["name"] for c in rep["checks"]] == ["signature_multiplicative",
                                                  "even_odd_witness"]
    assert rep["data"]["witness"]["passed"]


def test_rho_identity_passes(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "rho", str(fixture_dir / "he_identity_sphere_model.json"))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["outcome"] == "pass"
    assert [c["name"] for c in rep["checks"]] == ["duality_path_invertible",
                                                  "terminal_segment"]
    assert rep["data"]["terminal"]["min_margin"] > 0


def test_rho_reduction_passes(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "rho", str(fixture_dir / "he_reduction_sphere_d3.json"))
    assert proc.returncode == 0


def test_rho_negative_control_fails_with_location(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "rho", str(fixture_dir / "he_orientation_mismatch.json"))
    assert proc.returncode == 1
    rep = report_of(proc)
    assert rep["outcome"] == "fail"
    assert rep["data"]["path"]["failed_at"] == pytest.approx(0.5, abs=1e-9)


def test_rho_offgrid_crossing_fails_with_location(cli_cmd, fixture_dir):
    # the path of he_offgrid_crossing is singular at t* = 1 / 1.988, off the
    # grid; the interval certificate locates it within 2^-7
    proc = run(cli_cmd, "rho", str(fixture_dir / "he_offgrid_crossing.json"))
    assert proc.returncode == 1
    rep = report_of(proc)
    assert [c["name"] for c in rep["checks"] if not c["passed"]] == ["duality_path_invertible"]
    assert abs(rep["data"]["path"]["failed_at"] - 1.0 / 1.988) <= 2.0 ** -7


def test_chs_trivial_bundle(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "chs", str(fixture_dir / "fc_sphere_x_cp2.json"))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["data"]["chs"]["outcome"] == "pass"
    assert rep["data"]["chs"]["sgn_fiber"] == 1


def test_chs_mapping_torus_odd_note(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "chs", str(fixture_dir / "fc_mapping_torus_cp2.json"))
    assert proc.returncode == 0
    assert report_of(proc)["data"]["chs"]["outcome"] == "odd_dimension"


def test_chs_twisted_hypothesis_not_met(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "chs", str(fixture_dir / "fc_torus_twist.json"))
    assert proc.returncode == 0
    assert report_of(proc)["data"]["chs"]["outcome"] == "hypothesis_not_met"


def test_coarse_suite_passes(cli_cmd):
    proc = run(cli_cmd, "coarse", "--instances", "30", "--seed", "5")
    assert proc.returncode == 0
    rep = report_of(proc)
    assert all(c["passed"] for c in rep["checks"])


def test_reports_are_byte_stable(cli_cmd, fixture_dir):
    args = [*cli_cmd, "sgn", str(fixture_dir / "cp2_model.json"), "--seed", "7"]
    a = subprocess.run(args, capture_output=True)
    b = subprocess.run(args, capture_output=True)
    assert a.stdout == b.stdout and a.stdout


def test_coarse_seeded_reproducibility(cli_cmd):
    args = [*cli_cmd, "coarse", "--instances", "20", "--seed", "13"]
    a = subprocess.run(args, capture_output=True)
    b = subprocess.run(args, capture_output=True)
    assert a.stdout == b.stdout


# SHA-256 of the coarse report at 100 instances: a change to the random
# stream or to the checks drawn from it shows here (schema hpsig-report/9)
COARSE_REPORT_DIGESTS = {
    ("0", "l2"): "0abae6580384ed67048339ab2b6637f01e69e45e35720a227a2b58ab339d8212",
    ("0", "max"): "c8ffb7532ece58a40ce15318f94b5860fef463f12b414d84a08cac31b171d112",
    ("42", "l2"): "c40989f7b87e05beb8838ff6b85225fbbe99ddb2f6ea04923af3f2c3e0db036c",
    ("42", "max"): "19a325d276b4e4ebb2ac90a32c00df17d433856465c3abed9d1c2812a765b4aa",
}


@pytest.mark.parametrize("seed, metric", sorted(COARSE_REPORT_DIGESTS))
def test_coarse_report_bytes_are_pinned(cli_cmd, seed, metric):
    proc = subprocess.run([*cli_cmd, "coarse", "--instances", "100", "--seed", seed,
                           "--metric", metric], capture_output=True)
    assert proc.returncode == 0
    assert sha256(proc.stdout).hexdigest() == COARSE_REPORT_DIGESTS[(seed, metric)]


# the same at 1000 instances, eight blocks of the stacked suite
COARSE_1000_REPORT_DIGESTS = {
    ("0", "l2"): "0736520c1294dcb513feeaecdae9ea626275d2a101001c6ec8e6683b1dbaf5e2",
    ("0", "max"): "98414472f62a90dd80bad05f5b72321d31aa73f92728811c7debe0b04ee752a4",
    ("42", "l2"): "aca30c0b8a913fc4b3e696340d0cd8472ec0544ff34aea2303f991c1246b23c8",
    ("42", "max"): "e7c4735c87a48ebafd6697f65a41d0c07f9c193b8b32d81aa7640d6d3e7a8f03",
}


@pytest.mark.parametrize("seed, metric", sorted(COARSE_1000_REPORT_DIGESTS))
def test_coarse_report_bytes_are_pinned_at_1000_instances(cli_cmd, seed, metric):
    proc = subprocess.run([*cli_cmd, "coarse", "--instances", "1000", "--seed", seed,
                           "--metric", metric], capture_output=True)
    assert proc.returncode == 0
    assert sha256(proc.stdout).hexdigest() == COARSE_1000_REPORT_DIGESTS[(seed, metric)]


# runs each argv of the JSON list argv[1] through cli.main in this one
# process and prints [[exit code, report], ...]
_REPORTS_CHILD = """
import contextlib, io, json, sys
from hpsig import cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out.append([code, json.loads(buf.getvalue())])
print(json.dumps(out))
"""


def _assert_reports_agree(a, b, key=None) -> None:
    """Equal but for floats, which agree to relative 1e-10; failed_at is
    a location and must be equal."""
    assert type(a) is type(b), key
    if isinstance(a, dict):
        assert a.keys() == b.keys(), key
        for k in a:
            _assert_reports_agree(a[k], b[k], k)
    elif isinstance(a, list):
        assert len(a) == len(b), key
        for x, y in zip(a, b):
            _assert_reports_agree(x, y, key)
    elif isinstance(a, float) and key != "failed_at":
        assert a == pytest.approx(b, rel=1e-10, abs=0), key
    else:
        assert a == b, key


def test_reports_agree_across_blas_thread_counts(fixture_dir):
    # bytes are fixed only for one BLAS build and thread count: reductions
    # may be ordered differently on more threads.  Verdicts are not, and
    # floats agree within a relative bound
    ops = [["check", str(fixture_dir / "cp2_9.json")],
           ["sgn", str(fixture_dir / "cp2_9.json")],
           ["sgn", str(fixture_dir / "torus7.json")],
           ["rho", str(fixture_dir / "he_reduction_sphere_d3.json")]]
    runs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _REPORTS_CHILD, json.dumps(ops)], capture_output=True,
            text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert [code for code, _ in runs[0]] == [0, 0, 0, 0]
    for (code_1, report_1), (code_2, report_2) in zip(*runs):
        assert code_1 == code_2 and report_1["outcome"] == report_2["outcome"]
        _assert_reports_agree(report_1, report_2)


def _key_paths(node, prefix: str) -> set[str]:
    """The dotted path of every leaf of a report below prefix, with [] for a
    list element; an empty dict or list is a leaf."""
    if isinstance(node, dict) and node:
        return {p for k, v in node.items() for p in _key_paths(v, f"{prefix}.{k}")}
    if isinstance(node, list) and node:
        return {p for v in node for p in _key_paths(v, prefix + "[]")}
    return {prefix}


# per command, the key paths below checks and data over KEY_PATH_BATTERY:
# each fact of a report is stated once, under one of these
KEY_PATHS = {
    "check": """
        checks[].name checks[].passed
        checks[].report.checks[].name checks[].report.checks[].passed
        checks[].report.checks[].residual checks[].report.checks[].threshold
        checks[].report.cert_plus.condition checks[].report.cert_plus.max_singular
        checks[].report.cert_plus.min_singular checks[].report.cert_plus.passed
        checks[].report.cert_plus.threshold
        checks[].report.cert_minus.condition checks[].report.cert_minus.max_singular
        checks[].report.cert_minus.min_singular checks[].report.cert_minus.passed
        checks[].report.cert_minus.threshold
        checks[].report.poincare checks[].report.passed
        checks[].report.tier_declared checks[].report.tier_achieved
        checks[].report.strict_s_squared_residual checks[].report.strict_anticommute_residual
        checks[].report.chain_map_f checks[].report.chain_map_g
        checks[].report.homotopy_source checks[].report.homotopy_target
        checks[].report.control_condition
        checks[].report.chain_map_residual checks[].report.cocycle_residual
        checks[].report.duality_residual checks[].report.duality_compatible
        checks[].report.threshold
        data.kind data.betti[] data.duality_construction data.oracle_signature
        data.duality_compatible""",
    "sgn": """
        checks[].name checks[].passed checks[].failed_at checks[].margin
        data.kind data.signature data.ranks data.ranks[] data.minSingular[]
        data.evenPartDim data.selfAdjointResidual
        data.schedule.times[] data.schedule.ranks data.schedule.ranks[][]
        data.schedule.min_singulars[] data.schedule.margin data.schedule.midpoints
        data.schedule.failed_at data.schedule.passed""",
    "product": """
        checks[].name checks[].passed
        checks[].extras.sgn_a checks[].extras.sgn_b checks[].extras.sgn_product
        checks[].extras.dims[]
        data.case data.k_normalization
        data.sign_rule.alpha data.sign_rule.beta data.sign_rule.gamma
        data.sign_rule.delta data.sign_rule.phase_power
        data.witness.identities[].name data.witness.identities[].residual
        data.witness.identities[].threshold data.witness.identities[].passed
        data.witness.certificates data.witness.certificates[].condition
        data.witness.certificates[].max_singular data.witness.certificates[].min_singular
        data.witness.certificates[].passed data.witness.certificates[].threshold
        data.witness.extras data.witness.extras.rank_P data.witness.extras.reference_rank
        data.witness.extras.sgn_even_factor data.witness.passed""",
    "rho": """
        checks[].name checks[].passed checks[].failed_at
        data.path.times[] data.path.min_sv_plus[] data.path.min_sv_minus[]
        data.path.margins[] data.path.min_margin data.path.midpoints[]
        data.path.selfadjoint_residual data.path.threshold data.path.min_singular
        data.path.passed data.path.failed_at
        data.terminal.min_margin data.terminal.odd_bound data.terminal.failed_at
        data.terminal.passed""",
    "chs": """
        checks[].name checks[].passed checks[].outcome
        data.monodromy.loops[][] data.monodromy.residuals[] data.monodromy.trivial
        data.chs.outcome data.chs.sgn_base data.chs.sgn_fiber data.chs.sgn_total
        data.chs.note""",
    "coarse": """
        checks[].name checks[].passed checks[].ok checks[].total checks[].max_defect
        data.instances data.metric""",
}
KEY_PATH_BATTERY = [
    ["check", "cp2_9.json"], ["check", "cp2_model.json"],
    ["check", "he_reduction_sphere_d3.json"], ["check", "fc_torus_twist.json"],
    ["sgn", "cp2_model.json"], ["sgn", "circle_model.json"],
    ["product", "cp2_model.json", "circle_model.json"],
    ["product", "circle_model.json", "sphere_model.json"],
    ["product", "circle_model.json", "circle_model.json"],
    ["rho", "he_identity_sphere_model.json"], ["rho", "he_orientation_mismatch.json"],
    ["chs", "fc_sphere_x_cp2.json"], ["chs", "fc_torus_twist.json"],
    ["coarse", "--instances", "5"]]


def test_report_key_paths_are_pinned(capsys, fixture_dir):
    paths: dict[str, set] = {}
    products = []
    for argv in KEY_PATH_BATTERY:
        cli.main([str(fixture_dir / a) if a.endswith(".json") else a for a in argv])
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"schema", "command", "inputs", "tolerances", "seed",
                               "generator", "checks", "data", "outcome"}
        assert set(report["tolerances"]) == {"sym", "inv"}
        found = paths.setdefault(argv[0], set())
        found |= _key_paths(report["checks"], "checks") | _key_paths(report["data"], "data")
        if argv[0] == "product":
            products.append((report["data"]["case"], report["data"]["k_normalization"]))
    assert {cmd: sorted(found) for cmd, found in paths.items()} == {
        cmd: sorted(text.split()) for cmd, text in KEY_PATHS.items()}
    assert products == [("even_x_odd", 1), ("odd_x_even", 1), ("odd_x_odd", 2)]


def test_json_out_matches_stdout(cli_cmd, fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    proc = run(cli_cmd, "check", str(fixture_dir / "sphere_model.json"),
               "--json-out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout


def test_tolerance_flags_accepted(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "check", str(fixture_dir / "sphere_model.json"),
               "--tol-sym", "1e-9", "--tol-inv", "1e-7")
    rep = report_of(proc)
    assert rep["tolerances"]["sym"] == 1e-9
    assert rep["tolerances"]["inv"] == 1e-7


def test_sgn_certifies_a_skewed_duality_that_check_passes(cli_cmd, tmp_path):
    # S + 4e-11 K with K skew-Hermitian, ||K||_2 = 1, on the degree-reversal
    # pattern: ||S - S*||_2 = 8e-11 passes S_self_adjoint, and the schedule
    # decomposes the Hermitian part with the skew part in the Weyl slack
    cap = cap_duality(fixtures.sphere_triangulation())
    rng = np.random.default_rng(0)
    a = rng.standard_normal((cap.total_dim, cap.total_dim))
    degree = np.repeat(np.arange(cap.n + 1), cap.space.dims)
    a = np.where(degree[:, None] + degree == cap.n, a + a.T, 0.0)
    k = 1j * a / np.linalg.norm(a, 2)
    c = HPComplex(cap.space, cap.d, np.asarray(cap.S) + 4e-11 * k, "weak")
    report = validate(c)
    assert report.passed and report.check("S_self_adjoint").residual > 7e-11
    path = tmp_path / "skewed_sphere.json"
    path.write_text(json.dumps(hpcomplex_to_json(c)))
    assert run(cli_cmd, "check", str(path)).returncode == 0
    proc = run(cli_cmd, "sgn", str(path))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0
    assert report_of(proc)["data"]["signature"] == signature_even(c) == 0


def _model_with_s_entry(entry):
    """argv checking sphere_model.json with S[0][0] replaced by entry."""
    def build(tmp_path, fixture_dir):
        doc = json.loads((fixture_dir / "sphere_model.json").read_text())
        doc["S"][0][0] = entry
        path = tmp_path / "bad_entry.json"
        path.write_text(json.dumps(doc))
        return ["check", str(path)]
    return build


def _on_fixture(command, name, *flags):
    return lambda tmp_path, fixture_dir: [command, str(fixture_dir / name), *flags]


def _even_odd_product(*flags):
    """argv for product on cp2_model x circle_model, whose witness runs."""
    return lambda tmp_path, fixture_dir: ["product", str(fixture_dir / "cp2_model.json"),
                                          str(fixture_dir / "circle_model.json"), *flags]


def _edited(command, name, edit):
    """argv running command on fixture name after edit changed its document."""
    def build(tmp_path, fixture_dir):
        doc = json.loads((fixture_dir / name).read_text())
        edit(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return [command, str(path)]
    return build


def _not_an_object(tmp_path, fixture_dir):
    path = tmp_path / "number.json"
    path.write_text("5")
    return ["check", str(path)]


def _singular_transition(command, key):
    """argv running command on fc_torus_twist.json with the zero matrix as its
    only transition, stored under key."""
    zero = [[[0.0, 0.0]] * 4 for _ in range(4)]
    return _edited(command, "fc_torus_twist.json",
                   lambda doc: doc.update(transitions={key: zero}))


def _degree_mixing_transition(command):
    """argv running command on fc_mapping_torus_cp2.json, cp2_model over the
    circle, with one transition swapping fiber degrees 0 and 4: it commutes
    with d = 0 and keeps the duality, but is no map of graded spaces."""
    swap = [[[float(i + j == 2), 0.0] for j in range(3)] for i in range(3)]
    return _edited(command, "fc_mapping_torus_cp2.json",
                   lambda doc: doc.update(transitions={"2,0": swap}))


INPUT_ERRORS = {
    "entry_string": _model_with_s_entry(["nan", 0]),
    "entry_bare_string": _model_with_s_entry("x"),
    "entry_bare_scalar": _model_with_s_entry(1.0),
    "entry_nan": _model_with_s_entry([float("nan"), 0.0]),
    "entry_infinite": _model_with_s_entry([float("inf"), 0.0]),
    "entry_one_component": _model_with_s_entry([1.0]),
    "tol_inv_negative": _on_fixture("check", "sphere_model.json", "--tol-inv", "-1"),
    "tol_inv_nan": _on_fixture("check", "sphere_model.json", "--tol-inv", "nan"),
    "tol_sym_zero": _on_fixture("sgn", "sphere_model.json", "--tol-sym", "0"),
    "tol_sym_infinite": _on_fixture("sgn", "sphere_model.json", "--tol-sym", "inf"),
    "instances_negative": lambda tmp_path, fixture_dir: ["coarse", "--instances", "-1"],
    "sgn_t_max_nan": _on_fixture("sgn", "cp2_model.json", "--t-max", "nan"),
    "sgn_t_max_infinite": _on_fixture("sgn", "cp2_model.json", "--t-max", "inf"),
    "sgn_t_max_half": _on_fixture("sgn", "cp2_model.json", "--t-max", "0.5"),
    "he_without_f": _edited("check", "he_identity_sphere_model.json",
                            lambda doc: doc.pop("f")),
    "fibered_transitions_list": _edited("check", "fc_sphere_x_cp2.json",
                                        lambda doc: doc.update(transitions=[])),
    "fibered_transition_key_not_integers": _edited(
        "check", "fc_sphere_x_cp2.json", lambda doc: doc.update(transitions={"a,b": []})),
    "complex_d_integer": _edited("check", "sphere_model.json", lambda doc: doc.update(d=5)),
    "complex_meta_list": _edited("sgn", "sphere_model.json",
                                 lambda doc: doc.update(meta=[1, 2])),
    "complex_S_empty": _edited("check", "sphere_model.json", lambda doc: doc.update(S=[])),
    "document_not_an_object": _not_an_object,
    "fibered_transition_singular_check": _singular_transition("check", "2,0"),
    "fibered_transition_singular_check_reversed": _singular_transition("check", "0,2"),
    "fibered_transition_singular_chs": _singular_transition("chs", "2,0"),
    "fibered_transition_singular_chs_reversed": _singular_transition("chs", "0,2"),
    "fibered_transition_mixing_degrees_check": _degree_mixing_transition("check"),
    "fibered_transition_mixing_degrees_chs": _degree_mixing_transition("chs"),
    "seed_negative": lambda tmp_path, fixture_dir: ["coarse", "--seed", "-1"],
    # argparse's own errors; the sample counts of the certifiers' starting
    # grids are code constants, and only coarse has a --metric
    "rho_unknown_flag": _on_fixture("rho", "he_identity_circle3.json", "--samples-cert", "5"),
    "rho_failing_path_samples_0": _on_fixture("rho", "he_orientation_mismatch.json",
                                              "--samples", "0"),
    "rho_samples_0": _on_fixture("rho", "he_identity_sphere_model.json", "--samples", "0"),
    "rho_samples_6": _on_fixture("rho", "he_identity_sphere_model.json", "--samples", "6"),
    "sgn_samples_schedule_0": _on_fixture("sgn", "cp2_model.json", "--samples-schedule", "0"),
    "sgn_samples_schedule_1": _on_fixture("sgn", "cp2_model.json", "--samples-schedule", "1"),
    "product_samples_witness_negative": _even_odd_product("--samples-witness", "-1"),
    "product_samples_witness_0": _even_odd_product("--samples-witness", "0"),
    "product_without_witness_samples_witness_0": lambda tmp_path, fixture_dir: [
        "product", str(fixture_dir / "cp2_model.json"), str(fixture_dir / "cp2_model.json"),
        "--samples-witness", "0"],
    "check_metric_max": _on_fixture("check", "cp2_9.json", "--metric", "max"),
    "sgn_samples_schedule_not_a_number": _on_fixture("sgn", "cp2_model.json",
                                                     "--samples-schedule", "x"),
    "no_command": lambda tmp_path, fixture_dir: [],
    "unknown_command": lambda tmp_path, fixture_dir: ["frob"],
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_exit_two_with_one_line(cli_cmd, fixture_dir, tmp_path, case):
    proc = run(cli_cmd, *INPUT_ERRORS[case](tmp_path, fixture_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("case, least", [("instances_negative", 0), ("seed_negative", 0)])
def test_count_flag_errors_name_the_flag(cli_cmd, fixture_dir, tmp_path, case, least):
    argv = INPUT_ERRORS[case](tmp_path, fixture_dir)
    proc = run(cli_cmd, *argv)
    assert proc.stderr == f"error: {argv[-2]} must be >= {least}, got {argv[-1]}\n"


@pytest.mark.parametrize("case, value", [("sgn_t_max_nan", "nan"),
                                         ("sgn_t_max_infinite", "inf"),
                                         ("sgn_t_max_half", "0.5")])
def test_t_max_errors_name_the_flag(cli_cmd, fixture_dir, tmp_path, case, value):
    proc = run(cli_cmd, *INPUT_ERRORS[case](tmp_path, fixture_dir))
    assert proc.stderr == f"error: --t-max must be finite and >= 1, got {value}\n"


def test_main_dispatches_to_the_current_cmd_function(monkeypatch, capsys, fixture_dir):
    # the command function is looked up at call time, so a wrapped cmd_* runs
    seen = []

    def fake_check(args, tol):
        seen.append(args.path)
        return cli._report("check", {}, tol, args.seed, [{"name": "fake", "passed": True}],
                           {})

    monkeypatch.setattr(cli, "cmd_check", fake_check)
    path = str(fixture_dir / "point.json")
    assert cli.main(["check", path]) == 0
    assert seen == [path]
    assert json.loads(capsys.readouterr().out)["checks"] == [{"name": "fake", "passed": True}]


def _readme_hpsig_lines(text: str):
    """The README's prose lines, and of its code blocks only the lines that
    run hpsig: the other blocks pass flags to pip and to the fixture builder."""
    fenced = False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced or line.startswith("hpsig "):
            yield line


def test_readme_names_exactly_the_parser_flags(fixture_dir):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for parser in sub.choices.values()
                for flag in parser._option_string_actions if flag.startswith("--")}
    readme = (fixture_dir.parent / "README.md").read_text()
    named = {flag for line in _readme_hpsig_lines(readme)
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)}
    assert named == accepted
