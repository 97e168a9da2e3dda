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
    assert rep["schema"] == "hpsig-report/8"
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
    extras = rep["data"]["signature_product"]["extras"]
    assert extras["sgn_product"] == 1 == extras["sgn_a"] * extras["sgn_b"]


def test_product_point_passthrough(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "product", str(fixture_dir / "point_model.json"),
               str(fixture_dir / "torus_model.json"))
    rep = report_of(proc)
    assert rep["data"]["signature_product"]["extras"]["sgn_product"] == 0
    assert proc.returncode == 0


def test_product_witnesses_run_for_mixed_parity(cli_cmd, fixture_dir):
    proc = run(cli_cmd, "product", str(fixture_dir / "sphere_model.json"),
               str(fixture_dir / "circle_model.json"))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["data"]["witness"]["kind"] == "even_odd_witness"
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
# stream or to the checks drawn from it shows here (schema hpsig-report/8)
COARSE_REPORT_DIGESTS = {
    ("0", "l2"): "8ec9ae926963b6a1fedec94aa442cd410d559c3981f5b07f9eb6dcd146f4446b",
    ("0", "max"): "cf94998c8097c6a802de64350387a3077a1b0c23c9dda0e0104e2e4fa1dcff71",
    ("42", "l2"): "cbc11d99d3b421368c016c50b539b764962503928950bba6e66e58a50f29a46f",
    ("42", "max"): "8784027fa81522fc4d0a8820112e800c12fac3137ad01b0d10bdb83ddde2ded4",
}


@pytest.mark.parametrize("seed, metric", sorted(COARSE_REPORT_DIGESTS))
def test_coarse_report_bytes_are_pinned(cli_cmd, seed, metric):
    proc = subprocess.run([*cli_cmd, "coarse", "--instances", "100", "--seed", seed,
                           "--metric", metric], capture_output=True)
    assert proc.returncode == 0
    assert sha256(proc.stdout).hexdigest() == COARSE_REPORT_DIGESTS[(seed, metric)]


# the same at 1000 instances, eight blocks of the stacked suite
COARSE_1000_REPORT_DIGESTS = {
    ("0", "l2"): "f9d2d2967cb26741793628a76e675d28e79892b5e797c4c5257eda39a108fc60",
    ("0", "max"): "7c3a94add6257605962f2620f2e32e2d6f2e2d54b7788eebc46d3456eaf3df11",
    ("42", "l2"): "317f6da39251d689a3b1b01f4f7b0cde03956dffe03e2cb63bbc34862b32047b",
    ("42", "max"): "ca2c8450c3feeac7ad73e9e69353591ff16070faa03977240516900f5b784de5",
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
