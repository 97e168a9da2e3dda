"""Workload definitions: one list of operations per workload, each with the
verdict it must produce, and the gate that checks it.

An operation is one verdict: one CLI command run in-process through
``hpsig.cli.main(argv)`` with stdout captured, or one library call.  All
inputs come from the seed (see ``inputs.py``); files the CLI needs are
written to a scratch directory during set-up.  Every list is ordered with
the cheapest input of each command first, because that one is the warm-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs as gen

WORKLOADS = ("oracle", "signature", "path", "bundle")


@dataclass
class Result:
    code: int
    output: bytes          # report bytes; compared across repetitions
    observed: dict         # key verdict fields
    stderr: str = ""


@dataclass
class Op:
    key: str               # unique within the workload, stable across passes
    command: str           # warm-up group
    call: Callable[[], Result]
    expect: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> Result:
    from hpsig import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:         # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    observed = {}
    if text:
        observed = observe(json.loads(text))
    return Result(code, text.encode(), observed, err.getvalue())


def observe(report: dict) -> dict:
    """The report fields a verdict is judged on."""
    data = report.get("data", {})
    obs = {"outcome": report.get("outcome"),
           "failed_checks": sorted(c["name"] for c in report.get("checks", [])
                                   if not c.get("passed"))}
    for key in ("betti", "oracle_signature", "signature", "case"):
        if key in data:
            obs[key] = data[key]
    if "chs" in data:
        obs["chs.outcome"] = data["chs"]["outcome"]
    if report.get("command") == "product":
        obs["sgn_product"] = report["checks"][0]["extras"]["sgn_product"]
    return obs


def judge(op: Op, res: Result) -> str | None:
    """Why the result is a wrong verdict, or None when it is right."""
    if "Traceback" in res.stderr:
        return "printed a traceback"
    want_code = op.expect.get("exit", 0)
    if res.code != want_code:
        return f"exit code {res.code}, expected {want_code}"
    for key, want in op.expect.items():
        if key != "exit" and res.observed.get(key) != want:
            return f"{key} = {res.observed.get(key)!r}, expected {want!r}"
    return None


def _dump(work: Path, name: str, doc: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return str(path)


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest().encode()


# ---------------------------------------------------------------------------
# oracle: orient_facets on a raw facet list, then `hpsig check`


def _oracle_op(work: Path, key: str, tri: dict, betti: list[int],
               signature: int | None) -> Op:
    facets = [list(f) for f in tri["facets"]]
    ref = tri["orientations"]
    doc_path = work / f"{key.replace('#', '_')}.json"

    def call() -> Result:
        from hpsig import simplicial

        got = list(simplicial.orient_facets(facets, tri["n"]))
        # orient_facets fixes a global sign of its own; align it with the
        # reference so the oracle signature is that of the reference
        flip = got[0] * ref[0]
        aligned = [flip * s for s in got]
        doc = {"n": tri["n"], "vertices": tri["vertices"], "facets": facets,
               "orientations": aligned}
        doc_path.write_text(json.dumps(doc, sort_keys=True))
        res = run_cli(["check", str(doc_path)])
        res.observed["orientation_matches"] = aligned == ref
        res.output = json.dumps(got).encode() + b"\n" + res.output
        return res

    expect = {"outcome": "pass", "betti": betti, "orientation_matches": True,
              "failed_checks": []}
    if signature is not None:
        expect["oracle_signature"] = signature
    return Op(key, "oracle", call, expect)


def oracle_ops(rng, work: Path, root: Path) -> list[Op]:
    ops = []
    for n in (2, 3, 4, 5):
        tri = gen.relabel(gen.simplex_boundary(n), rng.permutation(n + 2))
        ops.append(_oracle_op(work, f"sphere{n}", tri, gen.sphere_betti(n),
                              0 if n % 2 == 0 else None))
    # as many inputs below the 4x4 rung as above it puts the median verdict
    # in its middle, and the p85 verdict inside the 5x5 rung
    for k, copies in ((3, 8), (4, 16), (5, 12)):
        for r in range(copies):
            tri = gen.relabel(gen.torus_grid(k), rng.permutation(k * k))
            ops.append(_oracle_op(work, f"torus{k}x{k}#{r}", tri, gen.TORUS_BETTI, 0))
    ops.append(_oracle_op(work, "torus7", gen.shipped_triangulation(root, "torus7"),
                          gen.TORUS_BETTI, 0))
    ops.append(_oracle_op(work, "cp2_9", gen.shipped_triangulation(root, "cp2_9"),
                          gen.CP2_BETTI, 1))
    return ops


# ---------------------------------------------------------------------------
# signature: sgn on triangulations and random strict complexes, products


def _cli_op(key: str, command: str, argv: list[str], expect: dict) -> Op:
    return Op(key, command, lambda: run_cli(argv), expect)


def _random_strict(rng, n: int, blocks: int):
    from hpsig import fixtures

    return fixtures.random_strict_complex(rng, n, blocks)


def signature_ops(rng, work: Path, root: Path) -> list[Op]:
    from hpsig import fixtures
    from hpsig.hpc_core import hpcomplex_to_json, rescale_inner_products

    ops = []
    ok = {"outcome": "pass", "failed_checks": []}
    for n in (2, 3, 4, 5):
        tri = gen.relabel(gen.simplex_boundary(n), rng.permutation(n + 2))
        ops.append(_cli_op(f"sgn:sphere{n}", "sgn",
                           ["sgn", _dump(work, f"sphere{n}", tri)],
                           {**ok, "signature": 0}))
    ops.append(_cli_op("sgn:torus7", "sgn", ["sgn", str(root / "fixtures" / "torus7.json")],
                       {**ok, "signature": 0}))
    tri = gen.relabel(gen.torus_grid(4), rng.permutation(16))
    ops.append(_cli_op("sgn:torus4x4", "sgn", ["sgn", _dump(work, "torus4x4", tri)],
                       {**ok, "signature": 0}))
    ops.append(_cli_op("sgn:cp2_9", "sgn", ["sgn", str(root / "fixtures" / "cp2_9.json")],
                       {**ok, "signature": 1}))

    # Top degrees 1 and 4 only: their primitive pieces all have the same
    # size, so the dimension does not change with the seed.  Top degree 4
    # uses only the cp2 model (+1), so the signature is the block count.
    strict = {}
    for n, blocks, copies in ((1, 16, 1), (4, 16, 6)):
        for r in range(copies):
            name = f"strict_n{n}_b{blocks}#{r}"
            strict[name] = _dump(work, name.replace("#", "_"),
                                 hpcomplex_to_json(_random_strict(rng, n, blocks)))
            ops.append(_cli_op(f"sgn:{name}", "sgn", ["sgn", strict[name]],
                               {**ok, "signature": blocks if n == 4 else 0}))
    # non-identity inner products, so the weighted to_orthonormal path runs
    c = rescale_inner_products(_random_strict(rng, 4, 8), 2.0)
    path = _dump(work, "strict_n4_b8_weighted", hpcomplex_to_json(c))
    ops.append(_cli_op("sgn:strict_n4_b8_weighted", "sgn", ["sgn", path],
                       {**ok, "signature": 8}))

    docs = {"cp2_model": fixtures.cp2_model(), "torus_model": fixtures.torus_model()}
    for n, blocks in ((1, 4), (1, 8), (1, 32), (4, 4), (4, 8)):
        docs[f"strict_n{n}_b{blocks}"] = _random_strict(rng, n, blocks)
    paths = {name: _dump(work, name, hpcomplex_to_json(c)) for name, c in docs.items()}
    pairs = (("cp2_model", "strict_n4_b4", "even_x_even", 4),
             ("strict_n1_b4", "strict_n1_b8", "odd_x_odd", 0),
             ("strict_n1_b32", "cp2_model", "odd_x_even", 0),
             ("torus_model", "strict_n4_b8", "even_x_even", 0),
             ("cp2_model", "strict_n1_b32", "even_x_odd", 0))
    for a, b, case, sgn in pairs:
        ops.append(_cli_op(f"product:{a}x{b}", "product", ["product", paths[a], paths[b]],
                           {**ok, "case": case, "sgn_product": sgn}))
    return ops


# ---------------------------------------------------------------------------
# path: rho on harmonic reductions, identities and the negative control


def path_ops(rng, work: Path, root: Path) -> list[Op]:
    from hpsig import rho, simplicial

    ok = {"outcome": "pass", "failed_checks": []}
    ops = [_cli_op("rho:he_reduction_sphere_d3", "rho",
                   ["rho", str(root / "fixtures" / "he_reduction_sphere_d3.json")], ok)]
    for name, tri in (("sphere2", gen.simplex_boundary(2)),
                      ("sphere3", gen.simplex_boundary(3)),
                      ("torus3x3", gen.torus_grid(3))):
        tri = gen.relabel(tri, rng.permutation(tri["vertices"]))
        cap = simplicial.cap_duality(simplicial.load_simplicial(tri))
        _, he = simplicial.harmonic_reduction(cap)
        path = _dump(work, f"he_reduction_{name}", rho.he_to_json(he))
        ops.append(_cli_op(f"rho:he_reduction_{name}", "rho", ["rho", path], ok))
    for n, blocks, copies in ((1, 4, 1), (4, 4, 1), (1, 8, 2), (4, 8, 3)):
        for r in range(copies):
            he = rho.identity_equivalence(_random_strict(rng, n, blocks))
            name = f"he_identity_n{n}_b{blocks}#{r}"
            path = _dump(work, name.replace("#", "_"), rho.he_to_json(he))
            ops.append(_cli_op(f"rho:{name}", "rho", ["rho", path], ok))
    ops.append(_cli_op("rho:he_orientation_mismatch", "rho",
                       ["rho", str(root / "fixtures" / "he_orientation_mismatch.json")],
                       {"exit": 1, "outcome": "fail",
                        "failed_checks": ["duality_path_invertible"]}))
    return ops


# ---------------------------------------------------------------------------
# bundle: chs on fibered complexes, total_complex on a twisted one, coarse


def _total_complex_op(key: str, doc: dict, expected_dim: int) -> Op:
    def call() -> Result:
        from hpsig import family

        tot = family.total_complex(family.fibered_from_json(doc))
        observed = {"total_dim": tot.total_dim, "twist": tot.meta.get("twist")}
        return Result(0, _digest(tot.S, *tot.d), observed)

    return Op(key, "total_complex", call,
              {"total_dim": expected_dim, "twist": "nontrivial"})


def bundle_ops(rng, work: Path, root: Path) -> list[Op]:
    from hpsig import fixtures
    from hpsig.hpc_core import encode_matrix, hpcomplex_to_json

    cp2 = hpcomplex_to_json(fixtures.cp2_model())
    torus = hpcomplex_to_json(fixtures.torus_model())
    rotation = encode_matrix(fixtures.fiber_rotation_on_torus_model())
    passes = {"outcome": "pass", "failed_checks": [], "chs.outcome": "pass"}
    ops = []
    for base_name, tri in (("sphere2", gen.simplex_boundary(2)),
                           ("sphere4", gen.simplex_boundary(4)),
                           ("torus3x3", gen.torus_grid(3)),
                           ("torus4x4", gen.torus_grid(4))):
        base = gen.relabel(tri, rng.permutation(tri["vertices"]))
        for fiber_name, fiber in (("cp2_model", cp2), ("torus_model", torus)):
            if base_name == "sphere4" and fiber_name == "torus_model":
                continue
            key = f"{base_name}_x_{fiber_name}"
            path = _dump(work, key, gen.untwisted_bundle(base, fiber))
            ops.append(_cli_op(f"chs:{key}", "chs", ["chs", path], passes))
        if base_name == "torus4x4":
            # two more relabellings make the p80 verdict the middle of three
            for r in (1, 2):
                base = gen.relabel(tri, rng.permutation(tri["vertices"]))
                key = f"{base_name}_x_cp2_model#{r}"
                path = _dump(work, key.replace("#", "_"), gen.untwisted_bundle(base, cp2))
                ops.append(_cli_op(f"chs:{key}", "chs", ["chs", path], passes))
    for k in (3, 4, 5):
        doc = gen.seam_twisted_torus_bundle(k, rng.permutation(k * k), torus, rotation)
        path = _dump(work, f"seam_twisted_torus{k}x{k}", doc)
        ops.append(_cli_op(f"chs:seam_twisted_torus{k}x{k}", "chs", ["chs", path],
                           {"outcome": "pass", "failed_checks": [],
                            "chs.outcome": "hypothesis_not_met"}))
        # k^2 vertices, 3k^2 edges and 2k^2 triangles, fiber dimension 4
        ops.append(_total_complex_op(f"total_complex:seam_twisted_torus{k}x{k}",
                                     doc, 6 * k * k * 4))
    for instances in (100, 1000):
        seed = str(int(rng.integers(0, 2**31 - 1)))
        ops.append(_cli_op(f"coarse:{instances}", "coarse",
                           ["coarse", "--instances", str(instances), "--seed", seed],
                           {"outcome": "pass", "failed_checks": []}))
    return ops


OPERATIONS = {"oracle": oracle_ops, "signature": signature_ops,
            "path": path_ops, "bundle": bundle_ops}


def build(workload: str, seed: int, work: Path, root: Path) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return OPERATIONS[workload](rng, work, root)
