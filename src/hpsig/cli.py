"""Command-line interface: validate fixture files, compute signature
certificates, product and parity witnesses, duality-path certificates,
multiplicativity checks, and the seeded propagation suite.

Reports are canonical JSON (schema hpsig-report/9) and byte-stable for fixed
inputs, tolerances, and seed; wall time goes to stderr only so that report
bytes stay deterministic.  Exit codes: 0 pass, 1 check failure, 2 input error.
The sgn localization schedule, the rho duality path and its terminal
segment are certified on whole intervals: each reports its interval margins
and, when an interval cannot be certified, the time failed_at.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from hashlib import sha256
from pathlib import Path

import numpy as np

from . import coarse, family, products, rho, signature, simplicial
from .hpc_core import (CHAIN_TOL, DEFAULT_TOL, DomainError, DualityDegenerateError,
                       HPComplex, StructuralError, Tolerances,
                       hpcomplex_from_json, validate)

SCHEMA = "hpsig-report/9"
EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2


def _digest(path: str) -> str:
    return sha256(Path(path).read_bytes()).hexdigest()


def _load_json(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StructuralError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructuralError(f"{path}: expected a JSON object")
    return doc


def _sniff(doc: dict) -> str:
    if "facets" in doc:
        return "triangulation"
    if "base" in doc and "fiber" in doc:
        return "fibered"
    if "source" in doc and "target" in doc:
        return "homotopy_equivalence"
    if "dims" in doc and "n" in doc:
        return "complex"
    raise StructuralError("unrecognized document: expected a triangulation, "
                          "complex, homotopy equivalence, or fibered complex")


def _complex_from_path(path: str, tol: Tolerances) -> HPComplex:
    doc = _load_json(path)
    kind = _sniff(doc)
    if kind == "triangulation":
        return simplicial.cap_duality(simplicial.load_simplicial(doc), tol)
    if kind == "complex":
        return hpcomplex_from_json(doc)
    raise StructuralError(f"{path}: expected a complex or triangulation, got {kind}")


def _report(command: str, inputs: dict[str, str], tol: Tolerances, seed: int,
            checks: list[dict], data: dict) -> dict:
    outcome = "pass" if all(c.get("passed") for c in checks) else "fail"
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "tolerances": tol.to_dict(),
        "seed": seed,
        "generator": "numpy.random.Generator(PCG64)",
        "checks": checks,
        "data": data,
        "outcome": outcome,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args, tol: Tolerances) -> dict:
    doc = _load_json(args.path)
    kind = _sniff(doc)
    checks: list[dict] = []
    data: dict = {"kind": kind}
    if kind == "triangulation":
        sm = simplicial.load_simplicial(doc)
        c = simplicial.cap_duality(sm, tol)
        rep = validate(c, tol)
        checks.append({"name": "cap_duality_validates", "passed": rep.passed,
                       "report": rep.to_dict()})
        data["betti"] = list(simplicial.betti_numbers(sm))
        data["duality_construction"] = c.meta.get("duality")
        if sm.n % 2 == 0:
            data["oracle_signature"] = simplicial.intersection_form_oracle(sm, tol).signature
    elif kind == "complex":
        c = hpcomplex_from_json(doc)
        if c.S is None:
            checks.append({"name": "d_squared_zero",
                           "passed": c.d_squared_residual <= CHAIN_TOL,
                           "residual": c.d_squared_residual})
            data["note"] = "no duality operator; chain checks only"
        else:
            rep = validate(c, tol)
            checks.append({"name": "axioms", "passed": rep.passed,
                           "report": rep.to_dict()})
    elif kind == "homotopy_equivalence":
        he = rho.he_from_json(doc)
        rep = rho.validate_homotopy_equivalence(he, tol)
        checks.append({"name": "homotopy_identities", "passed": rep.passed,
                       "report": rep.to_dict()})
    else:
        fc = family.fibered_from_json(doc)
        rep = family.validate_fibered(fc, tol)
        checks.append({"name": "fibered_gluing", "passed": rep.passed,
                       "report": rep.to_dict()})
        data["duality_compatible"] = rep.duality_compatible
    return _report("check", {args.path: _digest(args.path)}, tol, args.seed,
                   checks, data)


def cmd_sgn(args, tol: Tolerances) -> dict:
    c = _complex_from_path(args.path, tol)
    schedule = signature.localized_signature_path(c, t_max=args.t_max, tol=tol)
    data = signature.signature_report(c, tol)
    data["schedule"] = schedule.to_dict()
    checks = [{"name": "localization_schedule", "passed": schedule.passed,
               "failed_at": schedule.failed_at, "margin": schedule.margin}]
    return _report("sgn", {args.path: _digest(args.path)}, tol, args.seed,
                   checks, data)


def cmd_product(args, tol: Tolerances) -> dict:
    a = _complex_from_path(args.path_a, tol)
    b = _complex_from_path(args.path_b, tol)
    sig_rep = products.product_signature_check(a, b, tol)
    checks = [{"name": "signature_multiplicative", "passed": sig_rep.passed,
               "extras": sig_rep.extras}]
    data = {"sign_rule": products.derive_sign_rule(a.n, b.n).to_dict(),
            "case": products.parity_case(a.n, b.n),
            "k_normalization": products.k_factor(a.n, b.n)}
    strict = a.meets_strict_tier(tol) and b.meets_strict_tier(tol)
    if strict and a.n % 2 == 0 and b.n % 2 == 1:
        wit = products.witness_even_odd(a, b, tol=tol)
        checks.append({"name": "even_odd_witness", "passed": wit.passed})
        data["witness"] = wit.to_dict()
    elif strict and a.n % 2 == 1 and b.n % 2 == 0:
        wit = products.witness_odd_even(a, b, tol=tol)
        checks.append({"name": "odd_even_witness", "passed": wit.passed})
        data["witness"] = wit.to_dict()
    inputs = {args.path_a: _digest(args.path_a), args.path_b: _digest(args.path_b)}
    return _report("product", inputs, tol, args.seed, checks, data)


def cmd_rho(args, tol: Tolerances) -> dict:
    he = rho.he_from_json(_load_json(args.path))
    path = rho.rho_path(he, tol=tol)
    data: dict = {"path": path.to_dict()}
    checks = [{"name": "duality_path_invertible", "passed": path.passed,
               "failed_at": path.failed_at}]
    if path.passed:
        term = rho.terminal_check(he, path, tol)
        checks.append({"name": "terminal_segment", "passed": term.passed,
                       "failed_at": term.failed_at})
        data["terminal"] = term.to_dict()
    return _report("rho", {args.path: _digest(args.path)}, tol, args.seed,
                   checks, data)


def cmd_chs(args, tol: Tolerances) -> dict:
    fc = family.fibered_from_json(_load_json(args.path))
    chs = family.chs_check(fc, tol)
    checks = [{"name": "fibered_gluing", "passed": chs.gluing.passed}]
    data = {"monodromy": chs.monodromy.to_dict(), "chs": chs.to_dict()}
    # hypothesis_not_met is a correct diagnosis, not a failed check
    checks.append({"name": "multiplicativity", "passed": chs.outcome != "fail",
                   "outcome": chs.outcome})
    return _report("chs", {args.path: _digest(args.path)}, tol, args.seed,
                   checks, data)


# instances of the coarse suite drawn and checked at once; bounds the memory
# of the stacked 48 x 48 Kronecker products
_COARSE_BLOCK = 64


def _draw_band_stacks(rng: np.random.Generator, count: int, n: int, m: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next count instances (a, b, c) of the coarse suite as stacks: a
    and b of n x n band matrices of bandwidth below 4, c of m x m ones of
    bandwidth below 3, with standard complex normal entries on the band.
    A block takes two generator calls, its bandwidths and then its entries."""
    widths = rng.integers(0, (4, 4, 3), size=(count, 3))
    z = rng.standard_normal((count, 2 * (2 * n * n + m * m))).view(complex)

    def band(entries, size, w):
        off = np.abs(np.arange(size)[:, None] - np.arange(size))
        return np.where(off <= w[:, None, None], entries.reshape(-1, size, size), 0.0)

    za, zb, zc = np.split(z, (n * n, 2 * n * n), axis=1)
    return band(za, n, widths[:, 0]), band(zb, n, widths[:, 1]), band(zc, m, widths[:, 2])


def _stacked_propagations(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                          space: coarse.FiniteMetricSpace,
                          small: coarse.FiniteMetricSpace,
                          prod: coarse.FiniteMetricSpace) -> tuple[np.ndarray, ...]:
    """Per instance of the stacks a, b on space and c on small, all with
    support cutoff 0: the propagations of a, b, c, a b and a + b, and those
    of a (x) c on prod = space x small and along its base."""
    n, m = space.size, small.size

    def prop(dist, x):
        return coarse.largest_distance(dist, np.abs(x) > 0.0)

    # the support of a (x) c is the boolean outer product of the supports of
    # a and c, with no product of entries formed, laid out in the order
    # (i, j, k, l), one contiguous m x m block per entry of a; prod's
    # distances are read in the same order
    def by_blocks(d):
        return d.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)

    t_supp = ((a != 0)[:, :, :, None, None] & (c != 0)[:, None, None, :, :]
              ).reshape(len(a), n * n, m * m)
    return (prop(space.dist, a), prop(space.dist, b), prop(small.dist, c),
            prop(space.dist, np.matmul(a, b)), prop(space.dist, a + b),
            coarse.largest_distance(by_blocks(prod.dist), t_supp),
            coarse.largest_distance(by_blocks(prod.base_dist), t_supp))


def _coarse_counts(rng: np.random.Generator, instances: int, metric: str,
                   space: coarse.FiniteMetricSpace, small: coarse.FiniteMetricSpace
                   ) -> tuple[int, int, int, int]:
    """How many of instances random band operators a, b on space (bandwidth
    below 4) and c on small (below 3) obey each propagation bound: the
    composition a b, the sum a + b, the tensor a (x) c in the metric, and
    propagation along the base of a (x) c.  Instances are drawn in order and
    checked _COARSE_BLOCK at a time as stacked arrays."""
    prod = coarse.product_space(space, small, metric)
    counts = np.zeros(4, dtype=int)
    for start in range(0, instances, _COARSE_BLOCK):
        a, b, c = _draw_band_stacks(rng, min(_COARSE_BLOCK, instances - start),
                                    space.size, small.size)
        pa, pb, pc, p_ab, p_sum, p_t, p_base = _stacked_propagations(a, b, c, space,
                                                                     small, prod)
        bound = np.hypot(pa, pc) if metric == "l2" else np.maximum(pa, pc)
        counts += [np.count_nonzero(p_ab <= pa + pb + 1e-9),
                   np.count_nonzero(p_sum <= np.maximum(pa, pb) + 1e-9),
                   np.count_nonzero(p_t <= bound + 1e-9),
                   np.count_nonzero(p_base <= p_t + 1e-9)]
    return tuple(int(x) for x in counts)


def cmd_coarse(args, tol: Tolerances) -> dict:
    rng = np.random.default_rng(args.seed)
    sub_ok, sum_ok, ten_ok, base_ok = _coarse_counts(
        rng, args.instances, args.metric, coarse.path_space(12), coarse.path_space(4))
    # almost-projection product on a shrinking-propagation pair of paths
    times = tuple(float(t) for t in range(1, 6))
    f_ops, g_ops = [], []
    small = coarse.path_space(6)
    for k, t in enumerate(times):
        proj = np.zeros((6, 6))
        proj[0, 0] = 1.0
        width = max(0, 2 - k)
        if width:
            proj[1, 1 + width] = proj[1 + width, 1] = 0.09
        f_ops.append(coarse.SupportedOperator(small, proj, 1e-15))
        g = np.eye(6) if k == 0 else np.eye(6) * 0.0 + np.diag([1, 1, 1, 0, 0, 0])
        g_ops.append(coarse.SupportedOperator(small, g, 1e-15))
    f_path = coarse.LocalizationPath(times, tuple(f_ops))
    g_path = coarse.LocalizationPath(times, tuple(g_ops))
    _, prod_rep = coarse.almost_projection_product(f_path, g_path, r=10.0,
                                                   metric=args.metric)
    checks = [
        {"name": "composition_subadditive", "passed": sub_ok == args.instances,
         "ok": sub_ok, "total": args.instances},
        {"name": "sum_support_bound", "passed": sum_ok == args.instances,
         "ok": sum_ok, "total": args.instances},
        {"name": "tensor_metric_bound", "passed": ten_ok == args.instances,
         "ok": ten_ok, "total": args.instances},
        {"name": "base_propagation_bound", "passed": base_ok == args.instances,
         "ok": base_ok, "total": args.instances},
        {"name": "almost_projection_product", "passed": prod_rep["passed"],
         "max_defect": prod_rep["max_defect"]},
    ]
    return _report("coarse", {}, tol, args.seed, checks,
                   {"instances": args.instances, "metric": args.metric})


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line, as every other input
    error is; its subparsers are of this class too."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--tol-sym", type=float, default=DEFAULT_TOL.sym)
    common.add_argument("--tol-inv", type=float, default=DEFAULT_TOL.inv)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--json-out", default=None, help="write the report here")

    parser = _Parser(
        prog="hpsig",
        description="certified signature calculus on finite duality complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="validate a fixture file of any kind")
    p.add_argument("path")

    p = sub.add_parser("sgn", parents=[common],
                       help="signature / odd certificate with localization schedule")
    p.add_argument("path")
    p.add_argument("--t-max", type=float, default=10.0)

    p = sub.add_parser("product", parents=[common],
                       help="graded product, multiplicativity, parity witnesses")
    p.add_argument("path_a")
    p.add_argument("path_b")

    p = sub.add_parser("rho", parents=[common],
                       help="duality path and terminal segment for an equivalence")
    p.add_argument("path")

    p = sub.add_parser("chs", parents=[common],
                       help="total complex, monodromy, multiplicativity of signatures")
    p.add_argument("path")

    p = sub.add_parser("coarse", parents=[common],
                       help="seeded propagation property suite")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--metric", choices=("l2", "max"), default="l2")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; it binds no command function."""
    return build_parser()


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def _check_domains(args) -> None:
    """Tolerances must be finite and positive, --t-max finite and at least
    1, and --instances and the seed at least 0, before any command runs."""
    for flag, value in (("--tol-sym", args.tol_sym), ("--tol-inv", args.tol_inv)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{flag} must be finite and > 0, got {value}")
    t_max = getattr(args, "t_max", 1.0)
    if not (math.isfinite(t_max) and t_max >= 1.0):
        raise DomainError(f"--t-max must be finite and >= 1, got {t_max}")
    for flag in ("--instances", "--seed"):
        value = getattr(args, flag[2:], 0)
        if value < 0:
            raise DomainError(f"{flag} must be >= 0, got {value}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        _check_domains(args)
        tol = Tolerances(sym=args.tol_sym, inv=args.tol_inv)
        # looked up per call, so a wrapped cmd_* is the one that runs
        report = globals()[f"cmd_{args.command}"](args, tol)
    except (StructuralError, DomainError, DualityDegenerateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    text = render_report(report)
    sys.stdout.write(text)
    if args.json_out:
        Path(args.json_out).write_text(text)
    print(f"# wall_time_s={time.monotonic() - started:.3f}", file=sys.stderr)
    return EXIT_PASS if report["outcome"] == "pass" else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
