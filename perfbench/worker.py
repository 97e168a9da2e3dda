"""One benchmark process: set up a workload, then measure it in a closed loop.

Run by ``run.py``; the last line of standard output is a JSON object.
Set-up covers importing hpsig from ``src/`` of the checkout, generating the
inputs from the seed, and one untimed warm-up call per command.  The timed
part then runs whole passes over the operation list, one operation after
the other, so every run measures the same mix of inputs.  With ``--trace 1``
untraced and traced passes alternate instead.
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import LAPACK, LAYERS, Tracer, lapack_profile_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def clock() -> float:
    """Monotonic clock shared by all processes on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_hpsig():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hpsig

    if not Path(hpsig.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hpsig imported from {hpsig.__file__}, not from {src}")
    return hpsig


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it says."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "python": platform.python_version()}


class Gate:
    """Runs operations and counts wrong verdicts."""

    def __init__(self):
        self.first_output: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{key}: {why}")

    def run(self, op) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            res = op.call()
        except Exception as exc:
            self.fail(op.key, f"raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        why = workloads.judge(op, res)
        first = self.first_output.setdefault(op.key, res.output)
        if why is None and res.output != first:
            why = "report bytes differ from the first repetition"
        if why is not None:
            self.fail(op.key, why)
        return elapsed


class Reference:
    """Client of the machine-speed reference process (``reference.py``).

    ``time`` asks it for one kernel timing, as a multiple of the kernel's
    nominal time, and waits for the answer, so the kernel never runs while
    hpsig does.  ``log`` keeps (end, slowdown) of every timing on this
    process's clock.
    """

    WINDOW_S = 2.0

    def __init__(self, fds: str):
        to_ref, from_ref = (int(fd) for fd in fds.split(","))
        self.to_ref = os.fdopen(to_ref, "w")
        self.from_ref = os.fdopen(from_ref, "r")
        self.log: list[tuple[float, float]] = []

    def time(self) -> float:
        self.to_ref.write("\n")
        self.to_ref.flush()
        slowdown = float(self.from_ref.readline())
        self.log.append((time.perf_counter(), slowdown))
        return slowdown

    def scale(self, start: float, end: float) -> float:
        """One over the median slowdown within ``WINDOW_S`` of the interval;
        the drift is slow, and one reference time can hit a stall."""
        near = [d for t, d in self.log if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        return 1.0 / statistics.median(near)


def run_pass(ops, gate: Gate, tracer=None, reference=None):
    """One pass over the operations; returns its time, the operation times
    and their start times.  A reference, if given, is timed after each
    operation."""
    start = time.perf_counter()
    samples, starts = [], []
    for op in ops:
        starts.append(time.perf_counter())
        samples.append(gate.run(op))
        if reference is not None:
            reference.time()
        if tracer is not None:
            tracer.end_op()
    return time.perf_counter() - start, samples, starts


def measure(ops, gate: Gate, seconds: float, reference: Reference) -> dict:
    """Whole passes until the next one would end more than half a pass late.
    The pass time includes the reference timings."""
    samples: list[float] = []
    starts: list[float] = []
    pass_s: list[float] = []
    reference.time()
    start = time.perf_counter()
    while True:
        took, got, began = run_pass(ops, gate, reference=reference)
        samples += got
        starts += began
        pass_s.append(took)
        if time.perf_counter() - start + took / 2 >= seconds:
            break
    scales = [reference.scale(t, t + d) for t, d in zip(starts, samples)]
    return {"samples": samples, "scales": scales, "pass_s": pass_s}


def pass_metrics(tracer: Tracer, n_ops: int) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    out = {}
    totals = tracer.layer_totals()
    for layer in LAYERS:
        out[f"{layer}.calls"] = totals[layer]["calls"]
        out[f"{layer}.self_s"] = totals[layer]["self_s"]
        out[f"{layer}.errors"] = tracer.errors[layer]
    out["simplicial.rref.calls"] = calls["simplicial.rref"]
    out["simplicial.rref.cells"] = tracer.rref_cells
    out["simplicial.orient_facets.self_s"] = self_s.get("simplicial.orient_facets", 0.0)
    for routine in LAPACK:
        out[f"lapack.{routine}.calls"] = calls[f"lapack.{routine}"]
    out["lapack.max_n"] = tracer.lapack_max_n
    out["lapack.flops_computed"] = tracer.flops
    out["lapack.decomps_per_distinct_matrix"] = (
        tracer.decomps / tracer.distinct_matrices if tracer.distinct_matrices else 0.0)
    out["hpc_core.validate.calls"] = calls["hpc_core.validate"]
    out["hpc_core.validate.per_distinct_complex"] = (
        tracer.validates / tracer.distinct_complexes if tracer.distinct_complexes else 0.0)
    out["hpc_core.decode_matrix.self_s"] = self_s.get("hpc_core.decode_matrix", 0.0)
    out["hpc_core.decode_matrix.entries"] = tracer.decode_entries
    out["rho.rho_path.per_op"] = calls["rho.rho_path"] / n_ops
    out["family.total_complex.self_s"] = self_s.get("family.total_complex", 0.0)
    out["cli.render_report.self_s"] = self_s.get("cli.render_report", 0.0)
    return out


# LAPACK counts of one command, from the tracer and from cProfile at once
CROSS_CHECKS = {"signature": ["sgn", "fixtures/cp2_9.json"],
                "path": ["rho", "fixtures/he_reduction_sphere_d3.json"]}


def cross_check(tracer: Tracer, argv: list[str], gate: Gate) -> dict:
    argv = [argv[0], str(ROOT / argv[1])]
    tracer.reset()
    tracer.install()
    profile = cProfile.Profile()
    try:
        profile.enable()
        res = workloads.run_cli(argv)
        profile.disable()
    finally:
        tracer.uninstall()
    traced = {r: tracer.calls[f"lapack.{r}"] for r in LAPACK}
    profiled = lapack_profile_counts(profile)
    gate.attempted += 1
    if res.code != 0 or traced != profiled:
        gate.fail(" ".join(argv), f"exit {res.code}; tracer counted {traced}, "
                                   f"cProfile counted {profiled}")
    return {"argv": argv, "traced": traced, "cprofile": profiled}


def measure_traced(ops, gate: Gate, seconds: float, workload: str, seed: int) -> dict:
    tracer = Tracer()
    untraced, traced, per_pass, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(ops, gate)[0])
        tracer.reset()
        tracer.keep_spans = not per_pass
        tracer.install()
        try:
            traced.append(run_pass(ops, gate, tracer)[0])
        finally:
            tracer.uninstall()
        per_pass.append(pass_metrics(tracer, len(ops)))
        if not spans:
            spans = tracer.spans
        if time.perf_counter() - start + (untraced[-1] + traced[-1]) / 2 >= seconds:
            break
    # counts repeat exactly; times are medians over the traced passes
    metrics = dict(per_pass[0])
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics["trace_overhead_ratio"] = statistics.median(untraced) / statistics.median(traced)
    unstable = sorted(name for name in metrics if not name.endswith(".self_s")
                      and name != "trace_overhead_ratio"
                      and any(p[name] != per_pass[0][name] for p in per_pass))
    checks = []
    if workload in CROSS_CHECKS:
        checks.append(cross_check(tracer, CROSS_CHECKS[workload], gate))
    _write_spans(workload, seed, spans)
    return {"metrics": metrics, "traced_passes": len(traced), "cross_checks": checks,
            "counts_differing_between_passes": unstable}


def _write_spans(workload: str, seed: int, spans: list[tuple]) -> None:
    """Spans of the first traced pass, for inspection after the run."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    t0 = spans[0][3] if spans else 0.0
    doc = {"fields": ["id", "parent", "name", "start_s", "end_s"],
           "spans": [[i, p, name, round(s - t0, 9), round(e - t0, 9)]
                     for i, p, name, s, e in sorted(spans, key=lambda x: x[0])]}
    path = out / f"spans-{workload}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for inputs")
    parser.add_argument("--reference-fds", help="write,read pipe fds of the reference process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_hpsig()
    ops = workloads.build(args.workload, args.seed, Path(args.work), ROOT)
    gate = Gate()
    warmed = set()
    for op in ops:
        if op.command not in warmed:
            warmed.add(op.command)
            gate.run(op)
    # the warm-ups reach one product parity case; fill the sign-rule cache
    # for all four, so no timed product derives a rule
    from hpsig import products
    for m in (0, 1):
        for n in (0, 1):
            products.derive_sign_rule(m, n)
    ready_at = clock()
    setup_scale = 1.0
    if not args.trace:
        reference = Reference(args.reference_fds)
        setup_scale = 1.0 / statistics.median(reference.time() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "setup_scale": setup_scale}))
        return 0

    if args.trace:
        result = measure_traced(ops, gate, args.seconds, args.workload, args.seed)
    else:
        result = measure(ops, gate, args.seconds, reference)
    result.update({"ready_at": ready_at, "setup_scale": setup_scale,
                   "ops_per_pass": len(ops),
                   "attempted": gate.attempted, "failed": gate.failed,
                   "failures": gate.failures, "env": environment(),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
