"""hpsig benchmark: verdict latency and throughput per workload, and per-layer
self time and LAPACK work counts from a separate traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0

The benchmark is a closed loop with one client: each operation (one verdict,
that is one ``hpsig`` CLI command run in-process or one library call) starts
after the previous one returns.  It imports hpsig from ``src/`` of the
checkout and builds every input from ``--seed``; ``workloads.py`` lists the
operations and ``inputs.py`` says why each expected verdict is right.

With ``--trace 0`` it starts the worker process five times; the median time
from process start to the first timed operation is ``setup_s``, and the last
worker measures.  Times are scaled to a nominal machine speed, because the
speed of a shared machine drifts: after each operation the worker pauses and
has a reference kernel timed in a process of its own (``reference.py``),
which this script starts and which never imports hpsig.  Each verdict's time
is then the median over the repetitions of its operation in the run.  The
raw wall-clock figures are printed beside the scaled ones.  With
``--trace 1`` one worker alternates untraced and traced passes and reports
the per-layer metrics (see ``tracer.py``); counts come from one traced pass
and repeat exactly for a fixed seed, times are unscaled totals over one
pass, median over the traced passes.  ``README.md`` lists every metric.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Generated inputs go
to ``.perfbench_tmp/`` (removed afterwards) and the spans of a traced run to
``.perfbench_out/``, both under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "signature", "path", "bundle")
SETUPS = 5
# The workers of a run get a set-up allowance each and twice ``--seconds``
# (the last pass may end half a pass late, and a traced run also runs every
# pass untraced), plus a margin; a worker still running then is killed and
# the run prints no result.
SETUP_ALLOWANCE_S = 20.0
MARGIN_S = 20.0

# (tail percentile, fewest verdicts a 25-second run makes).  Each tail has at
# least ten verdicts beyond it and falls inside a rung of like inputs, so it
# does not jump between rungs from run to run.
TAIL = {"oracle": (85, 84), "signature": (80, 60), "path": (70, 36),
        "bundle": (80, 85)}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, work_root: Path, extra: list[str], deadline: float, ref=None) -> dict:
    """Run one worker to completion; returns its result and its set-up time,
    raw and scaled.  ``ref``, the reference process, is handed to it."""
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), *extra]
    fds = ()
    if ref is not None:
        fds = (ref.stdin.fileno(), ref.stdout.fileno())
        cmd += ["--reference-fds", ",".join(map(str, fds))]
    started = clock()
    try:
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, pass_fds=fds) as proc:
            try:
                out, _ = proc.communicate(timeout=max(1.0, deadline - clock()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("worker did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = result["ready_at"] - started
    result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
    return result


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def timing(workload: str, samples: list[float], n_ops: int) -> dict:
    """Rate, median and tail of the verdict times.  Each verdict's time is
    the median over the repetitions of its operation in the run, so one stall
    stays out of the percentiles and the rate."""
    per_op = [statistics.median(samples[i::n_ops]) for i in range(n_ops)]
    verdicts = [per_op[i % n_ops] for i in range(len(samples))]
    q, _ = TAIL[workload]
    return {"verdicts_per_s": len(verdicts) / sum(verdicts),
            "verdict_s.p50": statistics.median(verdicts),
            "verdict_s.tail": percentile(verdicts, q)}


def end_to_end(workload: str, setups: list[dict], res: dict) -> tuple[dict, dict]:
    """The metrics at the nominal machine speed, and the same times raw."""
    scaled = [t * c for t, c in zip(res["samples"], res["scales"])]
    values = timing(workload, scaled, res["ops_per_pass"])
    values.update({
        "right_verdict_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    })
    raw = timing(workload, res["samples"], res["ops_per_pass"])
    raw["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    return values, raw


def start_reference() -> subprocess.Popen:
    """The reference process, started from this process's environment and
    timed once, so its start-up overlaps no worker.  Its BLAS runs one
    thread: a BLAS thread pool spins for a while after each call, and the
    reference's would take a processor from the worker's next operation."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    ref = subprocess.Popen([sys.executable, str(HERE / "reference.py")], env=env,
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    ref.stdin.write("\n")
    ref.stdin.flush()
    if not ref.stdout.readline():
        stop_reference(ref)
        raise RuntimeError(f"reference process exited with code {ref.returncode}")
    return ref


def stop_reference(ref: subprocess.Popen) -> None:
    ref.stdin.close()
    try:
        ref.wait(timeout=10)
    except subprocess.TimeoutExpired:
        ref.kill()
        ref.wait()
    ref.stdout.close()


def units(trace: int) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hpsig" / "__init__.py").is_file():
        print(f"error: no hpsig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must be in (0, 60]", file=sys.stderr)
        return 2
    deadline = clock() + SETUPS * SETUP_ALLOWANCE_S + 2 * args.seconds + MARGIN_S
    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    ref = None
    try:
        setups = []
        if not args.trace:
            ref = start_reference()
            for _ in range(SETUPS - 1):
                setups.append(spawn(args, work_root, ["--setup-only"], deadline, ref))
        res = spawn(args, work_root, [], deadline, ref)
        setups.append(res)
    except (RuntimeError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if ref is not None:
            stop_reference(ref)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    print("env: " + json.dumps(res["env"], sort_keys=True))
    for failure in res["failures"]:
        print(f"wrong verdict: {failure}")
    if args.trace:
        values = res["metrics"]
        for check in res["cross_checks"]:
            print("lapack cross-check: " + json.dumps(check, sort_keys=True))
        if res["counts_differing_between_passes"]:
            print("counts differing between traced passes: "
                  + ", ".join(res["counts_differing_between_passes"]))
        print(f"traced passes: {res['traced_passes']} of {res['ops_per_pass']} verdicts")
    else:
        values, raw = end_to_end(args.workload, setups, res)
        q, floor = TAIL[args.workload]
        n = len(res["samples"])
        print(f"verdicts: {n} in {len(res['pass_s'])} passes of {res['ops_per_pass']}; "
              f"tail = p{q} (designed for at least {floor} samples); "
              f"median machine-speed scale {statistics.median(res['scales']):.3f}")
        for name, value in raw.items():
            print(f"{name}: scaled {values[name]:.6g}, raw wall-clock {value:.6g}")
        if n * (100 - q) / 100 < 10:
            print(f"warning: fewer than ten samples beyond p{q}")
    declared = units(args.trace)
    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
