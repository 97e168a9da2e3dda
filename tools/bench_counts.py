"""Deterministic work counts of a fixed list of hpsig commands.

Each command runs in process through ``hpsig.cli.main``.  Every call of a
``numpy.linalg`` routine that reaches LAPACK is counted by routine, shape
and dtype of its first argument.  Counts do not depend on timing or on the
machine's load, so two files written by this script can be diffed exactly.
Each op also records ``peak_traced_bytes``: the peak of the memory that
``tracemalloc`` traces while the command runs, above what it traced when
the command started, the least of three runs after the counted one.  It
counts the arrays hpsig allocates, not LAPACK's private copies of its
operands, and Python's own objects move it by some hundred bytes between
invocations.

    python3 tools/bench_counts.py --out BENCH_33.json --base HEAD

counts the ``src/`` of the working tree and, with ``--base``, that of a git
revision, extracted with ``git archive`` into a temporary directory.  Each
tree is counted in a subprocess of its own, so the two never share an
import.  Both run in the repository root and read its ``fixtures/`` by
relative path, so they see the same inputs, and each op records the length
and the sha256 of its stdout report, whose ``inputs`` name the fixtures by
those relative paths: the digests do not depend on where the repository is
checked out.  Each tree also records the line count of its
``src/hpsig/*.py``.
The file also records the git HEAD, whether ``src/`` differs from it, and
the BLAS thread count.  The script exits 1 when an op of the working tree
exits with another code than the one listed for it (1 for the three
negative controls, 0 for every other op) and, with ``--base``, when the
report of an op differs from the base's; it names each such op on stderr.
For a report that differs it also prints the JSON path of each value that
moved, with both values, and the largest relative change among them
(|a - b| / max(|a|, |b|) for two numbers, inf for any other difference), and
records them in the op's ``moved`` and ``largest_relative_change``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUTINES = ("eigh", "eigvalsh", "svd", "solve", "inv")
# each op with the exit code it must have
OPS = ([(["check", "fixtures/cp2_9.json"], 0), (["check", "fixtures/torus7.json"], 0),
        (["sgn", "fixtures/cp2_9.json"], 0),
        (["sgn", "fixtures/circle3.json"], 0), (["sgn", "fixtures/torus7.json"], 0),
        (["product", "fixtures/cp2_model.json", "fixtures/circle_model.json"], 0),
        # the memory rung: one dense complex of dimension 42 x 42 = 1764
        (["product", "fixtures/torus7.json", "fixtures/torus7.json"], 0),
        # the split rung: the cp2 model has d = 0, so D + S of the product,
        # of dimension 255 x 3 = 765, is the direct sum of blocks of 510 and 255
        (["product", "fixtures/cp2_9.json", "fixtures/cp2_model.json"], 0)]
       + [(["rho", f"fixtures/he_{name}.json"], code)
          for name, code in (("identity_sphere_model", 0), ("orientation_mismatch", 1),
                             ("reduction_sphere_d3", 0), ("offgrid_crossing", 1),
                             ("terminal_crossing", 1), ("identity_circle3", 0))]
       # a path certified with a wide margin passes under a tight symmetry
       # tolerance: it is held to no rounding of its own branch formulas
       + [(["rho", "fixtures/he_identity_sphere_model.json", "--tol-sym", "1e-16"], 0)]
       + [(["chs", f"fixtures/fc_{name}.json"], 0)
          for name in ("mapping_torus_cp2", "sphere_x_cp2", "torus_twist")]
       + [(["coarse", "--instances", "1000"], 0)])


def count(src: Path) -> dict:
    """The line count of each src/hpsig/*.py and their total, and per op, its
    exit code, the length and sha256 of its report, the calls of each
    routine, keyed "routine shape dtype", and its peak traced bytes; hpsig
    is imported from src, and the ops run in the working directory."""
    lines = {p.name: len(p.read_text().splitlines())
             for p in sorted((src / "hpsig").glob("*.py"))}
    sys.path.insert(0, str(src))
    import numpy.linalg
    import numpy.linalg._linalg

    from hpsig import cli

    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            a = args[0]
            calls[f"{name} {tuple(getattr(a, 'shape', ()))} {getattr(a, 'dtype', None)}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # norm(m, 2) reaches svd through a module global of _linalg
    for name in ROUTINES:
        wrapped = counted(name, getattr(numpy.linalg._linalg, name))
        for ns in (numpy.linalg, numpy.linalg._linalg):
            setattr(ns, name, wrapped)

    def run(argv: list[str]) -> tuple[int, bytes, int]:
        """The exit code, the report and the peak traced bytes of one op."""
        report = io.StringIO()
        gc.collect()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, report.getvalue().encode(), tracemalloc.get_traced_memory()[1] - start

    out = []
    tracemalloc.start()
    for argv, _ in OPS:
        calls.clear()
        code, text, _ = run(argv)
        op = {"argv": argv, "exit": code, "report_bytes": len(text),
              "report_sha256": hashlib.sha256(text).hexdigest(),
              "calls": dict(sorted(calls.items())), "report": text.decode()}
        # the counted run also holds what it adds to numpy's and hpsig's
        # caches; the least of three more damps the noise of small ops
        op["peak_traced_bytes"] = min(run(argv)[2] for _ in range(3))
        out.append(op)
    tracemalloc.stop()
    return {"src_lines": {"total": sum(lines.values()), **lines}, "ops": out}


def _moved(base, change, path: str = "$") -> list[tuple[str, object, object]]:
    """The JSON paths at which two decoded reports differ, with both values."""
    if isinstance(base, dict) and isinstance(change, dict) and base.keys() == change.keys():
        return [m for key in base for m in _moved(base[key], change[key], f"{path}.{key}")]
    if isinstance(base, list) and isinstance(change, list) and len(base) == len(change):
        return [m for i, (a, b) in enumerate(zip(base, change))
                for m in _moved(a, b, f"{path}[{i}]")]
    return [] if type(base) is type(change) and base == change else [(path, base, change)]


def _relative_change(a, b) -> float:
    """|a - b| / max(|a|, |b|) for two numbers, inf for any other pair."""
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _report_moves(base: dict, change: dict) -> list[str]:
    """Record in change what moved between the reports of one op, and return
    the lines that name it."""
    try:
        moved = _moved(json.loads(base["report"]), json.loads(change["report"]))
    except json.JSONDecodeError:
        moved = [("$", "(report)", "(report)")]
    change["moved"] = {path: _relative_change(a, b) for path, a, b in moved}
    change["largest_relative_change"] = max(change["moved"].values(), default=0.0)
    return ([f"  {path}: {a!r} -> {b!r}" for path, a, b in moved]
            + [f"  largest relative change: {change['largest_relative_change']:.3g}"])


def _count_in_subprocess(src: Path) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--count", str(src)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    parser.add_argument("--base", help="a git revision to count as well")
    parser.add_argument("--count", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.count:
        print(json.dumps(count(Path(args.count))))
        return
    import numpy  # noqa: F401  (loads the BLAS whose thread count is read)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from worker import blas_threads

    doc = {"head": _git("rev-parse", "HEAD"),
           "src_differs_from_head": bool(_git("status", "--porcelain", "--", "src")),
           "blas_threads": blas_threads()}
    if args.base:
        rev = _git("rev-parse", args.base)
        with tempfile.TemporaryDirectory() as tmp:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            doc["base"] = {"rev": rev, **_count_in_subprocess(Path(tmp) / "src")}
    doc["change"] = {"rev": "working tree", **_count_in_subprocess(ROOT / "src")}
    errors = [f"{' '.join(op['argv'])} exited {op['exit']}, expected {want}"
              for op, (_, want) in zip(doc["change"]["ops"], OPS) if op["exit"] != want]
    if args.base:
        for op, base in zip(doc["change"]["ops"], doc["base"]["ops"]):
            if op["report_sha256"] != base.get("report_sha256"):
                errors.append("\n".join([f"{' '.join(op['argv'])}: report differs from the "
                                         "base's", *_report_moves(base, op)]))
    for side in ("base", "change"):
        for op in doc.get(side, {}).get("ops", []):
            del op["report"]
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
