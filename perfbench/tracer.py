"""Outside-in tracer: wraps hpsig's public functions and the numpy.linalg
kernels they reach, without touching the package's source.

hpsig modules bind names by from-import (``validate`` lives in the
namespaces of ``hpc_core``, ``signature``, ``rho``, ``products``, ``family``
and ``cli``), so wrapping one attribute would miss most calls.  The tracer
therefore replaces a function by object identity in every ``hpsig.*``
namespace that holds it.  The LAPACK-backed routines are replaced in
``numpy.linalg`` and in ``numpy.linalg._linalg`` as well: ``norm(m, 2)`` and
``matrix_rank`` reach ``svd`` through a module global of ``_linalg``.

Each call is a span (name, start, end, parent).  Self time is a span's
duration minus the time covered by its child spans.  Bookkeeping that reads
the arguments (content hashes, sizes) is charged to no span.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np
import numpy.linalg
import numpy.linalg._linalg

LAYERS = ("cli", "hpc_core", "simplicial", "spectral", "signature", "products",
          "rho", "family", "coarse", "lapack")
LAPACK = ("eigh", "eigvalsh", "svd", "inv")

# Textbook operation counts (Golub and Van Loan) for an n x n real matrix,
# as a multiple of n^3; complex arithmetic costs four times as much.
_FLOP_FACTOR = {"eigh": 9.0, "eigvalsh": 4.0 / 3.0, "svd_values": 8.0 / 3.0,
                "svd": 21.0, "inv": 2.0}


def _content_hash(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a)
    return h.digest()


def _complex_hash(c) -> bytes:
    inner = [g for g in c.space.inner if g is not None] if c.space.inner else []
    return _content_hash(np.asarray(c.space.dims), c.S, *c.d, *inner) + c.tier.encode()


class Tracer:
    """Counts, self times and spans of one or more traced passes."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.keep_spans = False
        self.reset()

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        self.calls: Counter = Counter()          # by span name
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()         # by layer
        self.rref_cells = 0
        self.decode_entries = 0
        self.lapack_max_n = 0
        self.flops = 0.0
        self.decomps = 0
        self.distinct_matrices = 0
        self.validates = 0
        self.distinct_complexes = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._op_matrices: set = set()
        self._op_complexes: set = set()

    def end_op(self) -> None:
        """Close an operation: distinct inputs are counted per operation."""
        self.distinct_matrices += len(self._op_matrices)
        self.distinct_complexes += len(self._op_complexes)
        self._op_matrices = set()
        self._op_complexes = set()

    def layer_totals(self) -> dict:
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, n in self.calls.items():
            layer = name.split(".", 1)[0]
            out[layer]["calls"] += n
            out[layer]["self_s"] += self.self_s[name]
        return out

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, on_call=None):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            spent = 0.0
            if on_call is not None:
                t0 = perf()
                on_call(args, kwargs)
                spent = perf() - t0
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                tracer.self_s[name] += dur - frame[0]
                tracer.calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += dur + spent
                if tracer.keep_spans:
                    tracer.spans.append((frame[1], parent[1] if parent else 0,
                                         name, start, end))

        return traced

    def _on_rref(self, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        self.rref_cells += len(rows) * (len(rows[0]) if len(rows) else 0)

    def _on_decode(self, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        self.decode_entries += sum(len(r) for r in rows)

    def _on_validate(self, args, kwargs):
        self.validates += 1
        self._op_complexes.add(_complex_hash(args[0] if args else kwargs["c"]))

    def _lapack_hook(self, routine: str):
        def on_call(args, kwargs):
            a = np.asarray(args[0])
            m, n = a.shape[-2], a.shape[-1]
            batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
            key = routine
            if routine == "svd" and not kwargs.get("compute_uv", True if len(args) < 3
                                                   else args[2]):
                key = "svd_values"
            scale = 4.0 if np.iscomplexobj(a) else 1.0
            self.flops += _FLOP_FACTOR[key] * scale * batch * m * n * min(m, n)
            self.lapack_max_n = max(self.lapack_max_n, m, n)
            self.decomps += 1
            self._op_matrices.add(_content_hash(a))
        return on_call

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Replace every target by its wrapper in every namespace holding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hpsig_modules = [m for name, m in sorted(sys.modules.items())
                         if (name == "hpsig" or name.startswith("hpsig.")) and m]
        wrappers: dict[int, object] = {}
        for mod in hpsig_modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    hook = {"rref": self._on_rref, "validate": self._on_validate,
                            "decode_matrix": self._on_decode}.get(attr)
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer, hook)
        for routine in LAPACK:
            original = getattr(numpy.linalg._linalg, routine)
            wrappers[id(original)] = self._wrap(original, f"lapack.{routine}", "lapack",
                                                self._lapack_hook(routine))
        for ns in [*hpsig_modules, numpy.linalg, numpy.linalg._linalg]:
            for attr, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, w)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches = []


def lapack_profile_counts(profile) -> dict:
    """Calls of the numpy.linalg routines seen by cProfile, for cross-checks."""
    import pstats

    counts = Counter()
    for (filename, _, func), stat in pstats.Stats(profile).stats.items():
        if func in LAPACK and filename.endswith("_linalg.py"):
            counts[func] += stat[1]
    return {r: counts[r] for r in LAPACK}
