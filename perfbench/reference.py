"""Machine-speed reference, timed in a process of its own.

The speed of a shared machine drifts: on a shared 2-vCPU x86-64 virtual
machine, wall-time metrics of one workload spread by up to two fifths from
run to run.  ``run.py`` starts this process with its own environment and
hands its pipes to the worker, which pauses after each operation and asks
for one timing.  For each line read on standard input it runs a fixed kernel
once and writes the kernel's duration over ``NOMINAL_S`` as one line on
standard output; it ends when standard input closes.

It imports numpy but never hpsig, so nothing hpsig does to its own process
(BLAS thread count, allocator, large live caches) changes the reference, and
such a change shows in the metrics.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import numpy as np

# Kernel time on a quiet 2-vCPU x86-64 virtual machine with OpenBLAS 0.3.31.
NOMINAL_S = 0.014


class Kernel:
    """Mixes the kinds of work hpsig does: exact Fraction arithmetic, small
    complex numpy kernels, and one decomposition large enough for OpenBLAS
    to use its threads."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        big = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.hermitian = big @ big.conj().T

    def time(self) -> float:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1000):
            total += Fraction(i % 7 - 3, i)
        m = self.matrix
        for _ in range(16):
            np.linalg.svd(m @ m.conj().T, compute_uv=False)
        np.linalg.eigvalsh(self.hermitian)
        return time.perf_counter() - start


def main() -> int:
    kernel = Kernel()
    for _ in sys.stdin:
        print(repr(kernel.time() / NOMINAL_S), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
