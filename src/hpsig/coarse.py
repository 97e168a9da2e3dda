"""Finite-metric-space bookkeeping for operator supports: propagation,
composition and tensor bounds, propagation along a fibration base,
localization paths with shrinking propagation, and the almost-projection
product arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .hpc_core import DomainError, StructuralError
from .spectral import operator_norm


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Symmetric distance matrix with zero diagonal and triangle inequality.

    pi, when present, labels each point with a point of the base space
    (the fibration shadow used by propagation-along-base).
    """

    dist: np.ndarray
    base: "FiniteMetricSpace | None" = None
    pi: tuple[int, ...] | None = None

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise StructuralError("distance matrix must be square")
        if np.any(np.diag(d) != 0):
            raise StructuralError("distance matrix must have zero diagonal")
        if not np.array_equal(d, d.T):
            raise StructuralError("distance matrix must be symmetric")
        if np.any(d < 0):
            raise StructuralError("distances must be nonnegative")
        n = d.shape[0]
        for k in range(n):
            viol = d - (d[:, k:k + 1] + d[k:k + 1, :])
            if np.any(viol > 1e-12 * max(1.0, float(d.max()))):
                raise StructuralError(f"triangle inequality fails through point {k}")
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        if (self.pi is None) != (self.base is None):
            raise StructuralError("pi and base must be supplied together")
        if self.pi is not None:
            pi = tuple(int(x) for x in self.pi)
            if len(pi) != n:
                raise StructuralError("pi must label every point")
            if any(x < 0 or x >= self.base.size for x in pi):
                raise StructuralError("pi labels reference missing base points")
            object.__setattr__(self, "pi", pi)

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    @cached_property
    def base_dist(self) -> np.ndarray:
        """Distance in the base between the images under pi of each pair of
        points; needs the fibration labeling."""
        if self.pi is None or self.base is None:
            raise StructuralError("operator space carries no fibration labeling")
        pi = np.asarray(self.pi)
        d = self.base.dist[pi][:, pi]
        d.setflags(write=False)
        return d


def largest_distance(dist: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Largest entry of dist where support holds, over the last two axes, and
    0 where it holds nowhere: the propagation of one support or of each
    support in a stack."""
    return np.where(support, dist, 0.0).max(axis=(-2, -1), initial=0.0)


@lru_cache(maxsize=16)
def path_space(n: int, step: float = 1.0) -> FiniteMetricSpace:
    """n points on a line with unit (or step) spacing.  Repeated calls with
    the same arguments return the same space, so that the product spaces
    built from it are found in the cache of product_space."""
    idx = np.arange(n, dtype=float)
    return FiniteMetricSpace(np.abs(idx[:, None] - idx[None, :]) * step)


def product_space(x: FiniteMetricSpace, y: FiniteMetricSpace,
                  metric: str = "l2") -> FiniteMetricSpace:
    """Product metric space with the l2 (default) or max product metric.

    Points ordered x-major; pi projects onto the first factor.  Repeated
    calls with the same factor objects and metric return the same space, so
    it is built and validated once.
    """
    return _product_space(x, y, metric)


# Factor spaces hash by identity (eq=False) and are immutable; the bound
# keeps a process that builds many spaces from holding every product alive.
@lru_cache(maxsize=16)
def _product_space(x: FiniteMetricSpace, y: FiniteMetricSpace,
                   metric: str) -> FiniteMetricSpace:
    dx = np.kron(x.dist, np.ones((y.size, y.size)))
    dy = np.kron(np.ones((x.size, x.size)), y.dist)
    if metric == "l2":
        d = np.sqrt(dx * dx + dy * dy)
    elif metric == "max":
        d = np.maximum(dx, dy)
    else:
        raise DomainError(f"unknown product metric {metric!r}")
    pi = tuple(int(i) for i in np.repeat(np.arange(x.size), y.size))
    return FiniteMetricSpace(d, base=x, pi=pi)


def rescale_metric(x: FiniteMetricSpace, s: float) -> FiniteMetricSpace:
    """Multiply all distances by s > 0; propagation of a fixed operator
    scales by exactly s."""
    if not s > 0:
        raise DomainError(f"scale must be positive, got {s}")
    base = rescale_metric(x.base, s) if x.base is not None else None
    return FiniteMetricSpace(x.dist * s, base=base, pi=x.pi)


@dataclass(frozen=True, eq=False)
class SupportedOperator:
    """Matrix over the points of a finite metric space with a support cutoff.

    tau_supp = None selects the default: 0 for exact integer-valued entries,
    1e-12 * max|entry| otherwise.
    """

    space: FiniteMetricSpace
    matrix: np.ndarray
    tau_supp: float | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = self.space.size
        if m.shape != (n, n):
            raise StructuralError(f"operator shape {m.shape} does not match "
                                  f"{n} points")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.tau_supp is None:
            exact = np.array_equal(m, np.round(m.real)) and np.all(m.imag == 0)
            tau = 0.0 if exact else 1e-12 * float(np.abs(m).max(initial=0.0))
            object.__setattr__(self, "tau_supp", tau)

    @cached_property
    def support(self) -> np.ndarray:
        return np.abs(self.matrix) > self.tau_supp

    @cached_property
    def propagation(self) -> float:
        return float(largest_distance(self.space.dist, self.support))

    @property
    def norm(self) -> float:
        return operator_norm(self.matrix)


def propagation(op: SupportedOperator) -> float:
    """Largest distance between points paired by the support."""
    return op.propagation


def compose(a: SupportedOperator, b: SupportedOperator) -> SupportedOperator:
    """Matrix product; propagation is subadditive."""
    if a.space is not b.space and not np.array_equal(a.space.dist, b.space.dist):
        raise StructuralError("operators live on different spaces")
    return SupportedOperator(a.space, a.matrix @ b.matrix,
                             max(a.tau_supp, b.tau_supp))


def add(a: SupportedOperator, b: SupportedOperator) -> SupportedOperator:
    if a.space is not b.space and not np.array_equal(a.space.dist, b.space.dist):
        raise StructuralError("operators live on different spaces")
    return SupportedOperator(a.space, a.matrix + b.matrix,
                             max(a.tau_supp, b.tau_supp))


def tensor(a: SupportedOperator, b: SupportedOperator,
           metric: str = "l2") -> SupportedOperator:
    """Kronecker product on the product space; propagation obeys the l2
    bound sqrt(prop(a)^2 + prop(b)^2) (or max for the max metric)."""
    space = product_space(a.space, b.space, metric)
    return SupportedOperator(space, np.kron(a.matrix, b.matrix),
                             max(a.tau_supp, b.tau_supp))


def prop_along_base(op: SupportedOperator) -> float:
    """sup of base distances over the support; needs the fibration labeling."""
    return float(largest_distance(op.space.base_dist, op.support))


# ---------------------------------------------------------------------------
# localization paths


@dataclass(frozen=True, eq=False)
class LocalizationPath:
    """Sampled path of supported operators on [1, T].

    The envelope is the non-increasing majorant of the per-sample
    propagations (the eventual-sup reading of "propagation goes to zero").
    """

    times: tuple[float, ...]
    operators: tuple[SupportedOperator, ...]

    def __post_init__(self):
        if len(self.times) != len(self.operators) or not self.times:
            raise StructuralError("need one operator per sample time")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise StructuralError("sample times must increase")
        if self.times[0] != 1.0:
            raise StructuralError("localization paths start at t = 1")

    @cached_property
    def propagations(self) -> tuple[float, ...]:
        return tuple(op.propagation for op in self.operators)

    @cached_property
    def envelope(self) -> tuple[float, ...]:
        out = []
        running = 0.0
        for p in reversed(self.propagations):
            running = max(running, p)
            out.append(running)
        return tuple(reversed(out))


def evaluation(path: LocalizationPath, tau: float | None = None
               ) -> tuple[SupportedOperator, bool]:
    """Value at t = 1 and the obstruction-type predicate (value vanishes)."""
    op = path.operators[0]
    cutoff = op.tau_supp if tau is None else tau
    return op, bool(op.norm <= cutoff)


def almost_projection_product(f_path: LocalizationPath, g_path: LocalizationPath,
                              r: float, metric: str = "l2"
                              ) -> tuple[LocalizationPath, dict]:
    """Product path 1 - (f-1)(x)(g-1) of two almost-projection paths.

    Preconditions: every f sample is self-adjoint with ||f^2 - f|| <= 1/10 and
    propagation < r; every g sample likewise, with g(1) = 1.  The output is
    then self-adjoint with ||h^2 - h|| <= 3/10 at every sample, its value at
    t = 1 is the identity, and its propagation obeys the product-metric bound.
    """
    if len(f_path.times) != len(g_path.times) or f_path.times != g_path.times:
        raise StructuralError("paths must share their sample grid")
    checks = []
    for which, path in (("f", f_path), ("g", g_path)):
        for t, op in zip(path.times, path.operators):
            m = op.matrix
            sa = operator_norm(m - m.conj().T)
            defect = operator_norm(m @ m - m)
            if sa > 1e-10 * max(1.0, op.norm):
                raise DomainError(f"{which}({t}) is not self-adjoint")
            if defect > 0.1 + 1e-12:
                raise DomainError(f"{which}({t}) is not a 1/10-projection "
                                  f"(defect {defect:.3f})")
        if which == "f":
            bad = [t for t, op in zip(path.times, path.operators)
                   if op.propagation >= r]
            if bad:
                raise DomainError(f"f({bad[0]}) has propagation >= r = {r}")
    g1 = g_path.operators[0]
    if operator_norm(g1.matrix - np.eye(g1.space.size)) > 1e-10 * max(1.0, g1.norm):
        raise DomainError("g(1) must be the identity")

    ops = []
    defects = []
    prop_bounds_ok = True
    for fo, go in zip(f_path.operators, g_path.operators):
        na, nb = fo.space.size, go.space.size
        a = fo.matrix - np.eye(na)
        b = go.matrix - np.eye(nb)
        h = np.eye(na * nb) - np.kron(a, b)
        space = product_space(fo.space, go.space, metric)
        op = SupportedOperator(space, h, max(fo.tau_supp, go.tau_supp))
        ops.append(op)
        defects.append(operator_norm(h @ h - h))
        off_diag = SupportedOperator(space, np.kron(a, b),
                                     max(fo.tau_supp, go.tau_supp))
        if metric == "l2":
            bound = float(np.hypot(fo.propagation, go.propagation))
        else:
            bound = max(fo.propagation, go.propagation)
        if off_diag.propagation > bound + 1e-12:
            prop_bounds_ok = False
    path = LocalizationPath(f_path.times, tuple(ops))
    value_1, _ = evaluation(path)
    at_one = operator_norm(value_1.matrix - np.eye(value_1.space.size))
    report = {
        "max_defect": max(defects),
        "defect_bound": 0.3,
        "defects_ok": all(d <= 0.3 + 1e-12 for d in defects),
        "propagation_bound_ok": prop_bounds_ok,
        "value_at_1_is_identity": bool(at_one <= 1e-10 * max(1.0, value_1.norm)),
        "passed": bool(all(d <= 0.3 + 1e-12 for d in defects) and prop_bounds_ok
                       and at_one <= 1e-10 * max(1.0, value_1.norm)),
    }
    return path, report
