"""Core data model: graded inner-product spaces carrying a differential and a
degree-reversing duality, plus the axiom checks that certify them.

A complex is "Poincaré" here exactly when both D+S and D-S are invertible,
where D = d + d* (the adjoint taken with respect to the stored inner
products) and S is the duality.  Two tiers are tracked: the strict tier
additionally has S^2 = 1 and SD = -DS; the weak tier only needs D+-S
invertible.  All values are immutable and every operation is pure.
"""

from __future__ import annotations

import copy
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import spectral
from .spectral import InvertibilityCertificate, NoSpectralGapError, operator_norm

class StructuralError(ValueError):
    """Shapes, block patterns, or combinatorial invariants are violated."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DualityDegenerateError(NoSpectralGapError):
    """D+S or D-S fails invertibility: the input is not a Poincaré complex."""


@dataclass(frozen=True)
class Tolerances:
    """The numeric thresholds the command line sets, both relative to
    matrix norm: sym for symmetry residuals, inv for invertibility gaps."""

    sym: float = 1e-10
    inv: float = 1e-8

    def to_dict(self) -> dict:
        return {"sym": self.sym, "inv": self.inv}


# fixed thresholds: the least eigenvalue an inner product must exceed and the
# largest entry of d^2, both absolute, and the largest residual of a product
# witness's identities, relative to the norms it compares
PD_TOL = 1e-12
CHAIN_TOL = 1e-12
IDENTITY_TOL = 1e-9


DEFAULT_TOL = Tolerances()


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _cmat(a, rows: int, cols: int, what: str) -> np.ndarray:
    """a as a read-only rows x cols operator, stored in float64 when every
    imaginary part is exactly +0.0 (all of its bits 0) and in complex128
    otherwise: the one place the dtype of a stored operator is decided.
    An imaginary part of -0.0 keeps the matrix complex, so that it encodes
    to the same bytes."""
    m = np.asarray(a)
    if m.dtype != np.float64:
        m = m.astype(complex, copy=False)
        if not m.imag.view(np.uint64).any():
            m = m.real
    if m.shape != (rows, cols):
        raise StructuralError(f"{what}: expected shape {(rows, cols)}, got {m.shape}")
    return _freeze(m)


def _assemble(shape: tuple[int, int], parts) -> np.ndarray:
    """Zeros of shape plus the blocks of parts, triples (rows, cols, pieces)
    placing pieces[e] with its top left corner at (rows[e], cols[e]), or one
    block pieces at (rows, cols) for ints; no two blocks overlap.  float64
    when no piece has a nonzero imaginary part, complex128 otherwise: each
    entry is 0 plus its piece, so a zero of either sign reads +0.0."""
    real = not any(np.iscomplexobj(x) and x.imag.any() for _, _, x in parts)
    out = np.zeros(shape, dtype=float if real else complex)
    for rows, cols, pieces in parts:
        a, b = pieces.shape[-2:]
        out[np.reshape(rows, (-1, 1, 1)) + np.arange(a)[:, None],
            np.reshape(cols, (-1, 1, 1)) + np.arange(b)] = 0.0 + (pieces.real if real
                                                                  else pieces)
    return out


def _conj_transpose(a: np.ndarray, dtype=None) -> np.ndarray:
    """a* as a new C-ordered array, in dtype (that of a by default), formed
    with no buffer beside it: a + a* is then summed into it in place."""
    out = a.T.astype(a.dtype if dtype is None else dtype, order="C")
    return np.conjugate(out, out=out)


def _frobenius(blocks) -> float:
    """The Frobenius norm of the matrix made of these blocks, read block by
    block, so that no array of the whole size is formed."""
    return math.hypot(*(float(np.linalg.norm(b)) for b in blocks))


def _masked_frobenius(a: np.ndarray, mask: np.ndarray) -> float:
    """The Frobenius norm of the entries of a where mask holds, summed by
    einsum in place: no copy of those entries is formed."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return math.sqrt(sum(float(np.einsum("ij,ij,ij->", x, x, mask)) for x in parts))


# rows per slab when ||d - d*|| is read a slab at a time
_SLAB = 64


class Grading:
    """Masks of the grading eps = (-1)^p: same-parity entries, even and odd indices."""

    def __init__(self, parity: np.ndarray):
        self.same = _freeze(parity[:, None] == parity[None, :])
        self.even, self.odd = (_freeze(np.flatnonzero(parity == e)) for e in (1.0, -1.0))


@dataclass(frozen=True, eq=False)
class GradedSpace:
    """Degrees 0..n with per-degree dimensions and Hermitian positive-definite
    inner products (None means the identity)."""

    n: int
    dims: tuple[int, ...]
    inner: tuple[np.ndarray | None, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 0:
            raise StructuralError("top degree must be nonnegative")
        if len(self.dims) != self.n + 1:
            raise StructuralError(
                f"need {self.n + 1} dimensions for degrees 0..{self.n}, got {len(self.dims)}")
        if any(d < 0 for d in self.dims):
            raise StructuralError("dimensions must be nonnegative")
        if sum(self.dims) <= 0:
            raise StructuralError("total dimension must be positive")
        inner = self.inner
        if inner is None:
            inner = tuple(None for _ in self.dims)
        if len(inner) != self.n + 1:
            raise StructuralError("need one inner product per degree")
        fixed = []
        for p, g in enumerate(inner):
            if g is None:
                fixed.append(None)
                continue
            gm = _cmat(g, self.dims[p], self.dims[p], f"G_{p}")
            fixed.append(gm)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "inner", tuple(fixed))

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for d in self.dims:
            out.append(out[-1] + d)
        return tuple(out)

    def degree_slice(self, p: int) -> slice:
        return slice(self.offsets[p], self.offsets[p + 1])

    @cached_property
    def parity(self) -> np.ndarray:
        """Diagonal of the even-odd grading operator: (-1)^p per index."""
        return _freeze(np.repeat([(-1.0) ** p for p in range(self.n + 1)], self.dims))

    @cached_property
    def grading(self) -> Grading:
        return Grading(self.parity)

    def g_block(self, p: int) -> np.ndarray:
        g = self.inner[p]
        if g is None:
            return np.eye(self.dims[p])
        return g

    @property
    def has_weights(self) -> bool:
        return any(g is not None for g in self.inner)

    @cached_property
    def _g_roots(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.has_weights:
            eye = np.eye(self.total_dim, dtype=complex)
            return _freeze(eye), _freeze(eye.copy())
        half = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        halfinv = np.zeros_like(half)
        for p in range(self.n + 1):
            g = self.g_block(p)
            if g.size == 0:
                continue
            es = spectral.eig_hermitian(g)
            vals = es.eigenvalues
            if vals.size and vals.min() <= 0:
                raise StructuralError(f"G_{p} is not positive definite")
            sq = (es.vectors * np.sqrt(vals)) @ es.vectors.conj().T
            sqi = (es.vectors / np.sqrt(vals)) @ es.vectors.conj().T
            half[self.degree_slice(p), self.degree_slice(p)] = sq
            halfinv[self.degree_slice(p), self.degree_slice(p)] = sqi
        return _freeze(half), _freeze(halfinv)

    @property
    def g_half(self) -> np.ndarray:
        return self._g_roots[0]

    @property
    def g_half_inv(self) -> np.ndarray:
        return self._g_roots[1]

    @cached_property
    def _inner_numbers(self) -> tuple[tuple[float, float, float] | None, ...]:
        """Per degree ||G_p||_2, ||G_p - G_p*||_2 and the least eigenvalue of
        G_p, or None for the identity: what check_inner_products compares."""
        return tuple(None if g is None or g.size == 0 else
                     (operator_norm(g), operator_norm(g - g.conj().T),
                      float(np.linalg.eigvalsh(g).min()))
                     for g in self.inner)

    def check_inner_products(self, tol: Tolerances = DEFAULT_TOL) -> None:
        """Raise StructuralError unless every G_p is Hermitian positive definite."""
        for p, numbers in enumerate(self._inner_numbers):
            if numbers is None:
                continue
            scale, skew, mineig = numbers
            if skew > tol.sym * max(scale, 1.0):
                raise StructuralError(f"inner product G_{p} is not Hermitian")
            if mineig <= PD_TOL:
                raise StructuralError(
                    f"inner product G_{p} is not positive definite (min eig {mineig:.3e})")


class DualitySpectrum(NamedTuple):
    """The spectra of the graded Hermitian parts of D +- S up to sign (see
    GradedSum), and a bound slack on the 2-norm of the rest: ascending
    eigenvalues for even n, the union of those of the operand's diagonal
    blocks; the singular values of X+- padded with the zeros of a block that
    is not square for odd n."""

    plus: np.ndarray
    minus: np.ndarray
    slack: float

    def certificates(self, tol_inv: float) -> list[InvertibilityCertificate]:
        return [spectral.spectrum_certificate(v, tol_inv, self.slack) for v in self[:2]]

    def positive_ranks(self) -> list[int]:
        return [int((v > 0).sum()) for v in self[:2]]


def _nonzero(m: np.ndarray) -> np.ndarray:
    """m != 0.  Each entry of a complex m is compared as the two float64 it
    is stored as, several times faster than numpy compares complex numbers,
    and the two results are read as one uint16."""
    if not np.iscomplexobj(m):
        return m != 0
    return (np.ascontiguousarray(m).view(np.float64) != 0).view(np.uint16) != 0


def _symmetric_support(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where a or b, or the transpose of either, is nonzero, as a boolean
    matrix formed in place."""
    out = _nonzero(a)
    out |= _nonzero(b)
    out |= out.T
    return out


def _components(pattern: np.ndarray) -> tuple:
    """Selectors of the diagonal blocks of any matrix whose nonzero entries
    lie where the symmetric boolean pattern holds: one per connected
    component of the graph pattern is the adjacency matrix of, its indices
    ascending, in the order of their least index.  Such a matrix is the
    direct sum of these blocks up to a symmetric permutation, so its
    spectrum is the union of theirs.  A connected pattern selects the whole
    matrix, as a view.  Found breadth first, one boolean row per index,
    in as few numpy calls per level as it takes: their fixed cost, not the
    rows they read, is most of the time on operands of a few hundred rows."""
    unseen = np.ones(len(pattern), dtype=bool)
    out = []
    while unseen[(frontier := unseen.argmax(keepdims=True))[0]]:
        before = unseen.copy()
        unseen[frontier] = False
        while frontier.size:
            reached = np.logical_or.reduce(pattern.take(frontier, axis=0), axis=0)
            reached &= unseen
            unseen ^= reached
            frontier = reached.nonzero()[0]
        out.append((before ^ unseen).nonzero()[0])
    if len(out) == 1:
        return ((slice(None), slice(None)),)
    return tuple((c[:, None], c) for c in out)


class GradedSum:
    """D +- S through the grading eps = (-1)^p, for one D of top degree n:
    D links adjacent degrees and S maps degree p to n - p, so eps D eps = -D
    and eps S eps = (-1)^n S.  For even n, eps (D + S) eps = -(D - S), so one
    Hermitian decomposition of D + S serves both; for odd n, D +- S is
    [[0, X+-], [X+-*, 0]] by degree parity.  The Weyl slack adds the norm of
    the entries breaking these rules to that of the skew parts.

    For even n the nonzero entries of D and of cover, taken with their
    transposes, make the pattern whose connected components split every
    operand of D + S into diagonal blocks (_components): cover must be
    nonzero wherever an S handed to this sum is.  They are found once, here.

    D and S come in the dtype _cmat stored them in, so a float64 D or S is
    read in place.  A complex D, or an S given to operand, hermitian_part or
    spectrum, whose imaginary part is 0 all the same (a weighted complex's
    D_on, a -0.0 imaginary part) is taken in float64 too
    (spectral.real_if_exact), S only while D is real.  spectrum_of, which the
    localization schedule and the rho path call per sample, takes its h in
    the dtype it comes in, and for even n overwrites it."""

    def __init__(self, grading: Grading, n: int, d: np.ndarray, cover: np.ndarray):
        self.grading = grading
        self.even_n = n % 2 == 0
        if self.even_n:
            self._blocks = _components(_symmetric_support(d, cover))
        self._read(d)
        # formed once D is read, so that it is not held beside the pattern
        # or the slabs of D - D*
        self._s_off = ~grading.same if self.even_n else grading.same

    def with_d(self, d: np.ndarray) -> GradedSum:
        """The sum for d in place of D, where d is nonzero only where D is,
        as s D for s > 0 is: the components of this sum serve it."""
        out = copy.copy(self)
        out._read(d)
        return out

    def _read(self, d: np.ndarray) -> None:
        # both read without an array of the whole size beside d
        self.d_skew = _frobenius(d[i:i + _SLAB] - d[:, i:i + _SLAB].conj().T
                                 for i in range(0, len(d), _SLAB))
        if self.d_skew:         # the Hermitian part; a Hermitian D is read in place
            d = (d + d.conj().T) * 0.5
        self.d_off_parity = _masked_frobenius(d, self.grading.same)
        self._d = d = spectral.real_if_exact(d)
        if not self.even_n:
            grading = self.grading
            self._ix = np.ix_(grading.even, grading.odd)
            self._d_block = d[self._ix]
            self._pad = np.zeros(abs(grading.even.size - grading.odd.size))

    @property
    def hermitian(self) -> np.ndarray:
        """The Hermitian part of D, in the dtype of D +- S."""
        return self._d

    def operand(self, s: np.ndarray) -> np.ndarray:
        """s in the dtype of D +- s: float64 when neither has an imaginary part."""
        if np.iscomplexobj(self._d):
            return s.astype(complex, copy=False)
        return spectral.real_if_exact(s)

    def hermitian_part(self, s: np.ndarray) -> np.ndarray:
        """The operand (s + s*)/2, formed in one new array."""
        h = _conj_transpose(s, np.result_type(s, self._d))
        np.add(s, h, out=h)
        h *= 0.5
        return self.operand(h)

    def parity_violation(self, h: np.ndarray) -> np.ndarray:
        """The entries of h breaking the parity rules, flattened."""
        return h[self._s_off]

    def off_parity(self, h: np.ndarray) -> float:
        """Frobenius norm of the entries of D and of h breaking the parity rules."""
        return self.d_off_parity + _masked_frobenius(h, self._s_off)

    def slack(self, h: np.ndarray, s_skew: float) -> float:
        """For h the Hermitian part of S and s_skew >= ||S - S*||_2."""
        return 0.5 * (s_skew + self.d_skew) + self.off_parity(h)

    def blocks(self, s: np.ndarray, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Odd n: X+-, the (even rows, odd columns) blocks of scale D +- s."""
        sb = s[self._ix]
        d = self._d_block if scale == 1.0 else scale * self._d_block
        return d + sb, d - sb

    def spectrum(self, s: np.ndarray, s_skew: float) -> DualitySpectrum:
        h = self.hermitian_part(s)
        return self.spectrum_of(h, self.slack(h, s_skew))

    def spectrum_of(self, h: np.ndarray, slack: float, scale: float = 1.0
                    ) -> DualitySpectrum:
        """The spectrum of scale D +- S for h, the Hermitian part of S: for
        even n, one eigvalsh of each diagonal block of the graded Hermitian
        part of scale D + S, written over h, and their union, sorted; for
        odd n, the singular values of X+-, padded.  A scale other than 1 is
        only for a D that keeps the grading rules exactly (d_skew =
        d_off_parity = 0): then the slack of scale D is that of D, and
        scale D is written into h or into X+- directly."""
        if self.even_n:
            # in h's dtype: a masked ufunc would otherwise cast h to the dtype
            # of D and back
            np.multiply(scale, self._d, out=h, where=self._s_off, dtype=h.dtype)
            h += 0.0        # a zero of either sign reads +0.0, as in the sum of both parts
            plus = np.sort(np.concatenate([np.linalg.eigvalsh(h[ix]) for ix in self._blocks]))
            return DualitySpectrum(plus, -plus[::-1], slack)
        svs = [np.linalg.svd(x, compute_uv=False) for x in self.blocks(h, scale)]
        if self._pad.size:
            svs = [np.append(sv, self._pad) for sv in svs]
        return DualitySpectrum(*svs, slack)


def _hermitian_blocks(s: np.ndarray, sp: GradedSpace) -> dict[int, np.ndarray]:
    """The blocks of h, the self-adjoint degree-reversing part of a duality
    s on sp: for p <= n - p, its block from degree p to degree n - p,
    X_p = (S_{n-p,p} + S_{p,n-p}*)/2; its block from n - p to p is X_p*."""
    n, out = sp.n, {}
    for p in range(n // 2 + 1):
        rows, cols = sp.degree_slice(n - p), sp.degree_slice(p)
        out[p] = spectral.real_if_exact((s[rows, cols] + s[cols, rows].conj().T) * 0.5)
    return out


class SelfAdjointPart(NamedTuple):
    """The numbers of h (_hermitian_blocks), the direct sum over the pairs
    {p, n - p} of [[0, X_p*], [X_p, 0]], and of the Hermitian X_p itself for
    p = n/2: its eigenvalues are +-sigma(X_p), |dim p - dim(n - p)| zeros
    per pair and those of the middle block.  top and squared are max
    |lambda| and max |lambda^2 - 1| over them, and rest is e = ||S - h||_F:
    the skew entries and those outside the pattern, a bound on
    ||S - h||_2."""

    top: float
    squared: float
    rest: float


def _self_adjoint_part(s: np.ndarray, sp: GradedSpace) -> SelfAdjointPart:
    """The numbers of h (SelfAdjointPart) for s on the graded space sp: one
    SVD of each X_p, batched over the X_p of equal shape and never padded,
    one eigvalsh of the middle block, and none of a block with no nonzero
    entry; e is read block by block."""
    n, rest, sizes = sp.n, [], []
    by_shape = defaultdict(list)
    for p, x in _hermitian_blocks(s, sp).items():
        rows, cols = sp.degree_slice(n - p), sp.degree_slice(p)
        # S - h: the entries outside the pattern in the columns of degrees p
        # and n - p, and on the blocks (n - p, p) and (p, n - p) the skew
        # (S_{n-p,p} - S_{p,n-p}*)/2 and its negative adjoint, one block
        # when p = n - p
        rest += [s[:rows.start, cols], s[rows.stop:, cols]]
        if p < n - p:
            rest += [s[:cols.start, rows], s[cols.stop:, rows]]
        rest += [(s[rows, cols] - s[cols, rows].conj().T) * 0.5] * (1 if p == n - p else 2)
        if not x.any():
            sizes.append(np.zeros(sp.dims[p] + (sp.dims[n - p] if p < n - p else 0)))
        elif p == n - p:
            sizes.append(np.abs(np.linalg.eigvalsh(x)))
        else:
            by_shape[x.shape].append(x)
            sizes.append(np.zeros(abs(x.shape[0] - x.shape[1])))
    for group in by_shape.values():
        sizes.append(np.linalg.svd(group[0] if len(group) == 1 else np.stack(group),
                                   compute_uv=False).ravel())
    sizes = np.concatenate(sizes)
    return SelfAdjointPart(float(sizes.max()), float(np.abs(sizes * sizes - 1.0).max()),
                           _frobenius(rest))


def _anticommutator_norm(s: np.ndarray, dh: np.ndarray, sp: GradedSpace) -> float:
    """||h D_p + D_p h||_2 for h the self-adjoint degree-reversing part of s
    (_hermitian_blocks) and D_p the entries of the Hermitian dh that join
    degrees of opposite parity.
    K = h D_p is formed block by block: a nonzero block of dh from degree b
    to degree a gives K its block X @ dh[a, b] from b to n - a, X the block
    of h from a to n - a.  For even n, h keeps parity and D_p reverses it,
    so h D_p + D_p h = K + K* is [[0, Y], [Y*, 0]] by parity, Y = K_eo + K_oe*,
    whose norm is the root of the largest eigenvalue of the smaller of Y*Y
    and YY*: one eigvalsh.  For odd n, h reverses parity too, and K + K* is
    diag(P + P*, Q + Q*) for P = K_ee and Q = K_oo: one eigvalsh of each,
    of an operand that is exactly Hermitian."""
    n, dims, blocks = sp.n, sp.dims, _hermitian_blocks(s, sp)
    h = {p: blocks[p] if p <= n - p else blocks[n - p].conj().T for p in range(n + 1)}
    # the first index of each degree among the indices of its parity
    at, count = [], [0, 0]
    for p, dim in enumerate(dims):
        at.append(count[p % 2])
        count[p % 2] += dim
    dtype = np.result_type(dh, *blocks.values())
    out = ([np.zeros((count[0], count[1]), dtype)] if n % 2 == 0 else
           [np.zeros((size, size), dtype) for size in count])

    def place(r: int, c: int) -> tuple[slice, slice]:
        return slice(at[r], at[r] + dims[r]), slice(at[c], at[c] + dims[c])

    for a in range(n + 1):
        for b in range(1 - a % 2, n + 1, 2):
            dab = dh[sp.degree_slice(a), sp.degree_slice(b)]
            if not dab.any():
                continue
            k, r = h[a] @ dab, n - a
            if n % 2:
                out[r % 2][place(r, b)] += k
            elif r % 2 == 0:
                out[0][place(r, b)] += k
            else:
                out[0][place(b, r)] += k.conj().T
    if n % 2 == 0:
        y = out[0]
        if not y.any():
            return 0.0
        gram = y.conj().T @ y if y.shape[0] >= y.shape[1] else y @ y.conj().T
        return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    return max((float(np.abs(np.linalg.eigvalsh(m + m.conj().T)).max())
                for m in out if m.any()), default=0.0)


@dataclass(frozen=True, eq=False)
class HPComplex:
    """Graded space + differential blocks d_p: degree p -> p+1 + duality S.

    S is a matrix on the total space whose only allowed blocks map degree p to
    degree n-p.  S may be None for bare cochain complexes that have not been
    given a duality yet.  meta records provenance notes such as which duality
    construction produced S.
    """

    space: GradedSpace
    d: tuple[np.ndarray, ...]
    S: np.ndarray | None
    tier: str = "weak"
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        sp = self.space
        if self.tier not in ("strict", "weak"):
            raise StructuralError(f"unknown tier {self.tier!r}")
        if len(self.d) != sp.n:
            raise StructuralError(f"need {sp.n} differentials, got {len(self.d)}")
        blocks = []
        for p, dp in enumerate(self.d):
            blocks.append(_cmat(dp, sp.dims[p + 1], sp.dims[p], f"d_{p}"))
        object.__setattr__(self, "d", tuple(blocks))
        if self.S is not None:
            object.__setattr__(
                self, "S", _cmat(self.S, sp.total_dim, sp.total_dim, "S"))
        object.__setattr__(self, "meta", dict(self.meta))

    # -- derived operators (original coordinates) --

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def total_dim(self) -> int:
        return self.space.total_dim

    @property
    def d_total(self) -> np.ndarray:
        """The blocks of d on the total space, in their common dtype; built
        on each read, so that a complex keeps only D of it."""
        sp = self.space
        out = np.zeros((sp.total_dim, sp.total_dim), dtype=np.result_type(float, *self.d))
        for p, dp in enumerate(self.d):
            out[sp.degree_slice(p + 1), sp.degree_slice(p)] = dp
        return _freeze(out)

    def adjoint(self, a: np.ndarray) -> np.ndarray:
        """Metric adjoint G^{-1} A^H G on the total space, as a new C-ordered
        array."""
        sp = self.space
        if not sp.has_weights:
            return _conj_transpose(a)
        ghalf_inv = sp.g_half_inv
        ghalf = sp.g_half
        on = ghalf @ a @ ghalf_inv
        return ghalf_inv @ on.conj().T @ ghalf

    @cached_property
    def D(self) -> np.ndarray:
        """d + d*: d* is summed into the array adjoint returns, and d_total
        is released once D is formed."""
        d = self.d_total
        adj = self.adjoint(d)
        return _freeze(np.add(d, adj, out=adj))

    def to_orthonormal(self, a: np.ndarray) -> np.ndarray:
        """Conjugate an operator into G-orthonormal coordinates."""
        sp = self.space
        if not sp.has_weights:
            return a
        return sp.g_half @ a @ sp.g_half_inv

    @cached_property
    def D_on(self) -> np.ndarray:
        return _freeze(self.to_orthonormal(self.D))

    @cached_property
    def S_on(self) -> np.ndarray:
        if self.S is None:
            raise StructuralError("complex carries no duality operator")
        return _freeze(self.to_orthonormal(self.S))

    # -- the tolerance-free numbers validate compares, each taken on first read

    @cached_property
    def d_squared_residual(self) -> float:
        """max |(d^2)_ij|: d^2 is 0 but for its blocks d_{p+1} d_p."""
        squares = (b @ a for a, b in zip(self.d, self.d[1:]))
        return max((float(np.abs(m).max()) for m in squares if m.size), default=0.0)

    @cached_property
    def S_block_residual(self) -> float:
        """max |S_ij| over the entries outside the degree-reversal pattern:
        per column degree p, the rows above and below degree n - p."""
        sp, s = self.space, np.asarray(self.S)
        off = []
        for p in range(sp.n + 1):
            cols, rows = s[:, sp.degree_slice(p)], sp.degree_slice(sp.n - p)
            off += [cols[:rows.start], cols[rows.stop:]]
        return max((float(np.abs(m).max()) for m in off if m.size), default=0.0)

    def _norm(self, a: np.ndarray) -> float:
        return spectral.graded_norm(a, self.space.offsets)

    @cached_property
    def _s_part(self) -> SelfAdjointPart:
        return _self_adjoint_part(self.S_on, self.space)

    @cached_property
    def S_norm(self) -> float:
        """||h|| + e >= ||S||, by Weyl for S = h + (S - h) (see
        SelfAdjointPart); ||S|| itself when e = 0."""
        return self._s_part.top + self._s_part.rest

    @cached_property
    def S_skew(self) -> float:
        return self._norm(self.S_on - self.S_on.conj().T)

    @cached_property
    def S_squared_residual(self) -> float:
        """max |lambda(h)^2 - 1| + e (2 ||h|| + e) >= ||S^2 - 1||, as S^2 - 1 =
        h^2 - 1 + hE + Eh + E^2 for E = S - h; ||S^2 - 1|| itself when e = 0."""
        part = self._s_part
        return part.squared + part.rest * (2.0 * part.top + part.rest)

    @cached_property
    def anticommute_residual(self) -> float:
        """An upper bound on ||SD + DS||: with h and e as in S_norm, D_p the
        entries of the Hermitian part D_h of D that keep the parity rule and
        e_D = ||D - D_p||_F <= d_skew / 2 + d_off_parity (GradedSum), SD + DS
        is hD_p + D_p h, whose norm _anticommutator_norm reads off the degree
        blocks, plus terms of norm at most 2 (e ||D||_F + ||h|| e_D + e e_D);
        ||SD + DS|| itself when e = e_D = 0."""
        part, gs = self._s_part, self.graded
        e_d = 0.5 * gs.d_skew + gs.d_off_parity
        slack = part.rest * float(np.linalg.norm(self.D_on)) + (part.top + part.rest) * e_d
        return _anticommutator_norm(self.S_on, gs.hermitian, self.space) + 2.0 * slack

    @cached_property
    def D_norm(self) -> float:
        return self._norm(self.D_on)

    def strict_checks(self, tol: Tolerances) -> Iterator[CheckResult]:
        """S^2 = 1, then SD = -DS, against tol.sym; the second, with the
        ||SD + DS|| and ||D|| it reads, is only computed when drawn."""
        thr = tol.sym * max(1.0, self.S_norm ** 2)
        yield CheckResult("strict_S_squared", self.S_squared_residual, thr,
                          self.S_squared_residual <= thr)
        thr = tol.sym * max(1.0, self.S_norm * max(self.D_norm, 1.0))
        yield CheckResult("strict_anticommute", self.anticommute_residual, thr,
                          self.anticommute_residual <= thr)

    def meets_strict_tier(self, tol: Tolerances) -> bool:
        """The strict-tier rule: both strict checks pass.  SD = -DS is only
        checked once S^2 = 1 holds."""
        return all(check.passed for check in self.strict_checks(tol))

    def at_achieved_tier(self, tol: Tolerances) -> HPComplex:
        """This complex, declared strict when it meets the strict tier.  The
        copy keeps every cached operator, number and spectrum: none depends
        on the declared tier."""
        if self.tier == "strict" or not self.meets_strict_tier(tol):
            return self
        out = copy.copy(self)
        object.__setattr__(out, "tier", "strict")
        object.__setattr__(out, "meta", dict(self.meta))
        return out

    @cached_property
    def graded(self) -> GradedSum:
        """D_on through the grading, in the dtype GradedSum decides, split by
        the components of D_on and S_on."""
        return GradedSum(self.space.grading, self.n, self.D_on, self.S_on)

    @cached_property
    def spectrum(self) -> DualitySpectrum:
        """The spectrum of D +- S, which decides whether this is Poincaré."""
        return self.graded.spectrum(self.S_on, self.S_skew)


# ---------------------------------------------------------------------------
# axiom validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual,
                "threshold": self.threshold, "passed": self.passed}


@dataclass(frozen=True)
class AxiomReport:
    """Deterministic record of every axiom check on one complex.

    checks are the residual checks; the invertibility of D+-S is recorded
    once, as cert_plus and cert_minus, and poincare is that both pass.  The
    strict-tier residuals are always recorded, even for weak-declared
    complexes where they do not gate the verdict."""

    checks: tuple[CheckResult, ...]
    cert_plus: InvertibilityCertificate
    cert_minus: InvertibilityCertificate
    tier_declared: str
    tier_achieved: str
    poincare: bool
    passed: bool
    strict_s_squared_residual: float = 0.0
    strict_anticommute_residual: float = 0.0

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "cert_plus": self.cert_plus.to_dict(),
            "cert_minus": self.cert_minus.to_dict(),
            "tier_declared": self.tier_declared,
            "tier_achieved": self.tier_achieved,
            "poincare": self.poincare,
            "passed": self.passed,
            "strict_s_squared_residual": self.strict_s_squared_residual,
            "strict_anticommute_residual": self.strict_anticommute_residual,
        }


def _axiom_checks(c: HPComplex, tol: Tolerances
                  ) -> tuple[list[CheckResult], InvertibilityCertificate,
                             InvertibilityCertificate]:
    """The residual checks that gate the verdict, the strict ones only when
    the strict tier is declared, and the certificates of D+S and D-S."""
    c.space.check_inner_products(tol)
    if c.S is None:
        raise StructuralError("cannot validate a complex without a duality operator")

    checks: list[CheckResult] = []
    resid = c.d_squared_residual
    checks.append(CheckResult("d_squared_zero", resid, CHAIN_TOL, resid <= CHAIN_TOL))
    thr = tol.sym * max(c.S_norm, 1.0)
    checks.append(CheckResult("S_self_adjoint", c.S_skew, thr, c.S_skew <= thr))
    checks.append(CheckResult("S_degree_reversing", c.S_block_residual, thr,
                              c.S_block_residual <= thr))
    if c.tier == "strict":
        checks.extend(c.strict_checks(tol))
    cert_plus, cert_minus = c.spectrum.certificates(tol.inv)
    return checks, cert_plus, cert_minus


def validate(c: HPComplex, tol: Tolerances = DEFAULT_TOL) -> AxiomReport:
    """Run every axiom check and certify invertibility of D+-S.

    The complex passes iff d^2 = 0, S is self-adjoint with the right block
    pattern, the declared tier's extra identities hold, and both D+S and D-S
    are invertible.  Every residual and norm is read from the complex's
    cache, so validating it again, under any tolerances, decomposes nothing.
    """
    checks, cert_plus, cert_minus = _axiom_checks(c, tol)
    poincare = cert_plus.passed and cert_minus.passed
    passed = poincare and all(ch.passed for ch in checks)
    return AxiomReport(tuple(checks), cert_plus, cert_minus, c.tier,
                       "strict" if c.meets_strict_tier(tol) else "weak", poincare, passed,
                       c.S_squared_residual, c.anticommute_residual)


def require_valid(c: HPComplex, tol: Tolerances = DEFAULT_TOL) -> None:
    """The verdict of validate, computing only the checks that gate it:
    DualityDegenerateError unless D +- S are invertible, StructuralError
    naming the failing checks unless every other one passes."""
    checks, cert_plus, cert_minus = _axiom_checks(c, tol)
    if not (cert_plus.passed and cert_minus.passed):
        raise DualityDegenerateError(
            f"duality degenerate: min singular values "
            f"{cert_plus.min_singular:.3e}, {cert_minus.min_singular:.3e}")
    bad = [ch.name for ch in checks if not ch.passed]
    if bad:
        raise StructuralError(f"complex fails axiom checks: {bad}")


# ---------------------------------------------------------------------------
# constructors / operations


def direct_sum(a: HPComplex, b: HPComplex) -> HPComplex:
    """Block-diagonal sum; requires equal top degree."""
    if a.n != b.n:
        raise StructuralError(f"top degrees differ: {a.n} vs {b.n}")
    n = a.n
    dims = tuple(da + db for da, db in zip(a.space.dims, b.space.dims))
    inner = []
    for p in range(n + 1):
        ga, gb = a.space.inner[p], b.space.inner[p]
        if ga is None and gb is None:
            inner.append(None)
        else:
            g = np.zeros((dims[p], dims[p]), dtype=complex)
            g[:a.space.dims[p], :a.space.dims[p]] = a.space.g_block(p)
            g[a.space.dims[p]:, a.space.dims[p]:] = b.space.g_block(p)
            inner.append(g)
    space = GradedSpace(n, dims, tuple(inner))
    ds = []
    for p in range(n):
        blk = np.zeros((dims[p + 1], dims[p]), dtype=complex)
        blk[:a.space.dims[p + 1], :a.space.dims[p]] = a.d[p]
        blk[a.space.dims[p + 1]:, a.space.dims[p]:] = b.d[p]
        ds.append(blk)
    S = None
    if a.S is not None and b.S is not None:
        S = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        for p in range(n + 1):
            q = n - p
            SA = np.asarray(a.S)[a.space.degree_slice(q), a.space.degree_slice(p)]
            SB = np.asarray(b.S)[b.space.degree_slice(q), b.space.degree_slice(p)]
            r = space.offsets[q]
            cc = space.offsets[p]
            S[r:r + SA.shape[0], cc:cc + SA.shape[1]] = SA
            S[r + SA.shape[0]:r + dims[q], cc + SA.shape[1]:cc + dims[p]] = SB
    tier = "strict" if a.tier == b.tier == "strict" else "weak"
    return HPComplex(space, tuple(ds), S, tier)


def rescale_inner_products(c: HPComplex, lam: float) -> HPComplex:
    """Scale G_p by lam^(n/2 - p) and rebuild S so it stays self-adjoint.

    The differential is unchanged, the signature is unchanged, and the
    nonzero eigenvalues of D scale by lam^(-1/2).  S picks up the factor
    lam^(n/2 - p) on its degree-p block, which keeps G'S' = GS exactly.
    """
    if not lam > 0:
        raise DomainError(f"scale factor must be positive, got {lam}")
    sp = c.space
    n = sp.n
    if lam == 1.0:
        return c
    weights = [lam ** (n / 2.0 - p) for p in range(n + 1)]
    inner = []
    for p in range(n + 1):
        g = sp.g_block(p) * weights[p]
        inner.append(g)
    space = GradedSpace(n, sp.dims, tuple(inner))
    S = None
    if c.S is not None:
        S = np.array(c.S)
        for p in range(n + 1):
            S[:, sp.degree_slice(p)] = S[:, sp.degree_slice(p)] * weights[p]
    return HPComplex(space, c.d, S, c.tier, dict(c.meta))


def reverse_orientation(c: HPComplex) -> HPComplex:
    """Flip the duality sign; negates the even-dimensional signature.  The
    sign is flipped in complex arithmetic, which turns a real S's imaginary
    parts to -0.0, so the flipped S is stored complex and encodes to the
    bytes the shipped fixtures pin."""
    if c.S is None:
        raise StructuralError("complex carries no duality operator")
    return HPComplex(c.space, c.d, -np.asarray(c.S, dtype=complex), c.tier, dict(c.meta))


# ---------------------------------------------------------------------------
# JSON encoding (matrices row-major, complex entries as [re, im])


def encode_matrix(a: np.ndarray) -> list:
    m = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def decode_matrix(rows: Sequence, shape: tuple[int, int] | None = None) -> np.ndarray:
    try:
        out = np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex)
    except (TypeError, LookupError, ValueError, OverflowError) as exc:
        raise StructuralError(f"malformed matrix: entries must be [re, im] pairs ({exc})"
                              ) from exc
    if not np.isfinite(out).all():
        raise StructuralError("malformed matrix: entries must be finite")
    if out.size == 0 and shape is not None:
        if 0 not in shape:
            raise StructuralError(f"malformed matrix: no entries for shape {shape}")
        out = out.reshape(shape)
    return out


def hpcomplex_to_json(c: HPComplex) -> dict:
    doc = {
        "n": c.n,
        "dims": list(c.space.dims),
        "d": [encode_matrix(dp) for dp in c.d],
        "S": encode_matrix(c.S) if c.S is not None else None,
        "tier": c.tier,
    }
    if c.space.has_weights:
        doc["G"] = [encode_matrix(c.space.g_block(p)) for p in range(c.n + 1)]
    if c.meta:
        doc["meta"] = dict(sorted(c.meta.items()))
    return doc


def hpcomplex_from_json(doc: Mapping) -> HPComplex:
    try:
        n = int(doc["n"])
        dims = tuple(int(x) for x in doc["dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed complex document: {exc}") from exc
    inner, d_docs, meta = doc.get("G"), doc.get("d", []), doc.get("meta", {})
    if not (isinstance(inner, (list, type(None))) and isinstance(d_docs, list)
            and isinstance(meta, dict)):
        raise StructuralError("malformed complex document: G and d must be lists "
                              "and meta an object")
    if inner is not None:
        if len(inner) != len(dims):
            raise StructuralError("need one inner product per degree")
        inner = tuple(decode_matrix(g, (dim, dim)) for g, dim in zip(inner, dims))
    space = GradedSpace(n, dims, inner)
    if len(d_docs) != n:
        raise StructuralError(f"need {n} differentials, got {len(d_docs)}")
    ds = [decode_matrix(dp, (dims[p + 1], dims[p])) for p, dp in enumerate(d_docs)]
    S = None
    if doc.get("S") is not None:
        S = decode_matrix(doc["S"], (space.total_dim, space.total_dim))
    return HPComplex(space, tuple(ds), S, doc.get("tier", "weak"), meta)
