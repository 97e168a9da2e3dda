"""Fixture corpus: reference triangulations, algebraic harmonic models, and
the strict acyclic witnesses used to pin product sign rules.

``write_corpus`` regenerates the JSON files shipped under fixtures/ at the
repository root; a test asserts the shipped bytes match the builders, which
doubles as a determinism check.  Run ``python -m hpsig.fixtures --out DIR``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from .family import FiberedComplex, fibered_to_json
from .hpc_core import (GradedSpace, HPComplex, direct_sum, hpcomplex_to_json,
                       rescale_inner_products, reverse_orientation)
from .rho import HomotopyEquivalence, he_to_json, identity_equivalence
from .simplicial import (SimplicialManifold, cap_duality, harmonic_reduction,
                         intersection_form_oracle, load_simplicial,
                         orient_facets)


# ---------------------------------------------------------------------------
# triangulations


def _verified(n, vertices, facets, orientations) -> SimplicialManifold:
    return load_simplicial({"n": n, "vertices": vertices,
                            "facets": [list(f) for f in facets],
                            "orientations": list(orientations)})


def point_triangulation() -> SimplicialManifold:
    return _verified(0, 1, ((0,),), (1,))


def circle_triangulation() -> SimplicialManifold:
    """Three-vertex circle."""
    return _verified(1, 3, ((0, 1), (1, 2), (0, 2)), (1, 1, -1))


def sphere_triangulation() -> SimplicialManifold:
    """Boundary of the 3-simplex."""
    facets = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    return _verified(2, 4, facets, (1, -1, 1, -1))


def torus_triangulation() -> SimplicialManifold:
    """Seven-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    facets = tuple(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7))
    facets += tuple(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7))
    orient = orient_facets(facets, 2)
    return _verified(2, 7, facets, orient)


_CP2_FACETS_1INDEXED = (
    (1, 2, 4, 5, 6), (2, 3, 5, 6, 4), (3, 1, 6, 4, 5),
    (1, 2, 4, 5, 9), (2, 3, 5, 6, 7), (3, 1, 6, 4, 8),
    (2, 3, 6, 4, 9), (3, 1, 4, 5, 7), (1, 2, 5, 6, 8),
    (3, 1, 5, 6, 9), (1, 2, 6, 4, 7), (2, 3, 4, 5, 8),
    (4, 5, 7, 8, 9), (5, 6, 8, 9, 7), (6, 4, 9, 7, 8),
    (4, 5, 7, 8, 3), (5, 6, 8, 9, 1), (6, 4, 9, 7, 2),
    (5, 6, 9, 7, 3), (6, 4, 7, 8, 1), (4, 5, 8, 9, 2),
    (6, 4, 8, 9, 3), (4, 5, 9, 7, 1), (5, 6, 7, 8, 2),
    (7, 8, 1, 2, 3), (8, 9, 2, 3, 1), (9, 7, 3, 1, 2),
    (7, 8, 1, 2, 6), (8, 9, 2, 3, 4), (9, 7, 3, 1, 5),
    (8, 9, 3, 1, 6), (9, 7, 1, 2, 4), (7, 8, 2, 3, 5),
    (9, 7, 2, 3, 6), (7, 8, 3, 1, 4), (8, 9, 1, 2, 5),
)


def cp2_triangulation() -> SimplicialManifold:
    """Nine-vertex triangulation of the complex projective plane, oriented so
    the middle intersection form is <+1>."""
    facets = tuple(tuple(sorted(v - 1 for v in f)) for f in _CP2_FACETS_1INDEXED)
    orient = orient_facets(facets, 4)
    sm = _verified(4, 9, facets, orient)
    if intersection_form_oracle(sm).signature < 0:
        sm = _verified(4, 9, facets, tuple(-s for s in orient))
    return sm


# ---------------------------------------------------------------------------
# harmonic models (zero differential, strict duality)


def point_model() -> HPComplex:
    return HPComplex(GradedSpace(0, (1,)), (), np.array([[1.0]], dtype=complex), "strict")


def circle_model() -> HPComplex:
    space = GradedSpace(1, (1, 1))
    d = (np.zeros((1, 1), dtype=complex),)
    s = np.array([[0, 1], [1, 0]], dtype=complex)
    return HPComplex(space, d, s, "strict")


def sphere_model() -> HPComplex:
    space = GradedSpace(2, (1, 0, 1))
    d = (np.zeros((0, 1), dtype=complex), np.zeros((1, 0), dtype=complex))
    s = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return HPComplex(space, d, s, "strict")


def torus_model() -> HPComplex:
    """Basis (1; dx, dy; vol) with the standard flat duality."""
    space = GradedSpace(2, (1, 2, 1))
    d = (np.zeros((2, 1), dtype=complex), np.zeros((1, 2), dtype=complex))
    s = np.zeros((4, 4), dtype=complex)
    s[3, 0] = 1j
    s[0, 3] = -1j
    s[2, 1] = 1j
    s[1, 2] = -1j
    return HPComplex(space, d, s, "strict")


def cp2_model() -> HPComplex:
    space = GradedSpace(4, (1, 0, 1, 0, 1))
    d = (np.zeros((0, 1), dtype=complex), np.zeros((1, 0), dtype=complex),
         np.zeros((0, 1), dtype=complex), np.zeros((1, 0), dtype=complex))
    s = np.zeros((3, 3), dtype=complex)
    s[2, 0] = -1.0
    s[0, 2] = -1.0
    s[1, 1] = 1.0
    return HPComplex(space, d, s, "strict")


def hyperbolic_odd() -> HPComplex:
    """Acyclic strict complex in degrees 0..1 with nonzero differential."""
    space = GradedSpace(1, (1, 1))
    d = (np.array([[1.0]], dtype=complex),)
    s = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return HPComplex(space, d, s, "strict")


def hyperbolic_even() -> HPComplex:
    """Acyclic strict complex in degrees 0..2 with nonzero differential."""
    space = GradedSpace(2, (1, 2, 1))
    d0 = np.array([[1.0], [0.0]], dtype=complex)
    d1 = np.array([[0.0, 1.0]], dtype=complex)
    s = np.zeros((4, 4), dtype=complex)
    s[3, 0] = 1j
    s[0, 3] = -1j
    s[2, 1] = -1j
    s[1, 2] = 1j
    return HPComplex(space, (d0, d1), s, "strict")


TRIANGULATIONS = {
    "point": point_triangulation,
    "circle3": circle_triangulation,
    "sphere_d3": sphere_triangulation,
    "torus7": torus_triangulation,
    "cp2_9": cp2_triangulation,
}

MODELS = {
    "point_model": point_model,
    "circle_model": circle_model,
    "sphere_model": sphere_model,
    "torus_model": torus_model,
    "cp2_model": cp2_model,
}


def random_strict_complex(rng: np.random.Generator, n: int,
                          blocks: int = 2) -> HPComplex:
    """Random strict complex: a direct sum of primitive strict pieces
    conjugated by a random degree-preserving unitary.

    Conjugation preserves every strict identity, so these are genuine strict
    fixtures with nonzero differentials and scrambled matrix entries.
    """
    primitives = {
        1: (hyperbolic_odd, circle_model),
        2: (hyperbolic_even, sphere_model, torus_model),
        4: (cp2_model,),
    }
    if n not in primitives:
        raise ValueError(f"no primitive strict pieces of top degree {n}")
    choices = primitives[n]
    c = choices[int(rng.integers(len(choices)))]()
    for _ in range(blocks - 1):
        c = direct_sum(c, choices[int(rng.integers(len(choices)))]())
    sp = c.space
    u = np.zeros((sp.total_dim, sp.total_dim), dtype=complex)
    for p in range(n + 1):
        k = sp.dims[p]
        if k == 0:
            continue
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        u[sp.degree_slice(p), sp.degree_slice(p)] = q
    d = tuple(u[sp.degree_slice(p + 1), sp.degree_slice(p + 1)] @ c.d[p]
              @ u[sp.degree_slice(p), sp.degree_slice(p)].conj().T
              for p in range(n))
    s = u @ np.asarray(c.S) @ u.conj().T
    return HPComplex(sp, d, s, "strict")


def sphere_rescaled() -> HPComplex:
    """The cap duality of sphere_triangulation, its inner products rescaled by
    0.3: in orthonormal coordinates D and S are Hermitian only up to rounding."""
    return rescale_inner_products(cap_duality(sphere_triangulation()), 0.3)


def fiber_rotation_on_torus_model() -> np.ndarray:
    """Duality-compatible automorphism of the torus model rotating the two
    degree-1 generators: dx -> dy, dy -> -dx (the plain swap flips the
    duality and is rejected by the compatibility check)."""
    r = np.eye(4, dtype=complex)
    r[1:3, 1:3] = np.array([[0, -1], [1, 0]])
    return r


def offgrid_crossing(c: HPComplex) -> HomotopyEquivalence:
    """c to its reverse orientation by f = alpha 1 and g = 1/alpha, with
    h = h' = 0 and alpha^2 = 0.988.  The source block of the duality path
    is (1 - t (1 + alpha^2)) S', so D + S_f(t) is singular at t* = 1 /
    (1 + alpha^2) = 0.50302 when D = 0, off every grid of step 0.01."""
    a = 0.988 ** 0.5
    eye = np.eye(c.total_dim, dtype=complex)
    zero = np.zeros_like(eye)
    return HomotopyEquivalence(c, reverse_orientation(c), a * eye, eye / a, zero, zero.copy())


def schedule_crossing(t_star: float) -> HPComplex:
    """dims (1, 2, 1), d_0 e0 = e1 and d_1 e2 = e3, S = 1/t_star on degree 1
    and 1 between degrees 0 and 2.  In the order (e1, e0, e3, e2), B+(t) of
    the localization schedule is tridiagonal with determinant t^-2 -
    t_star^-2, so one eigenvalue crosses zero at t = t_star, from - to + as
    t grows; reverse_orientation negates the spectrum of B+(t), and so the
    direction of the crossing."""
    s = np.zeros((4, 4))
    s[1, 1] = s[2, 2] = 1.0 / t_star
    s[0, 3] = s[3, 0] = 1.0
    d = (np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]]))
    return HPComplex(GradedSpace(2, (1, 2, 1)), d, s, "weak")


def odd_schedule_crossing(t_star: float) -> HPComplex:
    """dims (1, 1), d_0 = [[1]] and S = -t_star^(-1/2) between the two
    degrees: X+(t) = t^(-1/2) - t_star^(-1/2) of the localization schedule
    crosses zero at t = t_star, while X-(t) stays positive."""
    sigma = t_star ** -0.5
    s = np.array([[0.0, -sigma], [-sigma, 0.0]])
    return HPComplex(GradedSpace(1, (1, 1)), (np.ones((1, 1)),), s, "weak")


# ---------------------------------------------------------------------------
# corpus files


def _dump(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _he_docs() -> dict[str, dict]:
    out: dict[str, dict] = {}
    out["he_identity_sphere_model"] = he_to_json(identity_equivalence(sphere_model()))
    cap = cap_duality(sphere_triangulation())
    _, he = harmonic_reduction(cap)
    out["he_reduction_sphere_d3"] = he_to_json(he)
    ident = identity_equivalence(sphere_model())
    flipped = reverse_orientation(sphere_model())
    out["he_orientation_mismatch"] = he_to_json(HomotopyEquivalence(
        sphere_model(), flipped, ident.f, ident.g, ident.h, ident.h_prime))
    out["he_offgrid_crossing"] = he_to_json(offgrid_crossing(circle_model()))
    # two opposite crossings, at t = 2.3 and 2.7, between the schedule's
    # starting samples: the duality path passes and the terminal segment's
    # schedule fails
    out["he_terminal_crossing"] = he_to_json(identity_equivalence(
        direct_sum(schedule_crossing(2.3), reverse_orientation(schedule_crossing(2.7)))))
    out["he_identity_circle3"] = he_to_json(identity_equivalence(
        cap_duality(circle_triangulation())))
    return out


def _fibered_docs() -> dict[str, dict]:
    sphere = sphere_triangulation()
    circle = circle_triangulation()
    return {
        "fc_sphere_x_cp2": fibered_to_json(FiberedComplex(sphere, cp2_model())),
        "fc_mapping_torus_cp2": fibered_to_json(FiberedComplex(circle, cp2_model())),
        "fc_torus_twist": fibered_to_json(FiberedComplex(
            circle, torus_model(), {(2, 0): fiber_rotation_on_torus_model()})),
    }


def write_corpus(out_dir: str | Path) -> list[Path]:
    """Write the whole fixture corpus; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in TRIANGULATIONS.items():
        path = out / f"{name}.json"
        _dump(path, builder().canonical_document())
        written.append(path)
    for name, builder in {**MODELS, "sphere_d3_rescaled": sphere_rescaled}.items():
        path = out / f"{name}.json"
        _dump(path, hpcomplex_to_json(builder()))
        written.append(path)
    for name, doc in _he_docs().items():
        path = out / f"{name}.json"
        _dump(path, doc)
        written.append(path)
    for name, doc in _fibered_docs().items():
        path = out / f"{name}.json"
        _dump(path, doc)
        written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate the fixture corpus")
    parser.add_argument("--out", default="fixtures", help="output directory")
    args = parser.parse_args(argv)
    for path in write_corpus(args.out):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
