"""Seeded inputs for the benchmark, with expected verdicts derived from
mathematics rather than from the code under test.

Every generated triangulation (tori, simplex boundaries) is built here from
its combinatorial definition and its vertex labels are permuted with the
seed, so no optimisation can rely on the generator's vertex order.
Orientations are carried through the relabelling by the sign of the sorting
permutation, which gives a reference orientation that does not come from
``hpsig.simplicial.orient_facets``.  The shipped fixtures ``torus7`` and
``cp2_9`` keep their own labels: the exact oracle's cost on ``cp2_9`` varies
by a factor of two between relabellings (0.85 s to 1.93 s for orient and
check over eight seeds), which one input per pass cannot average out.

Expected verdicts:
  - the k x k torus has Betti numbers (1, 2, 1) and signature 0;
  - the boundary of the (n+1)-simplex has the Betti numbers of the n-sphere
    and, for even n, signature 0;
  - ``cp2_9`` with its shipped orientation has oracle signature +1;
  - a random strict complex of top degree 4 is a sum of ``blocks`` copies of
    the cp2 model, so its signature is ``blocks``; in top degree 2 every
    primitive piece is hyperbolic or has an empty middle degree, so the
    signature is 0; rescaling the inner products leaves it unchanged;
  - the signature of a graded product is the product of the factor
    signatures, with 0 for an odd factor;
  - harmonic reductions and identities are homotopy equivalences, so their
    duality paths stay invertible, while the orientation mismatch must fail;
  - an untwisted bundle with even base and fiber passes multiplicativity, and
    the seam-twisted torus bundle has monodromy rotating H^1 of the fiber,
    so it reports ``hypothesis_not_met``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _sorted_with_sign(vs) -> tuple[tuple[int, ...], int]:
    """Sort a vertex tuple; the sign is that of the sorting permutation."""
    vs = list(vs)
    sign = 1
    for i in range(len(vs)):
        for j in range(len(vs) - 1 - i):
            if vs[j] > vs[j + 1]:
                vs[j], vs[j + 1] = vs[j + 1], vs[j]
                sign = -sign
    return tuple(vs), sign


def torus_grid(k: int) -> dict:
    """k x k grid torus with vertex (i, j) labelled i*k + j.  Every square is
    cut along a diagonal into two counter-clockwise triangles, which orients
    all facets coherently."""
    def v(i, j):
        return (i % k) * k + (j % k)

    facets, orients = [], []
    for i in range(k):
        for j in range(k):
            for tri in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                        (v(i, j), v(i + 1, j + 1), v(i, j + 1))):
                f, s = _sorted_with_sign(tri)
                facets.append(f)
                orients.append(s)
    return {"n": 2, "vertices": k * k, "facets": facets, "orientations": orients}


def simplex_boundary(n: int) -> dict:
    """Boundary of the (n+1)-simplex: facet i omits vertex i, with sign (-1)^i."""
    facets = [tuple(x for x in range(n + 2) if x != i) for i in range(n + 2)]
    return {"n": n, "vertices": n + 2, "facets": facets,
            "orientations": [(-1) ** i for i in range(n + 2)]}


def shipped_triangulation(root: Path, name: str) -> dict:
    doc = json.loads((root / "fixtures" / f"{name}.json").read_text())
    return {"n": doc["n"], "vertices": doc["vertices"],
            "facets": [tuple(f) for f in doc["facets"]],
            "orientations": list(doc["orientations"])}


def relabel(tri: dict, perm: np.ndarray) -> dict:
    """Apply a vertex permutation; each facet keeps its orientation as a chain."""
    pairs = []
    for f, eps in zip(tri["facets"], tri["orientations"]):
        g, s = _sorted_with_sign(int(perm[x]) for x in f)
        pairs.append((g, eps * s))
    pairs.sort()
    return {"n": tri["n"], "vertices": tri["vertices"],
            "facets": [list(f) for f, _ in pairs],
            "orientations": [s for _, s in pairs]}


def sphere_betti(n: int) -> list[int]:
    return [1] + [0] * (n - 1) + [1]


TORUS_BETTI = [1, 2, 1]
CP2_BETTI = [1, 0, 1, 0, 1]


def seam_twisted_torus_bundle(k: int, perm: np.ndarray, fiber_doc: dict,
                              rotation: list) -> dict:
    """Bundle over the relabelled k x k torus whose edges crossing the column
    seam carry ``rotation`` from the column k-1 frame to the column 0 frame.

    The twist is flat: a triangle meets the seam in two edges traversed in
    opposite directions, so the cocycle condition holds exactly, while the
    loop along a row picks the rotation up once.
    """
    transitions = {}
    for i in range(k):
        left = i * k + (k - 1)
        for right in (i * k, ((i + 1) % k) * k):
            transitions[f"{int(perm[left])},{int(perm[right])}"] = rotation
    return {"base": relabel(torus_grid(k), perm), "fiber": fiber_doc,
            "transitions": transitions}


def untwisted_bundle(base: dict, fiber_doc: dict) -> dict:
    return {"base": base, "fiber": fiber_doc, "transitions": {}}
