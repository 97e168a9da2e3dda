"""Triangulation loading, cochain complexes, cap duality, the exact
intersection-form oracle, and harmonic reduction."""

import json
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from hpsig import cli, fixtures
from hpsig.hpc_core import (DEFAULT_TOL, HPComplex, StructuralError,
                            rescale_inner_products, validate)
from hpsig.rho import validate_homotopy_equivalence
from hpsig.signature import signature_even
from hpsig.simplicial import (SimplicialManifold, _back_substitute, _cohomology_basis,
                              _echelon, _integer_nullspace, _integer_row, _to_fractions,
                              betti_numbers,
                              cap_duality, cochain_complex, fundamental_cycle,
                              harmonic_reduction, intersection_form_oracle,
                              load_simplicial, orient_facets, symmetric_signature)

# six-vertex real projective plane: closed but not orientable
RP2_FACETS = [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
              (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)]


def test_load_sphere():
    sm = load_simplicial(fixtures.sphere_triangulation().canonical_document())
    assert sm.dims == (4, 6, 4)


def test_nonorientable_rejected():
    with pytest.raises(StructuralError):
        load_simplicial({"n": 2, "vertices": 6, "facets": RP2_FACETS,
                         "orientations": [1] * 10})
    with pytest.raises(StructuralError):
        orient_facets(RP2_FACETS, 2)


def test_dangling_face_rejected():
    with pytest.raises(StructuralError, match="closed"):
        load_simplicial({"n": 2, "vertices": 3, "facets": [[0, 1, 2]],
                         "orientations": [1]})


def test_duplicate_facet_rejected():
    with pytest.raises(StructuralError, match="duplicate"):
        load_simplicial({"n": 1, "vertices": 2, "facets": [[0, 1], [1, 0]],
                         "orientations": [1, -1]})


def test_torus_every_edge_in_two_facets():
    sm = fixtures.torus_triangulation()
    count = Counter()
    for f in sm.facets:
        for e in combinations(f, 2):
            count[e] += 1
    assert all(v == 2 for v in count.values())
    assert len(count) == 21 and len(sm.facets) == 14


def test_cochain_dims_and_betti():
    sphere = cochain_complex(fixtures.sphere_triangulation())
    assert sphere.space.dims == (4, 6, 4)
    assert betti_numbers(fixtures.sphere_triangulation()) == (1, 0, 1)
    point = cochain_complex(fixtures.point_triangulation())
    assert point.space.dims == (1,)
    assert betti_numbers(fixtures.torus_triangulation()) == (1, 2, 1)


def test_betti_agrees_with_float_rank():
    sm = fixtures.torus_triangulation()
    c = cochain_complex(sm)
    ranks = [np.linalg.matrix_rank(d) for d in c.d]
    betti = betti_numbers(sm)
    dims = sm.dims
    assert betti[0] == dims[0] - ranks[0]
    assert betti[1] == dims[1] - ranks[1] - ranks[0]
    assert betti[2] == dims[2] - ranks[1]


def test_fundamental_cycle_sphere():
    sm = fixtures.sphere_triangulation()
    z = fundamental_cycle(sm)
    assert sorted(z.tolist()) == [-1, -1, 1, 1]
    assert np.all(sm.boundaries[-1] @ z == 0)


def test_fundamental_cycle_torus_and_reversal():
    sm = fixtures.torus_triangulation()
    z = fundamental_cycle(sm)
    assert np.abs(z).sum() == 14
    assert np.all(sm.boundaries[-1] @ z == 0)
    rev = type(sm)(sm.n, sm.vertices, sm.facets,
                   tuple(-s for s in sm.orientations))
    assert np.array_equal(fundamental_cycle(rev), -z)


def test_cap_duality_point_is_strict():
    cap = cap_duality(fixtures.point_triangulation())
    assert np.array_equal(np.asarray(cap.S), np.array([[1.0 + 0j]]))
    assert validate(cap).tier_achieved == "strict"


@pytest.mark.parametrize("build,expected", [
    (fixtures.sphere_triangulation, 0),
    (fixtures.torus_triangulation, 0),
    (fixtures.cp2_triangulation, 1),
])
def test_cap_duality_signature_matches_oracle(build, expected):
    sm = build()
    cap = cap_duality(sm)
    assert validate(cap).passed
    oracle = intersection_form_oracle(sm)
    assert oracle.signature == expected
    assert signature_even(cap) == oracle.signature


def test_cap_duality_harmonic_construction():
    # force the compressed-onto-harmonics construction and check it still
    # yields a Poincare complex with the oracle signature
    for build in (fixtures.sphere_triangulation, fixtures.torus_triangulation):
        sm = build()
        cap = cap_duality(sm, construction="harmonic")
        assert cap.meta["duality"] == "harmonic-fallback"
        assert validate(cap).passed
        assert signature_even(cap) == intersection_form_oracle(sm).signature


def test_oracle_sphere_form_is_empty():
    form = intersection_form_oracle(fixtures.sphere_triangulation())
    assert form.rank == 0 and form.signature == 0


def test_oracle_torus_antisymmetric_rank_two():
    form = intersection_form_oracle(fixtures.torus_triangulation())
    assert form.rank == 2 and form.signature == 0 and not form.symmetric


def test_oracle_cp2_unit_form():
    form = intersection_form_oracle(fixtures.cp2_triangulation())
    assert form.rank == 1 and form.signature == 1 and form.symmetric


def test_harmonic_reduction_already_minimal():
    c = fixtures.torus_model()
    minimal, he = harmonic_reduction(c)
    assert minimal.space.dims == c.space.dims
    assert np.allclose(he.f @ he.g, np.eye(c.total_dim), atol=1e-12)
    rep = validate_homotopy_equivalence(he)
    assert rep.passed and rep.homotopy_source <= 1e-12


@pytest.mark.parametrize("build,minimal_dims", [
    (fixtures.sphere_triangulation, (1, 0, 1)),
    (fixtures.torus_triangulation, (1, 2, 1)),
])
def test_harmonic_reduction_minimal_dims(build, minimal_dims):
    cap = cap_duality(build())
    minimal, he = harmonic_reduction(cap)
    assert minimal.space.dims == minimal_dims
    assert validate_homotopy_equivalence(he).passed
    assert validate(minimal).passed
    assert signature_even(minimal) == signature_even(cap)
    # f g = identity on the minimal model, exactly up to roundoff
    assert np.abs(he.f @ he.g - np.eye(minimal.total_dim)).max() <= 1e-10


def test_harmonic_reduction_preserves_betti():
    cap = cap_duality(fixtures.torus_triangulation())
    minimal, _ = harmonic_reduction(cap)
    assert minimal.space.dims == betti_numbers(fixtures.torus_triangulation())


def _dense_kernel(c, tol=DEFAULT_TOL):
    """Full-size eigensystem of D^2 in orthonormal coordinates and the mask
    of its kernel, |lambda| <= tol.inv * max(1, ||D^2||)."""
    delta = c.D_on @ c.D_on
    vals, vecs = np.linalg.eigh(delta)
    return vals, vecs, np.abs(vals) <= tol.inv * max(1.0, np.linalg.norm(delta, 2))


def _close(a, b, rel=1e-12):
    return np.abs(a - b).max() <= rel * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("build", [
    lambda: cap_duality(fixtures.sphere_triangulation()),
    lambda: cap_duality(fixtures.torus_triangulation()),
    lambda: cap_duality(fixtures.cp2_triangulation()),
    lambda: rescale_inner_products(cap_duality(fixtures.torus_triangulation()), 2.0),
], ids=["sphere_d3", "torus7", "cp2_9", "torus7_weighted"])
def test_blockwise_green_operator_matches_the_full_size_one(build):
    # h' = d* G, with G the inverse of D^2 on its range from one decomposition
    # of the whole D^2; the reduction builds G degree by degree
    c = build()
    vals, vecs, kernel = _dense_kernel(c)
    inv = np.where(kernel, 0.0, 1.0) / np.where(kernel, 1.0, vals)
    hprime_on = c.to_orthonormal(c.d_total).conj().T @ (vecs * inv) @ vecs.conj().T
    sp = c.space
    ref = sp.g_half_inv @ hprime_on @ sp.g_half if sp.has_weights else hprime_on
    _, he = harmonic_reduction(c)
    assert _close(he.h_prime, ref)
    assert validate_homotopy_equivalence(he).passed


@pytest.mark.parametrize("build", [fixtures.sphere_triangulation,
                                   fixtures.torus_triangulation,
                                   fixtures.cp2_triangulation])
def test_harmonic_duality_matches_the_full_size_kernel_projector(build):
    sm = build()
    symmetrized = cap_duality(sm)
    assert symmetrized.meta["duality"] == "symmetrized-cap"
    _, vecs, kernel = _dense_kernel(symmetrized)
    proj = vecs[:, kernel] @ vecs[:, kernel].conj().T
    ref = proj @ np.asarray(symmetrized.S) @ proj
    harmonic = cap_duality(sm, construction="harmonic")
    assert _close(np.asarray(harmonic.S), (ref + ref.conj().T) / 2.0)


def test_harmonic_reduction_of_a_complex_with_nonzero_d_squared_fails():
    # negative control: d_1 + 1e-6 breaks d^2 = 0, so D^2 is not block
    # diagonal by degree and the blockwise reduction is no equivalence
    cap = cap_duality(fixtures.sphere_triangulation())
    broken = HPComplex(cap.space, (cap.d[0], cap.d[1] + 1e-6), cap.S, "weak")
    assert broken.d_squared_residual > 1e-7
    _, he = harmonic_reduction(broken)
    rep = validate_homotopy_equivalence(he)
    assert not rep.passed
    assert rep.homotopy_source > 1e3 * rep.threshold


def test_canonical_digest_is_stable():
    a = fixtures.torus_triangulation()
    b = fixtures.torus_triangulation()
    assert a.digest() == b.digest()


# ---------------------------------------------------------------------------
# exact linear algebra against a Fraction Gauss-Jordan reference


def reference_rref(rows):
    """Gauss-Jordan over Fractions: (reduced rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def reference_nullspace(a):
    nrows, ncols = a.shape
    if nrows == 0:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    red, pivots = reference_rref(a.tolist())
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def random_rational_matrix(rng: random.Random) -> list[list[Fraction]]:
    """Small sparse rational matrix with zero rows and columns and dependent
    rows mixed in; denominators from {1, 2, 3, 5}."""
    nrows, ncols = rng.randint(0, 6), rng.randint(0, 7)
    m = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
          if rng.random() < 0.5 else Fraction(0) for _ in range(ncols)]
         for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.4:
        a, b = rng.sample(range(nrows), 2)
        f = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5)))
        m[b] = [f * x for x in m[a]]
    if nrows and rng.random() < 0.2:
        m[rng.randrange(nrows)] = [Fraction(0)] * ncols
    if ncols and rng.random() < 0.2:
        c = rng.randrange(ncols)
        for row in m:
            row[c] = Fraction(0)
    return m


def test_rref_matches_fraction_reference():
    rng = random.Random(20190)
    shapes = set()
    for _ in range(600):
        m = random_rational_matrix(rng)
        ncols = len(m[0]) if m else 0
        shapes.add((len(m), ncols))
        ref_rows, ref_pivots = reference_rref(m)
        echelon, kept = _echelon(map(_integer_row, m))
        # the leads are the pivots, and a row is kept iff it raises the rank
        assert sorted(echelon) == ref_pivots
        assert kept == [i for i in range(len(m))
                        if len(reference_rref(m[:i + 1])[1]) > len(reference_rref(m[:i])[1])]
        reduced = _back_substitute(echelon)
        assert sorted(reduced) == ref_pivots
        assert all(isinstance(x, int) and x for row in reduced.values() for x in row.values())
        assert all(math.gcd(*row.values()) == 1 for row in reduced.values())
        for r, pc in enumerate(ref_pivots):
            row = reduced[pc]
            assert [Fraction(row.get(c, 0), row[pc]) for c in range(ncols)] == ref_rows[r]
    assert (0, 0) in shapes and any(c == 0 < r for r, c in shapes)


def test_rational_nullspace_matches_reference():
    rng = np.random.default_rng(20190)
    for _ in range(500):
        shape = (int(rng.integers(0, 6)), int(rng.integers(0, 8)))
        a = rng.integers(-2, 3, size=shape) * (rng.random(shape) < 0.5)
        reduced = _back_substitute(_echelon(map(_integer_row, a.tolist()))[0])
        basis = [[Fraction(x, scale) for x in v]
                 for v, scale in _integer_nullspace(reduced, a.shape[1])]
        assert basis == reference_nullspace(a)
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a.tolist())


def test_symmetric_signature_matches_eigenvalue_signs():
    # D A D with a positive diagonal D is congruent to A, so the rational
    # matrix has the inertia of the integer A, read off its float eigenvalues
    rng = np.random.default_rng(20190)
    for _ in range(300):
        k = int(rng.integers(0, 7))
        a = rng.integers(-2, 3, size=(k, k)) * (rng.random((k, k)) < 0.6)
        a = np.triu(a) + np.triu(a, 1).T
        if rng.random() < 0.5:
            np.fill_diagonal(a, 0)
        d = [Fraction(1, int(x)) for x in rng.choice((1, 2, 3, 5), size=k)]
        q = [[d[i] * int(a[i, j]) * d[j] for j in range(k)] for i in range(k)]
        ev = np.linalg.eigvalsh(a.astype(float)) if k else np.zeros(0)
        expected = (int((ev > 1e-9).sum()), int((ev < -1e-9).sum()),
                    int((np.abs(ev) <= 1e-9).sum()))
        assert symmetric_signature(q) == expected


# ---------------------------------------------------------------------------
# orientation by breadth-first search, and the boundary-matrix cache


def _sorted_with_sign(vs):
    vs = list(vs)
    sign = 1
    for i in range(len(vs)):
        for j in range(len(vs) - 1 - i):
            if vs[j] > vs[j + 1]:
                vs[j], vs[j + 1] = vs[j + 1], vs[j]
                sign = -sign
    return tuple(vs), sign


def relabelled_torus(k: int, seed: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """k x k grid torus with counter-clockwise triangles and permuted vertex
    labels: (sorted facets, reference orientation carried by each sort)."""
    perm = np.random.default_rng(seed).permutation(k * k)

    def v(i, j):
        return int(perm[(i % k) * k + (j % k)])

    pairs = []
    for i in range(k):
        for j in range(k):
            for tri in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                        (v(i, j), v(i + 1, j + 1), v(i, j + 1))):
                pairs.append(_sorted_with_sign(tri))
    pairs.sort()
    return [f for f, _ in pairs], [s for _, s in pairs]


def tetrahedron_boundary(vs):
    return [tuple(x for x in vs if x != v) for v in vs]


@pytest.mark.parametrize("facets", [
    tetrahedron_boundary((0, 1, 2, 3)) + tetrahedron_boundary((4, 5, 6, 7)),
    [(0, 1, 2)],
], ids=["disconnected", "not-closed"])
def test_orient_facets_rejects(facets):
    # RP^2, closed but not orientable, is in test_nonorientable_rejected
    with pytest.raises(StructuralError):
        orient_facets(facets, 2)


def test_orient_facets_torus_fixture():
    assert fixtures.torus_triangulation().orientations == (-1,) * 7 + (1,) * 7


def test_orient_facets_relabelled_torus():
    facets, ref = relabelled_torus(10, seed=3)
    got = orient_facets(facets, 2)
    assert got == ref or got == [-s for s in ref]
    assert got[-1] == 1


def test_check_relabelled_torus_8(tmp_path, capsys):
    facets, _ = relabelled_torus(8, seed=5)
    path = tmp_path / "torus8.json"
    path.write_text(json.dumps({"n": 2, "vertices": 64, "facets": facets,
                                "orientations": orient_facets(facets, 2)}))
    assert cli.main(["check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["data"]["betti"] == [1, 2, 1]
    assert report["data"]["oracle_signature"] == 0


def reference_intersection_form(sm):
    """(basis, pairing, rank, signature) of the middle cup pairing through the
    Fraction references: reference_nullspace of d_p for the cocycles, and the
    pivots of reference_rref of [image of d_{p-1} | kernel] for the ones kept;
    the signature is read off float eigenvalues."""
    p = sm.n // 2
    kernel = reference_nullspace(sm.boundaries[p].T)
    d_in = sm.boundaries[p - 1].T
    image = d_in[:, reference_rref(d_in.tolist())[1]].tolist()
    stacked = [row + [v[i] for v in kernel] for i, row in enumerate(image)]
    n_image = len(image[0])
    basis = [kernel[j - n_image] for j in reference_rref(stacked)[1] if j >= n_image]
    index = sm.simplex_index[p]
    pairing = [[Fraction(0)] * len(basis) for _ in basis]
    for f, eps in zip(sm.facets, sm.orientations):
        front, back = index[f[:p + 1]], index[f[p:]]
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                pairing[i][j] += eps * u[front] * v[back]
    rank = len(reference_rref(pairing)[1])
    if sm.n % 4 or not basis:
        return basis, pairing, rank, 0
    eig = np.linalg.eigvalsh(np.array(pairing, dtype=float))
    return basis, pairing, rank, int(np.sum(eig > 0) - np.sum(eig < 0))


def relabelled_torus_manifold(k: int) -> SimplicialManifold:
    facets, orientations = relabelled_torus(k, seed=k)
    return load_simplicial({"n": 2, "vertices": k * k, "facets": facets,
                            "orientations": orientations})


def simplex_boundary(n: int) -> SimplicialManifold:
    """The boundary of the (n+1)-simplex, oriented by orient_facets.  Any
    relabelling of its vertices maps its facets onto themselves."""
    facets = list(combinations(range(n + 2), n + 1))
    return load_simplicial({"n": n, "vertices": n + 2, "facets": facets,
                            "orientations": orient_facets(facets, n)})


@pytest.mark.parametrize("build", [
    fixtures.cp2_triangulation, fixtures.torus_triangulation,
    *(partial(relabelled_torus_manifold, k) for k in (3, 4, 5)),
    *(partial(simplex_boundary, n) for n in (2, 4)),
], ids=["cp2_9", "torus7", "torus3", "torus4", "torus5", "sphere2", "sphere4"])
def test_oracle_matches_the_fraction_reference(build):
    sm = build()
    form = intersection_form_oracle(sm)
    basis, pairing, rank, signature = reference_intersection_form(sm)
    assert [list(v) for v in form.basis] == basis
    assert [list(r) for r in form.pairing] == pairing
    assert form.rank == rank == len(basis)
    assert form.signature == signature


@pytest.mark.parametrize("name, betti", [
    ("point", (1,)), ("circle3", (1, 1)), ("sphere_d3", (1, 0, 1)),
    ("torus7", (1, 2, 1)), ("cp2_9", (1, 0, 1, 0, 1))])
def test_betti_numbers_of_the_shipped_triangulations(name, betti):
    assert betti_numbers(fixtures.TRIANGULATIONS[name]()) == betti


def test_boundary_matrices_cached_read_only():
    sm = fixtures.cp2_triangulation()
    bs = sm.boundaries
    assert bs is sm.boundaries
    for b in bs:
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0] = 7


def previous_cohomology_basis(sm: SimplicialManifold, p: int) -> list[list[Fraction]]:
    """The cocycle selection _cohomology_basis replaced: one echelon of the
    image vectors of d_{p-1} followed by the full-length kernel vectors of
    d_p, keeping each kernel vector independent of the rows before it."""
    dim = len(sm.simplices[p])
    kernel = _integer_nullspace(_back_substitute(sm.coboundary_echelons[p]), dim)
    if not kernel:
        return []
    image = []
    if p:
        columns = defaultdict(dict)
        for i, row in enumerate(sm.coboundary_rows[p - 1]):
            for j, x in row.items():
                columns[j][i] = x
        image = [columns[j] for j in sorted(sm.coboundary_echelons[p - 1])]
    _, kept = _echelon(image + [{i: x for i, x in enumerate(v) if x} for v, _ in kernel])
    return [_to_fractions(*kernel[j - len(image)]) for j in kept if j >= len(image)]


@pytest.mark.parametrize("build", [
    fixtures.cp2_triangulation, fixtures.torus_triangulation,
    *(partial(relabelled_torus_manifold, k) for k in (3, 4, 5, 6)),
    *(partial(simplex_boundary, n) for n in (1, 2, 3, 4)),
], ids=["cp2_9", "torus7", "torus3", "torus4", "torus5", "torus6",
        "sphere1", "sphere2", "sphere3", "sphere4"])
def test_cocycles_selected_by_free_columns_are_the_previous_ones(build):
    # the selection in the coordinates of ker d_p is the same greedy choice
    # as the one over full-length vectors, so every representative is equal
    sm = build()
    for p in range(sm.n + 1):
        assert _cohomology_basis(sm, p) == previous_cohomology_basis(sm, p)
