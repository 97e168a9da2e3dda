"""Fibered complexes: total complexes, monodromy, multiplicativity."""

import json
from pathlib import Path

import numpy as np
import pytest

from hpsig import fixtures
from hpsig.family import (FiberedComplex, chs_check, fibered_from_json, fibered_to_json,
                          monodromy_homology_action, total_complex, validate_fibered)
from hpsig.hpc_core import (DEFAULT_TOL, GradedSpace, HPComplex, StructuralError,
                            hpcomplex_to_json, rescale_inner_products, validate)
from hpsig.products import _tensor_space, derive_sign_rule, graded_tensor
from hpsig.signature import signature_even
from hpsig.simplicial import (cap_duality, duality_phase, load_simplicial, orient_facets,
                              symmetrized_duality)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def rotation():
    return fixtures.fiber_rotation_on_torus_model()


def torus_twist():
    return FiberedComplex(fixtures.circle_triangulation(), fixtures.torus_model(),
                          {(2, 0): rotation()})


def grid_torus(k: int, seed: int):
    """The k x k grid torus with vertex labels permuted by seed, and v(i, j),
    the label of grid point (i, j)."""
    perm = np.random.default_rng(seed).permutation(k * k)

    def v(i, j):
        return int(perm[(i % k) * k + (j % k)])

    facets = [tri for i in range(k) for j in range(k)
              for tri in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                          (v(i, j), v(i + 1, j + 1), v(i, j + 1)))]
    return load_simplicial({"n": 2, "vertices": k * k, "facets": facets,
                            "orientations": orient_facets(facets, 2)}), v


def simplex_boundary(n: int, seed: int):
    """The boundary of the (n + 1)-simplex, an n-sphere, with vertex labels
    permuted by seed."""
    perm = np.random.default_rng(seed).permutation(n + 2)
    facets = [[int(perm[v]) for v in range(n + 2) if v != i] for i in range(n + 2)]
    return load_simplicial({"n": n, "vertices": n + 2, "facets": facets,
                            "orientations": orient_facets(facets, n)})


def weighted_torus():
    return rescale_inner_products(fixtures.torus_model(), 2.0)


def shipped_fibered(name: str) -> FiberedComplex:
    return fibered_from_json(json.loads((FIXTURE_DIR / f"{name}.json").read_text()))


UNTWISTED = {
    **{name: (lambda name=name: shipped_fibered(name))
       for name in ("fc_mapping_torus_cp2", "fc_sphere_x_cp2")},
    **{f"{base_name}_x_{fiber_name}": (lambda base=base, fiber=fiber:
                                       FiberedComplex(base(), fiber()))
       for base_name, base in (("torus3x3", lambda: grid_torus(3, 1)[0]),
                               ("sphere4", lambda: simplex_boundary(4, 1)))
       for fiber_name, fiber in (("cp2", fixtures.cp2_model),
                                 ("torus", fixtures.torus_model),
                                 ("weighted_torus", weighted_torus))},
}


def assert_same_operators(got: HPComplex, want: HPComplex) -> None:
    """d, S and G of got equal those of want in dtype and bytes."""
    assert got.space.dims == want.space.dims
    for a, b in zip((*got.d, got.S, *got.space.inner), (*want.d, want.S, *want.space.inner)):
        assert (a is None) == (b is None)
        if b is not None:
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(UNTWISTED))
def test_untwisted_total_equals_graded_tensor_exactly(name):
    fc = UNTWISTED[name]()
    tot = total_complex(fc)
    assert tot.meta["twist"] == "trivial"
    assert_same_operators(tot, graded_tensor(cap_duality(fc.base), fc.fiber))


def test_explicit_identity_transitions_take_twisted_path_and_agree():
    eye = np.eye(4, dtype=complex)
    fc = FiberedComplex(fixtures.circle_triangulation(), fixtures.torus_model(),
                        {(0, 1): eye.copy(), (1, 2): eye.copy(), (2, 0): eye.copy()})
    tot = total_complex(fc)
    assert tot.meta["twist"] == "trivial"
    assert_same_operators(tot, graded_tensor(cap_duality(fixtures.circle_triangulation()),
                                             fixtures.torus_model()))


def test_mapping_torus_cp2_is_valid_and_odd():
    fc = FiberedComplex(fixtures.circle_triangulation(), fixtures.cp2_model())
    tot = total_complex(fc)
    assert tot.n == 5
    assert validate(tot).passed
    rep = chs_check(fc)
    assert rep.outcome == "odd_dimension"
    assert rep.passed


def test_twisted_torus_total_validates():
    tot = total_complex(torus_twist())
    assert validate(tot).passed
    assert tot.meta["twist"] == "nontrivial"
    d = tot.d_total
    assert np.abs(d @ d).max() == 0.0


def test_twisted_torus_wang_betti(complex_betti):
    # independent oracle: Wang rank constraint from the monodromy action
    fc = torus_twist()
    mono = monodromy_homology_action(fc)
    assert not mono.trivial
    act = mono.actions[0]
    # action on fiber homology by degree: H^0, H^1 (2-dim), H^2
    blocks = [act[0:1, 0:1], act[1:3, 1:3], act[3:4, 3:4]]
    expected = []
    prev_coker = 0
    for k in range(4):
        ker = coker = 0
        if k <= 2:
            m = blocks[k] - np.eye(blocks[k].shape[0])
            rank = np.linalg.matrix_rank(m)
            ker = blocks[k].shape[0] - rank
            coker = blocks[k].shape[0] - rank
        expected.append(ker + prev_coker)
        prev_coker = coker
    tot = total_complex(fc)
    assert list(complex_betti(tot)) == expected == [1, 1, 1, 1]


def test_twisted_total_with_weighted_fiber():
    fc = weighted_torus_twist()
    rep = validate_fibered(fc)
    assert rep.passed and rep.duality_compatible
    tot = total_complex(fc)
    assert validate(tot).passed
    assert tot.space.has_weights


def test_monodromy_identity_transitions_trivial():
    fc = FiberedComplex(fixtures.circle_triangulation(), fixtures.torus_model())
    mono = monodromy_homology_action(fc)
    assert mono.trivial and mono.loops


def test_monodromy_rotation_detected():
    mono = monodromy_homology_action(torus_twist())
    assert not mono.trivial
    assert mono.residuals[0] > 1.0


def test_monodromy_chain_homotopic_to_identity_is_invisible():
    # psi = 1 + d k + k d acts trivially on homology even though psi != 1
    fiber = cap_duality(fixtures.sphere_triangulation())
    rng = np.random.default_rng(2)
    k = np.zeros((fiber.total_dim, fiber.total_dim), dtype=complex)
    d = fiber.d_total
    # degree-lowering random map
    sp = fiber.space
    for p in range(1, sp.n + 1):
        blk = rng.standard_normal((sp.dims[p - 1], sp.dims[p])) * 0.1
        k[sp.degree_slice(p - 1), sp.degree_slice(p)] = blk
    psi = np.eye(fiber.total_dim) + d @ k + k @ d
    assert np.abs(psi - np.eye(fiber.total_dim)).max() > 0.01
    fc = FiberedComplex(fixtures.circle_triangulation(), fiber, {(2, 0): psi})
    mono = monodromy_homology_action(fc)
    assert mono.trivial


def test_section_invariant_under_duality_preserving_conjugation():
    # a transport psi preserving the degrees carries the fiber to the frame
    # with d' = psi d psi^-1, G' = psi^-* G psi^-1 and S' = psi S psi^-1:
    # W = G'^(1/2) psi G^(-1/2) is unitary and D' +- S' = W (D +- S) W*, so
    # the fiber signature is the same in every frame and chs checks it once
    for fiber, psi in ((fixtures.cp2_model(), np.diag([2.0, -1.0, 0.5])),
                       (weighted_torus(), rotation())):
        inv = np.linalg.inv(psi)
        sp = fiber.space
        deg = [sp.degree_slice(p) for p in range(fiber.n + 1)]
        moved = HPComplex(
            GradedSpace(fiber.n, sp.dims, tuple(inv[s, s].conj().T @ sp.g_block(p) @ inv[s, s]
                                                for p, s in enumerate(deg))),
            tuple(psi[hi, hi] @ dp @ inv[lo, lo] for dp, lo, hi in zip(fiber.d, deg, deg[1:])),
            psi @ fiber.S @ inv)
        w = moved.space.g_half @ psi @ sp.g_half_inv
        assert np.allclose(w.conj().T @ w, np.eye(fiber.total_dim))
        for sign in (1.0, -1.0):
            assert np.allclose(moved.D_on + sign * moved.S_on,
                               w @ (fiber.D_on + sign * fiber.S_on) @ w.conj().T)
        assert signature_even(moved) == signature_even(fiber)


def test_transition_mixing_degrees_rejected():
    # swapping degrees 0 and 4 of the cp2 fiber commutes with d = 0 and keeps
    # the duality, but is no map of graded spaces: its degree blocks,
    # diag(0, 1, 0), would be a singular transport
    swap = np.eye(3)[::-1]
    with pytest.raises(StructuralError, match=r"^transition \(2,0\) mixes fiber degrees$"):
        FiberedComplex(fixtures.circle_triangulation(), fixtures.cp2_model(), {(2, 0): swap})


def test_fiber_without_duality_rejected():
    from hpsig.simplicial import cochain_complex
    bare = cochain_complex(fixtures.sphere_triangulation())
    fc = FiberedComplex(fixtures.circle_triangulation(), bare)
    with pytest.raises(StructuralError, match="no fiberwise duality"):
        total_complex(fc)


def test_duality_incompatible_transition_rejected():
    flip = np.diag([1.0, -1.0])  # maps the sphere duality S to -S
    fc = FiberedComplex(fixtures.circle_triangulation(), fixtures.sphere_model(),
                        {(2, 0): flip})
    rep = validate_fibered(fc)
    assert not rep.duality_compatible
    with pytest.raises(StructuralError, match="no fiberwise duality"):
        total_complex(fc)


def test_cocycle_violation_rejected():
    # a transition on a single triangle edge that breaks the cocycle condition
    psi = np.diag([1.0, -1.0, 1.0]).astype(complex)
    fc = FiberedComplex(fixtures.sphere_triangulation(), fixtures.cp2_model(),
                        {(0, 1): psi})
    rep = validate_fibered(fc)
    assert not rep.passed
    with pytest.raises(StructuralError):
        total_complex(fc)


@pytest.mark.parametrize("fiber,expected", [
    (fixtures.cp2_model, 1),
    (fixtures.sphere_model, 0),
])
def test_chs_on_trivial_bundles(fiber, expected):
    fc = FiberedComplex(fixtures.sphere_triangulation(), fiber())
    rep = chs_check(fc)
    assert rep.outcome == "pass"
    assert rep.sgn_base == 0 and rep.sgn_fiber == expected and rep.sgn_total == 0


def test_chs_hypothesis_not_met_on_twist():
    rep = chs_check(torus_twist())
    assert rep.outcome == "hypothesis_not_met"


def test_base_must_be_triangulation():
    doc = {"base": hpcomplex_to_json(fixtures.cp2_model()),
           "fiber": hpcomplex_to_json(fixtures.cp2_model()),
           "transitions": {}}
    with pytest.raises(StructuralError):
        fibered_from_json(doc)


def test_fibered_json_round_trip():
    fc = torus_twist()
    back = fibered_from_json(fibered_to_json(fc))
    assert back.base.digest() == fc.base.digest()
    assert np.array_equal(back.transitions[(2, 0)], fc.transitions[(2, 0)])


# ---------------------------------------------------------------------------
# the vectorized assembly against the per-simplex one


def reference_twisted_product(fc: FiberedComplex) -> HPComplex:
    """The total complex of fc assembled one simplex and one fiber block at
    a time, as the twisted product once was: every piece of G, d and of the
    cap duality T added into a complex128 matrix, transports read through
    fc.transition; twisted unless every transition equals the identity."""
    tol = DEFAULT_TOL
    base_c = cap_duality(fc.base, tol)
    fiber = fc.fiber
    m, n = base_c.n, fiber.n
    total = m + n
    tspace, pairs, offs = _tensor_space(base_c, fiber)
    dims = tspace.dims
    off_k = np.cumsum([0, *dims])
    rule = derive_sign_rule(m, n)
    fsp = fiber.space
    fdim = [fsp.dims[q] for q in range(n + 1)]

    inner = None
    if fsp.has_weights:
        inner = []
        for k in range(total + 1):
            g = np.zeros((dims[k], dims[k]), dtype=complex)
            for (p, q) in pairs[k]:
                blk = np.kron(np.eye(len(fc.base.simplices[p])), fsp.g_block(q))
                o = offs[(p, q)]
                g[o:o + blk.shape[0], o:o + blk.shape[1]] += blk
            inner.append(g)
        inner = tuple(inner)
    space = GradedSpace(total, tuple(dims), inner)

    def psi_block(i, j, q):
        sl = fsp.degree_slice(q)
        return fc.transition(i, j)[sl, sl]

    ds = []
    for k in range(total):
        blk = np.zeros((dims[k + 1], dims[k]), dtype=complex)
        for (p, q) in pairs[k]:
            nbase = len(fc.base.simplices[p])
            if nbase == 0 or fdim[q] == 0:
                continue
            if p + 1 <= m:
                idx_lo = fc.base.simplex_index[p]
                for ti, tau in enumerate(fc.base.simplices[p + 1]):
                    for pos in range(p + 2):
                        sigma = tau[:pos] + tau[pos + 1:]
                        si = idx_lo[sigma]
                        piece = (-1.0) ** pos * psi_block(sigma[0], tau[0], q)
                        r = offs[(p + 1, q)] + ti * fdim[q]
                        c = offs[(p, q)] + si * fdim[q]
                        blk[r:r + fdim[q], c:c + fdim[q]] += piece
            if q + 1 <= n and fdim[q + 1]:
                piece = ((-1.0) ** p) * np.kron(np.eye(nbase), fiber.d[q])
                r = offs[(p, q + 1)]
                c = offs[(p, q)]
                blk[r:r + piece.shape[0], c:c + piece.shape[1]] += piece
        ds.append(blk)

    sfib = np.asarray(fiber.S)
    T = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for f, eps in zip(fc.base.facets, fc.base.orientations):
        for p in range(m + 1):
            front, back = f[:p + 1], f[p:]
            fi = fc.base.simplex_index[p][front]
            bi = fc.base.simplex_index[m - p][back]
            coeff = eps * duality_phase(p, m)
            for q in range(n + 1):
                if fdim[q] == 0 or fdim[n - q] == 0:
                    continue
                sblock = sfib[fsp.degree_slice(n - q), fsp.degree_slice(q)]
                piece = (coeff * rule.sigma(p, q)) * (
                    psi_block(front[0], back[0], n - q) @ sblock)
                k = p + q
                r = off_k[total - k] + offs[(m - p, n - q)] + bi * fdim[n - q]
                c = off_k[k] + offs[(p, q)] + fi * fdim[q]
                T[r:r + fdim[n - q], c:c + fdim[q]] += piece

    skeleton = HPComplex(space, tuple(ds), None, "weak")
    trivial = all(np.array_equal(psi, np.eye(fiber.total_dim)) for psi in fc.transitions.values())
    return symmetrized_duality(skeleton, T, tol,
                               {"twist": "trivial" if trivial else "nontrivial"})


def seam_twisted_torus(k: int, seed: int) -> FiberedComplex:
    """The torus model over a k x k grid torus with permuted vertex labels,
    whose edges crossing the column seam carry the rotation from the column
    k - 1 frame to the column 0 frame.  A triangle meets the seam in two
    edges traversed in opposite directions, so the twist is flat."""
    base, v = grid_torus(k, seed)
    transitions = {(v(i, k - 1), right): rotation()
                   for i in range(k) for right in (v(i, 0), v(i + 1, 0))}
    return FiberedComplex(base, fixtures.torus_model(), transitions)


def weighted_torus_twist() -> FiberedComplex:
    return FiberedComplex(fixtures.circle_triangulation(), weighted_torus(),
                          {(2, 0): rotation()})


TWISTED = {
    **{f"seam_torus{k}x{k}#{seed}": (lambda k=k, seed=seed: seam_twisted_torus(k, seed))
       for k in (3, 4, 5) for seed in (1, 2)},
    **{name: (lambda name=name: shipped_fibered(name))
       for name in ("fc_mapping_torus_cp2", "fc_sphere_x_cp2", "fc_torus_twist")},
    "weighted_torus_twist": weighted_torus_twist,
}


@pytest.mark.parametrize("name", sorted(TWISTED))
def test_vectorized_total_complex_equals_the_per_simplex_assembly(name):
    fc = TWISTED[name]()
    tot = total_complex(fc)
    ref = reference_twisted_product(fc)
    assert tot.meta == ref.meta
    # both pass through HPComplex, which picks each dtype from the bits
    assert_same_operators(tot, ref)
    if name.startswith("seam_torus"):
        # a bundle with real transports and a real total duality is stored
        # real throughout
        assert all(a.dtype == np.float64 for a in (*tot.d, tot.S))


@pytest.mark.parametrize("name", sorted({*UNTWISTED, *TWISTED} - {"fc_mapping_torus_cp2",
                                                                    "fc_torus_twist",
                                                                    "weighted_torus_twist"}))
def test_model_fiber_bundles_split_into_two_blocks(name, split_agrees, graded_operand):
    # the model fibers have d = 0 and transports keep degrees, so a fiber
    # index of degree q meets degree n - q only through S: D + S of an even
    # total is the direct sum of two blocks, decomposed one at a time
    tot = total_complex((UNTWISTED.get(name) or TWISTED[name])())
    assert tot.n % 2 == 0 and len(tot.graded._blocks) == 2
    split_agrees(tot.spectrum, graded_operand(tot))


def test_transports_are_one_table_with_the_identity_first():
    fc = seam_twisted_torus(4, 1)
    table = fc.transports
    assert not table.flags.writeable
    # the identity, the rotation and its inverse, each once
    assert table.shape == (3, 4, 4)
    assert np.array_equal(table[0], np.eye(4))
    for (i, j), psi in fc.transitions.items():
        assert np.array_equal(fc.transition(i, j), psi)
        assert np.array_equal(fc.transition(j, i) @ psi, np.eye(4))
    base = fc.base
    edges = [e for e in base.simplices[1] if e not in fc.transitions
             and e[::-1] not in fc.transitions]
    assert edges and all(fc.transport(*e) == fc.transport(*e[::-1]) == 0 for e in edges)
