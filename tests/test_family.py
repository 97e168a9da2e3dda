"""Fibered complexes: twisted totals, monodromy, sections, multiplicativity."""

import numpy as np
import pytest

from hpsig import fixtures
from hpsig.family import (FiberedComplex, chs_check, family_signature_section,
                          fibered_from_json, fibered_to_json,
                          monodromy_homology_action, total_complex,
                          validate_fibered)
from hpsig.hpc_core import StructuralError, hpcomplex_to_json, validate
from hpsig.products import graded_tensor
from hpsig.simplicial import cap_duality


def rotation():
    return fixtures.fiber_rotation_on_torus_model()


def torus_twist():
    return FiberedComplex(fixtures.circle_triangulation(), fixtures.torus_model(),
                          {(2, 0): rotation()})


def test_untwisted_total_equals_graded_tensor_exactly():
    fc = FiberedComplex(fixtures.sphere_triangulation(), fixtures.cp2_model())
    tot = total_complex(fc)
    ref = graded_tensor(cap_duality(fixtures.sphere_triangulation()),
                        fixtures.cp2_model())
    assert tot.space.dims == ref.space.dims
    assert np.array_equal(np.asarray(tot.S), np.asarray(ref.S))
    for d1, d2 in zip(tot.d, ref.d):
        assert np.array_equal(d1, d2)


def test_explicit_identity_transitions_take_twisted_path_and_agree():
    eye = np.eye(4, dtype=complex)
    fc = FiberedComplex(fixtures.circle_triangulation(), fixtures.torus_model(),
                        {(0, 1): eye.copy(), (1, 2): eye.copy(), (2, 0): eye.copy()})
    assert fc.untwisted
    tot = total_complex(fc)
    ref = graded_tensor(cap_duality(fixtures.circle_triangulation()),
                        fixtures.torus_model())
    assert np.array_equal(np.asarray(tot.S), np.asarray(ref.S))
    for d1, d2 in zip(tot.d, ref.d):
        assert np.array_equal(d1, d2)


def test_twisted_builder_with_identity_matches_untwisted():
    # force the nontrivial code path by perturbing one transition by 0, i.e.
    # build through the twisted assembler with explicit identity transports
    from hpsig.family import FiberedComplex as FC
    import hpsig.family as fam

    class Forced(FC):
        @property
        def untwisted(self):
            return False

    eye = np.eye(4, dtype=complex)
    fc = Forced(fixtures.circle_triangulation(), fixtures.torus_model(),
                {(0, 1): eye.copy()})
    tot = fam.total_complex(fc)
    ref = graded_tensor(cap_duality(fixtures.circle_triangulation()),
                        fixtures.torus_model())
    assert np.array_equal(np.asarray(tot.S), np.asarray(ref.S))
    for d1, d2 in zip(tot.d, ref.d):
        assert np.array_equal(d1, d2)


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
    from hpsig.hpc_core import rescale_inner_products
    fiber = rescale_inner_products(fixtures.torus_model(), 2.0)
    fc = FiberedComplex(fixtures.circle_triangulation(), fiber,
                        {(2, 0): rotation()})
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


def test_family_signature_section_cp2():
    # transitions preserving the duality conjugate the fiber; signature 1 everywhere
    psi = np.diag([1.0, -1.0, 1.0]).astype(complex)
    fc = FiberedComplex(fixtures.circle_triangulation(), fixtures.cp2_model(),
                        {(0, 1): psi})
    assert validate_fibered(fc).passed
    section = family_signature_section(fc)
    assert section.constant and set(section.values) == {1}
    assert section.vertices == (0, 1, 2)


def test_family_signature_section_sphere_fiber_zero():
    fc = FiberedComplex(fixtures.sphere_triangulation(), fixtures.sphere_model())
    section = family_signature_section(fc)
    assert section.constant and set(section.values) == {0}


def test_section_invariant_under_duality_preserving_conjugation():
    # S^1 base: no triangles, so any edge assignment is flat
    psi = np.diag([1.0, -1.0, 1.0]).astype(complex)
    base = fixtures.circle_triangulation()
    fc_plain = FiberedComplex(base, fixtures.cp2_model())
    fc_conj = FiberedComplex(base, fixtures.cp2_model(), {(0, 1): psi})
    assert validate_fibered(fc_conj).passed
    sec_a = family_signature_section(fc_plain)
    sec_b = family_signature_section(fc_conj)
    assert sec_a.values == sec_b.values


def test_fiber_without_duality_rejected():
    from hpsig.simplicial import cochain_complex
    bare = cochain_complex(fixtures.sphere_triangulation())
    fc = FiberedComplex(fixtures.circle_triangulation(), bare)
    with pytest.raises(StructuralError, match="no fiberwise duality"):
        total_complex(fc)


def test_duality_incompatible_transition_rejected():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)  # flips the sphere duality
    fc = FiberedComplex(fixtures.circle_triangulation(), fixtures.sphere_model(),
                        {(2, 0): swap})
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
    # the section's value at the root of the transport tree is sgn(fiber)
    assert family_signature_section(fc).values[0] == rep.sgn_fiber


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
