"""Seeded randomized invariants on scrambled strict complexes.

random_strict_complex conjugates direct sums of the primitive strict pieces
by random degree-preserving unitaries, so every identity that holds for the
hand-built fixtures must keep holding on generic matrix data.
"""

import numpy as np
import pytest

from hpsig import fixtures
from hpsig.hpc_core import rescale_inner_products, reverse_orientation, validate
from hpsig.products import (graded_tensor, product_signature_check,
                            witness_even_odd, witness_odd_even)
from hpsig.rho import identity_equivalence, rho_path
from hpsig.signature import signature_even, odd_index_representative


def test_random_strict_complexes_validate():
    rng = np.random.default_rng(100)
    for n in (1, 2, 4):
        for _ in range(5):
            c = fixtures.random_strict_complex(rng, n)
            rep = validate(c)
            assert rep.passed and rep.tier_achieved == "strict"


def test_random_signature_invariances():
    rng = np.random.default_rng(101)
    for _ in range(5):
        c = fixtures.random_strict_complex(rng, 2, blocks=3)
        s = signature_even(c)
        assert signature_even(reverse_orientation(c)) == -s
        for lam in (0.3, 4.0):
            assert signature_even(rescale_inner_products(c, lam)) == s


def test_random_product_multiplicativity():
    rng = np.random.default_rng(102)
    for _ in range(5):
        a = fixtures.random_strict_complex(rng, 2)
        b = fixtures.random_strict_complex(rng, int(rng.choice([1, 2, 4])))
        rep = product_signature_check(a, b)
        assert rep.passed, rep.extras


def test_random_parity_witnesses():
    rng = np.random.default_rng(103)
    for _ in range(3):
        even = fixtures.random_strict_complex(rng, 2)
        odd = fixtures.random_strict_complex(rng, 1)
        assert witness_even_odd(even, odd).passed
        assert witness_odd_even(odd, even).passed


def test_random_product_strictness_and_duality_square():
    rng = np.random.default_rng(104)
    a = fixtures.random_strict_complex(rng, 1)
    b = fixtures.random_strict_complex(rng, 1)
    t = graded_tensor(a, b)
    rep = validate(t)
    assert rep.passed and rep.tier_achieved == "strict"
    s = np.asarray(t.S)
    assert np.abs(s @ s - np.eye(t.total_dim)).max() <= 1e-12


def test_random_rho_identity_paths(path_gluing):
    rng = np.random.default_rng(105)
    for n in (1, 2):
        c = fixtures.random_strict_complex(rng, n)
        path = rho_path(identity_equivalence(c))
        assert path.passed
        assert path_gluing(path._data)[0] <= 1e-10


def test_random_odd_representatives_invertible():
    rng = np.random.default_rng(106)
    for _ in range(5):
        c = fixtures.random_strict_complex(rng, 1, blocks=3)
        rep = odd_index_representative(c)
        assert rep.passed
        assert rep.selfadjoint_residual <= 1e-10
