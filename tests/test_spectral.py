"""Eigensystem contract and its functional calculus, positive ranks, certificates."""

import numpy as np
import pytest

from hpsig import fixtures
from hpsig.hpc_core import GradedSpace, HPComplex, validate
from hpsig.spectral import (NoSpectralGapError, eig_hermitian, gap_certificate,
                            invertibility_certificate, operator_norm, positive_rank)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_identity_eigenvalues():
    es = eig_hermitian(np.eye(3))
    assert es.eigenvalues == pytest.approx([1.0, 1.0, 1.0])


def test_diagonal_eigenvalues_sorted():
    es = eig_hermitian(np.diag([5.0, -2.0, 0.0]))
    assert es.eigenvalues == pytest.approx([-2.0, 0.0, 5.0])


def test_random_reconstruction_residual():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 50)
    es = eig_hermitian(a)
    norm = np.linalg.norm(a, 2)
    recon = (es.vectors * es.eigenvalues) @ es.vectors.conj().T
    assert np.linalg.norm(recon - a, 2) <= 1e-10 * norm
    assert np.linalg.norm(es.vectors.conj().T @ es.vectors - np.eye(50), 2) <= 1e-10


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_deterministic_bytes():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 20)
    e1 = eig_hermitian(a)
    e2 = eig_hermitian(a.copy())
    assert e1.eigenvalues.tobytes() == e2.eigenvalues.tobytes()
    assert e1.vectors.tobytes() == e2.vectors.tobytes()


def positive_projection(a) -> np.ndarray:
    """The spectral projection onto the positive part of a, from the
    functional calculus of its eigensystem."""
    return eig_hermitian(a).apply(lambda x: 1.0 if x > 0 else 0.0)


def test_positive_rank_scalars():
    assert positive_rank(np.array([[1.0]])) == 1
    assert positive_rank(np.diag([3.0, -1.0])) == 1


def test_positive_rank_needs_gap():
    with pytest.raises(NoSpectralGapError):
        positive_rank(np.diag([0.0, 1.0]))


def test_positive_projection_on_harmonic_model():
    # 3-dimensional model: (D+S) has eigenvalues {1, -1, 1}, (D-S) the negatives
    c = fixtures.cp2_model()
    assert positive_rank(c.D_on + c.S_on) == 2
    assert positive_rank(c.D_on - c.S_on) == 1


def test_projection_properties():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 16) + 3 * np.eye(16)  # comfortably gapped? not nec.
    vals = np.linalg.eigvalsh(a)
    if np.abs(vals).min() < 1e-6:
        a = a + 2 * np.eye(16)
    p = positive_projection(a)
    assert np.linalg.norm(p @ p - p, 2) <= 1e-10
    assert np.linalg.norm(p - p.conj().T, 2) <= 1e-10


def test_complement_projections_sum_to_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_hermitian(rng, 12)
        if np.abs(np.linalg.eigvalsh(a)).min() < 1e-3:
            continue
        assert positive_projection(a) + positive_projection(-a) == pytest.approx(np.eye(12))
        assert positive_rank(a) + positive_rank(-a) == 12


def g_fn(x):
    return x / np.sqrt(1.0 + x * x)


def f_fn(x):
    return 1.0 / np.sqrt(1.0 + x * x)


def test_functional_calculus_trivial_values():
    z = eig_hermitian(np.zeros((3, 3)))
    assert z.apply(g_fn) == pytest.approx(np.zeros((3, 3)))
    assert z.apply(f_fn) == pytest.approx(np.eye(3))
    a = eig_hermitian(np.diag([3.0, -4.0]))
    assert a.apply(np.sign) == pytest.approx(np.diag([1.0, -1.0]))


def test_functional_calculus_algebraic_identity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = random_hermitian(rng, 15)
        es = eig_hermitian(a)
        f = es.apply(f_fn)
        g = es.apply(g_fn)
        assert np.linalg.norm(f @ f + g @ g - np.eye(15), 2) <= 1e-12 * 15
        # commutes with a, and g(a) a is positive semidefinite
        assert np.linalg.norm(g @ a - a @ g, 2) <= 1e-10 * max(1, np.linalg.norm(a, 2))
        assert np.linalg.eigvalsh(g @ a).min() >= -1e-10


def test_invertibility_certificate_basics():
    cert = invertibility_certificate(np.eye(4))
    assert cert.passed and cert.min_singular == pytest.approx(1.0)
    cert = invertibility_certificate(np.diag([1.0, 0.0]))
    assert not cert.passed and cert.min_singular == pytest.approx(0.0)


def test_invertibility_certificate_on_sphere_model():
    c = fixtures.sphere_model()
    cert = invertibility_certificate(c.D_on - c.S_on)
    assert cert.passed and cert.min_singular == pytest.approx(1.0)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def singular_values_matrix(seed, hermitian, n=120):
    """Exactly singular by construction: Q diag(lam) Q* with lam uniform in
    [-1, 1] (hermitian), else U diag(sigma) V* with sigma uniform in [0, 1];
    the first value is 0 and the second 1, so the norm is 1."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0 if hermitian else 0.0, 1.0, n)
    vals[0], vals[1] = 0.0, 1.0
    u = random_unitary(rng, n)
    v = u if hermitian else random_unitary(rng, n)
    return (u * vals) @ v.conj().T


def test_validate_rejects_singular_hermitian_dualities():
    # on one degree D = 0, so D +- S = +-S; a Gram estimate sqrt(lambda_min(S*S))
    # carries noise of about sqrt(eps) and certified some of these
    space = GradedSpace(0, (120,))
    passed = [seed for seed in range(200)
              if validate(HPComplex(space, (), singular_values_matrix(seed, True))).poincare]
    assert passed == []


def test_invertibility_certificate_rejects_rank_deficient_matrices():
    passed = [seed for seed in range(200)
              if invertibility_certificate(singular_values_matrix(seed, False)).passed]
    assert passed == []


def test_gap_certificate_floor_is_the_rounding_of_the_decomposition():
    # the threshold is max(tol_inv, N eps) times the top: tol_inv itself at
    # the default, N eps below it
    eps = np.finfo(float).eps
    assert gap_certificate(1e-9, 2.0, 1e-8, 255).threshold == 1e-8 * 2.0
    for tol_inv in (1e-16, 1e-20):
        cert = gap_certificate(100 * eps, 1.0, tol_inv, 200)
        assert cert.threshold == 200 * eps and not cert.passed
    assert gap_certificate(300 * eps, 1.0, 1e-20, 200).passed
