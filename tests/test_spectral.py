import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from psdalloc.spectral import (
    TOL_EIG,
    InvalidMatrix,
    ShapeError,
    eig_sym,
    psd_order_gap,
    sym,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def random_sym(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return 0.5 * (A + A.T)


def test_eig_identity():
    w, V = eig_sym(np.eye(3))
    assert np.allclose(w, 1.0)
    assert np.allclose(V @ V.T, np.eye(3), atol=TOL_EIG)


def test_eig_diagonal():
    w, V = eig_sym(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.allclose(np.abs(V), np.eye(2), atol=TOL_EIG)


@given(a=finite, b=finite, c=finite)
def test_eig_2x2_quadratic_formula(a, b, c):
    # independent closed-form oracle: roots of the characteristic polynomial
    M = np.array([[a, b], [b, c]])
    tr, det = a + c, a * c - b * b
    disc = np.sqrt(max((a - c) ** 2 / 4.0 + b * b, 0.0))
    expected = np.array([tr / 2.0 + disc, tr / 2.0 - disc])
    w, V = eig_sym(M)
    scale = max(1.0, np.linalg.norm(M))
    assert np.all(np.abs(w - expected) <= 1e-10 * scale)
    assert abs(w[0] * w[1] - det) <= 1e-9 * max(1.0, abs(det), scale**2)


def test_eig_reconstruction_and_orthonormality(rng):
    for n in (1, 2, 5, 12):
        M = random_sym(rng, n, scale=3.0)
        w, V = eig_sym(M)
        scale = max(np.linalg.norm(M), 1.0)
        assert np.all(np.diff(w) <= 1e-12 * scale)
        assert np.linalg.norm((V * w) @ V.T - M) <= TOL_EIG * scale
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= TOL_EIG


def test_eig_shift_invariance(rng):
    M = random_sym(rng, 6)
    eps = 0.37
    w0 = eig_sym(M).values
    w1 = eig_sym(M + eps * np.eye(6)).values
    assert np.allclose(w1, w0 + eps, atol=TOL_EIG * max(1.0, np.linalg.norm(M)))


def test_sym_exactness(rng):
    A = rng.standard_normal((4, 4))
    S = sym(A)
    assert np.array_equal(S, S.T)


def test_invalid_inputs():
    with pytest.raises(InvalidMatrix):
        eig_sym(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(InvalidMatrix):
        eig_sym(np.ones((2, 3)))


def test_psd_order_gap_basic():
    assert psd_order_gap(np.zeros((2, 2)), np.eye(2)) == pytest.approx(1.0)
    assert psd_order_gap(np.eye(2), np.zeros((2, 2))) == pytest.approx(-1.0)


def test_psd_order_gap_rank_one_update(rng):
    A = random_sym(rng, 4)
    v = rng.standard_normal(4)
    assert psd_order_gap(A, A + np.outer(v, v)) >= -1e-12


def test_psd_order_gap_shape_error():
    with pytest.raises(ShapeError):
        psd_order_gap(np.eye(2), np.eye(3))
