import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from psdalloc.lowner import RESOLVENT_ATOMS, AtomicMeasure, SmoothedObjective, grad_hs
from psdalloc.objectives import (
    TOL_EIG,
    InvalidMatrix,
    NotPSD,
    make_objective,
    psd_eigs,
    sym,
)
from reference import grad_hs_lift

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def random_psd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return A @ A.T / n


def test_eig_identity():
    w, V = psd_eigs(np.eye(3))
    assert np.allclose(w, 1.0)
    assert np.allclose(V @ V.T, np.eye(3), atol=TOL_EIG)


def test_eig_diagonal():
    w, V = psd_eigs(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(V), [[0.0, 1.0], [1.0, 0.0]], atol=TOL_EIG)


@given(a=finite, b=finite, c=finite)
def test_eig_2x2_quadratic_formula(a, b, c):
    # independent closed-form oracle: roots of the characteristic polynomial;
    # the diagonal shift makes the matrix diagonally dominant, hence PSD
    shift = abs(b) + max(-a, -c, 0.0)
    a, c = a + shift, c + shift
    M = np.array([[a, b], [b, c]])
    tr, det = a + c, a * c - b * b
    disc = np.sqrt(max((a - c) ** 2 / 4.0 + b * b, 0.0))
    expected = np.array([tr / 2.0 - disc, tr / 2.0 + disc])
    w, V = psd_eigs(M)
    scale = max(1.0, np.linalg.norm(M))
    assert np.all(np.abs(w - expected) <= 1e-10 * scale)
    assert abs(w[0] * w[1] - det) <= 1e-9 * max(1.0, abs(det), scale**2)


def test_eig_reconstruction_and_orthonormality(rng):
    for n in (1, 2, 5, 12):
        M = random_psd(rng, n, scale=3.0)
        w, V = psd_eigs(M)
        scale = max(np.linalg.norm(M), 1.0)
        assert np.all(np.diff(w) >= -1e-12 * scale)
        assert np.linalg.norm((V * w) @ V.T - M) <= TOL_EIG * scale
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= TOL_EIG


def test_eig_shift_invariance(rng):
    M = random_psd(rng, 6)
    eps = 0.37
    w0 = psd_eigs(M)[0]
    w1 = psd_eigs(M + eps * np.eye(6))[0]
    assert np.allclose(w1, w0 + eps, atol=TOL_EIG * max(1.0, np.linalg.norm(M)))


def test_sym_exactness(rng):
    A = rng.standard_normal((4, 4))
    S = sym(A)
    assert np.array_equal(S, S.T)


def test_invalid_inputs():
    with pytest.raises(InvalidMatrix):
        psd_eigs(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(InvalidMatrix):
        psd_eigs(np.ones((2, 3)))


def test_not_psd_is_rejected(rng):
    with pytest.raises(NotPSD):
        psd_eigs(np.diag([1.0, -1e-3]))
    # rounding-level negatives pass: an exactly PSD matrix built from a
    # rank-deficient factor has eigenvalues of order -1e-16 * ||M||
    F = rng.standard_normal((6, 2))
    w, _ = psd_eigs(F @ F.T)
    assert w[0] >= -TOL_EIG * np.linalg.norm(F @ F.T)


def test_stacks_give_the_per_matrix_results(rng):
    # the audit decomposes every U_k of a block in one call
    stack = np.stack([random_psd(rng, 4, scale=s) for s in (0.5, 1.0, 3.0)]
                     + [np.zeros((4, 4))]).reshape(2, 2, 4, 4)
    K = rng.standard_normal((4, 4))
    stack[0, 1] += K - K.T      # not symmetric; sym drops the skew part
    sm = SmoothedObjective(AtomicMeasure(np.array([0.0, 0.5]), np.array([0.5, 0.25])),
                           make_objective("dopt"))
    S, (w, V), G = sym(stack), psd_eigs(stack), grad_hs(sm, stack)
    assert S.shape == V.shape == G.shape == stack.shape and w.shape == (2, 2, 4)
    for i in np.ndindex(2, 2):
        assert np.array_equal(S[i], sym(stack[i]))
        wi, Vi = psd_eigs(stack[i])
        assert np.allclose(w[i], wi, rtol=0.0, atol=TOL_EIG * max(1.0, np.abs(wi).max()))
        assert np.allclose((V[i] * w[i]) @ V[i].T, S[i], rtol=0.0, atol=TOL_EIG * 10.0)
        assert np.allclose(G[i], grad_hs(sm, stack[i]), rtol=1e-12, atol=1e-14)
        # the audit's Y gaps and prices read both triangles of each gradient
        assert np.array_equal(G[i], G[i].T)
        assert np.array_equal(grad_hs(sm, stack[i]), grad_hs(sm, stack[i]).T)


def test_one_non_psd_matrix_in_a_stack_raises(rng):
    stack = np.stack([random_psd(rng, 3), np.diag([1.0, -1e-3, 2.0]), np.zeros((3, 3))])
    with pytest.raises(NotPSD, match="-0.001 below"):
        psd_eigs(stack)
    psd_eigs(stack[[0, 2]])     # each of the others passes on its own
    with pytest.raises(InvalidMatrix):
        sym(np.ones((2, 3, 4)))


def _dopt_smoothed(nodes, weights):
    """The measure scaled to y(0) = h'(0) = 1, paired with dopt."""
    nodes, weights = np.array(nodes), np.array(weights, dtype=float)
    weights /= np.sum(weights / (1.0 - nodes))
    return SmoothedObjective(AtomicMeasure(nodes, weights), make_objective("dopt"))


@pytest.mark.parametrize("n", [1, 5, 20, 50])
@pytest.mark.parametrize("nodes,weights", [
    ([0.5], [1.0]),
    ([0.0], [1.0]),
    ([0.0, 0.975], [1.0, 1.0]),
    ([0.1, 0.3, 0.6, 0.9], [0.0, 1.0, 0.0, 2.0]),
    ([0.2, 0.5, 0.8], [1.0, 1.0, 1.0]),
], ids=["one-atom", "node-0", "node-0-and-0.975", "two-live-of-four", "three-live"])
def test_grad_hs_sums_resolvents_up_to_resolvent_atoms_live(nodes, weights, n, rng,
                                                            monkeypatch):
    # both paths give the spectral lift V y(w) V^T to rounding, at every
    # matrix of a stack; only a measure of more live atoms than
    # RESOLVENT_ATOMS decomposes M.  Rounding moves w by about eps ||M|| and
    # y(w) by that times max |y'|, and the columns of V are orthonormal to
    # about n eps, which leaves n eps y(0) even where y is constant (node 0)
    sm = _dopt_smoothed(nodes, weights)
    lam, mu = sm.measure.nodes, sm.measure.weights
    resolvents = np.count_nonzero(mu) <= RESOLVENT_ATOMS
    assert resolvents == (len(nodes) != 3)
    mats = [np.zeros((n, n))]
    for k in (1, max(1, n // 2)):           # rank one and rank about n/2
        F = rng.standard_normal((n, k))
        mats.append(F @ F.T)
    mats += [random_psd(rng, n, scale) for scale in (0.1, 1.0, 30.0)]
    stack = np.stack(mats).reshape(2, 3, n, n)
    eighs, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: eighs.append(M) or eigh(M))
    G = grad_hs(sm, stack)
    assert bool(eighs) != resolvents
    ref = grad_hs_lift(sm, stack)
    y0, dy0 = np.sum(mu / (1.0 - lam)), np.sum(mu * lam / (1.0 - lam) ** 2)   # max y, max |y'|
    for i in np.ndindex(2, 3):
        tol = 4.0 * n * np.finfo(float).eps * (np.linalg.norm(stack[i]) * dy0 + y0)
        assert np.max(np.abs(G[i] - ref[i])) <= tol
        assert np.array_equal(G[i], G[i].T)
        assert np.array_equal(G[i], grad_hs(sm, stack[i]))
    # within psd_eigs's tolerance passes; below it NotPSD carries psd_eigs's message
    d = np.linspace(1.0, 2.0, n)
    if n > 1:       # a 1 x 1 matrix is its own norm
        d[0] = -0.5 * TOL_EIG * np.linalg.norm(d)
        assert np.array_equal(grad_hs(sm, np.diag(d)), grad_hs(sm, np.diag(d)).T)
    d[0] = -1e-3
    with pytest.raises(NotPSD, match="-0.001 below"):
        grad_hs(sm, np.stack([stack[0, 1], np.diag(d), np.zeros((n, n))]))
