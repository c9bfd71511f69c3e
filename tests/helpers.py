"""Shared random generators, the identity-frame patch, decomposition counting,
the Frobenius inner product and a reference rescaled differential for the
test suite."""

import math

import numpy as np

from bwbary import OperatorOnM, mclab, sqrt_psd, vectorize
from bwbary.hermitian import hermitian_part


def frobenius_inner(a, b) -> float:
    """Real Frobenius inner product <A, B> = Re tr(A* B)."""
    return float(np.real(np.sum(np.conjugate(a) * b)))


def rand_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.where(np.diagonal(r) < 0, -1.0, 1.0)


def rand_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (np.conjugate(diag) / np.abs(diag))


def rand_spd(rng, d, lo=0.5, hi=2.0, complex_mode=False):
    lam = rng.uniform(lo, hi, d)
    u = rand_unitary(rng, d) if complex_mode else rand_orthogonal(rng, d)
    a = (u * lam) @ np.conjugate(u.T)
    return (a + np.conjugate(a.T)) / 2


def rand_hermitian(rng, d, complex_mode=False):
    a = rng.standard_normal((d, d))
    if complex_mode:
        a = a + 1j * rng.standard_normal((d, d))
    return (a + np.conjugate(a.T)) / 2


def rand_psd_singular(rng, d, rank, lo=0.5, hi=2.0):
    """Random PSD matrix of the given rank."""
    lam = np.zeros(d)
    lam[:rank] = rng.uniform(lo, hi, rank)
    u = rand_orthogonal(rng, d)
    a = (u * lam) @ u.T
    return (a + a.T) / 2


def ill_conditioned_stack() -> np.ndarray:
    """Six d=3 samples U diag(logspace(0, -8, 3) Unif[0.5, 2]) U^T, U from QR,
    from default_rng(5), on which the fixed point loses strict positivity: an
    iterate's prep zeroes a root once cond(S_i) cond(Q) passes 1/PD_REL_TOL."""
    rng = np.random.default_rng(5)
    mats = []
    for _ in range(6):
        u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        mats.append((u * (np.logspace(0, -8, 3) * rng.uniform(0.5, 2.0, 3))) @ u.T)
    return hermitian_part(np.stack(mats))


def identity_frames(monkeypatch) -> None:
    """Make the simulation draw U = I as the frame.  No frame is drawn, so the
    eigenvalues come from the same random stream as with Haar frames."""
    monkeypatch.setattr(mclab, "_haar_stack",
                        lambda count, d, rng: np.broadcast_to(np.eye(d), (count, d, d)))


def count_decompositions(monkeypatch) -> list:
    """Patch numpy's eigh and eigvalsh to record the shape of every array they
    decompose; returns the list the shapes go to."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return shapes


def matrix_count(shapes) -> int:
    """The number of matrices in the recorded shapes."""
    return sum(math.prod(shape[:-2]) for shape in shapes)


def rescaled_operator(t, basis) -> np.ndarray:
    """<B_k, dt(B_l)> for the rescaled differential dt(zeta) = Q^{1/2} dT(Q^{1/2}
    zeta Q^{1/2}) Q^{1/2} of a transport map t from Q, built from t.apply."""
    r = sqrt_psd(t.source).array
    cols = [vectorize(basis, hermitian_part(r @ t.apply(r @ b @ r) @ r)) for b in basis.basis]
    return OperatorOnM(basis, np.stack(cols, axis=1)).matrix
