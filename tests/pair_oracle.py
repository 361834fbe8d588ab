"""The mirror-pair mixing matrices ``W`` and their LAPACK solve: the oracle of the detection tests.

Stacking a pair's received vector with its mirror's conjugate gives
``x_stack = W s_stack``, where ``W`` has the 2x2 block structure of the IQ
mixing applied to the tracked channel.  The package never forms ``W``: it
sums each system's normal equations ``W^H W`` and ``W^H x`` from per-branch
outer products and solves them with its own kernel, and the tests check
that against these matrices solved by BLAS and LAPACK.
"""

import numpy as np

from conftest import eigvalsh_verdicts


def mixing_matrices(upsilon, h_k, h_mk, k1) -> np.ndarray:
    """Stacked mirror-pair mixing matrices ``W``, ``(..., pairs, 2m_r, 2m_t)``.

    ``upsilon`` holds the ``(..., m_r)`` phase updates, one per symbol,
    ``h_k`` the ``(..., pairs, m_r, m_t)`` channel on the pairs' positive
    bins, ``h_mk`` the conjugated channel on their mirrors and ``k1`` the
    ``(..., m_r)`` mismatch; their leading axes broadcast.
    """
    h_k = upsilon[..., None, :, None] * h_k
    h_mk = np.conj(upsilon)[..., None, :, None] * h_mk
    k1 = k1[..., None, :, None]
    k2 = 1.0 - np.conj(k1)
    top = np.concatenate([k1 * h_k, k2 * h_mk], axis=-1)
    bot = np.concatenate([np.conj(k2) * h_k, np.conj(k1) * h_mk], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def ridge_solve(w, x_stack, ridge):
    """Guarded ridge least squares ``(W^H W + rho I) s = W^H x`` by BLAS and LAPACK.

    ``w`` is ``(..., rows, cols)``, ``x_stack`` holds ``c`` right-hand sides
    per system, ``(..., c, rows)``, and ``ridge``, each system's ``rho >= 0``,
    broadcasts to ``(...)``.  Returns the ``(..., c, cols)`` solutions, zero
    where the eigenvalue guard rejects the system, and the verdicts.
    """
    wh = w.conj().swapaxes(-1, -2)
    gram = wh @ w
    diag = np.arange(gram.shape[-1])
    gram[..., diag, diag] += np.asarray(ridge)[..., None]
    rhs = (wh[..., None, :, :] @ x_stack[..., None])[..., 0]
    good = eigvalsh_verdicts(gram)
    s_stack = np.zeros(rhs.shape, dtype=np.complex128)
    if good.any():
        cols = np.linalg.solve(gram[good], rhs[good].swapaxes(-1, -2))
        s_stack[good] = cols.swapaxes(-1, -2)
    return s_stack, good
