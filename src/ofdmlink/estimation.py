"""Preamble-stage estimation of the effective channel, IQ parameters, and noise statistics.

The two long training symbols are combined per used bin into the pair

    chi_a(k) = (psi1(k)/lambda1(k) + psi2(k)/lambda2(k)) / 2
    chi_b(k) = (psi1(k)/lambda1(k) - psi2(k)/lambda2(k)) / 2

which, because the second symbol flips sign on positive frequencies and
the training values are conjugate-symmetric, isolate the direct and image
mixing products: chi_a = K1 h + rho and chi_b = K2 h^# - rho, with rho a
bin-independent term produced by the common-phase difference between the
two symbols.  Adding the conjugate-mirrored chi_b then cancels the IQ
coefficients exactly (K1 + conj(K2) = 1):

    e(k) = chi_a(k) + conj(chi_b(-k)) = h_eff(k) + rho - conj(rho)

leaving only a purely imaginary, bin-independent residual that the
per-symbol tracker absorbs.  Differences of e and chi_a across adjacent
used bins (owned by different antennas) recover ``eps e^{-j theta}``
per receive branch without any matrix inversion.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .framing import PreambleSet, SubcarrierMap
from .numerics import ConfigurationError, dft, logical_to_bin

__all__ = [
    "EstimationError",
    "PreambleEstimate",
    "EstimatorState",
    "estimate_noise_ici_corr",
    "estimate_preamble",
    "estimate_iq_params",
    "demix_channel",
    "refine_iq_channel",
    "interpolate_channel",
    "iterative_refine",
]

log = logging.getLogger("ofdmlink")

DEGENERATE_PAIR_TOL = 1e-9  # a smaller adjacent-bin difference of e gives no mismatch ratio
REFINE_IQ_ITERS = 3  # de-mix and re-fit passes of refine_iq_channel
ITERATIVE_REFINE_ITERS = 50  # tap-truncation passes of iterative_refine


class EstimationError(RuntimeError):
    """Estimation could not produce a usable result from the given frame."""


@dataclass(frozen=True)
class PreambleEstimate:
    """Raw per-used-bin products of the two long training symbols."""

    chi_a: np.ndarray  # (..., n_used, m_r)
    chi_b: np.ndarray  # (..., n_used, m_r)
    e: np.ndarray      # (..., n_used, m_r) per-bin effective-channel estimates
    ls: np.ndarray     # (..., n_used, m_r) least squares from the first long symbol alone


@dataclass
class EstimatorState:
    """Receiver-side knowledge used by the tracker and detector.

    ``h_pre`` is the effective channel (physical channel fused with the
    preamble-time common phase) on every used bin.  Leading axes, where
    present, are frames; a field without them is shared by every frame.
    """

    h_pre: np.ndarray       # (..., n, m_r, m_t)
    k1: np.ndarray          # (..., m_r) diagonal
    psi: np.ndarray         # (..., m_r, m_r) noise + ICI correlation

    @property
    def m_r(self) -> int:
        return self.h_pre.shape[-2]

    @property
    def m_t(self) -> int:
        return self.h_pre.shape[-1]


def estimate_noise_ici_corr(samples: np.ndarray) -> np.ndarray:
    """Sample correlation of null-bin observations: mean of ``x x^H``.

    ``samples`` is ``(..., n_samples, m_r)`` with one row per (symbol,
    null bin) observation and leading frame axes.  Hermitian positive
    semidefinite by construction.
    """
    x = np.ascontiguousarray(samples, dtype=np.complex128)
    if x.ndim < 2 or x.shape[-2] == 0:
        raise EstimationError("need at least one null-bin sample")
    return np.swapaxes(x, -1, -2) @ x.conj() / x.shape[-2]


def estimate_preamble(
    psi1: np.ndarray, psi2: np.ndarray, pre: PreambleSet
) -> PreambleEstimate:
    """Combine the two received long-symbol grids into per-bin channel estimates.

    ``psi1``/``psi2`` are the ``(..., n, m_r)`` demodulated grids of the
    first and second long training symbols, leading axes being frames.
    """
    n = psi1.shape[-2]
    used = pre.used
    if not np.array_equal(used, -used[::-1]):
        raise ConfigurationError("used bins must be mirror-symmetric")
    b = logical_to_bin(used, n)
    p1 = np.take(psi1, b, axis=-2) / pre.lambda1[:, None]
    p2 = np.take(psi2, b, axis=-2) / pre.lambda2[:, None]
    chi_a = 0.5 * (p1 + p2)
    chi_b = 0.5 * (p1 - p2)
    e = chi_a + np.conj(chi_b[..., ::-1, :])
    return PreambleEstimate(chi_a=chi_a, chi_b=chi_b, e=e, ls=p1)


def estimate_iq_params(
    chi_a: np.ndarray,
    e: np.ndarray,
    owner: np.ndarray,
) -> np.ndarray:
    """IQ mismatch ``g = eps e^{-j theta}``, ``(..., m_r)``, from adjacent used-bin differences.

    For each pair of consecutive used bins owned by different antennas,
    ``2 (chi_a-diff / e-diff) - 1`` equals ``g`` per branch; the complex
    values are averaged over all non-degenerate pairs, and
    ``K1 = (1 + g) / 2``.  A frame (leading axes) with a receive branch
    that has no usable pair gets a NaN estimate on every branch.
    """
    alpha = e[..., :-1, :] - e[..., 1:, :]
    beta = chi_a[..., :-1, :] - chi_a[..., 1:, :]
    cross = owner[:-1] != owner[1:]
    ok = cross[:, None] & (np.abs(alpha) > DEGENERATE_PAIR_TOL)
    ratio = np.where(ok, 2.0 * np.divide(beta, np.where(ok, alpha, 1.0)) - 1.0, 0.0)
    counts = ok.sum(axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = ratio.sum(axis=-2) / counts
    return np.where((counts == 0).any(axis=-1)[..., None], np.nan, g)


def _mixing_det(k1: np.ndarray):
    """``|K1|^2 - |K2|^2`` per branch, and whether each frame can separate the image.

    A frame (leading axes of ``k1``) separates it when every branch's
    determinant is at least 0.1 in magnitude; a non-finite one never does.
    """
    with np.errstate(invalid="ignore"):
        det = np.abs(k1) ** 2 - np.abs(1.0 - np.conj(k1)) ** 2
    return det, (np.abs(det) >= 0.1).all(axis=-1)


def _bin_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last (bin) axis, left to right; zero over no bins.

    Left to right is numpy's order for the middle axis of ``(..., bins,
    m_r)`` with ``m_r >= 2``, so the sums equal that layout's bit for bit.
    """
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1], dtype=x.dtype)
    return np.cumsum(x, axis=-1)[..., -1]


def _demix(chi_a: np.ndarray, cbm: np.ndarray, k1: np.ndarray):
    """Invert the per-bin 2x2 mixing between the clean channel and the leakage.

    Per used bin k the observations obey

        chi_a(k)        = K1 u(k) + K2 m(k)
        conj(chi_b(-k)) = conj(K2) u(k) + conj(K1) m(k)

    with ``m(k) = w conj(u(-k))`` the common-phase-difference leakage, so
    both are recovered whenever ``|K1|^2 != |K2|^2``.  ``chi_a`` and the
    mirrored conjugate ``cbm = conj(chi_b(-k))`` are ``(..., m_r,
    n_used)``, bins last.  Also returns which frames are separable; the
    others carry meaningless values.
    """
    det, separable = _mixing_det(k1)
    k1, det = k1[..., None], det[..., None]
    k2 = 1.0 - np.conj(k1)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (np.conj(k1) * chi_a - k2 * cbm) / det
        m = (k1 * cbm - np.conj(k2) * chi_a) / det
    return u, m, separable


def demix_channel(est: PreambleEstimate, k1: np.ndarray) -> np.ndarray:
    """De-mixed per-bin channel estimate given the mismatch coefficients.

    NaN for every frame whose ``k1`` cannot separate the image.
    """
    chi_a = np.swapaxes(est.chi_a, -1, -2)
    cbm = np.conj(np.swapaxes(est.chi_b, -1, -2)[..., ::-1])
    u, _, separable = _demix(chi_a, cbm, k1)
    return np.swapaxes(np.where(separable[..., None, None], u, np.nan), -1, -2)


def _pair_regression(
    chi_a: np.ndarray,
    e: np.ndarray,
    cross: np.ndarray,
    noise_var: np.ndarray,
) -> np.ndarray:
    """Least-squares fit of ``2 beta = (1 + g) alpha`` over cross-antenna pairs.

    ``chi_a`` and ``e`` are ``(..., m_r, n_used)``, bins last, and
    ``cross`` indexes the first bin of each pair of adjacent bins owned by
    different antennas.  Both differences carry the same per-bin
    disturbance, which biases the plain regression toward smaller ``g``,
    so the expected noise moments of the per-branch noise+ICI variance are
    subtracted (none at zero variance, where the fit is the plain one bit
    for bit).  Without cross pairs the fit is NaN.
    """
    alpha = e[..., cross] - e[..., cross + 1]
    beta = chi_a[..., cross] - chi_a[..., cross + 1]
    num = _bin_sum(np.conj(alpha) * beta)
    den = _bin_sum(np.abs(alpha) ** 2)
    n_pairs = cross.size
    # Var(e) = psi_qq per bin, Var(chi_a) = psi_qq/2, fully correlated parts
    num = num - n_pairs * noise_var
    den = np.maximum(den - 2.0 * n_pairs * noise_var, 0.2 * den)
    return 2.0 * num / den - 1.0


def _without_leakage(chi_a: np.ndarray, chi_b: np.ndarray, cbm: np.ndarray, g: np.ndarray):
    """``chi_a`` and ``e`` cleaned of the leakage ``w conj(u(-k))`` that de-mixing with ``g`` finds.

    ``w`` is fitted per branch by least squares over the bins; arrays are
    bins last, as in :func:`_demix`.  Also returns which frames are
    separable.  A function of its own so that the de-mixed parts are freed
    before the pair fit.
    """
    k1 = (1.0 + g) / 2.0
    k2 = 1.0 - np.conj(k1)
    u, m, separable = _demix(chi_a, cbm, k1)
    um = u[..., ::-1]
    w = _bin_sum(m * um) / _bin_sum(np.abs(um) ** 2)
    ca = chi_a - (k2 * w)[..., None] * np.conj(um)
    cb = chi_b - (k1 * np.conj(w))[..., None] * u
    return ca, ca + np.conj(cb[..., ::-1]), separable


def refine_iq_channel(
    est: PreambleEstimate,
    owner: np.ndarray,
    g0: np.ndarray,
    psi: np.ndarray,
) -> np.ndarray:
    """Refined ``(..., m_r)`` mismatch ``g``: alternate image de-mixing and re-estimation.

    The plain adjacent-bin estimate is polluted by the common-phase
    difference between the two training symbols (it leaks a mirrored
    channel term into every bin).  Each of the :data:`REFINE_IQ_ITERS`
    iterations de-mixes the leakage with the current mismatch estimate,
    fits its per-branch ratio by least squares over the bins, subtracts
    it, and re-fits the mismatch on the cleaned differences, noise-moment
    corrected with the ``(..., m_r, m_r)`` noise+ICI correlation ``psi``.
    Exact in the noiseless regime, where the leakage is zero.  Frames
    (leading axes) are independent; a frame whose estimate cannot de-mix
    the image, in any iteration or at the end, gets NaN on every branch.

    The products are laid out bins last, so each sum over the bins runs
    along the last axis; the mirrored conjugate of ``chi_b`` and the
    cross-antenna pairs are formed once for all iterations.
    """
    g = np.asarray(g0, dtype=np.complex128)
    noise_var = np.maximum(np.real(np.diagonal(psi, axis1=-2, axis2=-1)), 0.0)
    failed = np.zeros(g.shape[:-1], dtype=bool)
    chi_a = np.ascontiguousarray(np.swapaxes(est.chi_a, -1, -2))
    chi_b = np.swapaxes(est.chi_b, -1, -2)
    cbm = np.conj(chi_b[..., ::-1], order="C")
    cross = np.flatnonzero(owner[:-1] != owner[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(REFINE_IQ_ITERS):
            ca, e2, separable = _without_leakage(chi_a, chi_b, cbm, g)
            failed |= ~separable
            g = _pair_regression(ca, e2, cross, noise_var)
    failed |= ~_mixing_det((1.0 + g) / 2.0)[1]  # every receiver mode de-mixes with the final g
    return np.where(failed[..., None], np.nan, g)


def _gtsv(d: list, du: list, dl: list, r: np.ndarray) -> None:
    """Solve the tridiagonal system ``(dl, d, du)`` on the rows of ``r`` in place, as ``?gtsv``.

    One pass eliminates the system and sweeps ``r``, in the order and with
    the pivoting of ``?gtsv``: no row swap when ``|d_k| >= |dl_k|``,
    otherwise a swap (``?gtsv`` also skips a step whose ``dl_k`` is zero;
    a spline's ``dl_k`` are positive knot spacings).  Overwrites the lists.
    """
    n = len(d)
    for k in range(n - 1):
        if abs(d[k]) >= abs(dl[k]):
            mult = dl[k] / d[k]
            d[k + 1] = d[k + 1] - mult * du[k]
            if k < n - 2:
                dl[k] = 0.0
            r[k + 1] -= mult * r[k]
        else:
            mult = d[k] / dl[k]
            d[k] = dl[k]
            temp = d[k + 1]
            d[k + 1] = du[k] - mult * temp
            if k < n - 2:
                dl[k] = du[k + 1]
                du[k + 1] = -mult * dl[k]
            du[k] = temp
            top = r[k].copy()
            r[k] = r[k + 1]
            r[k + 1] = top - mult * r[k]
    r[-1] /= d[-1]
    r[-2] = (r[-2] - du[-1] * r[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        if dl[i]:
            r[i] = (r[i] - du[i] * r[i + 1] - dl[i] * r[i + 2]) / d[i]
        else:
            r[i] = (r[i] - du[i] * r[i + 1]) / d[i]


def _not_a_knot(knots: np.ndarray, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``CubicSpline(knots, values)(points)`` along axis 0, bit for bit.

    ``values`` is complex ``(knots, ...)`` with at least one column axis
    (a 1-D ``y`` sends ``CubicSpline``'s end rows through numpy scalar
    arithmetic instead); the result is ``(points, ...)``.  The banded
    matrix is the one ``CubicSpline.__init__`` builds, solved as
    ``solve_banded((1, 1), ...)`` runs ``?gtsv``, on real and imaginary
    parts as separate real columns, because ``zgtsv`` divides by its real
    pivots where numpy's complex-by-real division multiplies by the
    reciprocal.  Non-finite values raise ``ValueError``, as
    ``CubicSpline`` does.
    """
    if not np.isfinite(values).all():
        raise ValueError("spline values must be finite")
    x = np.asarray(knots, dtype=np.float64)
    n = x.size
    dxr = np.diff(x)[:, None]
    h = dxr[:, 0].tolist()
    d0, dm = float(x[2] - x[0]), float(x[-1] - x[-3])
    d = [h[1], *[2 * (a + b) for a, b in zip(h, h[1:])], h[-2]]
    y = np.ascontiguousarray(values, dtype=np.complex128).reshape(n, -1)
    slope = np.diff(y, axis=0) / dxr
    s = np.empty_like(y)
    s[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    s[0] = ((h[0] + 2 * d0) * h[1] * slope[0] + h[0] * h[0] * slope[1]) / d0
    s[-1] = (h[-1] * h[-1] * slope[-2] + (2 * dm + h[-1]) * h[-2] * slope[-1]) / dm
    _gtsv(d, [d0, *h[:-1]], [*h[1:], dm], s.view(np.float64))
    # CubicHermiteSpline's coefficients, evaluated as PPoly does on
    # half-open pieces, the last one closed, the end pieces extrapolating
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = (t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1])
    xi = np.asarray(points, dtype=np.float64)
    i = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, n - 2)
    z = (xi - x[i])[:, None]
    z2 = z * z
    out = c[3][i] + c[2][i] * z + c[1][i] * z2 + c[0][i] * (z2 * z)
    return out.reshape(len(points), *values.shape[1:])


def interpolate_channel(
    e: np.ndarray, pre: PreambleSet, smap: SubcarrierMap
) -> np.ndarray:
    """Complete the effective channel on all used bins by not-a-knot cubic splines.

    The splines equal scipy's ``CubicSpline`` bit for bit (see
    ``_not_a_knot``); a non-finite estimate raises ``ValueError``.
    ``e`` is ``(..., n_used, m_r)`` with leading frame axes.  One spline
    per transmit antenna runs over the logical bin index, with every frame
    and receive branch as a column of its values; trained bins pass
    through unchanged.  With fewer than four trained bins for an antenna
    the method falls back to linear interpolation.
    """
    n, m_r, m_t = smap.n, e.shape[-1], pre.m_t
    used = pre.used
    h = np.zeros((*e.shape[:-2], n, m_r, m_t), dtype=np.complex128)
    ub = logical_to_bin(used, n)
    for p in range(m_t):
        sel = pre.owner == p
        x = used[sel]
        cols = np.moveaxis(np.compress(sel, e, axis=-2), -2, 0)  # (knots, ..., m_r), the layout of h[..., ub, :, p]
        if x.size >= 4:
            h[..., ub, :, p] = _not_a_knot(x, cols, used)
            continue
        log.warning("antenna %d has only %d trained bins; spline falls back to linear", p, x.size)
        flat = cols.reshape(x.size, -1)
        lin = [np.interp(used, x, y.real) + 1j * np.interp(used, x, y.imag) for y in flat.T]
        h[..., ub, :, p] = np.stack(lin, axis=-1).reshape(used.size, *cols.shape[1:])
    return h


def _nearest_knots(pre: PreambleSet, logical: np.ndarray) -> np.ndarray:
    """Index into ``pre.used`` of each antenna's nearest trained bin, ``(len(logical), m_t)``.

    Ties go to the lower knot: a point exactly between two knots is not
    above their midpoint.  Memory is linear in the number of points.
    """
    nearest = np.empty((len(logical), pre.m_t), dtype=np.intp)
    for p in range(pre.m_t):
        knots = np.flatnonzero(pre.owner == p)
        at = pre.used[knots]
        nearest[:, p] = knots[np.searchsorted((at[:-1] + at[1:]) / 2.0, logical)]
    return nearest


def iterative_refine(
    e: np.ndarray,
    pre: PreambleSet,
    smap: SubcarrierMap,
    l_taps: int,
) -> np.ndarray:
    """Complete the channel by transform-domain tap truncation.

    Starting from a nearest-trained-bin fill, each of the
    :data:`ITERATIVE_REFINE_ITERS` passes (at least one) transforms the
    full-band estimate of every frame (leading axes of ``e``) and transmit
    antenna to the time domain, zeroes taps beyond ``l_taps``, transforms
    back, and re-imposes the measured values on the trained bins.
    Deterministic; trained bins always carry the measured values on
    output.

    The passes are linear and keep only ``L = l_taps`` taps, so they run
    on the taps alone.  With ``F_L`` the ``(n, L)`` transform of the taps
    and ``K_p`` antenna ``p``'s knots, each pass maps the taps ``t`` to
    ``T_p t + C_p v``, ``T_p = I - F_L[K_p]^H F_L[K_p] / n`` and ``C_p =
    F_L[K_p]^H / n``, from the first pass's ``F_L^H N_p v / n`` (``N_p``
    the nearest-knot fill).  The ``(L, k_p)`` matrix ``B_p`` of the last
    pass's taps is built once per call; the completion is then one product
    and one transform of the zero-padded taps per antenna, with the knots
    put back.  It sums the same linear map as the passes in another order,
    so it agrees with them to rounding, not bit for bit.
    """
    n, m_r = smap.n, e.shape[-1]
    logical_all = np.arange(-n // 2, n // 2)
    nearest = _nearest_knots(pre, logical_all)
    # F_L, its rows in logical bin order; the exponent reduced mod n first
    f_l = np.exp(-2j * np.pi / n * (np.outer(logical_to_bin(logical_all, n), np.arange(l_taps)) % n))
    h = np.empty((*e.shape[:-2], n, m_r, pre.m_t), dtype=np.complex128)
    taps = np.zeros((*e.shape[:-2], n, m_r), dtype=np.complex128)
    for p in range(pre.m_t):
        sel = pre.owner == p
        f_k = f_l[pre.used[sel] + n // 2]  # (k_p, L): F_L[K_p]
        # F_L^H N_p / n: the conjugate rows summed over each knot's run of
        # nearest bins (runs are contiguous and ordered, none empty)
        starts = np.flatnonzero(np.diff(nearest[:, p], prepend=-1))
        b = np.add.reduceat(np.conj(f_l), starts, axis=0).T / n
        c = np.conj(f_k).T / n
        t_p = np.eye(l_taps) - c @ f_k
        for _ in range(ITERATIVE_REFINE_ITERS - 1):
            b = t_p @ b + c
        v = np.compress(sel, e, axis=-2)  # (..., k_p, m_r)
        taps[..., :l_taps, :] = b @ v
        g = dft(taps, axis=-2)
        g[..., logical_to_bin(pre.used[sel], n), :] = v
        h[..., p] = g
    return h
