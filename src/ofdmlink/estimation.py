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
from scipy.interpolate import CubicSpline

from .framing import PreambleSet, SubcarrierMap
from .numerics import ConfigurationError, dft, idft, logical_to_bin

__all__ = [
    "EstimationError",
    "PreambleEstimate",
    "IqEstimate",
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

DEGENERATE_PAIR_TOL = 1e-9


class EstimationError(RuntimeError):
    """Estimation could not produce a usable result from the given frame."""


@dataclass(frozen=True)
class PreambleEstimate:
    """Raw per-used-bin products of the two long training symbols."""

    chi_a: np.ndarray  # (n_used, m_r)
    chi_b: np.ndarray  # (n_used, m_r)
    e: np.ndarray      # (n_used, m_r) per-bin effective-channel estimates


@dataclass(frozen=True)
class IqEstimate:
    """Per-branch IQ mismatch estimate ``g = eps e^{-j theta}``."""

    g: np.ndarray      # (m_r,) complex eps*e^{-j theta}, averaged over bin pairs

    @property
    def k1(self) -> np.ndarray:
        return (1.0 + self.g) / 2.0

    @property
    def k2(self) -> np.ndarray:
        return 1.0 - np.conj(self.k1)


@dataclass
class EstimatorState:
    """Receiver-side knowledge used by the tracker and detector.

    ``h_pre`` is the effective channel (physical channel fused with the
    preamble-time common phase) on every used bin; ``k2`` is derived from
    ``k1`` so the defining identity holds exactly.
    """

    h_pre: np.ndarray       # (n, m_r, m_t)
    k1: np.ndarray          # (m_r,) diagonal
    psi: np.ndarray         # (m_r, m_r) noise + ICI correlation

    @property
    def k2(self) -> np.ndarray:
        return 1.0 - np.conj(self.k1)

    @property
    def m_r(self) -> int:
        return self.h_pre.shape[1]

    @property
    def m_t(self) -> int:
        return self.h_pre.shape[2]


def estimate_noise_ici_corr(samples: np.ndarray) -> np.ndarray:
    """Sample correlation of null-bin observations: mean of ``x x^H``.

    ``samples`` is ``(n_samples, m_r)`` with one row per (symbol, null
    bin) observation.  Hermitian positive semidefinite by construction.
    """
    x = np.asarray(samples, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EstimationError("need at least one null-bin sample")
    return x.T @ x.conj() / x.shape[0]


def estimate_preamble(
    psi1: np.ndarray, psi2: np.ndarray, pre: PreambleSet
) -> PreambleEstimate:
    """Combine the two received long-symbol grids into per-bin channel estimates.

    ``psi1``/``psi2`` are the ``(n, m_r)`` demodulated grids of the first
    and second long training symbols.
    """
    n = psi1.shape[0]
    used = pre.used
    if not np.array_equal(used, -used[::-1]):
        raise ConfigurationError("used bins must be mirror-symmetric")
    b = logical_to_bin(used, n)
    p1 = psi1[b] / pre.lambda1[:, None]
    p2 = psi2[b] / pre.lambda2[:, None]
    chi_a = 0.5 * (p1 + p2)
    chi_b = 0.5 * (p1 - p2)
    e = chi_a + np.conj(chi_b[::-1])
    return PreambleEstimate(chi_a=chi_a, chi_b=chi_b, e=e)


def estimate_iq_params(
    chi_a: np.ndarray,
    e: np.ndarray,
    owner: np.ndarray,
    tol: float = DEGENERATE_PAIR_TOL,
) -> IqEstimate:
    """IQ mismatch from adjacent used-bin differences.

    For each pair of consecutive used bins owned by different antennas,
    ``2 (chi_a-diff / e-diff) - 1`` equals ``eps e^{-j theta}`` per
    branch; the complex values are averaged over all non-degenerate
    pairs.
    """
    alpha = e[:-1] - e[1:]
    beta = chi_a[:-1] - chi_a[1:]
    cross = owner[:-1] != owner[1:]
    ok = cross[:, None] & (np.abs(alpha) > tol)
    if not ok.any():
        raise EstimationError("all adjacent-bin pairs degenerate; cannot estimate IQ mismatch")
    ratio = np.where(ok, 2.0 * np.divide(beta, np.where(ok, alpha, 1.0)) - 1.0, 0.0)
    counts = ok.sum(axis=0)
    if np.any(counts == 0):
        raise EstimationError("a receive branch has no usable bin pair")
    g = ratio.sum(axis=0) / counts
    return IqEstimate(g=g)


def _mixing_det(k1: np.ndarray) -> np.ndarray:
    """``|K1|^2 - |K2|^2`` per branch; raises where the image cannot be separated."""
    det = np.abs(k1) ** 2 - np.abs(1.0 - np.conj(k1)) ** 2
    if np.any(np.abs(det) < 0.1):
        raise EstimationError("IQ mixing too close to singular to separate the image")
    return det


def _demix(chi_a: np.ndarray, chi_b: np.ndarray, k1: np.ndarray):
    """Invert the per-bin 2x2 mixing between the clean channel and the leakage.

    Per used bin k the observations obey

        chi_a(k)        = K1 u(k) + K2 m(k)
        conj(chi_b(-k)) = conj(K2) u(k) + conj(K1) m(k)

    with ``m(k) = w conj(u(-k))`` the common-phase-difference leakage, so
    both are recovered whenever ``|K1|^2 != |K2|^2``.
    """
    det = _mixing_det(k1)
    k2 = 1.0 - np.conj(k1)
    cbm = np.conj(chi_b[::-1])
    u = (np.conj(k1) * chi_a - k2 * cbm) / det
    m = (k1 * cbm - np.conj(k2) * chi_a) / det
    return u, m


def demix_channel(est: PreambleEstimate, k1: np.ndarray) -> np.ndarray:
    """De-mixed per-bin channel estimate given the mismatch coefficients."""
    return _demix(est.chi_a, est.chi_b, k1)[0]


def _pair_regression(
    chi_a: np.ndarray,
    e: np.ndarray,
    owner: np.ndarray,
    noise_var: np.ndarray | None,
) -> np.ndarray:
    """Least-squares fit of ``2 beta = (1 + g) alpha`` over cross-antenna pairs.

    Both differences carry the same per-bin disturbance, which biases the
    plain regression toward smaller ``g``; when the per-branch noise+ICI
    variance is supplied the expected noise moments are subtracted.
    """
    cross = owner[:-1] != owner[1:]
    alpha = (e[:-1] - e[1:])[cross]
    beta = (chi_a[:-1] - chi_a[1:])[cross]
    num = np.sum(np.conj(alpha) * beta, axis=0)
    den = np.sum(np.abs(alpha) ** 2, axis=0)
    if noise_var is not None:
        n_pairs = alpha.shape[0]
        # Var(e) = psi_qq per bin, Var(chi_a) = psi_qq/2, fully correlated parts
        num = num - n_pairs * noise_var
        den_c = den - 2.0 * n_pairs * noise_var
        den = np.maximum(den_c, 0.2 * den)
    return 2.0 * num / den - 1.0


def refine_iq_channel(
    est: PreambleEstimate,
    owner: np.ndarray,
    g0: np.ndarray,
    psi: np.ndarray | None = None,
    n_iters: int = 3,
) -> np.ndarray:
    """Refined ``(m_r,)`` mismatch ``g``: alternate image de-mixing and re-estimation.

    The plain adjacent-bin estimate is polluted by the common-phase
    difference between the two training symbols (it leaks a mirrored
    channel term into every bin).  Each iteration de-mixes the leakage
    with the current mismatch estimate, fits its per-branch ratio by
    least squares over the bins, subtracts it, and re-fits the mismatch
    on the cleaned differences (noise-moment corrected when ``psi`` is
    given).  Exact in the noiseless regime, where the leakage is zero.
    Raises :class:`EstimationError` when the result cannot de-mix the image.
    """
    g = np.asarray(g0, dtype=np.complex128).copy()
    noise_var = None if psi is None else np.maximum(np.real(np.diag(psi)), 0.0)
    for _ in range(n_iters):
        k1 = (1.0 + g) / 2.0
        k2 = 1.0 - np.conj(k1)
        u, m = _demix(est.chi_a, est.chi_b, k1)
        um = u[::-1]
        w = np.sum(m * um, axis=0) / np.sum(np.abs(um) ** 2, axis=0)
        ca = est.chi_a - k2 * w * np.conj(um)
        cb = est.chi_b - k1 * np.conj(w) * u
        e2 = ca + np.conj(cb[::-1])
        g = _pair_regression(ca, e2, owner, noise_var)
    _mixing_det((1.0 + g) / 2.0)  # every receiver mode de-mixes with the final g
    return g


def interpolate_channel(
    e: np.ndarray, pre: PreambleSet, smap: SubcarrierMap
) -> np.ndarray:
    """Complete the effective channel on all used bins by cubic splines.

    One spline per transmit antenna runs over the logical bin index, with
    every receive branch as a column of its values; trained bins pass
    through unchanged.  With fewer than four trained bins for an antenna
    the method falls back to linear interpolation.
    """
    n, m_r, m_t = smap.n, e.shape[1], pre.m_t
    used = pre.used
    h = np.zeros((n, m_r, m_t), dtype=np.complex128)
    ub = logical_to_bin(used, n)
    for p in range(m_t):
        sel = pre.owner == p
        x = used[sel]
        if x.size >= 4:
            h[ub, :, p] = CubicSpline(x, e[sel])(used)
            continue
        log.warning("antenna %d has only %d trained bins; spline falls back to linear", p, x.size)
        for q in range(m_r):
            y = e[sel, q]
            h[ub, q, p] = np.interp(used, x, y.real) + 1j * np.interp(used, x, y.imag)
    return h


def iterative_refine(
    e: np.ndarray,
    pre: PreambleSet,
    smap: SubcarrierMap,
    l_taps: int,
    n_iters: int = 50,
) -> np.ndarray:
    """Complete the channel by transform-domain tap truncation.

    Starting from a nearest-trained-bin fill, each iteration transforms
    the full-band estimate of every transmit antenna at once to the time
    domain, zeroes taps beyond ``l_taps``, transforms back, and re-imposes
    the measured values on the trained bins.  Deterministic; trained bins
    always carry the measured values on output.
    """
    if n_iters < 1:
        raise ConfigurationError("need at least one refinement iteration")
    n, m_t = smap.n, pre.m_t
    used = pre.used
    logical_all = np.arange(-n // 2, n // 2)
    # nearest trained bin of each antenna per logical index, ties toward the
    # lower knot (argmin keeps the first of equal distances); n exceeds every
    # real distance, so it masks the bins of the other antennas
    own = pre.owner == np.arange(m_t)[:, None]
    dist = np.abs(logical_all[:, None, None] - used)
    nearest = np.argmin(np.where(own, dist, n), axis=-1)  # (n, m_t) into used
    g = np.empty((n, e.shape[1], m_t), dtype=np.complex128)
    g[logical_to_bin(logical_all, n)] = np.swapaxes(e[nearest], 1, 2)
    ub = logical_to_bin(used, n)
    for _ in range(n_iters):
        t = idft(g)
        t[l_taps:] = 0.0
        g = dft(t)
        g[ub, :, pre.owner] = e
    return g
