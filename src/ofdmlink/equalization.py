"""Whole-frame common-phase tracking and joint mirror-pair data detection.

Tracking: the common phase of each receive branch drifts from symbol to
symbol, so every data symbol updates a per-branch complex factor (the
ratio of the current common phase to the preamble-time one) from the
pilot bins.  Writing that factor as ``a + jb`` turns the pilot
observation stacked with its mirror conjugate into a linear model with a
2x2 complex matrix per pilot; the normal equations are regularized by the
measured noise-plus-interference power and the per-pilot solutions are
averaged.  The model matrices depend only on the preamble-stage state, so
they are built once per frame and handed to the guarded solver
:func:`_solve_pairs`, every symbol one right-hand-side column of its
(frame, branch, pilot) system.  A rejected update falls back to the last
accepted one of its branch (1 before any), which is a forward fill along
the symbols.

Detection: each pair of mirror bins ``{k, -k}`` is detected jointly.
Stacking the received vector with its mirror conjugate gives
``x_stack = W(k) s_stack`` where ``W`` has the 2x2 block structure of the
IQ mixing applied to the tracked channel, solved by ZF or MMSE.  A
system is one ``W`` per pair with its Gram matrix, guard verdict and
solve.  When the phase updates vary from symbol to symbol, each (frame,
symbol) has its own system; when a frame applies one update row to all of
its symbols (no phase compensation), the frame has one system per pair
and every data symbol is one right-hand-side column of it.  Where the
mismatch is ``k1 = 1`` on every branch (``k2 = 0``) and the regularizer
does not couple the two bins, the pair system is block-diagonal and each
data bin is detected on its own as an ``m_t``-system; each pair keeps the
guard verdict of its block-diagonal system, so both of its bins are
erased together.

Detection's systems are small and many, so LAPACK's cost is mostly per
matrix: about 0.35 us for a 2x2 system, 0.65 us for a 4x4 and 1.6 us for
an 8x8 (numpy 2.4, one BLAS thread, 2-core Xeon).  Systems up to
:data:`LDL_MAX` are formed and solved by array operations over the whole
stack instead (:func:`_normal_equations`, :func:`_ldl_solve`), whose cost
is per operation and so falls with the stack's size: 0.47 us per 4x4
system in a stack of 192, 0.20 us in one of 768, 0.02 us per 2x2 system
in one of 3072.  Larger systems keep BLAS and LAPACK, and
:data:`DETECT_ENTRIES` sizes the stacks.  Tracking keeps LAPACK too: its
systems are few.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import EstimatorState
from .framing import N_TRAIN, SubcarrierMap, qam16_demap
from .numerics import ConfigurationError, logical_to_bin, well_conditioned

__all__ = [
    "EqualizerOptions",
    "FrameDecisions",
    "mmse_r_matrix",
    "equalize_frame",
]

UPSILON_CEILING = 4.0
# Matrix entries in one detection stack (at least one system): each unit
# (pair or bin) of a system holds its mixing matrix W and its right-hand
# sides.  Counted in entries, not symbols, because the small systems' cost
# is per operation over the stack: a 2x2 link's per-symbol pair systems
# get 28 symbols per stack and its bin systems 48.  The 4x4 pair systems
# keep their ceiling of 8 symbols of 24 pairs of an 8x8 W and one column;
# stacking all 47 of a 4x4 frame's symbols raised the peak memory of a
# 2x2 + 4x4 all-mode campaign by about 5 MB (5%) without a measurable
# gain in speed.  A frame with every data symbol as a column of its
# systems is a stack of its own at 4x4.
DETECT_ENTRIES = 8 * 24 * (64 + 8)
# Largest system formed and solved stack-last.  At 8x8, BLAS forms a
# stack of 192 systems' Gram matrices in about half the time, and the
# kernel solves them only about 1.1x faster than LAPACK.
LDL_MAX = 4


@dataclass(frozen=True)
class EqualizerOptions:
    detector: str          # "zf" | "mmse"
    tracking_variant: str  # "re-derived" | "as-printed"
    mmse_r: str            # "sigma" | "kron"

    def __post_init__(self):
        if self.detector not in ("zf", "mmse"):
            raise ConfigurationError(f"unknown detector {self.detector!r}")
        if self.tracking_variant not in ("re-derived", "as-printed"):
            raise ConfigurationError(f"unknown tracking variant {self.tracking_variant!r}")
        if self.mmse_r not in ("sigma", "kron"):
            raise ConfigurationError(f"unknown MMSE regularization {self.mmse_r!r}")


def _pilot_tables(smap: SubcarrierMap) -> tuple[np.ndarray, np.ndarray]:
    """Storage bins of the pilot set (ascending logical) and the permutation mapping pilot l to -l."""
    pilots = smap.pilot_bins
    return logical_to_bin(pilots, smap.n), np.searchsorted(pilots, -pilots)


def _pilot_responses(state: EstimatorState, pilots: np.ndarray, smap: SubcarrierMap):
    """Predicted pilot responses ``y`` and mirror terms ``ym``, both (..., r, m_r)."""
    p_bins, p_mirror = _pilot_tables(smap)
    h = np.take(state.h_pre, p_bins, axis=-3)
    y = np.einsum("...lqp,pl->...lq", h, pilots)
    y_mk = np.einsum("...lqp,pl->...lq", np.take(h, p_mirror, axis=-3), pilots[:, p_mirror])
    return y, np.conj(y_mk)


def _tracking_matrices(y: np.ndarray, ym: np.ndarray, k1: np.ndarray, variant: str) -> np.ndarray:
    """Stacked (..., m_r, r, 2, 2) linear models mapping [Re, Im] of the update to z."""
    c = np.empty((*y.shape[:-2], y.shape[-1], y.shape[-2], 2, 2), dtype=np.complex128)
    yt, ymt = np.swapaxes(y, -1, -2), np.swapaxes(ym, -1, -2)  # (..., m_r, r)
    k1 = k1[..., None]
    k2 = 1.0 - np.conj(k1)
    if variant == "re-derived":
        # x(l)  = k1 y Ups + k2 ym conj(Ups); x#(l) = conj(k2) y Ups + conj(k1) ym conj(Ups)
        c[..., 0, 0] = k1 * yt + k2 * ymt
        c[..., 0, 1] = 1j * (k1 * yt - k2 * ymt)
        c[..., 1, 0] = np.conj(k1) * ymt + np.conj(k2) * yt
        c[..., 1, 1] = 1j * (np.conj(k2) * yt - np.conj(k1) * ymt)
    else:
        # Literal published construction: C = y X1 + y# X2.  Expanding the
        # stacked pilot model shows the second column needs the factor j
        # and the image coefficient; kept for comparison, known not to
        # recover the update even noiselessly.
        c[..., 0, 0] = k1 * (yt + ymt)
        c[..., 0, 1] = k1 * (yt - ymt)
        c[..., 1, 0] = np.conj(k2) * (yt + ymt)
        c[..., 1, 1] = np.conj(k2) * (yt - ymt)
    return c


def _track(
    data: np.ndarray, state: EstimatorState, pilots: np.ndarray, smap: SubcarrierMap, variant: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol, per-branch common-phase updates of a frame or a stack of frames.

    ``data`` is the ``(..., symbols, n, m_r)`` stack of data symbols, its
    leading axes frames that broadcast with those of ``state``.  Solves
    the regularized pilot model of every symbol and branch, averages over
    the pilot bins, and replaces an update whose branch has a pilot system
    the condition guard rejects, or whose value is not finite or exceeds
    ``UPSILON_CEILING``, by the last accepted update of its branch in the same
    frame.  Returns the ``(..., symbols, m_r)`` updates and the
    ``(..., symbols)`` flags of symbols with any rejected branch.
    """
    n_syms = data.shape[-3]
    y, ym = _pilot_responses(state, pilots, smap)
    c = _tracking_matrices(y, ym, state.k1, variant)  # (..., m_r, r, 2, 2)
    lead = np.broadcast_shapes(data.shape[:-3], c.shape[:-4])
    c = np.broadcast_to(c, (*lead, *c.shape[-4:]))
    lam = np.maximum(np.diagonal(state.psi, axis1=-2, axis2=-1).real, 0.0)[..., None]

    p_bins, p_mirror = _pilot_tables(smap)
    pb = np.take(data, p_bins, axis=-2)
    z = np.stack([pb, np.conj(np.take(pb, p_mirror, axis=-2))], axis=-2)  # (..., S, r, 2, m_r)
    z = np.moveaxis(z, -1, -4).swapaxes(-3, -2)                  # (..., m_r, r, S, 2)
    # one system per (frame, branch, pilot), solved for all the symbols
    phi, ok = _solve_pairs(c, z, lam[..., None, None] * np.eye(2, dtype=np.complex128), lam)
    mean = phi.mean(axis=-3)                                      # (..., m_r, S, 2)
    est = np.where(ok.all(axis=-1)[..., None], mean[..., 0].real + 1j * mean[..., 1].real, np.nan)
    est = np.swapaxes(est, -1, -2)                                # (..., S, m_r)
    accepted = np.isfinite(est) & (np.abs(est) <= UPSILON_CEILING)

    last = np.where(accepted, np.arange(n_syms)[:, None], -1)
    np.maximum.accumulate(last, axis=-2, out=last)
    filled = np.take_along_axis(est, np.maximum(last, 0), axis=-2)
    upsilon = np.where(last >= 0, filled, 1.0 + 0j)
    return upsilon, ~accepted.all(axis=-1)


def mmse_r_matrix(state: EstimatorState, kind: str) -> np.ndarray:
    """Regularization for the MMSE detector, one per frame (leading axes of ``psi``).

    ``sigma`` uses the average per-branch noise power from the measured
    correlation matrix; ``kron`` uses its Kronecker product with
    the identity, which is only dimensionally consistent when
    ``m_r**2 == 2 m_t``.
    """
    m_r, m_t = state.m_r, state.m_t
    if kind == "sigma":
        trace = np.trace(state.psi, axis1=-2, axis2=-1).real
        sigma2 = np.maximum(trace / m_r, 0.0)
        return sigma2[..., None, None] * np.eye(2 * m_t, dtype=np.complex128)
    if kind == "kron":
        r = np.kron(state.psi, np.eye(m_r, dtype=np.complex128))
        if r.shape[-2:] != (2 * m_t, 2 * m_t):
            raise ConfigurationError(
                f"kron-form regularizer is {r.shape[-2:]} but the detector needs {(2 * m_t, 2 * m_t)}"
            )
        return r
    raise ConfigurationError(f"unknown MMSE regularization {kind!r}")


@dataclass(frozen=True)
class FrameDecisions:
    bits: np.ndarray      # (..., n_data_syms, n_data, m_t, 4) uint8
    soft: np.ndarray      # (..., n_data_syms, n_data, m_t)
    erased: np.ndarray    # (..., n_data_syms, n_data) bool
    flagged: np.ndarray   # (..., n_data_syms) bool: a tracked update was rejected
    flagged_symbols: int  # over every frame of the stack
    cpe_history: np.ndarray  # (..., n_data_syms, m_r) phase updates applied


def _mixing_matrices(upsilon, h_k, h_mk, k1) -> np.ndarray:
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


def _solve_pairs(w: np.ndarray, x_stack: np.ndarray, r: np.ndarray, r_floor):
    """Guarded regularized least squares ``(W^H W + R) s = W^H x`` for tracking's pilot systems.

    ``w`` is ``(..., rows, cols)`` and ``x_stack`` holds the ``(..., c,
    rows)`` right-hand sides, ``c`` of them per system; ``r`` broadcasts
    to ``(..., cols, cols)`` and ``r_floor``, a lower bound on the smallest
    eigenvalue of ``r`` (0: none), to ``(...)``.  Returns the ``(..., c,
    cols)`` solutions, zero where the condition guard rejects the system,
    and the ``(...)`` guard verdicts.  Each right-hand side is its own
    matrix-vector product; only the LAPACK solve takes every column at once.
    """
    wh = w.conj().swapaxes(-1, -2)
    gram = wh @ w + r
    rhs = (wh[..., None, :, :] @ x_stack[..., None])[..., 0]
    good = well_conditioned(gram, r_floor)
    s_stack = np.zeros(rhs.shape, dtype=np.complex128)
    if good.any():
        cols = np.linalg.solve(gram[good], rhs[good].swapaxes(-1, -2))
        s_stack[good] = cols.swapaxes(-1, -2)
    return s_stack, good


def _normal_equations(w: np.ndarray, x_stack: np.ndarray, r: np.ndarray):
    """Detection's Gram matrices ``W^H W + R`` and right-hand sides ``W^H x``.

    Shapes as in :func:`_solve_pairs`; returns the ``(..., cols, cols)``
    Gram matrices and ``(..., c, cols)`` right-hand sides.  Up to
    :data:`LDL_MAX` columns both are summed one row of ``W`` at a time on
    stack-last copies, each step one array operation over the whole stack
    (the returned arrays are views of those copies); larger systems take
    one BLAS product per matrix and per right-hand side.  Either way a
    right-hand side gets the same operations whatever the stack holds.
    """
    if w.shape[-1] > LDL_MAX:
        wh = w.conj().swapaxes(-1, -2)
        return wh @ w + r, (wh[..., None, :, :] @ x_stack[..., None])[..., 0]
    r = np.broadcast_to(r, (*w.shape[:-2], w.shape[-1], w.shape[-1]))
    w = np.ascontiguousarray(np.moveaxis(w, (-2, -1), (0, 1)))            # (rows, cols, ...)
    x_stack = np.ascontiguousarray(np.moveaxis(x_stack, (-1, -2), (0, 1)))  # (rows, c, ...)
    row = w[0].conj()
    gram = row[:, None] * w[0, None]
    gram += np.moveaxis(r, (-2, -1), (0, 1))
    rhs = row[:, None] * x_stack[0, None]
    for i in range(1, len(w)):
        row = w[i].conj()
        gram += row[:, None] * w[i, None]
        rhs += row[:, None] * x_stack[i, None]
    return np.moveaxis(gram, (0, 1), (-2, -1)), np.moveaxis(rhs, (0, 1), (-1, -2))


def _ldl_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Hermitian positive-definite systems ``a x = b`` by ``a = L D L^H``, in place.

    ``a`` is an ``(n, n, k)`` stack of ``k`` systems, stack axis last, and
    ``b`` holds their ``(n, c, k)`` right-hand sides; ``a`` is overwritten
    by its factors and ``b`` by the solutions, which are returned.  Each
    step of the factorization and of the two triangular solves is one array
    operation over all ``k`` systems, and every column takes the same
    operations as it would alone.  Without pivoting this is as stable as
    Cholesky on the positive-definite systems that the condition guard
    lets through.
    """
    n = len(a)
    inv_d = np.empty((n, a.shape[-1]))
    for j in range(n):
        inv_d[j] = 1.0 / a[j, j].real
        col = a[j + 1 :, j]
        below = col * inv_d[j]
        a[j + 1 :, j + 1 :] -= below[:, None] * col.conj()
        a[j + 1 :, j] = below
    for j in range(n - 1):
        b[j + 1 :] -= a[j + 1 :, j, None] * b[j]
    b *= inv_d[:, None]
    for j in range(n - 1, 0, -1):
        b[:j] -= a[j, :j, None].conj() * b[j]
    return b


def _solve_detection(gram: np.ndarray, rhs: np.ndarray, good: np.ndarray) -> np.ndarray:
    """Detection's solutions of the ``good`` systems of :func:`_normal_equations`, zero elsewhere.

    ``gram`` is ``(..., n, n)``, ``rhs`` ``(..., c, n)`` and ``good``
    ``(...)``; systems up to :data:`LDL_MAX` go to :func:`_ldl_solve`,
    larger ones to LAPACK.  When every system is good, the small ones are
    solved in place: ``gram`` and ``rhs`` are overwritten.
    """
    n = gram.shape[-1]
    s_stack = np.zeros(rhs.shape, dtype=np.complex128)
    if n > LDL_MAX:
        if good.any():
            s_stack[good] = np.linalg.solve(gram[good], rhs[good].swapaxes(-1, -2)).swapaxes(-1, -2)
        return s_stack
    a = np.moveaxis(gram, (-2, -1), (0, 1))  # the stack-last arrays behind the views
    b = np.moveaxis(rhs, (-1, -2), (0, 1))
    if good.all():
        x = _ldl_solve(a.reshape(n, n, -1), b.reshape(*b.shape[:2], -1)).reshape(b.shape)
        return np.moveaxis(x, (0, 1), (-1, -2))
    s_stack[good] = np.moveaxis(_ldl_solve(a[..., good], b[..., good]), (0, 1), (-1, -2))
    return s_stack


def _pair_verdicts(g_k: np.ndarray, g_mk: np.ndarray, r_floor) -> np.ndarray:
    """The guard's verdict on the block-diagonal pair systems of two bin Gram stacks.

    The pair's trace is the sum of its bins' traces and its eigenvalues
    are both bins' eigenvalues, so this is the verdict that the pair
    system itself gets.
    """
    m = g_k.shape[-1]
    pair = np.zeros((*g_k.shape[:-2], 2 * m, 2 * m), dtype=np.complex128)
    pair[..., :m, :m] = g_k
    pair[..., m:, m:] = g_mk
    return well_conditioned(pair, r_floor)


def equalize_frame(
    rx_grids: np.ndarray,
    state: EstimatorState,
    smap: SubcarrierMap,
    pilots: np.ndarray,
    options: EqualizerOptions,
    phase_updates: np.ndarray | None = None,
) -> FrameDecisions:
    """Track the common phase and detect every data bin of a demodulated frame or frame stack.

    ``rx_grids`` is the ``(..., symbols, n, m_r)`` stack, leading axes
    being frames (a field of ``state`` has the same leading axes or none);
    each frame's first :data:`~ofdmlink.framing.N_TRAIN` symbols are its
    training and are skipped.  With ``phase_updates`` None the per-symbol
    updates are tracked from the pilots; otherwise it supplies them,
    ``(..., n_data_syms, m_r)`` (ones apply no update), or ``(..., 1, m_r)``:
    one row for every symbol of a frame, so that the frame has one system
    per pair.  When ``state.k1`` is 1 everywhere and the regularizer has no
    entry coupling ``k`` with ``-k``, each data bin is its own system.
    Detection runs a stack of systems at a time, as many as fit in
    ``DETECT_ENTRIES`` entries of their mixing matrices and right-hand
    sides (at least one), over the frames' symbols in order.
    """
    data = rx_grids[..., N_TRAIN:, :, :]
    lead, (n_syms, n, m_r), m_t = data.shape[:-3], data.shape[-3:], state.m_t
    if phase_updates is None:
        upsilon, flagged = _track(data, state, pilots, smap, options.tracking_variant)
    else:
        upsilon = np.asarray(phase_updates, dtype=np.complex128)
        flagged = np.zeros((*lead, n_syms), dtype=bool)

    history = np.broadcast_to(upsilon, (*lead, n_syms, m_r))  # update rows: 1 or n_syms

    # one system per (frame, update row), each carrying the data symbols its
    # row applies to as right-hand-side columns; a system's state is its frame's
    n_rows = upsilon.shape[-2]
    cols = n_syms // n_rows
    frames = math.prod(lead)
    systems = frames * n_rows
    x = data.reshape(frames, n_rows, cols, n, m_r)
    ups = np.broadcast_to(upsilon, (*lead, n_rows, m_r)).reshape(systems, m_r)
    frame_of, row_of = np.divmod(np.arange(systems), n_rows)

    def per_frame(a, core):
        return np.broadcast_to(a, (*lead, *core)).reshape(frames, *core)

    # the regularizer and its smallest eigenvalue: MMSE's, or zero for ZF (no certificate)
    r, r_floor = np.zeros((2 * m_t, 2 * m_t), dtype=np.complex128), 0.0
    if options.detector == "mmse":
        r = mmse_r_matrix(state, options.mmse_r)
        r_floor = np.linalg.eigvalsh(r)[..., 0]
    r = per_frame(r, (2 * m_t, 2 * m_t))
    r_floor = per_frame(r_floor, ())[:, None]
    # each mirror pair {k, -k}: positions in the data ordering
    kpos = smap.data_bins[smap.data_bins > 0]
    i_k, i_mk = np.searchsorted(smap.data_bins, kpos), np.searchsorted(smap.data_bins, -kpos)
    # k2 = 0 and a regularizer without k/-k blocks: the pair system is block-diagonal
    by_bin = bool(
        np.all(state.k1 == 1) and not r[:, :m_t, m_t:].any() and not r[:, m_t:, :m_t].any()
    )
    if by_bin:
        # each data bin in the data ordering; a mirror bin -k is its pair's
        # lower block conjugated, so it takes the conjugate of that block's R
        b_data = logical_to_bin(smap.data_bins, n)
        h = per_frame(np.take(state.h_pre, b_data, axis=-3), (smap.n_data, m_r, m_t))
        r, r_mirror = r[:, None, :m_t, :m_t], np.conj(r[:, None, m_t:, m_t:])
        if not np.array_equal(r, r_mirror):
            r = np.where((smap.data_bins < 0)[:, None, None], r_mirror, r)
        units, rows, w_cols = smap.n_data, m_r, m_t
    else:
        b_k, b_mk = logical_to_bin(kpos, n), logical_to_bin(-kpos, n)  # storage bins
        pair_shape = (kpos.size, m_r, m_t)  # a frame's pair channels and conjugated mirrors
        h_k = per_frame(np.take(state.h_pre, b_k, axis=-3), pair_shape)
        h_mk = per_frame(np.conj(np.take(state.h_pre, b_mk, axis=-3)), pair_shape)
        k1 = per_frame(state.k1, (m_r,))
        r = r[:, None]
        units, rows, w_cols = kpos.size, 2 * m_r, 2 * m_t

    soft = np.zeros((systems, cols, smap.n_data, m_t), dtype=np.complex128)
    erased = np.zeros((systems, smap.n_data), dtype=bool)
    stack = max(1, DETECT_ENTRIES // (units * rows * (w_cols + cols)))
    for j in range(0, systems, stack):
        sl = slice(j, j + stack)
        f = frame_of[sl]
        fr, rw = f[:, None], row_of[sl][:, None]
        # W and the right-hand sides, (sys, units, rows, cols) and (sys, units,
        # cols, rows) (index arrays split by a slice lead), are passed
        # unnamed, so that each is freed once _normal_equations has its copy
        if by_bin:
            gram, rhs = _normal_equations(ups[sl, None, :, None] * h[f], x[fr, rw, :, b_data], r[f])
            good = _pair_verdicts(gram[:, i_k], gram[:, i_mk], r_floor[f])
            on_bins = np.empty(gram.shape[:2], dtype=bool)
            on_bins[:, i_k] = on_bins[:, i_mk] = good
            soft[sl] = _solve_detection(gram, rhs, on_bins).swapaxes(1, 2)
            del gram, rhs  # freed before the next stack's arrays are made
        else:
            gram, rhs = _normal_equations(
                _mixing_matrices(ups[sl], h_k[f], h_mk[f], k1[f]),
                np.concatenate([x[fr, rw, :, b_k], np.conj(x[fr, rw, :, b_mk])], axis=-1),
                r[f],
            )
            good = well_conditioned(gram, r_floor[f])
            s_stack = _solve_detection(gram, rhs, good).swapaxes(1, 2)  # (sys, cols, P, 2m_t)
            soft[sl, :, i_k] = s_stack[..., :m_t]
            soft[sl, :, i_mk] = np.conj(s_stack[..., m_t:])
            del gram, rhs, s_stack  # freed before the next stack's arrays are made
        erased[sl, i_k] = ~good
        erased[sl, i_mk] = ~good
    shape = (*lead, n_syms, smap.n_data)
    bits = qam16_demap(soft).reshape(*shape, m_t, 4)
    return FrameDecisions(
        bits=bits, soft=soft.reshape(*shape, m_t),
        erased=np.broadcast_to(erased[:, None], (systems, cols, smap.n_data)).reshape(shape),
        flagged=flagged, flagged_symbols=int(flagged.sum()),
        cpe_history=history,
    )
