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
IQ mixing applied to the tracked channel, solved by ZF or MMSE.  Every
system the receiver solves is ``(W^H W + rho I) s = W^H x``: MMSE's
ridge ``rho`` is the frame's mean noise-plus-interference power per
receive branch, ``tr(psi) / m_r``, ZF's is 0, and the tracker's is its
branch's entry of ``psi``; ``rho`` is also the condition guard's
eigenvalue floor.  When the phase updates vary from symbol to symbol,
each (frame, symbol) has one system per pair; when a frame applies one
update row to all of its symbols (no phase compensation), the frame has
one system per pair and every data symbol is one right-hand-side column
of it.  A pair's system is block-diagonal with ``b`` blocks: one, the
``2m_r x 2m_t`` pair system, where the frame has an IQ image; two, the
bins' ``m_r x m_t`` systems, where the mismatch is ``k1 = 1`` on every
branch (``k2 = 0``) and ``m_t <= LDL_MAX``.  The guard judges the whole
system, so both bins of a pair are erased together.

Detection's systems are small and many, so LAPACK's cost is mostly per
matrix: about 0.35 us for a 2x2 system, 0.65 us for a 4x4 and 1.6 us for
an 8x8 (numpy 2.4, one BLAS thread, 2-core Xeon).  :func:`_solve_small`
forms and solves blocks up to :data:`LDL_MAX` by array operations over a
stack-last copy of the whole stack, whose cost is per operation and so
falls with the stack's size: 0.47 us per 4x4 system in a stack of 192,
0.20 us in one of 768, 0.02 us per 2x2 system in one of 3072.  Larger
systems (the pair systems of 3x3 and 4x4 links) and tracking's few pilot
systems go to BLAS and LAPACK (:func:`_solve_pairs`), and
:data:`DETECT_ENTRIES` sizes the stacks.
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
    "equalize_frame",
]

UPSILON_CEILING = 4.0
# Matrix entries in one detection stack (at least one system): each block
# of a pair's system holds its mixing matrix W and its right-hand sides.
# Counted in entries, not symbols, because the small systems' cost is per
# operation over the stack: a 2x2 link's per-symbol pair systems get 28
# symbols per stack and its bin systems 48.  The 4x4 pair systems
# keep their ceiling of 8 symbols of 24 pairs of an 8x8 W and one column;
# stacking all 47 of a 4x4 frame's symbols raised the peak memory of a
# 2x2 + 4x4 all-mode campaign by about 5 MB (5%) without a measurable
# gain in speed.  A frame with every data symbol as a column of its
# systems is a stack of its own at 4x4.
DETECT_ENTRIES = 8 * 24 * (64 + 8)
# Largest block formed and solved stack-last.  At 8x8, BLAS forms a
# stack of 192 systems' Gram matrices in about half the time, and the
# kernel solves them only about 1.1x faster than LAPACK.
LDL_MAX = 4


@dataclass(frozen=True)
class EqualizerOptions:
    detector: str          # "zf" | "mmse"
    tracking_variant: str  # "re-derived" | "as-printed"

    def __post_init__(self):
        if self.detector not in ("zf", "mmse"):
            raise ConfigurationError(f"unknown detector {self.detector!r}")
        if self.tracking_variant not in ("re-derived", "as-printed"):
            raise ConfigurationError(f"unknown tracking variant {self.tracking_variant!r}")


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
    phi, ok = _solve_pairs(c, z, lam)
    mean = phi.mean(axis=-3)                                      # (..., m_r, S, 2)
    est = np.where(ok.all(axis=-1)[..., None], mean[..., 0].real + 1j * mean[..., 1].real, np.nan)
    est = np.swapaxes(est, -1, -2)                                # (..., S, m_r)
    accepted = np.isfinite(est) & (np.abs(est) <= UPSILON_CEILING)

    last = np.where(accepted, np.arange(n_syms)[:, None], -1)
    np.maximum.accumulate(last, axis=-2, out=last)
    filled = np.take_along_axis(est, np.maximum(last, 0), axis=-2)
    upsilon = np.where(last >= 0, filled, 1.0 + 0j)
    return upsilon, ~accepted.all(axis=-1)


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


def _solve_pairs(w: np.ndarray, x_stack: np.ndarray, ridge):
    """Guarded ridge least squares ``(W^H W + rho I) s = W^H x`` by BLAS and LAPACK.

    ``w`` is ``(..., rows, cols)`` and ``x_stack`` holds the ``(..., c,
    rows)`` right-hand sides, ``c`` of them per system; ``ridge``, each
    system's ``rho >= 0`` and so the guard's eigenvalue floor (0: none),
    broadcasts to ``(...)``.  Returns the ``(..., c, cols)`` solutions,
    zero where the condition guard rejects the system, and the ``(...)``
    guard verdicts.  Each right-hand side is its own matrix-vector
    product; only the LAPACK solve takes every column at once.
    """
    wh = w.conj().swapaxes(-1, -2)
    gram = wh @ w
    diag = np.arange(gram.shape[-1])
    gram[..., diag, diag] += np.asarray(ridge)[..., None]
    rhs = (wh[..., None, :, :] @ x_stack[..., None])[..., 0]
    del w, wh, x_stack  # freed before the guard and the solve
    good = well_conditioned(gram, ridge)
    s_stack = np.zeros(rhs.shape, dtype=np.complex128)
    if good.any():
        cols = np.linalg.solve(gram[good], rhs[good].swapaxes(-1, -2))
        s_stack[good] = cols.swapaxes(-1, -2)
    return s_stack, good


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


def _solve_small(w: np.ndarray, x_stack: np.ndarray, ridge):
    """:func:`_solve_pairs` for block-diagonal systems of ``b`` blocks up to :data:`LDL_MAX`.

    ``w`` is ``(..., b, rows, cols)``, ``x_stack`` ``(..., b, c, rows)``
    and ``ridge``, one per whole system, broadcasts to ``(..., 1)``.
    Returns the ``(..., b, c, cols)`` solutions and the ``(..., 1)``
    verdicts of the whole systems, whose traces are the sums of their
    blocks' traces and whose eigenvalues are all of theirs.  The
    Gram matrices and right-hand sides are summed one row of ``W`` at a
    time on stack-last copies and solved by :func:`_ldl_solve`, each step
    one array operation over the whole stack, so a right-hand side gets the
    same operations whatever the stack holds.
    """
    *stack, rows, n = w.shape
    w = np.ascontiguousarray(np.moveaxis(w, (-2, -1), (0, 1)))            # (rows, n, ..., b)
    x_stack = np.ascontiguousarray(np.moveaxis(x_stack, (-1, -2), (0, 1)))  # (rows, c, ..., b)
    row = w[0].conj()
    gram = row[:, None] * w[0, None]
    # the ridge joins each diagonal sum after the first row; another place would
    # round the Gram matrices, and so the recorded outputs, differently
    diag = np.arange(n)
    gram[diag, diag] += ridge
    rhs = row[:, None] * x_stack[0, None]
    for i in range(1, rows):
        row = w[i].conj()
        gram += row[:, None] * w[i, None]
        rhs += row[:, None] * x_stack[i, None]

    whole, b = np.moveaxis(gram, (0, 1), (-2, -1)), stack[-1]  # (..., b, n, n)
    if b > 1:
        blocks, whole = whole, np.zeros((*stack[:-1], 1, b * n, b * n), dtype=np.complex128)
        for i in range(b):
            whole[..., 0, i * n : (i + 1) * n, i * n : (i + 1) * n] = blocks[..., i, :, :]
    good = well_conditioned(whole, ridge)
    del whole  # freed before the solve's temporaries are made
    if not good.all():  # a rejected system solves I s = 0
        bad = ~np.broadcast_to(good, stack)
        gram[:, :, bad], rhs[:, :, bad] = np.eye(n)[..., None], 0.0
    _ldl_solve(gram.reshape(n, n, -1), rhs.reshape(*rhs.shape[:2], -1))
    return np.moveaxis(rhs, (0, 1), (-1, -2)), good


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
    per pair.  A pair's system has one diagonal block per bin when
    ``state.k1`` is 1 everywhere and ``m_t <= LDL_MAX``, and is one block
    otherwise.  MMSE's ridge is ``max(tr(psi) / m_r, 0)`` per frame.
    Detection runs a stack of systems at a time, as many as fit in
    ``DETECT_ENTRIES`` entries of their mixing matrices and right-hand
    sides (at least one), over the frames' symbols in order: blocks up to
    ``LDL_MAX`` through :func:`_solve_small`, larger ones through
    :func:`_solve_pairs`.
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

    # the ridge: MMSE's mean noise-plus-ICI power per branch, or zero for ZF (no certificate)
    ridge = 0.0
    if options.detector == "mmse":
        ridge = np.maximum(np.trace(state.psi, axis1=-2, axis2=-1).real / m_r, 0.0)
    ridge = per_frame(ridge, ())[:, None, None]
    # each mirror pair {k, -k}: positions in the data ordering and storage bins
    kpos = smap.data_bins[smap.data_bins > 0]
    i_k, i_mk = np.searchsorted(smap.data_bins, kpos), np.searchsorted(smap.data_bins, -kpos)
    b_k, b_mk = logical_to_bin(kpos, n), logical_to_bin(-kpos, n)
    pairs = kpos.size
    # k2 = 0: the pair system is block-diagonal, its two blocks the bins' m_t-systems
    blocks = 1 + (m_t <= LDL_MAX and bool(np.all(state.k1 == 1)))
    if blocks == 2:
        # bins pair by pair, [k0, -k0, k1, -k1, ...]; a mirror bin -k is its
        # pair's lower block conjugated, so it is solved unconjugated
        bins, i_bins = np.stack([b_k, b_mk], axis=-1), np.stack([i_k, i_mk], axis=-1).ravel()
        h = per_frame(np.take(state.h_pre, bins, axis=-3), (pairs, 2, m_r, m_t))
    else:
        pair_shape = (pairs, m_r, m_t)  # a frame's pair channels and conjugated mirrors
        h_k = per_frame(np.take(state.h_pre, b_k, axis=-3), pair_shape)
        h_mk = per_frame(np.conj(np.take(state.h_pre, b_mk, axis=-3)), pair_shape)
        k1 = per_frame(state.k1, (m_r,))
    w_cols = 2 * m_t // blocks
    solve = _solve_small if w_cols <= LDL_MAX else _solve_pairs

    soft = np.zeros((systems, cols, smap.n_data, m_t), dtype=np.complex128)
    erased = np.zeros((systems, smap.n_data), dtype=bool)
    stack = max(1, DETECT_ENTRIES // (pairs * 2 * m_r * (w_cols + cols)))
    for j in range(0, systems, stack):
        sl = slice(j, j + stack)
        f = frame_of[sl]
        fr, rw = f[:, None], row_of[sl][:, None]
        # W and the right-hand sides, (sys, pairs, blocks, rows, w_cols) and
        # (sys, pairs, blocks, cols, rows) (index arrays split by a slice
        # lead), are passed unnamed, so that the solver frees each once used
        if blocks == 2:
            s, good = solve(
                ups[sl, None, None, :, None] * h[f], x[fr[..., None], rw[..., None], :, bins],
                ridge[f],
            )
            soft[sl, :, i_bins] = s.reshape(len(f), 2 * pairs, cols, m_t).swapaxes(1, 2)
        else:
            s, good = solve(
                _mixing_matrices(ups[sl], h_k[f], h_mk[f], k1[f])[:, :, None],
                np.concatenate([x[fr, rw, :, b_k], np.conj(x[fr, rw, :, b_mk])], -1)[:, :, None],
                ridge[f],
            )
            s = s[:, :, 0].swapaxes(1, 2)  # (sys, cols, pairs, 2m_t)
            soft[sl, :, i_k], soft[sl, :, i_mk] = s[..., :m_t], np.conj(s[..., m_t:])
        del s  # freed before the next stack's arrays are made
        erased[sl, i_k] = erased[sl, i_mk] = ~good[..., 0]
    shape = (*lead, n_syms, smap.n_data)
    bits = qam16_demap(soft).reshape(*shape, m_t, 4)
    return FrameDecisions(
        bits=bits, soft=soft.reshape(*shape, m_t),
        erased=np.broadcast_to(erased[:, None], (systems, cols, smap.n_data)).reshape(shape),
        flagged=flagged, flagged_symbols=int(flagged.sum()),
        cpe_history=history,
    )
