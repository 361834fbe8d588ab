"""Whole-frame common-phase tracking and joint mirror-pair data detection.

Tracking: the common phase of each receive branch drifts from symbol to
symbol, so every data symbol updates a per-branch complex factor (the
ratio of the current common phase to the preamble-time one) from the
pilot bins.  Writing that factor as ``a + jb`` turns the pilot
observation stacked with its mirror conjugate into a linear model with a
2x2 complex matrix per pilot; the normal equations are regularized by the
measured noise-plus-interference power and the per-pilot solutions are
averaged.  The model matrices depend only on the preamble-stage state, so
each (frame, branch, pilot) system is formed once per frame, every symbol
one right-hand-side column of it, and solved by detection's guarded
solver :func:`_solve_normal`, the pilots its pair axis.  A rejected update
falls back to the last accepted one of its branch (1 before any), which is
a forward fill along the symbols.

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
of it.  ``W`` is never formed: ``W^H W`` sums outer products of the
pair's channel rows, made once per frame, over the branches, and ``W^H x``
those rows against each branch's de-mixed, de-rotated pair.  Where ``k1 =
1`` (``k2 = 0``) a pair's two blocks, its bins' systems, are solved apart,
but the guard judges the whole system, erasing both bins together.  The
systems, the tracker's included, are small and many, and LAPACK's cost is
per matrix, so they are solved by array operations over stacks of them
(:func:`_ldl_solve`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimation import EstimatorState
from .framing import N_TRAIN, SubcarrierMap, qam16_demap
from .numerics import CONDITION_LIMIT, ConfigurationError, logical_to_bin

__all__ = [
    "EqualizerOptions",
    "FrameDecisions",
    "equalize_frame",
]

UPSILON_CEILING = 4.0
# Gram, right-hand-side and received-pair entries of a detection stack: 24 symbols of a 4x4
# link, half its 47-symbol frame (a whole one ran ~8% faster at a traced peak of 1.8 MB, not 1.3).
DETECT_ENTRIES = 24 * 24 * (36 + 16)


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
    # one block per (frame, branch, pilot), the pilots its pair axis: (row, column, ..., m_r, 1, r)
    c = np.moveaxis(_tracking_matrices(y, ym, state.k1, variant), (-2, -1), (0, 1))[..., None, :]
    lam = np.maximum(np.diagonal(state.psi, axis1=-2, axis2=-1).real, 0.0)[..., None, None]
    rows, cols = _lower(2)
    gram = np.conj(c[0, rows]) * c[0, cols] + np.conj(c[1, rows]) * c[1, cols]  # packed C^H C
    gram[rows == cols] += lam

    p_bins, p_mirror = _pilot_tables(smap)
    pb = np.moveaxis(np.take(data, p_bins, axis=-2), -3, 0).swapaxes(-1, -2)[..., None, :]
    # C^H z, every symbol one right-hand-side column of its systems: (2, S, ..., m_r, 1, r),
    # the pilots outside the two unknowns in memory, which sets the pilot average's order
    phi = np.moveaxis(np.empty((*pb.shape, 2), dtype=np.complex128), -1, 0)
    np.multiply(np.conj(c[0, :, None]), pb, out=phi)
    phi += np.conj(c[1, :, None]) * np.conj(pb[..., p_mirror])
    ok = _solve_normal(gram, np.moveaxis(phi, 1, -1), lam[..., 0])
    mean = phi.mean(axis=-1)[..., 0]                              # (2, S, ..., m_r)
    est = np.where(ok.all(axis=-1), mean[0].real + 1j * mean[1].real, np.nan)
    est = np.moveaxis(est, 0, -2)                                 # (..., S, m_r)
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


@functools.lru_cache(maxsize=None)
def _lower(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of an ``n x n`` lower triangle in packed order: column by column."""
    cols, rows = np.triu_indices(n)
    return rows, cols


def _ldl_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Hermitian positive-definite systems ``a x = b`` by ``a = L D L^H``, in place.

    ``a`` holds the lower triangles packed in :func:`_lower`'s order, ``(n
    (n + 1) / 2, ...)``, and ``b`` the ``(n, ...)`` right-hand sides, stack
    axes last, ``a``'s broadcasting to ``b``'s; they become the factors and
    the solutions.  Each step reads and writes only lower triangles and is
    one array operation over the stack, so a column gets the same
    operations whatever the stack holds.  Without pivoting this is as
    stable as Cholesky on the positive-definite systems the guard admits.
    """
    n = len(b)
    start = [j * n - j * (j - 1) // 2 for j in range(n + 1)]  # column j: a[start[j]:start[j + 1]]
    inv_d = np.empty((n, *a.shape[1:]))
    conj = np.empty((max(n - 1, 0), *a.shape[1:]), dtype=a.dtype)
    work = np.empty_like(conj)
    step = work if b.shape[1:] == a.shape[1:] else np.empty_like(b[1:])  # laid out as b in memory
    for j in range(n):
        col = a[start[j] : start[j + 1]]  # the diagonal, then L's column below it
        np.divide(1.0, col[0].real, out=inv_d[j])
        below = col[1:]
        m = len(below)
        np.conjugate(below, out=conj[:m])
        below *= inv_d[j]
        for t in range(m):  # the trailing lower triangle, column by column
            tail = a[start[j + 1 + t] : start[j + 2 + t]]
            tail -= np.multiply(below[t:], conj[t], out=work[: m - t])
        b[j + 1 :] -= np.multiply(below, b[j], out=step[:m])  # the forward substitution
    b *= inv_d
    for j in range(n - 1, 0, -1):
        row = a[[start[k] + j - k for k in range(j)]]  # L's row j left of the diagonal
        b[:j] -= np.multiply(np.conjugate(row, out=row), b[j], out=step[:j])
    return b


def _solve_normal(gram: np.ndarray, rhs: np.ndarray, ridge) -> np.ndarray:
    """Guarded solve of block-diagonal normal equations ``(W^H W + rho I) s = W^H x``, in place.

    ``gram`` holds each system's ``n x n`` diagonal blocks as :func:`_ldl_solve`
    takes them, ``(entries, ..., b, pairs)``, and ``rhs`` their ``(n, ...,
    b, pairs, c)`` right-hand sides, which become the solutions.  The guard
    admits a system whose entries are finite and whose 2-norm condition
    number, over all of its blocks' eigenvalues, is at most
    ``CONDITION_LIMIT``.  ``ridge``, each system's ``rho`` and so a floor
    under its smallest eigenvalue, broadcasts to the ``(..., pairs)``
    verdicts, which are returned; a rejected system solves ``I s = 0``.
    """
    n = len(rhs)
    rows, cols = _lower(n)
    good = np.isfinite(gram).all(axis=0).all(axis=-2)
    trace = gram[rows == cols].real.sum(axis=0).sum(axis=-2)
    # rho <= lambda_min and lambda_max <= trace, so a trace within rho * CONDITION_LIMIT
    # / 100 proves the condition limit with a factor of 100 to spare for rounding
    floor = np.broadcast_to(ridge, good.shape)
    with np.errstate(all="ignore"):
        certified = (floor > 0) & np.isfinite(floor) & (trace <= floor * (CONDITION_LIMIT / 100))
    rest = good & ~certified
    if rest.any():  # eigvalsh of the rest; a system's eigenvalues are all of its blocks'
        lower = np.moveaxis(gram, -2, 0)[:, :, rest]  # (b, entries, systems)
        blocks = np.zeros((lower.shape[-1], len(lower), n, n), dtype=np.complex128)
        blocks[..., rows, cols] = np.moveaxis(lower, -1, 0)  # eigvalsh reads the lower triangle
        ev = np.abs(np.linalg.eigvalsh(blocks)).reshape(len(blocks), -1)
        lo = ev.min(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            good[rest] = (lo > 0) & (ev.max(axis=-1) / lo <= CONDITION_LIMIT)
    if not good.all():
        bad = ~good[..., None, :]
        gram[:, np.broadcast_to(bad, gram.shape[1:])] = np.eye(n)[rows, cols, None]
        rhs[:, np.broadcast_to(bad[..., None], rhs.shape[1:])] = 0.0
    _ldl_solve(gram[..., None], rhs)  # a system's columns share its matrix
    return good


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
    per pair.  MMSE's ridge is ``max(tr(psi) / m_r, 0)`` per frame.  A
    stack holds whole update rows of whole frames where they fit in
    ``DETECT_ENTRIES``, else equal parts of a frame's rows.
    """
    data = rx_grids[..., N_TRAIN:, :, :]
    lead, (n_syms, n, m_r), m_t = data.shape[:-3], data.shape[-3:], state.m_t
    if phase_updates is None:
        upsilon, flagged = _track(data, state, pilots, smap, options.tracking_variant)
    else:
        upsilon = np.asarray(phase_updates, dtype=np.complex128)
        flagged = np.zeros((*lead, n_syms), dtype=bool)

    history = np.broadcast_to(upsilon, (*lead, n_syms, m_r))  # update rows: 1 or n_syms

    # one system per (frame, update row, pair), its row's data symbols its columns, innermost
    n_rows, frames = upsilon.shape[-2], math.prod(lead)
    cols = n_syms // n_rows
    x = data.reshape(frames, n_rows, cols, n, m_r).transpose(4, 0, 1, 3, 2)  # (m_r, f, r, n, c)

    def per_frame(a, core):
        return np.broadcast_to(a, (*lead, *core)).reshape(frames, *core)

    ups = per_frame(upsilon, (n_rows, m_r)).transpose(2, 0, 1)  # (m_r, frames, rows)
    # the ridge: MMSE's mean noise-plus-ICI power per branch, or zero for ZF (no certificate)
    ridge = np.maximum(np.trace(state.psi, axis1=-2, axis2=-1).real / m_r, 0.0)
    ridge = per_frame(ridge if options.detector == "mmse" else 0.0, ())
    k1 = per_frame(state.k1, (m_r,)).T  # (m_r, frames)
    k2 = 1.0 - np.conj(k1)
    # each mirror pair {k, -k}: positions in the data ordering and storage bins
    kpos = smap.data_bins[smap.data_bins > 0]
    i_k, i_mk = np.searchsorted(smap.data_bins, kpos), np.searchsorted(smap.data_bins, -kpos)
    b_k, b_mk = logical_to_bin(kpos, n), logical_to_bin(-kpos, n)
    pairs = kpos.size
    # the conjugates of the pairs' channel rows h_k and conjugated mirror rows h_mk, as W^H
    # holds them: (2, m_t, frames, m_r, pairs)
    hc = np.take(state.h_pre, np.stack([b_k, b_mk]), axis=-3)
    np.conjugate(hc[..., 0, :, :, :], out=hc[..., 0, :, :, :])
    hc = np.ascontiguousarray(per_frame(hc, (2, pairs, m_r, m_t)).transpose(1, 4, 0, 3, 2))
    # W^H W sums over the branches a (h_k^H h_k, h_mk^H h_mk) on its diagonal blocks
    # and b h_k^H h_mk off them; b = 0 where k2 = 0, and then the blocks, the bins'
    # m_t-systems (the mirror's conjugated), are solved apart
    blocks = 1 + bool(np.all(state.k1 == 1))
    size = 2 * m_t // blocks
    hc_sys = np.moveaxis(hc, 0, -2) if blocks == 2 else hc.reshape(2 * m_t, frames, m_r, 1, pairs)
    a, b = np.abs(k1) ** 2 + np.abs(k2) ** 2, 2 * np.conj(k1) * k2  # times |u|^2 and conj(u)^2
    rows, cols_of = _lower(size)
    weigh_b = ((rows >= m_t) & (cols_of < m_t)).astype(np.intp)  # the lower-left block's entries
    mix = np.stack([[np.conj(k1), k2], [np.conj(k2), k1]])  # of x_k and conj(x_mk) in z1 and z2

    def branch_sum(out, factors):  # out = sum of the products factors(q), in branch order
        term = np.empty(out.shape, dtype=np.complex128)
        for q in range(m_r):
            np.multiply(*factors(q), out=term if q else out)
            if q:
                out += term

    soft = np.zeros((frames, n_rows, cols, smap.n_data, m_t), dtype=np.complex128)
    erased = np.zeros((frames, n_rows, smap.n_data), dtype=bool)
    # a stack's row holds its pairs' Gram blocks and, per column, their right-hand
    # sides and received pairs; a frame's outer products count as m_r Gram rows
    gram_row = pairs * blocks * rows.size
    per_row = gram_row + pairs * cols * 2 * (m_t + m_r)
    n_fr = max(1, DETECT_ENTRIES // (m_r * gram_row + n_rows * per_row))
    n_rw = -(-n_rows // -(-n_rows // max(1, DETECT_ENTRIES // per_row)))  # a frame's rows in equal parts
    for f0 in range(0, frames, n_fr):
        fr = slice(f0, f0 + n_fr)
        prod = np.empty((rows.size, *hc_sys[:, fr].shape[1:]), dtype=np.complex128)  # (e, f, m_r, b, p)
        for j, i in enumerate(np.flatnonzero(rows == cols_of)):  # column j: conj(h_i) h_j, i >= j
            np.multiply(hc_sys[j:, fr], np.conj(hc_sys[j, fr]), out=prod[i : i + size - j])
        hc_fr = hc[:, :, fr, None, ..., None]  # (2, m_t, f, 1, m_r, pairs, 1)
        for r0 in range(0, n_rows, n_rw):
            rw = slice(r0, r0 + n_rw)
            u = ups[:, fr, rw]  # (m_r, f, r)
            shape = (*u.shape[1:], blocks, pairs)
            # z1 = conj(u) (conj(k1) x_k + k2 conj(x_mk)) and z2 = u (conj(k2) x_k + k1
            # conj(x_mk)): each branch's received pair de-mixed and de-rotated
            x_k, x_mk = (np.take(x[:, fr, rw], bins, axis=-2) for bins in (b_k, b_mk))
            z = mix[:, 0, :, fr, None, None, None] * x_k
            z += mix[:, 1, :, fr, None, None, None] * np.conj(x_mk)
            del x_k, x_mk
            z *= np.stack([np.conj(u), u])[..., None, None]  # (2, m_r, f, r, pairs, c)
            # the right-hand sides h_k^H z1 and h_mk^H z2 into the halves of each
            # system's rows, or its two blocks: (2, m_t, f, r, pairs, c)
            rhs = np.empty((size, *shape, cols), dtype=np.complex128)
            halves = rhs.reshape(2, m_t, *shape[:-2], -1, cols) if blocks == 1 else np.moveaxis(rhs, -3, 0)
            branch_sum(halves, lambda q: (hc_fr[..., q, :, :], z[:, q, None]))
            del z
            # the Gram matrices from the outer products, half of their entries at a time
            weights = np.stack([np.abs(u) ** 2 * a[:, fr, None], np.conj(b[:, fr, None]) * u**2])
            gram = np.empty((rows.size, *shape), dtype=np.complex128)
            for e in (slice(None, (rows.size + 1) // 2), slice((rows.size + 1) // 2, None)):
                w = weights[weigh_b[e]]  # (entries, m_r, f, r)
                branch_sum(gram[e], lambda q: (w[:, q, :, :, None, None], prod[e][:, :, None, q]))
            if r0 + n_rw >= n_rows:  # the frames' last stack: their products go before the solve
                del prod
            gram[rows == cols_of] += ridge[fr, None, None, None]
            good = _solve_normal(gram, rhs, ridge[fr, None, None])
            s_k, s_mk = (half.transpose(1, 2, 4, 3, 0) for half in halves)  # (f, r, c, pairs, m_t)
            soft[fr, rw][..., i_k, :], soft[fr, rw][..., i_mk, :] = s_k, np.conj(s_mk)
            erased[fr, rw][..., i_k] = erased[fr, rw][..., i_mk] = ~good
            del gram, rhs, halves, s_k, s_mk  # freed before the next stack's arrays are made
    shape = (*lead, n_syms, smap.n_data)
    bits = qam16_demap(soft).reshape(*shape, m_t, 4)
    return FrameDecisions(
        bits=bits, soft=soft.reshape(*shape, m_t),
        erased=np.broadcast_to(erased[:, :, None], soft.shape[:-1]).reshape(shape),
        flagged=flagged, flagged_symbols=int(flagged.sum()),
        cpe_history=history,
    )
