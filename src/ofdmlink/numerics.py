"""Deterministic complex-vector primitives shared by all modules.

Conventions used throughout the package:

* Frequency grids are ``(N, M)`` complex128 arrays: axis 0 is the subcarrier
  in FFT storage order (logical subcarrier ``k`` in ``-N/2 .. N/2-1`` lives
  at storage bin ``k mod N``), axis 1 is the antenna.  A stack of frames
  adds leading axes: ``(frames, N, M)``.
* The forward transform is unnormalized, ``X(k) = sum_n x(n) e^{-j2pi kn/N}``;
  the inverse carries the ``1/N`` factor.  Under this pairing the frequency
  response of a tap vector is its zero-padded forward transform, with no
  extra scaling.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "ConfigurationError",
    "RandomSource",
    "dft",
    "idft",
    "condition_number",
    "well_conditioned",
    "logical_to_bin",
    "CONDITION_LIMIT",
]

CONDITION_LIMIT = 1e12


class ConfigurationError(ValueError):
    """Inconsistent sizes or parameters supplied by the caller."""


def _require_pow2(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise ConfigurationError(f"FFT size must be a power of two, got {n}")


def dft(v: np.ndarray, axis: int = 0) -> np.ndarray:
    """Forward transform along ``axis`` (unnormalized)."""
    v = np.asarray(v)
    _require_pow2(v.shape[axis])
    return np.fft.fft(v, axis=axis)


def idft(v: np.ndarray, axis: int = 0) -> np.ndarray:
    """Inverse transform along ``axis`` (carries the 1/N factor)."""
    v = np.asarray(v)
    _require_pow2(v.shape[axis])
    return np.fft.ifft(v, axis=axis)


def logical_to_bin(k, n: int):
    """Map logical subcarrier index (or array) to FFT storage bin."""
    return np.mod(k, n)


def condition_number(a: np.ndarray) -> np.ndarray:
    """2-norm condition number of a Hermitian matrix or stack of them."""
    ev = np.abs(np.linalg.eigvalsh(a))
    hi = ev.max(axis=-1)
    lo = ev.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lo > 0, hi / np.where(lo > 0, lo, 1.0), np.inf)


def well_conditioned(a: np.ndarray, floor=0.0) -> np.ndarray:
    """Condition-guard verdict for each Hermitian matrix of a stack ``(..., n, n)``.

    True exactly where every entry is finite and ``condition_number(a) <=
    CONDITION_LIMIT``.  ``floor`` is a lower bound on the smallest
    eigenvalue of each matrix, broadcast to ``a.shape[:-2]``; 0 means none.
    Most matrices are accepted without an eigendecomposition, by a
    certificate that proves ``cond_2(A) <= CONDITION_LIMIT`` with a factor
    of 100 to spare for rounding.  For ``A = W^H W + R`` with ``R``
    Hermitian and ``lambda_min(R) >= floor > 0``, Weyl's inequality gives
    ``lambda_min(A) >= floor`` (``W^H W`` is positive semidefinite), and
    ``lambda_max(A) <= trace(A)`` for any such ``A``.  So ``trace(A) <=
    floor * CONDITION_LIMIT / 100`` certifies the matrix at the cost of a
    trace.  It also bounds ``cond_2(R)`` by ``CONDITION_LIMIT / 100``, so
    a ``floor`` read off ``eigvalsh(R)`` is accurate to far better than
    the factor of 100.  ``eigvalsh`` decides every finite matrix the
    certificate leaves.
    """
    a = np.asarray(a)
    ok = np.array(np.isfinite(a).all(axis=(-2, -1)))
    floor = np.broadcast_to(floor, ok.shape)
    with np.errstate(all="ignore"):
        trace = np.trace(a, axis1=-2, axis2=-1).real
        certified = (floor > 0) & np.isfinite(floor) & (trace <= floor * (CONDITION_LIMIT / 100))
    rest = ok & ~certified
    if rest.any():
        ok[rest] = condition_number(a[rest]) <= CONDITION_LIMIT
    return ok


class RandomSource:
    """Stream-splittable random source with label-path seed derivation.

    A child derived via the same ``(master_seed, label path)`` always
    yields the same draw sequence, independent of the order in which
    siblings are created or consumed.  Children are intended to be split
    per trial *before* any parallel fan-out.
    """

    def __init__(self, master_seed: int, _path: tuple = ()):
        self.master_seed = int(master_seed)
        self._path = _path
        self._gen: np.random.Generator | None = None

    def child(self, purpose: str, index: int = 0) -> "RandomSource":
        """Derive an independent source labelled ``(purpose, index)``."""
        return RandomSource(self.master_seed, self._path + ((str(purpose), int(index)),))

    def _seed_material(self) -> int:
        text = str(self.master_seed) + "".join(
            f"|{p}#{i}" for p, i in self._path
        )
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return int.from_bytes(digest, "little")

    @property
    def rng(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(self._seed_material()))
            )
        return self._gen

    def complex_normal(self, var: float = 1.0, size=None) -> np.ndarray:
        """Zero-mean circular complex Gaussian with total variance ``var``."""
        s = np.sqrt(var / 2.0)
        return self.rng.normal(scale=s, size=size) + 1j * self.rng.normal(scale=s, size=size)

    def integers(self, low, high=None, size=None):
        return self.rng.integers(low, high=high, size=size)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.master_seed}, path={self._path!r})"
