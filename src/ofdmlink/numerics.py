"""Deterministic complex-vector primitives shared by all modules.

Conventions used throughout the package:

* Frequency grids are ``(N, M)`` complex128 arrays: axis 0 is the subcarrier
  in FFT storage order (logical subcarrier ``k`` in ``-N/2 .. N/2-1`` lives
  at storage bin ``k mod N``), axis 1 is the antenna.
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
    "conj_mirror",
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


def dft(v: np.ndarray) -> np.ndarray:
    """Forward transform along axis 0 (unnormalized)."""
    v = np.asarray(v)
    _require_pow2(v.shape[0])
    return np.fft.fft(v, axis=0)


def idft(v: np.ndarray) -> np.ndarray:
    """Inverse transform along axis 0 (carries the 1/N factor)."""
    v = np.asarray(v)
    _require_pow2(v.shape[0])
    return np.fft.ifft(v, axis=0)


def conj_mirror(g: np.ndarray) -> np.ndarray:
    """Conjugate-mirror a grid: ``out(k) = conj(in(-k mod N))`` per column."""
    g = np.asarray(g)
    idx = (-np.arange(g.shape[0])) % g.shape[0]
    return np.conj(g[idx])


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


def well_conditioned(a: np.ndarray) -> np.ndarray:
    """Condition-guard verdict for each Hermitian matrix of a stack ``(..., n, n)``.

    True exactly where every entry is finite and ``condition_number(a) <=
    CONDITION_LIMIT``.  Most matrices are accepted without an
    eigendecomposition: for Hermitian ``A``,
    ``cond_2(A) <= ||A||_inf ||A^-1||_F``, and a bound of at most
    ``CONDITION_LIMIT / 100`` (the factor absorbs the rounding of the
    computed inverse) certifies the matrix.  ``eigvalsh`` decides the rest.
    """
    a = np.asarray(a)
    finite = np.isfinite(a).all(axis=(-2, -1))
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:  # one exactly singular matrix stops the whole stack
            bound = np.full(finite.shape, np.inf)
        else:
            bound = np.linalg.norm(a, np.inf, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
    ok = np.array(finite & (bound <= CONDITION_LIMIT / 100))
    rest = finite & ~ok
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

    @property
    def path(self) -> tuple:
        return self._path

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

    def normal(self, scale: float = 1.0, size=None) -> np.ndarray:
        return self.rng.normal(scale=scale, size=size)

    def complex_normal(self, var: float = 1.0, size=None) -> np.ndarray:
        """Zero-mean circular complex Gaussian with total variance ``var``."""
        s = np.sqrt(var / 2.0)
        return self.rng.normal(scale=s, size=size) + 1j * self.rng.normal(scale=s, size=size)

    def integers(self, low, high=None, size=None):
        return self.rng.integers(low, high=high, size=size)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.master_seed}, path={self._path!r})"
