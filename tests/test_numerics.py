"""Tests for the shared complex-vector primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eigvalsh_verdicts
from freq_oracle import conj_mirror
from ofdmlink.numerics import (
    CONDITION_LIMIT,
    ConfigurationError,
    RandomSource,
    condition_number,
    dft,
    idft,
    well_conditioned,
)


class TestDft:
    def test_impulse_gives_flat_spectrum(self):
        v = np.zeros(64, dtype=complex)
        v[0] = 1.0
        np.testing.assert_allclose(dft(v), np.ones(64), atol=1e-14)

    def test_ones_give_scaled_delta(self):
        out = dft(np.ones(64, dtype=complex))
        expected = np.zeros(64, dtype=complex)
        expected[0] = 64.0
        np.testing.assert_allclose(out, expected, atol=1e-11)

    def test_parseval_with_chosen_scaling(self):
        # Under an unnormalized forward transform, ||X||^2 = N ||x||^2.
        rng = np.random.default_rng(11)
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.sum(np.abs(dft(v)) ** 2) == pytest.approx(64 * np.sum(np.abs(v) ** 2))

    def test_matches_defining_sum(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        n = np.arange(16)
        direct = np.array([np.sum(v * np.exp(-2j * np.pi * k * n / 16)) for k in range(16)])
        np.testing.assert_allclose(dft(v), direct, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        err = np.abs(idft(dft(v)) - v).max()
        assert err < 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("n", [0, 3, 48, 65])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ConfigurationError):
            dft(np.zeros(n, dtype=complex))


class TestConjMirror:
    """The conjugate mirror that the frequency-domain oracle applies to the IQ image."""

    def test_dc_bin_self_mirrors(self):
        g = np.arange(8) + 1j
        assert conj_mirror(g)[0] == np.conj(g[0])

    def test_hand_computed_example(self):
        g = np.array([1 + 1j, 2, 3, 4], dtype=complex)
        np.testing.assert_allclose(conj_mirror(g), [1 - 1j, 4, 3, 2])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
        np.testing.assert_allclose(conj_mirror(conj_mirror(g)), g)

    def test_commutes_with_scalar_conjugation(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=32) + 1j * rng.normal(size=32)
        c = 0.7 - 1.3j
        np.testing.assert_allclose(conj_mirror(c * g), np.conj(c) * conj_mirror(g))


def hermitian_psd(rng, n, cond, scale=1.0):
    """Hermitian PSD matrix with condition number ``cond`` (inf: one zero eigenvalue)."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    low = 0.0 if np.isinf(cond) else scale / cond
    spread = 16.0 if np.isinf(cond) else np.log10(cond)
    lam = np.concatenate([[scale, low], scale * 10.0 ** rng.uniform(-spread, 0.0, n - 2)])
    a = (u * lam) @ u.conj().T
    return 0.5 * (a + a.conj().T)


# (kind, log10 condition number): "cond" draws from 1 .. 1e16, "limit"
# sits within a few ulps-worth of CONDITION_LIMIT, "singular" has a zero
# eigenvalue, "nan"/"inf" poison one entry of a well-conditioned matrix.
_matrix_kind = st.one_of(
    st.tuples(st.just("cond"), st.floats(0.0, 16.0)),
    st.tuples(st.just("limit"), st.floats(-1e-6, 1e-6)),
    st.tuples(st.sampled_from(["singular", "nan", "inf", "zero", "ones"]), st.just(0.0)),
)


def square_with_condition(rng, n, cond, scale=1.0):
    """Square ``W`` with largest singular value ``scale`` and condition ``cond`` (inf: rank n-1)."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    low = 0.0 if np.isinf(cond) else scale / cond
    spread = 16.0 if np.isinf(cond) else np.log10(cond)
    sv = np.concatenate([[scale, low], scale * 10.0 ** rng.uniform(-spread, 0.0, n - 2)])
    return (u * sv) @ v.conj().T


# W: "cond" with log10 condition 0 .. 16, "singular" rank-deficient,
# "nan"/"inf" poison one entry of A; R: "scaled" identity, "random"
# Hermitian PD with log10 condition 0 .. 16, or "zero" (no regularizer).
_regularized_kind = st.tuples(
    st.sampled_from(["cond", "cond", "cond", "singular", "nan", "inf"]),
    st.floats(0.0, 16.0),
    st.floats(-6.0, 6.0),
    st.sampled_from(["scaled", "random", "zero"]),
    st.floats(0.0, 16.0),
    st.floats(-6.0, 6.0),
)


class TestWellConditioned:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 4, 8]),
        st.lists(_matrix_kind, min_size=1, max_size=8),
        st.floats(-6.0, 6.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdicts_equal_eigvalsh(self, seed, n, kinds, log_scale):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        stack = []
        for kind, x in kinds:
            if kind == "cond":
                a = hermitian_psd(rng, n, 10.0**x, scale)
            elif kind == "limit":
                a = hermitian_psd(rng, n, CONDITION_LIMIT * (1.0 + x), scale)
            elif kind == "singular":
                a = hermitian_psd(rng, n, np.inf, scale)
            elif kind == "zero":
                a = np.zeros((n, n), dtype=complex)
            elif kind == "ones":
                a = np.full((n, n), scale, dtype=complex)
            else:
                a = hermitian_psd(rng, n, 10.0, scale)
                i, j = rng.integers(0, n, size=2)
                a[i, j] = np.nan if kind == "nan" else np.inf
            stack.append(a)
        stack = np.stack(stack)
        np.testing.assert_array_equal(well_conditioned(stack), eigvalsh_verdicts(stack))

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 4, 8]),
        st.lists(_regularized_kind, min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_regularizer_certificate_is_sound(self, seed, n, kinds):
        # A = W^H W + R with the Gram formed as the detector forms it and
        # floor = eigvalsh(R)[0]: the verdicts are the eigvalsh verdicts
        # with that floor and without one, and no matrix the trace test
        # certifies is one eigvalsh rejects.
        rng = np.random.default_rng(seed)
        stack, floors = [], []
        for w_kind, log_cond_w, log_scale_w, r_kind, log_cond_r, log_scale_r in kinds:
            cond_w = np.inf if w_kind == "singular" else 10.0**log_cond_w
            w = square_with_condition(rng, n, cond_w, 10.0**log_scale_w)
            if r_kind == "scaled":
                r = 10.0**log_scale_r * np.eye(n, dtype=complex)
            elif r_kind == "random":
                r = hermitian_psd(rng, n, 10.0**log_cond_r, 10.0**log_scale_r)
            else:
                r = np.zeros((n, n), dtype=complex)
            a = w.conj().swapaxes(-1, -2) @ w + r
            if w_kind in ("nan", "inf"):
                i, j = rng.integers(0, n, size=2)
                a[i, j] = np.nan if w_kind == "nan" else np.inf
            stack.append(a)
            floors.append(np.linalg.eigvalsh(r)[0])
        stack, floors = np.stack(stack), np.array(floors)
        want = eigvalsh_verdicts(stack)
        np.testing.assert_array_equal(well_conditioned(stack, floors), want)
        np.testing.assert_array_equal(well_conditioned(stack), want)
        trace = np.trace(stack, axis1=-2, axis2=-1).real
        certified = (
            np.isfinite(stack).all(axis=(-2, -1))
            & (floors > 0)
            & (trace <= floors * (CONDITION_LIMIT / 100))
        )
        assert want[certified].all()

    def test_certified_stack_skips_inverse_and_eigvalsh(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("certified matrices need neither inv nor eigvalsh")

        rng = np.random.default_rng(3)
        w = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        stack = w.conj().swapaxes(-1, -2) @ w + 1e-3 * np.eye(4)
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        assert well_conditioned(stack, 1e-3).all()
        # the same stack without a floor must take the guarded path
        with pytest.raises(AssertionError, match="neither"):
            well_conditioned(stack)

    def test_floor_broadcasts_over_the_stack(self):
        # (branches, pilots) systems with one floor per branch, as the tracker passes them
        stack = np.broadcast_to(np.diag([1.0, 1e-14]).astype(complex), (2, 3, 2, 2)).copy()
        stack[1] += 1e-3 * np.eye(2)
        floor = np.array([[0.0], [1e-3]])
        np.testing.assert_array_equal(
            well_conditioned(stack, floor), [[False] * 3, [True] * 3]
        )

    def test_nan_in_the_unread_triangle_is_rejected(self):
        # eigvalsh reads one triangle only and returns finite eigenvalues.
        a = np.eye(3, dtype=complex)
        a[0, 2] = np.nan
        assert np.isfinite(condition_number(a))
        assert not well_conditioned(a)

    def test_boundary_and_singular_cases(self):
        stack = np.stack([
            np.diag([1.0, 1.0 / CONDITION_LIMIT]),
            np.diag([1.0, 0.5 / CONDITION_LIMIT]),
            np.diag([1.0, 1e-10]),
            np.diag([1.0, 0.0]),
            np.ones((2, 2)),
            np.eye(2),
        ]).astype(complex)
        np.testing.assert_array_equal(well_conditioned(stack), eigvalsh_verdicts(stack))
        np.testing.assert_array_equal(well_conditioned(stack)[2:], [True, False, False, True])

    def test_single_matrix_and_hermitian_solve(self):
        assert well_conditioned(np.eye(4))
        assert not well_conditioned(np.diag([1.0, 1e-14]).astype(complex))


class TestRandomSource:
    def test_same_path_same_draws(self):
        a = RandomSource(42).child("channel", 3)
        b = RandomSource(42).child("channel", 3)
        np.testing.assert_array_equal(a.rng.normal(size=16), b.rng.normal(size=16))

    def test_creation_order_irrelevant(self):
        root = RandomSource(7)
        first = [root.child("trial", i).rng.normal(size=4) for i in range(5)]
        root2 = RandomSource(7)
        second = [root2.child("trial", i).rng.normal(size=4) for i in reversed(range(5))]
        for i in range(5):
            np.testing.assert_array_equal(first[i], second[4 - i])

    def test_distinct_labels_decorrelate(self):
        root = RandomSource(1)
        x = root.child("noise", 0).rng.normal(size=100)
        y = root.child("phase", 0).rng.normal(size=100)
        assert not np.allclose(x, y)

    def test_nested_paths(self):
        a = RandomSource(5).child("point", 1).child("frame", 2)
        b = RandomSource(5).child("point", 1).child("frame", 2)
        np.testing.assert_array_equal(
            a.complex_normal(var=2.0, size=8), b.complex_normal(var=2.0, size=8)
        )

    def test_complex_normal_variance(self):
        rng = RandomSource(99).child("stat")
        z = rng.complex_normal(var=3.0, size=200_000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(3.0, rel=0.02)
