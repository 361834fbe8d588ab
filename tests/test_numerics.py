"""Tests for the shared complex-vector primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmlink.numerics import (
    CONDITION_LIMIT,
    ConfigurationError,
    RandomSource,
    SingularMatrixError,
    condition_number,
    conj_mirror,
    dft,
    idft,
    solve_regularized,
    well_conditioned,
)


def gauss_solve(a, b):
    """Independent elimination oracle: partial-pivot Gaussian elimination."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    aug = np.concatenate([a, b.reshape(n, -1)], axis=1)
    for col in range(n):
        piv = col + np.argmax(np.abs(aug[col:, col]))
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n:].reshape(b.shape)


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


class TestSolveRegularized:
    def test_identity_passthrough(self):
        b = np.arange(6, dtype=complex).reshape(3, 2)
        np.testing.assert_allclose(solve_regularized(np.eye(3), 0.0, b), b)

    def test_pure_regularizer(self):
        b = np.array([1 + 2j, 3.0, -1j])
        np.testing.assert_allclose(solve_regularized(np.zeros((3, 3)), 1.0, b), b)

    def test_against_elimination_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            np.testing.assert_allclose(
                solve_regularized(a, 0.0, b), gauss_solve(a, b), rtol=1e-9, atol=1e-9
            )

    def test_residual_contract(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        x = solve_regularized(a, 0.5, b)
        resid = np.linalg.norm((a + 0.5 * np.eye(5)) @ x - b) / np.linalg.norm(b)
        assert resid < 1e-10

    def test_singular_raises_with_context(self):
        a = np.ones((3, 3), dtype=complex)
        with pytest.raises(SingularMatrixError, match="detector setup"):
            solve_regularized(a, 0.0, np.ones(3), context="detector setup")

    def test_condition_guard(self):
        a = np.diag([1.0, 1e-14]).astype(complex)
        with pytest.raises(SingularMatrixError, match="condition number"):
            solve_regularized(a, 0.0, np.ones(2))

    def test_hermitian_fast_path_agrees(self):
        rng = np.random.default_rng(23)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = m.conj().T @ m + np.eye(4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(
            solve_regularized(a, 0.1, b, hermitian=True),
            solve_regularized(a, 0.1, b),
            rtol=1e-12,
        )

    def test_negative_regularizer_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_regularized(np.eye(2), -1.0, np.ones(2))


def eigvalsh_verdicts(stack):
    """The reference guard: finite entries and eigenvalue condition within the limit."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    out = np.zeros(finite.shape, dtype=bool)
    if finite.any():
        out[finite] = condition_number(stack[finite], hermitian=True) <= CONDITION_LIMIT
    return out


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

    def test_nan_in_the_unread_triangle_is_rejected(self):
        # eigvalsh reads one triangle only and returns finite eigenvalues.
        a = np.eye(3, dtype=complex)
        a[0, 2] = np.nan
        assert np.isfinite(condition_number(a, hermitian=True))
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
        with pytest.raises(SingularMatrixError, match="condition number"):
            solve_regularized(np.diag([1.0, 1e-14]), 0.0, np.ones(2), hermitian=True)


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
