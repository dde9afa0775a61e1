import math

import numpy as np
import pytest

from conftest import css_amplitudes_reference, dense_matrix

from cavsqueeze.dicke import (
    STATE_DIM_CAP,
    Tridiagonal,
    build_operators,
    css_support,
    expectation,
    m_values,
    make_css,
    raising_coefficients,
    variance,
)
from cavsqueeze.params import EnsembleSpec


def _ops(s):
    """Dense S_z, S_x from the stored bands, and S_y := -i[S_z, S_x]."""
    ops = build_operators(EnsembleSpec(total_spin=s))
    sz, sx = dense_matrix(ops.sz), dense_matrix(ops.sx)
    return sz, sx, -1j * (sz @ sx - sx @ sz)


def test_spin_half_matrices_are_half_paulis():
    sz, sx, sy = _ops(0.5)
    assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(sz, [[0.5, 0], [0, -0.5]])


def test_spin_one_sz_descending():
    sz, sx, sy = _ops(1.0)
    assert np.allclose(np.diag(sz), [1.0, 0.0, -1.0])
    assert np.array_equal(np.diag(sz), m_values(1.0))
    # S_+ has c_m = <m+1|S_+|m> above the diagonal, and S_x + i S_y is S_+
    assert np.allclose(raising_coefficients(1.0), [math.sqrt(2.0)] * 2)
    assert np.allclose(sx + 1j * sy, np.diag(raising_coefficients(1.0), 1))


def test_operator_invariants_sweep():
    # commutator, Casimir and CSS invariants over S = 1/2, 1, ..., 100; S_y = -i[S_z, S_x]
    # makes [S_z, S_x] = i S_y hold by construction, so the other two commutators check both bands
    for two_s in range(1, 201):
        s = two_s / 2.0
        sz, sx, sy = _ops(s)
        eye = np.eye(two_s + 1)
        # matmul roundoff grows as S^2 eps, so the 1e-12 budget scales with S
        comm_tol = 1e-12 * max(1.0, s)
        comm = sx @ sy - sy @ sx
        assert np.max(np.abs(comm - 1j * sz)) < comm_tol, f"[sx,sy] failed at S={s}"
        comm = sy @ sz - sz @ sy
        assert np.max(np.abs(comm - 1j * sx)) < comm_tol, f"[sy,sz] failed at S={s}"
        casimir = sx @ sx + sy @ sy + sz @ sz
        assert np.max(np.abs(casimir - s * (s + 1) * eye)) < 1e-10, f"Casimir failed at S={s}"

        css = make_css(EnsembleSpec(total_spin=s))
        assert abs(np.sum(np.abs(css) ** 2) - 1.0) < 1e-12
        assert abs(expectation(css, sx).real - s) < 1e-10, f"<Sx> failed at S={s}"
        assert abs(expectation(css, sz)) < 1e-12, f"<Sz> failed at S={s}"
        sz2 = expectation(css, sz @ sz).real
        assert abs(sz2 - s / 2.0) < 1e-10, f"<Sz^2> = S/2 failed at S={s}"


def test_css_small_amplitudes():
    amps = make_css(EnsembleSpec(0.5))
    assert np.allclose(amps, [1 / math.sqrt(2)] * 2, atol=1e-15)
    amps = make_css(EnsembleSpec(1.0))
    assert np.allclose(amps, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-15)


def test_css_s50_mean_and_variance():
    # independent evaluation through the operator bands; S = 1000 is the perfbench dense CSS call shape,
    # make_css's complex vector passed straight to expectation and variance
    for s in (50.0, 1000.0):
        spec = EnsembleSpec(s)
        ops = build_operators(spec)
        css = make_css(spec)
        assert css.dtype == complex and np.array_equal(css, css_amplitudes_reference(s).astype(complex)), s
        assert expectation(css, ops.sx).real == pytest.approx(s, rel=1e-12), s
        assert variance(css, ops.sz) == pytest.approx(s / 2.0, rel=1e-12), s


def test_css_large_spin_log_space():
    # binomial amplitudes must survive S = 1e4 without under/overflow
    css = make_css(EnsembleSpec(1e4))
    total = float(np.sum(np.abs(css) ** 2))
    assert abs(total - 1.0) < 1e-12


def test_css_amplitudes_equal_the_full_range_build_while_the_window_is_whole():
    # up to 2S = 5979 the window of css_support spans every k, so padding it
    # changes nothing: the same bits as the full-range build, half-integers included
    for two_s in [*range(1, 201), *range(201, 5900, 97), 5899, 5900]:
        s = two_s / 2.0
        first_k, a = css_support(s)
        assert first_k == 0 and len(a) == two_s + 1, s
        assert np.array_equal(make_css(EnsembleSpec(s)).real, css_amplitudes_reference(s)), s


@pytest.mark.parametrize("s", [2990.0, 1e4, 12345.5, 1e5])
def test_css_window_holds_every_nonzero_amplitude(s):
    # outside the window the full-range amplitudes are exactly 0.0; inside
    # only the normalisation's summation order differs
    first_k, a = css_support(s)
    ref = css_amplitudes_reference(s)
    full = make_css(EnsembleSpec(s)).real
    # the window k = first_k..2S-first_k is symmetric, as either order of m needs
    assert first_k > 0 and first_k + len(a) - 1 == round(2 * s) - first_k
    window = slice(first_k, first_k + len(a))
    outside = np.ones(len(ref), dtype=bool)
    outside[window] = False
    assert np.count_nonzero(ref[outside]) == 0
    assert np.max(np.abs(a - ref[window]) / np.maximum(ref[window], np.finfo(float).tiny)) <= 5e-16
    assert len(full) == len(ref) and np.count_nonzero(full[outside]) == 0 and np.array_equal(full[window], a)


def test_css_window_grows_as_sqrt_s():
    # 25,987 of the 200,001 amplitudes at S = 1e5 (24,333 of them nonzero)
    assert len(css_support(1e5)[1]) < 30_000


def test_bands_match_dense_products():
    # op @ v on the bands equals the assembled matrix times v
    rng = np.random.default_rng(3)
    spec = EnsembleSpec(7.5)
    ops = build_operators(spec)
    v = rng.normal(size=spec.dicke_dim) + 1j * rng.normal(size=spec.dicke_dim)
    for name in ("sz", "sx"):
        op = getattr(ops, name)
        assert np.max(np.abs(op @ v - dense_matrix(op) @ v)) < 1e-13, name


def test_band_invariants_large_spin():
    # at S = 2000, where the dense matrices would be 4001^2 arrays: [S_z, [S_z, S_x]] v = S_x v and
    # [S_+, S_-] v = 2 S_z v on a random vector, with S_+/- the bands of raising_coefficients, and
    # <S_x> = S, Var S_z = S/2 on the CSS
    s = 2000.0
    spec = EnsembleSpec(s)
    ops = build_operators(spec)
    v = np.random.default_rng(5).normal(size=spec.dicke_dim)
    sz, sx = ops.sz, ops.sx
    double = sz @ (sz @ (sx @ v)) - 2.0 * (sz @ (sx @ (sz @ v))) + sx @ (sz @ (sz @ v))
    assert np.max(np.abs(double - sx @ v)) < 1e-15 * s ** 3  # roundoff of terms ~S^3: 2.5e-6 here
    c, zeros = raising_coefficients(s), np.zeros(spec.dicke_dim - 1)
    sp, sm = Tridiagonal(zeros, np.zeros(spec.dicke_dim), c), Tridiagonal(c, np.zeros(spec.dicke_dim), zeros)
    comm = sp @ (sm @ v) - sm @ (sp @ v)
    assert np.max(np.abs(comm - 2.0 * (sz @ v))) < 1e-12 * s * s
    css = make_css(spec)
    assert expectation(css, sx).real == pytest.approx(s, rel=1e-12)
    assert variance(css, sz) == pytest.approx(s / 2.0, rel=1e-12)


def test_dimension_cap():
    spec = EnsembleSpec(total_spin=(STATE_DIM_CAP + 1) / 2.0)
    with pytest.raises(ValueError, match="cap"):
        build_operators(spec)
