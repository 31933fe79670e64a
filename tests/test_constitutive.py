import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from strainlim import constitutive as con
from strainlim import symtensor as st

import reference_impl as ref


def sample_tensors(rng, d, n, scale=0.8, cap=3.0):
    v = scale * rng.standard_normal((n, st.packed_len(d)))
    r = st.norm(v)
    big = r > cap
    v[big] *= (cap / r[big])[:, None]
    return v


def model_roster(reg_n=None):
    return [
        con.ConstitutiveModel(con.PrototypePotential(1.0), reg_n=reg_n),
        con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=reg_n),
        con.ConstitutiveModel(con.PrototypePotential(10.0), reg_n=reg_n),
        con.ConstitutiveModel(con.PowerLawPotential(1.5), reg_n=reg_n),
        con.ConstitutiveModel(con.PowerLawPotential(3.0), reg_n=reg_n),
        con.ConstitutiveModel(con.LinearPotential(), reg_n=reg_n),
    ]


# ---------------------------------------------------------------------------
# scalar potentials


def test_potential_basics():
    for pot in [
        con.PrototypePotential(1.0),
        con.PrototypePotential(2.0),
        con.PrototypePotential(3.5),
        con.PowerLawPotential(1.5),
        con.LinearPotential(),
    ]:
        assert pot.phi(0.0) == 0.0
        assert pot.dphi_pair(np.zeros(1))[0][0] == 0.0
        s = np.linspace(1e-6, 50.0, 500)
        assert np.all(pot.dphi_pair(s)[1] > 0.0)


def test_prototype_bounds():
    # response below 1 and saturating; curvature decays like 1/(1+s)
    for q in (1.0, 2.0, 10.0):
        pot = con.PrototypePotential(q)
        s = np.linspace(0.0, 100.0, 2000)
        dp, d2 = pot.dphi_pair(s)
        assert np.all(dp < 1.0)
        assert np.all(np.diff(dp) >= -1e-15)
        assert np.all(np.abs(d2) * (1.0 + s) <= 2.0 + 1e-12)
        # linear growth sandwich with unit constants
        ph = pot.phi(s)
        assert np.all(ph <= s + 1e-12)
        assert np.all(ph >= 0.5 * s - 1.0 - 1e-12)


def test_prototype_response_does_not_overflow():
    # s**q overflows past s ~ 1e154 (q=2) or 1e30 (q=10); warnings are errors
    for q, s in ((2.0, 1e155), (10.0, 1e31), (50.0, 1e300)):
        pot = con.PrototypePotential(q)
        one, d2 = pot.dphi_pair(np.array([s]))
        assert abs(one[0] - 1.0) <= 1e-15
        assert 0.0 <= d2[0] <= s ** -(q + 1.0) * (1.0 + 1e-12)
        # each entry of a batch equals its one-row call
        dphi, d2phi = pot.dphi_pair(np.array([s, 0.5]))
        half, half_d2 = pot.dphi_pair(np.array([0.5]))
        assert dphi[0] == one[0] and dphi[1] == half[0]
        assert d2phi[0] == d2[0] and d2phi[1] == half_d2[0]


def test_prototype_pair_matches_closed_forms():
    # dphi = s (1+s^q)^(-1/q), d2phi = (1+s^q)^(-(q+1)/q), evaluated in
    # extended precision, on both sides of s = 1
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("needs an extended-precision long double")
    s = np.concatenate([np.linspace(0.0, 3.0, 301), np.logspace(0.5, 30.0, 300)])
    ulp = np.finfo(float).eps
    for q in (1.0, 2.0, 3.5, 10.0, 50.0):
        dphi, d2phi = con.PrototypePotential(q).dphi_pair(s)
        sl, ql = s.astype(np.longdouble), np.longdouble(q)
        w = 1.0 + sl**ql
        ref_d, ref_d2 = sl * w ** (-1.0 / ql), w ** (-(ql + 1.0) / ql)
        assert np.all(np.abs(dphi - ref_d) <= 4.0 * ulp * ref_d)
        keep = ref_d2 > 1e-290                  # d2phi underflows beyond
        assert np.all(np.abs(d2phi - ref_d2)[keep] <= 4.0 * ulp * ref_d2[keep])
        # the response stays strictly below the limit, also where it rounds to 1
        assert np.all(dphi < 1.0)


def test_prototype_phi_closed_forms():
    p1 = con.PrototypePotential(1.0)
    p2 = con.PrototypePotential(2.0)
    s = np.array([0.0, 0.3, 1.0, 7.0])
    assert np.allclose(p1.phi(s), s - np.log1p(s), rtol=0, atol=1e-15)
    assert np.allclose(p2.phi(s), np.sqrt(1 + s * s) - 1, rtol=0, atol=1e-15)


def test_prototype_phi_general_q_vs_quadrature():
    for q in (1.5, 3.0, 10.0):
        pot = con.PrototypePotential(q)
        for s in (0.1, 0.9, 2.5, 20.0, 300.0):
            ref, _ = quad(lambda t: t * (1 + t**q) ** (-1.0 / q), 0.0, s, limit=200)
            assert abs(float(pot.phi(s)) - ref) <= 1e-10 * (1.0 + ref)


def test_prototype_phi_is_antiderivative():
    # finite differences of phi reproduce dphi
    pot = con.PrototypePotential(3.0)
    s = np.linspace(0.1, 5.0, 40)
    h = 1e-6
    fd = (pot.phi(s + h) - pot.phi(s - h)) / (2 * h)
    assert np.allclose(fd, pot.dphi_pair(s)[0], rtol=1e-8, atol=1e-10)


def test_limit_values():
    assert con.limit_L(con.ConstitutiveModel(con.PrototypePotential(1.0))) == 1.0
    assert con.limit_L(con.ConstitutiveModel(con.PrototypePotential(10.0))) == 1.0
    assert con.limit_L(con.ConstitutiveModel(con.PowerLawPotential(2.0))) == np.inf
    assert con.limit_L(con.ConstitutiveModel(con.LinearPotential())) == np.inf


def test_parameter_validation():
    with pytest.raises(ValueError):
        con.PrototypePotential(0.5)
    with pytest.raises(ValueError):
        con.PowerLawPotential(1.0)
    with pytest.raises(ValueError):
        con.ConstitutiveModel(con.LinearPotential(), alpha=0.0)
    with pytest.raises(ValueError):
        con.ConstitutiveModel(con.LinearPotential(), beta=-1.0)
    with pytest.raises(ValueError):
        con.ConstitutiveModel(con.LinearPotential(), reg_n=0)


# ---------------------------------------------------------------------------
# map evaluation


def test_g_apply_spot_values():
    q2 = con.ConstitutiveModel(con.PrototypePotential(2.0))
    # T/sqrt(1+T^2) at T=1
    assert abs(float(con.g_apply(q2, np.array([1.0]))[0]) - 1 / np.sqrt(2)) < 1e-14
    q1 = con.ConstitutiveModel(con.PrototypePotential(1.0))
    # t/(1+t) at t=3
    assert abs(float(con.g_apply(q1, np.array([3.0]))[0]) - 0.75) < 1e-14
    for model in model_roster() + model_roster(16):
        assert np.all(con.g_apply(model, np.zeros(6)) == 0.0)


def test_g_apply_bounded_by_limit():
    rng = np.random.default_rng(10)
    for q in (1.0, 2.0, 10.0):
        model = con.ConstitutiveModel(con.PrototypePotential(q))
        for d in (1, 2, 3):
            T = 5.0 * rng.standard_normal((2000, st.packed_len(d)))
            assert np.all(st.norm(con.g_apply(model, T)) <= 1.0)


def test_g_apply_coercivity_prototype():
    # G(T):T >= |T| - 2 for the bounded-response family
    rng = np.random.default_rng(11)
    model = con.ConstitutiveModel(con.PrototypePotential(2.0))
    T = 10.0 * rng.standard_normal((5000, 3))
    pairing = st.dot(con.g_apply(model, T), T)
    assert np.all(pairing >= st.norm(T) - 2.0)


def test_monotonicity_sweep():
    rng = np.random.default_rng(12)
    for model in model_roster() + model_roster(16):
        for d in (1, 3):
            A = sample_tensors(rng, d, 2000)
            B = sample_tensors(rng, d, 2000)
            gap = st.dot(con.g_apply(model, A) - con.g_apply(model, B), A - B)
            assert np.all(gap >= -1e-14)


def test_regularized_strict_monotonicity():
    rng = np.random.default_rng(13)
    model = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=8)
    A = sample_tensors(rng, 2, 500)
    B = sample_tensors(rng, 2, 500)
    gap = st.dot(con.g_apply(model, A) - con.g_apply(model, B), A - B)
    assert np.all(gap > 0.0)


def test_g_apply_rejects_nonfinite():
    model = con.ConstitutiveModel(con.LinearPotential())
    with pytest.raises(ValueError):
        con.g_apply(model, np.array([np.nan]))


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_at_zero():
    model = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=10)
    J = con.g_jacobian(model, np.zeros((1, 3)))
    assert np.allclose(J, 1.1 * np.eye(3), rtol=0, atol=1e-14)
    # a batch mixing zero and nonzero rows gives every row what its
    # one-row call gives, and h'(0) times the identity at the zero rows
    rng = np.random.default_rng(28)
    for model in model_roster() + model_roster(16):
        h0 = con.response_pair(model, np.zeros(1))[1][0]
        for d in (1, 2, 3):
            m = st.packed_len(d)
            T = sample_tensors(rng, d, 8)
            T[::3] = 0.0
            J = con.g_jacobian(model, T)
            for i in range(len(T)):
                alone = con.g_jacobian(model, T[i:i + 1])[0]
                assert np.array_equal(J[i], alone)
            # p < 2 has h'(0) = inf: an inf diagonal, zeros off it
            want = np.where(np.eye(m, dtype=bool), h0, 0.0)
            assert np.array_equal(J[::3], np.broadcast_to(want, J[::3].shape))
    model = con.ConstitutiveModel(con.PowerLawPotential(1.5))
    J = con.g_jacobian(model, np.zeros((2, 3)))
    assert np.all(np.isposinf(np.diagonal(J, axis1=1, axis2=2)))
    assert np.all(J[:, ~np.eye(3, dtype=bool)] == 0.0)


def test_huge_stress_does_not_overflow():
    # |T|^2 overflows past |T| ~ 1e154; warnings are errors.  The power
    # law p = 3 is left out: its response r^2 itself overflows there
    rng = np.random.default_rng(29)
    models = [mdl for mdl in model_roster() + model_roster(16)
              if getattr(mdl.potential, "p", 0.0) != 3.0]
    for model in models:
        for d in (1, 2, 3):
            m = st.packed_len(d)
            T = sample_tensors(rng, d, 12) * 10.0 ** rng.uniform(-3.0, 150.0, (12, 1))
            huge = np.zeros((3, m))
            huge[0, 0] = 1e200
            huge[1] = -3e250 * rng.uniform(0.5, 1.0, m)
            huge[2, -1] = 1e308
            both = np.concatenate([T, huge])
            G = con.g_apply(model, both)
            B = con.tangent_inverse_blocks(model, both)
            J = con.g_jacobian(model, both)
            # rows up to 1e150 keep the bits of the plain norm's formulas
            r = st.norm(T)
            h = con.response_pair(model, r)[0]
            assert np.array_equal(G[:12], (h / r)[:, None] * T)
            assert np.array_equal(B[:12], con.tangent_inverse_blocks(model, T))
            assert np.array_equal(J[:12], con.g_jacobian(model, T))
            # huge rows: G = h(r)/r T and the blocks I / h' (there the
            # tangential and radial eigenvalues agree, or both are floored)
            w = np.max(np.abs(huge), axis=-1)
            rh = w * st.norm(huge / w[:, None])
            hh, dh = con.response_pair(model, rh)
            assert np.all(np.isfinite(G[12:])) and np.all(np.isfinite(B[12:]))
            assert np.allclose(G[12:], (hh / rh)[:, None] * huge, rtol=1e-14, atol=0.0)
            assert np.allclose(B[12:], np.eye(m) / np.maximum(dh, 1e-12)[:, None, None],
                               rtol=1e-10, atol=0.0)
            assert np.all(np.isfinite(J[12:]))


def test_jacobian_symmetry_and_fd():
    rng = np.random.default_rng(14)
    for model in model_roster() + model_roster(16):
        for d in (1, 2, 3):
            T = sample_tensors(rng, d, 30, scale=1.0, cap=4.0)
            J = con.g_jacobian(model, T)
            assert np.array_equal(J, np.swapaxes(J, -1, -2))
            E = rng.standard_normal(T.shape)
            E /= st.norm(E)[:, None]
            h = 1e-5
            fd = (con.g_apply(model, T + h * E) - con.g_apply(model, T - h * E)) / (2 * h)
            JE = np.einsum("nij,nj->ni", J, E)
            assert np.all(st.norm(fd - JE) <= 1e-6)


def test_jacobian_fd_error_decays_quadratically():
    model = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=16)
    rng = np.random.default_rng(15)
    T = sample_tensors(rng, 3, 1, scale=1.0)
    E = rng.standard_normal(T.shape)
    E /= st.norm(E)[:, None]
    J = con.g_jacobian(model, T)
    JE = np.einsum("nij,nj->ni", J, E)
    errs = []
    for h in (1e-2, 1e-3):
        fd = (con.g_apply(model, T + h * E) - con.g_apply(model, T - h * E)) / (2 * h)
        errs.append(float(st.norm(fd - JE)[0]))
    ratio = errs[0] / errs[1]
    assert 30.0 < ratio < 300.0


def test_jacobian_spd():
    rng = np.random.default_rng(16)
    model = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=4)
    T = sample_tensors(rng, 3, 100)
    J = con.g_jacobian(model, T)
    eigs = np.linalg.eigvalsh(J)
    assert np.all(eigs > 0.0)


def test_jacobian_eigenvalues_match_eigvalsh():
    rng = np.random.default_rng(17)
    model = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=10)
    T = sample_tensors(rng, 3, 50, scale=2.0, cap=10.0)
    tang, radial = con.jacobian_eigenvalues(model, T)
    eigs = np.linalg.eigvalsh(con.g_jacobian(model, T))
    lo = np.minimum(tang, radial)
    hi = np.maximum(tang, radial)
    assert np.allclose(eigs[:, 0], lo, rtol=1e-12, atol=1e-14)
    assert np.allclose(eigs[:, -1], hi, rtol=1e-12, atol=1e-14)


def test_jacobian_norm_bound_sweep():
    # operator norm <= 3*(1/n + 1/(1+|T|)) for the saturating family
    for n in (1, 10, 100):
        model = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=n)
        for mag in (0.0, 0.1, 1.0, 10.0, 100.0):
            T = mag * np.array([[1.0, -0.3, 0.2]]) / np.linalg.norm([1.0, -0.3, 0.2])
            assert con.jacobian_norm_bound_check(model, T)
    big = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=100)
    assert con.jacobian_norm_bound_check(big, np.array([[1000.0]]))
    with pytest.raises(ValueError):
        con.jacobian_norm_bound_check(con.ConstitutiveModel(con.PrototypePotential(2.0)),
                                      np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# inversion


def test_invert_spot_value():
    model = con.ConstitutiveModel(con.PrototypePotential(2.0))
    # inverse of e -> e/sqrt(1+e^2) is e -> e/sqrt(1-e^2): 0.6 -> 0.75
    T = con.invert(model, np.array([0.6]))
    assert abs(float(T[0]) - 0.75) < 1e-12


def test_invert_zero():
    for model in model_roster() + model_roster(16):
        assert np.all(con.invert(model, np.zeros((1, 3))) == 0.0)


def test_invert_supercritical_raises():
    model = con.ConstitutiveModel(con.PrototypePotential(2.0))
    with pytest.raises(con.SupercriticalStrainError):
        con.invert(model, np.array([1.0]))
    with pytest.raises(con.SupercriticalStrainError):
        con.invert(model, np.array([0.9, 0.9, 0.0]))


def test_invert_near_limit_unregularized():
    model = con.ConstitutiveModel(con.PrototypePotential(2.0))
    E = np.array([0.999999])
    T = con.invert(model, E)
    back = con.g_apply(model, T)
    assert np.all(np.abs(back - E) <= 1e-12 * (1.0 + st.norm(E)))


def test_round_trip_both_directions():
    rng = np.random.default_rng(18)
    for model in model_roster() + model_roster(16):
        for d in (1, 2, 3):
            T = sample_tensors(rng, d, 1000)
            E = con.g_apply(model, T)
            T_rec = con.invert(model, E)
            assert np.all(st.norm(T_rec - T) <= 1e-10)
            E_rec = con.g_apply(model, T_rec)
            assert np.all(st.norm(E_rec - E) <= 1e-10)


def test_invert_collinear_with_input():
    rng = np.random.default_rng(19)
    model = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=16)
    E = sample_tensors(rng, 3, 200)
    T = con.invert(model, E)
    cross = T - (st.dot(T, E) / st.dot(E, E))[:, None] * E
    assert np.all(st.norm(cross) <= 1e-12 * st.norm(T))


def test_invert_warm_start_consistent():
    rng = np.random.default_rng(20)
    model = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=64)
    E = sample_tensors(rng, 2, 300)
    cold = con.invert(model, E)
    warm = con.invert(model, E + 1e-3 * rng.standard_normal(E.shape), warm_stress=cold)
    again = con.invert(model, E, warm_stress=warm)
    assert np.all(st.norm(again - cold) <= 1e-10)


def test_tensor_route_matches_radial():
    rng = np.random.default_rng(21)
    for model in [
        con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=16),
        con.ConstitutiveModel(con.PrototypePotential(1.0)),
    ]:
        E = sample_tensors(rng, 2, 100, scale=0.3, cap=0.9)
        a = con.invert(model, E)
        b = ref.invert_tensor(model, E)
        assert np.all(st.norm(a - b) <= 1e-9 * (1.0 + st.norm(a)))


def test_invert_radius_nonconvergence_raises(monkeypatch):
    model = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=16)
    monkeypatch.setattr(con, "INVERT_MAX_ITER", 0)
    with pytest.raises(con.NewtonConvergenceError):
        con.invert_radius(model, np.array([0.5]))


def _reference_invert_radius(model, s, warm=None, tol=1e-12, max_iter=100, slope=None):
    """The regularized branch of invert_radius written plainly: separate
    h and h' evaluations and np.where updates.  The reference that the
    in-place kernel must reproduce.  slope, the (s_w, h'_w) of the
    inversion that gave warm, stands in for the first evaluation."""
    s = np.asarray(s, dtype=float)
    inv = 1.0 / model.reg_n
    hi = s / inv
    if not np.isfinite(model.potential.limit):
        with np.errstate(over="ignore"):
            hi = np.minimum(hi, model.potential.dphi_inv(s))
    lo = np.zeros_like(s)
    d0 = float(con.response_pair(model, np.zeros(1))[1][0])
    if warm is not None:
        x = np.clip(np.asarray(warm, dtype=float), lo, hi)
    elif np.isfinite(d0) and d0 > 0.0:
        x = np.minimum(hi, s / d0)
    else:
        x = 0.5 * hi
    x = np.where(s == 0.0, 0.0, x)
    target = tol * (1.0 + s)
    done = s == 0.0
    for k in range(max_iter):
        if slope is not None and k == 0:
            f, d = slope[0] - s, slope[1]
        else:
            f = con.response_pair(model, x)[0] - s
            done = done | (np.abs(f) <= target)
            if np.all(done):
                break
            d = con.response_pair(model, np.where(~done, x, 1.0))[1]
        act = ~done
        hi = np.where(act & (f > 0.0), x, hi)
        lo = np.where(act & (f < 0.0), x, lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(act & (d > 0.0) & np.isfinite(d), f / d, 0.0)
        xn = x - step
        bad = act & ~((xn > lo) & (xn < hi) & np.isfinite(xn))
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        x = np.where(act, xn, x)
    else:
        raise con.NewtonConvergenceError("reference stalled")
    # the second polish step is taken only on the rows (last axis) where some
    # first step exceeds 2**-26 of its radius
    again = True
    for _ in range(2):
        f = con.response_pair(model, x)[0] - s
        d = con.response_pair(model, np.where(x > 0.0, x, 1.0))[1]
        d = np.where((x > 0.0) & np.isfinite(d) & (d > 0.0), d, 1.0)
        step = f / d
        step = np.where(np.isfinite(step) & again, step, 0.0)
        x = np.maximum(0.0, x - step)
        again = np.any(np.abs(step) > 2.0**-26 * x, axis=-1, keepdims=True)
    return x


_KERNEL_MODELS = [con.PrototypePotential(q) for q in (1.0, 2.0, 10.0)] + [
    con.PowerLawPotential(1.5)]


@pytest.mark.parametrize("pot", _KERNEL_MODELS, ids=["q1", "q2", "q10", "power1.5"])
@pytest.mark.parametrize("reg_n", [4, 16, 64, 256])
def test_invert_radius_matches_reference(pot, reg_n):
    model = con.ConstitutiveModel(pot, reg_n=reg_n)
    rng = np.random.default_rng(25)
    s = np.concatenate([[0.0], np.linspace(1e-9, 3.0, 400), rng.uniform(0.0, 3.0, 400),
                        10.0 ** rng.uniform(-300.0, 300.0, 100)])
    cold = con.invert_radius(model, s)
    ref = _reference_invert_radius(model, s)
    assert np.all(np.abs(cold - ref) <= 1e-14 * ref)
    warm = ref * (1.0 + 0.05 * rng.standard_normal(s.size))
    ref_w = _reference_invert_radius(model, s, warm=warm)
    assert np.all(np.abs(con.invert_radius(model, s, warm=warm) - ref_w) <= 1e-14 * ref_w)


@pytest.mark.parametrize("pot", _KERNEL_MODELS, ids=["q1", "q2", "q10", "power1.5"])
@pytest.mark.parametrize("reg_n", [4, 16, 64, 256])
def test_invert_radius_from_a_carried_slope_matches_reference(pot, reg_n):
    # the next inversion starts from the targets and slopes the last one
    # returned, in place of an evaluation at its radii; some targets stay
    model = con.ConstitutiveModel(pot, reg_n=reg_n)
    rng = np.random.default_rng(28)
    s = np.concatenate([[0.0], np.linspace(1e-9, 3.0, 400), rng.uniform(0.0, 3.0, 400),
                        10.0 ** rng.uniform(-300.0, 300.0, 100)])
    s_w = s * (1.0 + 0.05 * rng.standard_normal(s.size))
    s_w[::7] = s[::7]
    r_w, slope = con.invert_radius(model, s_w, return_slope=True)
    assert np.array_equal(slope[0], s_w)
    got = con.invert_radius(model, s, warm=r_w, slope=slope)
    ref = _reference_invert_radius(model, s, warm=r_w, slope=slope)
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)
    assert np.all(np.abs(con.response_pair(model, got)[0] - s) <= 1e-12 * (1.0 + s))


@pytest.mark.parametrize("pot", _KERNEL_MODELS, ids=["q1", "q2", "q10", "power1.5"])
def test_invert_radius_mixed_reg_n_batch_with_a_carried_slope_matches_separate_calls(pot):
    reg_ns = [4, 16, 64, 256]
    rng = np.random.default_rng(29)
    s = np.concatenate([[0.0], rng.uniform(0.0, 3.0, 150), 10.0 ** rng.uniform(-300.0, 300.0, 50)])
    S = np.stack([rng.permutation(s) for _ in reg_ns])
    S_next = S * (1.0 + 1e-3 * rng.standard_normal(S.shape))
    models = [con.ConstitutiveModel(pot, reg_n=n) for n in reg_ns]
    inv_n = np.array([[1.0 / n] for n in reg_ns])
    R, slope = con.invert_radius(models[0], S, inv_n=inv_n, return_slope=True)
    batch = con.invert_radius(models[0], S_next, warm=R, inv_n=inv_n, slope=slope)
    for i, model in enumerate(models):
        r, own = con.invert_radius(model, S[i], return_slope=True)
        assert np.array_equal(r, R[i]) and np.array_equal(own, slope[:, i]), reg_ns[i]
        alone = con.invert_radius(model, S_next[i], warm=r, slope=own)
        assert np.array_equal(batch[i], alone), reg_ns[i]


@pytest.mark.parametrize("pot", _KERNEL_MODELS, ids=["q1", "q2", "q10", "power1.5"])
def test_invert_radius_mixed_reg_n_batch_matches_separate_calls(pot):
    # one call over the members of a regularization sweep, each row with
    # its own 1/n, gives every row bit for bit what its own call gives
    reg_ns = [4, 16, 64, 256]
    rng = np.random.default_rng(26)
    s = np.concatenate([[0.0], rng.uniform(0.0, 3.0, 150), 10.0 ** rng.uniform(-300.0, 300.0, 50)])
    # every member sees the same magnitudes, in its own order
    S = np.stack([rng.permutation(s) for _ in reg_ns])
    W = S * (1.0 + 0.05 * rng.standard_normal(S.shape))
    models = [con.ConstitutiveModel(pot, reg_n=n) for n in reg_ns]
    inv_n = np.array([[1.0 / n] for n in reg_ns])
    for warm in (None, W):
        batch = con.invert_radius(models[0], S, warm=warm, inv_n=inv_n)
        for i, model in enumerate(models):
            alone = con.invert_radius(model, S[i], warm=None if warm is None else warm[i])
            assert np.array_equal(batch[i], alone), (reg_ns[i], warm is None)


def test_invert_mixed_reg_n_batch_matches_separate_calls():
    reg_ns = [4, 16, 64, 256]
    rng = np.random.default_rng(27)
    E = 2.0 * rng.standard_normal((len(reg_ns), 300, 3))
    models = [con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=n) for n in reg_ns]
    inv_n = np.array([[1.0 / n] for n in reg_ns])
    cold = con.invert(models[0], E, inv_n=inv_n)
    warm = con.invert(models[0], E, warm_stress=1.1 * cold, inv_n=inv_n)
    for i, model in enumerate(models):
        assert np.array_equal(cold[i], con.invert(model, E[i]))
        assert np.array_equal(warm[i], con.invert(model, E[i], warm_stress=1.1 * cold[i]))


@settings(max_examples=200, deadline=None, database=None)
@given(s=hs.floats(0.0, 1e300), q=hs.floats(1.0, 50.0),
       reg_n=hs.sampled_from([1, 4, 64, 256, 10**6]))
def test_invert_radius_any_magnitude(s, q, reg_n):
    model = con.ConstitutiveModel(con.PrototypePotential(q), reg_n=reg_n)
    r = con.invert_radius(model, np.array([s]))
    assert np.isfinite(r[0]) and r[0] >= 0.0
    assert abs(con.response_pair(model, r)[0][0] - s) <= 1e-12 * (1.0 + s)
    # a function-scoped monkeypatch fixture would be shared across examples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(con, "INVERT_MAX_ITER", 0)
        with pytest.raises(con.NewtonConvergenceError):
            con.invert_radius(model, np.array([s]))


@settings(max_examples=300, deadline=None, database=None)
@given(s=hs.floats(0.0, 1e300), p=hs.floats(1.1, 5.0),
       reg_n=hs.sampled_from([4, 16, 64, 256]), warm=hs.floats(0.0, 1e300))
def test_invert_radius_power_law_any_magnitude(s, p, reg_n, warm):
    # an unbounded potential bounds the root by dphi_inv(s) too, so dphi
    # neither overflows nor stalls Newton at large |E|
    model = con.ConstitutiveModel(con.PowerLawPotential(p), reg_n=reg_n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in (None, np.array([warm])):
            r = float(con.invert_radius(model, np.array([s]), warm=start)[0])
            assert np.isfinite(r) and r >= 0.0
            assert abs(con.response_pair(model, np.array([r]))[0][0] - s) <= 1e-12 * (1.0 + s)


# ---------------------------------------------------------------------------
# conjugates and dissipation


def test_phi_star_spot_values():
    p2 = con.PrototypePotential(2.0)
    # conjugate of sqrt(1+s^2)-1 is 1-sqrt(1-e^2): 0.6 -> 0.2
    assert abs(con.phi_star(p2, 0.6) - 0.2) < 1e-14
    assert con.phi_star(p2, 0.0) == 0.0
    p1 = con.PrototypePotential(1.0)
    assert con.phi_star(p1, 1.0) == np.inf
    assert con.phi_star(p2, 1.3) == np.inf


def test_phi_star_matches_root_find():
    for pot in [con.PrototypePotential(1.0), con.PrototypePotential(3.0), con.PowerLawPotential(2.5)]:
        for e in (0.05, 0.4, 0.85):
            a = con.phi_star(pot, e)
            b = ref.phi_star_root(pot, e)
            assert abs(a - b) < 1e-11


def test_phi_star_convex_midpoint():
    rng = np.random.default_rng(22)
    pot = con.PrototypePotential(2.0)
    a = rng.uniform(0.0, 0.99, 300)
    b = rng.uniform(0.0, 0.99, 300)
    lhs = con.phi_star(pot, (a + b) / 2)
    rhs = (con.phi_star(pot, a) + con.phi_star(pot, b)) / 2
    assert np.all(lhs <= rhs + 1e-12)


def test_effective_conjugate_matches_sup():
    model = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=4)

    def psi(r):
        return float(model.potential.phi(r)) + r * r / 8.0

    for e in (0.3, 0.9, 1.4):
        res = minimize_scalar(lambda r: -(e * r - psi(r)), bounds=(0.0, 50.0), method="bounded",
                              options={"xatol": 1e-12})
        ref = -res.fun
        assert abs(con.effective_conjugate(model, np.array([e]))[0] - ref) < 1e-9
    # without regularizer it is the plain conjugate
    plain = con.ConstitutiveModel(con.PrototypePotential(2.0))
    e = np.array([0.6, 1.2])
    assert np.array_equal(con.effective_conjugate(plain, e), con.phi_star(plain.potential, e))
    assert con.effective_conjugate(plain, e)[1] == np.inf


def test_fenchel_residual():
    model = con.ConstitutiveModel(con.PrototypePotential(2.0))
    assert float(con.fenchel_residual(model, np.zeros(3))) == 0.0
    # closed forms at T=1: phi=sqrt(2)-1, G=1/sqrt(2), phi*(G)=1-sqrt(1/2)
    assert float(con.fenchel_residual(model, np.array([1.0]))) <= 1e-10
    rng = np.random.default_rng(23)
    for m in model_roster() + model_roster(16):
        for d in (1, 2, 3):
            T = sample_tensors(rng, d, 1000)
            res = con.fenchel_residual(m, T)
            assert np.all(res <= 1e-8 * (1.0 + st.norm(T)))


def test_dissipation_pair():
    # the pairing of two stresses and their images under G
    def pair(m, A, B):
        return con.dissipation_pair(A, B, con.g_apply(m, A), con.g_apply(m, B))

    model = con.ConstitutiveModel(con.PrototypePotential(2.0))
    T = np.array([2.0])
    T0 = np.array([1.0])
    assert pair(model, T, T) == 0.0
    # (2-1)*(2/sqrt(5) - 1/sqrt(2))
    ref = 2 / np.sqrt(5) - 1 / np.sqrt(2)
    assert abs(float(pair(model, T, T0)) - ref) < 1e-14
    rng = np.random.default_rng(24)
    for m in model_roster() + model_roster(16):
        A = sample_tensors(rng, 3, 2000)
        B = sample_tensors(rng, 3, 2000)
        assert np.all(pair(m, A, B) >= -1e-14)
