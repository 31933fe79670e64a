import numpy as np
import pytest

from strainlim import constitutive as con
from strainlim import fespace as fe
from strainlim import scenarios as sc
from strainlim import symtensor as st


def proto_model(q=2.0, alpha=1.0, beta=0.1):
    return con.ConstitutiveModel(con.PrototypePotential(q), alpha=alpha, beta=beta)


def sample_points(dim, rng, n=60):
    return rng.uniform(0.07, 0.93, size=(n, dim))


# ---------------------------------------------------------------------------
# analytic fields


def test_zero_field_shapes():
    f = sc.zero_field(2)
    X = np.zeros((5, 2))
    assert f.value(0.0, X).shape == (5, 2)
    assert f.grad(0.0, X).shape == (5, 2, 2)
    assert np.all(f.dtt_value(1.0, X) == 0.0)


def test_bump_support_and_peak():
    s = np.array([-1.5, -1.0, 0.0, 0.999999, 1.0, 2.0])
    b = sc._bump(s)
    assert b[0] == 0.0 and b[1] == 0.0 and b[4] == 0.0 and b[5] == 0.0
    assert b[2] == 1.0
    # derivative vanishes smoothly at the support edge
    assert abs(sc._bump_prime(np.array([0.9999]))[0]) < 1e-30
    # centered finite difference agrees with bump_prime in the interior
    h = 1e-6
    for x in (0.2, -0.5, 0.73):
        fd = (sc._bump(np.array([x + h])) - sc._bump(np.array([x - h])))[0] / (2 * h)
        assert abs(fd - sc._bump_prime(np.array([x]))[0]) < 1e-7


def test_fd_consistency_flags_wrong_derivative():
    f = sc.AnalyticField(
        1,
        value=lambda t, X: np.cos(t) * X,
        dt_value=lambda t, X: np.cos(t) * X,  # wrong on purpose
    )
    X = np.linspace(0.1, 0.9, 7)[:, None]
    assert f.fd_consistency(0.8, X) > 1e-2


def test_builtin_fields_fd_consistent():
    rng = np.random.default_rng(11)
    m = proto_model()
    cases = [
        sc._pluck_field(1, ((0.0, 1.0),), 0.4),
        sc._pluck_field(2, ((0.0, 1.0), (0.0, 1.0)), 0.4),
        sc._standing_wave_field(1, ((0.0, 1.0),)),
        sc._standing_wave_field(2, ((0.0, 1.0), (0.0, 1.0))),
        sc._constant_strain_field(1, ((0.0, 1.0),)),
        sc.lift_static_bc(sc._pluck_field(1, ((0.0, 1.0),), 0.4),
                          sc._pluck_field(1, ((0.0, 1.0),), 0.1),
                          m.alpha, m.beta),
    ]
    for f in cases:
        X = sample_points(f.dim, rng)
        for t in (0.0, 0.31, 1.7):
            assert f.fd_consistency(t, X) < 1e-6


# ---------------------------------------------------------------------------
# lifts


def test_static_lift_matches_initial_data():
    m = proto_model(alpha=1.3, beta=0.7)
    u0 = sc._pluck_field(1, ((0.0, 1.0),), 0.5)
    v0 = sc._pluck_field(1, ((0.0, 1.0),), 0.2)
    lift = sc.lift_static_bc(u0, v0, m.alpha, m.beta)
    X = np.linspace(0.0, 1.0, 101)[:, None]
    assert np.max(np.abs(lift.value(0.0, X) - u0.value(0.0, X))) < 1e-12
    assert np.max(np.abs(lift.dt_value(0.0, X) - v0.value(0.0, X))) < 1e-12
    assert np.max(np.abs(lift.grad(0.0, X) - u0.grad(0.0, X))) < 1e-12


def test_static_lift_strain_expression_constant():
    m = proto_model(alpha=2.0, beta=0.25)
    u0 = sc._pluck_field(1, ((0.0, 1.0),), 0.5)
    v0 = sc._pluck_field(1, ((0.0, 1.0),), 0.2)
    lift = sc.lift_static_bc(u0, v0, m.alpha, m.beta)
    X = np.linspace(0.0, 1.0, 101)[:, None]
    E0 = sc.strain_expression(lift, m.alpha, m.beta, 0.0, X)
    for t in (0.05, 0.6, 3.0, 25.0):
        Et = sc.strain_expression(lift, m.alpha, m.beta, t, X)
        assert np.max(np.abs(Et - E0)) < 1e-12


def test_static_lift_boundary_frozen():
    # v0 vanishes at the ends, so the lift's boundary values never move
    m = proto_model()
    u0 = sc._standing_wave_field(1, ((0.0, 1.0),))
    u0_frozen = sc.AnalyticField(1, lambda t, X: u0.value(0.0, X),
                                 grad=lambda t, X: u0.grad(0.0, X))
    v0 = sc._pluck_field(1, ((0.0, 1.0),), 0.3)
    lift = sc.lift_static_bc(u0_frozen, v0, m.alpha, m.beta)
    Xb = np.array([[0.0], [1.0]])
    ref = u0_frozen.value(0.0, Xb)
    for t in (0.0, 0.4, 2.0):
        assert np.max(np.abs(lift.value(t, Xb) - ref)) < 1e-14


def test_timedep_lift_matches_data_and_boundary():
    m = proto_model(alpha=1.0, beta=0.2)
    u_ext = sc._standing_wave_field(1, ((0.0, 1.0),))
    v0 = sc.zero_field(1)
    Xb = np.array([[0.0], [1.0]])
    lift = sc.lift_timedep_bc(u_ext, v0, m.alpha, m.beta, boundary_points=Xb)
    X = np.linspace(0.0, 1.0, 101)[:, None]
    assert np.max(np.abs(lift.value(0.0, X) - u_ext.value(0.0, X))) < 1e-12
    assert np.max(np.abs(lift.dt_value(0.0, X))) < 1e-12
    # boundary values follow the prescribed extension at all times
    for t in (0.0, 0.13, 0.9):
        assert np.max(np.abs(lift.value(t, Xb) - u_ext.value(t, Xb))) < 1e-12
    rng = np.random.default_rng(3)
    assert lift.fd_consistency(0.37, sample_points(1, rng)) < 1e-6


def test_timedep_lift_rejects_incompatible_velocity():
    m = proto_model()
    u_ext = sc._standing_wave_field(1, ((0.0, 1.0),))
    bad_v = sc.AnalyticField(1, lambda t, X: np.full((X.shape[0], 1), 0.5))
    Xb = np.array([[0.0], [1.0]])
    # standing wave has zero velocity at t=0 everywhere, so a constant 0.5
    # initial velocity disagrees with the boundary motion
    with pytest.raises(sc.InvalidDataError):
        sc.lift_timedep_bc(u_ext, bad_v, m.alpha, m.beta, boundary_points=Xb)


# ---------------------------------------------------------------------------
# safety margin


def test_safety_margin_zero_lift_is_full_limit():
    m = proto_model()
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 16))
    s = sc.Scenario(name="rest", dim=1, domain=((0.0, 1.0),), model=m,
                    lift=sc.zero_field(1), t_end=1.0)
    assert abs(sc.safety_margin(s, space) - 1.0) < 1e-14


def test_safety_margin_pluck_matches_calibration():
    m = proto_model()
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 64))
    s = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 1.0)
    margin = sc.safety_margin(s, space)
    # quadrature sampling can only miss the true sup, never exceed it
    assert 0.3 - 1e-10 <= margin <= 0.32


def test_safety_margin_unbounded_model():
    m = con.ConstitutiveModel(con.PowerLawPotential(3.0), alpha=1.0, beta=0.1)
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 8))
    s = sc.Scenario(name="x", dim=1, domain=((0.0, 1.0),), model=m,
                    lift=sc._pluck_field(1, ((0.0, 1.0),), 3.0), t_end=1.0)
    assert sc.safety_margin(s, space) == np.inf


def test_strain_expression_scales_with_amplitude():
    m = proto_model()
    X = np.linspace(0.0, 1.0, 101)[:, None]
    E1 = sc.strain_expression(sc._pluck_field(1, ((0.0, 1.0),), 0.2), m.alpha, m.beta, 0.0, X)
    E2 = sc.strain_expression(sc._pluck_field(1, ((0.0, 1.0),), 0.4), m.alpha, m.beta, 0.0, X)
    assert np.max(np.abs(E2 - 2.0 * E1)) < 1e-13


# ---------------------------------------------------------------------------
# manufactured forcing


def test_manufactured_linear_model_symbolic():
    # linear response: T = alpha*eps + beta*dt_eps, so for
    # u = sin(pi x) cos(t) the forcing is
    # f = -sin(pi x) cos(t) + pi^2 sin(pi x) (alpha cos t - beta sin t)
    alpha, beta = 1.0, 0.2
    m = con.ConstitutiveModel(con.LinearPotential(), alpha=alpha, beta=beta)

    def value(t, X):
        return np.sin(np.pi * X[:, :1]) * np.cos(t)

    def grad(t, X):
        return np.pi * np.cos(np.pi * X[:, :1, None]) * np.cos(t)

    def dt_value(t, X):
        return -np.sin(np.pi * X[:, :1]) * np.sin(t)

    def dt_grad(t, X):
        return -np.pi * np.cos(np.pi * X[:, :1, None]) * np.sin(t)

    def dtt_value(t, X):
        return -np.sin(np.pi * X[:, :1]) * np.cos(t)

    def hess(t, X):
        return -np.pi**2 * np.sin(np.pi * X[:, :1, None, None]) * np.cos(t)

    def dt_hess(t, X):
        return np.pi**2 * np.sin(np.pi * X[:, :1, None, None]) * np.sin(t)

    u = sc.AnalyticField(1, value, grad=grad, dt_value=dt_value,
                         dt_grad=dt_grad, dtt_value=dtt_value, hess=hess,
                         dt_hess=dt_hess)
    s = sc.manufactured(u, m, (0.0, 1.0), t_end=1.0)
    X = np.linspace(0.0, 1.0, 37)[:, None]
    for t in (0.0, 0.4, 0.9):
        f = s.forcing.value(t, X)
        ref = (-np.sin(np.pi * X) * np.cos(t)
               + np.pi**2 * np.sin(np.pi * X) * (alpha * np.cos(t) - beta * np.sin(t)))
        assert np.max(np.abs(f - ref)) < 1e-7


def _richardson_divergence(model, u_exact, t, X, h=1e-4):
    # reference: two-step Richardson central differences of the exact stress
    d = X.shape[1]

    def div_at(step):
        out = np.zeros((X.shape[0], d))
        for j in range(d):
            dX = np.zeros_like(X)
            dX[:, j] = step
            Tp = st.unpack(sc.exact_stress(model, u_exact, t, X + dX), d)
            Tm = st.unpack(sc.exact_stress(model, u_exact, t, X - dX), d)
            out += (Tp[:, :, j] - Tm[:, :, j]) / (2.0 * step)
        return out

    return (4.0 * div_at(h / 2.0) - div_at(h)) / 3.0


@pytest.mark.parametrize("dim", [1, 2])
def test_stress_divergence_matches_richardson(dim):
    rng = np.random.default_rng(17)
    u = sc._standing_wave_field(dim, ((0.0, 1.0),) * dim)
    models = [proto_model(), con.ConstitutiveModel(con.PrototypePotential(2.0),
                                                   alpha=1.0, beta=0.1, reg_n=16)]
    for m in models:
        X = sample_points(dim, rng, n=40)
        for t in (0.0, 0.37, 0.8):
            exact = sc.stress_divergence(m, u, t, X)
            assert exact.shape == (40, dim)
            assert np.max(np.abs(exact - _richardson_divergence(m, u, t, X))) <= 1e-9


def test_manufactured_requires_second_derivatives():
    u = sc._standing_wave_field(1, ((0.0, 1.0),))
    no_hess = sc.AnalyticField(1, u.value, grad=u.grad, dt_value=u.dt_value,
                               dt_grad=u.dt_grad, dtt_value=u.dtt_value)
    with pytest.raises(sc.InvalidDataError, match="second spatial derivatives"):
        sc.manufactured(no_hess, proto_model(), (0.0, 1.0))
    no_dt_hess = sc.AnalyticField(1, u.value, grad=u.grad, dt_value=u.dt_value,
                                  dt_grad=u.dt_grad, dtt_value=u.dtt_value,
                                  hess=u.hess)
    with pytest.raises(sc.InvalidDataError):
        sc.manufactured(no_dt_hess, proto_model(), (0.0, 1.0))


def test_fd_consistency_flags_wrong_hessian():
    u = sc._standing_wave_field(2, ((0.0, 1.0), (0.0, 1.0)))
    X = sample_points(2, np.random.default_rng(2))
    assert u.fd_consistency(0.3, X) < 1e-6
    bad = sc.AnalyticField(2, u.value, grad=u.grad, dt_value=u.dt_value,
                           dt_grad=u.dt_grad, dtt_value=u.dtt_value,
                           hess=lambda t, X: 2.0 * u.hess(t, X), dt_hess=u.dt_hess)
    assert bad.fd_consistency(0.3, X) > 1e-2


def test_manufactured_rejects_supercritical_exact():
    m = proto_model()
    u = sc._standing_wave_field(1, ((0.0, 1.0),), amplitude=2.0)
    with pytest.raises(sc.InvalidDataError):
        sc.manufactured(u, m, (0.0, 1.0))


def test_manufactured_lift_carries_initial_data():
    m = proto_model()
    s = sc.build_scenario("standing-wave", 1, (0.0, 1.0), m, 1.0)
    rng = np.random.default_rng(5)
    X = sample_points(1, rng)
    # lift matches the exact solution's initial data but is frozen in
    # time (standing wave has zero initial velocity), so the interior
    # coefficients carry the evolution
    assert np.max(np.abs(s.lift.value(0.0, X) - s.exact.value(0.0, X))) < 1e-12
    assert np.max(np.abs(s.lift.dt_value(0.0, X) - s.exact.dt_value(0.0, X))) < 1e-12
    for t in (0.45, 1.0):
        assert np.max(np.abs(s.lift.value(t, X) - s.lift.value(0.0, X))) < 1e-14
    Xb = np.array([[0.0], [1.0]])
    for t in (0.0, 0.45, 1.0):
        assert np.max(np.abs(s.lift.value(t, Xb) - s.exact.value(t, Xb))) < 1e-12


def test_exact_stress_constant_strain_spot():
    # strain 0.3 under the q=2 prototype inverts to 0.3/sqrt(1-0.09)
    m = proto_model(q=2.0, alpha=1.0, beta=0.5)
    s = sc.build_scenario("manufactured:constant-strain", 1, (0.0, 1.0), m, 1.0)
    X = np.array([[0.25], [0.75]])
    T = sc.exact_stress(m, s.exact, 0.8, X)
    want = 0.3 / np.sqrt(1.0 - 0.09)
    assert np.max(np.abs(T[:, 0] - want)) < 1e-12


# ---------------------------------------------------------------------------
# registry and rebuild


def test_registry_names_build():
    m = proto_model()
    for name in sc.SCENARIO_NAMES:
        dim = 2 if name.endswith("2d") else 1
        domain = ((0.0, 1.0), (0.0, 1.0)) if dim == 2 else (0.0, 1.0)
        s = sc.build_scenario(name, dim, domain, m, 0.5)
        assert s.dim == dim
        assert s.model is m or s.model == m


def test_unknown_scenario_raises():
    m = proto_model()
    with pytest.raises(sc.InvalidDataError):
        sc.build_scenario("no-such-thing", 1, (0.0, 1.0), m, 1.0)


def test_rebuild_recalibrates_pluck():
    m1 = proto_model(alpha=1.0)
    m2 = proto_model(alpha=2.0)
    s1 = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m1, 1.0)
    s2 = s1.with_model(m2)
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 64))
    # amplitude shrinks to keep the same margin under the stiffer alpha
    assert 0.3 - 1e-10 <= sc.safety_margin(s2, space) <= 0.32
    X = np.array([[0.5]])
    assert s2.lift.value(0.0, X)[0, 0] < s1.lift.value(0.0, X)[0, 0]


def test_rebuild_rederives_forcing():
    m1 = proto_model(beta=0.1)
    m2 = proto_model(beta=0.4)
    s1 = sc.build_scenario("standing-wave", 1, (0.0, 1.0), m1, 1.0)
    s2 = s1.with_model(m2)
    X = np.array([[0.3], [0.6]])
    f1 = s1.forcing.value(0.5, X)
    f2 = s2.forcing.value(0.5, X)
    assert np.max(np.abs(f1 - f2)) > 1e-4


def test_canon_domain_validation():
    assert sc.canon_domain(1, (0.0, 2.0)) == ((0.0, 2.0),)
    assert sc.canon_domain(2, (0, 1, -1, 1)) == ((0.0, 1.0), (-1.0, 1.0))
    with pytest.raises(sc.InvalidDataError):
        sc.canon_domain(1, (1.0, 1.0))
