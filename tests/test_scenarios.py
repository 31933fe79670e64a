import numpy as np
import pytest

from strainlim import constitutive as con
from strainlim import diagnostics as dg
from strainlim import dynamics as dy
from strainlim import fespace as fe
from strainlim import scenarios as sc
from strainlim import symtensor as st

import reference_impl as ref


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


FIELD_PARTS = ("value", "grad", "dt_value", "dt_grad", "dtt_value", "hess", "dt_hess",
               "strain", "dt_strain")


def _block_fields():
    """(name, field, points) cases of the block protocol: product fields
    in 1D and 2D, both lift recipes and a field without time dependence."""
    rng = np.random.default_rng(41)
    u1 = sc._standing_wave_field(1, (0.0, 1.0), amplitude=0.3, omega=2.0)
    u2 = sc._standing_wave_field(2, (0.0, 1.0, 0.0, 2.0), amplitude=0.2, omega=1.5)
    v1 = sc._standing_wave_field(1, (0.0, 0.5), amplitude=0.1, omega=0.0)
    bump = sc._pluck_field(2, ((0.0, 1.0), (0.0, 1.0)), 0.4)
    X1, X2 = sample_points(1, rng, 17), sample_points(2, rng, 23)
    return [("product-1d", u1, X1), ("product-2d", u2, X2), ("static-2d", bump, X2),
            ("lift-static", sc.lift_static_bc(v1, v1, 1.3, 0.4), X1),
            ("lift-static-rest", sc.lift_static_bc(bump, sc.zero_field(2), 1.0, 0.1), X2),
            ("lift-timedep", sc.lift_timedep_bc(u1, v1, 1.3, 0.4), X1)]


def _times(k):
    """k times in [0, 2], with t=0 and a repeated time among them."""
    ts = np.random.default_rng(k).uniform(0.0, 2.0, k)
    ts[0] = 0.0
    ts[-1] = ts[k // 2]
    return ts


@pytest.mark.parametrize("k", [1, 3, 8])
def test_block_call_equals_the_stacked_per_time_calls(k):
    ts = _times(k)
    for name, field, X in _block_fields():
        for part in FIELD_PARTS:
            fn = getattr(field, part)
            block = fn(ts, X)
            alone = np.stack([fn(float(t), X) for t in ts])
            assert block.shape == alone.shape, (name, part)
            assert np.array_equal(block, alone), (name, part)
            assert np.array_equal(np.signbit(block), np.signbit(alone)), (name, part)
    # zero fields and missing derivatives take the block's time axis too
    assert sc.zero_field(2).value(ts, np.zeros((5, 2))).shape == (k, 5, 2)
    assert sc.zero_field(2).grad(ts, np.zeros((5, 2))).shape == (k, 5, 2, 2)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_block_forcing_equals_the_stacked_per_time_calls(k):
    ts = _times(k) * 0.05
    rng = np.random.default_rng(k)
    for name, dim, reg_n in (("manufactured:standing-wave", 1, None),
                             ("manufactured:standing-wave-2d", 2, 16)):
        model = con.ConstitutiveModel(con.PrototypePotential(2.0), beta=0.1, reg_n=reg_n)
        scen = sc.build_scenario(name, dim, (0.0, 1.0) * dim, model, 0.1)
        X = sample_points(dim, rng, 19)
        for fn in (scen.forcing.value,
                   lambda t, X: sc.exact_stress(model, scen.exact, t, X),
                   lambda t, X: sc.stress_divergence(model, scen.exact, t, X)):
            block = fn(ts, X)
            assert np.array_equal(block, np.stack([fn(float(t), X) for t in ts])), name
    # Members: the member axis comes first, then the block's time axis
    members = dy.Members([scen, scen.with_model(model.with_reg(4)), scen])
    block = members.forcing.value(ts, X)
    assert block.shape == (3, k) + X.shape
    for j, t in enumerate(ts):
        assert np.array_equal(block[:, j], members.forcing.value(float(t), X))
    assert np.array_equal(block[0], block[2])
    assert not np.array_equal(block[0], block[1])


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
    assert ref.fd_consistency(f, 0.8, X) > 1e-2


def test_builtin_fields_fd_consistent():
    rng = np.random.default_rng(11)
    m = proto_model()
    cases = [
        sc._pluck_field(1, ((0.0, 1.0),), 0.4),
        sc._pluck_field(2, ((0.0, 1.0), (0.0, 1.0)), 0.4),
        sc._standing_wave_field(1, ((0.0, 1.0),)),
        sc._standing_wave_field(2, ((0.0, 1.0), (0.0, 1.0))),
        sc._standing_wave_field(2, ((0.0, 2.0), (-0.5, 1.0)), amplitude=0.3, omega=1.7),
        sc._constant_strain_field(1, ((0.0, 1.0),)),
        sc._constant_strain_field(2, ((0.2, 1.0), (0.0, 3.0))),
        sc.lift_static_bc(sc._pluck_field(1, ((0.0, 1.0),), 0.4),
                          sc._pluck_field(1, ((0.0, 1.0),), 0.1),
                          m.alpha, m.beta),
    ]
    for f in cases:
        X = sample_points(f.dim, rng)
        for t in (0.0, 0.31, 1.7):
            assert ref.fd_consistency(f, t, X) < 1e-6


# Hand-written 1D and 2D formulas of the built-in fields, kept here as the
# reference that `_product_field` must reproduce.


def _ref_pluck(dim, domain, amplitude):
    lo = np.asarray(domain, dtype=float).reshape(dim, 2)
    ctr = lo.mean(axis=1)
    wid = 0.4 * (lo[:, 1] - lo[:, 0])

    if dim == 1:
        c, w = ctr[0], wid[0]

        def value(t, X):
            return amplitude * sc._bump((X[:, 0] - c) / w)[:, None]

        def grad(t, X):
            return (amplitude / w) * sc._bump_prime((X[:, 0] - c) / w)[:, None, None]

        return sc.AnalyticField(1, value, grad=grad)

    cx, cy = ctr
    wx, wy = wid

    def value2(t, X):
        bx = sc._bump((X[:, 0] - cx) / wx)
        by = sc._bump((X[:, 1] - cy) / wy)
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = amplitude * bx * by
        return out

    def grad2(t, X):
        sx = (X[:, 0] - cx) / wx
        sy = (X[:, 1] - cy) / wy
        out = np.zeros((X.shape[0], 2, 2))
        out[:, 0, 0] = amplitude * sc._bump_prime(sx) * sc._bump(sy) / wx
        out[:, 0, 1] = amplitude * sc._bump(sx) * sc._bump_prime(sy) / wy
        return out

    return sc.AnalyticField(2, value2, grad=grad2)


def _ref_standing_wave(dim, domain, amplitude=0.05, omega=np.pi):
    lo = np.asarray(domain, dtype=float).reshape(dim, 2)
    a, b = lo[0]
    kx = np.pi / (b - a)
    if dim == 1:

        def value(t, X):
            return amplitude * np.sin(kx * (X[:, :1] - a)) * np.cos(omega * t)

        def grad(t, X):
            return amplitude * kx * np.cos(kx * (X[:, :1, None] - a)) * np.cos(omega * t)

        def dt_value(t, X):
            return -amplitude * omega * np.sin(kx * (X[:, :1] - a)) * np.sin(omega * t)

        def dt_grad(t, X):
            return -amplitude * omega * kx * np.cos(kx * (X[:, :1, None] - a)) * np.sin(omega * t)

        def dtt_value(t, X):
            return -amplitude * omega**2 * np.sin(kx * (X[:, :1] - a)) * np.cos(omega * t)

        def hess(t, X):
            return -amplitude * kx**2 * np.sin(kx * (X[:, :1, None, None] - a)) * np.cos(omega * t)

        def dt_hess(t, X):
            return amplitude * omega * kx**2 * np.sin(kx * (X[:, :1, None, None] - a)) \
                * np.sin(omega * t)

        return sc.AnalyticField(1, value, grad=grad, dt_value=dt_value,
                                dt_grad=dt_grad, dtt_value=dtt_value, hess=hess,
                                dt_hess=dt_hess)

    c, d2 = lo[1]
    ky = np.pi / (d2 - c)

    def shape(X):
        return np.sin(kx * (X[:, 0] - a)) * np.sin(ky * (X[:, 1] - c))

    def shape_grad(X):
        gx = kx * np.cos(kx * (X[:, 0] - a)) * np.sin(ky * (X[:, 1] - c))
        gy = ky * np.sin(kx * (X[:, 0] - a)) * np.cos(ky * (X[:, 1] - c))
        return gx, gy

    def shape_hess(X):
        out = np.empty((X.shape[0], 2, 2))
        sxy = shape(X)
        out[:, 0, 0] = -kx**2 * sxy
        out[:, 1, 1] = -ky**2 * sxy
        out[:, 0, 1] = out[:, 1, 0] = \
            kx * ky * np.cos(kx * (X[:, 0] - a)) * np.cos(ky * (X[:, 1] - c))
        return out

    def value2(t, X):
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = amplitude * shape(X) * np.cos(omega * t)
        return out

    def grad2(t, X):
        gx, gy = shape_grad(X)
        out = np.zeros((X.shape[0], 2, 2))
        out[:, 0, 0] = amplitude * gx * np.cos(omega * t)
        out[:, 0, 1] = amplitude * gy * np.cos(omega * t)
        return out

    def dt_value2(t, X):
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = -amplitude * omega * shape(X) * np.sin(omega * t)
        return out

    def dt_grad2(t, X):
        gx, gy = shape_grad(X)
        out = np.zeros((X.shape[0], 2, 2))
        out[:, 0, 0] = -amplitude * omega * gx * np.sin(omega * t)
        out[:, 0, 1] = -amplitude * omega * gy * np.sin(omega * t)
        return out

    def dtt_value2(t, X):
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = -amplitude * omega**2 * shape(X) * np.cos(omega * t)
        return out

    def hess2(t, X):
        out = np.zeros((X.shape[0], 2, 2, 2))
        out[:, 0] = amplitude * np.cos(omega * t) * shape_hess(X)
        return out

    def dt_hess2(t, X):
        out = np.zeros((X.shape[0], 2, 2, 2))
        out[:, 0] = -amplitude * omega * np.sin(omega * t) * shape_hess(X)
        return out

    return sc.AnalyticField(2, value2, grad=grad2, dt_value=dt_value2,
                            dt_grad=dt_grad2, dtt_value=dtt_value2, hess=hess2,
                            dt_hess=dt_hess2)


def _ref_constant_strain(dim, domain):
    a = np.asarray(domain, dtype=float).reshape(dim, 2)[0, 0]
    slope = 0.3

    def value(t, X):
        out = np.zeros((X.shape[0], dim))
        out[:, 0] = slope * (X[:, 0] - a)
        return out

    def grad(t, X):
        out = np.zeros((X.shape[0], dim, dim))
        out[:, 0, 0] = slope
        return out

    return sc.AnalyticField(dim, value, grad=grad)


_REF_DOMAINS = {1: ((-0.3, 1.2),), 2: ((0.0, 1.0), (-0.5, 2.0))}
_REF_CASES = [
    ("pluck", sc._pluck_field, _ref_pluck, (0.4,), {}),
    ("standing-wave", sc._standing_wave_field, _ref_standing_wave, (), {}),
    ("standing-wave-fast", sc._standing_wave_field, _ref_standing_wave, (),
     {"amplitude": 0.3, "omega": 1.7}),
    ("constant-strain", sc._constant_strain_field, _ref_constant_strain, (), {}),
]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name,build,reference,args,kwargs", _REF_CASES,
                         ids=[c[0] for c in _REF_CASES])
def test_product_fields_match_hand_written(dim, name, build, reference, args, kwargs):
    dom = _REF_DOMAINS[dim]
    field, ref = build(dim, dom, *args, **kwargs), reference(dim, dom, *args, **kwargs)
    assert field.has_second_derivatives == ref.has_second_derivatives
    rng = np.random.default_rng(23)
    X = np.column_stack([rng.uniform(a, b, 200) for a, b in dom])
    for t in (0.0, 0.37):
        for which in ("value", "grad", "dt_value", "dt_grad", "dtt_value", "hess", "dt_hess"):
            got, want = getattr(field, which)(t, X), getattr(ref, which)(t, X)
            assert got.shape == want.shape, which
            assert np.max(np.abs(got - want)) <= 1e-15, (which, t)


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


def _counting(field, calls):
    """field with its grad calls recorded in calls."""
    def grad(t, X):
        calls.append(1)
        return field.grad(t, X)

    return sc.AnalyticField(field.dim, field.value, grad=grad)


def test_static_lift_keeps_strains_for_read_only_points():
    m = proto_model(alpha=1.3, beta=0.7)
    u_calls, v_calls = [], []
    u0 = sc._pluck_field(2, ((0.0, 1.0), (0.0, 1.0)), 0.5)
    v0 = sc._pluck_field(2, ((0.0, 1.0), (0.0, 1.0)), 0.2)
    lift = sc.lift_static_bc(_counting(u0, u_calls), _counting(v0, v_calls),
                             m.alpha, m.beta)
    ref = sc.lift_static_bc(u0, v0, m.alpha, m.beta)
    X = np.random.default_rng(12).uniform(0.05, 0.95, (50, 2))
    X.flags.writeable = False
    for t in (0.0, 0.3, 2.0):
        assert np.max(np.abs(lift.strain(t, X) - ref.strain(t, X))) <= 1e-15
        assert np.max(np.abs(lift.dt_strain(t, X) - ref.dt_strain(t, X))) <= 1e-15
    assert len(u_calls) == 1 and len(v_calls) == 1
    # what the lift returns is the caller's to modify
    eps = lift.strain(0.3, X)
    eps += 1.0
    assert np.max(np.abs(lift.strain(0.3, X) - ref.strain(0.3, X))) <= 1e-15
    # another read-only point set replaces the kept one
    Y = X[::-1].copy()
    Y.flags.writeable = False
    assert np.max(np.abs(lift.strain(0.3, Y) - ref.strain(0.3, Y))) <= 1e-15
    assert len(u_calls) == 2


def test_static_lift_recomputes_writeable_points():
    m = proto_model(alpha=1.3, beta=0.7)
    calls = []
    u0 = sc._pluck_field(1, ((0.0, 1.0),), 0.5)
    lift = sc.lift_static_bc(_counting(u0, calls), sc.zero_field(1), m.alpha, m.beta)
    X = np.linspace(0.1, 0.9, 9)[:, None]
    first = lift.strain(0.4, X)
    X[:] = np.linspace(0.2, 0.6, 9)[:, None]
    assert np.array_equal(lift.strain(0.4, X), u0.strain(0.0, X))
    assert not np.array_equal(first, lift.strain(0.4, X))
    assert len(calls) == 3
    # a read-only array made writeable again is recomputed too
    X.flags.writeable = False
    lift.strain(0.4, X)
    lift.strain(0.4, X)
    X.flags.writeable = True
    X[:] = np.linspace(0.3, 0.5, 9)[:, None]
    assert np.array_equal(lift.strain(0.4, X), u0.strain(0.0, X))
    assert len(calls) == 5
    # a v_init without gradient adds no strain rate
    assert np.all(lift.dt_strain(0.4, X) == 0.0) and lift.dt_strain(0.4, X).shape == (9, 1)


def test_static_lift_keeps_values_for_read_only_points():
    # an observed 50-step standing-wave run reads the lift's velocity at
    # every ledger record; the initial-velocity profile behind it is
    # evaluated once, at the space's quadrature points
    u = sc._standing_wave_field(1, ((0.0, 1.0),))
    calls, velocity = [], u._dt_value
    u._dt_value = lambda t, X: calls.append(t) or velocity(t, X)
    scen = sc.manufactured(u, ref.proto_model(reg_n=16), (0.0, 1.0), t_end=0.05)
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 32))
    energy = dg.EnergyRecorder(scen, space)
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=0.05), observers=(energy,))
    assert len(energy.records) == 51 and len(calls) <= 2
    for t in (0.0, 0.02, 0.05):
        assert np.array_equal(scen.lift.dt_value(t, space.qp),
                              np.exp(-10.0 * t) * velocity(0.0, space.qp))


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
    assert ref.fd_consistency(lift, 0.37, sample_points(1, rng)) < 1e-6


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
    s = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m,
                    lift=sc.zero_field(1), t_end=1.0)
    assert abs(sc.safety_margin(s, space) - 1.0) < 1e-14


def test_safety_margin_pluck_matches_calibration():
    m = proto_model()
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 64))
    s = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 1.0)
    margin = sc.safety_margin(s, space)
    # quadrature sampling can only miss the true sup, never exceed it
    assert 0.3 - 1e-10 <= margin <= 0.32


def test_safety_margin_samples_a_steady_lift_once(monkeypatch):
    m = proto_model()
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 64))
    pluck = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 1.0)
    wave = sc.build_scenario("standing-wave", 1, (0.0, 1.0), ref.proto_model(), 1.0)
    Xb = np.array([[0.0], [1.0]])
    moving = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m, t_end=1.0,
                         lift=sc.lift_timedep_bc(wave.exact, sc.zero_field(1), m.alpha, m.beta,
                                                 boundary_points=Xb))
    other = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=proto_model(beta=0.2),
                        lift=pluck.lift, t_end=1.0)
    times, real = [], sc.strain_expression

    def sampled(lift, alpha, beta, t, X):
        times.append(np.shape(t))
        return real(lift, alpha, beta, t, X)

    def sampled_sup(scen):
        """The sup of the expression over the quadrature points at 64 times."""
        return max(float(np.max(st.norm(real(scen.lift, scen.model.alpha, scen.model.beta,
                                              float(t), space.qp))))
                   for t in np.linspace(0.0, scen.t_end, 64))

    monkeypatch.setattr(sc, "strain_expression", sampled)
    counts = []
    for scen in (pluck, wave, moving, other):
        times.clear()
        margin = sc.safety_margin(scen, space)
        counts.append(sum(np.prod(shape, dtype=int) for shape in times))
        assert times == [times[0]]           # one call, a block of times
        assert abs(margin - (1.0 - sampled_sup(scen))) <= 1e-15
    # the static lift's expression is constant in t for its own rates only
    assert counts == [1, 1, 64, 64]


def test_safety_margin_unbounded_model():
    m = con.ConstitutiveModel(con.PowerLawPotential(3.0), alpha=1.0, beta=0.1)
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 8))
    s = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m,
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

    # t is a float or a block of times (see sc.AnalyticField)
    def value(t, X):
        return np.multiply.outer(np.cos(t), np.sin(np.pi * X[:, :1]))

    def grad(t, X):
        return np.multiply.outer(np.cos(t), np.pi * np.cos(np.pi * X[:, :1, None]))

    def dt_value(t, X):
        return np.multiply.outer(np.sin(t), -np.sin(np.pi * X[:, :1]))

    def dt_grad(t, X):
        return np.multiply.outer(np.sin(t), -np.pi * np.cos(np.pi * X[:, :1, None]))

    def dtt_value(t, X):
        return np.multiply.outer(np.cos(t), -np.sin(np.pi * X[:, :1]))

    def hess(t, X):
        return np.multiply.outer(np.cos(t), -np.pi**2 * np.sin(np.pi * X[:, :1, None, None]))

    def dt_hess(t, X):
        return np.multiply.outer(np.sin(t), np.pi**2 * np.sin(np.pi * X[:, :1, None, None]))

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
    assert ref.fd_consistency(u, 0.3, X) < 1e-6
    bad = sc.AnalyticField(2, u.value, grad=u.grad, dt_value=u.dt_value,
                           dt_grad=u.dt_grad, dtt_value=u.dtt_value,
                           hess=lambda t, X: 2.0 * u.hess(t, X), dt_hess=u.dt_hess)
    assert ref.fd_consistency(bad, 0.3, X) > 1e-2


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
    # each end fits in float64, the width 2e308 does not
    with pytest.raises(sc.InvalidDataError, match="finite in float64"):
        sc.canon_domain(2, (0.0, 1.0, -1e308, 1e308))
