from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.sparse as sp

from strainlim import constitutive as con
from strainlim import diagnostics as dg
from strainlim import dynamics as dy
from strainlim import fespace as fe
from strainlim import scenarios as sc
from strainlim import symtensor as st

import reference_impl as ref
from reference_impl import interval_space, proto_model

# the forcing pair step_rk4 takes for a scenario without a forcing
NO_FORCING = (None, None)


def zero_scenario(model, domain=(0.0, 1.0)):
    return sc.Scenario(dim=1, domain=((domain[0], domain[1]),),
                       model=model, lift=sc.zero_field(1), t_end=1.0)


def linear_model(alpha=1.0, beta=0.1, reg_n=None):
    return con.ConstitutiveModel(con.LinearPotential(), alpha=alpha, beta=beta,
                                 reg_n=reg_n)


def self_convergence_order(dts, finals, space):
    diffs = [space.l2_norm_qp(space.value_at_qp(a - b))
             for a, b in zip(finals, finals[1:])]
    slope = np.polyfit(np.log(dts[:-1]), np.log(diffs), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# acceleration of the first-order system


def test_single_cell_hand_ode():
    # one interior hat on [0,1] with 2 cells: M = 1/3, K = 4, so the
    # linear model gives dV = -12 (alpha U + beta V)
    m = linear_model(alpha=1.3, beta=0.4)
    space = interval_space(2)
    scen = zero_scenario(m)
    state = dy.evaluate_fields(scen, space, 0.0, np.array([0.2]), np.array([-0.1]))
    dV = dy._accel(scen, space, state)
    assert abs(dV[0] - (-12.0 * (1.3 * 0.2 + 0.4 * (-0.1)))) < 1e-12
    assert state.stress.shape == (space.n_qp, space.m)


def test_rest_state_is_stationary():
    m = proto_model()
    space = interval_space(8)
    scen = zero_scenario(m)
    state = dy.evaluate_fields(scen, space, 0.0, np.zeros(space.ndof), np.zeros(space.ndof))
    dV = dy._accel(scen, space, state)
    assert np.max(np.abs(dV)) < 1e-13

    s1 = dy.step_rk4(scen, space, state, 1e-2, NO_FORCING)
    assert np.max(np.abs(s1.U)) < 1e-14 and np.max(np.abs(s1.V)) < 1e-14
    assert s1.t == pytest.approx(1e-2)
    s2 = dy.step_midpoint(scen, space, state, 1e-2, None, dy._NewtonCarry())
    assert np.max(np.abs(s2.U)) < 1e-14 and np.max(np.abs(s2.V)) < 1e-14


def test_linear_rhs_matches_hand_assembled_operator():
    # independent route: 1D stiffness is the (-1, 2, -1)/h tridiagonal
    m = linear_model(alpha=0.9, beta=0.3)
    cells = 24
    space = interval_space(cells)
    scen = zero_scenario(m)
    h = 1.0 / cells
    n = space.ndof
    K = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
         + np.diag(np.full(n - 1, -1.0), -1)) / h
    rng = np.random.default_rng(7)
    U = rng.standard_normal(n)
    V = rng.standard_normal(n)
    dV = dy._accel(scen, space, dy.evaluate_fields(scen, space, 0.0, U, V))
    want = np.linalg.solve(space.mass.toarray(), -K @ (m.alpha * U + m.beta * V))
    assert np.max(np.abs(dV - want)) < 1e-10


def test_rhs_annotates_supercritical():
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=0.1)
    lift = sc.AnalyticField(1, value=lambda t, X: 1.5 * X,
                            grad=lambda t, X: np.full((X.shape[0], 1, 1), 1.5))
    scen = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m,
                       lift=lift, t_end=1.0)
    space = interval_space(4)
    with pytest.raises(con.SupercriticalStrainError) as err:
        dy.evaluate_fields(scen, space, 0.25, np.zeros(space.ndof),
                           np.zeros(space.ndof))
    msg = str(err.value)
    assert "t=0.25" in msg and "qp" in msg


def test_lift_at_rest_is_never_accelerated():
    # a static lift started at rest has no inertia load: its acceleration
    # is ruled out once per quadrature point set and never evaluated
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(8)
    calls = []
    real = scen.lift._dtt_value
    scen.lift._dtt_value = lambda t, X: calls.append(t) or real(t, X)
    assert not scen.lift.accelerates(space.qp)
    assert dy._loads(scen, space, 0.3, None) == 0.0
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=5e-3, scheme="rk4"))
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=5e-3))
    assert calls == []


def test_moving_lift_keeps_its_inertia_load():
    u0 = sc._pluck_field(1, ((0.0, 1.0),), 0.3)
    v0 = sc._pluck_field(1, ((0.0, 1.0),), 0.2)
    v_calls = []
    v_init = sc.AnalyticField(1, lambda t, X: v_calls.append(t) or v0.value(t, X),
                              grad=v0.grad)
    lift = sc.lift_static_bc(u0, v_init, 1.0, 0.1)
    scen = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=proto_model(),
                       lift=lift)
    space = interval_space(8)
    assert lift.accelerates(space.qp) and lift.accelerates(space.qp)
    assert len(v_calls) == 1                  # kept for the read-only points
    for t in (0.0, 0.3):
        want = 0.0 - space.load_from_values(lift.dtt_value(t, space.qp))
        assert np.array_equal(dy._loads(scen, space, t, None), want)


def test_members_differ_only_in_reg_n():
    base = proto_model(reg_n=4)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), base, 0.05)
    members = dy.Members([scen, scen.with_model(base.with_reg(256))])
    assert members.inv_n.tolist() == [[0.25], [1.0 / 256]]
    assert dy.Members([scen, scen]).inv_n is None     # a shared reg_n is the model's
    for other in (replace(base, alpha=2.0), replace(base, beta=0.2),
                  replace(base, potential=con.PrototypePotential(3.0)),
                  base.with_reg(None)):
        with pytest.raises(ValueError, match="reg_n"):
            dy.Members([scen, scen.with_model(other)])
    space = interval_space(8)
    final = dy.run(members, space, dy.SolverConfig(dt=1e-3, t_end=2e-3))
    assert final.U.shape == (2, space.ndof)


# ---------------------------------------------------------------------------
# steppers


def test_rk4_self_convergence_order_4():
    m = linear_model(alpha=1.0, beta=0.05)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.1)
    space = interval_space(16)
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    finals = []
    for dt in dts:
        cfg = dy.SolverConfig(dt=dt, t_end=0.1, scheme="rk4")
        finals.append(dy.run(scen, space, cfg).U)
    order = self_convergence_order(dts, finals, space)
    assert 3.7 <= order <= 4.3


@pytest.mark.parametrize("steps", [1, 5])
def test_rk4_run_inverts_once_per_stage(monkeypatch, steps):
    # stage 1 of each step is the State that closed the previous one:
    # one inversion at t = 0, then stages 2-4 and the closing State
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(8)
    calls = []
    real = con.invert

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(con, "invert", counting)
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=steps * 1e-3, scheme="rk4"))
    assert len(calls) == 1 + 4 * steps


def test_rk4_stage_reuse_matches_fresh_stage():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(16)
    state = dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=0.02, scheme="rk4"))
    fresh = dy.evaluate_fields(scen, space, 0.0, np.zeros(space.ndof), np.zeros(space.ndof))
    for _ in range(20):
        fresh = dy.evaluate_fields(scen, space, fresh.t, fresh.U, fresh.V, fresh.stress)
        fresh = dy.step_rk4(scen, space, fresh, 1e-3, NO_FORCING)
    assert fresh.t == pytest.approx(state.t, abs=1e-15)
    scale = 1.0 + np.max(np.abs(fresh.V))
    assert np.max(np.abs(state.U - fresh.U)) <= 1e-14 * scale
    assert np.max(np.abs(state.V - fresh.V)) <= 1e-14 * scale


def _evaluations_per_warm_inversion(monkeypatch):
    """Per inversion that starts from a stress: the (h, h') evaluations it makes."""
    evals, made = [], [0]
    real_invert, real_pair = dy._invert_at, con.response_pair

    def invert(scenario, E, warm, slope, space, stage, t, members=None):
        before = made[0]
        out = real_invert(scenario, E, warm, slope, space, stage, t, members)
        if warm is not None:
            evals.append(made[0] - before)
        return out

    def pair(*args):
        made[0] += 1
        return real_pair(*args)

    monkeypatch.setattr(dy, "_invert_at", invert)
    monkeypatch.setattr(con, "response_pair", pair)
    return evals


def test_rk4_stages_start_from_the_carried_slope(monkeypatch):
    # every stage inversion starts from the stress and (s, h') slope of the
    # one before: the State that closes a step from stage 4's, and the next
    # step's stage 2 from that State's; a bare warm stress costs 2.9
    # evaluations per inversion on this sweep
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(reg_n=4), 0.1)
    space = interval_space(64)
    evals = _evaluations_per_warm_inversion(monkeypatch)
    dg.regularization_sweep(scen, space, dy.SolverConfig(dt=2e-4, t_end=0.1, scheme="rk4"),
                            [4, 16, 64, 256])
    assert len(evals) == 4 * 500
    assert sum(evals) <= 1.7 * len(evals)


def _moving_lift_scenario(model):
    """A 1D scenario whose lift moves its boundary values: no steady rates."""
    wave = sc._standing_wave_field(1, ((0.0, 1.0),))
    lift = sc.lift_timedep_bc(wave, sc.zero_field(1), model.alpha, model.beta,
                              boundary_points=np.array([[0.0], [1.0]]))
    return sc.Scenario(dim=1, domain=((0.0, 1.0),), model=model, lift=lift)


def _expression_times(monkeypatch):
    """The times of every sc.strain_expression call."""
    times, real = [], sc.strain_expression

    def expression(lift, alpha, beta, t, X):
        times.append(t)
        return real(lift, alpha, beta, t, X)

    monkeypatch.setattr(sc, "strain_expression", expression)
    return times


def test_static_lift_expression_is_a_run_constant(monkeypatch):
    # a static lift that starts moving (v_init nonzero): its strain
    # expression is the same at every time, to round-off, and a run
    # evaluates it once
    m = proto_model()
    u0 = sc._pluck_field(1, ((0.0, 1.0),), 0.3)
    v0 = sc._pluck_field(1, ((0.0, 1.0),), 0.2)
    lift = sc.lift_static_bc(u0, v0, m.alpha, m.beta)
    scen = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m, lift=lift)
    space = interval_space(16)
    terms = dy._LiftTerms(scen, space)
    assert terms.accelerates
    ts = np.linspace(0.0, 3.0, 13)
    want = sc.strain_expression(lift, m.alpha, m.beta, ts, space.qp)
    assert terms.expression(list(ts)) is terms.steady
    assert np.max(np.abs(want - terms.steady)) <= 1e-15 * np.max(np.abs(want))
    times = _expression_times(monkeypatch)
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=5e-3, scheme="rk4"))
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=5e-3))
    assert times == [0.0, 0.0]


def test_moving_lift_expression_is_evaluated_at_every_stage_time(monkeypatch):
    m = proto_model()
    scen = _moving_lift_scenario(m)
    space = interval_space(16)
    assert dy._LiftTerms(scen, space).steady is None
    times = _expression_times(monkeypatch)
    seen, _ = _recorded_run(scen, space, dy.SolverConfig(dt=1e-3, t_end=3e-3, scheme="rk4"))
    # t=0, then stages 2 and 3 at the half-step time, stage 4 and the
    # closing State at the end time
    want = [0.0]
    for t, dt in dy._steps(0.0, 1e-3, 3e-3):
        t_half, t_next = dy._step_times(t, dt)
        want += [t_half, t_half, t_next, t_next]
    assert times == want
    monkeypatch.undo()
    for state in seen:
        E_l = sc.strain_expression(scen.lift, m.alpha, m.beta, state.t, space.qp)
        assert np.array_equal(state.E, space.strain_at_qp(m.alpha * state.U + m.beta * state.V)
                              + E_l)


def test_rk4_observers_add_only_the_strain(monkeypatch):
    # observers that read fields get eps on every state; the steps are
    # those of an unobserved run, bit for bit, whose States have no eps
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0), proto_model(), 0.01)
    space = interval_space(16)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.01, scheme="rk4")
    steps, real = [], dy.step_rk4

    def step(*args):
        steps.append(real(*args))
        return steps[-1]

    monkeypatch.setattr(dy, "step_rk4", step)
    final = dy.run(scen, space, cfg)
    monkeypatch.undo()
    seen, last = _recorded_run(scen, space, cfg)
    assert len(seen) == len(steps) + 1 == 11
    assert final is steps[-1] and final.eps is None
    assert np.array_equal(seen[0].eps, scen.lift.strain(0.0, space.qp))
    for state, bare in zip(seen[1:], steps):
        assert bare.eps is None
        assert np.array_equal(state.eps, space.strain_at_qp(state.U)
                              + scen.lift.strain(state.t, space.qp))
        assert state.t == bare.t
        for name in ("U", "V", "E", "stress", "slope", "forcing"):
            assert np.array_equal(getattr(state, name), getattr(bare, name)), name
    _assert_same_state(last, seen[-1])


def test_midpoint_self_convergence_order_2():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.1)
    space = interval_space(32)
    dts = [8e-3, 4e-3, 2e-3, 1e-3]
    finals = []
    for dt in dts:
        cfg = dy.SolverConfig(dt=dt, t_end=0.1, scheme="midpoint")
        finals.append(dy.run(scen, space, cfg).U)
    order = self_convergence_order(dts, finals, space)
    assert 1.8 <= order <= 2.2


def test_midpoint_agrees_with_rk4():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(32)
    mid = dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=0.05))
    rk = dy.run(scen, space, dy.SolverConfig(dt=2e-4, t_end=0.05, scheme="rk4"))
    d = space.l2_norm_qp(space.value_at_qp(mid.U - rk.U))
    assert d < 1e-6


def test_midpoint_near_conservation_linear():
    # tiny viscosity: KE + EE drifts by less than 1e-6 relative over
    # 10^3 midpoint steps
    m = linear_model(alpha=1.0, beta=1e-8)
    scen = zero_scenario(m)
    space = interval_space(64)
    nodes = space.mesh.nodes[space.interior_nodes]
    V0 = np.sin(np.pi * nodes[:, 0])
    cfg = dy.SolverConfig(dt=1e-3, t_end=1.0, scheme="midpoint")

    def energy(U, V):
        ke = 0.5 * space.l2_norm_qp(space.value_at_qp(V)) ** 2
        ee = 0.5 * m.alpha * space.l2_norm_qp(space.strain_at_qp(U)) ** 2
        return ke + ee

    energies = []
    start = dy.evaluate_fields(scen, space, 0.0, np.zeros(space.ndof), V0)
    dy.run(scen, space, cfg, start=start,
           observers=(ref.per_state(lambda s: energies.append(energy(s.U, s.V))),))
    assert len(energies) == 1001
    e0 = energies[0]
    drift = max(abs(e - e0) for e in energies)
    assert drift / e0 <= 1e-6


def test_midpoint_stress_cache_satisfies_relation():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(16)
    state = dy.evaluate_fields(scen, space, 0.0, np.zeros(space.ndof), np.zeros(space.ndof))
    carry = dy._NewtonCarry()
    nxt = dy.step_midpoint(scen, space, state, 1e-3, None, carry)
    nxt = dy.evaluate_fields(scen, space, nxt.t, nxt.U, nxt.V, carry.stress)
    gap = con.g_apply(scen.model, nxt.stress) - nxt.E
    assert float(np.max(st.norm(gap))) < 1e-10


def test_midpoint_no_convergence_error(monkeypatch):
    monkeypatch.setattr(dy, "NEWTON_TOL", 1e-30)
    monkeypatch.setattr(dy, "NEWTON_MAX", 3)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(16)
    state = dy.evaluate_fields(scen, space, 0.0, np.zeros(space.ndof), np.zeros(space.ndof))
    with pytest.raises(dy.MidpointNoConvergence) as err:
        dy.step_midpoint(scen, space, state, 1e-2, None, dy._NewtonCarry())
    assert len(err.value.trace) == 3


def _coo_midpoint_jacobian(space, factor, model, T):
    # reference: the per-qp block-diagonal tangent inverse through a COO
    # matrix, then M + factor * B^T A B
    blocks = con.tangent_inverse_blocks(model, T) * space.qw[:, None, None]
    nq, mcomp, _ = blocks.shape
    idx = np.arange(nq * mcomp).reshape(nq, mcomp)
    rows = np.broadcast_to(idx[:, :, None], blocks.shape)
    cols = np.broadcast_to(idx[:, None, :], blocks.shape)
    A = sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(nq * mcomp, nq * mcomp)).tocsr()
    return (space.mass + factor * (space.B.T @ (A @ space.B))).tocsc()


def _captured_jacobian(monkeypatch, space, factor, model, T):
    seen = []
    real = dy.spla.splu

    def spy(J, **kw):
        seen.append(J)
        return real(J, **kw)

    monkeypatch.setattr(dy.spla, "splu", spy)
    lu = dy._assemble_midpoint_jacobian(space, space.mass, factor, model, T)
    monkeypatch.setattr(dy.spla, "splu", real)
    return seen[0], lu


@pytest.mark.parametrize("space", [
    fe.FESpace(fe.interval_mesh(0.0, 1.0, 256)),
    fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)),
], ids=["1d-256", "2d-16x16"])
def test_midpoint_jacobian_matches_coo_assembly(monkeypatch, space):
    m = proto_model(reg_n=16)
    T = 0.7 * np.random.default_rng(4).standard_normal((space.n_qp, space.m))
    factor = 0.5e-3 * (m.beta + 0.5e-3 * m.alpha)
    J, lu = _captured_jacobian(monkeypatch, space, factor, m, T)
    ref = _coo_midpoint_jacobian(space, factor, m, T)
    assert J.format == "csc" and J.shape == ref.shape
    assert abs(J - ref).max() <= 1e-13 * abs(ref).max()
    b = np.linspace(-1.0, 1.0, space.ndof)
    assert np.max(np.abs(ref @ lu.solve(b) - b)) < 1e-12


def test_midpoint_jacobian_pattern_built_once(monkeypatch):
    space = fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4))
    assert space._coupling is None          # lazy: not built with the space
    m = proto_model()
    T = 0.3 * np.ones((space.n_qp, space.m))
    dy._assemble_midpoint_jacobian(space, space.mass, 1e-3, m, T)
    pat = space.coupling_pattern
    built = []
    monkeypatch.setattr(fe.FESpace, "_build_coupling",
                        lambda self: built.append(self) or pat)
    J, _ = _captured_jacobian(monkeypatch, space, 1e-3, m, 2.0 * T)
    assert built == [] and space.coupling_pattern is pat
    assert np.shares_memory(J.indices, pat.indices)
    assert np.shares_memory(J.indptr, pat.indptr)


def test_midpoint_run_after_mass_solves_matches_a_fresh_space():
    # the RK4 run's mass solves factor the mass matrix; the midpoint
    # Jacobian built afterwards must still add the mass at its own slots
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(beta=0.1, reg_n=16),
                             0.05)
    mid = dy.SolverConfig(dt=1e-3, t_end=0.05)
    space = interval_space(64)
    dy.run(scen, space, mid)
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=1e-2, scheme=dy.SCHEME_RK4))
    _assert_same_state(dy.run(scen, space, mid), dy.run(scen, interval_space(64), mid))


# ---------------------------------------------------------------------------
# the midpoint Newton carry of run


def _carry_free_run(scen, space, cfg):
    """run's loop written with direct step_midpoint calls, each with a
    fresh carry and the forcing at its own t_mid: every step factors
    afresh, starts Newton from Vm = V and from the stress of its own
    start State."""
    state = dy.evaluate_fields(scen, space, 0.0, np.zeros(space.ndof), np.zeros(space.ndof))
    while state.t < cfg.t_end - 1e-12 * max(1.0, cfg.t_end):
        carry = dy._NewtonCarry()
        dt = min(cfg.dt, cfg.t_end - state.t)
        f_mid = None if scen.forcing is None else \
            dy._forcing_at(scen, space, [dy._step_times(state.t, dt)[0]])[0]
        nxt = dy.step_midpoint(scen, space, state, dt, f_mid, carry)
        state = dy.evaluate_fields(scen, space, nxt.t, nxt.U, nxt.V, carry.stress)
    return state


@pytest.mark.parametrize("name, dim", [
    ("gaussian-pluck", 1), ("gaussian-pluck", 2),
    ("manufactured:standing-wave", 1), ("manufactured:standing-wave-2d", 2)],
    ids=["1d-64", "2d-16x16", "wave-1d-64", "wave-2d-16x16"])
def test_run_carry_matches_carry_free_steps(name, dim):
    # run's carry (the factor, the extrapolated start, quartic once the
    # steps converge within QUARTIC_GATE iterations, the carried stress and
    # slope) moves the steps by Newton's tolerance only
    dom = ((0.0, 1.0),) * dim
    scen = sc.build_scenario(name, dim, dom, proto_model(), 0.03)
    space = fe.FESpace(fe.box_mesh(dom, (64,) if dim == 1 else (16, 16)))
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.03)
    state = dy.run(scen, space, cfg)
    ref_state = _carry_free_run(scen, space, cfg)
    assert state.t == ref_state.t
    for got, want in ((state.U, ref_state.U), (state.V, ref_state.V)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _count_assemblies(monkeypatch):
    """(dt of the step, Newton iteration within it) of each Jacobian
    factorization; a factor made at iteration 1 comes before any solve."""
    made, now = [], [None, 0]
    real_step, real_invert = dy.step_midpoint, dy._invert_at
    real_assemble = dy._assemble_midpoint_jacobian

    def step(scenario, space, state, dt, f_mid, carry):
        now[:] = [dt, 0]
        return real_step(scenario, space, state, dt, f_mid, carry)

    def invert(scenario, E, warm, slope, space, stage, t, members=None):
        now[1] += stage.startswith("midpoint")
        return real_invert(scenario, E, warm, slope, space, stage, t, members)

    def assemble(space, mass, factor, model, T):
        made.append(tuple(now))
        return real_assemble(space, mass, factor, model, T)

    monkeypatch.setattr(dy, "step_midpoint", step)
    monkeypatch.setattr(dy, "_invert_at", invert)
    monkeypatch.setattr(dy, "_assemble_midpoint_jacobian", assemble)
    return made


def test_run_reuses_the_midpoint_factor(monkeypatch):
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    made = _count_assemblies(monkeypatch)
    dy.run(scen, interval_space(64), dy.SolverConfig(dt=1e-3, t_end=0.05))
    assert 1 <= len(made) < 50


def test_run_refactors_for_a_shorter_last_step(monkeypatch):
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    made = _count_assemblies(monkeypatch)
    state = dy.run(scen, interval_space(64), dy.SolverConfig(dt=1e-3, t_end=0.0105))
    assert state.t == pytest.approx(0.0105, abs=1e-12)
    assert made[0] == (1e-3, 1)
    # the shorter step's first iteration already solves with a new factor
    last = [it for dt, it in made if dt != 1e-3]
    assert last and last[0] == 1


def test_midpoint_newton_work_on_the_standing_wave(monkeypatch):
    # the 1D 256-cell standing wave: Newton starts from the extrapolated past
    # midpoint velocities, quartic once five are known and the last step
    # took at most QUARTIC_GATE iterations, so every step from the sixth on
    # takes one iteration; each of its inversions starts from the slope the
    # one before left, so it evaluates (h, h') at most twice on average
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0),
                             proto_model(reg_n=16, beta=0.1), 0.35)
    iters, evals = [], []
    real_step, real_invert, real_pair = dy.step_midpoint, dy._invert_at, con.response_pair
    made = [0]

    def step(*args):
        iters.append(0)
        return real_step(*args)

    def invert(scenario, E, warm, slope, space, stage, t, members=None):
        before = made[0]
        out = real_invert(scenario, E, warm, slope, space, stage, t, members)
        if stage.startswith("midpoint"):
            iters[-1] += 1
            evals.append(made[0] - before)
        return out

    def pair(*args):
        made[0] += 1
        return real_pair(*args)

    monkeypatch.setattr(dy, "step_midpoint", step)
    monkeypatch.setattr(dy, "_invert_at", invert)
    monkeypatch.setattr(con, "response_pair", pair)
    dy.run(scen, interval_space(256), dy.SolverConfig(dt=1e-3, t_end=0.35))
    assert len(iters) == 350 and max(iters[3:]) <= 2 and set(iters[5:]) == {1}
    assert sum(evals) <= 2.0 * len(evals)


def test_newton_start_is_quartic_behind_an_open_gate():
    # midpoint velocities quartic in t, at t = 1..5 (newest first) with
    # integer coefficients, so every extrapolation is exact in floats; member
    # 0's gate is open and its start is the value at t = 6, member 1's is
    # closed and its start keeps the quadratic extrapolation's bits
    coef = np.array([[[3.0, -2.0], [5.0, 1.0]], [[2.0, 1.0], [4.0, -1.0]],
                     [[2.0, -3.0], [0.0, 1.0]], [[-1.0, 2.0], [1.0, 1.0]],
                     [[1.0, 3.0], [-2.0, 1.0]]])

    def velocities(t):
        """(members, dofs) velocities at t, of degree 4 in t."""
        return sum(c * t**k for k, c in enumerate(coef))

    carry = dy._NewtonCarry()
    carry.past = [velocities(t) for t in (5.0, 4.0, 3.0, 2.0, 1.0)]
    carry.gate = np.array([True, False])
    V = np.zeros((2, 2))
    got = carry.start(V)
    p = carry.past
    assert np.array_equal(got[0], velocities(6.0)[0])
    assert np.array_equal(got[1], (3.0 * p[0] - 3.0 * p[1] + p[2])[1])
    assert not np.array_equal(got[1], velocities(6.0)[1])
    # a lone run's velocities have no member axis
    lone = dy._NewtonCarry()
    lone.past, lone.gate = [v[0] for v in p], np.array([True])
    assert np.array_equal(lone.start(V[0]), velocities(6.0)[0])
    lone.gate = np.array([False])
    assert np.array_equal(lone.start(V[0]), (3.0 * p[0] - 3.0 * p[1] + p[2])[0])
    # with four past velocities the start stays quadratic
    lone.past, lone.gate = lone.past[:4], np.array([True])
    assert np.array_equal(lone.start(V[0]), (3.0 * p[0] - 3.0 * p[1] + p[2])[0])


def test_members_with_different_start_gates_match_their_own_runs(monkeypatch):
    # the reg_n = 4 member needs more than QUARTIC_GATE iterations on steps
    # where the reg_n = 256 one needs fewer, so their starts differ in kind
    base = proto_model(reg_n=4)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), base, 0.06)
    members = dy.Members([scen, scen.with_model(base.with_reg(256))])
    space = interval_space(24)
    cfg = dy.SolverConfig(dt=2e-3, t_end=0.06)
    gates, real_step = [], dy.step_midpoint

    def step(scenario, space, state, dt, f_mid, carry):
        out = real_step(scenario, space, state, dt, f_mid, carry)
        gates.append(carry.gate.copy())
        return out

    monkeypatch.setattr(dy, "step_midpoint", step)
    batch, _ = _recorded_run(members, space, cfg)
    assert len(gates) == 30 and any(g[0] != g[1] for g in gates)
    for i, member in enumerate(members.scenarios):
        alone, _ = _recorded_run(member, space, cfg)
        assert len(alone) == len(batch) == 31
        assert all(np.array_equal(b.U[i], a.U) and np.array_equal(b.V[i], a.V)
                   for b, a in zip(batch, alone)), i


# ---------------------------------------------------------------------------
# run loop


def _recorded_run(scen, space, cfg, **kw):
    """Observer records the states of one run, and run's return value."""
    seen = []
    final = dy.run(scen, space, cfg, observers=(ref.per_state(seen.append),), **kw)
    return seen, final


def _assert_same_state(a, b):
    """a and b hold the same time and arrays."""
    assert a.t == b.t
    for x, y in zip(astuple(a)[1:], astuple(b)[1:]):
        assert (x is None and y is None) or np.array_equal(x, y)


def test_run_t_end_zero_single_record():
    scen = zero_scenario(proto_model())
    space = interval_space(8)
    seen, _ = _recorded_run(scen, space, dy.SolverConfig(dt=1e-2, t_end=0.0))
    assert len(seen) == 1 and seen[0].t == 0.0


@pytest.mark.parametrize("t_end", [0.0, 5e-3], ids=["t_end-0", "five-steps"])
def test_run_returns_last_observed_state(t_end):
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(8)
    seen, state = _recorded_run(scen, space, dy.SolverConfig(dt=1e-3, t_end=t_end))
    _assert_same_state(state, seen[-1])
    assert state.t == pytest.approx(t_end, abs=1e-12)


def _assert_own_record(scen, space, state):
    """state is the State evaluate_fields gives at its own (t, U, V)."""
    want = dy.evaluate_fields(scen, space, state.t, state.U, state.V)
    assert np.array_equal(state.eps, want.eps) and np.array_equal(state.E, want.E)
    assert np.max(np.abs(state.stress - want.stress)) <= 1e-12 * np.max(np.abs(want.stress))


@pytest.mark.parametrize("scheme", ["rk4", "midpoint"])
def test_observed_states_are_their_own_records(scheme):
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(16)
    seen, final = _recorded_run(scen, space, dy.SolverConfig(dt=1e-3, t_end=0.01,
                                                             scheme=scheme))
    assert len(seen) == 11
    _assert_same_state(final, seen[-1])
    for state in seen:
        _assert_own_record(scen, space, state)


def test_member_views_are_their_own_records():
    # every member's part of each observed state, and of the returned one,
    # is the State that member's own evaluate_fields gives
    base = proto_model(reg_n=4)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), base, 0.05)
    members = dy.Members([scen, scen.with_model(base.with_reg(64))])
    space = interval_space(16)
    seen = []
    final = dy.run(members, space, dy.SolverConfig(dt=1e-3, t_end=0.01),
                   observers=(ref.per_state(seen.append),))
    assert len(seen) == 11
    _assert_same_state(final, seen[-1])
    for state in seen:
        assert state.U.shape == (2, space.ndof)
        for i, member in enumerate(members.scenarios):
            _assert_own_record(member, space, dy._index(state, state.t, i))


def test_run_partial_final_step():
    scen = zero_scenario(proto_model())
    space = interval_space(8)
    seen, _ = _recorded_run(scen, space, dy.SolverConfig(dt=1e-3, t_end=0.0105))
    ts = [s.t for s in seen]
    assert len(ts) == 12
    assert ts[-1] == pytest.approx(0.0105, abs=1e-12)
    assert ts[-1] - ts[-2] == pytest.approx(5e-4, abs=1e-12)


def test_run_deterministic():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(32)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.05)
    r1, _ = _recorded_run(scen, space, cfg)
    r2, _ = _recorded_run(scen, space, cfg)
    assert len(r1) == len(r2)
    assert all(np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
               for a, b in zip(r1, r2))


def test_run_observer_sees_every_state():
    scen = zero_scenario(proto_model())
    space = interval_space(8)
    seen = []
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=5e-3),
           observers=(ref.per_state(lambda s: seen.append((s.t, s.stress.shape))),))
    assert len(seen) == 6
    assert seen[0][0] == 0.0
    assert all(shape == (space.n_qp, space.m) for _, shape in seen)


def test_run_strain_bound_with_slack():
    # regularized run: the strain expression can exceed L only by the
    # regularizer slack max|T|/n
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.2)
    space = interval_space(32)
    cfg = dy.SolverConfig(dt=2e-3, t_end=0.2)
    bound_ok = []

    def check(state):
        emax = float(np.max(st.norm(state.E)))
        tmax = float(np.max(st.norm(state.stress)))
        bound_ok.append(emax <= 1.0 + tmax / 64 + 1e-10)

    dy.run(scen, space, cfg, observers=(ref.per_state(check),))
    assert len(bound_ok) == 101 and all(bound_ok)


# ---------------------------------------------------------------------------
# strain history residual


def test_history_residual_zero_run():
    scen = zero_scenario(proto_model())
    space = interval_space(8)
    res = ref.strain_history_residual(scen, space, dy.SolverConfig(dt=1e-3, t_end=5e-3))
    assert res < 1e-15


def test_history_residual_exact_for_constant_strain():
    m = proto_model(reg_n=None)
    scen = sc.build_scenario("manufactured:constant-strain", 1, (0.0, 1.0), m, 0.05)
    space = interval_space(16)
    res = ref.strain_history_residual(scen, space, dy.SolverConfig(dt=2.5e-3, t_end=0.05))
    assert res <= 1e-9


def test_solver_config_validation():
    with pytest.raises(ValueError):
        dy.SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        dy.SolverConfig(dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        dy.SolverConfig(dt=1e-3, t_end=1.0, scheme="euler")


# ---------------------------------------------------------------------------
# the forcing, evaluated in blocks of steps


@pytest.mark.parametrize("reg_n", [16, None], ids=["reg16", "unregularized"])
@pytest.mark.parametrize("name, space", [
    ("manufactured:standing-wave", interval_space(32)),
    ("manufactured:standing-wave-2d", fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 1.0, 6, 6))),
], ids=["1d", "2d"])
def test_block_forcing_equals_per_time_calls(monkeypatch, name, space, reg_n):
    scen = sc.build_scenario(name, space.dim, ((0.0, 1.0),) * space.dim,
                             proto_model(reg_n=reg_n), 0.6)
    ts = [s for k in range(4) for s in dy._step_times(0.1 + k * 1e-3, 1e-3)] + [0.0, 0.6]
    block = dy._forcing_at(scen, space, ts)
    for t, f in zip(ts, block):
        assert np.array_equal(f, scen.forcing.value(t, space.qp))
    # calls of 3 times each (3, 3, 3 and 1) give the same values
    monkeypatch.setattr(dy, "BLOCK_POINTS", 3 * space.n_qp)
    assert np.array_equal(dy._forcing_at(scen, space, ts), block)
    if reg_n is not None:
        # members with their own forcing: each member's rows are its own
        members = dy.Members([scen, scen.with_model(scen.model.with_reg(64))])
        for t, f in zip(ts, dy._forcing_at(members, space, ts)):
            for member, rows in zip(members.scenarios, f):
                assert np.array_equal(rows, member.forcing.value(t, space.qp))


def _forcing_times(monkeypatch):
    """The times of every stress_divergence call, one array per call."""
    calls = []
    real = sc.stress_divergence

    def divergence(model, u_exact, t, X):
        calls.append(np.atleast_1d(t))
        return real(model, u_exact, t, X)

    monkeypatch.setattr(sc, "stress_divergence", divergence)
    return calls


def _former_forcing_times(dt, t_end):
    """The distinct times at which run's former per-time loop evaluated
    the forcing: t=0, then each step's half-step and end time."""
    t, times = 0.0, {0.0}
    while t < t_end - 1e-12 * max(1.0, t_end):
        dtk = min(dt, t_end - t)
        times |= {t + 0.5 * dtk, t + dtk}
        t = t + dtk
    return sorted(times)


def test_rk4_evaluates_the_forcing_at_two_times_per_step(monkeypatch):
    # the four stages share two times (the half step twice, the end
    # twice), and stage 1 and the ledger read the State's own forcing
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0), proto_model(), 0.01)
    space = interval_space(16)
    # blocks of 8 steps, whose forcing calls hold 8 times each
    monkeypatch.setattr(dy, "BLOCK_POINTS", 8 * space.n_qp)
    calls = _forcing_times(monkeypatch)
    energy = dg.EnergyRecorder(scen, space)
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=0.01, scheme="rk4"),
           observers=(energy,))
    per_call = [np.unique(t) for t in calls]
    assert len(calls) == 1 + 3                  # t=0, then blocks of 4, 4 and 2 steps
    assert sum(len(ts) for ts in per_call) == 1 + 2 * 10
    assert np.concatenate(per_call).tolist() == _former_forcing_times(1e-3, 0.01)
    assert len(energy.records) == 11


@pytest.mark.parametrize("scheme", ["rk4", "midpoint"])
def test_partial_last_step_keeps_its_forcing_times(monkeypatch, scheme):
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0), proto_model(),
                             0.0105)
    space = interval_space(8)
    calls = _forcing_times(monkeypatch)
    seen, _ = _recorded_run(scen, space, dy.SolverConfig(dt=1e-3, t_end=0.0105, scheme=scheme))
    times = np.concatenate([np.unique(t) for t in calls]).tolist()
    assert times == _former_forcing_times(1e-3, 0.0105)
    assert [s.t for s in seen] == times[::2]    # every record carries its own forcing
    for state in seen:
        assert np.array_equal(state.forcing, scen.forcing.value(state.t, space.qp))


def test_shared_fields_are_called_once_per_time(monkeypatch):
    # the stability study steps the base run and its perturbations as
    # members that share one lift and one forcing object: every call of
    # theirs serves all members, as many calls as a lone run makes
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0), proto_model(), 0.01)
    space = interval_space(16)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.01)
    calls = []
    for field, attr in ((scen.forcing, "_value"), (scen.lift, "_strain"),
                        (scen.lift, "_dt_strain")):
        real = getattr(field, attr)
        monkeypatch.setattr(field, attr, lambda t, X, real=real, attr=attr:
                            calls.append(attr) or real(t, X))
    dy.run(scen, space, cfg)
    lone = sorted(calls)
    calls.clear()
    dg.stability_study(scen, space, cfg, [1e-3, 1e-2, 1e-1])
    assert sorted(calls) == lone
    # t=0, one block of the steps' half-step times, the final State
    assert lone.count("_value") == 1 + 1 + 1


# ---------------------------------------------------------------------------
# end-of-step fields, evaluated in blocks and only for observers


def test_unobserved_midpoint_run_evaluates_the_forcing_at_t_mid_only(monkeypatch):
    # the wave1d-mid run without observers: the forcing at t=0, at each
    # step's half-step time and at the final State's time
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0),
                             proto_model(reg_n=16), 0.6)
    calls = _forcing_times(monkeypatch)
    final = dy.run(scen, interval_space(256), dy.SolverConfig(dt=1e-3, t_end=0.6))
    assert final.t == pytest.approx(0.6, abs=1e-12) and final.stress is not None
    assert sum(len(np.unique(t)) for t in calls) <= 602


def _midpoint_steps(monkeypatch, scen, space, cfg, observers):
    """(t, U, V) of every midpoint step of one run."""
    steps = []
    real = dy.step_midpoint

    def step(*args):
        state = real(*args)
        steps.append((state.t, state.U, state.V))
        return state

    monkeypatch.setattr(dy, "step_midpoint", step)
    dy.run(scen, space, cfg, observers=observers)
    monkeypatch.setattr(dy, "step_midpoint", real)
    return steps


def test_midpoint_steps_do_not_depend_on_the_observers(monkeypatch):
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0),
                             proto_model(reg_n=16), 0.03)
    space = interval_space(32)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.03)
    plain = _midpoint_steps(monkeypatch, scen, space, cfg, ())
    runs = []
    for steps_per_block in (64, 7, 1):        # 64: one block, the rule on 64 points
        monkeypatch.setattr(dy, "BLOCK_POINTS", steps_per_block * space.n_qp)
        seen = []
        runs.append(_midpoint_steps(monkeypatch, scen, space, cfg,
                                    (dg.EnergyRecorder(scen, space), ref.per_state(seen.append))))
        for state in seen:
            _assert_own_record(scen, space, state)
    for steps in runs:
        assert len(steps) == len(plain) == 30
        for (t, U, V), (tp, Up, Vp) in zip(steps, plain):
            assert t == tp and np.array_equal(U, Up) and np.array_equal(V, Vp)


@pytest.mark.parametrize("scheme", ["midpoint", "rk4"])
def test_members_observers_see_every_member_at_each_time(monkeypatch, scheme):
    # each block goes to the observers in their order, once, with every
    # member at each of its times: the member axis follows the row axis
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0), proto_model(), 0.01)
    space = interval_space(16)
    monkeypatch.setattr(dy, "BLOCK_POINTS", 4 * space.n_qp)    # blocks of 4, 4 and 2 steps
    members = dy.Members([scen, scen.with_model(scen.model.with_reg(64))])
    calls = []
    observers = tuple(lambda b, k=k: calls.append((k, tuple(b.t), b.U.shape, b.stress.shape))
                      for k in "ab")
    dy.run(members, space, dy.SolverConfig(dt=1e-3, t_end=0.01, scheme=scheme),
           observers=observers)
    times = [t for k, ts, _, _ in calls if k == "a" for t in ts]
    assert len(times) == 11
    # t=0, then blocks of 4, 4 and 2 states, for either scheme
    groups = [times[:1], times[1:5], times[5:9], times[9:]]
    assert calls == [(k, tuple(ts), (len(ts), 2, space.ndof), (len(ts), 2, space.n_qp, space.m))
                     for ts in groups for k in "ab"]


def test_rk4_blocks_hold_only_what_the_observers_read(monkeypatch):
    # observers that read no fields get RK4 states in blocks of t, U and V
    # alone, and so does run's return value; the steps are unchanged
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0), proto_model(), 0.01)
    space = interval_space(16)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.01, scheme="rk4")
    monkeypatch.setattr(dy, "BLOCK_POINTS", 4 * space.n_qp)    # blocks of 4, 4 and 2 steps
    final = dy.run(scen, space, cfg)
    blocks = []

    def observe(block):
        blocks.append(block)
    observe.reads_fields = False

    bare = dy.run(scen, space, cfg, observers=(observe,))
    assert [len(b.t) for b in blocks] == [1, 4, 4, 2]
    for state in blocks[1:] + [bare]:
        assert (state.eps, state.E, state.stress, state.forcing) == (None,) * 4
    assert bare.t == final.t
    assert np.array_equal(bare.U, final.U) and np.array_equal(bare.V, final.V)


def test_energy_records_are_complete_when_run_returns(monkeypatch):
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0), proto_model(), 0.01)
    space = interval_space(16)
    monkeypatch.setattr(dy, "BLOCK_POINTS", 4 * space.n_qp)    # blocks of 4, 4 and 2 steps
    energy = dg.EnergyRecorder(scen, space)
    seen = []
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=0.01),
           observers=(energy, ref.per_state(seen.append)))
    assert len(energy.records) == 11
    assert [r.t for r in energy.records] == [s.t for s in seen]


def _supercritical_block(space, row):
    """Four rows of coefficients of which only row is supercritical for
    the unregularized prototype model: one node displaced by 1 on 1/8
    cells gives strains of magnitude 8."""
    U = np.zeros((4, space.ndof))
    U[row, space.ndof // 2] = 1.0
    return U


def test_block_failure_names_its_own_row():
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=0.1)
    scen = zero_scenario(m)
    space = interval_space(8)
    ts = [0.1, 0.2, 0.3, 0.4]
    U = _supercritical_block(space, 2)
    q = int(np.argmax(st.norm(space.strain_at_qp(U[2]))))
    with pytest.raises(con.SupercriticalStrainError) as err:
        dy.evaluate_fields(scen, space, ts, U, np.zeros_like(U))
    assert f"[t=0.3, worst qp #{q} at x={space.qp[q]}, " in str(err.value)

    # a block of Members: rows, then members
    members = dy.Members([scen, scen])
    UM = np.stack([np.zeros_like(U), U], axis=1)
    with pytest.raises(con.SupercriticalStrainError) as err:
        dy.evaluate_fields(members, space, ts, UM, np.zeros_like(UM))
    assert f"[t=0.3, worst qp #{q} at x={space.qp[q]} of member #1, " in str(err.value)
    assert err.value.member == 1
