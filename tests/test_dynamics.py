import numpy as np
import pytest
import scipy.sparse as sp

from strainlim import constitutive as con
from strainlim import dynamics as dy
from strainlim import fespace as fe
from strainlim import scenarios as sc
from strainlim import symtensor as st


def zero_scenario(model, domain=(0.0, 1.0)):
    return sc.Scenario(name="rest", dim=1, domain=((domain[0], domain[1]),),
                       model=model, lift=sc.zero_field(1), t_end=1.0)


def linear_model(alpha=1.0, beta=0.1, reg_n=None):
    return con.ConstitutiveModel(con.LinearPotential(), alpha=alpha, beta=beta,
                                 reg_n=reg_n)


def proto_model(q=2.0, alpha=1.0, beta=0.1, reg_n=64):
    return con.ConstitutiveModel(con.PrototypePotential(q), alpha=alpha,
                                 beta=beta, reg_n=reg_n)


def interval_space(cells):
    return fe.FESpace(fe.interval_mesh(0.0, 1.0, cells))


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
    dV, fields = dy._accel(scen, space, 0.0, np.array([0.2]), np.array([-0.1]),
                           None, 1e-12)
    assert abs(dV[0] - (-12.0 * (1.3 * 0.2 + 0.4 * (-0.1)))) < 1e-12
    assert fields["stress"].shape == (space.n_qp, space.m)


def test_rest_state_is_stationary():
    m = proto_model()
    space = interval_space(8)
    scen = zero_scenario(m)
    state = dy.State(0.0, np.zeros(space.ndof), np.zeros(space.ndof), None)
    dV, _ = dy._accel(scen, space, 0.0, state.U, state.V, None, 1e-12)
    assert np.max(np.abs(dV)) < 1e-13

    s1, _ = dy.step_rk4(scen, space, state, 1e-2)
    assert np.max(np.abs(s1.U)) < 1e-14 and np.max(np.abs(s1.V)) < 1e-14
    assert s1.t == pytest.approx(1e-2)
    s2, _ = dy.step_midpoint(scen, space, state, 1e-2)
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
    dV, _ = dy._accel(scen, space, 0.0, U, V, None, 1e-12)
    want = np.linalg.solve(space.mass.toarray(), -K @ (m.alpha * U + m.beta * V))
    assert np.max(np.abs(dV - want)) < 1e-10


def test_rhs_annotates_supercritical():
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=0.1)
    lift = sc.AnalyticField(1, value=lambda t, X: 1.5 * X,
                            grad=lambda t, X: np.full((X.shape[0], 1, 1), 1.5))
    scen = sc.Scenario(name="bad", dim=1, domain=((0.0, 1.0),), model=m,
                       lift=lift, t_end=1.0)
    space = interval_space(4)
    with pytest.raises(con.SupercriticalStrainError) as err:
        dy.evaluate_fields(scen, space, 0.25, np.zeros(space.ndof),
                           np.zeros(space.ndof))
    msg = str(err.value)
    assert "t=0.25" in msg and "qp" in msg


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
        finals.append(dy.run(scen, space, cfg)[0].U)
    order = self_convergence_order(dts, finals, space)
    assert 3.7 <= order <= 4.3


def test_midpoint_self_convergence_order_2():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.1)
    space = interval_space(32)
    dts = [8e-3, 4e-3, 2e-3, 1e-3]
    finals = []
    for dt in dts:
        cfg = dy.SolverConfig(dt=dt, t_end=0.1, scheme="midpoint")
        finals.append(dy.run(scen, space, cfg)[0].U)
    order = self_convergence_order(dts, finals, space)
    assert 1.8 <= order <= 2.2


def test_midpoint_agrees_with_rk4():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(32)
    mid, _ = dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=0.05))
    rk, _ = dy.run(scen, space, dy.SolverConfig(dt=2e-4, t_end=0.05, scheme="rk4"))
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
    dy.run(scen, space, cfg, V0=V0,
           observers=(lambda s, f: energies.append(energy(s.U, s.V)),))
    assert len(energies) == 1001
    e0 = energies[0]
    drift = max(abs(e - e0) for e in energies)
    assert drift / e0 <= 1e-6


def test_midpoint_stress_cache_satisfies_relation():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(16)
    state = dy.State(0.0, np.zeros(space.ndof), np.zeros(space.ndof), None)
    state.stress = dy.evaluate_fields(scen, space, 0.0, state.U, state.V)["stress"]
    nxt, fields = dy.step_midpoint(scen, space, state, 1e-3)
    gap = con.g_apply(scen.model, nxt.stress) - fields["E"]
    assert float(np.max(st.norm(gap))) < 1e-10


def test_midpoint_no_convergence_error():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(16)
    state = dy.State(0.0, np.zeros(space.ndof), np.zeros(space.ndof), None)
    with pytest.raises(dy.MidpointNoConvergence) as err:
        dy.step_midpoint(scen, space, state, 1e-2, newton_tol=1e-30,
                         newton_max=3)
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


# ---------------------------------------------------------------------------
# run loop


def _recorded_run(scen, space, cfg, **kw):
    """Observer records (state, fields) of one run, and run's return value."""
    seen = []
    final = dy.run(scen, space, cfg, observers=(lambda s, f: seen.append((s, f)),),
                   **kw)
    return seen, final


def test_run_t_end_zero_single_record():
    scen = zero_scenario(proto_model())
    space = interval_space(8)
    seen, _ = _recorded_run(scen, space, dy.SolverConfig(dt=1e-2, t_end=0.0))
    assert len(seen) == 1 and seen[0][0].t == 0.0


@pytest.mark.parametrize("t_end", [0.0, 5e-3], ids=["t_end-0", "five-steps"])
def test_run_returns_last_observed_state(t_end):
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.05)
    space = interval_space(8)
    seen, (state, fields) = _recorded_run(scen, space,
                                          dy.SolverConfig(dt=1e-3, t_end=t_end))
    assert state is seen[-1][0] and fields is seen[-1][1]
    assert state.t == pytest.approx(t_end, abs=1e-12)
    assert state.stress is fields["stress"]


def test_run_partial_final_step():
    scen = zero_scenario(proto_model())
    space = interval_space(8)
    seen, _ = _recorded_run(scen, space, dy.SolverConfig(dt=1e-3, t_end=0.0105))
    ts = [s.t for s, _ in seen]
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
               for (a, _), (b, _) in zip(r1, r2))


def test_run_observer_sees_every_state():
    scen = zero_scenario(proto_model())
    space = interval_space(8)
    seen = []
    dy.run(scen, space, dy.SolverConfig(dt=1e-3, t_end=5e-3),
           observers=(lambda s, f: seen.append((s.t, f["stress"].shape)),))
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

    def check(state, fields):
        emax = float(np.max(st.norm(fields["E"])))
        tmax = float(np.max(st.norm(fields["stress"])))
        bound_ok.append(emax <= 1.0 + tmax / 64 + 1e-10)

    dy.run(scen, space, cfg, observers=(check,))
    assert all(bound_ok)


# ---------------------------------------------------------------------------
# strain history residual


def _history_residual(scen, space, cfg):
    seen, _ = _recorded_run(scen, space, cfg)
    return dy.strain_history_residual([s.t for s, _ in seen],
                                      [f["eps"] for _, f in seen],
                                      [f["stress"] for _, f in seen], scen.model)


def test_history_residual_zero_run():
    scen = zero_scenario(proto_model())
    space = interval_space(8)
    res = _history_residual(scen, space, dy.SolverConfig(dt=1e-3, t_end=5e-3))
    assert res < 1e-15


def test_history_residual_exact_for_constant_strain():
    m = proto_model(reg_n=None)
    scen = sc.build_scenario("manufactured:constant-strain", 1, (0.0, 1.0), m, 0.05)
    space = interval_space(16)
    res = _history_residual(scen, space, dy.SolverConfig(dt=2.5e-3, t_end=0.05))
    assert res <= 1e-9


def test_history_residual_order_2():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.1)
    space = interval_space(32)
    res = [_history_residual(scen, space, dy.SolverConfig(dt=dt, t_end=0.1))
           for dt in (1e-3, 5e-4)]
    assert 3.4 <= res[0] / res[1] <= 4.6


def test_solver_config_validation():
    with pytest.raises(ValueError):
        dy.SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        dy.SolverConfig(dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        dy.SolverConfig(dt=1e-3, t_end=1.0, scheme="euler")
