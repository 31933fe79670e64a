from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from strainlim import constitutive as con
from strainlim import diagnostics as dg
from strainlim import dynamics as dy
from strainlim import fespace as fe
from strainlim import scenarios as sc
from strainlim import symtensor as st

import reference_impl as ref
from reference_impl import interval_space, proto_model


def ramp_lift(slope, rate):
    """u = (slope + rate t) x on [0,1]: eps = slope + rate t, dt_eps = rate.
    t is a float or a block of times (see sc.AnalyticField)."""
    def ones(X):
        return np.ones((X.shape[0], 1, 1))

    return sc.AnalyticField(
        1,
        value=lambda t, X: np.multiply.outer(slope + rate * t, X),
        grad=lambda t, X: np.multiply.outer(slope + rate * t, ones(X)),
        dt_value=lambda t, X: np.multiply.outer(np.full(np.shape(t), rate), X),
        dt_grad=lambda t, X: np.multiply.outer(np.full(np.shape(t), rate), ones(X)),
    )


def rest_state(scen, space):
    return dy.evaluate_fields(scen, space, 0.0, np.zeros(space.ndof), np.zeros(space.ndof))


# ---------------------------------------------------------------------------
# energy snapshot


def one_snapshot(state, space, scen):
    """The ledger record of one State, from its block of one."""
    [record] = dg.energy_snapshot(dy.block_of([state]), space, scen)
    return record


def test_rest_ledger_all_zero():
    m = proto_model(reg_n=None, beta=1.0)
    scen = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m,
                       lift=sc.zero_field(1), t_end=1.0)
    space = interval_space(4)
    led = one_snapshot(rest_state(scen, space), space, scen)
    assert led.kinetic == 0.0 and led.elastic == 0.0
    assert led.dissipation_rate == 0.0 and led.external_power == 0.0


def test_hand_ledger_no_rate():
    # eps=0.6, dt_eps=0: T = T0 = 0.75, dissipation vanishes,
    # elastic = phi*(0.6) = 0.2 on the unit interval
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=1.0)
    scen = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m,
                       lift=ramp_lift(0.6, 0.0), t_end=1.0)
    space = interval_space(2)
    led = one_snapshot(rest_state(scen, space), space, scen)
    assert led.elastic == pytest.approx(0.2, abs=1e-12)
    assert led.kinetic == 0.0
    assert abs(led.dissipation_rate) < 1e-12


def test_hand_ledger_with_rate():
    # eps=0.6, dt_eps=0.2: E=0.8, T=4/3, T0=0.75,
    # pairing (4/3 - 3/4)(0.8 - 0.6) = 7/60
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=1.0)
    scen = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m,
                       lift=ramp_lift(0.6, 0.2), t_end=1.0)
    space = interval_space(2)
    led = one_snapshot(rest_state(scen, space), space, scen)
    assert led.dissipation_rate == pytest.approx(7.0 / 60.0, abs=1e-12)
    assert led.elastic == pytest.approx(0.2, abs=1e-12)
    assert led.kinetic == pytest.approx(0.5 * 0.04 / 3.0, abs=1e-12)


def test_ledger_solves_the_radius_once(monkeypatch):
    # T0 and the conjugate energy come from one warm radial solve
    m = proto_model(reg_n=16, beta=0.5)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.1)
    space = interval_space(16)
    V = 0.3 * np.sin(np.pi * np.arange(1, space.ndof + 1) / (space.ndof + 1))
    state = dy.evaluate_fields(scen, space, 0.0, np.zeros(space.ndof), V)
    calls = []
    real = con.invert_radius

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(con, "invert_radius", counting)
    led = one_snapshot(state, space, scen)
    assert len(calls) == 1
    monkeypatch.setattr(con, "invert_radius", real)
    e = m.alpha * st.norm(state.eps)
    cold = float(np.sum(space.qw * con.effective_conjugate(m, e))) / m.alpha
    assert led.elastic == pytest.approx(cold, rel=1e-14)
    T0 = con.invert(m, m.alpha * state.eps)
    gap = con.g_apply(m, state.stress) - con.g_apply(m, T0)
    rate = float(np.sum(space.qw * st.dot(state.stress - T0, gap))) / m.beta
    assert led.dissipation_rate == pytest.approx(rate, rel=1e-12)
    assert led.dissipation_rate > 0.0


def test_ledger_external_power():
    m = con.ConstitutiveModel(con.LinearPotential(), alpha=1.0, beta=1.0)
    forcing = sc.AnalyticField(1, value=lambda t, X: np.full(np.shape(t) + (X.shape[0], 1), 2.0))
    scen = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m,
                       lift=ramp_lift(0.0, 0.5), forcing=forcing, t_end=1.0)
    space = interval_space(8)
    led = one_snapshot(rest_state(scen, space), space, scen)
    # int 2 * 0.5 x dx = 0.5
    assert led.external_power == pytest.approx(0.5, abs=1e-12)


def test_block_snapshot_equals_one_state_snapshots():
    # a moving lift (eps = 0.8 + t) and a time-dependent forcing, with two
    # rows beyond the strain limit, whose records are suspended
    m = proto_model(reg_n=8, beta=0.5)
    forcing = sc.AnalyticField(1, value=lambda t, X: 2.0 + np.multiply.outer(t, X))
    scen = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m,
                       lift=ramp_lift(0.8, 1.0), forcing=forcing, t_end=1.0)
    space = interval_space(8)
    rng = np.random.default_rng(3)
    U, V = 1e-3 * rng.standard_normal((2, 4, space.ndof))
    block = dy.evaluate_fields(scen, space, [0.0, 0.05, 0.3, 0.25], U, V)
    records = dg.energy_snapshot(block, space, scen)
    singles = [one_snapshot(dy._index(block, t, j), space, scen) for j, t in enumerate(block.t)]
    assert [np.isinf(r.elastic) for r in records] == [False, False, True, True]
    assert len(records) == len(singles) == 4
    for got, want in zip(records, singles):
        assert np.array_equal(astuple(got), astuple(want), equal_nan=True)


def test_elastic_sentinel_beyond_limit():
    m = proto_model(reg_n=8, beta=1.0)
    scen = sc.Scenario(dim=1, domain=((0.0, 1.0),), model=m,
                       lift=ramp_lift(1.2, 0.0), t_end=1.0)
    space = interval_space(4)
    led = one_snapshot(rest_state(scen, space), space, scen)
    assert led.elastic == np.inf
    assert np.isnan(led.dissipation_rate)
    # suspended rows are ignored by the balance residual
    ok = dg.EnergyLedger(t=0.0, kinetic=1.0, elastic=1.0,
                         dissipation_rate=0.0, external_power=0.0)
    bad = dg.EnergyLedger(t=1.0, kinetic=1.0, elastic=np.inf,
                          dissipation_rate=np.nan, external_power=0.0)
    assert np.isfinite(ref.energy_balance_residual([ok, ok, bad]))


def test_ledger_table_trapezoid_hand_case():
    recs = [
        dg.EnergyLedger(t=0.0, kinetic=1.0, elastic=0.5, dissipation_rate=2.0,
                        external_power=1.0),
        dg.EnergyLedger(t=0.5, kinetic=0.8, elastic=0.4, dissipation_rate=1.0,
                        external_power=1.0),
        dg.EnergyLedger(t=1.0, kinetic=0.7, elastic=0.3, dissipation_rate=0.0,
                        external_power=1.0),
    ]
    tab = dg.ledger_table(recs)
    assert np.allclose(tab["dissipation_cum"], [0.0, 0.75, 1.0])
    assert np.allclose(tab["external_cum"], [0.0, 0.5, 1.0])
    want = (0.8 + 0.4) - 1.5 + 0.75 - 0.5
    assert tab["balance_residual"][1] == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# recorders on real runs


def test_pluck_energy_decay_and_dissipation():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.25)
    space = interval_space(64)
    er = dg.EnergyRecorder(scen, space)
    mon = dg.StrainRecorder(scen)
    cfg = dy.SolverConfig(dt=2e-3, t_end=0.25, scheme="midpoint")
    dy.run(scen, space, cfg, observers=(er, mon))
    tab = er.table()
    tot = tab["kinetic"] + tab["elastic"]
    resid = ref.energy_balance_residual(er.records)
    # decay up to the scheme residual
    assert np.max(np.diff(tot)) <= resid + 1e-12
    rates = np.array([r.dissipation_rate for r in er.records])
    assert np.min(rates) >= -1e-12
    # monitor consistency and regularizer-slack bound
    mt = mon.table()
    assert np.allclose(mt["margin"], 1.0 - mt["max_strain_expr"])
    assert np.all(mt["max_strain_expr"] <= 1.0 + mt["max_stress"] / 64 + 1e-10)


def test_balance_residual_shrinks_with_dt():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.2)
    space = interval_space(32)
    res = []
    for dt in (4e-3, 2e-3):
        er = dg.EnergyRecorder(scen, space)
        dy.run(scen, space, dy.SolverConfig(dt=dt, t_end=0.2), observers=(er,))
        res.append(ref.energy_balance_residual(er.records))
    assert res[0] / res[1] > 2.5


# ---------------------------------------------------------------------------
# studies


def test_fit_order_exact_powers():
    h = np.array([0.1, 0.05, 0.025, 0.0125])
    assert dg.fit_order(h, 3.0 * h**2) == pytest.approx(2.0, abs=1e-12)
    assert dg.fit_order(h, 0.5 * h**4) == pytest.approx(4.0, abs=1e-12)
    assert np.isnan(dg.fit_order(h, np.array([1.0, 0.0, 1.0, 1.0])))


def test_regularization_sweep_cauchy():
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=0.1)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.15)
    space = interval_space(48)
    cfg = dy.SolverConfig(dt=2e-3, t_end=0.15)
    rep = dg.regularization_sweep(scen, space, cfg, [4, 16, 64, 256])
    assert rep.extra["cauchy"]
    assert np.all(np.diff(rep.values) < 0.0)
    assert len(rep.values) == 3 and len(rep.extra["max_t_diffs"]) == 3
    assert np.all(rep.extra["max_t_diffs"] >= rep.values - 1e-15)


def test_regularization_sweep_compares_levels_at_the_same_time(monkeypatch):
    # each record's differences are taken across the members of one row of
    # a block: with blocks of many steps (the default, 42 steps of 96
    # points here) as with blocks of one step, they are the same
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=0.1)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.15)
    space = interval_space(48)
    cfg = dy.SolverConfig(dt=2e-3, t_end=0.15)
    blocks = dg.regularization_sweep(scen, space, cfg, [4, 16, 64])
    monkeypatch.setattr(dy, "BLOCK_POINTS", space.n_qp)
    steps = dg.regularization_sweep(scen, space, cfg, [4, 16, 64])
    assert np.array_equal(blocks.values, steps.values)
    assert np.array_equal(blocks.extra["max_t_diffs"], steps.extra["max_t_diffs"])


def test_midpoint_sweep_skips_the_fields_nobody_reads(monkeypatch):
    # a 1D 64-cell midpoint sweep of 100 steps over four levels: its
    # observers read only U, so the fields of its 100 states x 4 members x
    # 128 qps go uninverted; an observer that reads fields brings them back
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=0.1, reg_n=4)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.1)
    space = interval_space(64)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.1)
    points = []
    real_invert, real_run = con.invert, dy.run

    def counting_invert(model, E, **kw):
        points[-1] += E.size // E.shape[-1]
        return real_invert(model, E, **kw)

    def run_reading_fields(scenario, space, config, observers=(), **kw):
        reading = tuple(observers) + (lambda block: block.stress,)
        return real_run(scenario, space, config, observers=reading, **kw)

    monkeypatch.setattr(con, "invert", counting_invert)
    reports = []
    for run in (real_run, run_reading_fields):
        monkeypatch.setattr(dy, "run", run)
        points.append(0)
        reports.append(dg.regularization_sweep(scen, space, cfg, [4, 16, 64, 256]))
    assert points[1] - points[0] == 100 * 4 * 128
    assert reports[0].values.tolist() == reports[1].values.tolist()
    assert reports[0].extra["max_t_diffs"].tolist() == reports[1].extra["max_t_diffs"].tolist()
    assert reports[0].extra["cauchy"] == reports[1].extra["cauchy"]


def test_regularization_sweep_linear_scaling():
    # with the linear response the PDE solution depends on n only through
    # the factor 1/(1+1/n), so successive diffs scale like 1/n gaps
    m = con.ConstitutiveModel(con.LinearPotential(), alpha=1.0, beta=0.1)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.15)
    space = interval_space(48)
    cfg = dy.SolverConfig(dt=2e-3, t_end=0.15)
    rep = dg.regularization_sweep(scen, space, cfg, [16, 64, 256])
    ratio = rep.values[0] / rep.values[1]
    assert 3.6 <= ratio <= 4.4


def test_regularization_sweep_validation():
    m = proto_model()
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.1)
    space = interval_space(8)
    cfg = dy.SolverConfig(dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError):
        dg.regularization_sweep(scen, space, cfg, [4, 16])
    with pytest.raises(ValueError):
        dg.regularization_sweep(scen, space, cfg, [16, 4, 64])


def test_refinement_study_h_order_2():
    scen = sc.build_scenario("standing-wave", 1, (0.0, 1.0), proto_model(reg_n=16), 0.2)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.2)
    rep = dg.refinement_study(scen, "h", [16, 32, 64], cfg)
    assert 1.7 <= rep.fitted_order <= 2.3
    assert np.all(np.diff(rep.values) < 0.0) or np.all(np.diff(rep.values) > 0.0)


def test_refinement_study_dt_order_2():
    scen = sc.build_scenario("standing-wave", 1, (0.0, 1.0), proto_model(reg_n=16), 0.2)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.2)
    rep = dg.refinement_study(scen, "dt", [8e-3, 4e-3, 2e-3], cfg,
                              space=interval_space(64))
    assert 1.8 <= rep.fitted_order <= 2.2


def test_refinement_study_validation():
    scen = sc.build_scenario("standing-wave", 1, (0.0, 1.0), proto_model(reg_n=16), 0.1)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.1)
    with pytest.raises(ValueError):
        dg.refinement_study(scen, "h", [16, 32], cfg)
    with pytest.raises(ValueError):
        dg.refinement_study(scen, "x", [16, 32, 64], cfg)
    pluck = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.1)
    with pytest.raises(ValueError):
        dg.refinement_study(pluck, "h", [16, 32, 64], cfg)


@pytest.mark.parametrize("axis, levels", [("h", [16, 32, 16]), ("dt", [2e-3, 2e-3, 1e-3])],
                         ids=["h", "dt"])
def test_refinement_study_rejects_unordered_levels_before_any_run(monkeypatch, axis, levels):
    # the report axis would catch them only after every level had run
    runs = []
    monkeypatch.setattr(dg.dyn, "run", lambda *args, **kw: runs.append(args))
    scen = sc.build_scenario("manufactured:standing-wave", 1, (0.0, 1.0),
                             proto_model(reg_n=16), 0.3)
    with pytest.raises(ValueError, match="levels: entries must be strictly monotone"):
        dg.refinement_study(scen, axis, levels, dy.SolverConfig(dt=1e-3, t_end=0.3),
                            space=interval_space(16))
    assert runs == []


def test_stability_study_linear_response():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.2)
    space = interval_space(32)
    cfg = dy.SolverConfig(dt=2e-3, t_end=0.2)
    rep = dg.stability_study(scen, space, cfg, [1e-3, 1e-5, 1e-7], seed=0)
    spread = (rep.values.max() - rep.values.min()) / rep.values.min()
    assert spread < 0.10
    assert rep.extra["growth_constant"] > 0.0
    # rerun is bit-identical
    rep2 = dg.stability_study(scen, space, cfg, [1e-3, 1e-5, 1e-7], seed=0)
    assert np.array_equal(rep.values, rep2.values)


def test_stability_study_validation():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.1)
    space = interval_space(8)
    cfg = dy.SolverConfig(dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError):
        dg.stability_study(scen, space, cfg, [1e-3, 1e-5])
    with pytest.raises(ValueError):
        dg.stability_study(scen, space, cfg, [1e-3, 0.0, 1e-7])


def test_study_failure_keeps_type_and_names_case(monkeypatch):
    monkeypatch.setattr(dy, "NEWTON_TOL", 1e-30)
    monkeypatch.setattr(dy, "NEWTON_MAX", 3)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.02)
    cfg = dy.SolverConfig(dt=1e-2, t_end=0.02)
    with pytest.raises(dy.MidpointNoConvergence, match=r"\[study case base\]") as err:
        dg.stability_study(scen, interval_space(16), cfg, [1e-3, 1e-5, 1e-7])
    assert len(err.value.trace) == 3


def test_stability_failure_at_t0_names_case():
    # the largest perturbation's initial velocity alone is beyond the limit
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=0.1)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.02)
    cfg = dy.SolverConfig(dt=1e-2, t_end=0.02)
    with pytest.raises(con.SupercriticalStrainError, match=r"\[study case delta=100\]"):
        dg.stability_study(scen, interval_space(16), cfg, [100.0, 1e-3, 1e-5])


# ---------------------------------------------------------------------------
# studies step their members as one batch


def _study_case(study, scheme, dim):
    """A small study of 4 members and 30 steps: its scenario, space, config."""
    dom = ((0.0, 1.0),) * dim
    scen = sc.build_scenario("gaussian-pluck", dim, dom, proto_model(reg_n=4), 0.06)
    space = fe.FESpace(fe.box_mesh(dom, (24,) if dim == 1 else (4, 4)))
    return scen, space, dy.SolverConfig(dt=2e-3, t_end=0.06, scheme=scheme)


def _run_study(study, scen, space, cfg):
    if study == "regularization":
        return dg.regularization_sweep(scen, space, cfg, [4, 16, 64, 256])
    return dg.stability_study(scen, space, cfg, [1e-3, 1e-5, 1e-7])


def _spy_batch(monkeypatch):
    """Spy on the studies' run: every member's (U, V) at every record,
    next to the member scenarios and the initial State it was given."""
    real = dy.run
    seen = {}

    def spy(members, space, config, observers=(), start=None):
        hist = [[] for _ in range(len(members))]

        def record(block):
            for U, V in zip(block.U, block.V):          # rows, then members
                for h, Ui, Vi in zip(hist, U, V):
                    h.append((Ui, Vi))
        record.reads_fields = False
        seen.update(members=members, start=start, hist=hist)
        return real(members, space, config, observers=tuple(observers) + (record,),
                    start=start)

    monkeypatch.setattr(dg.dyn, "run", spy)
    return seen, real


def _own_start(start, i, member, space):
    """Member i's own initial State, from its batch start (None: run's
    default), evaluated alone from the same coefficients."""
    if start is not None:
        return dy.evaluate_fields(member, space, 0.0, start.U[i], start.V[i])


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("scheme", ["rk4", "midpoint"])
@pytest.mark.parametrize("study", ["regularization", "stability"])
def test_study_members_match_their_own_runs(monkeypatch, study, scheme, dim):
    scen, space, cfg = _study_case(study, scheme, dim)
    seen, real = _spy_batch(monkeypatch)
    _run_study(study, scen, space, cfg)
    members = seen["members"]
    assert isinstance(members, dy.Members) and len(members) == 4
    for i, member in enumerate(members.scenarios):
        alone = []
        real(member, space, cfg, start=_own_start(seen["start"], i, member, space),
             observers=(ref.per_state(lambda s: alone.append((s.U, s.V))),))
        batch = seen["hist"][i]
        assert len(batch) == len(alone) == 31
        assert all(np.array_equal(U, Ua) and np.array_equal(V, Va)
                   for (U, V), (Ua, Va) in zip(batch, alone)), (study, i)


def _count_newton(monkeypatch):
    """Midpoint Newton iterations per (member, step) and Jacobian
    factorizations per (reg_n, step) of every run while installed."""
    iters, facts = Counter(), Counter()
    now = [None]
    real_invert, real_assemble = dy._invert_at, dy._assemble_midpoint_jacobian

    def invert(scenario, E, warm, slope, space, stage, t, members=None):
        if stage.startswith("midpoint"):
            now[0] = t
            iters.update((i, t) for i in members)
        return real_invert(scenario, E, warm, slope, space, stage, t, members)

    def assemble(space, mass, factor, model, T):
        facts[(model.reg_n, now[0])] += 1
        return real_assemble(space, mass, factor, model, T)

    monkeypatch.setattr(dy, "_invert_at", invert)
    monkeypatch.setattr(dy, "_assemble_midpoint_jacobian", assemble)
    return iters, facts


@pytest.mark.parametrize("study", ["regularization", "stability"])
def test_study_members_keep_their_newton_counts(monkeypatch, study):
    scen, space, cfg = _study_case(study, "midpoint", 1)
    seen, real = _spy_batch(monkeypatch)
    iters, facts = _count_newton(monkeypatch)
    _run_study(study, scen, space, cfg)
    batch_iters, batch_facts = dict(iters), dict(facts)
    members = seen["members"]
    steps = sorted({t for _, t in batch_iters})
    assert len(steps) == 30
    alone_facts = Counter()
    for i, member in enumerate(members.scenarios):
        iters.clear()
        facts.clear()
        real(member, space, cfg, start=_own_start(seen["start"], i, member, space))
        assert [iters[(0, t)] for t in steps] == [batch_iters.get((i, t), 0) for t in steps]
        alone_facts.update(facts)
    # the sweep's members differ in reg_n, so each factorization is known by
    # its member; the stability members share one model, so compare per step
    assert alone_facts == Counter(batch_facts)
    if study == "regularization":
        # the members converge after different numbers of iterations
        assert any(len({batch_iters[(i, t)] for i in range(4)}) > 1 for t in steps)
