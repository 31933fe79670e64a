import numpy as np
import pytest

from strainlim import constitutive as con
from strainlim import diagnostics as dg
from strainlim import dynamics as dy
from strainlim import fespace as fe
from strainlim import scenarios as sc


def proto_model(q=2.0, alpha=1.0, beta=0.1, reg_n=64):
    return con.ConstitutiveModel(con.PrototypePotential(q), alpha=alpha,
                                 beta=beta, reg_n=reg_n)


def interval_space(cells):
    return fe.FESpace(fe.interval_mesh(0.0, 1.0, cells))


def ramp_lift(slope, rate):
    """u = (slope + rate t) x on [0,1]: eps = slope + rate t, dt_eps = rate."""
    return sc.AnalyticField(
        1,
        value=lambda t, X: (slope + rate * t) * X,
        grad=lambda t, X: np.full((X.shape[0], 1, 1), slope + rate * t),
        dt_value=lambda t, X: rate * X,
        dt_grad=lambda t, X: np.full((X.shape[0], 1, 1), rate),
    )


def rest_state(space):
    return dy.State(0.0, np.zeros(space.ndof), np.zeros(space.ndof), None)


# ---------------------------------------------------------------------------
# energy snapshot


def test_rest_ledger_all_zero():
    m = proto_model(reg_n=None, beta=1.0)
    scen = sc.Scenario(name="r", dim=1, domain=((0.0, 1.0),), model=m,
                       lift=sc.zero_field(1), t_end=1.0)
    space = interval_space(4)
    led = dg.energy_snapshot(rest_state(space), space, scen)
    assert led.kinetic == 0.0 and led.elastic == 0.0
    assert led.dissipation_rate == 0.0 and led.external_power == 0.0


def test_hand_ledger_no_rate():
    # eps=0.6, dt_eps=0: T = T0 = 0.75, dissipation vanishes,
    # elastic = phi*(0.6) = 0.2 on the unit interval
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=1.0)
    scen = sc.Scenario(name="h", dim=1, domain=((0.0, 1.0),), model=m,
                       lift=ramp_lift(0.6, 0.0), t_end=1.0)
    space = interval_space(2)
    led = dg.energy_snapshot(rest_state(space), space, scen)
    assert led.elastic == pytest.approx(0.2, abs=1e-12)
    assert led.kinetic == 0.0
    assert abs(led.dissipation_rate) < 1e-12


def test_hand_ledger_with_rate():
    # eps=0.6, dt_eps=0.2: E=0.8, T=4/3, T0=0.75,
    # pairing (4/3 - 3/4)(0.8 - 0.6) = 7/60
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=1.0)
    scen = sc.Scenario(name="h", dim=1, domain=((0.0, 1.0),), model=m,
                       lift=ramp_lift(0.6, 0.2), t_end=1.0)
    space = interval_space(2)
    led = dg.energy_snapshot(rest_state(space), space, scen)
    assert led.dissipation_rate == pytest.approx(7.0 / 60.0, abs=1e-12)
    assert led.elastic == pytest.approx(0.2, abs=1e-12)
    assert led.kinetic == pytest.approx(0.5 * 0.04 / 3.0, abs=1e-12)


def test_ledger_external_power():
    m = con.ConstitutiveModel(con.LinearPotential(), alpha=1.0, beta=1.0)
    forcing = sc.AnalyticField(1, value=lambda t, X: np.full((X.shape[0], 1), 2.0))
    scen = sc.Scenario(name="f", dim=1, domain=((0.0, 1.0),), model=m,
                       lift=ramp_lift(0.0, 0.5), forcing=forcing, t_end=1.0)
    space = interval_space(8)
    led = dg.energy_snapshot(rest_state(space), space, scen)
    # int 2 * 0.5 x dx = 0.5
    assert led.external_power == pytest.approx(0.5, abs=1e-12)


def test_elastic_sentinel_beyond_limit():
    m = proto_model(reg_n=8, beta=1.0)
    scen = sc.Scenario(name="b", dim=1, domain=((0.0, 1.0),), model=m,
                       lift=ramp_lift(1.2, 0.0), t_end=1.0)
    space = interval_space(4)
    led = dg.energy_snapshot(rest_state(space), space, scen)
    assert led.elastic == np.inf
    assert np.isnan(led.dissipation_rate)
    # suspended rows are ignored by the balance residual
    ok = dg.EnergyLedger(t=0.0, kinetic=1.0, elastic=1.0,
                         dissipation_rate=0.0, external_power=0.0)
    bad = dg.EnergyLedger(t=1.0, kinetic=1.0, elastic=np.inf,
                          dissipation_rate=np.nan, external_power=0.0)
    assert np.isfinite(dg.energy_balance_residual([ok, ok, bad]))


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
    mon = dg.StrainRecorder(scen, space)
    cfg = dy.SolverConfig(dt=2e-3, t_end=0.25, scheme="midpoint")
    dy.run(scen, space, cfg, observers=(er, mon))
    tab = er.table()
    tot = tab["kinetic"] + tab["elastic"]
    resid = dg.energy_balance_residual(er.records)
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
        res.append(er.balance_residual())
    assert res[0] / res[1] > 2.5


# ---------------------------------------------------------------------------
# studies


def test_fit_order_exact_powers():
    h = np.array([0.1, 0.05, 0.025, 0.0125])
    assert dg.fit_order(h, 3.0 * h**2) == pytest.approx(2.0, abs=1e-12)
    assert dg.fit_order(h, 0.5 * h**4) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        dg.fit_order(h[:2], h[:2])
    assert np.isnan(dg.fit_order(h, np.array([1.0, 0.0, 1.0, 1.0])))


def test_report_axis_must_be_monotone():
    with pytest.raises(ValueError):
        dg.ConvergenceReport(axis_name="h", axis=[1.0, 3.0, 2.0],
                             values=[1.0, 1.0, 1.0])


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
    rep = dg.refinement_study(scen, "dt", [8e-3, 4e-3, 2e-3], cfg, cells=64)
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


def test_study_failure_keeps_type_and_names_case():
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), proto_model(), 0.02)
    cfg = dy.SolverConfig(dt=1e-2, t_end=0.02, newton_tol=1e-30, newton_max=3)
    with pytest.raises(dy.MidpointNoConvergence, match=r"\[study case base\]") as err:
        dg.stability_study(scen, interval_space(16), cfg, [1e-3, 1e-5, 1e-7])
    assert len(err.value.trace) == 3
