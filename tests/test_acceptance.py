"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they complete.  Every tolerance is asserted exactly as stated; nothing
here is weakened for speed.
"""

import time

import numpy as np

from strainlim import constitutive as con
from strainlim import diagnostics as dg
from strainlim import dynamics as dy
from strainlim import fespace as fe
from strainlim import scenarios as sc
from strainlim import symtensor as st


def check(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def proto_model(q=2.0, alpha=1.0, beta=0.1, reg_n=64):
    return con.ConstitutiveModel(con.PrototypePotential(q), alpha=alpha,
                                 beta=beta, reg_n=reg_n)


def interval_space(cells):
    return fe.FESpace(fe.interval_mesh(0.0, 1.0, cells))


def sine_field(amp, freq, rate=0.0):
    w = freq * np.pi

    def value(t, X):
        return amp * np.cos(rate * t) * np.sin(w * X)

    def grad(t, X):
        return (amp * w * np.cos(rate * t) * np.cos(w * X))[..., None]

    def dt_value(t, X):
        return -amp * rate * np.sin(rate * t) * np.sin(w * X)

    def dt_grad(t, X):
        return (-amp * w * rate * np.sin(rate * t) * np.cos(w * X))[..., None]

    def dtt_value(t, X):
        return -amp * rate**2 * np.cos(rate * t) * np.sin(w * X)

    return sc.AnalyticField(1, value, grad=grad, dt_value=dt_value,
                            dt_grad=dt_grad, dtt_value=dtt_value)


# ---------------------------------------------------------------------------


def test_criterion_01_constitutive_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    pots = [con.PrototypePotential(1.0), con.PrototypePotential(2.0),
            con.PrototypePotential(10.0), con.PowerLawPotential(1.5),
            con.PowerLawPotential(3.0), con.LinearPotential()]
    models = []
    for pot in pots:
        models.append(con.ConstitutiveModel(pot, alpha=1.0, beta=0.5))
        models.append(con.ConstitutiveModel(pot, alpha=1.0, beta=0.5, reg_n=16))

    n_samp = 10_000
    worst = {"mono": 0.0, "gbound": 0.0, "round": 0.0, "fenchel": 0.0, "jac": 0.0}
    for model in models:
        bounded = np.isfinite(con.limit_L(model))
        # cap |T| where the bounded response still resolves the stress in
        # float64: near saturation the forward map compresses a stress
        # interval of width r*(1+r^q)*eps into one representable value of
        # G(T), so no inverse can beat that conditioning
        cap = 5.0
        if bounded and model.reg_n is None:
            q = model.potential.q
            cap = min(5.0, 1e5 ** (1.0 / (q + 1.0)))
        for d in (1, 2, 3):
            m = st.packed_len(d)
            T = rng.standard_normal((n_samp, m))
            T *= rng.lognormal(-0.5, 1.0, size=n_samp)[:, None]
            nrm = st.norm(T)
            big = nrm > cap
            T[big] *= (cap / nrm[big])[:, None]

            E = con.g_apply(model, T)
            W = np.roll(T, 1, axis=0)
            mono = st.dot(E - con.g_apply(model, W), T - W)
            worst["mono"] = min(worst["mono"], float(np.min(mono)))

            if bounded and model.reg_n is None:
                worst["gbound"] = max(worst["gbound"],
                                      float(np.max(st.norm(E))) - con.limit_L(model))

            back = con.invert(model, E, warm_stress=T)
            worst["round"] = max(worst["round"], float(np.max(st.norm(back - T))))

            fr = con.fenchel_residual(model, T)
            worst["fenchel"] = max(worst["fenchel"], float(np.max(fr)))

            # FD probes stay away from the origin: p<2 curvature blows up
            Tf = T.copy()
            small = st.norm(Tf) < 0.1
            Tf[small] += 0.2
            D = rng.standard_normal((n_samp, m))
            D /= st.norm(D)[:, None]
            h = 1e-5 * (1.0 + st.norm(Tf))[:, None]
            J = con.g_jacobian(model, Tf)
            fd = (con.g_apply(model, Tf + h * D) - con.g_apply(model, Tf - h * D)) / (2 * h)
            jd = np.einsum("nij,nj->ni", J, D)
            rel = st.norm(jd - fd) / (1.0 + st.norm(fd))
            worst["jac"] = max(worst["jac"], float(np.max(rel)))

    bound_ok = True
    for n in (1, 10, 100):
        mdl = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=n)
        for r in (0.0, 0.1, 1.0, 10.0, 100.0, 1000.0):
            T = np.zeros(3)
            T[0] = r
            bound_ok = bound_ok and con.jacobian_norm_bound_check(mdl, T, const=3.0)
    dt_wall = time.perf_counter() - t0
    ok = (worst["mono"] >= -1e-14 and worst["gbound"] <= 0.0
          and worst["round"] <= 1e-10 and worst["fenchel"] <= 1e-8
          and worst["jac"] <= 1e-6 and bound_ok and dt_wall < 10.0)
    check(1, "constitutive-suite", ok,
          f"mono {worst['mono']:.1e}, limit excess {worst['gbound']:.1e}, "
          f"round-trip {worst['round']:.1e}, fenchel {worst['fenchel']:.1e}, "
          f"jacobian {worst['jac']:.1e}, norm bound {bound_ok}, {dt_wall:.1f}s")


def test_criterion_02_spot_values():
    t0 = time.perf_counter()
    m = con.ConstitutiveModel(con.PrototypePotential(2.0))
    g1 = float(con.response_scalar(m, 1.0))
    ginv = float(con.invert_radius(m, np.array([0.6]))[0])
    pstar = float(con.phi_star(m.potential, 0.6))
    errs = (abs(g1 - 1.0 / np.sqrt(2.0)), abs(ginv - 0.75), abs(pstar - 0.2))
    dt_wall = time.perf_counter() - t0
    ok = max(errs) <= 1e-10 and dt_wall < 1.0
    check(2, "spot-values", ok,
          f"G(1) err {errs[0]:.1e}, inverse err {errs[1]:.1e}, "
          f"conjugate err {errs[2]:.1e}, {dt_wall:.2f}s")


def test_criterion_03_lift_recipes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    alpha, beta = 1.3, 0.4
    X = rng.uniform(0.0, 1.0, size=(100, 1))
    ts = rng.uniform(0.0, 3.0, size=100)

    u0 = sine_field(0.5, 1.0)
    v0 = sine_field(0.2, 2.0)
    static = sc.lift_static_bc(u0, v0, alpha, beta)
    data_err = max(
        float(np.max(np.abs(static.value(0.0, X) - u0.value(0.0, X)))),
        float(np.max(np.abs(static.dt_value(0.0, X) - v0.value(0.0, X)))),
    )
    E0 = alpha * u0.strain(0.0, X) + beta * v0.strain(0.0, X)
    id_err = 0.0
    for t in ts:
        Et = sc.strain_expression(static, alpha, beta, t, X)
        id_err = max(id_err, float(np.max(np.abs(Et - E0))))

    u_ext = sine_field(0.05, 1.0, rate=1.0)
    v_init = sine_field(0.1, 3.0)
    timedep = sc.lift_timedep_bc(u_ext, v_init, alpha, beta,
                                 boundary_points=np.array([[0.0], [1.0]]))
    data_err = max(
        data_err,
        float(np.max(np.abs(timedep.value(0.0, X) - u_ext.value(0.0, X)))),
        float(np.max(np.abs(timedep.dt_value(0.0, X) - v_init.value(0.0, X)))),
    )
    # identity: strain expression of the lift minus that of the extension
    # is the constant beta * strain(v_init - dt u_ext(0))
    w_strain = v_init.strain(0.0, X) - u_ext.dt_strain(0.0, X)
    for t in ts:
        lhs = sc.strain_expression(timedep, alpha, beta, t, X)
        rhs = sc.strain_expression(u_ext, alpha, beta, t, X) + beta * w_strain
        id_err = max(id_err, float(np.max(np.abs(lhs - rhs))))
    bpts = np.array([[0.0], [1.0]])
    for t in ts:
        data_err = max(data_err, float(np.max(np.abs(
            timedep.value(t, bpts) - u_ext.value(t, bpts)))))
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
                                 cells=256)
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
    resid = rec.balance_residual()
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
    rec = dg.StrainRecorder(scen, space)
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
          f"successive diffs {np.array2string(diffs, precision=2)}, "
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
        dy.run(scen, space, cfg, observers=(lambda s, f: rec.append((s.U, s.V)),))
    identical = len(tr1) == len(tr2) and all(
        np.array_equal(U1, U2) and np.array_equal(V1, V2)
        for (U1, V1), (U2, V2) in zip(tr1, tr2))
    dt_wall = time.perf_counter() - t0
    ok = spread <= 0.10 and identical and dt_wall < 180.0
    check(8, "stability-growth", ok,
          f"growth factors {np.array2string(growth, precision=4)}, spread "
          f"{spread:.2%} (tol 10%), zero-perturbation bit-identical "
          f"{identical}, {dt_wall:.0f}s")


def _recorded_history_residual(scen, space, cfg):
    ts, eps, stress = [], [], []

    def record(state, fields):
        ts.append(state.t)
        eps.append(fields["eps"])
        stress.append(fields["stress"])

    dy.run(scen, space, cfg, observers=(record,))
    return dy.strain_history_residual(ts, eps, stress, scen.model)


def _history_residual(dt, t_end=0.1):
    m = proto_model(q=2.0, beta=0.1, reg_n=64)
    scen = sc.build_scenario("gaussian-pluck", 1, (0.0, 1.0), m, t_end)
    space = interval_space(32)
    cfg = dy.SolverConfig(dt=dt, t_end=t_end, scheme=dy.SCHEME_MIDPOINT)
    return _recorded_history_residual(scen, space, cfg)


def test_criterion_09_history_residual():
    t0 = time.perf_counter()
    ratio = _history_residual(1e-3) / _history_residual(5e-4)
    m = con.ConstitutiveModel(con.PrototypePotential(2.0), alpha=1.0, beta=0.1)
    scen = sc.build_scenario("manufactured:constant-strain", 1, (0.0, 1.0), m, 0.1)
    space = interval_space(16)
    cfg = dy.SolverConfig(dt=2e-3, t_end=0.1, scheme=dy.SCHEME_MIDPOINT)
    const_resid = _recorded_history_residual(scen, space, cfg)
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
    srec = dg.StrainRecorder(scen, space)
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
    check(10, "smoke-2d", ok,
          f"{steps} steps on 16x16, min dissipation rate {np.min(rates):.1e}, "
          f"strain bound slack {bound_slack:.2e}, {dt_wall:.0f}s")
