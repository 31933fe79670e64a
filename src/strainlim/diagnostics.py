"""Energy ledger, strain monitor, and convergence/stability studies.

The energy ledger tracks kinetic energy, the conjugate elastic energy,
the dissipation pairing, and external power, all consistent with the
model actually integrated (including its regularizer), so the balance
residual is limited by the time scheme and not by the regularization
gap.  Study drivers rerun simulations along one parameter axis and
report errors or successive differences with a least-squares observed
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import brentq

from . import constitutive as con
from . import dynamics as dyn
from . import fespace as fe
from . import symtensor as st


@dataclass
class EnergyLedger:
    """One time sample of the energy bookkeeping.

    kinetic = (1/2) int |dt_u|^2; elastic = int psi*(alpha |eps|)/alpha
    with psi* the conjugate of the model's own scalar response;
    dissipation_rate = (1/beta) int (T - T0).(G(T) - G(T0)) with
    T0 the model inverse at alpha*eps; external_power = int f . dt_u.
    elastic is +inf (and the dissipation rate nan) when a strain-limited
    model sees alpha |eps| >= L anywhere.
    """

    t: float
    kinetic: float
    elastic: float
    dissipation_rate: float
    external_power: float


@dataclass
class StrainMonitor:
    t: float
    max_strain_expr: float
    margin: float
    max_eps: float
    max_stress: float


@dataclass
class ConvergenceReport:
    """One study axis with its error/difference norms and fitted order.

    fitted_order is the least-squares slope of log(values) against
    log(axis); extra carries study-specific results.
    """

    axis_name: str
    axis: np.ndarray
    values: np.ndarray
    fitted_order: float = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        d = np.diff(self.axis)
        if len(self.axis) > 1 and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("report axis must be strictly monotone")


def fit_order(axis, values):
    """Least-squares log-log slope; needs >= 3 positive samples."""
    axis = np.asarray(axis, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(axis) < 3:
        raise ValueError("order fit needs at least 3 samples")
    if np.any(values <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(axis), np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# energy ledger


def energy_snapshot(state, space, scenario, fields=None, tol_inv=1e-12):
    """EnergyLedger at one state; reuses per-qp fields when provided."""
    m = scenario.model
    if fields is None:
        fields = dyn.evaluate_fields(scenario, space, state.t, state.U, state.V,
                                     state.stress, tol_inv)
    qp, qw = space.qp, space.qw
    v_full = space.value_at_qp(state.V) + scenario.lift.dt_value(state.t, qp)
    kinetic = 0.5 * space.l2_norm_qp(v_full) ** 2

    eps = fields["eps"]
    T = fields["stress"]
    e = m.alpha * st.norm(eps)
    L = con.limit_L(m)
    if np.isfinite(L) and float(np.max(e)) >= L:
        # strain at or beyond the limit: conjugate energy diverges and the
        # balance residual is suspended for this record
        elastic = np.inf
        rate = np.nan
    else:
        elastic = float(np.sum(qw * con.effective_conjugate(m, e))) / m.alpha
        T0 = con.invert(m, m.alpha * eps, warm_stress=T, tol=tol_inv)
        rate = float(np.sum(qw * con.dissipation_pair(m, T, T0))) / m.beta

    if scenario.forcing is None:
        power = 0.0
    else:
        fval = scenario.forcing.value(state.t, qp)
        power = float(np.sum(qw * np.sum(fval * v_full, axis=-1)))
    return EnergyLedger(t=float(state.t), kinetic=kinetic, elastic=elastic,
                        dissipation_rate=rate, external_power=power)


def ledger_table(records):
    """Arrays for the records plus trapezoidal cumulatives and the
    per-row balance residual (nan where suspended)."""
    ts = np.array([r.t for r in records])
    ke = np.array([r.kinetic for r in records])
    ee = np.array([r.elastic for r in records])
    rate = np.array([r.dissipation_rate for r in records])
    power = np.array([r.external_power for r in records])
    if len(ts) > 1:
        d_cum = cumulative_trapezoid(rate, ts, initial=0.0)
        p_cum = cumulative_trapezoid(power, ts, initial=0.0)
    else:
        d_cum = np.zeros_like(ts)
        p_cum = np.zeros_like(ts)
    resid = (ke + ee) - (ke[0] + ee[0]) + d_cum - p_cum
    return {
        "t": ts, "kinetic": ke, "elastic": ee,
        "dissipation_cum": d_cum, "external_cum": p_cum,
        "balance_residual": resid,
    }


def energy_balance_residual(records):
    """Max |KE+EE change + cumulative dissipation - cumulative power|
    over the recorded ledger, ignoring suspended (non-finite) rows."""
    resid = ledger_table(records)["balance_residual"]
    finite = resid[np.isfinite(resid)]
    return float(np.max(np.abs(finite))) if len(finite) else np.nan


class EnergyRecorder:
    """run() observer accumulating EnergyLedger records."""

    def __init__(self, scenario, space, tol_inv=1e-12):
        self.scenario = scenario
        self.space = space
        self.tol_inv = tol_inv
        self.records = []

    def __call__(self, state, fields):
        self.records.append(energy_snapshot(state, self.space, self.scenario,
                                            fields, self.tol_inv))

    def table(self):
        return ledger_table(self.records)

    def balance_residual(self):
        return energy_balance_residual(self.records)


class StrainRecorder:
    """run() observer tracking the strain-limit monitor quantities."""

    def __init__(self, scenario, space):
        self.limit = con.limit_L(scenario.model)
        self.records = []

    def __call__(self, state, fields):
        mx = float(np.max(st.norm(fields["E"])))
        self.records.append(StrainMonitor(
            t=float(state.t),
            max_strain_expr=mx,
            margin=self.limit - mx,
            max_eps=float(np.max(st.norm(fields["eps"]))),
            max_stress=float(np.max(st.norm(fields["stress"]))),
        ))

    def table(self):
        return {
            "t": np.array([r.t for r in self.records]),
            "max_strain_expr": np.array([r.max_strain_expr for r in self.records]),
            "margin": np.array([r.margin for r in self.records]),
            "max_eps": np.array([r.max_eps for r in self.records]),
            "max_stress": np.array([r.max_stress for r in self.records]),
        }


# ---------------------------------------------------------------------------
# study drivers


def _run_or_annotate(scenario, space, config, label, **kw):
    try:
        return dyn.run(scenario, space, config, **kw)
    except Exception as exc:
        # annotate in place: exception types differ in their constructors
        exc.args = (f"{exc} [study case {label}]",) + exc.args[1:]
        raise


def regularization_sweep(scenario, space, config, n_list):
    """Successive L2 differences of displacement between regularization
    levels n, at t_end and as max over recorded times."""
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3:
        raise ValueError("regularization sweep needs at least 3 levels")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    diffs, max_t_diffs = [], []
    prev = None
    for n in n_list:
        scen_n = scenario.with_model(scenario.model.with_reg(n))
        Us = []
        _run_or_annotate(scen_n, space, config, f"n={n}",
                         observers=(lambda state, fields: Us.append(state.U),))
        if prev is not None:
            per_step = [
                space.l2_norm_qp(space.value_at_qp(ub - ua))
                for ua, ub in zip(prev, Us)
            ]
            diffs.append(per_step[-1])
            max_t_diffs.append(max(per_step))
        prev = Us
    diffs = np.array(diffs)
    cauchy = bool(np.all(np.diff(diffs) < 0.0))
    return ConvergenceReport(
        axis_name="n", axis=np.array(n_list[1:], dtype=float), values=diffs,
        fitted_order=fit_order(n_list[1:], diffs) if len(diffs) >= 3 else None,
        extra={"cauchy": cauchy, "max_t_diffs": np.array(max_t_diffs),
               "n_list": np.array(n_list)},
    )


def _space_for(scenario, cells):
    dom = np.asarray(scenario.domain, dtype=float)
    if scenario.dim == 1:
        mesh = fe.interval_mesh(dom[0, 0], dom[0, 1], cells)
    else:
        mesh = fe.rectangle_mesh(dom[0, 0], dom[0, 1], dom[1, 0], dom[1, 1],
                                 cells, cells)
    return fe.FESpace(mesh)


def refinement_study(scenario, axis, levels, config, cells=256):
    """Convergence along one axis.

    axis="h": levels are cell counts; each level runs on its own mesh at
    config.dt and reports the L2 displacement error against the exact
    solution at t_end.  axis="dt": levels are time steps on one mesh
    (cells per direction) and errors are differences against a
    reference run at min(levels)/4, so the fixed spatial error cancels.
    """
    if len(levels) < 3:
        raise ValueError("refinement study needs at least 3 levels")
    if axis == "h":
        if scenario.exact is None:
            raise ValueError("h-refinement needs a scenario with an exact solution")
        cellcounts = [int(c) for c in levels]
        hs, errs = [], []
        for c in cellcounts:
            sp_c = _space_for(scenario, c)
            final, _ = _run_or_annotate(scenario, sp_c, config, f"cells={c}")
            vals = (sp_c.value_at_qp(final.U)
                    + scenario.lift.value(final.t, sp_c.qp)
                    - scenario.exact.value(final.t, sp_c.qp))
            errs.append(sp_c.l2_norm_qp(vals))
            dom = np.asarray(scenario.domain, dtype=float)
            hs.append(float(np.max(dom[:, 1] - dom[:, 0])) / c)
        return ConvergenceReport(
            axis_name="h", axis=np.array(hs), values=np.array(errs),
            fitted_order=fit_order(hs, errs),
            extra={"cells": np.array(cellcounts)},
        )
    if axis == "dt":
        dts = [float(d) for d in levels]
        space = _space_for(scenario, cells)
        dt_ref = min(dts) / 4.0
        ref, _ = _run_or_annotate(scenario, space, replace(config, dt=dt_ref),
                                  f"dt_ref={dt_ref:g}")
        errs = []
        for d in dts:
            final, _ = _run_or_annotate(scenario, space, replace(config, dt=d),
                                        f"dt={d:g}")
            errs.append(space.l2_norm_qp(space.value_at_qp(final.U - ref.U)))
        return ConvergenceReport(
            axis_name="dt", axis=np.array(dts), values=np.array(errs),
            fitted_order=fit_order(dts, errs),
            extra={"cells": cells, "dt_ref": dt_ref},
        )
    raise ValueError(f"unknown refinement axis {axis!r}")


def stability_study(scenario, space, config, delta_list, seed=0):
    """Growth factors of initial-velocity perturbations.

    All perturbations share one seeded random direction scaled to each
    delta, so factors isolate amplitude dependence; the fitted growth
    constant C solves C e^{C t_end} = mean factor.
    """
    deltas = [float(d) for d in delta_list]
    if len(deltas) < 3:
        raise ValueError("stability study needs at least 3 deltas")
    if any(d <= 0.0 for d in deltas):
        raise ValueError("deltas must be positive")
    dd = np.diff(deltas)
    if not (np.all(dd > 0) or np.all(dd < 0)):
        raise ValueError("delta_list must be strictly monotone")

    base, _ = _run_or_annotate(scenario, space, config, "base")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(space.ndof)
    direction /= np.linalg.norm(direction)

    factors = []
    for d in deltas:
        final, _ = _run_or_annotate(scenario, space, config, f"delta={d:g}",
                                    V0=d * direction)
        growth = (np.linalg.norm(final.U - base.U)
                  + np.linalg.norm(final.V - base.V)) / d
        factors.append(float(growth))
    factors = np.array(factors)

    t_end = float(base.t)
    g = float(np.mean(factors))
    if t_end > 0.0 and g > 0.0:
        # C e^{C t} is increasing in C, so bracket and bisect
        fun = lambda cc: cc * np.exp(cc * t_end) - g
        hi = 1.0
        while fun(hi) < 0.0 and hi < 1e6:
            hi *= 2.0
        C = float(brentq(fun, 0.0, hi)) if fun(hi) >= 0.0 else np.inf
    else:
        C = np.nan
    return ConvergenceReport(
        axis_name="delta", axis=np.array(deltas), values=factors,
        fitted_order=fit_order(deltas, factors),
        extra={"growth_constant": C, "seed": seed},
    )
