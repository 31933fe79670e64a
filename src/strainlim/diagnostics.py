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
from scipy.special import lambertw

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

    axis: np.ndarray
    values: np.ndarray
    fitted_order: float = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.values = np.asarray(self.values, dtype=float)


class NonFiniteNormError(RuntimeError):
    """A study case's L2 error or difference is not finite in float64."""


def _finite_error(norm, label):
    """norm, the L2 error of study case label, unless it overflowed or is
    nan: then NonFiniteNormError names the case."""
    if not np.isfinite(norm):
        raise NonFiniteNormError(f"non-finite L2 error {norm:.6g} [study case {label}]")
    return norm


def check_study_list(field, values, increasing=False):
    """The rule of every study's list of levels, checked before any level
    runs: at least 3 entries, all > 0, strictly increasing or monotone."""
    if len(values) < 3:
        raise con.FieldError(field, "needs at least 3 entries")
    if not all(v > 0 for v in values):
        raise con.FieldError(field, "entries must be > 0")
    order = "increasing" if increasing else "monotone"
    pairs = list(zip(values, values[1:]))
    if not (all(a < b for a, b in pairs) or not increasing and all(a > b for a, b in pairs)):
        raise con.FieldError(field, f"entries must be strictly {order}")


def fit_order(axis, values):
    """Least-squares log-log slope; nan unless every value is positive."""
    axis = np.asarray(axis, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(axis), np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# energy ledger


def energy_snapshot(block, space, scenario):
    """The EnergyLedger records of a block of states (see dynamics.State),
    from the strain, stress and forcing they carry and one inversion for
    all of them; a lone State goes in as dynamics.block_of([state])."""
    m = scenario.model
    qp, qw = space.qp, space.qw
    v_full = space.value_at_qp(block.V) + scenario.lift.dt_value(np.array(block.t), qp)
    kinetic = 0.5 * space.l2_norm_qp(v_full) ** 2

    eps, E, T, slope = block.eps, block.E, block.stress, block.slope
    e = m.alpha * st.norm(eps)
    # records whose strain is at or beyond the limit have a divergent
    # conjugate energy, and their balance residual is suspended
    elastic = np.full(len(block.t), np.inf)
    rate = np.full(len(block.t), np.nan)
    L = con.limit_L(m)
    ok = ~(np.isfinite(L) & (np.max(e, axis=-1) >= L))
    if not ok.all():
        eps, E, T, e = eps[ok], E[ok], T[ok], e[ok]
        slope = None if slope is None else slope[:, ok]
    if len(e):
        E0 = m.alpha * eps
        # T and its slope solve h(|T|) = |E|, so they start the inversion
        # at alpha*eps without an evaluation at T
        T0 = con.invert(m, E0, warm_stress=T, slope=slope)
        # the conjugate is stationary in the radius at h(r) = e, so the
        # radius of T0 serves it without a second solve
        elastic[ok] = np.sum(qw * con.effective_conjugate(
            m, e, radius=st.norm(T0)), axis=-1) / m.alpha
        # G(T) = E and G(T0) = alpha*eps by construction
        rate[ok] = np.sum(qw * con.dissipation_pair(T, T0, E, E0), axis=-1) / m.beta

    if block.forcing is None:
        power = np.zeros(len(block.t))
    else:
        power = np.sum(qw * st.dot(block.forcing, v_full), axis=-1)
    return [EnergyLedger(t=float(t), kinetic=float(kinetic[j]), elastic=float(elastic[j]),
                         dissipation_rate=float(rate[j]), external_power=float(power[j]))
            for j, t in enumerate(block.t)]


def _columns(kind, records):
    """One array per field of the dataclass kind, over the records."""
    return {k: np.array([getattr(r, k) for r in records]) for k in kind.__dataclass_fields__}


def ledger_table(records):
    """Arrays for the records plus trapezoidal cumulatives and the
    per-row balance residual (nan where suspended)."""
    ts, ke, ee, rate, power = _columns(EnergyLedger, records).values()
    d_cum = cumulative_trapezoid(rate, ts, initial=0.0)
    p_cum = cumulative_trapezoid(power, ts, initial=0.0)
    resid = (ke + ee) - (ke[0] + ee[0]) + d_cum - p_cum
    return {
        "t": ts, "kinetic": ke, "elastic": ee,
        "dissipation_cum": d_cum, "external_cum": p_cum,
        "balance_residual": resid,
    }


class EnergyRecorder:
    """run() observer accumulating EnergyLedger records, one
    energy_snapshot per block of states it is handed.

    first, when given, is the record of the first state observed, already
    computed by the caller; it is taken as is instead of a second snapshot.
    """

    def __init__(self, scenario, space, first=None):
        self.scenario = scenario
        self.space = space
        self.records = []
        self._first = first

    def __call__(self, block):
        if self._first is not None:
            # run observes its initial state on its own
            self.records.append(self._first)
            self._first = None
        else:
            self.records.extend(energy_snapshot(block, self.space, self.scenario))

    def table(self):
        return ledger_table(self.records)


class StrainRecorder:
    """run() observer tracking the strain-limit monitor quantities, one
    record per state of each block it is handed."""

    def __init__(self, scenario):
        self.limit = con.limit_L(scenario.model)
        self.records = []

    def __call__(self, block):
        # a state that is blowing up overflows its squared norms: inf is recorded
        with np.errstate(over="ignore"):
            mx, eps, stress = [np.max(st.norm(a), axis=-1).tolist()
                               for a in (block.E, block.eps, block.stress)]
        self.records.extend(StrainMonitor(float(t), m, self.limit - m, e, s)
                            for t, m, e, s in zip(block.t, mx, eps, stress))

    def table(self):
        return _columns(StrainMonitor, self.records)


# ---------------------------------------------------------------------------
# study drivers


def _annotated(label, fn, *args, **kw):
    """fn(*args, **kw), with a failure annotated by its study case: label,
    or for Members the list of labels, indexed by the failing member."""
    try:
        return fn(*args, **kw)
    except Exception as exc:
        if not isinstance(label, str):
            member = getattr(exc, "member", None)
            label = ", ".join(label) if member is None else label[member]
        # annotate in place: exception types differ in their constructors
        exc.args = (f"{exc} [study case {label}]",) + exc.args[1:]
        raise


def regularization_sweep(scenario, space, config, n_list):
    """Successive L2 differences of displacement between regularization
    levels n, at t_end and as max over recorded times.

    All levels run as one batch (dynamics.Members): they share the space
    and time grid, and each level's model differs only in reg_n.  Every
    level's states equal those of its own run bit for bit.  The
    differences are taken across the member axis of each block as it
    arrives, so the sweep keeps no history.
    """
    n_list = [int(n) for n in n_list]
    check_study_list("n_list", n_list, increasing=True)
    members = dyn.Members(scenario.with_model(scenario.model.with_reg(n)) for n in n_list)
    per_step = []          # per record: the successive differences

    def observe(block):
        gaps = space.value_at_qp(np.diff(block.U, axis=1))
        per_step.extend(space.l2_norm_qp(gaps).tolist())
    observe.reads_fields = False

    _annotated([f"n={n}" for n in n_list], dyn.run, members, space, config,
               observers=(observe,))
    diffs = np.array(per_step[-1])
    max_t_diffs = [max(col) for col in zip(*per_step)]
    cauchy = bool(np.all(np.diff(diffs) < 0.0))
    return ConvergenceReport(
        axis=np.array(n_list[1:], dtype=float), values=diffs,
        fitted_order=fit_order(n_list[1:], diffs) if len(diffs) >= 3 else None,
        extra={"cauchy": cauchy, "max_t_diffs": np.array(max_t_diffs),
               "n_list": np.array(n_list)},
    )


def refinement_study(scenario, axis, levels, config, space=None):
    """Convergence along one axis.

    axis="h": levels are cell counts per direction; each level runs on its
    own mesh at config.dt and reports the L2 displacement error against
    the exact solution at t_end.  axis="dt": levels are time steps on
    space and errors are differences against a reference run at
    min(levels)/4, so the fixed spatial error cancels.  An error that is
    not finite in float64 ends the study with NonFiniteNormError.
    """
    check_study_list("levels", levels)
    if axis == "h":
        if scenario.exact is None:
            raise ValueError("h-refinement needs a scenario with an exact solution")
        cellcounts = [fe.cell_count("levels", c) for c in levels]
        hs, errs = [], []
        for c in cellcounts:
            sp_c = fe.FESpace(fe.box_mesh(scenario.domain, (c,) * scenario.dim))
            final = _annotated(f"cells={c}", dyn.run, scenario, sp_c, config)
            with np.errstate(over="ignore", invalid="ignore"):
                err = sp_c.l2_norm_qp(sp_c.value_at_qp(final.U)
                                      + scenario.lift.value(final.t, sp_c.qp)
                                      - scenario.exact.value(final.t, sp_c.qp))
            errs.append(_finite_error(err, f"cells={c}"))
            dom = np.asarray(scenario.domain, dtype=float)
            hs.append(float(np.max(dom[:, 1] - dom[:, 0])) / c)
        return ConvergenceReport(
            axis=np.array(hs), values=np.array(errs),
            fitted_order=fit_order(hs, errs),
            extra={"cells": np.array(cellcounts)},
        )
    if axis == "dt":
        dts = [float(d) for d in levels]
        dt_ref = min(dts) / 4.0
        ref = _annotated(f"dt_ref={dt_ref:g}", dyn.run, scenario, space,
                         replace(config, dt=dt_ref))
        errs = []
        for d in dts:
            final = _annotated(f"dt={d:g}", dyn.run, scenario, space, replace(config, dt=d))
            with np.errstate(over="ignore", invalid="ignore"):
                err = space.l2_norm_qp(space.value_at_qp(final.U - ref.U))
            errs.append(_finite_error(err, f"dt={d:g}"))
        return ConvergenceReport(
            axis=np.array(dts), values=np.array(errs),
            fitted_order=fit_order(dts, errs),
            extra={"elements": space.mesh.n_elems, "dt_ref": dt_ref},
        )
    raise ValueError(f"unknown refinement axis {axis!r}")


def stability_study(scenario, space, config, delta_list, seed=0):
    """Growth factors of initial-velocity perturbations.

    All perturbations share one seeded random direction scaled to each
    delta, so factors isolate amplitude dependence; the fitted growth
    constant C solves C e^{C t_end} = mean factor.  The unperturbed base
    run and every perturbed run step as one batch (dynamics.Members),
    each member equal bit for bit to its own run.
    """
    deltas = [float(d) for d in delta_list]
    check_study_list("delta_list", deltas)

    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(space.ndof)
    direction /= np.linalg.norm(direction)

    members = dyn.Members([scenario] * (len(deltas) + 1))
    V0 = np.stack([np.zeros(space.ndof)] + [d * direction for d in deltas])
    labels = ["base"] + [f"delta={d:g}" for d in deltas]
    start = dyn.State(0.0, np.zeros_like(V0), V0, *[None] * 5)
    final = _annotated(labels, dyn.run, members, space, config, start=start)
    factors = np.array([
        float((np.linalg.norm(U - final.U[0]) + np.linalg.norm(V - final.V[0])) / d)
        for d, U, V in zip(deltas, final.U[1:], final.V[1:])])

    t_end = float(final.t)
    g = float(np.mean(factors))
    # C t e^{C t} = g t, so C t is the principal branch of Lambert's W at g t
    C = float(lambertw(g * t_end).real) / t_end if t_end > 0.0 and g > 0.0 else np.nan
    return ConvergenceReport(
        axis=np.array(deltas), values=factors,
        fitted_order=fit_order(deltas, factors),
        extra={"growth_constant": C, "seed": seed},
    )
