"""Time integration of the semi-discrete momentum balance.

The Galerkin system is reduced to first order in (U, V) with
M dV/dt = F_f(t) - S(t, U, V) - M0(t), dU/dt = V, where S assembles the
stress load with T obtained by constitutive inversion at every
quadrature point, F_f is the forcing load, and M0 is the inertia of the
analytic lift.  Two integrators are provided: classical RK4 and the
implicit midpoint rule, the latter solved by a modified Newton
iteration whose Jacobian uses the closed-form inverse of the
constitutive tangent per quadrature point; within a run its factor is
kept across steps and Newton starts from extrapolated midpoint velocities,
quartic in time once the steps converge within QUARTIC_GATE iterations.
Steps go in blocks, each handed whole to the observers; the end-of-step
fields of a midpoint block come from one stacked call, started from
Newton's last stresses and slopes and made only when an observer reads
them.  Runs that share the space and time grid and differ only in reg_n
or initial data step together as Members, with a member axis on every
array, after the row axis of a block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial, partialmethod

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import constitutive as con
from . import scenarios as sc
from . import symtensor as st

SCHEME_RK4 = "rk4"
SCHEME_MIDPOINT = "midpoint"

# midpoint Newton: relative update at most NEWTON_TOL within NEWTON_MAX iterations
NEWTON_TOL = 1e-11
NEWTON_MAX = 50
# a Newton update larger than NEWTON_RHO times the previous one refreshes
# the frozen Jacobian factor
NEWTON_RHO = 0.1
# a member whose last step converged within QUARTIC_GATE Newton iterations
# starts the next from the quartic extrapolation of its midpoint velocities
QUARTIC_GATE = 4
# quadrature points per stacked call: each of run's blocks holds as many
# steps (at least one), and each forcing call as many times
BLOCK_POINTS = 8192


class NonFiniteStrainError(RuntimeError):
    """The strain expression at some quadrature point overflowed or is NaN."""


class MidpointNoConvergence(RuntimeError):
    """Midpoint Newton iteration failed; carries the residual trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = list(trace)


@dataclass
class State:
    """One configuration of the discrete system: time, interior
    coefficients, and at every quadrature point the strain eps (None
    unless an observer reads it), the strain expression
    E = alpha*eps + beta*dt_eps, the stress that solves G(stress) = E to
    the inversion tolerance, the forcing at t (None without a forcing),
    and the slope of the inversion that gave the stress, to start the
    next one from (see con.invert_radius).

    evaluate_fields builds one from (t, U, V); the steppers return one.
    A block of states is one State whose t is the list of their times
    and whose arrays carry a leading row per state, the slope after its
    (s, h') axis.
    """

    t: float
    U: np.ndarray
    V: np.ndarray
    eps: np.ndarray
    E: np.ndarray
    stress: np.ndarray
    forcing: np.ndarray
    slope: np.ndarray


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    scheme: str = SCHEME_MIDPOINT

    def __post_init__(self):
        if not self.dt > 0.0:
            raise con.FieldError("dt", f"must be > 0, got {self.dt}")
        if not self.t_end >= 0.0:
            raise con.FieldError("t_end", f"must be >= 0, got {self.t_end}")
        if self.scheme not in (SCHEME_RK4, SCHEME_MIDPOINT):
            raise con.FieldError("scheme", f"must be {SCHEME_RK4} or {SCHEME_MIDPOINT}")


class _Stacked:
    """The members' own analytic fields, called together: every value
    comes back with a leading member axis, before the time axis of a
    block of times.  A field object that several members share is called
    once, and its value serves them all."""

    def __init__(self, fields):
        self.fields = tuple(fields)
        self._distinct = {id(f): f for f in self.fields}
        rates = {f.steady_rates for f in self.fields}
        self.steady_rates = rates.pop() if len(rates) == 1 else None

    def _stack(self, name, t, X):
        vals = {i: getattr(f, name)(t, X) for i, f in self._distinct.items()}
        return np.stack([vals[id(f)] for f in self.fields])

    value = partialmethod(_stack, "value")
    strain = partialmethod(_stack, "strain")
    dt_strain = partialmethod(_stack, "dt_strain")
    dtt_value = partialmethod(_stack, "dtt_value")

    def accelerates(self, X):
        return any(f.accelerates(X) for f in self.fields)


class Members:
    """Scenarios stepped as one batch on one space and time grid.

    The members' models may differ in reg_n only.  The steppers take
    Members wherever they take a scenario; U, V and every per-qp field
    then carry a leading member axis, and one strain product, one
    inversion and one mass solve serve all members.  Each member keeps
    its own lift and forcing (``with_model`` may re-derive the forcing).
    """

    def __init__(self, scenarios):
        self.scenarios = tuple(scenarios)
        if not self.scenarios:
            raise ValueError("a batch needs at least one member")
        self.models = tuple(s.model for s in self.scenarios)
        self.model = base = self.models[0]
        for mdl in self.models:
            if (mdl.with_reg(base.reg_n) != base
                    or (mdl.reg_n is None) != (base.reg_n is None)):
                raise ValueError("batch members may differ only in reg_n")
        # one 1/n per member, broadcast over its quadrature points; members
        # that share reg_n invert with the model's own
        self.inv_n = None if len({mdl.reg_n for mdl in self.models}) == 1 else \
            np.array([[1.0 / mdl.reg_n] for mdl in self.models])
        self.lift = _Stacked(s.lift for s in self.scenarios)
        forcings = [s.forcing for s in self.scenarios]
        if any(f is None for f in forcings) and any(f is not None for f in forcings):
            raise ValueError("batch members must all have a forcing or none")
        self.forcing = None if forcings[0] is None else _Stacked(forcings)

    def __len__(self):
        return len(self.scenarios)


def _at_times(f, t, qp):
    """f(t, qp) of a lift; for a list of times t (a block), with the
    block's rows first, before the member axis of _Stacked's values."""
    return np.moveaxis(f(np.array(t), qp), -3, 0) if isinstance(t, list) else f(t, qp)


class _LiftTerms:
    """A scenario's lift at a space's quadrature points for the steps of one
    run: whether it accelerates there, and its strain expression
    E_l = alpha*strain + beta*dt_strain, computed once if sc.steady_expression."""

    def __init__(self, scenario, space):
        m, self.qp = scenario.model, space.qp
        self.accelerates = scenario.lift.accelerates(self.qp)
        self._of_t = partial(sc.strain_expression, scenario.lift, m.alpha, m.beta)
        self.steady = self._of_t(0.0, self.qp) if sc.steady_expression(scenario.lift, m) else None

    def expression(self, t):
        """E_l at t as _at_times gives it; a steady one serves every row."""
        return _at_times(self._of_t, t, self.qp) if self.steady is None else self.steady


def evaluate_fields(scenario, space, t, U, V, warm=None, forcing=None, slope=None,
                    terms=None, observed=True):
    """The State at (t, U, V) (per member when scenario is Members), its
    strain eps only when observed.  warm is a stress to start the inversion
    from, and slope the slope of the inversion that gave it; forcing is the
    forcing at t from run's block, and terms the run's _LiftTerms, each
    made here when not given.  E = B(alpha U + beta V) + E_l(t) takes one
    strain product, and eps = B U + the lift's strain a second.

    For a list of times t, U, V, warm and forcing hold a leading row per
    time, and slope holds one after its (s, h') axis; the block of those
    states comes from one inversion."""
    m = scenario.model
    terms = terms or _LiftTerms(scenario, space)
    eps = None
    if observed:
        eps = space.strain_at_qp(U) + _at_times(scenario.lift.strain, t, space.qp)
    E = space.strain_at_qp(m.alpha * U + m.beta * V) + terms.expression(t)
    T, slope = _invert_at(scenario, E, warm, slope, space, "t", t)
    if forcing is None and scenario.forcing is not None:
        forcing = _forcing_at(scenario, space, t) if isinstance(t, list) else \
            _forcing_at(scenario, space, [t])[0]
    return State(t, U, V, eps, E, T, forcing, slope)


def stack_rows(arrays, axis=0):
    """The arrays stacked along a new axis, the leading one by default; a
    lone one as a view."""
    return np.expand_dims(arrays[0], axis) if len(arrays) == 1 else np.stack(arrays, axis)


def block_of(states):
    """The block (see State) of states: each field that is not None
    stacked by stack_rows, so a lone State's by views."""
    fields = zip(*((s.U, s.V, s.eps, s.E, s.stress, s.forcing, s.slope) for s in states))
    return State([s.t for s in states],
                 *(None if a[0] is None else stack_rows(a, axis)
                   for a, axis in zip(fields, _ROW_AXES)))


def _index(state, t, ix):
    """The State at time t whose arrays are state's indexed by ix (views)."""
    return State(t, *(None if a is None else a[(slice(None),) * axis + (ix,)]
                      for a, axis in zip((state.U, state.V, state.eps, state.E, state.stress,
                                          state.forcing, state.slope), _ROW_AXES)))


# the axis of a block's rows in each array of a State, from U to slope
_ROW_AXES = (0, 0, 0, 0, 0, 0, 1)


def _step_times(t, dt):
    """The half-step and end times of a step of dt from t: the midpoint
    and RK4 stage times, and the times of run's forcing block."""
    return t + 0.5 * dt, t + dt


def _steps(t, dt, t_end):
    """(start, length) of every step from t to t_end: dt, the last one
    shortened to end at t_end."""
    tiny = 1e-12 * max(1.0, t_end)
    while t < t_end - tiny:
        dtk = min(dt, t_end - t)
        yield t, dtk
        t = _step_times(t, dtk)[1]


def _block_steps(space):
    """Steps per block of run: as many as have BLOCK_POINTS quadrature
    points, at least one."""
    return max(1, BLOCK_POINTS // space.n_qp)


def _forcing_at(scenario, space, ts):
    """The forcing at the quadrature points at every time of ts, stacked
    (n_qp, dim) arrays (per member for Members), from calls of
    _block_steps(space) times each; None without a forcing."""
    if scenario.forcing is None:
        return None
    per = _block_steps(space)
    chunks = [np.moveaxis(scenario.forcing.value(np.array(ts[i:i + per]), space.qp), -3, 0)
              for i in range(0, len(ts), per)]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _invert_at(scenario, E, warm, slope, space, stage, t, members=None):
    """Stress at every quadrature point and the slope of its inversion, to
    start the next one from (see con.invert_radius; slope is this one's
    start, None when warm has none); failures name the stage, its time,
    the worst qp and, in a batch of several, its member.

    For a block (t a list of times, see State) it names the time of
    the row that holds the worst qp.  members lists the batch members that E holds, in order, when only
    some of them are inverted.  A non-finite strain expression (an
    unstable step has blown up) raises NonFiniteStrainError; inversion
    failures keep their type.  The raised error carries the index of
    that member as ``member``.
    """
    inv_n = scenario.inv_n if isinstance(scenario, Members) else None
    if inv_n is not None and members is not None:
        inv_n = inv_n[members]
    try:
        return con.invert(scenario.model, E, warm_stress=warm, inv_n=inv_n, slope=slope,
                          return_slope=True)
    except (con.SupercriticalStrainError, con.NewtonConvergenceError) as exc:
        nrm = st.norm(E)
        k = int(np.argmax(nrm))
        where, member = _locate(scenario, space, nrm.shape, k, members, stage, t)
        raise _for_member(type(exc)(
            f"{exc} [{where}, |strain expression|={float(nrm.flat[k]):.6g}]"),
            member) from exc
    except ValueError as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(st.norm(E))
        if np.all(finite):
            raise
        where, member = _locate(scenario, space, finite.shape, int(np.argmin(finite)),
                                members, stage, t)
        raise _for_member(NonFiniteStrainError(
            f"non-finite strain expression [{where}]"), member) from exc


def _locate(scenario, space, shape, flat, members, stage, t):
    """Text naming the stage time and the point at index flat of a
    per-point array of this shape, and the batch member it belongs to."""
    *lead, q = np.unravel_index(flat, shape)
    if isinstance(t, list):
        t = t[lead.pop(0)]
    member = int(lead[0]) if lead else 0
    if members is not None:
        member = int(members[member])
    where = f"{stage}={t:.6g}, worst qp #{q} at x={space.qp[q]}"
    if isinstance(scenario, Members) and len(scenario) > 1:
        where += f" of member #{member}"
    return where, member


def _for_member(exc, member):
    exc.member = member
    return exc


def _loads(scenario, space, t, forcing, terms=None):
    """Load of the forcing values at the quadrature points (None without a
    forcing) minus the lift inertia load at time t (may be scalar 0)."""
    load = 0.0
    if forcing is not None:
        load = space.load_from_values(forcing)
    # a lift that never accelerates here (a static lift started at rest)
    # is not evaluated at all
    if (terms or _LiftTerms(scenario, space)).accelerates:
        a0 = scenario.lift.dtt_value(t, space.qp)
        if np.any(a0):
            load = load - space.load_from_values(a0)
    return load


def _accel(scenario, space, state, terms=None):
    """Acceleration at one State."""
    resid = _loads(scenario, space, state.t, state.forcing, terms) \
        - space.load_from_stress(state.stress)
    return space.mass_solve(resid)


# an unstable step may overflow; the inversion's non-finite check or a
# singular Jacobian then ends the run
@np.errstate(over="ignore", invalid="ignore")
def step_rk4(scenario, space, state, dt, forcing, terms=None, observed=True):
    """Classical four-stage explicit update.

    Stage 1 is state itself, with the stress, slope and forcing it
    carries; stages 2-4 and the returned State each invert once, started
    from the stress and slope of the stage before (the returned State from
    stage 4's).  Only the returned State gets eps, when observed (see
    evaluate_fields).  forcing is the pair of the forcing at the half-step
    and end times (_step_times), or of Nones without a forcing.  With
    Members every operation acts on all members at once.
    """
    terms = terms or _LiftTerms(scenario, space)
    t, U, V = state.t, state.U, state.V
    t_half, t_next = _step_times(t, dt)
    f_half, f_next = forcing
    a1 = _accel(scenario, space, state, terms)
    s2 = evaluate_fields(scenario, space, t_half, U + 0.5 * dt * V, V + 0.5 * dt * a1,
                         state.stress, f_half, state.slope, terms, False)
    a2 = _accel(scenario, space, s2, terms)
    s3 = evaluate_fields(scenario, space, t_half, U + 0.5 * dt * s2.V, V + 0.5 * dt * a2,
                         s2.stress, f_half, s2.slope, terms, False)
    a3 = _accel(scenario, space, s3, terms)
    s4 = evaluate_fields(scenario, space, t_next, U + dt * s3.V, V + dt * a3,
                         s3.stress, f_next, s3.slope, terms, False)
    a4 = _accel(scenario, space, s4, terms)
    Un = U + (dt / 6.0) * (V + 2.0 * s2.V + 2.0 * s3.V + s4.V)
    Vn = V + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return evaluate_fields(scenario, space, t_next, Un, Vn, s4.stress, f_next, s4.slope,
                           terms, observed)


# contraction order of B_e^T A_e B_e: (B_e^T A_e) first, then B_e; a fixed
# path skips einsum's per-call path search
_ELEMENT_PATH = ["einsum_path", (0, 1), (0, 1)]


def _assemble_midpoint_jacobian(space, mass, factor, model, T):
    """M + factor * B^T W diag-blocks(tangent inverse) B, factored.

    mass is the space's mass matrix, whose entries the space's fixed
    coupling pattern places; only the numeric values are formed here.
    The Jacobian is SPD with a symmetric pattern, so the LU uses a
    symmetric fill-reducing ordering.
    """
    pat = space.coupling_pattern
    A = con.tangent_inverse_blocks(model, T) * space.qw[:, None, None]
    ne, mcomp, _ = pat.strain.shape
    A_e = A.reshape(ne, -1, mcomp, mcomp).sum(axis=1)
    K_e = np.einsum("eai,eab,ebj->eij", pat.strain, A_e, pat.strain,
                    optimize=_ELEMENT_PATH)
    data = np.bincount(pat.slot, weights=factor * K_e.ravel(), minlength=pat.nnz + 1)
    data = data[:pat.nnz]
    data[pat.mass_slot] += mass.data
    J = sp.csc_matrix((data, pat.indices, pat.indptr), shape=mass.shape)
    return spla.splu(J, permc_spec="MMD_AT_PLUS_A")


class _NewtonCarry:
    """What one run's midpoint steps hand on to the next: the run's
    _LiftTerms, each member's Jacobian factor, the dt it was built for, the last five midpoint
    velocities, newest first, whether each member's last step converged
    within QUARTIC_GATE iterations, Newton's last midpoint stress and the
    slope of the inversion that gave it (per-member rows in a batch)."""

    def __init__(self, terms=None):
        self.terms = terms
        self.lus = None
        self.dt = None
        self.past = []
        self.gate = None
        self.stress = None
        self.slope = None

    def start(self, V):
        """Newton's first midpoint velocity: the quartic extrapolation of
        the last five midpoint velocities for a member whose gate is open,
        else the quadratic one of the last three, linear with two, the
        last one with one, V itself with none."""
        p = self.past
        if len(p) >= 3:
            Vm = 3.0 * p[0] - 3.0 * p[1] + p[2]
            if len(p) == 5 and self.gate.any():
                quartic = 5.0 * p[0] - 10.0 * p[1] + 10.0 * p[2] - 5.0 * p[3] + p[4]
                Vm = np.where(self.gate.reshape(Vm.shape[:-1] + (1,)), quartic, Vm)
            return Vm
        if len(p) == 2:
            return 2.0 * p[0] - p[1]
        return (p[0] if p else V).copy()


@np.errstate(over="ignore", invalid="ignore")
def step_midpoint(scenario, space, state, dt, f_mid, carry):
    """Implicit midpoint update solved for the midpoint velocity.

    With Vm the midpoint velocity, Um = U + (dt/2) Vm and the update
    reads U+ = U + dt*Vm, V+ = 2*Vm - V; Vm solves
    M (Vm - V) + (dt/2) [S(t_mid, Um, Vm) - F(t_mid) + M0(t_mid)] = 0
    by modified Newton with a factored Jacobian that is refreshed
    whenever an update exceeds NEWTON_RHO times the previous one.
    f_mid is the forcing at t_mid (_step_times), None without a forcing.

    carry is run's _NewtonCarry, updated in place: while dt stays the
    same to 1e-9 relative, the first iteration reuses the factor of an
    earlier step.  Newton starts from the extrapolated midpoint velocities
    of earlier steps, and each inversion from the last midpoint stress
    and the slope of its inversion (state.stress, and no slope, on a
    fresh carry); E = B(alpha Um + beta Vm) + E_l(t_mid) takes one strain
    product.  The returned State holds t, U and V only; Newton's last
    midpoint stress is carry.stress.

    With Members each member keeps its own Newton state: its Jacobian
    factor, its refresh decision and its convergence test.  A member
    that has converged is frozen (not inverted again), so its iterations
    and factorizations are those of its run alone.
    """
    models = scenario.models if isinstance(scenario, Members) else (scenario.model,)
    k = len(models)
    m = scenario.model
    t_mid, t_next = _step_times(state.t, dt)
    qp = space.qp
    ndof, nq, mcomp = space.ndof, space.n_qp, space.m
    U, V = state.U, state.V
    terms = carry.terms = carry.terms or _LiftTerms(scenario, space)
    E_l = terms.expression(t_mid)
    const_load = np.full(U.shape, -0.5 * dt * _loads(scenario, space, t_mid, f_mid, terms))
    mass = space.mass
    factor = 0.5 * dt * (m.beta + 0.5 * dt * m.alpha)

    # the last step of a run differs from dt by rounding alone
    if carry.dt is None or abs(carry.dt - dt) > 1e-9 * dt:
        carry.lus = [None] * k
        carry.dt = dt
    lus = carry.lus
    Vm = carry.start(V)
    rows = Vm.reshape(k, ndof)             # each member's Vm, a view (a lone one too)
    warm = state.stress if carry.stress is None else carry.stress
    slope = carry.slope
    # the carry lets go of both, so that each is freed once Newton replaces it
    carry.stress = carry.slope = None
    traces = [[] for _ in range(k)]
    prev = [np.inf] * k
    active = list(range(k))

    def factored(i, T_i):
        # SuperLU raises RuntimeError on a Jacobian that an overflowed scale left singular
        try:
            return _assemble_midpoint_jacobian(space, mass, factor, models[i], T_i)
        except RuntimeError as exc:
            msg = f"midpoint Jacobian cannot be factored at t={state.t:.6g} ({exc})"
            raise _for_member(MidpointNoConvergence(msg, traces[i]), i)

    for _ in range(NEWTON_MAX):
        # all members (views, no copies) until the first one converges
        sel = slice(None) if len(active) == k else active
        Um = U[sel] + 0.5 * dt * Vm[sel]
        E = space.strain_at_qp(m.alpha * Um + m.beta * Vm[sel]) + E_l[sel]
        T, inv_slope = _invert_at(scenario, E, None if warm is None else warm[sel],
                                  None if slope is None else slope[:, sel], space,
                                  "midpoint stage t", t_mid, members=active)
        if len(active) == k:
            warm, slope = T, inv_slope
        else:
            # a full iteration came first, so warm and slope are this step's own
            warm[active] = T
            if slope is not None:
                slope[:, active] = inv_slope
        R = space.mass_apply(Vm[sel] - V[sel]) + 0.5 * dt * space.load_from_stress(T) \
            + const_load[sel]
        T_rows = T.reshape(len(active), nq, mcomp)
        R_rows = R.reshape(len(active), ndof)
        for j, i in enumerate(active):
            if lus[i] is None:
                lus[i] = factored(i, T_rows[j])
            delta = lus[i].solve(R_rows[j])
            rows[i] = rows[i] - delta
            dn = float(np.linalg.norm(delta)) / (1.0 + float(np.linalg.norm(rows[i])))
            traces[i].append(dn)
            if dn > NEWTON_TOL and dn > NEWTON_RHO * prev[i]:
                # contraction stalling: refresh the frozen Jacobian, dropping
                # the old factor first so that only one is ever alive
                lus[i] = None
                lus[i] = factored(i, T_rows[j])
            prev[i] = dn
        active = [i for i in active if traces[i][-1] > NEWTON_TOL]
        if not active:
            break
    else:
        i = active[0]
        raise _for_member(MidpointNoConvergence(
            f"midpoint Newton did not reach {NEWTON_TOL:g} in {NEWTON_MAX} "
            f"iterations at t={state.t:.6g} (last update {traces[i][-1]:.3e})",
            traces[i],
        ), i)

    carry.past = [Vm] + carry.past[:4]
    carry.gate = np.array([len(tr) <= QUARTIC_GATE for tr in traces])
    carry.stress, carry.slope = warm, slope
    return State(t_next, U + dt * Vm, 2.0 * Vm - V, *[None] * 5)


def run(scenario, space, config, observers=(), start=None):
    """Integrate from t=0 to t_end; return the final State.

    start is the State at t=0, by default that of zero interior
    coefficients (the lift carries initial and boundary data); a start
    that holds t, U and V alone is evaluated here.
    Observers are the only per-step output.  Each is called in order as
    observer(block) with a block of states (see State) that it must not
    modify: the initial state, then each block of _block_steps(space)
    steps once its last step is made.  A block's forcing comes from one
    _forcing_at call at its steps' _step_times; midpoint steps hand each
    other a Newton carry (see step_midpoint), and every step shares the
    run's _LiftTerms.

    The fields of a midpoint block come from one evaluate_fields call,
    warm-started from each step's last Newton stress and slope, and
    made only for observers that read them: if every observer's
    ``reads_fields`` is false, they and the return value get t, U and V
    alone (RK4 states too), and without observers only the final State
    is evaluated, without its strain eps.  So a midpoint state beyond the
    strain limit may be reported up to a block late.

    scenario may be Members, stepped as one batch; a lone scenario is
    the one-member case of the same loop.  For Members every block keeps
    the member axis after its row axis (U is (rows, members, ndof)), and
    so does the returned State.
    """
    terms = _LiftTerms(scenario, space)
    if start is None:
        shape = (len(scenario), space.ndof) if isinstance(scenario, Members) \
            else (space.ndof,)
        start = State(0.0, np.zeros(shape), np.zeros(shape), *[None] * 5)
    if start.stress is None:
        start = evaluate_fields(scenario, space, start.t, start.U, start.V, terms=terms)
    fielded = any(getattr(o, "reads_fields", True) for o in observers)
    midpoint = config.scheme == SCHEME_MIDPOINT
    # forcing times per step: the end time serves RK4 and observed fields
    per = 1 if midpoint and not fielded else 2
    carry = _NewtonCarry(terms)
    state = start
    final = _notify(observers, block_of([state]))

    grid = _steps(state.t, config.dt, config.t_end)
    while block := list(itertools.islice(grid, _block_steps(space))):
        forcing = _forcing_at(scenario, space,
                              [s for t, dt in block for s in _step_times(t, dt)[:per]])
        ends, warms = [], []               # warms: each step's Newton (stress, slope)
        for j, (_, dt) in enumerate(block):
            pair = (None, None) if forcing is None else forcing[per * j:per * j + per]
            if midpoint:
                state = step_midpoint(scenario, space, state, dt, pair[0], carry)
                warms.append((carry.stress, carry.slope))
            else:
                state = step_rk4(scenario, space, state, dt, pair, terms, fielded)
            ends.append(state if fielded else State(state.t, state.U, state.V, *[None] * 5))
        if observers:
            states = block_of(ends)
            if midpoint and fielded:
                T, S = zip(*warms)
                states = evaluate_fields(scenario, space, states.t, states.U, states.V,
                                         stack_rows(T),
                                         None if forcing is None else forcing[1::2],
                                         None if S[0] is None else stack_rows(S, 1), terms)
            final = _notify(observers, states)
    if observers:
        return final
    if midpoint and state is not start:
        return evaluate_fields(scenario, space, state.t, state.U, state.V, carry.stress,
                               slope=carry.slope, terms=terms, observed=False)
    return state


def _notify(observers, block):
    """Hand a block (see State) to each observer in order; return its last State."""
    for o in observers:
        o(block)
    return _index(block, block.t[-1], -1)
