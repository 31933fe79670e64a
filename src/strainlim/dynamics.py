"""Time integration of the semi-discrete momentum balance.

The Galerkin system is reduced to first order in (U, V) with
M dV/dt = F_f(t) - S(t, U, V) - M0(t), dU/dt = V, where S assembles the
stress load with T obtained by constitutive inversion at every
quadrature point, F_f is the forcing load, and M0 is the inertia of the
analytic lift.  Two integrators are provided: classical RK4 and the
implicit midpoint rule, the latter solved by a modified Newton
iteration whose Jacobian uses the closed-form inverse of the
constitutive tangent per quadrature point; within a run its factor is
kept across steps and Newton starts from extrapolated midpoint velocities.
Steps go in blocks, each handed whole to the observers; the end-of-step
fields of a midpoint block come from one stacked call, made only when an
observer reads them.  Runs that share the space and time grid and differ
only in reg_n or initial data step together as Members, with a member
axis on every array, after the row axis of a block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partialmethod

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import constitutive as con
from . import symtensor as st

SCHEME_RK4 = "rk4"
SCHEME_MIDPOINT = "midpoint"

# midpoint Newton: relative update at most NEWTON_TOL within NEWTON_MAX iterations
NEWTON_TOL = 1e-11
NEWTON_MAX = 50
# a Newton update larger than NEWTON_RHO times the previous one refreshes
# the frozen Jacobian factor
NEWTON_RHO = 0.1
# quadrature points per stacked call: each of run's blocks holds as many
# steps (at least one), and each forcing call as many times
BLOCK_POINTS = 4096


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
    coefficients, and at every quadrature point the strain eps, the strain
    expression E = alpha*eps + beta*dt_eps and the stress that solves the
    constitutive relation G(stress) = E to the inversion tolerance, and the
    forcing there at t (None without a forcing).

    evaluate_fields builds one from (t, U, V); the steppers return one.
    A block of states is one State whose t is the list of their times
    and whose arrays carry a leading row per state.
    """

    t: float
    U: np.ndarray
    V: np.ndarray
    eps: np.ndarray
    E: np.ndarray
    stress: np.ndarray
    forcing: np.ndarray


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


def evaluate_fields(scenario, space, t, U, V, warm=None, forcing=None):
    """The State at (t, U, V): its strain, strain expression, stress and
    forcing at the quadrature points (per member when scenario is
    Members).  warm is a stress to start the inversion from; forcing is
    the forcing at t from run's block, evaluated here when not given.

    For a list of times t, U, V, warm and forcing hold a leading row per
    time, and the block of those states comes from one inversion."""
    m = scenario.model
    qp = space.qp
    block = isinstance(t, list)
    # a block's rows go first, before the member axis of _Stacked's values
    eps_l, deps_l = (np.moveaxis(f(np.array(t), qp), -3, 0) if block else f(t, qp)
                     for f in (scenario.lift.strain, scenario.lift.dt_strain))
    eps = space.strain_at_qp(U) + eps_l
    deps = space.strain_at_qp(V) + deps_l
    E = m.alpha * eps + m.beta * deps
    T = _invert_at(scenario, E, warm, None, space, "t", t)[0]
    if forcing is None and scenario.forcing is not None:
        forcing = _forcing_at(scenario, space, t) if block else \
            _forcing_at(scenario, space, [t])[0]
    return State(t, U, V, eps, E, T, forcing)


def stack_rows(arrays):
    """The arrays stacked along a new leading axis; a lone one as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def block_of(states):
    """The block (see State) of states: each field that is not None
    stacked by stack_rows, so a lone State's by views."""
    fields = zip(*((s.U, s.V, s.eps, s.E, s.stress, s.forcing) for s in states))
    return State([s.t for s in states],
                 *(None if a[0] is None else stack_rows(a) for a in fields))


def _index(state, t, ix):
    """The State at time t whose arrays are state's indexed by ix (views)."""
    return State(t, *(None if a is None else a[ix] for a in (
        state.U, state.V, state.eps, state.E, state.stress, state.forcing)))


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


def _loads(scenario, space, t, forcing):
    """Load of the forcing values at the quadrature points (None without a
    forcing) minus the lift inertia load at time t (may be scalar 0)."""
    load = 0.0
    if forcing is not None:
        load = space.load_from_values(forcing)
    # a lift that never accelerates here (a static lift started at rest)
    # is not evaluated at all
    if scenario.lift.accelerates(space.qp):
        a0 = scenario.lift.dtt_value(t, space.qp)
        if np.any(a0):
            load = load - space.load_from_values(a0)
    return load


def _accel(scenario, space, state):
    """Acceleration at one State."""
    resid = _loads(scenario, space, state.t, state.forcing) \
        - space.load_from_stress(state.stress)
    return space.mass_solve(resid)


def step_rk4(scenario, space, state, dt, forcing):
    """Classical four-stage explicit update.

    Stage 1 is state itself, with the stress and forcing it carries;
    stages 2-4 and the returned State each invert once, warm-started from
    the stress of the stage before (the returned State from stage 3's, as
    stage 4).  forcing is the pair of the forcing at the half-step and
    end times (_step_times), or of Nones without a forcing.  With Members
    every operation acts on all members at once.
    """
    t, U, V = state.t, state.U, state.V
    t_half, t_next = _step_times(t, dt)
    f_half, f_next = forcing
    a1 = _accel(scenario, space, state)
    s2 = evaluate_fields(scenario, space, t_half, U + 0.5 * dt * V,
                         V + 0.5 * dt * a1, state.stress, f_half)
    a2 = _accel(scenario, space, s2)
    s3 = evaluate_fields(scenario, space, t_half, U + 0.5 * dt * s2.V,
                         V + 0.5 * dt * a2, s2.stress, f_half)
    a3 = _accel(scenario, space, s3)
    s4 = evaluate_fields(scenario, space, t_next, U + dt * s3.V, V + dt * a3, s3.stress,
                         f_next)
    a4 = _accel(scenario, space, s4)
    Un = U + (dt / 6.0) * (V + 2.0 * s2.V + 2.0 * s3.V + s4.V)
    Vn = V + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return evaluate_fields(scenario, space, t_next, Un, Vn, s3.stress, f_next)


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
    """What one run's midpoint steps hand on to the next: each member's
    Jacobian factor, the dt it was built for, the last three midpoint
    velocities, newest first, Newton's last midpoint stress and the slope
    of the inversion that gave it (per-member rows in a batch)."""

    def __init__(self):
        self.lus = None
        self.dt = None
        self.past = []
        self.stress = None
        self.slope = None

    def start(self, V):
        """Newton's first midpoint velocity: the quadratic extrapolation of
        the last three midpoint velocities, linear with two, the last one
        with one, V itself with none."""
        p = self.past
        if len(p) == 3:
            return 3.0 * p[0] - 3.0 * p[1] + p[2]
        if len(p) == 2:
            return 2.0 * p[0] - p[1]
        return (p[0] if p else V).copy()


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
    fresh carry).  The returned State holds t, U and V only; Newton's
    last midpoint stress is carry.stress.

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
    eps_l = scenario.lift.strain(t_mid, qp)
    deps_l = scenario.lift.dt_strain(t_mid, qp)
    const_load = np.full(U.shape, -0.5 * dt * _loads(scenario, space, t_mid, f_mid))
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
        E = m.alpha * (space.strain_at_qp(Um) + eps_l[sel]) \
            + m.beta * (space.strain_at_qp(Vm[sel]) + deps_l[sel])
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

    carry.past = [Vm] + carry.past[:2]
    carry.stress, carry.slope = warm, slope
    return State(t_next, U + dt * Vm, 2.0 * Vm - V, None, None, None, None)


def run(scenario, space, config, observers=(), start=None):
    """Integrate from t=0 to t_end; return the final State.

    start is the State at t=0, by default that of zero interior
    coefficients (the lift carries initial and boundary data).
    Observers are the only per-step output.  Each is called in order as
    observer(block) with a block of states (see State) that it must not
    modify: the initial state, then each block of _block_steps(space)
    steps once its last step is made.  A block's forcing comes from one
    _forcing_at call at its steps' _step_times; midpoint steps hand each
    other a Newton carry (see step_midpoint).

    The fields of a midpoint block come from one evaluate_fields call,
    made only for observers that read them: if every observer's
    ``reads_fields`` is false, they and the return value get t, U and V
    alone (RK4 states too), and without observers only the final State
    is evaluated.  So a midpoint state beyond the strain limit may be
    reported up to a block late.

    scenario may be Members, stepped as one batch; a lone scenario is
    the one-member case of the same loop.  For Members every block keeps
    the member axis after its row axis (U is (rows, members, ndof)), and
    so does the returned State.
    """
    if start is None:
        shape = (len(scenario), space.ndof) if isinstance(scenario, Members) \
            else (space.ndof,)
        start = evaluate_fields(scenario, space, 0.0, np.zeros(shape), np.zeros(shape))
    fielded = any(getattr(o, "reads_fields", True) for o in observers)
    midpoint = config.scheme == SCHEME_MIDPOINT
    # forcing times per step: the end time serves RK4 and observed fields
    per = 1 if midpoint and not fielded else 2
    carry = _NewtonCarry()
    state = start
    final = _notify(observers, block_of([state]))

    grid = _steps(state.t, config.dt, config.t_end)
    while block := list(itertools.islice(grid, _block_steps(space))):
        forcing = _forcing_at(scenario, space,
                              [s for t, dt in block for s in _step_times(t, dt)[:per]])
        ends, warms = [], []
        for j, (_, dt) in enumerate(block):
            pair = (None, None) if forcing is None else forcing[per * j:per * j + per]
            if midpoint:
                state = step_midpoint(scenario, space, state, dt, pair[0], carry)
                warms.append(carry.stress)
            else:
                state = step_rk4(scenario, space, state, dt, pair)
            ends.append(state if fielded else State(state.t, state.U, state.V, *[None] * 4))
        if observers:
            states = block_of(ends)
            if midpoint and fielded:
                states = evaluate_fields(scenario, space, states.t, states.U, states.V,
                                         stack_rows(warms),
                                         None if forcing is None else forcing[1::2])
            final = _notify(observers, states)
    if observers:
        return final
    if midpoint and state is not start:
        return evaluate_fields(scenario, space, state.t, state.U, state.V, carry.stress)
    return state


def _notify(observers, block):
    """Hand a block (see State) to each observer in order; return its last State."""
    for o in observers:
        o(block)
    return _index(block, block.t[-1], -1)
