"""Time integration of the semi-discrete momentum balance.

The Galerkin system is reduced to first order in (U, V) with
M dV/dt = F_f(t) - S(t, U, V) - M0(t), dU/dt = V, where S assembles the
stress load with T obtained by constitutive inversion at every
quadrature point, F_f is the forcing load, and M0 is the inertia of the
analytic lift.  Two integrators are provided: classical RK4 and the
implicit midpoint rule, the latter solved by a modified Newton
iteration whose Jacobian uses the closed-form inverse of the
constitutive tangent per quadrature point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import constitutive as con
from . import symtensor as st

SCHEME_RK4 = "rk4"
SCHEME_MIDPOINT = "midpoint"


class NonFiniteStrainError(RuntimeError):
    """The strain expression at some quadrature point overflowed or is NaN."""


class MidpointNoConvergence(RuntimeError):
    """Midpoint Newton iteration failed; carries the residual trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = list(trace)


@dataclass
class State:
    """Time, interior coefficients, and the per-qp stress cache.

    The cache holds the stress from the most recent inversion at this
    state, so the constitutive relation holds at every quadrature point
    to the inversion tolerance.
    """

    t: float
    U: np.ndarray
    V: np.ndarray
    stress: np.ndarray = None


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    scheme: str = SCHEME_MIDPOINT
    tol_inv: float = 1e-12
    newton_tol: float = 1e-11
    newton_max: int = 50

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.t_end >= 0.0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.scheme not in (SCHEME_RK4, SCHEME_MIDPOINT):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def evaluate_fields(scenario, space, t, U, V, warm=None, tol_inv=1e-12):
    """Strain, strain rate, their model combination, and the stress at
    the quadrature points of one (t, U, V) configuration."""
    m = scenario.model
    qp = space.qp
    eps = space.strain_at_qp(U) + scenario.lift.strain(t, qp)
    deps = space.strain_at_qp(V) + scenario.lift.dt_strain(t, qp)
    E = m.alpha * eps + m.beta * deps
    T = _invert_at(m, E, warm, tol_inv, space, "t", t)
    return {"eps": eps, "deps": deps, "E": E, "stress": T}


def _invert_at(model, E, warm, tol_inv, space, stage, t):
    """Stress at every quadrature point; failures name the stage, its time
    and the worst qp.

    A non-finite strain expression (an unstable step has blown up)
    raises NonFiniteStrainError; inversion failures keep their type.
    """
    try:
        return con.invert(model, E, warm_stress=warm, tol=tol_inv)
    except (con.SupercriticalStrainError, con.NewtonConvergenceError) as exc:
        nrm = st.norm(E)
        k = int(np.argmax(nrm))
        raise type(exc)(
            f"{exc} [{stage}={t:.6g}, worst qp #{k} at x={space.qp[k]}, "
            f"|strain expression|={float(nrm[k]):.6g}]"
        ) from exc
    except ValueError as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(st.norm(E))
        if np.all(finite):
            raise
        k = int(np.argmin(finite))
        raise NonFiniteStrainError(
            f"non-finite strain expression [{stage}={t:.6g}, worst qp #{k} "
            f"at x={space.qp[k]}]"
        ) from exc


def _loads(scenario, space, t):
    """Forcing load minus lift inertia load at time t (may be scalar 0)."""
    load = 0.0
    if scenario.forcing is not None:
        load = space.load_from_values(scenario.forcing.value(t, space.qp))
    a0 = scenario.lift.dtt_value(t, space.qp)
    if np.any(a0):
        load = load - space.load_from_values(a0)
    return load


def _accel(scenario, space, t, U, V, warm, tol_inv):
    fields = evaluate_fields(scenario, space, t, U, V, warm, tol_inv)
    resid = _loads(scenario, space, t) - space.load_from_stress(fields["stress"])
    return space.mass_solve(resid), fields


def step_rk4(scenario, space, state, dt, tol_inv=1e-12):
    """Classical four-stage explicit update."""
    t, U, V = state.t, state.U, state.V
    warm = state.stress
    a1, f1 = _accel(scenario, space, t, U, V, warm, tol_inv)
    k1u, k1v = V, a1
    warm = f1["stress"]
    a2, f2 = _accel(scenario, space, t + 0.5 * dt, U + 0.5 * dt * k1u,
                    V + 0.5 * dt * k1v, warm, tol_inv)
    k2u, k2v = V + 0.5 * dt * k1v, a2
    warm = f2["stress"]
    a3, f3 = _accel(scenario, space, t + 0.5 * dt, U + 0.5 * dt * k2u,
                    V + 0.5 * dt * k2v, warm, tol_inv)
    k3u, k3v = V + 0.5 * dt * k2v, a3
    warm = f3["stress"]
    a4, _ = _accel(scenario, space, t + dt, U + dt * k3u, V + dt * k3v,
                   warm, tol_inv)
    k4u, k4v = V + dt * k3v, a4
    Un = U + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    Vn = V + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    fields = evaluate_fields(scenario, space, t + dt, Un, Vn, warm, tol_inv)
    return State(t + dt, Un, Vn, fields["stress"]), fields


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


def step_midpoint(scenario, space, state, dt, newton_tol=1e-11,
                  newton_max=50, tol_inv=1e-12):
    """Implicit midpoint update solved for the midpoint velocity.

    With Vm the midpoint velocity, Um = U + (dt/2) Vm and the update
    reads U+ = U + dt*Vm, V+ = 2*Vm - V; Vm solves
    M (Vm - V) + (dt/2) [S(t_mid, Um, Vm) - F(t_mid) + M0(t_mid)] = 0
    by modified Newton with the factored Jacobian reused until the
    contraction stalls.
    """
    m = scenario.model
    t_mid = state.t + 0.5 * dt
    qp = space.qp
    eps_l = scenario.lift.strain(t_mid, qp)
    deps_l = scenario.lift.dt_strain(t_mid, qp)
    const_load = -0.5 * dt * _loads(scenario, space, t_mid)
    mass = space.mass
    factor = 0.5 * dt * (m.beta + 0.5 * dt * m.alpha)

    Vm = state.V.copy()
    warm = state.stress
    lu = None
    trace = []
    prev = np.inf
    for _ in range(newton_max):
        Um = state.U + 0.5 * dt * Vm
        E = m.alpha * (space.strain_at_qp(Um) + eps_l) \
            + m.beta * (space.strain_at_qp(Vm) + deps_l)
        T = _invert_at(m, E, warm, tol_inv, space, "midpoint stage t", t_mid)
        warm = T
        R = mass @ (Vm - state.V) + 0.5 * dt * space.load_from_stress(T) + const_load
        if lu is None:
            lu = _assemble_midpoint_jacobian(space, mass, factor, m, T)
        delta = lu.solve(R)
        Vm = Vm - delta
        dn = float(np.linalg.norm(delta)) / (1.0 + float(np.linalg.norm(Vm)))
        trace.append(dn)
        if dn <= newton_tol:
            break
        if dn > 0.3 * prev:
            # contraction stalling: refresh the frozen Jacobian
            lu = _assemble_midpoint_jacobian(space, mass, factor, m, T)
        prev = dn
    else:
        raise MidpointNoConvergence(
            f"midpoint Newton did not reach {newton_tol:g} in {newton_max} "
            f"iterations at t={state.t:.6g} (last update {trace[-1]:.3e})",
            trace,
        )

    Un = state.U + dt * Vm
    Vn = 2.0 * Vm - state.V
    fields = evaluate_fields(scenario, space, state.t + dt, Un, Vn, warm, tol_inv)
    return State(state.t + dt, Un, Vn, fields["stress"]), fields


def run(scenario, space, config, observers=(), U0=None, V0=None):
    """Integrate from t=0 to t_end; return the final (state, fields).

    Initial interior coefficients are zero (the lift carries initial and
    boundary data) unless U0/V0 override them, as the stability study
    does.  Observers are called with (state, fields) at the initial
    state and after every step; fields holds per-qp eps, deps, the
    strain expression E, and stress.  Observers are the only per-step
    output: a caller that needs a history records it in one.
    """
    ndof = space.ndof
    U = np.zeros(ndof) if U0 is None else np.array(U0, dtype=float)
    V = np.zeros(ndof) if V0 is None else np.array(V0, dtype=float)
    if U.shape != (ndof,) or V.shape != (ndof,):
        raise ValueError("initial coefficient shape does not match the space")
    state = State(0.0, U, V, None)
    fields = evaluate_fields(scenario, space, 0.0, U, V, None, config.tol_inv)
    state.stress = fields["stress"]
    for obs in observers:
        obs(state, fields)

    t_end = config.t_end
    tiny = 1e-12 * max(1.0, t_end)
    while state.t < t_end - tiny:
        dtk = min(config.dt, t_end - state.t)
        if config.scheme == SCHEME_RK4:
            state, fields = step_rk4(scenario, space, state, dtk, config.tol_inv)
        else:
            state, fields = step_midpoint(scenario, space, state, dtk,
                                          config.newton_tol, config.newton_max,
                                          config.tol_inv)
        for obs in observers:
            obs(state, fields)
    return state, fields


def _exp_weight_factor(x):
    """(e^x (x-1) + 1) / x^2, series-guarded near 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 0.05
    xs = x[small]
    out[small] = 0.5 + xs / 3.0 + xs**2 / 8.0 + xs**3 / 30.0 + xs**4 / 144.0
    xl = x[~small]
    out[~small] = (np.exp(xl) * (xl - 1.0) + 1.0) / xl**2
    return out


def strain_history_residual(ts, eps, stress, model):
    """Gap between the final recorded strain and its integrating-factor
    reconstruction from the stress history.

    ts, eps and stress are the times, per-qp strains and per-qp stresses
    of a run, recorded at every state (fields["eps"], fields["stress"]
    of each observer call).  The constitutive relation at each
    quadrature point is the linear ODE beta d(eps)/dt + alpha eps = G_n(T),
    whose solution is
    eps(t) = e^{-ct} eps(0) + int_0^t e^{-c(t-s)} G_n(T(s))/beta ds with
    c = alpha/beta.  The integral uses the exact exponential weight
    against piecewise-linear interpolation of the recorded G_n(T), so
    the residual is O(dt^2) and exactly zero for constant histories.
    Returns the max over quadrature points of the tensor-norm gap.
    """
    ts = np.asarray(ts, dtype=float)
    if len(ts) < 2:
        return 0.0
    c = model.alpha / model.beta
    t_end = ts[-1]
    G = np.array([con.g_apply(model, T) for T in stress])
    recon = np.exp(-c * (t_end - ts[0])) * eps[0]
    for k in range(len(ts) - 1):
        a, b = ts[k], ts[k + 1]
        delta = b - a
        if delta <= 0.0:
            continue
        x = c * delta
        A = np.exp(-c * (t_end - a))
        I0 = A * np.expm1(x) / c
        I1 = A * delta * _exp_weight_factor(x)
        recon = recon + (G[k] * I0 + (G[k + 1] - G[k]) * I1) / model.beta
    gap = eps[-1] - recon
    return float(np.max(st.norm(gap)))
