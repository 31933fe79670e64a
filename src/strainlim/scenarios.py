"""Problem data: boundary lifts, safety checks, and built-in scenarios.

The solver's ansatz is u = u0 + sum_j C_j w_j with interior basis
functions w_j, so all boundary and initial data travel inside the
analytic lift u0.  Two constructions are provided:

  * static boundary data: u0 interpolates between the initial state and
    the long-time stationary profile with the rate alpha/beta, chosen so
    that alpha*eps(u0) + beta*dt_eps(u0) is constant in time;
  * time-dependent boundary data: a correction of the prescribed
    extension with the same exponential rate, matching both initial
    conditions while keeping the boundary values untouched.

Scenarios bundle a constitutive model, lift, forcing, and optional
exact solution.  Manufactured scenarios derive the forcing
f = dtt_u - div T from a chosen exact solution, with the stress
divergence exact by the chain rule d_k T = DG_n(T)^{-1} d_k E, which
needs the exact solution's second spatial derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import constitutive as con
from . import symtensor as st


class InvalidDataError(ValueError):
    """Scenario data violate a compatibility or admissibility requirement."""


def canon_domain(dim, domain):
    """Domain as a ((lo, hi), ...) tuple with one pair per axis."""
    lo = np.asarray(domain, dtype=float).reshape(dim, 2)
    if np.any(lo[:, 1] <= lo[:, 0]):
        raise InvalidDataError(f"degenerate domain {domain!r}")
    return tuple((float(a), float(b)) for a, b in lo)


class AnalyticField:
    """Smooth space-time field with analytic derivatives.

    Callables take (t, X) with X of shape (n, dim) and return values of
    shape (n, dim), gradients (n, dim, dim) with grad[i, j] = d u_i / d x_j,
    and Hessians (n, dim, dim, dim) with hess[i, j, k] = d_j d_k u_i.
    Missing derivative callables default to zero.
    """

    def __init__(self, dim, value, grad=None, dt_value=None, dt_grad=None,
                 dtt_value=None, hess=None, dt_hess=None, smoothness=2):
        self.dim = dim
        self._value = value
        self._grad = grad
        self._dt_value = dt_value
        self._dt_grad = dt_grad
        self._dtt_value = dtt_value
        self._hess = hess
        self._dt_hess = dt_hess
        self.smoothness = smoothness

    def _zeros(self, X, rank):
        n = np.asarray(X).shape[0]
        return np.zeros((n,) + (self.dim,) * rank)

    def value(self, t, X):
        return np.asarray(self._value(t, np.asarray(X, dtype=float)), dtype=float)

    def grad(self, t, X):
        if self._grad is None:
            return self._zeros(X, 2)
        return np.asarray(self._grad(t, np.asarray(X, dtype=float)), dtype=float)

    def dt_value(self, t, X):
        if self._dt_value is None:
            return self._zeros(X, 1)
        return np.asarray(self._dt_value(t, np.asarray(X, dtype=float)), dtype=float)

    def dt_grad(self, t, X):
        if self._dt_grad is None:
            return self._zeros(X, 2)
        return np.asarray(self._dt_grad(t, np.asarray(X, dtype=float)), dtype=float)

    def dtt_value(self, t, X):
        if self._dtt_value is None:
            return self._zeros(X, 1)
        return np.asarray(self._dtt_value(t, np.asarray(X, dtype=float)), dtype=float)

    def hess(self, t, X):
        if self._hess is None:
            return self._zeros(X, 3)
        return np.asarray(self._hess(t, np.asarray(X, dtype=float)), dtype=float)

    def dt_hess(self, t, X):
        if self._dt_hess is None:
            return self._zeros(X, 3)
        return np.asarray(self._dt_hess(t, np.asarray(X, dtype=float)), dtype=float)

    @property
    def has_second_derivatives(self):
        """Whether every declared gradient has its declared Hessian."""
        return ((self._grad is None or self._hess is not None)
                and (self._dt_grad is None or self._dt_hess is not None))

    def strain(self, t, X):
        """Packed symmetric gradient."""
        return st.sym_part(self.grad(t, X))

    def dt_strain(self, t, X):
        return st.sym_part(self.dt_grad(t, X))

    def fd_consistency(self, t, X, h=1e-6):
        """Max relative mismatch between declared derivatives and finite
        differences of value/grad/dt_grad; a data-entry check for
        hand-coded fields.  Hessians are checked only where declared."""
        X = np.asarray(X, dtype=float)
        worst = 0.0

        def rel(a, b):
            scale = 1.0 + np.max(np.abs(a)) + np.max(np.abs(b))
            return float(np.max(np.abs(a - b)) / scale)

        fd_dt = (self.value(t + h, X) - self.value(t - h, X)) / (2 * h)
        worst = max(worst, rel(fd_dt, self.dt_value(t, X)))
        fd_dtt = (self.dt_value(t + h, X) - self.dt_value(t - h, X)) / (2 * h)
        worst = max(worst, rel(fd_dtt, self.dtt_value(t, X)))
        fd_dtg = (self.grad(t + h, X) - self.grad(t - h, X)) / (2 * h)
        worst = max(worst, rel(fd_dtg, self.dt_grad(t, X)))
        # (function, its declared spatial derivative, last axis = direction)
        pairs = [(self.value, self.grad(t, X))]
        if self._hess is not None:
            pairs.append((self.grad, self.hess(t, X)))
        if self._dt_hess is not None:
            pairs.append((self.dt_grad, self.dt_hess(t, X)))
        for j in range(self.dim):
            dX = np.zeros_like(X)
            dX[:, j] = h
            for f, deriv in pairs:
                fd = (f(t, X + dX) - f(t, X - dX)) / (2 * h)
                worst = max(worst, rel(fd, deriv[..., j]))
        return worst


def zero_field(dim):
    return AnalyticField(dim, lambda t, X: np.zeros((X.shape[0], dim)))


@dataclass
class Scenario:
    name: str
    dim: int
    domain: tuple
    model: con.ConstitutiveModel
    lift: AnalyticField
    forcing: AnalyticField = None
    exact: AnalyticField = None
    t_end: float = 1.0
    rebuild: object = field(default=None, repr=False)

    def with_model(self, model):
        """Same scenario under a different model (forcing re-derived when
        the scenario was built from an exact solution)."""
        if self.rebuild is not None:
            return self.rebuild(model)
        return replace(self, model=model)


# ---------------------------------------------------------------------------
# lift recipes


def lift_static_bc(u_init, v_init, alpha, beta):
    """Lift for boundary values that do not move in time.

    u0(t) = e^{-at} u_init + (u_init + (beta/alpha) v_init)(1 - e^{-at})
    with a = alpha/beta; then u0(0) = u_init, dt_u0(0) = v_init, and
    alpha*eps(u0) + beta*dt_eps(u0) = alpha*eps(u_init) + beta*eps(v_init)
    for all t.  v_init must vanish on the boundary.
    """
    a = alpha / beta
    dim = u_init.dim

    def mix(t, f_u, f_v):
        E = np.exp(-a * t)
        return f_u + (beta / alpha) * (1.0 - E) * f_v

    return AnalyticField(
        dim,
        value=lambda t, X: mix(t, u_init.value(0.0, X), v_init.value(0.0, X)),
        grad=lambda t, X: mix(t, u_init.grad(0.0, X), v_init.grad(0.0, X)),
        dt_value=lambda t, X: np.exp(-a * t) * v_init.value(0.0, X),
        dt_grad=lambda t, X: np.exp(-a * t) * v_init.grad(0.0, X),
        dtt_value=lambda t, X: -a * np.exp(-a * t) * v_init.value(0.0, X),
        smoothness=max(u_init.smoothness, 2),
    )


def lift_timedep_bc(u_ext, v_init, alpha, beta, boundary_points=None, tol=1e-10):
    """Lift for moving boundary data.

    u_ext extends the boundary motion into the domain; the returned lift
    corrects its initial velocity to v_init without touching the
    boundary values, which requires v_init = dt_u_ext(0) on the boundary
    (checked at boundary_points when given).
    """
    a = alpha / beta
    dim = u_ext.dim

    if boundary_points is not None and len(boundary_points) > 0:
        Xb = np.asarray(boundary_points, dtype=float)
        gap = v_init.value(0.0, Xb) - u_ext.dt_value(0.0, Xb)
        worst = float(np.max(np.abs(gap)))
        if worst > tol:
            raise InvalidDataError(
                f"initial velocity differs from boundary motion by {worst:.3e} on the boundary"
            )

    def corr(t):
        return (beta / alpha) * (1.0 - np.exp(-a * t))

    return AnalyticField(
        dim,
        value=lambda t, X: u_ext.value(t, X)
        + corr(t) * (v_init.value(0.0, X) - u_ext.dt_value(0.0, X)),
        grad=lambda t, X: u_ext.grad(t, X)
        + corr(t) * (v_init.grad(0.0, X) - u_ext.dt_grad(0.0, X)),
        dt_value=lambda t, X: u_ext.dt_value(t, X)
        + np.exp(-a * t) * (v_init.value(0.0, X) - u_ext.dt_value(0.0, X)),
        dt_grad=lambda t, X: u_ext.dt_grad(t, X)
        + np.exp(-a * t) * (v_init.grad(0.0, X) - u_ext.dt_grad(0.0, X)),
        dtt_value=lambda t, X: u_ext.dtt_value(t, X)
        - a * np.exp(-a * t) * (v_init.value(0.0, X) - u_ext.dt_value(0.0, X)),
        smoothness=max(u_ext.smoothness, 2),
    )


def strain_expression(lift, alpha, beta, t, X):
    """alpha*eps + beta*dt_eps of an analytic field, packed."""
    return alpha * lift.strain(t, X) + beta * lift.dt_strain(t, X)


def safety_margin(scenario, space, t_samples=None):
    """L minus the sampled sup of |alpha*eps(u0) + beta*dt_eps(u0)|.

    Sampled over quadrature points times a uniform time grid (64 samples
    by default); +inf for unbounded-response models.
    """
    L = con.limit_L(scenario.model)
    if not np.isfinite(L):
        return np.inf
    if t_samples is None:
        t_samples = np.linspace(0.0, scenario.t_end, 64)
    m = scenario.model
    worst = 0.0
    for t in np.atleast_1d(t_samples):
        E = strain_expression(scenario.lift, m.alpha, m.beta, float(t), space.qp)
        worst = max(worst, float(np.max(st.norm(E))))
    return L - worst


# ---------------------------------------------------------------------------
# manufactured scenarios


def exact_stress(model, u_exact, t, X):
    """Stress of an exact solution: invert the model map at its strain."""
    E = strain_expression(u_exact, model.alpha, model.beta, t, X)
    return con.invert(model, E)


def stress_divergence(model, u_exact, t, X):
    """div T of an exact solution by the chain rule, per point.

    d_k T = DG_n(T)^{-1} d_k E with d_k E the packed symmetric part of
    alpha*d_k grad u + beta*d_k dt_grad u, so one inversion gives T and
    the closed-form tangent inverse at T does the rest.
    """
    d = u_exact.dim
    T = exact_stress(model, u_exact, t, X)
    Ainv = con.tangent_inverse_blocks(model, T)
    dgrad = model.alpha * u_exact.hess(t, X) + model.beta * u_exact.dt_hess(t, X)
    dE = st.sym_part(np.moveaxis(dgrad, -1, 1))               # (n, k, m)
    dT = st.unpack(np.einsum("nab,nkb->nka", Ainv, dE), d)   # (n, k, i, j)
    return np.einsum("nkik->ni", dT)


def manufactured(u_exact, model, domain, name="manufactured", t_end=1.0,
                 guard_samples=33):
    """Scenario whose exact solution is u_exact, forcing derived from it.

    f = dtt_u - div T with T from the model's own (possibly regularized)
    inverse map; the strain expression must stay below 0.95 L so the
    unregularized inverse also exists.  u_exact must declare the second
    spatial derivatives of every gradient it declares, and it must keep
    its boundary values fixed in time: the lift freezes the t=0 profile
    (static recipe), so the interior coefficients carry the full
    evolution and discretization errors are actually exercised.
    """
    dim = u_exact.dim
    dom = canon_domain(dim, domain)
    if not u_exact.has_second_derivatives:
        raise InvalidDataError(
            "exact solution lacks the second spatial derivatives (hess, dt_hess) "
            "that the exact stress divergence needs")
    lo = np.asarray(dom, dtype=float)
    L = con.limit_L(model)
    if np.isfinite(L):
        sup = _sample_sup_strain(u_exact, model, lo, t_end, guard_samples)
        if sup >= 0.95 * L:
            raise InvalidDataError(
                f"exact strain expression reaches {sup:.4f}, beyond 0.95*L = {0.95 * L:.4f}"
            )

    def forcing_value(t, X):
        return u_exact.dtt_value(t, X) - stress_divergence(model, u_exact, t, X)

    forcing = AnalyticField(dim, forcing_value, smoothness=u_exact.smoothness)

    u_init = AnalyticField(dim, lambda t, X: u_exact.value(0.0, X),
                           grad=lambda t, X: u_exact.grad(0.0, X),
                           smoothness=u_exact.smoothness)
    v_init = AnalyticField(dim, lambda t, X: u_exact.dt_value(0.0, X),
                           grad=lambda t, X: u_exact.dt_grad(0.0, X),
                           smoothness=u_exact.smoothness)
    lift = lift_static_bc(u_init, v_init, model.alpha, model.beta)
    return Scenario(
        name=name, dim=dim, domain=dom,
        model=model, lift=lift, forcing=forcing, exact=u_exact, t_end=t_end,
        rebuild=lambda mdl: manufactured(u_exact, mdl, dom, name=name, t_end=t_end),
    )


def _sample_sup_strain(u_exact, model, lo, t_end, n):
    grids = [np.linspace(a, b, 41) for a, b in lo]
    if len(grids) == 1:
        X = grids[0][:, None]
    else:
        A, B = np.meshgrid(*grids, indexing="ij")
        X = np.column_stack([A.ravel(), B.ravel()])
    worst = 0.0
    for t in np.linspace(0.0, t_end, n):
        E = strain_expression(u_exact, model.alpha, model.beta, float(t), X)
        worst = max(worst, float(np.max(st.norm(E))))
    return worst


# ---------------------------------------------------------------------------
# built-in scenario library


def _bump(s):
    """C-infinity bump exp(1 - 1/(1-s^2)) supported on |s| < 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


def _bump_prime(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    w = 1.0 - si * si
    out[inside] = np.exp(1.0 - 1.0 / w) * (-2.0 * si / (w * w))
    return out


def _pluck_field(dim, domain, amplitude):
    """Displacement bump (first component in 2D), unit amplitude scaled."""
    lo = np.asarray(domain, dtype=float).reshape(dim, 2)
    ctr = lo.mean(axis=1)
    wid = 0.4 * (lo[:, 1] - lo[:, 0])

    if dim == 1:
        c, w = ctr[0], wid[0]

        def value(t, X):
            return amplitude * _bump((X[:, 0] - c) / w)[:, None]

        def grad(t, X):
            return (amplitude / w) * _bump_prime((X[:, 0] - c) / w)[:, None, None]

        return AnalyticField(1, value, grad=grad, smoothness=10)

    cx, cy = ctr
    wx, wy = wid

    def value2(t, X):
        bx = _bump((X[:, 0] - cx) / wx)
        by = _bump((X[:, 1] - cy) / wy)
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = amplitude * bx * by
        return out

    def grad2(t, X):
        sx = (X[:, 0] - cx) / wx
        sy = (X[:, 1] - cy) / wy
        out = np.zeros((X.shape[0], 2, 2))
        out[:, 0, 0] = amplitude * _bump_prime(sx) * _bump(sy) / wx
        out[:, 0, 1] = amplitude * _bump(sx) * _bump_prime(sy) / wy
        return out

    return AnalyticField(2, value2, grad=grad2, smoothness=10)


def _pluck_scenario(name, margin, dim, domain, model, t_end):
    """Initial bump scaled so the initial strain expression sits at
    margin below the response limit (or below 1 for unbounded models);
    v0 = 0, f = 0, static lift."""
    L = con.limit_L(model)
    target = (L if np.isfinite(L) else 1.0) - margin
    if target <= 0.0:
        raise InvalidDataError(f"margin {margin} leaves no admissible amplitude")
    dom = canon_domain(dim, domain)
    unit = _pluck_field(dim, dom, 1.0)
    lo = np.asarray(dom, dtype=float)
    grids = [np.linspace(a, b, 801 if dim == 1 else 161) for a, b in lo]
    if dim == 1:
        X = grids[0][:, None]
    else:
        A, B = np.meshgrid(*grids, indexing="ij")
        X = np.column_stack([A.ravel(), B.ravel()])
    sup = float(np.max(st.norm(unit.strain(0.0, X))))
    amp = target / (model.alpha * sup)
    u_init = _pluck_field(dim, dom, amp)
    lift = lift_static_bc(u_init, zero_field(dim), model.alpha, model.beta)
    return Scenario(
        name=name, dim=dim, domain=dom,
        model=model, lift=lift, forcing=None, exact=None, t_end=t_end,
        rebuild=lambda mdl: _pluck_scenario(name, margin, dim, dom, mdl, t_end),
    )


def _standing_wave_field(dim, domain, amplitude=0.05, omega=np.pi):
    lo = np.asarray(domain, dtype=float).reshape(dim, 2)
    a, b = lo[0]
    kx = np.pi / (b - a)
    if dim == 1:

        def value(t, X):
            return amplitude * np.sin(kx * (X[:, :1] - a)) * np.cos(omega * t)

        def grad(t, X):
            return amplitude * kx * np.cos(kx * (X[:, :1, None] - a)) * np.cos(omega * t)

        def dt_value(t, X):
            return -amplitude * omega * np.sin(kx * (X[:, :1] - a)) * np.sin(omega * t)

        def dt_grad(t, X):
            return -amplitude * omega * kx * np.cos(kx * (X[:, :1, None] - a)) * np.sin(omega * t)

        def dtt_value(t, X):
            return -amplitude * omega**2 * np.sin(kx * (X[:, :1] - a)) * np.cos(omega * t)

        def hess(t, X):
            return -amplitude * kx**2 * np.sin(kx * (X[:, :1, None, None] - a)) * np.cos(omega * t)

        def dt_hess(t, X):
            return amplitude * omega * kx**2 * np.sin(kx * (X[:, :1, None, None] - a)) \
                * np.sin(omega * t)

        return AnalyticField(1, value, grad=grad, dt_value=dt_value,
                             dt_grad=dt_grad, dtt_value=dtt_value, hess=hess,
                             dt_hess=dt_hess, smoothness=10)

    c, d2 = lo[1]
    ky = np.pi / (d2 - c)

    def shape(X):
        return np.sin(kx * (X[:, 0] - a)) * np.sin(ky * (X[:, 1] - c))

    def shape_grad(X):
        gx = kx * np.cos(kx * (X[:, 0] - a)) * np.sin(ky * (X[:, 1] - c))
        gy = ky * np.sin(kx * (X[:, 0] - a)) * np.cos(ky * (X[:, 1] - c))
        return gx, gy

    def shape_hess(X):
        out = np.empty((X.shape[0], 2, 2))
        sxy = shape(X)
        out[:, 0, 0] = -kx**2 * sxy
        out[:, 1, 1] = -ky**2 * sxy
        out[:, 0, 1] = out[:, 1, 0] = \
            kx * ky * np.cos(kx * (X[:, 0] - a)) * np.cos(ky * (X[:, 1] - c))
        return out

    def value2(t, X):
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = amplitude * shape(X) * np.cos(omega * t)
        return out

    def grad2(t, X):
        gx, gy = shape_grad(X)
        out = np.zeros((X.shape[0], 2, 2))
        out[:, 0, 0] = amplitude * gx * np.cos(omega * t)
        out[:, 0, 1] = amplitude * gy * np.cos(omega * t)
        return out

    def dt_value2(t, X):
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = -amplitude * omega * shape(X) * np.sin(omega * t)
        return out

    def dt_grad2(t, X):
        gx, gy = shape_grad(X)
        out = np.zeros((X.shape[0], 2, 2))
        out[:, 0, 0] = -amplitude * omega * gx * np.sin(omega * t)
        out[:, 0, 1] = -amplitude * omega * gy * np.sin(omega * t)
        return out

    def dtt_value2(t, X):
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = -amplitude * omega**2 * shape(X) * np.cos(omega * t)
        return out

    def hess2(t, X):
        out = np.zeros((X.shape[0], 2, 2, 2))
        out[:, 0] = amplitude * np.cos(omega * t) * shape_hess(X)
        return out

    def dt_hess2(t, X):
        out = np.zeros((X.shape[0], 2, 2, 2))
        out[:, 0] = -amplitude * omega * np.sin(omega * t) * shape_hess(X)
        return out

    return AnalyticField(2, value2, grad=grad2, dt_value=dt_value2,
                         dt_grad=dt_grad2, dtt_value=dtt_value2, hess=hess2,
                         dt_hess=dt_hess2, smoothness=10)


def _constant_strain_field(dim, domain, slope=0.3):
    lo = np.asarray(domain, dtype=float).reshape(dim, 2)
    a = lo[0, 0]

    def value(t, X):
        out = np.zeros((X.shape[0], dim))
        out[:, 0] = slope * (X[:, 0] - a)
        return out

    def grad(t, X):
        out = np.zeros((X.shape[0], dim, dim))
        out[:, 0, 0] = slope
        return out

    return AnalyticField(dim, value, grad=grad, smoothness=10)


def _constant_strain_scenario(dim, domain, model, t_end):
    """Linear displacement, constant strain, zero forcing; the exact
    solution is the (static) lift itself."""
    dom = canon_domain(dim, domain)
    u_init = _constant_strain_field(dim, dom)
    lift = lift_static_bc(u_init, zero_field(dim), model.alpha, model.beta)
    return Scenario(
        name="constant-strain", dim=dim, domain=dom,
        model=model, lift=lift, forcing=None, exact=lift, t_end=t_end,
        rebuild=lambda mdl: _constant_strain_scenario(dim, dom, mdl, t_end),
    )


def build_scenario(name, dim, domain, model, t_end):
    """Resolve a scenario name (including manufactured:<name>) to a Scenario."""
    if name == "gaussian-pluck":
        return _pluck_scenario(name, 0.3, dim, domain, model, t_end)
    if name == "near-limit":
        return _pluck_scenario(name, 0.02, dim, domain, model, t_end)
    if name in ("standing-wave", "manufactured:standing-wave"):
        if dim != 1:
            raise InvalidDataError("standing-wave is a 1D scenario")
        u = _standing_wave_field(1, domain)
        return manufactured(u, model, domain, name="standing-wave", t_end=t_end)
    if name == "manufactured:standing-wave-2d":
        if dim != 2:
            raise InvalidDataError("standing-wave-2d is a 2D scenario")
        u = _standing_wave_field(2, domain)
        return manufactured(u, model, domain, name="standing-wave-2d", t_end=t_end)
    if name == "manufactured:constant-strain":
        return _constant_strain_scenario(dim, domain, model, t_end)
    raise InvalidDataError(f"unknown scenario {name!r}")


SCENARIO_NAMES = (
    "gaussian-pluck",
    "near-limit",
    "standing-wave",
    "manufactured:standing-wave",
    "manufactured:standing-wave-2d",
    "manufactured:constant-strain",
)
