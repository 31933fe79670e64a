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

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import constitutive as con
from . import symtensor as st
from .constitutive import InvalidDataError


# points per strain-expression call of safety_margin
SAMPLE_POINTS = 65536


def canon_domain(dim, domain):
    """Domain as a ((lo, hi), ...) tuple with one pair per axis."""
    if np.size(domain) != 2 * dim:
        raise con.FieldError("domain", f"needs {2 * dim} numbers for dim {dim}")
    lo = np.asarray(domain, dtype=float).reshape(dim, 2)
    if np.any(lo[:, 1] <= lo[:, 0]):
        raise con.FieldError("domain", f"each axis needs lo < hi, got {domain!r}")
    return tuple((float(a), float(b)) for a, b in lo)


def _time_axes(t):
    """Leading axes of a field's values at t: () at one time, (k,) for a block
    (np.shape would take a slow path for a float)."""
    return t.shape if isinstance(t, np.ndarray) else ()


class AnalyticField:
    """Smooth space-time field with analytic derivatives.

    Callables take (t, X) with X of shape (n, dim) and return values of
    shape (n, dim), gradients (n, dim, dim) with grad[i, j] = d u_i / d x_j,
    and Hessians (n, dim, dim, dim) with hess[i, j, k] = d_j d_k u_i.
    t is a float, or a block: a 1-D array of k times, for which every
    callable evaluates its factors of X once and returns its values with
    a leading (k,) axis, row j equal bit for bit to the call at t[j].
    Missing derivative callables default to zero.  strain and dt_strain,
    when given, return the packed symmetric parts of grad and dt_grad
    directly; by default they are formed from grad and dt_grad.
    accelerates(X), when given, is False where dtt_value is known to
    vanish at every point of X for all t; by default a field accelerates
    wherever it declares dtt_value.  steady_rates, when given, is an
    (alpha, beta) for which alpha*strain + beta*dt_strain is constant in t.
    """

    def __init__(self, dim, value, grad=None, dt_value=None, dt_grad=None,
                 dtt_value=None, hess=None, dt_hess=None, strain=None,
                 dt_strain=None, accelerates=None, steady_rates=None):
        self.dim = dim
        self.steady_rates = steady_rates
        self._value = value
        self._grad = grad
        self._dt_value = dt_value
        self._dt_grad = dt_grad
        self._dtt_value = dtt_value
        self._hess = hess
        self._dt_hess = dt_hess
        self._strain = strain
        self._dt_strain = dt_strain
        self._accelerates = accelerates

    def _call(self, fn, rank, t, X):
        """fn(t, X) as floats, or zeros of this tensor rank when fn is not given."""
        X = np.asarray(X, dtype=float)
        if fn is None:
            return np.zeros(_time_axes(t) + (X.shape[0],) + (self.dim,) * rank)
        return np.asarray(fn(t, X), dtype=float)

    def value(self, t, X):
        return self._call(self._value, 1, t, X)

    def grad(self, t, X):
        return self._call(self._grad, 2, t, X)

    def dt_value(self, t, X):
        return self._call(self._dt_value, 1, t, X)

    def dt_grad(self, t, X):
        return self._call(self._dt_grad, 2, t, X)

    def dtt_value(self, t, X):
        return self._call(self._dtt_value, 1, t, X)

    def hess(self, t, X):
        return self._call(self._hess, 3, t, X)

    def dt_hess(self, t, X):
        return self._call(self._dt_hess, 3, t, X)

    def accelerates(self, X):
        """Whether dtt_value may be nonzero somewhere in X."""
        if self._accelerates is not None:
            return self._accelerates(np.asarray(X, dtype=float))
        return self._dtt_value is not None

    @property
    def has_second_derivatives(self):
        """Whether every declared gradient has its declared Hessian."""
        return ((self._grad is None or self._hess is not None)
                and (self._dt_grad is None or self._dt_hess is not None))

    def strain(self, t, X):
        """Packed symmetric gradient."""
        if self._strain is not None:
            return self._strain(t, np.asarray(X, dtype=float))
        return st.sym_part(self.grad(t, X))

    def dt_strain(self, t, X):
        if self._dt_strain is not None:
            return self._dt_strain(t, np.asarray(X, dtype=float))
        return st.sym_part(self.dt_grad(t, X))


def zero_field(dim):
    return AnalyticField(dim, lambda t, X: np.zeros(_time_axes(t) + (X.shape[0], dim)))


@dataclass
class Scenario:
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

    The t=0 values and packed strains of u_init and v_init, and whether
    v_init is nonzero anywhere (the lift accelerates only then), are kept
    for the last read-only point set (a space's quadrature points) and
    reused while the same array comes back; any other X is evaluated
    afresh.  A v_init without a declared gradient contributes no strain.
    """
    a = alpha / beta
    kept = [None, None]                    # [X, (eps_u, eps_v, u, v, v nonzero)]

    def mix(t, f_u, f_v):
        return f_u + np.multiply.outer((beta / alpha) * (1.0 - np.exp(-a * t)), f_v)

    def at_start(X):
        if X is not kept[0] or X.flags.writeable:
            v = v_init.value(0.0, X)
            data = (u_init.strain(0.0, X), None if v_init._grad is None else
                    v_init.strain(0.0, X), u_init.value(0.0, X), v, bool(np.any(v)))
            if X.flags.writeable:
                return data
            kept[:] = X, data
        return kept[1]

    def strain(t, X):
        eps_u, eps_v = at_start(X)[:2]
        if eps_v is not None:
            return mix(t, eps_u, eps_v)
        return np.repeat(eps_u[None], len(t), axis=0) if _time_axes(t) else eps_u.copy()

    return AnalyticField(
        u_init.dim,
        value=lambda t, X: mix(t, *at_start(X)[2:4]),
        grad=lambda t, X: mix(t, u_init.grad(0.0, X), v_init.grad(0.0, X)),
        dt_value=lambda t, X: np.multiply.outer(np.exp(-a * t), at_start(X)[3]),
        dt_grad=lambda t, X: np.multiply.outer(np.exp(-a * t), v_init.grad(0.0, X)),
        dtt_value=lambda t, X: np.multiply.outer(-a * np.exp(-a * t), at_start(X)[3]),
        strain=strain,
        dt_strain=lambda t, X: np.zeros(_time_axes(t) + (X.shape[0], st.packed_len(u_init.dim)))
        if at_start(X)[1] is None else np.multiply.outer(np.exp(-a * t), at_start(X)[1]),
        accelerates=lambda X: at_start(X)[4], steady_rates=(alpha, beta),
    )


def lift_timedep_bc(u_ext, v_init, alpha, beta, boundary_points=None):
    """Lift for moving boundary data.

    u_ext extends the boundary motion into the domain; the returned lift
    corrects its initial velocity to v_init without touching the
    boundary values, which requires v_init = dt_u_ext(0) on the boundary
    (checked to 1e-10 at boundary_points when given).
    """
    a = alpha / beta
    dim = u_ext.dim

    if boundary_points is not None and len(boundary_points) > 0:
        Xb = np.asarray(boundary_points, dtype=float)
        gap = v_init.value(0.0, Xb) - u_ext.dt_value(0.0, Xb)
        worst = float(np.max(np.abs(gap)))
        if worst > 1e-10:
            raise InvalidDataError(
                f"initial velocity differs from boundary motion by {worst:.3e} on the boundary"
            )

    def corr(t):
        return (beta / alpha) * (1.0 - np.exp(-a * t))

    def gap(part, X):
        """v_init's part minus u_ext's dt_ part, at t = 0."""
        return getattr(v_init, part)(0.0, X) - getattr(u_ext, "dt_" + part)(0.0, X)

    return AnalyticField(
        dim,
        value=lambda t, X: u_ext.value(t, X) + np.multiply.outer(corr(t), gap("value", X)),
        grad=lambda t, X: u_ext.grad(t, X) + np.multiply.outer(corr(t), gap("grad", X)),
        dt_value=lambda t, X: u_ext.dt_value(t, X)
        + np.multiply.outer(np.exp(-a * t), gap("value", X)),
        dt_grad=lambda t, X: u_ext.dt_grad(t, X)
        + np.multiply.outer(np.exp(-a * t), gap("grad", X)),
        dtt_value=lambda t, X: u_ext.dtt_value(t, X)
        - np.multiply.outer(a * np.exp(-a * t), gap("value", X)),
    )


def strain_expression(lift, alpha, beta, t, X):
    """alpha*eps + beta*dt_eps of an analytic field, packed."""
    return alpha * lift.strain(t, X) + beta * lift.dt_strain(t, X)


def safety_margin(scenario, space):
    """L minus the sampled sup of |alpha*eps(u0) + beta*dt_eps(u0)|.

    Sampled over quadrature points times 64 uniform times on [0, t_end],
    in blocks of at most SAMPLE_POINTS points, or at t=0 alone when the
    lift's steady_rates are the model's (the expression does not depend
    on t); +inf for unbounded-response models.
    """
    L = con.limit_L(scenario.model)
    if not np.isfinite(L):
        return np.inf
    m = scenario.model
    if scenario.lift.steady_rates == (m.alpha, m.beta):
        blocks = [0.0]
    else:
        ts = np.linspace(0.0, scenario.t_end, 64)
        per = max(1, SAMPLE_POINTS // len(space.qp))
        blocks = [ts[i:i + per] for i in range(0, len(ts), per)]
    return L - max(float(np.max(st.norm(strain_expression(
        scenario.lift, m.alpha, m.beta, t, space.qp)))) for t in blocks)


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
    dE = st.sym_part(np.moveaxis(dgrad, -1, -3))                   # (..., n, k, m)
    dT = st.unpack(np.einsum("...ab,...kb->...ka", Ainv, dE), d)   # (..., n, k, i, j)
    return np.einsum("...kik->...i", dT)


def manufactured(u_exact, model, domain, t_end=1.0):
    """Scenario whose exact solution is u_exact, forcing derived from it.

    f = dtt_u - div T with T from the model's own (possibly regularized)
    inverse map; the strain expression must stay finite, and below 0.95 L
    so the unregularized inverse also exists.  u_exact must declare the second
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
    # a huge alpha or beta overflows the strain expression, or its norm
    with np.errstate(over="ignore", invalid="ignore"):
        sup = _sample_sup_strain(u_exact, model, dom, t_end)
    if not np.isfinite(sup):
        raise InvalidDataError(f"exact strain expression is not finite (sampled sup {sup})")
    L = con.limit_L(model)
    if sup >= 0.95 * L:
        raise InvalidDataError(
            f"exact strain expression reaches {sup:.4f}, beyond 0.95*L = {0.95 * L:.4f}"
        )

    def forcing_value(t, X):
        return u_exact.dtt_value(t, X) - stress_divergence(model, u_exact, t, X)

    forcing = AnalyticField(dim, forcing_value)

    u_init = AnalyticField(dim, lambda t, X: u_exact.value(0.0, X),
                           grad=lambda t, X: u_exact.grad(0.0, X))
    v_init = AnalyticField(dim, lambda t, X: u_exact.dt_value(0.0, X),
                           grad=lambda t, X: u_exact.dt_grad(0.0, X))
    lift = lift_static_bc(u_init, v_init, model.alpha, model.beta)
    return Scenario(
        dim=dim, domain=dom,
        model=model, lift=lift, forcing=forcing, exact=u_exact, t_end=t_end,
        rebuild=lambda mdl: manufactured(u_exact, mdl, dom, t_end=t_end),
    )


def _sample_sup_strain(u_exact, model, lo, t_end):
    """Sup of |alpha*eps + beta*dt_eps| over 41 points per axis of the box
    lo and 33 times in [0, t_end]; not finite when any sample is not."""
    E = strain_expression(u_exact, model.alpha, model.beta, np.linspace(0.0, t_end, 33),
                          _box_points(lo, 41))
    return float(np.max(st.norm(E)))


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


def _product_field(dim, profile, amplitude, time=None):
    """Field whose first component is amplitude * c(t) * prod_j f_j(x_j),
    the other components zero, with grad and hess by the product rule.

    profile[j] lists the derivatives f_j, f_j', f_j'' of axis j, each as
    a pair (factor, g) meaning factor * g(x_j), with g None for the
    constant 1; a g shared between orders is evaluated once per call.
    hess is declared only when every axis has f_j''.  time is the triple
    (c, c', c'') of callables of t; None makes the field static (c = 1,
    no time derivatives declared).
    """
    axes = range(dim)

    def build(rank, coef):
        # every entry u_0,j,k,... is one product over the axes, of the
        # derivative order it takes along each; its constant factors are
        # folded here, and entries with a zero factor stay zero
        evals, terms = [], []
        for idx in itertools.product(axes, repeat=rank - 1):
            parts = [profile[i][idx.count(i)] for i in axes]
            factor = float(np.prod([fac for fac, _ in parts]))
            if factor == 0.0:
                continue
            keys = []
            for i, (_, g) in zip(axes, parts):
                if g is not None:
                    if (i, g) not in evals:
                        evals.append((i, g))
                    keys.append(evals.index((i, g)))
            terms.append(((Ellipsis, 0) + idx, factor, keys))
        shape = (dim,) * rank

        def call(t, X):
            scale = amplitude if coef is None else amplitude * coef(t)
            if isinstance(scale, np.ndarray):
                scale = scale[:, None]              # a row per time of a block
            vals = [g(X[:, i]) for i, g in evals]
            out = np.zeros(_time_axes(t) + (X.shape[0],) + shape)
            for slot, factor, keys in terms:
                prod = scale * factor
                for k in keys:
                    prod = prod * vals[k]
                out[slot] = prod
            return out

        return call

    second = all(len(p) > 2 for p in profile)
    if time is None:
        return AnalyticField(dim, build(1, None), grad=build(2, None),
                             hess=build(3, None) if second else None)
    c, dc, ddc = time
    return AnalyticField(dim, build(1, c), grad=build(2, c), dt_value=build(1, dc),
                         dt_grad=build(2, dc), dtt_value=build(1, ddc),
                         hess=build(3, c) if second else None,
                         dt_hess=build(3, dc) if second else None)


def _box_points(lo, n):
    """(n**dim, dim) tensor grid with n points per axis of the box lo."""
    grids = np.meshgrid(*[np.linspace(a, b, n) for a, b in lo], indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def _bump_profile(c, w):
    return ((1.0, lambda x: _bump((x - c) / w)),
            (1.0 / w, lambda x: _bump_prime((x - c) / w)))


def _pluck_field(dim, domain, amplitude):
    """Displacement bump in the first component, unit amplitude scaled."""
    lo = np.asarray(domain, dtype=float).reshape(dim, 2)
    ctr = lo.mean(axis=1)
    wid = 0.4 * (lo[:, 1] - lo[:, 0])
    return _product_field(dim, [_bump_profile(c, w) for c, w in zip(ctr, wid)],
                          amplitude)


def _pluck_scenario(margin, dim, domain, model, t_end):
    """Initial bump scaled so the initial strain expression sits at
    margin below the response limit (or below 1 for unbounded models);
    v0 = 0, f = 0, static lift."""
    L = con.limit_L(model)
    target = (L if np.isfinite(L) else 1.0) - margin
    if target <= 0.0:
        raise InvalidDataError(f"margin {margin} leaves no admissible amplitude")
    dom = canon_domain(dim, domain)
    X = _box_points(dom, 801 if dim == 1 else 161)
    # a huge domain flattens the unit bump below what a double resolves; a
    # tiny one steepens it until its strain, or the square in its norm,
    # overflows
    with np.errstate(over="ignore", invalid="ignore"):
        sup = float(np.max(st.norm(_pluck_field(dim, dom, 1.0).strain(0.0, X))))
    scale = model.alpha * sup
    amp = target / scale if scale > 0.0 else np.inf
    if not 0.0 < amp < np.inf:
        raise InvalidDataError(
            f"domain {dom!r} leaves the pluck no resolvable strain "
            f"(sup |eps| of the unit bump {sup:.3g}, alpha {model.alpha:.3g})")
    u_init = _pluck_field(dim, dom, amp)
    lift = lift_static_bc(u_init, zero_field(dim), model.alpha, model.beta)
    return Scenario(
        dim=dim, domain=dom,
        model=model, lift=lift, forcing=None, exact=None, t_end=t_end,
        rebuild=lambda mdl: _pluck_scenario(margin, dim, dom, mdl, t_end),
    )


def _sine_profile(k, a):
    def sin(x):
        return np.sin(k * (x - a))

    return ((1.0, sin), (k, lambda x: np.cos(k * (x - a))), (-k * k, sin))


def _standing_wave_field(dim, domain, amplitude=0.05, omega=np.pi):
    """amplitude cos(omega t) prod_j sin(pi (x_j - a_j) / (b_j - a_j)) in the
    first component: one half-wave per axis, zero on the boundary."""
    lo = np.asarray(domain, dtype=float).reshape(dim, 2)
    time = (lambda t: np.cos(omega * t), lambda t: -omega * np.sin(omega * t),
            lambda t: -omega * omega * np.cos(omega * t))
    return _product_field(dim, [_sine_profile(np.pi / (b - a), a) for a, b in lo],
                          amplitude, time)


def _constant_strain_field(dim, domain):
    a = np.asarray(domain, dtype=float).reshape(dim, 2)[0, 0]
    flat = ((1.0, None), (0.0, None))
    return _product_field(dim, [((1.0, lambda x: x - a), (1.0, None))] + [flat] * (dim - 1),
                          0.3)


def _constant_strain_scenario(dim, domain, model, t_end):
    """Linear displacement, constant strain, zero forcing; the exact
    solution is the (static) lift itself."""
    dom = canon_domain(dim, domain)
    u_init = _constant_strain_field(dim, dom)
    lift = lift_static_bc(u_init, zero_field(dim), model.alpha, model.beta)
    return Scenario(
        dim=dim, domain=dom,
        model=model, lift=lift, forcing=None, exact=lift, t_end=t_end,
        rebuild=lambda mdl: _constant_strain_scenario(dim, dom, mdl, t_end),
    )


def build_scenario(name, dim, domain, model, t_end):
    """Resolve a scenario name (including manufactured:<name>) to a Scenario."""
    if name == "gaussian-pluck":
        return _pluck_scenario(0.3, dim, domain, model, t_end)
    if name == "near-limit":
        return _pluck_scenario(0.02, dim, domain, model, t_end)
    if name in ("standing-wave", "manufactured:standing-wave"):
        if dim != 1:
            raise InvalidDataError("standing-wave is a 1D scenario")
        u = _standing_wave_field(1, domain)
        return manufactured(u, model, domain, t_end=t_end)
    if name == "manufactured:standing-wave-2d":
        if dim != 2:
            raise InvalidDataError("standing-wave-2d is a 2D scenario")
        u = _standing_wave_field(2, domain)
        return manufactured(u, model, domain, t_end=t_end)
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
