"""Radial constitutive maps, their regularizations, inverses, and energies.

The material law relates the stress tensor T to the strain expression
E = alpha*eps + beta*dt_eps through E = G(T), where G is radial:

    G(T) = dphi(|T|) * T / |T|

for a convex scalar potential phi with phi(0) = dphi(0) = 0.  The
supremum L of dphi bounds |G| and hence the admissible strain
expression; bounded-response potentials (L finite) are the interesting
case, since the inverse map blows up as |E| -> L.

A Tikhonov term (T/n, or |T|^{p-2} T / n) makes the map strictly
monotone and surjective, so the regularized inverse exists for every E.
Inversion reduces to a scalar root find in the radius because G keeps
T and E collinear.

Everything here is vectorized: tensors are packed arrays with the
components on the last axis (see symtensor), and any number of leading
batch axes is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import hyp2f1

from . import symtensor as st

REG_LINEAR = "linear"
REG_POWER = "power"

INF = np.inf


class SupercriticalStrainError(ValueError):
    """Unregularized inversion requested at or beyond the response limit L."""


class NewtonConvergenceError(RuntimeError):
    """Scalar or tensor Newton failed to converge within max_iter."""


# ---------------------------------------------------------------------------
# scalar potentials


class ScalarPotential:
    """Convex radial potential phi on [0, inf).

    Subclasses provide phi, dphi, d2phi, the closed-form inverse of dphi
    where available, the response limit L = sup dphi, and the growth
    exponent p of the associated map (|G(T)| ~ |T|^{p-1}).
    """

    limit = INF
    growth_exponent = 2.0

    def phi(self, s):
        raise NotImplementedError

    def dphi(self, s):
        raise NotImplementedError

    def d2phi(self, s):
        raise NotImplementedError

    def dphi_inv(self, e):
        """Inverse of dphi on [0, limit); caller guarantees e < limit."""
        raise NotImplementedError


class PrototypePotential(ScalarPotential):
    """Bounded-response potential with dphi(s) = s*(1+s^q)^(-1/q), limit 1.

    q >= 1 controls how fast the response saturates.  phi has closed
    forms for q = 1, 2; other q use a hypergeometric identity for the
    integral of dphi (checked against quadrature in the tests).
    """

    limit = 1.0
    growth_exponent = 1.0

    def __init__(self, q):
        q = float(q)
        if q < 1.0:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        q = self.q
        if q == 1.0:
            return s - np.log1p(s)
        if q == 2.0:
            return np.sqrt(1.0 + s * s) - 1.0
        return 0.5 * s * s * hyp2f1(1.0 / q, 2.0 / q, (2.0 + q) / q, -(s**q))

    def dphi(self, s):
        s = np.asarray(s, dtype=float)
        return s * (1.0 + s**self.q) ** (-1.0 / self.q)

    def d2phi(self, s):
        s = np.asarray(s, dtype=float)
        return (1.0 + s**self.q) ** (-(self.q + 1.0) / self.q)

    def dphi_inv(self, e):
        e = np.asarray(e, dtype=float)
        return e * (1.0 - e**self.q) ** (-1.0 / self.q)


class PowerLawPotential(ScalarPotential):
    """phi(s) = s^p / p with p > 1; unbounded response."""

    limit = INF

    def __init__(self, p):
        p = float(p)
        if p <= 1.0:
            raise ValueError(f"p must be > 1, got {p}")
        self.p = p
        self.growth_exponent = p

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        return s**self.p / self.p

    def dphi(self, s):
        s = np.asarray(s, dtype=float)
        return s ** (self.p - 1.0)

    def d2phi(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return (self.p - 1.0) * s ** (self.p - 2.0)

    def dphi_inv(self, e):
        e = np.asarray(e, dtype=float)
        return e ** (1.0 / (self.p - 1.0))


class LinearPotential(PowerLawPotential):
    """phi(s) = s^2/2; the map G is the identity."""

    def __init__(self):
        super().__init__(2.0)


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class ConstitutiveModel:
    """A radial potential plus system coefficients and optional regularizer.

    alpha, beta are the coefficients of the strain expression
    alpha*eps + beta*dt_eps; reg_n = n adds the Tikhonov term with
    strength 1/n (reg_kind selects T/n or |T|^{p-2}T/n).
    """

    potential: ScalarPotential
    alpha: float = 1.0
    beta: float = 1.0
    reg_n: int | None = None
    reg_kind: str = REG_LINEAR

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.reg_n is not None:
            if int(self.reg_n) != self.reg_n or self.reg_n < 1:
                raise ValueError(f"reg_n must be an integer >= 1, got {self.reg_n}")
        if self.reg_kind not in (REG_LINEAR, REG_POWER):
            raise ValueError(f"unknown reg_kind {self.reg_kind!r}")
        if self.reg_kind == REG_POWER and self.potential.growth_exponent < 2.0:
            # |T|^{p-2}T is not differentiable at 0 for p < 2
            raise ValueError("power regularizer requires growth exponent p >= 2")

    def with_reg(self, reg_n):
        return replace(self, reg_n=reg_n)


def limit_L(potential):
    """Response limit L = sup dphi (+inf for unbounded potentials)."""
    if isinstance(potential, ConstitutiveModel):
        potential = potential.potential
    return potential.limit


def _inv_n(model):
    return 0.0 if model.reg_n is None else 1.0 / model.reg_n


def _reg_p(model):
    return model.potential.growth_exponent if model.reg_kind == REG_POWER else 2.0


def response_scalar(model, r):
    """Effective scalar response h(r) = dphi(r) + regularizer, r >= 0."""
    r = np.asarray(r, dtype=float)
    h = model.potential.dphi(r)
    inv = _inv_n(model)
    if inv:
        p = _reg_p(model)
        h = h + inv * r if p == 2.0 else h + inv * r ** (p - 1.0)
    return h


def response_scalar_deriv(model, r):
    """h'(r); strictly positive for r > 0 on every admissible model."""
    r = np.asarray(r, dtype=float)
    d = model.potential.d2phi(r)
    inv = _inv_n(model)
    if inv:
        p = _reg_p(model)
        d = d + inv if p == 2.0 else d + inv * (p - 1.0) * r ** (p - 2.0)
    return d


def g_apply(model, T):
    """Regularized constitutive map G_n(T), packed in and out."""
    T = np.asarray(T, dtype=float)
    if not np.all(np.isfinite(T)):
        raise ValueError("non-finite stress input")
    r = st.norm(T)
    out = np.zeros_like(T)
    nz = r > 0.0
    if np.any(nz):
        factor = response_scalar(model, r[nz]) / r[nz]
        out[nz] = factor[..., None] * T[nz]
    return out


def jacobian_eigenvalues(model, T):
    """(tangential, radial) eigenvalues of g_jacobian, closed form.

    The radial structure gives h(r)/r on the plane orthogonal to T
    (multiplicity m-1) and h'(r) along T; at T=0 both collapse to h'(0).
    """
    r = st.norm(np.asarray(T, dtype=float))
    scalar_in = r.ndim == 0
    r = np.atleast_1d(r)
    h0 = float(response_scalar_deriv(model, 0.0))
    tang = np.full(r.shape, h0)
    radial = np.full(r.shape, h0)
    nz = r > 0.0
    if np.any(nz):
        tang[nz] = response_scalar(model, r[nz]) / r[nz]
        radial[nz] = response_scalar_deriv(model, r[nz])
    if scalar_in:
        return float(tang[0]), float(radial[0])
    return tang, radial


def g_jacobian(model, T):
    """Derivative of g_apply as a symmetric matrix on packed components."""
    T = np.asarray(T, dtype=float)
    m = T.shape[-1]
    r = st.norm(T)
    tang, radial = jacobian_eigenvalues(model, T)
    tang = np.asarray(tang)
    radial = np.asarray(radial)
    J = tang[..., None, None] * np.eye(m)
    unit = np.zeros_like(T)
    nz = np.asarray(r) > 0.0
    if T.ndim == 1:
        if nz:
            unit = T / r
    else:
        unit[nz] = T[nz] / np.asarray(r)[nz][..., None]
    J = J + (radial - tang)[..., None, None] * st.outer(unit, unit)
    return J


def tangent_inverse_blocks(model, T):
    """Per-point inverse of the constitutive tangent, as dense m-by-m blocks.

    The tangent has the tangential eigenvalue on the orthogonal
    complement of T and the radial one along T; its inverse follows by
    inverting the eigenvalues.  Serves both the midpoint Newton Jacobian
    and the chain rule dT = DG_n(T)^{-1} dE of manufactured forcing.
    Eigenvalues are floored at a tiny value: in the Jacobian this only
    regularizes the Newton direction, never the solution.
    """
    T = np.atleast_2d(T)
    nq, mcomp = T.shape
    tang, radial = jacobian_eigenvalues(model, T)
    tang = np.maximum(np.atleast_1d(tang), 1e-12)
    radial = np.maximum(np.atleast_1d(radial), 1e-12)
    blocks = np.zeros((nq, mcomp, mcomp))
    ii = np.arange(mcomp)
    blocks[:, ii, ii] = (1.0 / tang)[:, None]
    nrm = st.norm(T)
    mask = nrm > 0.0
    if np.any(mask):
        that = T[mask] / nrm[mask, None]
        coef = 1.0 / radial[mask] - 1.0 / tang[mask]
        blocks[mask] += coef[:, None, None] * that[:, :, None] * that[:, None, :]
    return blocks


def jacobian_norm_bound_check(model, T, const=3.0):
    """Check |g_jacobian(T)|_op <= const * (1/n + 1/(1+|T|)).

    Meaningful for bounded-response potentials with a regularizer, where
    the tangent degenerates like 1/(1+|T|) for large stress.
    """
    if model.reg_n is None:
        raise ValueError("bound check expects a regularized model")
    T = np.asarray(T, dtype=float)
    tang, radial = jacobian_eigenvalues(model, T)
    opnorm = np.maximum(tang, radial)
    bound = const * (_inv_n(model) + 1.0 / (1.0 + st.norm(T)))
    return bool(np.all(opnorm <= bound))


# ---------------------------------------------------------------------------
# inversion


def invert_radius(model, s, warm=None, tol=1e-12, max_iter=100):
    """Solve h(r) = s for r >= 0, vectorized over s.

    Without a regularizer the closed-form inverse of dphi is used and s
    must stay strictly below the limit L.  With a regularizer the root
    is found by safeguarded Newton on the bracket [0, hi], where hi
    comes from the regularizer term alone; bisection takes over whenever
    a Newton step leaves the bracket.  Convergence criterion:
    |h(r) - s| <= tol * (1 + s).
    """
    s = np.asarray(s, dtype=float)
    scalar_in = s.ndim == 0
    s = np.atleast_1d(s)
    if np.any(s < 0.0) or not np.all(np.isfinite(s)):
        raise ValueError("strain magnitude must be finite and >= 0")

    pot = model.potential
    if model.reg_n is None:
        L = pot.limit
        if np.isfinite(L) and np.any(s >= L * (1.0 - 1e-12)):
            worst = float(np.max(s))
            raise SupercriticalStrainError(
                f"no regularizer and strain magnitude {worst:.6g} at or beyond limit {L:.6g}"
            )
        r = pot.dphi_inv(s)
        return float(r[0]) if scalar_in else r

    inv = _inv_n(model)
    p = _reg_p(model)
    hi = s / inv if p == 2.0 else (s / inv) ** (1.0 / (p - 1.0))
    lo = np.zeros_like(s)
    d0 = float(response_scalar_deriv(model, 0.0))
    if warm is not None:
        x = np.clip(np.asarray(warm, dtype=float), lo, hi)
    elif np.isfinite(d0) and d0 > 0.0:
        x = np.minimum(hi, s / d0)
    else:
        x = 0.5 * hi
    x = np.where(s == 0.0, 0.0, x)

    target = tol * (1.0 + s)
    done = s == 0.0
    for _ in range(max_iter):
        f = response_scalar(model, x) - s
        done = done | (np.abs(f) <= target)
        if np.all(done):
            break
        act = ~done
        pos = act & (f > 0.0)
        neg = act & (f < 0.0)
        hi = np.where(pos, x, hi)
        lo = np.where(neg, x, lo)
        d = response_scalar_deriv(model, np.where(act, x, 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(act & (d > 0.0) & np.isfinite(d), f / d, 0.0)
        xn = x - step
        bad = act & ~((xn > lo) & (xn < hi) & np.isfinite(xn))
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        x = np.where(act, xn, x)
    else:
        worst = float(np.max(np.abs(response_scalar(model, x) - s)))
        raise NewtonConvergenceError(
            f"radial inversion stalled after {max_iter} iterations, residual {worst:.3e}"
        )
    # two polish steps drive the scalar residual to its roundoff floor,
    # so the recovered radius is accurate even when h' is O(1/n)
    for _ in range(2):
        f = response_scalar(model, x) - s
        d = response_scalar_deriv(model, np.where(x > 0.0, x, 1.0))
        d = np.where((x > 0.0) & np.isfinite(d) & (d > 0.0), d, 1.0)
        step = f / d
        x = np.maximum(0.0, x - np.where(np.isfinite(step), step, 0.0))
    return float(x[0]) if scalar_in else x


def invert(model, E, warm_stress=None, tol=1e-12, max_iter=100, method="radial"):
    """Invert the (regularized) map: return T with g_apply(T) ~= E.

    method="radial" (default) reduces to the scalar solve along E;
    method="tensor" runs a damped Newton iteration on the full packed
    system with g_jacobian, kept as an independent route for
    cross-checks.
    """
    E = np.asarray(E, dtype=float)
    # a finite E whose |E|^2 overflows is rejected like a non-finite one
    with np.errstate(over="ignore"):
        s = st.norm(E)
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite strain input")
    L = model.potential.limit
    if model.reg_n is None and np.isfinite(L):
        smax = float(np.max(s))
        if smax >= L * (1.0 - 1e-12):
            raise SupercriticalStrainError(
                f"no regularizer and strain magnitude {smax:.6g} at or beyond limit {L:.6g}"
            )
    if method == "tensor":
        return _invert_tensor(model, E, tol=tol, max_iter=max_iter)

    warm = st.norm(warm_stress) if warm_stress is not None else None
    r = invert_radius(model, s, warm=warm, tol=tol, max_iter=max_iter)
    out = np.zeros_like(E)
    nz = np.atleast_1d(s) > 0.0
    nz = nz.reshape(s.shape) if s.ndim else nz
    if E.ndim == 1:
        if s > 0.0:
            out = (r / s) * E
        return out
    out[nz] = (np.atleast_1d(r)[nz] / s[nz])[..., None] * E[nz]
    return out


def _invert_tensor(model, E, tol, max_iter):
    # start at E, not 0: some regularized maps have a singular Jacobian
    # at the origin (power regularizer with p > 2)
    T = E.copy()
    target = tol * (1.0 + st.norm(E))
    for _ in range(max_iter):
        R = g_apply(model, T) - E
        rn = st.norm(R)
        if np.all(rn <= target):
            return T
        J = g_jacobian(model, T)
        step = np.linalg.solve(J, R[..., None])[..., 0]
        # backtracking line search on the residual norm, per point
        lam = np.ones(rn.shape)
        for _ in range(40):
            Tn = T - lam[..., None] * step
            rn_new = st.norm(g_apply(model, Tn) - E)
            worse = rn_new > (1.0 - 0.25 * lam) * rn
            if not np.any(worse & (rn > target)):
                break
            lam = np.where(worse, 0.5 * lam, lam)
        T = T - lam[..., None] * step
    R = st.norm(g_apply(model, T) - E)
    if np.all(R <= target):
        return T
    raise NewtonConvergenceError(
        f"tensor inversion stalled after {max_iter} iterations, residual {float(np.max(R)):.3e}"
    )


# ---------------------------------------------------------------------------
# conjugate energies


def phi_star(potential, e):
    """Convex conjugate of the scalar potential: sup_r (e*r - phi(r)).

    Finite exactly below the limit: for e >= L the conjugate is +inf,
    which is returned as an explicit inf sentinel.
    """
    if isinstance(potential, ConstitutiveModel):
        potential = potential.potential
    e = np.asarray(e, dtype=float)
    scalar_in = e.ndim == 0
    e = np.atleast_1d(e)
    if np.any(e < 0.0):
        raise ValueError("conjugate argument must be >= 0")
    out = np.full(e.shape, INF)
    sub = e < potential.limit
    if np.any(sub):
        r = potential.dphi_inv(e[sub])
        out[sub] = e[sub] * r - potential.phi(r)
    return float(out[0]) if scalar_in else out


def phi_star_root(potential, e, tol=1e-12):
    """Conjugate via direct scalar root find (independent route for tests)."""
    from scipy.optimize import brentq

    if isinstance(potential, ConstitutiveModel):
        potential = potential.potential
    if e >= potential.limit:
        return INF
    if e == 0.0:
        return 0.0
    hi = 1.0
    while potential.dphi(hi) < e:
        hi *= 2.0
        if hi > 1e300:
            return INF
    r = brentq(lambda t: potential.dphi(t) - e, 0.0, hi, xtol=tol, rtol=4 * np.finfo(float).eps)
    return e * r - float(potential.phi(r))


def effective_conjugate(model, e, tol=1e-12):
    """Conjugate of the model's effective scalar potential (with regularizer).

    psi(r) = phi(r) + reg integral; psi*(e) = e*r - psi(r) at h(r) = e.
    Without a regularizer this is phi_star (inf sentinel included).
    """
    e = np.asarray(e, dtype=float)
    if model.reg_n is None:
        return phi_star(model.potential, e)
    scalar_in = e.ndim == 0
    e = np.atleast_1d(e)
    r = invert_radius(model, e, tol=tol)
    r = np.atleast_1d(r)
    inv = _inv_n(model)
    p = _reg_p(model)
    reg_int = inv * r * r / 2.0 if p == 2.0 else inv * r**p / p
    out = e * r - (model.potential.phi(r) + reg_int)
    return float(out[0]) if scalar_in else out


def fenchel_residual(model, T):
    """|psi(|T|) + psi*(|G(T)|) - G(T):T| for the model's effective map.

    Zero in exact arithmetic whenever G is the gradient of the radial
    potential; the residual measures the consistency of phi, its
    conjugate, and g_apply.
    """
    T = np.asarray(T, dtype=float)
    r = st.norm(T)
    G = g_apply(model, T)
    e = st.norm(G)
    inv = _inv_n(model)
    p = _reg_p(model)
    psi = model.potential.phi(r)
    if inv:
        psi = psi + (inv * r * r / 2.0 if p == 2.0 else inv * r**p / p)
    conj = effective_conjugate(model, e)
    return np.abs(psi + conj - st.dot(G, T))


def dissipation_pair(model, T, T0):
    """(T - T0) : (G(T) - G(T0)); nonnegative by monotonicity."""
    T = np.asarray(T, dtype=float)
    T0 = np.asarray(T0, dtype=float)
    return st.dot(T - T0, g_apply(model, T) - g_apply(model, T0))
