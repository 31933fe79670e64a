"""Radial constitutive maps, their regularizations, inverses, and energies.

The material law relates the stress tensor T to the strain expression
E = alpha*eps + beta*dt_eps through E = G(T), where G is radial:

    G(T) = dphi(|T|) * T / |T|

for a convex scalar potential phi with phi(0) = dphi(0) = 0.  The
supremum L of dphi bounds |G| and hence the admissible strain
expression; bounded-response potentials (L finite) are the interesting
case, since the inverse map blows up as |E| -> L.

A Tikhonov term T/n makes the map strictly monotone and surjective, so
the regularized inverse exists for every E.
Inversion reduces to a scalar root find in the radius because G keeps
T and E collinear.

Everything here takes arrays with a point axis: tensors are packed with
their components on the last axis (see symtensor), radii and magnitudes
have the point shape, and one point is an array of one row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import hyp2f1

from . import symtensor as st

INF = np.inf
_BELOW_ONE = np.nextafter(1.0, 0.0)

# radial Newton: |h(r) - s| <= INVERT_TOL * (1 + s) within INVERT_MAX_ITER passes
INVERT_TOL = 1e-12
INVERT_MAX_ITER = 100


class InvalidDataError(ValueError):
    """Problem data violate a compatibility or admissibility requirement."""


class FieldError(InvalidDataError):
    """A value its owner rejects: ``field`` names it, ``rule`` says what it must be."""

    def __init__(self, field, rule):
        super().__init__(f"{field}: {rule}")
        self.field = field
        self.rule = rule


class SupercriticalStrainError(ValueError):
    """Unregularized inversion requested at or beyond the response limit L."""


class NewtonConvergenceError(RuntimeError):
    """The radial Newton solve failed to converge within INVERT_MAX_ITER passes."""


# ---------------------------------------------------------------------------
# scalar potentials


class ScalarPotential:
    """Convex radial potential phi on [0, inf).

    Subclasses provide phi, dphi_pair = (dphi, d2phi), the closed-form
    inverse of dphi, and the response limit L = sup dphi.
    """

    limit = INF

    def phi(self, s):
        raise NotImplementedError

    def dphi_pair(self, s):
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

    def __init__(self, q):
        q = float(q)
        if q < 1.0:
            raise FieldError("q", f"must be >= 1, got {q}")
        self.q = q

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        q = self.q
        if q == 1.0:
            return s - np.log1p(s)
        if q == 2.0:
            return np.sqrt(1.0 + s * s) - 1.0
        return 0.5 * s * s * hyp2f1(1.0 / q, 2.0 / q, (2.0 + q) / q, -(s**q))

    def dphi_pair(self, s):
        """dphi and d2phi from one shared w = 1 + s**q, d2phi = (dphi/s) / w.

        Past s = 1 the shared power is w = 1 + s**-q, where s**q would
        overflow: then dphi = w**(-1/q) and d2phi = s**-(q+1) * w**(-(q+1)/q).
        A batch with no point past 1 skips that branch; a point up to 1 gets
        the same bits either way.  Work arrays are reused in place: fresh
        temporaries dominate the cost on large batches.
        """
        s = np.asarray(s, dtype=float)
        q = self.q
        big = s > 1.0
        if not big.any():
            w = s**q
            w += 1.0
            factor = w ** (-1.0 / q)
            return s * factor, np.divide(factor, w, out=w)
        with np.errstate(over="ignore"):
            pw = s**q
        np.power(s, -q, out=pw, where=big)
        w = pw + 1.0
        factor = w ** (-1.0 / q)
        d2 = np.divide(factor, w, out=w)
        np.divide(pw, s, out=pw, where=big)                 # s**-(q+1) past 1
        pw *= d2
        np.copyto(d2, pw, where=big)
        dphi = np.minimum(s, 1.0)
        dphi *= factor
        # held just below the limit where factor rounds to 1
        np.minimum(dphi, _BELOW_ONE, out=dphi)
        return dphi, d2

    def dphi_inv(self, e):
        e = np.asarray(e, dtype=float)
        return e * (1.0 - e**self.q) ** (-1.0 / self.q)


class PowerLawPotential(ScalarPotential):
    """phi(s) = s^p / p with p > 1; unbounded response."""

    limit = INF

    def __init__(self, p):
        p = float(p)
        if p <= 1.0:
            raise FieldError("p", f"must be > 1, got {p}")
        self.p = p

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        return s**self.p / self.p

    def dphi_pair(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return s ** (self.p - 1.0), (self.p - 1.0) * s ** (self.p - 2.0)

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
    alpha*eps + beta*dt_eps; reg_n = n adds the Tikhonov term T/n.
    """

    potential: ScalarPotential
    alpha: float = 1.0
    beta: float = 1.0
    reg_n: int | None = None

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise FieldError("alpha", f"must be > 0, got {self.alpha}")
        if not self.beta > 0.0:
            raise FieldError("beta", f"must be > 0, got {self.beta}")
        if self.reg_n is not None:
            if int(self.reg_n) != self.reg_n or self.reg_n < 1:
                raise FieldError("reg_n", f"must be an integer >= 1 or none, got {self.reg_n}")

    def with_reg(self, reg_n):
        return replace(self, reg_n=reg_n)


def limit_L(model):
    """Response limit L = sup dphi (+inf for unbounded potentials)."""
    return model.potential.limit


def _inv_n(model, inv_n=None):
    """Regularizer strength 1/n: inv_n when given (a scalar or a per-point
    array), else the model's own (0 without a regularizer)."""
    if inv_n is not None:
        return inv_n
    return 0.0 if model.reg_n is None else 1.0 / model.reg_n


def response_pair(model, r, inv_n=None):
    """(h(r), h'(r)) of the effective response h = dphi + r/n at radii r >= 0.

    G_n, its tangent's eigenvalues h(r)/r and h'(r), the inverse and the
    conjugate all follow from this pair; h' > 0 for r > 0.  inv_n replaces
    the regularized model's 1/n and must not broadcast r to a larger shape."""
    h, d = model.potential.dphi_pair(r)
    if model.reg_n is not None:
        inv = _inv_n(model, inv_n)
        h += inv * r
        d += inv
    return h, d


def _radius(T):
    """|T| per point.  A finite row whose squared norm overflows is
    scaled by its largest entry first, as LAPACK's dnrm2 does; every
    other row keeps st.norm's bits."""
    with np.errstate(over="ignore"):
        r = st.norm(T)
    big = np.isinf(r)
    if big.any():
        w = np.max(np.abs(T), axis=-1)
        big &= np.isfinite(w)
        r[big] = w[big] * st.norm(T[big] / w[big][:, None])
    return r


def g_apply(model, T):
    """Regularized constitutive map G_n(T), packed in and out."""
    T = np.asarray(T, dtype=float)
    if not np.all(np.isfinite(T)):
        raise ValueError("non-finite stress input")
    r = _radius(T)
    out = np.zeros_like(T)
    nz = r > 0.0
    if np.any(nz):
        factor = response_pair(model, r[nz])[0] / r[nz]
        out[nz] = factor[..., None] * T[nz]
    return out


def jacobian_eigenvalues(model, T):
    """(tangential, radial) eigenvalues of g_jacobian, closed form.

    The radial structure gives h(r)/r on the plane orthogonal to T
    (multiplicity m-1) and h'(r) along T; at T=0 both collapse to h'(0).
    """
    r = _radius(np.asarray(T, dtype=float))
    h, radial = response_pair(model, r)
    tang = np.divide(h, r, out=radial.copy(), where=r > 0.0)
    return tang, radial


def g_jacobian(model, T):
    """Derivative of g_apply as a symmetric matrix on packed components;
    h'(0) times the identity at T = 0, also where h'(0) is inf."""
    T = np.asarray(T, dtype=float)
    r = _radius(T)
    tang, radial = jacobian_eigenvalues(model, T)
    J = np.where(np.eye(T.shape[-1], dtype=bool), tang[..., None, None], 0.0)
    unit = np.divide(T, r[..., None], out=np.zeros_like(T), where=r[..., None] > 0.0)
    gap = np.subtract(radial, tang, out=np.zeros_like(r), where=r > 0.0)
    return J + gap[..., None, None] * st.outer(unit, unit)


def tangent_inverse_blocks(model, T):
    """Per-point inverse of the constitutive tangent, as dense m-by-m blocks.

    The tangent has the tangential eigenvalue on the orthogonal
    complement of T and the radial one along T; its inverse follows by
    inverting the eigenvalues.  Serves both the midpoint Newton Jacobian
    and the chain rule dT = DG_n(T)^{-1} dE of manufactured forcing.
    Eigenvalues are floored at a tiny value: in the Jacobian this only
    regularizes the Newton direction, never the solution.
    """
    tang, radial = jacobian_eigenvalues(model, T)
    tang = np.maximum(tang, 1e-12)
    radial = np.maximum(radial, 1e-12)
    blocks = np.where(np.eye(T.shape[-1], dtype=bool), (1.0 / tang)[..., None, None], 0.0)
    nrm = _radius(T)
    that = np.divide(T, nrm[..., None], out=np.zeros_like(T), where=nrm[..., None] > 0.0)
    coef = 1.0 / radial - 1.0 / tang
    blocks += coef[..., None, None] * that[..., :, None] * that[..., None, :]
    return blocks


def jacobian_norm_bound_check(model, T):
    """Check |g_jacobian(T)|_op <= 3 * (1/n + 1/(1+|T|)).

    Meaningful for bounded-response potentials with a regularizer, where
    the tangent degenerates like 1/(1+|T|) for large stress.
    """
    if model.reg_n is None:
        raise ValueError("bound check expects a regularized model")
    tang, radial = jacobian_eigenvalues(model, T)
    opnorm = np.maximum(tang, radial)
    bound = 3.0 * (_inv_n(model) + 1.0 / (1.0 + st.norm(T)))
    return bool(np.all(opnorm <= bound))


# ---------------------------------------------------------------------------
# inversion


def invert_radius(model, s, warm=None, inv_n=None, slope=None, return_slope=False):
    """Solve h(r) = s for r >= 0, vectorized over s.

    Without a regularizer the closed-form inverse of dphi is used and s
    must stay strictly below the limit L.  With a regularizer the root
    is found by safeguarded Newton on the bracket [0, hi], where hi
    comes from the regularizer term, and for an unbounded potential
    also from dphi alone; bisection takes over whenever
    a Newton step leaves the bracket.  Convergence criterion:
    |h(r) - s| <= INVERT_TOL * (1 + s).  Each point is frozen once it meets it,
    so its radius depends only on the points of its own row (the last axis
    of s), which share the decision on a second polish step.

    inv_n, when given, replaces the regularized model's 1/n and
    broadcasts against s, so one call can hold points of models that
    differ only in reg_n.

    slope is the (s, h') pair, stacked, that the inversion which gave warm
    returned: its target and h' per point.  The first Newton step then
    comes from it, r_w + (s - s_w) / h'_w, with the bracket side given by
    the sign of s_w - s, in place of an evaluation of h at warm.  With
    return_slope the return is (r, slope) for the next inversion; the
    slope is None without a regularizer.
    """
    s = np.asarray(s, dtype=float)
    if (s < 0.0).any() or not np.isfinite(s).all():
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
        return (r, None) if return_slope else r

    inv = _inv_n(model, inv_n)
    hi = s / inv
    if not np.isfinite(pot.limit):
        # h(r) >= dphi(r), so dphi_inv(s) bounds the root as well; on its
        # own the regularizer's bound lets an unbounded dphi overflow
        with np.errstate(over="ignore"):
            hi = np.minimum(hi, pot.dphi_inv(s))
    lo = np.zeros_like(s)
    if warm is not None:
        x = np.minimum(np.maximum(warm, 0.0), hi)          # clipped to [0, hi]
    else:
        # cold start s / h'(0), per point since h'(0) holds 1/n
        d0 = response_pair(model, np.zeros(np.shape(inv) or 1), inv)[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(np.isfinite(d0) & (d0 > 0.0), np.minimum(hi, s / d0), 0.5 * hi)
    done = s == 0.0
    x = np.where(done, 0.0, x)

    target = INVERT_TOL * (1.0 + s)
    mid = np.empty_like(s)
    carried = slope is not None
    if carried:
        # h - s and h' at warm, as the inversion that gave it left them
        f, d = slope[0] - s, np.array(slope[1])
    # h, h' come fresh from response_pair, so the loop overwrites them in place
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(INVERT_MAX_ITER):
            if not carried:
                f, d = response_pair(model, x, inv)
                f -= s
                done |= np.abs(f) <= target
                if done.all():
                    break
            carried = False
            # converged points keep x, so their bracket may go stale
            np.copyto(hi, x, where=f > 0.0)
            np.copyto(lo, x, where=f < 0.0)
            xn = np.subtract(x, np.divide(f, d, out=d), out=d)
            # bisect wherever the Newton iterate leaves (lo, hi) or is not finite
            np.add(lo, hi, out=mid)
            mid *= 0.5
            np.copyto(mid, xn, where=(xn > lo) & (xn < hi))
            np.copyto(x, mid, where=~done)
        else:
            worst = float(np.max(np.abs(response_pair(model, x, inv)[0] - s)))
            raise NewtonConvergenceError(f"radial inversion stalled after {INVERT_MAX_ITER} "
                                         f"iterations, residual {worst:.3e}")
        # polish steps drive the scalar residual to its roundoff floor, so
        # the recovered radius is accurate even when h' is O(1/n).  The first
        # reuses h - s and h' of the converged iterate.  What a second one
        # corrects is quadratic in the first step, so it runs only on the
        # rows (last axis) where some first step exceeds 2**-26 of its r
        step = _polish(x, f, d)
        again = (np.abs(step) > 2.0**-26 * x).any(axis=-1, keepdims=True)
        if again.any():
            f2, d2 = response_pair(model, x, inv)
            f2 -= s
            _polish(x, f2, d2, again)
    return (x, np.stack((s, d))) if return_slope else x


def _polish(x, f, d, mask=True):
    """One Newton step x -= f / d in place where mask holds, floored at 0;
    a non-finite step is 0, and d is taken as 1 where x or d is not
    positive or d not finite.  Returns the step, written over f."""
    np.copyto(d, 1.0, where=~((x > 0.0) & (d > 0.0) & np.isfinite(d)))
    step = np.divide(f, d, out=f)
    np.copyto(step, 0.0, where=~(np.isfinite(step) & mask))
    np.maximum(np.subtract(x, step, out=x), 0.0, out=x)
    return step


def invert(model, E, warm_stress=None, inv_n=None, slope=None, return_slope=False):
    """Invert the (regularized) map: return T with g_apply(T) ~= E.

    G keeps T and E collinear, so this is the scalar solve of
    invert_radius along E.  inv_n replaces the model's 1/n per point,
    broadcasting against the point axes of E; slope and return_slope
    carry the first Newton step from one inversion to the next (see
    invert_radius), and with return_slope the return is (T, slope).
    """
    E = np.asarray(E, dtype=float)
    # a finite E whose |E|^2 overflows is rejected like a non-finite one
    with np.errstate(over="ignore"):
        s = st.norm(E)
    if not np.isfinite(s).all():
        raise ValueError("non-finite strain input")
    warm = st.norm(warm_stress) if warm_stress is not None else None
    r = invert_radius(model, s, warm=warm, inv_n=inv_n, slope=slope,
                      return_slope=return_slope)
    if return_slope:
        r, slope = r
    scale = np.divide(r, s, out=np.zeros_like(s), where=s > 0.0)
    T = scale[..., None] * E
    return (T, slope) if return_slope else T


# ---------------------------------------------------------------------------
# conjugate energies


def phi_star(potential, e):
    """Convex conjugate of the scalar potential: sup_r (e*r - phi(r)).

    Finite exactly below the limit: for e >= L the conjugate is +inf,
    which is returned as an explicit inf sentinel.
    """
    e = np.asarray(e, dtype=float)
    if np.any(e < 0.0):
        raise ValueError("conjugate argument must be >= 0")
    out = np.full(e.shape, INF)
    sub = e < potential.limit
    r = potential.dphi_inv(e[sub])
    out[sub] = e[sub] * r - potential.phi(r)
    return out


def effective_conjugate(model, e, radius=None):
    """Conjugate of the model's effective scalar potential (with regularizer).

    psi(r) = phi(r) + r^2/(2n); psi*(e) = e*r - psi(r) at h(r) = e.
    Without a regularizer this is phi_star (inf sentinel included).
    radius, when given, is the caller's own solution of h(r) = e and
    replaces the solve here.
    """
    e = np.asarray(e, dtype=float)
    if model.reg_n is None:
        return phi_star(model.potential, e)
    r = invert_radius(model, e) if radius is None else radius
    return e * r - (model.potential.phi(r) + _inv_n(model) * r * r / 2.0)


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
    psi = model.potential.phi(r)
    if inv:
        psi = psi + inv * r * r / 2.0
    conj = effective_conjugate(model, e)
    return np.abs(psi + conj - st.dot(G, T))


def dissipation_pair(T, T0, E, E0):
    """(T - T0) : (G(T) - G(T0)) of stresses whose images E = G(T) and
    E0 = G(T0) are known, as (T - T0) : (E - E0); nonnegative by
    monotonicity."""
    return st.dot(T - T0, E - E0)
