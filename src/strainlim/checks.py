"""Property groups of the constitutive maps and the boundary lifts.

The paper's arguments rest on a few pointwise facts: G_n is monotone,
bounded by L without a regularizer, invertible, and consistent with
its potential through the Fenchel identity; the lift recipes match the
initial and boundary data and keep their strain-expression identities.
Each group here samples those facts with a numpy Generator and returns
its worst values; the callers hold the tolerances.  `strainlim verify`
runs the groups on a few samples, the acceptance suite on many.
"""

from __future__ import annotations

import numpy as np

from . import constitutive as con
from . import scenarios as sc
from . import symtensor as st


def models():
    """Six potentials, each without and with a Tikhonov regularizer (n=16)."""
    pots = [con.PrototypePotential(1.0), con.PrototypePotential(2.0),
            con.PrototypePotential(10.0), con.PowerLawPotential(1.5),
            con.PowerLawPotential(3.0), con.LinearPotential()]
    out = []
    for pot in pots:
        out.append(con.ConstitutiveModel(pot, alpha=1.0, beta=0.5))
        out.append(con.ConstitutiveModel(pot, alpha=1.0, beta=0.5, reg_n=16))
    return out


def constitutive_suite(rng, n_samp):
    """Worst values of the constitutive properties over n_samp random
    tensors per model of the roster and dimension 1-3.

    Returns a dict: ``mono`` the least (G(T)-G(W)):(T-W) over sample
    pairs (at most 0), ``gbound`` the largest |G(T)| - L of the bounded
    unregularized models (at least 0), ``round`` the largest round-trip
    error |invert(G(T)) - T|, ``fenchel`` the largest Fenchel residual,
    ``jac`` the largest relative central-difference mismatch of
    g_jacobian, and ``bound``, whether the operator-norm bound
    |DG_n(T)| <= 3 (1/n + 1/(1+|T|)) held at radii 0 to 1000.  A NaN
    sample makes its value NaN.
    """
    mono, gbound, round_trip, fenchel, jac = [0.0], [0.0], [], [], []
    for model in models():
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
            mono.append(np.min(st.dot(E - con.g_apply(model, W), T - W)))
            if bounded and model.reg_n is None:
                gbound.append(np.max(st.norm(E)) - con.limit_L(model))
            back = con.invert(model, E, warm_stress=T)
            round_trip.append(np.max(st.norm(back - T)))
            fenchel.append(np.max(con.fenchel_residual(model, T)))

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
            jac.append(np.max(st.norm(jd - fd) / (1.0 + st.norm(fd))))

    bound = True
    T = np.zeros((6, 3))
    T[:, 0] = (0.0, 0.1, 1.0, 10.0, 100.0, 1000.0)
    for n in (1, 10, 100):
        mdl = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=n)
        bound = bound and con.jacobian_norm_bound_check(mdl, T)
    return {"mono": float(np.min(mono)), "gbound": float(np.max(gbound)),
            "round": float(np.max(round_trip)), "fenchel": float(np.max(fenchel)),
            "jac": float(np.max(jac)), "bound": bound}


def lift_recipes(rng, n):
    """Worst errors of the two lift recipes at n random points of [0, 1]
    and n random times in [0, 3].

    Returns a dict: ``data`` the largest mismatch of a lift against its
    initial displacement and velocity, and of the time-dependent lift
    against the prescribed boundary motion; ``identity`` the largest
    drift of alpha*eps + beta*dt_eps from its closed form (constant for
    the static lift, the extension's plus a constant for the
    time-dependent one).
    """
    alpha, beta = 1.3, 0.4
    X = rng.uniform(0.0, 1.0, size=(n, 1))
    ts = rng.uniform(0.0, 3.0, size=n)
    # sin(k pi x) profiles: one half-wave on (0, 1/k)
    u0 = sc._standing_wave_field(1, (0.0, 1.0), amplitude=0.5, omega=0.0)
    v0 = sc._standing_wave_field(1, (0.0, 1.0 / 2.0), amplitude=0.2, omega=0.0)
    static = sc.lift_static_bc(u0, v0, alpha, beta)
    data = [np.abs(static.value(0.0, X) - u0.value(0.0, X)),
            np.abs(static.dt_value(0.0, X) - v0.value(0.0, X))]
    E0 = alpha * u0.strain(0.0, X) + beta * v0.strain(0.0, X)
    ident = [np.abs(sc.strain_expression(static, alpha, beta, ts, X) - E0)]

    u_ext = sc._standing_wave_field(1, (0.0, 1.0), amplitude=0.05, omega=1.0)
    v_init = sc._standing_wave_field(1, (0.0, 1.0 / 3.0), amplitude=0.1, omega=0.0)
    bpts = np.array([[0.0], [1.0]])
    timedep = sc.lift_timedep_bc(u_ext, v_init, alpha, beta, boundary_points=bpts)
    data += [np.abs(timedep.value(0.0, X) - u_ext.value(0.0, X)),
             np.abs(timedep.dt_value(0.0, X) - v_init.value(0.0, X))]
    # the strain expression of the lift minus that of the extension is
    # the constant beta * strain(v_init - dt u_ext(0))
    w_strain = v_init.strain(0.0, X) - u_ext.dt_strain(0.0, X)
    lhs = sc.strain_expression(timedep, alpha, beta, ts, X)
    rhs = sc.strain_expression(u_ext, alpha, beta, ts, X) + beta * w_strain
    ident.append(np.abs(lhs - rhs))
    data.append(np.abs(timedep.value(ts, bpts) - u_ext.value(ts, bpts)))
    return {"data": float(np.max([np.max(a) for a in data])),
            "identity": float(np.max([np.max(a) for a in ident]))}
