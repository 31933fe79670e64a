"""Test-only code that the test modules share.

Mostly independent reference routes that the tests compare the package
against: each recomputes a quantity by a different route (full tensor
Newton, a scalar root find, finite differences, barycentric shape
values, an integrating-factor reconstruction, numpy's own reduction,
the csv module, the loop-and-COO construction of the mesh, the operators
and the coupling pattern, a branch per dimension of the element map) or
reads a recorded run.
Nothing in the package calls them.  The helpers that make the prototype
model and the unit-interval space, and per_state, which feeds run()'s
blocks to a callable of one State, live here too for several test modules.
"""

import csv
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq

from strainlim import constitutive as con
from strainlim import diagnostics as dg
from strainlim import dynamics as dy
from strainlim import fespace as fe
from strainlim import symtensor as st


def proto_model(q=2.0, alpha=1.0, beta=0.1, reg_n=64):
    return con.ConstitutiveModel(con.PrototypePotential(q), alpha=alpha,
                                 beta=beta, reg_n=reg_n)


def interval_space(cells):
    return fe.FESpace(fe.interval_mesh(0.0, 1.0, cells))


def invert_tensor(model, E, tol=1e-12, max_iter=100):
    """T with g_apply(T) ~= E by damped Newton on the full packed system
    with g_jacobian, independent of the radial reduction of con.invert;
    the last iterate when max_iter passes do not converge."""
    E = np.asarray(E, dtype=float)
    # start at E, not 0: some regularized maps have a singular Jacobian
    # at the origin (power regularizer with p > 2)
    T = E.copy()
    target = tol * (1.0 + st.norm(E))
    for _ in range(max_iter):
        R = con.g_apply(model, T) - E
        rn = st.norm(R)
        if np.all(rn <= target):
            return T
        J = con.g_jacobian(model, T)
        step = np.linalg.solve(J, R[..., None])[..., 0]
        # backtracking line search on the residual norm, per point
        lam = np.ones(rn.shape)
        for _ in range(40):
            Tn = T - lam[..., None] * step
            rn_new = st.norm(con.g_apply(model, Tn) - E)
            worse = rn_new > (1.0 - 0.25 * lam) * rn
            if not np.any(worse & (rn > target)):
                break
            lam = np.where(worse, 0.5 * lam, lam)
        T = T - lam[..., None] * step
    return T


def phi_star_root(potential, e, tol=1e-12):
    """Conjugate sup_r (e*r - phi(r)) via a direct scalar root find of dphi(r) = e."""
    if e >= potential.limit:
        return np.inf
    if e == 0.0:
        return 0.0

    def response(t):
        return float(potential.dphi_pair(np.array([t]))[0][0])

    hi = 1.0
    while response(hi) < e:
        hi *= 2.0
        if hi > 1e300:
            return np.inf
    r = brentq(lambda t: response(t) - e, 0.0, hi, xtol=tol, rtol=4 * np.finfo(float).eps)
    return e * r - float(potential.phi(r))


def fd_consistency(field, t, X, h=1e-6):
    """Max relative mismatch between an AnalyticField's declared derivatives
    and central differences of value/grad/dt_grad; Hessians are checked
    only where declared."""
    X = np.asarray(X, dtype=float)
    worst = 0.0

    def rel(a, b):
        scale = 1.0 + np.max(np.abs(a)) + np.max(np.abs(b))
        return float(np.max(np.abs(a - b)) / scale)

    for f, dt_f in ((field.value, field.dt_value), (field.dt_value, field.dtt_value),
                    (field.grad, field.dt_grad)):
        fd = (f(t + h, X) - f(t - h, X)) / (2 * h)
        worst = max(worst, rel(fd, dt_f(t, X)))
    # (function, its declared spatial derivative, last axis = direction)
    pairs = [(field.value, field.grad(t, X))]
    if field._hess is not None:
        pairs.append((field.grad, field.hess(t, X)))
    if field._dt_hess is not None:
        pairs.append((field.dt_grad, field.dt_hess(t, X)))
    for j in range(field.dim):
        dX = np.zeros_like(X)
        dX[:, j] = h
        for f, deriv in pairs:
            fd = (f(t, X + dX) - f(t, X - dX)) / (2 * h)
            worst = max(worst, rel(fd, deriv[..., j]))
    return worst


def shape_full(space):
    """Scalar P1 shape values (n_qp, n_nodes) on all nodes, boundary included:
    the barycentric coordinates of each quadrature point in its element."""
    mesh = space.mesh
    nv = mesh.dim + 1
    k = space.n_qp // mesh.n_elems
    elem = np.repeat(np.arange(mesh.n_elems), k)
    verts = mesh.nodes[mesh.elems[elem]]                   # (n_qp, nv, d)
    # sum_v lam_v (x_v, 1) = (x, 1)
    A = np.concatenate([np.swapaxes(verts, 1, 2), np.ones((space.n_qp, 1, nv))], axis=1)
    b = np.concatenate([space.qp, np.ones((space.n_qp, 1))], axis=1)
    lam = np.linalg.solve(A, b[..., None])[..., 0]
    rows = np.repeat(np.arange(space.n_qp), nv)
    return sp.csr_matrix((lam.ravel(), (rows, mesh.elems[elem].ravel())),
                         shape=(space.n_qp, mesh.n_nodes))


def mass_full_scalar(space):
    """Scalar one-component mass on all nodes (no Dirichlet mask)."""
    S = shape_full(space)
    return (S.T @ sp.diags(space.qw) @ S).tocsc()


def nodal_to_interior(space, nodal):
    """Interior coefficients of a (n_nodes, dim) nodal field."""
    return np.asarray(nodal, dtype=float)[space.interior_nodes].ravel()


def interior_to_nodal(space, U):
    """(n_nodes, dim) nodal field of interior coefficients, zero on the boundary."""
    out = np.zeros((space.mesh.n_nodes, space.dim))
    out[space.interior_nodes] = np.asarray(U).reshape(-1, space.dim)
    return out


def loop_rectangle_mesh(a, b, c, d, nx, ny):
    """fe.rectangle_mesh by a double loop over the cells, each split in
    two triangles, the elements appended cell by cell."""
    xs = np.linspace(a, b, nx + 1)
    ys = np.linspace(c, d, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    elems = []
    for iy in range(ny):
        for ix in range(nx):
            n00 = nid(ix, iy)
            n10 = nid(ix + 1, iy)
            n01 = nid(ix, iy + 1)
            n11 = nid(ix + 1, iy + 1)
            elems.append([n00, n10, n01])
            elems.append([n10, n11, n01])
    elems = np.array(elems, dtype=np.int64)
    ix = np.tile(np.arange(nx + 1), ny + 1)
    iy = np.repeat(np.arange(ny + 1), nx + 1)
    boundary = (ix == 0) | (ix == nx) | (iy == 0) | (iy == ny)
    return fe.Mesh(2, nodes, elems, boundary)


_QP_1D = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_QW_1D = np.array([0.5, 0.5])
_QP_2D = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
_QW_2D = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])


def branch_geometry(mesh):
    """(shape values (k, nv), quadrature points (n_qp, d), weights (n_qp,),
    gradients (ne, nv, d)) of the P1 element map by one hand-written branch
    per dimension: in 1D the points v_0 + xi (v_1 - v_0) and gradients
    [-1/h, 1/h], in 2D the barycentric sums of the vertices and the inverse
    of the edge matrix.  fe.FESpace's one affine map agrees with it bit for
    bit in 1D; in 2D its points v_0 + sum_r xi_r (v_{r+1} - v_0) can round
    one ulp apart where a vertex difference rounds (the 1 x 1 mesh of
    [0.1, 0.7] x [-0.3, 1.9] has 0.4 against 0.39999999999999997)."""
    d = mesh.dim
    meas = mesh.measures()
    inv_meas = 1.0 / meas
    verts = mesh.nodes[mesh.elems]             # (ne, nv, d)
    if d == 1:
        nloc = np.stack([1.0 - _QP_1D, _QP_1D], axis=1)          # (k, nv)
        qp = verts[:, 0, :][:, None, :] + _QP_1D[None, :, None] * (
            verts[:, 1, :] - verts[:, 0, :]
        )[:, None, :]
        wloc = _QW_1D
        grads = np.stack([-inv_meas, inv_meas], axis=1)[:, :, None]  # (ne, nv, d)
    else:
        lam = np.column_stack([1.0 - _QP_2D.sum(axis=1), _QP_2D[:, 0], _QP_2D[:, 1]])
        nloc = lam                                               # (k, nv)
        qp = np.einsum("kv,evd->ekd", lam, verts)
        wloc = _QW_2D
        J = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
        Jinv = np.linalg.inv(J)                                  # (ne, 2, 2)
        gref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        grads = np.einsum("vr,erd->evd", gref, Jinv)
    k, ne = len(wloc), mesh.n_elems
    return nloc, qp.reshape(ne * k, d), np.repeat(meas, k) * np.tile(wloc, ne), grads


def coo_operators(space):
    """(N, B, local strain matrices) of the space, N and B from broadcast
    (row, column, value) triplets through scipy's COO-to-CSR conversion."""
    mesh = space.mesh
    d, m, ne, nv = space.dim, space.m, mesh.n_elems, space.dim + 1
    nloc = branch_geometry(mesh)[0]
    k = nloc.shape[0]
    dofs = space._dof_of_node[mesh.elems]
    keep = dofs >= 0

    e_idx = np.repeat(np.arange(ne), k * nv)
    k_idx = np.tile(np.repeat(np.arange(k), nv), ne)
    v_idx = np.tile(np.arange(nv), ne * k)
    node_dof = dofs[e_idx, v_idx]
    shape_val = nloc[k_idx, v_idx]
    qp_glob = e_idx * k + k_idx
    ok = node_dof >= 0
    nrows, ncols, nvals = [], [], []
    for c in range(d):
        nrows.append(qp_glob[ok] * d + c)
        ncols.append(node_dof[ok] * d + c)
        nvals.append(shape_val[ok])
    N = sp.csr_matrix(
        (np.concatenate(nvals), (np.concatenate(nrows), np.concatenate(ncols))),
        shape=(space.n_qp * d, space.ndof))

    nl = nv * d
    eye = np.eye(d)
    g = space._grads[:, :, None, :]
    mat = 0.5 * (eye[:, :, None] * g[..., None, :] + g[..., :, None] * eye[:, None, :])
    strain_local = st.pack(mat).reshape(ne, nl, m).transpose(0, 2, 1)
    ldof = np.where(keep[:, :, None], dofs[:, :, None] * d + np.arange(d), -1).reshape(ne, nl)
    shape4 = (ne, k, m, nl)
    brows = np.broadcast_to(
        (np.arange(ne * k).reshape(ne, k, 1, 1) * m + np.arange(m)[:, None]), shape4)
    bcols = np.broadcast_to(ldof[:, None, None, :], shape4)
    bvals = np.broadcast_to(strain_local[:, None], shape4)
    bok = bcols >= 0
    B = sp.csr_matrix((bvals[bok], (brows[bok], bcols[bok])), shape=(space.n_qp * m, space.ndof))
    return N, B, strain_local


def unique_coupling(space, mass):
    """(indptr, indices, slot, mass_slot) of the space's coupling pattern
    with the mass matrix mass, from np.unique over column-major 64-bit
    (column, row) keys of every element block entry and every mass entry."""
    d, ndof = space.dim, space.ndof
    dofs = space._dof_of_node[space.mesh.elems]
    ne, nl = dofs.shape[0], dofs.shape[1] * d
    ldof = np.where(dofs[:, :, None] >= 0, dofs[:, :, None] * d + np.arange(d), -1).reshape(ne, nl)
    rows = np.broadcast_to(ldof[:, :, None], (ne, nl, nl)).ravel()
    cols = np.broadcast_to(ldof[:, None, :], (ne, nl, nl)).ravel()
    ok = (rows >= 0) & (cols >= 0)
    mcols = np.repeat(np.arange(ndof), np.diff(mass.indptr))
    keys = np.concatenate([cols[ok] * ndof + rows[ok], mcols * ndof + mass.indices])
    uniq, pos = np.unique(keys, return_inverse=True)
    nnz = uniq.size
    slot = np.full(rows.size, nnz)
    slot[ok] = pos[:np.count_nonzero(ok)]
    indptr = np.zeros(ndof + 1, dtype=np.int32)
    np.cumsum(np.bincount(uniq // ndof, minlength=ndof), out=indptr[1:])
    return indptr, (uniq % ndof).astype(np.int32), slot, pos[np.count_nonzero(ok):]


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


def per_state(observe):
    """A run() observer that hands each row of every block (see
    dynamics.State) to observe, as a State of views."""
    def observer(block):
        for j, t in enumerate(block.t):
            observe(dy._index(block, t, j))
    return observer


def strain_history_residual(scenario, space, config):
    """Gap between the final strain of a run and its integrating-factor
    reconstruction from the run's stress history.

    The run records state.eps and state.stress, the per-qp strains and
    stresses, at every state.  The constitutive relation at
    each quadrature point is the linear ODE
    beta d(eps)/dt + alpha eps = G_n(T), whose solution is
    eps(t) = e^{-ct} eps(0) + int_0^t e^{-c(t-s)} G_n(T(s))/beta ds with
    c = alpha/beta.  The integral uses the exact exponential weight
    against piecewise-linear interpolation of the recorded G_n(T), so
    the residual is O(dt^2) and exactly zero for constant histories.
    Returns the max over quadrature points of the tensor-norm gap.
    """
    records, model = [], scenario.model
    dy.run(scenario, space, config, observers=(per_state(records.append),))
    ts = np.array([state.t for state in records])
    if len(ts) < 2:
        return 0.0
    eps = [state.eps for state in records]
    c = model.alpha / model.beta
    t_end = ts[-1]
    G = np.array([con.g_apply(model, state.stress) for state in records])
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


def energy_balance_residual(records):
    """Max |KE+EE change + cumulative dissipation - cumulative power|
    over a recorded ledger, ignoring suspended (non-finite) rows."""
    resid = dg.ledger_table(records)["balance_residual"]
    finite = resid[np.isfinite(resid)]
    return float(np.max(np.abs(finite))) if len(finite) else np.nan


def sum_dot(a, b):
    """Packed dot product as numpy's sum over the last axis."""
    return np.sum(np.asarray(a, dtype=float) * np.asarray(b, dtype=float), axis=-1)


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows):
    """CSV through csv.writer, one formatted cell at a time: floats as
    repr(float(x)), anything else as str(x)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def write_table(path, table):
    """A table of columns through write_csv, one zipped row at a time."""
    header = list(table.keys())
    write_csv(path, header, zip(*[np.asarray(table[k], dtype=float) for k in header]))


def report_rows(report):
    """A study report as text cells; a finite fitted order fills only the
    last row."""
    rows = []
    n = len(report.axis)
    for i in range(n):
        order = ""
        if i == n - 1 and report.fitted_order is not None \
                and math.isfinite(report.fitted_order):
            order = repr(float(report.fitted_order))
        rows.append([repr(float(report.axis[i])), repr(float(report.values[i])), order])
    return rows
