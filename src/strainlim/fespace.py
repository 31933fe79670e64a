"""P1 finite element spaces on intervals and structured rectangles.

Vector-valued linear elements with homogeneous Dirichlet interior dofs;
inhomogeneous boundary data enters through an analytic lift handled by
the caller, so the discrete unknowns always vanish on the boundary.

All field evaluation is organized around two sparse operators built at
construction time:

    N: interior coefficients -> field values at quadrature points
    B: interior coefficients -> packed strains at quadrature points

Loads are the transposes against quadrature weights, and the consistent
mass matrix is N^T W N.  Quadrature: 2-point Gauss per interval in 1D,
3-point edge-midpoint rule per triangle in 2D; both integrate P1 mass
integrands exactly.

Every operator also takes a stack of members (coefficients (k, ndof),
per-qp values (k, n_qp, ...)) and serves them with one sparse product
or one multi-right-hand-side solve.  Each member gets exactly the
numbers of its own call, since every output entry sums the same terms
in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import symtensor as st


@dataclass(frozen=True)
class Mesh:
    dim: int
    nodes: np.ndarray          # (nn, dim)
    elems: np.ndarray          # (ne, dim+1) vertex indices
    boundary: np.ndarray       # (nn,) bool

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elems(self):
        return self.elems.shape[0]

    def measures(self):
        """Length/area of every element."""
        v = self.nodes[self.elems]
        if self.dim == 1:
            return v[:, 1, 0] - v[:, 0, 0]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def interval_mesh(a, b, cells):
    """Uniform mesh of [a, b] with the given number of cells."""
    if not b > a:
        raise ValueError("need b > a")
    if cells < 1:
        raise ValueError("need at least one cell")
    x = np.linspace(a, b, cells + 1)
    nodes = x[:, None]
    elems = np.column_stack([np.arange(cells), np.arange(1, cells + 1)])
    boundary = np.zeros(cells + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    return Mesh(1, nodes, elems.astype(np.int64), boundary)


def rectangle_mesh(a, b, c, d, nx, ny):
    """Structured triangulation of [a,b] x [c,d]; each cell split in two."""
    if not (b > a and d > c):
        raise ValueError("need b > a and d > c")
    if nx < 1 or ny < 1:
        raise ValueError("need at least one cell per direction")
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
    return Mesh(2, nodes, elems, boundary)


def box_mesh(domain, cells):
    """Mesh of a ((lo, hi), ...) box with one cell count per axis."""
    make = interval_mesh if len(domain) == 1 else rectangle_mesh
    return make(*[x for pair in domain for x in pair], *cells)


# reference quadrature:  1D Gauss-2 on [0,1]; 2D edge midpoints on the
# unit triangle.  Local weights are fractions of the element measure.
_QP_1D = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_QW_1D = np.array([0.5, 0.5])
_QP_2D = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
_QW_2D = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])


@dataclass(frozen=True)
class CouplingPattern:
    """Fixed CSC sparsity of M + B^T A B over the interior dofs of a space.

    P1 strains are constant per element, so B^T A B is a sum of element
    blocks B_e^T A_e B_e.  ``slot`` gives the data position of every
    entry of those blocks, flattened (element, row, column), with the
    out-of-range position nnz for pairs that touch a boundary dof;
    ``mass_slot`` places the entries of the space's mass matrix.
    """

    strain: np.ndarray        # (ne, m, (d+1)*d) local strain matrices B_e
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray
    mass_slot: np.ndarray

    @property
    def nnz(self):
        return self.indices.size


def _apply_rows(A, X):
    """A @ X for one vector, or A applied to every row of a (..., n) stack;
    the rows come back C-contiguous."""
    if X.ndim > 2:
        return _apply_rows(A, X.reshape(-1, X.shape[-1])).reshape(X.shape[:-1] + (-1,))
    return np.ascontiguousarray((A @ X.T).T)


def _flat_qp(vals):
    """Per-qp values (n_qp, c), or a stack (k, n_qp, c), flattened per member."""
    vals = np.asarray(vals)
    return vals.reshape(vals.shape[:-2] + (-1,))


class FESpace:
    """Vector P1 space with Dirichlet mask, quadrature, and assembly ops."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        d = mesh.dim
        self.dim = d
        self.m = st.packed_len(d)
        meas = mesh.measures()
        if np.any(meas <= 0.0):
            raise ValueError("mesh has a non-positive element measure")
        with np.errstate(over="ignore", divide="ignore"):
            inv_meas = 1.0 / meas
        if not np.all(np.isfinite(inv_meas)):
            raise ValueError(f"cell width too small: element measure {np.min(meas):.3g} "
                             f"has no finite inverse")

        self.interior_nodes = np.nonzero(~mesh.boundary)[0]
        self._dof_of_node = np.full(mesh.n_nodes, -1, dtype=np.int64)
        self._dof_of_node[self.interior_nodes] = np.arange(self.interior_nodes.size)
        self.ndof = self.interior_nodes.size * d

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

        k = len(wloc)
        ne = mesh.n_elems
        self.n_qp = ne * k
        # read-only, so data computed at the quadrature points can be kept
        # for as long as the same array comes back
        self.qp = qp.reshape(self.n_qp, d)
        self.qp.flags.writeable = False
        self.qw = np.repeat(meas, k) * np.tile(wloc, ne)
        self._grads = grads

        self._build_operators(nloc, grads, k)
        self._mass = None
        self._mass_lu = None
        self._coupling = None

    # -- sparse operator construction ------------------------------------

    def _build_operators(self, nloc, grads, k):
        mesh = self.mesh
        d, m, ne, nv = self.dim, self.m, mesh.n_elems, self.dim + 1
        dofs = self._dof_of_node[mesh.elems]                  # (ne, nv), -1 on boundary
        keep = dofs >= 0

        # N: (nq*d, ndof) vector field values; one entry per (qp, node, comp)
        e_idx = np.repeat(np.arange(ne), k * nv)
        k_idx = np.tile(np.repeat(np.arange(k), nv), ne)
        v_idx = np.tile(np.arange(nv), ne * k)
        node_dof = dofs[e_idx, v_idx]
        shape_val = nloc[k_idx, v_idx]
        qp_glob = e_idx * k + k_idx
        ok = node_dof >= 0
        nrows = []
        ncols = []
        nvals = []
        for c in range(d):
            nrows.append(qp_glob[ok] * d + c)
            ncols.append(node_dof[ok] * d + c)
            nvals.append(shape_val[ok])
        self.N = sp.csr_matrix(
            (np.concatenate(nvals), (np.concatenate(nrows), np.concatenate(ncols))),
            shape=(self.n_qp * d, self.ndof),
        )

        # local strain matrices B_e (ne, m, nl) of the element's vector basis
        # functions, local dof l = v*d + c; P1 strains are constant per element
        nl = nv * d
        eye = np.eye(d)
        g = grads[:, :, None, :]                              # (ne, nv, 1, d)
        mat = 0.5 * (eye[:, :, None] * g[..., None, :] + g[..., :, None] * eye[:, None, :])
        self._strain_local = st.pack(mat).reshape(ne, nl, m).transpose(0, 2, 1)
        self._ldof = np.where(keep[:, :, None], dofs[:, :, None] * d + np.arange(d),
                              -1).reshape(ne, nl)

        # B: (nq*m, ndof) packed strains; each qp repeats its element's B_e
        shape4 = (ne, k, m, nl)
        brows = np.broadcast_to(
            (np.arange(ne * k).reshape(ne, k, 1, 1) * m + np.arange(m)[:, None]), shape4)
        bcols = np.broadcast_to(self._ldof[:, None, None, :], shape4)
        bvals = np.broadcast_to(self._strain_local[:, None], shape4)
        bok = bcols >= 0
        self.B = sp.csr_matrix(
            (bvals[bok], (brows[bok], bcols[bok])), shape=(self.n_qp * m, self.ndof))

        self._w_d = np.repeat(self.qw, d)
        self._w_m = np.repeat(self.qw, m)
        self._N_T = self.N.T
        self._B_T = self.B.T

    # -- field evaluation -------------------------------------------------

    def value_at_qp(self, U):
        U = np.asarray(U)
        return _apply_rows(self.N, U).reshape(U.shape[:-1] + (self.n_qp, self.dim))

    def strain_at_qp(self, U):
        U = np.asarray(U)
        return _apply_rows(self.B, U).reshape(U.shape[:-1] + (self.n_qp, self.m))

    def load_from_values(self, vals):
        """Assemble the load vector with entries sum_qp w * vals . basis."""
        return _apply_rows(self._N_T, self._w_d * _flat_qp(vals))

    def load_from_stress(self, stress):
        """Assemble entries sum_qp w * stress : strain(basis)."""
        return _apply_rows(self._B_T, self._w_m * _flat_qp(stress))

    def l2_norm_qp(self, vals, rows=False):
        """L2 norm of values at the quadrature points, (n_qp,) or (n_qp, k);
        with rows, the array of the norms of each row of a stack of them."""
        vals = np.asarray(vals)
        sq = vals * vals if vals.ndim == 1 + rows else st.dot(vals, vals)
        norms = np.sqrt(np.sum(self.qw * sq, axis=-1))
        return norms if rows else float(norms)

    # -- mass -------------------------------------------------------------

    @property
    def mass(self):
        if self._mass is None:
            W = sp.diags(self._w_d)
            self._mass = (self.N.T @ W @ self.N).tocsc()
        return self._mass

    def mass_apply(self, U):
        """M U, for one coefficient vector or a stack of them."""
        return _apply_rows(self.mass, np.asarray(U))

    def mass_solve(self, b):
        if self._mass_lu is None:
            self._mass_lu = splu(self.mass)
        return np.ascontiguousarray(self._mass_lu.solve(np.asarray(b).T).T)

    @property
    def coupling_pattern(self):
        """CouplingPattern of this space, built on first use."""
        if self._coupling is None:
            self._coupling = self._build_coupling()
        return self._coupling

    def _build_coupling(self):
        ne, nl = self._ldof.shape
        ndof = self.ndof
        rows = np.broadcast_to(self._ldof[:, :, None], (ne, nl, nl)).ravel()
        cols = np.broadcast_to(self._ldof[:, None, :], (ne, nl, nl)).ravel()
        ok = (rows >= 0) & (cols >= 0)
        mass = self.mass
        mcols = np.repeat(np.arange(ndof), np.diff(mass.indptr))
        # column-major keys, so sorted keys are CSC order
        keys = np.concatenate([cols[ok] * ndof + rows[ok], mcols * ndof + mass.indices])
        uniq, pos = np.unique(keys, return_inverse=True)
        nnz = uniq.size
        slot = np.full(rows.size, nnz)
        slot[ok] = pos[:np.count_nonzero(ok)]
        # int32 indices are what scipy keeps, so matrices share these arrays
        indptr = np.zeros(ndof + 1, dtype=np.int32)
        np.cumsum(np.bincount(uniq // ndof, minlength=ndof), out=indptr[1:])
        return CouplingPattern(strain=self._strain_local, indptr=indptr,
                               indices=(uniq % ndof).astype(np.int32),
                               slot=slot, mass_slot=pos[np.count_nonzero(ok):])
