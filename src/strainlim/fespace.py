"""P1 finite element spaces on intervals and structured rectangles.

Vector-valued linear elements with homogeneous Dirichlet interior dofs;
inhomogeneous boundary data enters through an analytic lift handled by
the caller, so the discrete unknowns always vanish on the boundary.

All field evaluation is organized around two sparse operators built at
construction time, straight into CSR from per-element index arrays:

    N: interior coefficients -> field values at quadrature points
    B: interior coefficients -> packed strains at quadrature points

Loads are the transposes against quadrature weights, and the consistent
mass matrix is N^T W N.  Elements are affine images of the reference
simplex, with 2-point Gauss quadrature per interval and the 3 edge
midpoints per triangle; both integrate P1 mass integrands exactly.

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

from . import constitutive as con
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

    def measures(self, verts=None):
        """Length/area of every element; verts are its vertices
        nodes[elems] when already gathered."""
        v = self.nodes[self.elems] if verts is None else verts
        if self.dim == 1:
            return v[:, 1, 0] - v[:, 0, 0]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def interval_mesh(a, b, cells):
    """Uniform mesh of [a, b] with the given number of cells."""
    elems = np.column_stack([np.arange(cells), np.arange(1, cells + 1)])
    boundary = ~np.pad(np.ones(cells - 1, dtype=bool), 1)     # the two end nodes
    return Mesh(1, np.linspace(a, b, cells + 1)[:, None], elems.astype(np.int64), boundary)


def rectangle_mesh(a, b, c, d, nx, ny):
    """Structured triangulation of [a,b] x [c,d]; each cell split in two."""
    X, Y = np.meshgrid(np.linspace(a, b, nx + 1), np.linspace(c, d, ny + 1), indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    # cell by cell, row by row: triangles (n00, n10, n01) and (n10, n11, n01)
    n00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    n01 = n00 + nx + 1
    elems = np.column_stack([n00, n00 + 1, n01, n00 + 1, n01 + 1, n01]).reshape(-1, 3)
    # the outer ring of the (ny + 1, nx + 1) node grid
    boundary = ~np.pad(np.ones((ny - 1, nx - 1), dtype=bool), 1).ravel()
    return Mesh(2, nodes, elems, boundary)


def cell_count(field, count):
    """count as an int, if whole and >= 2: one cell leaves every node on the boundary."""
    if not (count >= 2 and count == int(count)):
        raise con.FieldError(field, "must be >= 2 and whole (one cell has no interior node)")
    return int(count)


def box_mesh(domain, cells):
    """Mesh of a ((lo, hi), ...) box with one cell count per axis."""
    make = interval_mesh if len(domain) == 1 else rectangle_mesh
    return make(*[x for pair in domain for x in pair],
                *[cell_count("cells", c) for c in cells])


# reference quadrature by dimension: points xi (k, d) of the unit simplex,
# weights as fractions of the element measure (1D Gauss-2, 2D edge midpoints)
_QUADRATURE = {
    1: (np.array([[0.5 - 0.5 / np.sqrt(3.0)], [0.5 + 0.5 / np.sqrt(3.0)]]), np.array([0.5, 0.5])),
    2: (np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]), np.full(3, 1.0 / 3.0)),
}


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
        verts = mesh.nodes[mesh.elems]                               # (ne, nv, d)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            meas = mesh.measures(verts)
            inv_meas = 1.0 / meas
        if np.any(meas <= 0.0):
            raise ValueError("mesh has a non-positive element measure")
        if not np.all(np.isfinite(meas)):
            raise ValueError("cells too large: an element measure overflows float64")
        if not np.all(np.isfinite(inv_meas)):
            raise ValueError(f"cell width too small: element measure {np.min(meas):.3g} "
                             f"has no finite inverse")

        self.interior_nodes = np.nonzero(~mesh.boundary)[0]
        self._dof_of_node = np.full(mesh.n_nodes, -1, dtype=np.int64)
        self._dof_of_node[self.interior_nodes] = np.arange(self.interior_nodes.size)
        self.ndof = self.interior_nodes.size * d

        # the affine map x = v_0 + sum_r xi_r (v_{r+1} - v_0) of the reference
        # simplex: shape values [1 - sum(xi), xi], gradients gref J^-1
        xi, wloc = _QUADRATURE[d]
        nloc = np.column_stack([1.0 - xi.sum(axis=1), xi])          # (k, nv)
        edges = verts[:, 1:] - verts[:, :1]                          # (ne, r, d)
        # v_0 plus the edge terms summed in r order: 1D points take this form
        # bit for bit, and the barycentric sum would move a quarter of them
        shift = xi[:, 0, None] * edges[:, None, 0]                   # (ne, k, d)
        for r in range(1, d):
            shift = shift + xi[:, r, None] * edges[:, None, r]
        qp = verts[:, None, 0] + shift
        Jinv = np.linalg.inv(edges.transpose(0, 2, 1))               # (ne, r, d)
        gref = np.vstack([-np.ones(d), np.eye(d)])                   # (nv, r)
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
        nl = nv * d                                           # local dofs v*d + c
        # each element's vertices in ascending dof order, boundary ones (-1) first
        order = np.argsort(self._dof_of_node[mesh.elems], axis=1)
        sdofs = self._dof_of_node[np.take_along_axis(mesh.elems, order, axis=1)].astype(np.int32)
        scols = ((sdofs * d)[:, :, None] + np.arange(d, dtype=np.int32)).reshape(ne, nl)

        # N: (nq*d, ndof) vector field values; row (qp, comp), one entry per node
        self.N = _rows_csr(nloc.T[order].transpose(0, 2, 1)[:, :, None, :],
                           scols.reshape(ne, 1, nv, d).transpose(0, 1, 3, 2),
                           (sdofs >= 0)[:, None, None, :], self.ndof)

        # local strain matrices B_e (ne, m, nl) of the element's vector basis
        # functions; P1 strains are constant per element
        strain = st.sym_part(np.eye(d)[:, :, None] * grads[:, :, None, None, :]).reshape(ne, nl, m)
        self._strain_local = strain.transpose(0, 2, 1)

        # B: (nq*m, ndof) packed strains; each qp repeats its element's rows of
        # B_e, vertices sorted.  Read back to back, an element's m rows are one
        # row of a CSR container that one row gather repeats for its k qps
        srows = (order[:, :, None] * d + np.arange(d) + nl * np.arange(ne)[:, None, None]).ravel()
        rows = _rows_csr(np.take(strain.reshape(-1, m), srows, axis=0).reshape(
                             ne, nl, m).transpose(0, 2, 1),
                         scols[:, None, :], scols[:, None, :] >= 0, self.ndof)
        reps = sp.csr_matrix((rows.data, rows.indices, rows.indptr[::m]),
                             shape=(ne, self.ndof))[np.repeat(np.arange(ne), k)]
        indptr = np.zeros(self.n_qp * m + 1, dtype=np.int32)
        np.cumsum(np.repeat(np.diff(rows.indptr).reshape(ne, 1, m), k, axis=1), out=indptr[1:])
        self.B = sp.csr_matrix((reps.data, reps.indices, indptr), shape=(self.n_qp * m, self.ndof))

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

    def l2_norm_qp(self, vals):
        """L2 norms of vector values (..., n_qp, c) at the quadrature points,
        one for each index of the leading axes."""
        return np.sqrt(np.sum(self.qw * st.dot(vals, vals), axis=-1))

    # -- mass -------------------------------------------------------------

    @property
    def mass(self):
        if self._mass is None:
            W = sp.diags(self._w_d)
            self._mass = (self.N.T @ W @ self.N).tocsc()
            # sorted here: splu would sort in place, under coupling's mass_slot
            self._mass.sort_indices()
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
        d, n = self.dim, self.interior_nodes.size
        dofs = self._dof_of_node[self.mesh.elems]             # (ne, nv), -1 on boundary
        # interior nodes that share an element: the pattern of E^T E for the
        # element-node incidence E, symmetric, each column's rows sorted
        sdofs = np.sort(dofs, axis=1).astype(np.int32)
        adj = _rows_csr(1.0, sdofs, sdofs >= 0, n)
        adj = (adj.T @ adj).tocsc()
        adj.sort_indices()
        cnt = np.diff(adj.indptr)
        col = np.repeat(np.arange(n), cnt)

        # the dof pattern is adj with d x d blocks: column j*d + cj starts at
        # start[j, cj], where row i*d + ci has data position table[p, ci, cj]
        # for adj's entry p at (i, j); pairs with a boundary node take nnz
        comp = np.arange(d)
        start = d * d * adj.indptr[:-1, None].astype(np.int64) + d * cnt[:, None] * comp
        nnz = d * d * adj.nnz
        table = np.full((adj.nnz + 1, d, d), nnz)
        table[:-1] = (start[col] + d * (np.arange(adj.nnz) - adj.indptr[col])[:, None])[:, None] \
            + comp[:, None]
        indices = np.empty(nnz, dtype=np.int32)
        indices[table[:-1]] = adj.indices[:, None, None] * d + comp[:, None]

        # adj's entry p of node pairs (i, j) by their ascending keys j*n + i; a
        # boundary node, as n*n, keys past them all to the last row
        keys, node = col * n + adj.indices, np.where(dofs < 0, n * n, dofs)
        p = np.searchsorted(keys, node[:, None, :] * n + node[:, :, None])  # (ne, i, j)
        mass = self.mass
        mcols = np.repeat(np.arange(self.ndof), np.diff(mass.indptr))
        mp = np.searchsorted(keys, (mcols // d) * n + mass.indices // d)
        # int32 indices are what scipy keeps, so matrices share these arrays;
        # slot is (element, row, column) over local dofs v*d + c
        return CouplingPattern(
            strain=self._strain_local, indptr=np.append(start, nnz).astype(np.int32),
            indices=indices, mass_slot=np.take(table, (mp * d + mass.indices % d) * d + mcols % d),
            slot=np.take(table.reshape(-1, d), p[:, :, None] * d + comp[:, None], axis=0).ravel())


def _rows_csr(vals, cols, keep, n_cols):
    """CSR matrix with a row for every index of the leading axes of the
    broadcast (vals, cols, keep), holding the entries of the last axis
    that keep marks; cols (int32) must ascend along it where kept."""
    shape = np.broadcast_shapes(np.shape(vals), cols.shape, keep.shape)
    indptr = np.zeros(int(np.prod(shape[:-1])) + 1, dtype=np.int32)
    np.cumsum(np.broadcast_to(np.count_nonzero(keep, axis=-1), shape[:-1]), out=indptr[1:])
    # flat contiguous copies take the fast path of boolean indexing
    keep = np.broadcast_to(keep, shape).ravel()
    vals, cols = (np.broadcast_to(a, shape).ravel()[keep] for a in (vals, cols))
    return sp.csr_matrix((vals, cols, indptr), shape=(indptr.size - 1, n_cols))
