import numpy as np
import pytest
import scipy.sparse as sp

from strainlim import fespace as fe
from strainlim import symtensor as st

import reference_impl as ref


def test_interval_mesh_basics():
    mesh = fe.interval_mesh(0.0, 1.0, 8)
    assert mesh.n_nodes == 9
    assert mesh.n_elems == 8
    meas = mesh.measures()
    assert np.all(meas > 0)
    assert abs(meas.sum() - 1.0) <= 1e-12
    assert mesh.boundary.sum() == 2
    assert mesh.boundary[0] and mesh.boundary[-1]


def test_rectangle_mesh_basics():
    mesh = fe.rectangle_mesh(0.0, 2.0, 0.0, 1.0, 4, 3)
    assert mesh.n_nodes == 5 * 4
    assert mesh.n_elems == 2 * 4 * 3
    meas = mesh.measures()
    assert np.all(meas > 0)
    assert abs(meas.sum() - 2.0) <= 1e-12 * 2.0
    # boundary flags mark exactly the outer ring
    on_edge = (
        np.isclose(mesh.nodes[:, 0], 0.0)
        | np.isclose(mesh.nodes[:, 0], 2.0)
        | np.isclose(mesh.nodes[:, 1], 0.0)
        | np.isclose(mesh.nodes[:, 1], 1.0)
    )
    assert np.array_equal(mesh.boundary, on_edge)


@pytest.mark.parametrize("mesh", [fe.interval_mesh(-0.3, 1.7, 8),
                                  fe.rectangle_mesh(0.1, 0.7, -0.3, 1.9, 4, 3)],
                         ids=["1d", "2d"])
def test_measures_of_gathered_vertices_are_unchanged(mesh):
    # FESpace hands Mesh.measures the vertices it gathered for its own map:
    # the same bits as the measures gathered afresh, and as the weights
    v = mesh.nodes[mesh.elems]
    if mesh.dim == 1:
        want = v[:, 1, 0] - v[:, 0, 0]
    else:
        e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        want = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.array_equal(mesh.measures(v), want)
    assert np.array_equal(mesh.measures(), want)
    space = fe.FESpace(mesh)
    w = fe._QUADRATURE[mesh.dim][1]
    assert np.array_equal(space.qw, np.repeat(want, len(w)) * np.tile(w, mesh.n_elems))


def test_mesh_validation():
    # the builders take a box as given: a reversed axis gives reversed
    # elements, and 2.5e307 x 3.3e307 cells have areas past float64
    for mesh, rule in ((fe.interval_mesh(1.0, 0.0, 4), "non-positive element measure"),
                       (fe.rectangle_mesh(0, 1, 1, 0, 2, 2), "non-positive element measure"),
                       (fe.rectangle_mesh(0.0, 1e308, 0.0, 1e308, 4, 3),
                        "element measure overflows")):
        with pytest.raises(ValueError, match=rule):
            fe.FESpace(mesh)


def test_subnormal_element_measure_raises():
    # 1.25e-309 wide cells, and 2D triangles of area 1e-310
    for mesh in (fe.interval_mesh(0.0, 1e-308, 8),
                 fe.rectangle_mesh(0.0, 1e-155, 0.0, 2e-155, 1, 1)):
        with pytest.raises(ValueError, match="cell width too small"):
            fe.FESpace(mesh)


def test_partition_of_unity():
    for space in (
        fe.FESpace(fe.interval_mesh(0.0, 1.0, 7)),
        fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 1.0, 3, 4)),
    ):
        ones = ref.shape_full(space) @ np.ones(space.mesh.n_nodes)
        assert np.all(np.abs(ones - 1.0) <= 1e-13)


def test_quadrature_weights_sum_to_volume():
    s1 = fe.FESpace(fe.interval_mesh(0.0, 2.0, 5))
    assert abs(s1.qw.sum() - 2.0) < 1e-13
    s2 = fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 3.0, 4, 2))
    assert abs(s2.qw.sum() - 3.0) < 1e-12


def test_mass_row_sums_and_stencil_1d():
    cells = 6
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, cells))
    h = 1.0 / cells
    Mfull = ref.mass_full_scalar(space).toarray()
    sums = Mfull.sum(axis=1)
    assert np.allclose(sums[1:-1], h, rtol=0, atol=1e-14)
    assert np.allclose(sums[[0, -1]], h / 2, rtol=0, atol=1e-14)
    # interior row is the h/6 * {1, 4, 1} stencil
    row = Mfull[3]
    assert abs(row[2] - h / 6) < 1e-14
    assert abs(row[3] - 4 * h / 6) < 1e-14
    assert abs(row[4] - h / 6) < 1e-14
    assert np.all(row[:2] == 0) and np.all(row[5:] == 0)


def test_mass_spd_and_symmetric():
    rng = np.random.default_rng(0)
    for space in (
        fe.FESpace(fe.interval_mesh(0.0, 1.0, 9)),
        fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4)),
    ):
        M = space.mass.toarray()
        assert np.array_equal(M, M.T)
        for _ in range(100):
            x = rng.standard_normal(space.ndof)
            assert x @ (M @ x) > 0.0


def test_mass_solve_roundtrip():
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 16))
    rng = np.random.default_rng(1)
    b = rng.standard_normal(space.ndof)
    x = space.mass_solve(b)
    assert np.allclose(space.mass @ x, b, rtol=0, atol=1e-12)


def test_strain_exact_for_linears_1d():
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 5))
    assert np.all(space.strain_at_qp(np.zeros(space.ndof)) == 0.0)
    # u(x) = x: interior coefficients are the node coordinates
    nodal = space.mesh.nodes.copy()
    U = ref.nodal_to_interior(space, nodal)
    # boundary values are dropped; add the matching lift x*[boundary hats]
    # instead, check against the full-node evaluation: interpolate u=x and
    # measure the strain of the interior part plus boundary hat strain
    eps_int = space.strain_at_qp(U)
    lift_nodal = np.where(space.mesh.boundary[:, None], nodal, 0.0)
    eps_lift = _nodal_strain(space, lift_nodal)
    assert np.allclose(eps_int + eps_lift, 1.0, rtol=0, atol=1e-13)


def _nodal_strain(space, nodal):
    """Strain of a full nodal field, boundary nodes included (test helper)."""
    d = space.dim
    ne = space.mesh.n_elems
    k = space.n_qp // ne
    vals = nodal[space.mesh.elems]                       # (ne, nv, d)
    grad = np.einsum("evd,evg->edg", vals, space._grads) # (ne, d_comp, d_x)
    eps = st.sym_part(grad)
    return np.repeat(eps, k, axis=0)


def test_strain_exact_for_linears_2d():
    space = fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 1.0, 3, 3))
    # u = (y, 0): sym gradient ((0, 1/2), (1/2, 0))
    nodal = np.column_stack([space.mesh.nodes[:, 1], np.zeros(space.mesh.n_nodes)])
    eps = _nodal_strain(space, nodal)
    expect = st.sym_part(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(eps, expect, rtol=0, atol=1e-13)
    # interior + boundary-lift split reproduces the same strain
    U = ref.nodal_to_interior(space, nodal)
    lift_nodal = np.where(space.mesh.boundary[:, None], nodal, 0.0)
    assert np.allclose(space.strain_at_qp(U) + _nodal_strain(space, lift_nodal), expect, atol=1e-13)


def test_stress_load_zero_and_constant():
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 8))
    assert np.all(space.load_from_stress(np.zeros((space.n_qp, 1))) == 0.0)
    # constant stress is weakly divergence-free against interior hats
    const = np.full((space.n_qp, 1), 3.7)
    load = space.load_from_stress(const)
    assert np.all(load == 0.0)
    space2 = fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4))
    const2 = np.tile(st.pack(np.array([[1.0, 0.3], [0.3, -2.0]])), (space2.n_qp, 1))
    assert np.all(np.abs(space2.load_from_stress(const2)) <= 1e-13)


def test_stress_load_linear_stress_1d():
    # T(x) = x against interior hats integrates to -h
    cells = 3
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, cells))
    h = 1.0 / cells
    stress = space.qp[:, :1].copy()
    load = space.load_from_stress(stress)
    assert load.shape == (2,)
    assert np.allclose(load, -h, rtol=0, atol=1e-14)


def test_forcing_load_constant():
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 4))
    h = 0.25
    load = space.load_from_values(np.ones((space.n_qp, 1)))
    # integral of each interior hat is h
    assert np.allclose(load, h, rtol=0, atol=1e-14)


def test_interpolate_reproduces_linears():
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 16))

    def lin(X):
        return 2.0 * X + 0.5

    vals = ref.shape_full(space) @ lin(space.mesh.nodes)
    err = space.l2_norm_qp(vals - lin(space.qp))
    assert err <= 1e-13
    assert space.l2_norm_qp(np.zeros((space.n_qp, 1))) == 0.0


@pytest.mark.parametrize("shape", [(3, 8), (3, 8, 1), (2, 8, 3)], ids=["bare", "1d", "2d"])
def test_l2_norms_of_rows_are_each_rows_norm(shape):
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 4))
    vals = np.random.default_rng(5).standard_normal(shape)
    if len(shape) == 2:
        # scalar fields go in as one-component vectors, with the bits of
        # the scalar sum, since st.dot adds +0.0 to each square
        bare = np.sqrt(np.sum(space.qw * vals * vals, axis=-1))
        vals = vals[..., None]
        assert space.l2_norm_qp(vals).tolist() == bare.tolist()
    norms = space.l2_norm_qp(vals)
    assert norms.shape == shape[:1]
    assert norms.tolist() == [space.l2_norm_qp(row) for row in vals]


def test_interpolation_order_two():
    errs = []
    hs = []
    for cells in (16, 32, 64, 128):
        space = fe.FESpace(fe.interval_mesh(0.0, 1.0, cells))

        def f(X):
            return np.sin(np.pi * X)

        vals = ref.shape_full(space) @ f(space.mesh.nodes)
        errs.append(space.l2_norm_qp(vals - f(space.qp)))
        hs.append(1.0 / cells)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.9 <= order <= 2.1


def test_dirichlet_compliance():
    space = fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 1.0, 3, 3))
    rng = np.random.default_rng(2)
    U = rng.standard_normal(space.ndof)
    nodal = ref.interior_to_nodal(space, U)
    assert np.all(nodal[space.mesh.boundary] == 0.0)
    back = ref.nodal_to_interior(space, nodal)
    assert np.array_equal(back, U)


def test_value_and_load_adjoint():
    # load_from_values is the quadrature adjoint of value_at_qp
    space = fe.FESpace(fe.rectangle_mesh(0.0, 1.0, 0.0, 1.0, 3, 2))
    rng = np.random.default_rng(3)
    U = rng.standard_normal(space.ndof)
    vals = rng.standard_normal((space.n_qp, 2))
    a = float(space.load_from_values(vals) @ U)
    b = float(np.sum(space.qw * np.sum(vals * space.value_at_qp(U), axis=1)))
    assert abs(a - b) < 1e-12


def test_quadrature_points_read_only():
    space = fe.FESpace(fe.interval_mesh(0.0, 1.0, 4))
    with pytest.raises(ValueError):
        space.qp[0, 0] = 0.5


# ---------------------------------------------------------------------------
# construction against the loop-and-COO route of reference_impl


def _same_array(a, b):
    """Equal dtype, shape and bytes, so signed zeros count too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_sparse(A, B):
    return (type(A) is type(B) and A.shape == B.shape
            and all(_same_array(getattr(A, f), getattr(B, f))
                    for f in ("indptr", "indices", "data")))


@pytest.mark.parametrize("cells", [(1,), (2,), (7,), (256,), (1, 1), (1, 5), (5, 1), (3, 4),
                                   (17, 5), (64, 64)], ids=lambda c: "x".join(map(str, c)))
def test_construction_matches_loop_and_coo_route(cells):
    if len(cells) == 1:
        mesh = fe.interval_mesh(-0.5, 2.0, *cells)
    else:
        mesh = fe.rectangle_mesh(-0.5, 2.0, 0.25, 1.0, *cells)
        loop = ref.loop_rectangle_mesh(-0.5, 2.0, 0.25, 1.0, *cells)
        for name in ("nodes", "elems", "boundary"):
            assert _same_array(getattr(mesh, name), getattr(loop, name)), name
    space = fe.FESpace(mesh)
    _, qp, qw, grads = ref.branch_geometry(mesh)
    for name, got, want in (("qp", space.qp, qp), ("qw", space.qw, qw),
                            ("grads", space._grads, grads)):
        assert _same_array(got, want), name
    N, B, strain = ref.coo_operators(space)
    assert _same_sparse(space.N, N)
    assert _same_sparse(space.B, B)
    mass = (N.T @ sp.diags(space._w_d) @ N).tocsc()
    mass.sort_indices()
    assert _same_sparse(space.mass, mass)
    pat = space.coupling_pattern
    assert _same_array(pat.strain, strain)
    for name, want in zip(("indptr", "indices", "slot", "mass_slot"),
                          ref.unique_coupling(space, mass)):
        assert _same_array(getattr(pat, name), want), name
