import dataclasses
import math
import re

import numpy as np
import pytest

from nirb import fem, mesh
from nirb.linalg import SparseSym


def test_element_matrices_on_reference_triangle():
    # One cell gives two congruent right triangles; restrict to the one with
    # vertices (0,0),(1,0),(1,1) and compare entries against the closed-form
    # element matrices of a right triangle with unit legs.
    m = mesh.build_structured(1, 1)
    forms = fem.assemble(m, bc="neumann_natural")
    M = forms.mass.to_dense()
    K = forms.stiffness.to_dense()
    # Assembled from two elements: total mass sums to the domain area and
    # each diagonal stiffness entry collects area * |grad phi|^2.
    assert M.sum() == pytest.approx(1.0, abs=1e-12)
    assert K.sum() == pytest.approx(0.0, abs=1e-12)
    # Nodes 1=(1,0) and 2=(0,1) sit in a single triangle each, so their rows
    # reproduce one element exactly: mass diag area/6 = 1/12,
    # stiffness diag = area * 2 = 1 (right-angle vertex of one element).
    assert M[1, 1] == pytest.approx(1.0 / 12.0)
    assert M[2, 2] == pytest.approx(1.0 / 12.0)
    assert K[1, 1] == pytest.approx(1.0)
    assert M[0, 1] == pytest.approx(1.0 / 24.0)
    assert K[0, 1] == pytest.approx(-0.5)


def test_mass_total_is_area():
    for n in (2, 3, 5):
        m = mesh.build_structured(n, n)
        forms = fem.assemble(m, bc="neumann_natural")
        assert forms.mass.to_dense().sum() == pytest.approx(1.0, abs=1e-12)


def test_stiffness_annihilates_constants(neumann_forms_4):
    ones = np.ones(neumann_forms_4.n_dofs)
    assert np.abs(neumann_forms_4.stiffness.matvec(ones)).max() <= 1e-12


def test_norms_constant(neumann_forms_4):
    l2, h1 = fem.norms(neumann_forms_4, np.ones(neumann_forms_4.n_dofs))
    assert l2 == pytest.approx(1.0, abs=1e-12)
    assert h1 == pytest.approx(0.0, abs=1e-9)


def test_norms_zero(neumann_forms_4):
    l2, h1 = fem.norms(neumann_forms_4, np.zeros(neumann_forms_4.n_dofs))
    assert l2 == 0.0 and h1 == 0.0


def test_norms_linear_field(unit_mesh_4, neumann_forms_4):
    v = unit_mesh_4.nodes[:, 0] + unit_mesh_4.nodes[:, 1]
    l2, h1 = fem.norms(neumann_forms_4, v)
    assert h1 == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert l2 == pytest.approx(np.sqrt(7.0 / 6.0), abs=1e-12)


def test_free_dofs_by_bc(unit_mesh_4):
    dira = fem.assemble(unit_mesh_4, bc="dirichlet_zero")
    neum = fem.assemble(unit_mesh_4, bc="neumann_natural")
    assert neum.free_dofs.size == unit_mesh_4.n_nodes
    assert dira.free_dofs.size == (unit_mesh_4.boundary_mask == 0).sum()
    assert not unit_mesh_4.boundary_mask[dira.free_dofs].any()


def test_lumped_mass_partition(neumann_forms_4):
    lump = neumann_forms_4.lumped_mass()
    assert lump.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(lump > 0.0)


def test_load_vector_constant_forcing(neumann_forms_4):
    b = fem.load_vector(neumann_forms_4, lambda t, x, y: np.ones_like(x), 0.0)
    assert b.sum() == pytest.approx(1.0, abs=1e-12)


def test_load_vector_zero_forcing(neumann_forms_4):
    b = fem.load_vector(neumann_forms_4, lambda t, x, y: np.zeros_like(x), 0.0)
    assert np.abs(b).max() == 0.0


def test_load_vector_affine_matches_mass(unit_mesh_4, neumann_forms_4):
    # The three-midpoint rule integrates quadratics exactly, so for an affine
    # f the load equals M f_nodal entrywise.
    f = lambda t, x, y: 2.0 * x - y + 0.5
    b = fem.load_vector(neumann_forms_4, f, 0.0)
    fn = f(0.0, unit_mesh_4.nodes[:, 0], unit_mesh_4.nodes[:, 1])
    assert b == pytest.approx(neumann_forms_4.mass.matvec(fn), abs=1e-13)


def test_weighted_mass_unit_weight_is_mass(neumann_forms_4):
    # the off-diagonal slots are area/12 summed over the edge's triangles,
    # as in the assembled mass; only the diagonal sums in another order
    M = neumann_forms_4.mass
    W = neumann_forms_4.weighted_mass(np.ones((1, neumann_forms_4.n_edges)))
    assert W.shape == (1,) + M.vals.shape
    assert np.array_equal(W[0, 1:], M.vals[1:])
    assert np.abs(W[0, 0] - M.vals[0]).max() <= 1e-15 * M.vals[0].max()


def test_weighted_mass_matches_dense_quadrature(rng, dense_midpoint_rule):
    # each stacked coefficient field gets its own matrix, in the slot layout
    # of the mass matrix (the constructor checks its invariants); the
    # fixture's (triangle, edge) midpoints read the coefficient of their edge
    for kind in ("structured", "rotated", "union jack"):
        forms = _edge_forms(kind, rng)
        M = forms.mass
        C = rng.standard_normal((3, forms.n_edges))
        W = forms.weighted_mass(C)
        assert W.shape == (3,) + M.vals.shape
        E, w = dense_midpoint_rule(forms)
        for k in range(3):
            want = E.T @ ((w * C[k, forms._triangle_edges].ravel())[:, None]
                          * E)
            got = SparseSym(M.n, M.cols, W[k]).to_dense()
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            assert np.array_equal(forms.weighted_mass(C[k:k + 1])[0], W[k])
        with pytest.raises(ValueError):
            forms.weighted_mass(C[0])
        with pytest.raises(ValueError):
            forms.weighted_mass(C[:, :-1])


@pytest.mark.parametrize("nx, bc", [(4, "neumann_natural"),
                                    (7, "dirichlet_zero"),
                                    (12, "neumann_natural")])
def test_forms_share_one_slot_layout(nx, bc):
    # mass, stiffness and every lincomb share one read-only cols of 7 slots
    # a row on a structured mesh: the diagonal in slot 0, the lumped mass
    # is the sum over slots, and the dense matrices are the exact P1 ones
    forms = fem.assemble(mesh.build_structured(nx, nx), bc=bc)
    M, K = forms.mass, forms.stiffness
    n = forms.n_dofs
    assert M.cols.shape == M.vals.shape == K.vals.shape == (7, n)
    assert K.cols is M.cols and not M.cols.flags.writeable
    assert M.lincomb(K, 2.0, 0.5).cols is M.cols
    assert np.array_equal(M.cols[0], np.arange(n))
    Md, Kd = M.to_dense(), K.to_dense()
    assert np.array_equal(M.vals[0], np.diag(Md))
    assert np.array_equal(forms.lumped_mass(), M.vals.sum(axis=0))
    assert forms.lumped_mass() == pytest.approx(Md.sum(axis=1), abs=1e-15)
    assert Md.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.abs(Kd.sum(axis=1)).max() <= 1e-13
    # the pattern holds every node pair of a triangle, and only those
    tri = forms.mesh.triangles
    pattern = np.zeros((n, n), dtype=bool)
    pattern[np.repeat(tri, 3, axis=1), np.tile(tri, (1, 3))] = True
    assert M._entries()[0].size == pattern.sum()
    assert np.array_equal(Md != 0.0, pattern)
    # short rows end in zero padding that points at its own row
    pad = M.cols[1:] == np.arange(n)
    assert pad.any() and (M.vals[1:][pad] == 0.0).all() \
        and (K.vals[1:][pad] == 0.0).all()


def _rotated_mesh(m, rng):
    """m with its triangles shuffled and each one's vertices rotated by a
    random turn (still counter-clockwise)."""
    tri = m.triangles[rng.permutation(m.triangles.shape[0])]
    turns = rng.integers(0, 3, tri.shape[0])[:, None]
    tri = np.take_along_axis(tri, (np.arange(3) + turns) % 3, axis=1)
    return dataclasses.replace(m, triangles=tri)


def _union_jack_mesh(n):
    """An n x n grid of cells whose diagonals alternate like a chequer
    board, so interior nodes touch four or eight triangles."""
    m = mesh.build_structured(n, n)
    tri = m.triangles.copy()
    n00, n11 = tri[0::2, 0], tri[0::2, 1] + (n + 1)
    n10, n01 = n00 + 1, n00 + (n + 1)
    i, j = np.meshgrid(np.arange(n), np.arange(n))
    flip = ((i + j).ravel() % 2 == 1)
    tri[0::2][flip] = np.column_stack([n00, n10, n01])[flip]
    tri[1::2][flip] = np.column_stack([n10, n11, n01])[flip]
    return dataclasses.replace(m, triangles=tri)


def _edge_forms(kind, rng):
    """Neumann forms on a 7 x 5 structured mesh, on that mesh with its
    triangles shuffled and rotated, or on a 6 x 6 chequer-board mesh of
    node valence up to eight."""
    m = mesh.build_structured(7, 5)
    if kind == "rotated":
        m = _rotated_mesh(m, rng)
    elif kind == "union jack":
        m = _union_jack_mesh(6)
    return fem.assemble(m, bc="neumann_natural")


def test_midpoint_values_linear_exact(unit_mesh_4, neumann_forms_4):
    # edge q of every triangle runs from its vertex q to vertex q + 1, and
    # its midpoint value is the field's value at the geometric midpoint
    forms = neumann_forms_4
    v = 3.0 * unit_mesh_4.nodes[:, 0] - unit_mesh_4.nodes[:, 1]
    mids = forms.midpoint_values(v)
    p = unit_mesh_4.nodes[unit_mesh_4.triangles]
    mx = 0.5 * (p[:, :, 0] + np.roll(p[:, :, 0], -1, axis=1))
    my = 0.5 * (p[:, :, 1] + np.roll(p[:, :, 1], -1, axis=1))
    edges = forms._triangle_edges
    assert np.array_equal(forms.midpoints[0, edges], mx)
    assert np.array_equal(forms.midpoints[1, edges], my)
    assert mids[edges] == pytest.approx(3.0 * mx - my, abs=1e-13)


def test_stacked_midpoint_maps_are_the_rowwise_maps(unit_mesh_4,
                                                   neumann_forms_4, rng):
    # a (2, n) species stack goes through one call of each map, bit for bit
    # the per-species calls; the 1-D call read per triangle is the rolled
    # vertex average
    forms = neumann_forms_4
    U = rng.standard_normal((2, forms.n_dofs))
    uv = U[0][unit_mesh_4.triangles]
    assert np.array_equal(forms.midpoint_values(U[0])[forms._triangle_edges],
                          0.5 * (uv + np.roll(uv, -1, axis=1)))
    mids = forms.midpoint_values(U)
    assert np.array_equal(mids, np.stack([forms.midpoint_values(u)
                                          for u in U]))
    values = rng.standard_normal(mids.shape)
    assert np.array_equal(fem.load_from_midpoint_values(forms, values),
                          np.stack([fem.load_from_midpoint_values(forms, v)
                                    for v in values]))


@pytest.mark.parametrize("lead", [(), (2,), (4, 2)])
def test_midpoint_kernels_are_the_dense_rule(rng, dense_midpoint_rule, lead):
    # with E the midpoint interpolation and w the weights area / 3 of the
    # (triangle, edge) midpoints, midpoint values read per triangle are E u
    # and loads E^T (w v) for v read per triangle, for every leading row
    for kind in ("structured", "rotated", "union jack"):
        forms = _edge_forms(kind, rng)
        E, w = dense_midpoint_rule(forms)
        edges = forms._triangle_edges.ravel()
        U = rng.standard_normal(lead + (forms.n_dofs,))
        mids = forms.midpoint_values(U)
        assert mids.shape == lead + (forms.n_edges,)
        assert np.abs(mids[..., edges] - U @ E.T).max() \
            <= 1e-15 * np.abs(U).max()
        V = rng.standard_normal(lead + (forms.n_edges,))
        loads = fem.load_from_midpoint_values(forms, V)
        want = (w * V[..., edges]) @ E
        assert loads.shape == lead + (forms.n_dofs,)
        assert np.abs(loads - want).max() <= 1e-14 * np.abs(want).max()


def _bincount_loads(forms, values):
    """The load kernel as a ``bincount`` over the nodes the edge midpoints'
    contributions land on, edge by edge and each edge's lower node first,
    with the node indices of leading row r offset by r n_dofs; the edge
    weights are area/6 summed over the edge's triangles."""
    tri_edges = forms._triangle_edges.ravel()
    weights = np.bincount(tri_edges, weights=np.repeat(forms.areas / 6.0, 3),
                          minlength=forms.n_edges)
    w = weights * np.asarray(values, dtype=float)
    lead, n = w.shape[:-1], forms.n_dofs
    rows = math.prod(lead)
    nodes = forms._edge_nodes.T.ravel() + n * np.arange(rows)[:, None]
    return np.bincount(nodes.ravel(), weights=np.repeat(w, 2, axis=-1).ravel(),
                       minlength=rows * n).reshape(lead + (n,))


@pytest.mark.parametrize("kind, degree", [("structured", 6), ("rotated", 6),
                                          ("union jack", 8)])
def test_midpoint_kernels_are_the_edgewise_bincount(kind, degree, rng):
    # the gathers reproduce the edge average and the edge-wise bincount
    # loads bit for bit, for any triangle and vertex order and a node
    # valence above six; every edge is listed once, with its lower node
    # first
    forms = _edge_forms(kind, rng)
    m = forms.mesh
    assert forms._node_edges.shape == (degree, m.n_nodes)
    e0, e1 = forms._edge_nodes
    assert (e0 < e1).all()
    keys = e0 * m.n_nodes + e1
    assert (np.diff(keys) > 0).all()
    for lead in [(), (2,), (4, 2)]:
        U = rng.standard_normal(lead + (m.n_nodes,))
        mids = forms.midpoint_values(U)
        assert np.array_equal(mids.view(np.int64),
                              (0.5 * (U[..., e0] + U[..., e1])).view(np.int64))
        V = rng.standard_normal(lead + (forms.n_edges,))
        assert np.array_equal(
            fem.load_from_midpoint_values(forms, V).view(np.int64),
            _bincount_loads(forms, V).view(np.int64))


@pytest.mark.parametrize("nx", [4, 24])
def test_structured_mesh_has_one_midpoint_per_edge(nx):
    # nx^2 cells of two triangles have 3 nx^2 + 2 nx edges, against the
    # 6 nx^2 (triangle, edge) pairs, and at most six edges meet at a node
    forms = fem.assemble(mesh.build_structured(nx, nx))
    assert forms.midpoint_values(np.zeros(forms.n_dofs)).shape \
        == (3 * nx * nx + 2 * nx,)
    assert forms._node_edges.shape == (6, forms.n_dofs)


def test_load_vector_names_the_first_bad_midpoint(neumann_forms_4):
    # a non-finite source names t and the (x, y) of the first edge midpoint,
    # in edge order, where it is not finite
    def f(t, x, y):
        return np.where(x + y > 1.2, np.nan, 1.0)

    forms = neumann_forms_4
    mx, my = forms.midpoints
    bad = np.flatnonzero(mx + my > 1.2)
    assert bad.size > 1
    x, y = mx[bad[0]], my[bad[0]]
    ends = forms.mesh.nodes[forms._edge_nodes[:, bad[0]]]
    assert (x, y) == tuple(0.5 * (ends[0] + ends[1]))
    with pytest.raises(ValueError, match=re.escape(
            f"source term is not finite at t=0.25, (x, y)=({x}, {y})")):
        fem.load_vector(forms, f, 0.25)


def test_load_from_midpoint_values_consistent(unit_mesh_4, neumann_forms_4):
    # Midpoint-sampled P1 data integrated against the hat functions agrees
    # with the assembled mass matrix because both use degree-2 exact rules.
    g = unit_mesh_4.nodes[:, 0] * 2.0 + 1.0
    vals = neumann_forms_4.midpoint_values(g)
    b = fem.load_from_midpoint_values(neumann_forms_4, vals)
    assert b == pytest.approx(neumann_forms_4.mass.matvec(g), abs=1e-13)


def test_difference_norms_reproduces_p1(unit_mesh_4, neumann_forms_4):
    u_fn = lambda t, x, y: 2.0 * x + 3.0 * y + 1.0
    grad_fn = lambda t, x, y: (np.full_like(x, 2.0), np.full_like(x, 3.0))
    u = u_fn(0.0, unit_mesh_4.nodes[:, 0], unit_mesh_4.nodes[:, 1])
    el2, eh1, rl2, rh1 = fem.difference_norms(neumann_forms_4, u, u_fn,
                                              grad_fn, 0.0)
    assert el2 <= 1e-13 and eh1 <= 1e-13
    assert rh1 == pytest.approx(np.sqrt(13.0), abs=1e-12)

