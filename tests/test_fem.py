import numpy as np
import pytest

from nirb import fem, mesh, models
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
    M = neumann_forms_4.mass
    n_mid = neumann_forms_4.mesh.n_triangles
    W = neumann_forms_4.weighted_mass(np.ones((1, n_mid, 3)))
    assert W.shape == (1,) + M.vals.shape
    assert W[0] == pytest.approx(M.vals, abs=1e-13)


def test_weighted_mass_matches_dense_quadrature(neumann_forms_4, rng,
                                                dense_midpoint_rule):
    # each stacked coefficient field gets its own matrix, in the slot layout
    # of the mass matrix (the constructor checks its invariants)
    forms, M = neumann_forms_4, neumann_forms_4.mass
    C = rng.standard_normal((3, forms.mesh.n_triangles, 3))
    W = forms.weighted_mass(C)
    assert W.shape == (3,) + M.vals.shape
    E, w = dense_midpoint_rule(forms)
    for k in range(3):
        want = E.T @ ((w * C[k].ravel())[:, None] * E)
        got = SparseSym(M.n, M.cols, W[k]).to_dense()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(forms.weighted_mass(C[k:k + 1])[0], W[k])
    with pytest.raises(ValueError):
        forms.weighted_mass(C[0])


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


def test_midpoint_values_linear_exact(unit_mesh_4, neumann_forms_4):
    v = 3.0 * unit_mesh_4.nodes[:, 0] - unit_mesh_4.nodes[:, 1]
    mids = neumann_forms_4.midpoint_values(v)
    p = unit_mesh_4.nodes[unit_mesh_4.triangles]
    mx = 0.5 * (p[:, :, 0] + np.roll(p[:, :, 0], -1, axis=1))
    my = 0.5 * (p[:, :, 1] + np.roll(p[:, :, 1], -1, axis=1))
    assert mids == pytest.approx(3.0 * mx - my, abs=1e-13)


def test_stacked_midpoint_maps_are_the_rowwise_maps(unit_mesh_4,
                                                   neumann_forms_4, rng):
    # a (2, n) species stack goes through one call of each map, bit for bit
    # the per-species calls; the 1-D call is the rolled vertex average
    forms = neumann_forms_4
    U = rng.standard_normal((2, forms.n_dofs))
    uv = U[0][unit_mesh_4.triangles]
    assert np.array_equal(forms.midpoint_values(U[0]),
                          0.5 * (uv + np.roll(uv, -1, axis=1)))
    mids = forms.midpoint_values(U)
    assert np.array_equal(mids, np.stack([forms.midpoint_values(u)
                                          for u in U]))
    values = rng.standard_normal(mids.shape)
    assert np.array_equal(fem.load_from_midpoint_values(forms, values),
                          np.stack([fem.load_from_midpoint_values(forms, v)
                                    for v in values]))


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


def test_ritz_projection_zero(dirichlet_forms_4):
    proj = fem.ritz_projection(dirichlet_forms_4,
                               lambda x, y: (np.zeros_like(x), 0.0))
    assert np.abs(proj).max() == 0.0


@pytest.mark.parametrize("n", [8, 16])
def test_ritz_projection_matches_dense_solve(n):
    # g_i = integral of grad u . grad phi_i by the three-midpoint rule, with
    # grad phi_i from the inverse Jacobian of each triangle, then a dense
    # solve of K_free x = g_free
    m = mesh.build_structured(n, n)
    forms = fem.assemble(m, bc="dirichlet_zero")
    grad = lambda x, y: models.manufactured_grad(1.0, x, y)
    p = m.nodes[m.triangles]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    area = 0.5 * np.abs(np.linalg.det(J))
    hat_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) \
        @ np.linalg.inv(J)
    mid = 0.5 * (p + np.roll(p, -1, axis=1))
    gx, gy = grad(mid[..., 0], mid[..., 1])
    mean_grad = np.stack([gx.mean(axis=1), gy.mean(axis=1)], axis=-1)
    contrib = area[:, None] * (hat_grads @ mean_grad[..., None])[..., 0]
    g = np.bincount(m.triangles.ravel(), weights=contrib.ravel(),
                    minlength=m.n_nodes)
    free = forms.free_dofs
    want = np.zeros(m.n_nodes)
    want[free] = np.linalg.solve(forms.stiffness_free().to_dense(), g[free])
    got = fem.ritz_projection(forms, grad)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_ritz_projection_impossible_tolerance_names_the_residual():
    forms = fem.assemble(mesh.build_structured(8, 8), bc="dirichlet_zero")
    with pytest.raises(RuntimeError, match=r"^Ritz projection: relative "
                                           r"residual \S+ exceeds 1.0e-20$"):
        fem.ritz_projection(
            forms, lambda x, y: models.manufactured_grad(1.0, x, y),
            cg_tol=1e-20)


def test_ritz_projection_gradient_rate():
    errs, hs = [], []
    for n in (8, 16, 32):
        m = mesh.build_structured(n, n)
        forms = fem.assemble(m, bc="dirichlet_zero")
        proj = fem.ritz_projection(
            forms, lambda x, y: models.manufactured_grad(1.0, x, y))
        _, eh1, _, rh1 = fem.difference_norms(
            forms, proj, models.manufactured_u, models.manufactured_grad, 1.0)
        errs.append(eh1 / rh1)
        hs.append(m.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2
