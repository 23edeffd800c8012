import os

import numpy as np
import pytest

from nirb import fem, integrators, mesh


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which a child process is still running or was
    never reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process outlived the test"
                + (f": pid {pid}, reaped here" if pid else ", still running"))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def unit_mesh_4():
    return mesh.build_structured(4, 4)


@pytest.fixture(scope="session")
def neumann_forms_4(unit_mesh_4):
    return fem.assemble(unit_mesh_4, bc="neumann_natural")


@pytest.fixture(scope="session")
def dirichlet_forms_4(unit_mesh_4):
    return fem.assemble(unit_mesh_4, bc="dirichlet_zero")


@pytest.fixture(scope="session")
def dense_midpoint_rule():
    """The three-midpoint rule in dense form, one point per (triangle,
    edge) pair: for a form set, E, the midpoint interpolation as a
    (3 n_tris, n) matrix with rows in (n_tris, 3) order, edge q of a
    triangle from its vertex q to vertex q + 1, and w, the weights area / 3
    in the same order, so the weighted mass matrix of coefficients c is
    E^T diag(w c) E."""
    def rule(forms):
        tri = forms.mesh.triangles
        n_tris = tri.shape[0]
        E = np.zeros((n_tris, 3, forms.n_dofs))
        for q in range(3):
            E[np.arange(n_tris), q, tri[:, q]] += 0.5
            E[np.arange(n_tris), q, tri[:, (q + 1) % 3]] += 0.5
        return (E.reshape(3 * n_tris, forms.n_dofs),
                np.repeat(forms.areas / 3.0, 3))
    return rule


@pytest.fixture(scope="session")
def dense_heat_march():
    """The heat march from rest at t = 0 solved by one dense solve per step:
    ``march(forms, mu, f, grid, scheme)`` gives the nodal values of the
    window ``grid`` under implicit Euler ('euler') or the trapezoidal rule
    with the source at the half step ('cn'), led in from t = 0 to t0 > 0 by
    implicit-Euler steps of theta dt (theta 1 for 'euler', 1/2 for 'cn')."""
    def march(forms, mu, f, grid, scheme):
        free = forms.free_dofs
        Mff, Kff = forms.mass_free(), forms.stiffness_free()
        theta = 1.0 if scheme == "euler" else 0.5
        legs = [(grid, theta)]
        if grid.t0 != 0.0:
            lead_steps = round(grid.t0 / (theta * grid.dt))
            legs.insert(0, (integrators.TimeGrid(0.0, grid.t0, lead_steps),
                            1.0))
        uf = np.zeros(free.size)
        for g, th in legs:
            lhs = Mff.lincomb(Kff, 1.0, th * g.dt * mu).to_dense()
            rhs_mat = Mff.lincomb(Kff, 1.0, (th - 1.0) * g.dt * mu)
            rows = [uf]
            for t in g.times()[1:]:
                t_src = t - (1.0 - th) * g.dt
                rhs = rhs_mat.matvec(uf) \
                    + g.dt * fem.load_vector(forms, f, t_src)[free]
                uf = np.linalg.solve(lhs, rhs)
                rows.append(uf)
        values = np.zeros((grid.steps + 1, forms.n_dofs))
        values[:, free] = rows
        return values
    return march


def mass_gram(forms, U, V):
    """Plain L2 Gram matrix of stacked single-field rows, for checks."""
    return U @ np.stack([forms.mass.matvec(v) for v in V]).T


@pytest.fixture(scope="session")
def small_heat_text():
    """Config text of a small heat study: 8^2/4^2 meshes, 8/4 steps and four
    training values of mu."""
    return ("problem = heat\n"
            "train_mu = 0.5,3.0,6.0,9.5\n"
            "fine_nx = 8\n"
            "coarse_nx = 4\n"
            "fine_steps = 8\n"
            "coarse_steps = 4\n")


@pytest.fixture(scope="session")
def small_rd_text():
    """Config text of a small reaction-diffusion study: 8^2/4^2 meshes, 8/4
    steps, four training triples and N=4."""
    return ("problem = brusselator\n"
            "t0 = 0.0\n"
            "T = 1.0\n"
            "train_a = 2.0,3.0\n"
            "train_b = 1.0,2.0\n"
            "train_alpha = 0.002\n"
            "fine_nx = 8\n"
            "coarse_nx = 4\n"
            "fine_steps = 8\n"
            "coarse_steps = 4\n"
            "n_max = 4\n")
