import numpy as np
import pytest

from nirb import fem, mesh


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
