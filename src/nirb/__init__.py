"""Two-grid reduced-basis toolkit for parabolic problems.

Offline, a fine P1 finite element solver samples the parameter space and a
small L2-orthonormal basis is distilled from the snapshots; online, a cheap
coarse solve is lifted in time and space, projected onto the basis, and
optionally corrected by per-time-step rectification maps fitted on the
training runs."""

from nirb.config import StudyConfig, load_config
from nirb.fem import assemble, norms
from nirb.integrators import (FieldTrajectory, TimeGrid, brusselator_trajectory,
                              heat_backward_euler, heat_crank_nicolson)
from nirb.mesh import TriMesh, build_structured, interpolate_field
from nirb.models import (AnalyticReference, BrusselatorProblem, manufactured_f,
                         manufactured_u)
from nirb.pipeline import (Discretization, ErrorReport, OfflineArtifacts,
                           OnlineResult, convergence_study, discretize,
                           evaluate_errors, leave_one_out, offline, online,
                           solve_coarse, solve_fine)
from nirb.rectification import (RectificationTensor, apply_rectification,
                                build_rectification)
from nirb.reduced_basis import ReducedBasis, pod

__version__ = "0.1.0"

__all__ = [
    "AnalyticReference", "BrusselatorProblem", "Discretization",
    "ErrorReport", "FieldTrajectory",
    "OfflineArtifacts", "OnlineResult", "RectificationTensor",
    "ReducedBasis", "StudyConfig", "TimeGrid", "TriMesh",
    "apply_rectification", "assemble", "brusselator_trajectory",
    "build_rectification", "build_structured", "convergence_study",
    "discretize", "evaluate_errors", "heat_backward_euler",
    "heat_crank_nicolson", "interpolate_field", "leave_one_out",
    "load_config", "manufactured_f", "manufactured_u", "norms", "offline",
    "online", "pod", "solve_coarse", "solve_fine",
]
