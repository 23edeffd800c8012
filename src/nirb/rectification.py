"""Lifting of coarse trajectories to the fine discretization, and the
per-time-index rectification: small regularized least-squares maps that send
lifted coarse coefficients to fine-solution coefficients.

The lift-projection operator Phi (``lift_projection``) is a pure function of
the basis, the fine forms and the coarse mesh, and the time weights W
(``time_interp.quadratic_weights``) a pure function of the coarse and fine
time grids.
The fitted artifacts own both: ``pipeline.fit`` and ``io.load_artifacts``
build them once, and the fit and every online query take them as
arguments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nirb.integrators import FieldTrajectory
from nirb.linalg import dominant_eigenvalue, solve_regularized_normal
from nirb.mesh import interpolate_field, transfer_operator
from nirb.reduced_basis import mass_weighted_modes
from nirb.time_interp import quadratic_time_interp


@dataclass
class RectificationTensor:
    """One N-by-N map per fine time index, applied as c -> R[n] @ c.

    ``deltas`` records the Tikhonov parameter actually used at each index.
    When delta is zero and the coefficient matrix is square and nonsingular,
    the maps reproduce the fine training coefficients exactly."""

    matrices: np.ndarray   # (n_times, N, N)
    deltas: np.ndarray     # (n_times,)

    @property
    def N(self):
        return self.matrices.shape[1]

    @property
    def n_times(self):
        return self.matrices.shape[0]


def lift_coarse(coarse_traj, fine_mesh, fine_grid):
    """Coarse trajectory carried to the fine discretization: quadratic time
    interpolation, then P1 interpolation in space of the values viewed as
    (knots, n_fields, n_coarse), every species in one call."""
    lifted = quadratic_time_interp(coarse_traj, fine_grid)
    knots = lifted.values.reshape(len(lifted.values), -1, lifted.mesh.n_nodes)
    values = interpolate_field(lifted.mesh, knots, fine_mesh)
    return FieldTrajectory(mesh=fine_mesh, grid=fine_grid,
                           values=values.reshape(len(values), -1),
                           parameter=coarse_traj.parameter)


def lift_projection(basis, forms, coarse_mesh):
    """The operator Phi, shape (n_fields * n_coarse, N), that sends coarse
    nodal values to the L2 coefficients of their P1 lift in the basis:
    Phi = P^T M modes^T per field, with P the P1 interpolation from
    ``coarse_mesh`` to the basis mesh (``mesh.transfer_operator``) and M the
    mass matrix of ``forms``, every field's block in one ``bincount`` with
    the coarse node indices of field f offset by f n_coarse."""
    idx, w = transfer_operator(coarse_mesh, basis.mesh.nodes)
    n, N, F = coarse_mesh.n_nodes, basis.N, basis.n_fields
    rows = idx + n * np.arange(F)[:, None, None]  # (F, n_fine, 3)
    slots = (rows[..., None] * N + np.arange(N)).ravel()
    modes = mass_weighted_modes(basis, forms).reshape(F, -1, 1, N)
    return np.bincount(slots, weights=(w[:, :, None] * modes).ravel(),
                       minlength=F * n * N).reshape(F * n, N)


def coarse_to_fine_coefficients(coarse_traj, lift, weights):
    """Coefficients of a coarse trajectory after lifting it to the basis
    mesh and the fine grid, by L2 projection onto the modes: W (U Phi) for
    the coarse values U, the lift-projection operator ``lift`` (Phi) of the
    coarse trajectory's mesh and the time weights ``weights`` (W) from its
    grid to the fine one.  The same linear map as ``lift_coarse`` followed
    by ``reduced_basis.coefficients``, with the products associated so that
    nothing of fine-mesh size is touched per call: the values are projected
    onto the N modes at the coarse knots before the time interpolation, so
    W multiplies N columns, not n_fields n_coarse.  The coarse run forms
    U Phi (``FieldTrajectory.values_times``): a heat run reads it off its
    modal states as Z (V^T Phi_free) without forming U, any other run as
    its values times Phi."""
    return weights @ coarse_traj.values_times(lift)


def build_rectification(fine_trajs, coarse_trajs, basis, forms, lift,
                        weights, delta_mode="relative", delta_value=1e-10):
    """Fit the rectification maps from matched fine/coarse training runs.

    fine_trajs and coarse_trajs map the same parameters (same order) to
    trajectories, ``lift`` is the basis's lift-projection operator for the
    coarse mesh and ``weights`` the time weights from the coarse grid to the
    fine one (see ``coarse_to_fine_coefficients``).  At every fine time
    index n the rows of A hold the lifted coarse coefficients and the rows
    of B the fine coefficients; column i of the normal-equation solve gives
    the map weights for mode i, and the transpose is stored so application
    is a plain matrix-vector product.

    The Tikhonov parameter follows the config's rule: delta_mode 'relative'
    takes delta_value * sigma_1(A^T A) at each time index, 'absolute' takes
    delta_value itself (zero triggers an invertibility screen and fails
    loudly on rank deficiency); any other mode raises ``ValueError``."""
    if delta_mode not in ("relative", "absolute"):
        raise ValueError(f"unknown delta_mode {delta_mode!r}")
    fine_keys = list(fine_trajs.keys())
    coarse_keys = list(coarse_trajs.keys())
    if fine_keys != coarse_keys:
        raise ValueError("fine and coarse training parameter sets differ")
    if basis.N == 0:
        raise ValueError("cannot rectify with an empty basis")

    A = np.stack([coarse_to_fine_coefficients(coarse_trajs[p], lift, weights)
                  for p in fine_keys], axis=1)  # (n_times, k, N)
    weighted = mass_weighted_modes(basis, forms)
    B = np.stack([fine_trajs[p].values @ weighted for p in fine_keys], axis=1)

    n_times, _, N = A.shape
    mats = np.empty((n_times, N, N))
    deltas = np.empty(n_times)
    for n in range(n_times):
        An, Bn = A[n], B[n]
        if delta_mode == "relative":
            d = delta_value * dominant_eigenvalue(An.T @ An)
        else:
            d = float(delta_value)
        try:
            cols = solve_regularized_normal(An, Bn, d)
        except ValueError as exc:
            raise ValueError(f"time index {n}: {exc}") from exc
        mats[n] = cols.T
        deltas[n] = d
    return RectificationTensor(matrices=mats, deltas=deltas)


def apply_rectification(tensor, coeffs):
    """Apply the per-time-index maps to coefficient rows."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (tensor.n_times, tensor.N):
        raise ValueError(
            f"coefficients have shape {coeffs.shape}, expected "
            f"({tensor.n_times}, {tensor.N})")
    return np.einsum("nij,nj->ni", tensor.matrices, coeffs)
