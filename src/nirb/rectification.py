"""Lifting of coarse trajectories to the fine discretization, and the
per-time-index rectification: small regularized least-squares maps that send
lifted coarse coefficients to fine-solution coefficients.

The lift has two operators: the time weights W (``quadratic_weights``), a
pure function of the coarse and fine time grids, and the lift-projection
operator Phi (``lift_projection``), a pure function of the basis, the fine
forms and the coarse mesh.
The artifacts own both (``pipeline.OfflineArtifacts.time_weights`` and
``lift``, derived on first use and kept): every lift, online query and fit
takes them as arguments, so W is built in one place.

The maps are fitted at every fine time index at once
(``build_rectification``), each with the Tikhonov parameter delta_value
times ||A_n||_F^2, the trace of its normal matrix, in closed form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nirb.integrators import FieldTrajectory
from nirb.linalg import solve_regularized_normal
from nirb.mesh import interpolate_field
from nirb.reduced_basis import mass_weighted_modes


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


def quadratic_weights(source, target):
    """The matrix W, shape (target.steps + 1, source.steps + 1), of
    piecewise-parabolic resampling from the uniform grid ``source`` onto
    ``target``: values at the source knots become W times them.

    For a target time in the source interval (t_{m-1}, t_m] row i holds the
    Lagrange weights of the parabola through the source knots m-2, m-1, m;
    the first interval borrows the parabola through knots 0, 1, 2.  Targets
    are binned half-open on the left with the final time closed, and values
    at shared knots are reproduced exactly.  The source grid needs at least
    two steps and both grids must span the same window."""
    if source.steps < 2:
        raise ValueError("quadratic interpolation needs at least two source steps")
    span = source.T - source.t0
    if (abs(target.t0 - source.t0) > 1e-12 * span
            or abs(target.T - source.T) > 1e-12 * span):
        raise ValueError(
            f"time windows differ: source [{source.t0}, {source.T}], "
            f"target [{target.t0}, {target.T}]")

    tt = source.times()
    tf = target.times()
    w = (tf - source.t0) / source.dt
    m = np.clip(np.floor(w).astype(np.int64) + 1, 1, source.steps)
    mp = np.maximum(m, 2)

    ta, tb, tc = tt[mp - 2], tt[mp - 1], tt[mp]
    W = np.zeros((tf.size, tt.size))
    rows = np.arange(tf.size)
    W[rows, mp - 2] = (tf - tb) * (tf - tc) / ((ta - tb) * (ta - tc))
    W[rows, mp - 1] = (tf - ta) * (tf - tc) / ((tb - ta) * (tb - tc))
    W[rows, mp] = (tf - ta) * (tf - tb) / ((tc - ta) * (tc - tb))
    return W


def lift_coarse(coarse_traj, coarse_forms, fine, weights):
    """Coarse trajectory carried to the fine discretization ``fine`` (its
    mesh and grid): the time weights ``weights`` (W of
    ``quadratic_weights`` from its grid to the fine one) times its values,
    then P1 interpolation in space of the result viewed as (knots,
    n_fields, n_coarse), every species in one call, through the transfer
    that the forms of its mesh, ``coarse_forms``, keep for the fine mesh
    (``AssembledForms.transfer_to``)."""
    coarse_mesh = coarse_forms.mesh
    knots = (weights @ coarse_traj.values).reshape(
        len(weights), -1, coarse_mesh.n_nodes)
    values = interpolate_field(coarse_mesh, knots, fine.mesh,
                               coarse_forms.transfer_to(fine.mesh))
    return FieldTrajectory(mesh=fine.mesh, grid=fine.grid,
                           values=values.reshape(len(values), -1),
                           parameter=coarse_traj.parameter)


def lift_projection(basis, forms, coarse_forms):
    """The operator Phi, shape (n_fields * n_coarse, N), that sends coarse
    nodal values to the L2 coefficients of their P1 lift in the basis:
    Phi = P^T M modes^T per field, with P the P1 interpolation from the
    mesh of ``coarse_forms`` to the basis mesh (the transfer those forms
    keep, ``AssembledForms.transfer_to``) and M the mass matrix of
    ``forms``, every field's block in one ``bincount`` with the coarse
    node indices of field f offset by f n_coarse."""
    idx, w = coarse_forms.transfer_to(basis.mesh)
    n, N, F = coarse_forms.n_dofs, basis.N, basis.n_fields
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
    modal states without forming U, any other run as its values times
    Phi."""
    return weights @ coarse_traj.values_times(lift)


def build_rectification(lifted, fine, delta_value=1e-10):
    """Fit the rectification maps on matched coefficient stacks of shape
    (n_times, k, N), one column per training run: ``lifted`` holds each
    run's lifted coarse coefficients (``coarse_to_fine_coefficients``) and
    ``fine`` its fine coefficients, in the same run order.  At every fine
    time index n the rows of A = lifted[n] and B = fine[n] pair up; column
    i of the normal-equation solve gives the map weights for mode i, and
    the transpose is stored so application is a plain matrix-vector
    product.  Every time index is fitted at once: one batched
    ``solve_regularized_normal`` over the stack.

    The Tikhonov parameter at each time index is delta_value *
    ||A||_F^2, the trace of A^T A, which lies between its largest
    eigenvalue and N times it, so the regularization is relative to the
    scale of the normal matrix without an eigensolve; delta_value = 0
    gives delta = 0, which triggers an invertibility screen and fails
    loudly on rank deficiency.  A failing solve names its time index."""
    A, B = np.asarray(lifted, dtype=float), np.asarray(fine, dtype=float)
    if A.ndim != 3 or A.shape != B.shape or 0 in A.shape:
        raise ValueError(f"lifted and fine coefficient stacks of shapes "
                         f"{A.shape} and {B.shape}, expected one nonempty "
                         f"(n_times, k, N) shape")
    deltas = delta_value * (A * A).sum(axis=(1, 2))
    cols = solve_regularized_normal(
        A, B, deltas, [f"time index {n}" for n in range(A.shape[0])])
    return RectificationTensor(matrices=cols.transpose(0, 2, 1).copy(),
                               deltas=deltas)


def apply_rectification(tensor, coeffs):
    """Apply the per-time-index maps to coefficient rows."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (tensor.n_times, tensor.N):
        raise ValueError(
            f"coefficients have shape {coeffs.shape}, expected "
            f"({tensor.n_times}, {tensor.N})")
    return np.einsum("nij,nj->ni", tensor.matrices, coeffs)
