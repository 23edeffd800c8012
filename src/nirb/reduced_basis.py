"""Reduced basis construction from solution trajectories: the H1 proper
orthogonal decomposition and the one basis builder, the hierarchical H1
POD, which returns L2-orthonormal modes, orthonormalized against their mass
Gram by Cholesky QR applied twice (``mass_orthonormalize``).

A basis is built in two stages: a per-run preparation that does not depend
on which other runs are in the set (``h1_rows``, each run's own H1 POD),
and one POD of the pooled prepared rows (``hierarchical_pod``), which reads
only those rows.  The offline sweep prepares each fine run in the worker
that solved it, and a caller that builds many bases from one training set,
as leave-one-out does, hands the prepared rows of the runs it holds in to
every build."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from nirb.linalg import _lower_inverse, blocked_matmul, cholesky, sym_eig

log = logging.getLogger(__name__)

@dataclass
class ReducedBasis:
    """L2-orthonormal modes stored as rows of ``modes``: plain data, checked
    on construction to have a width that is a positive multiple of the
    mesh size.

    Multi-component fields stack their components along the mode axis, with
    all inner products taken blockwise; the field count is read off the mode
    width and the mesh, and ``provenance`` records how the basis was
    selected."""

    mesh: object
    modes: np.ndarray                     # (N, n_fields * n_nodes)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        shape, n = np.shape(self.modes), self.mesh.n_nodes
        if len(shape) != 2 or shape[1] < n or shape[1] % n:
            raise ValueError(f"modes of shape {shape}, expected (N, a "
                             f"positive multiple of {n})")

    @property
    def N(self):
        return self.modes.shape[0]

    @property
    def n_fields(self):
        return self.modes.shape[1] // self.mesh.n_nodes


def block_matvec(mat, U):
    """Apply a nodal matrix to every component block of the last axis: U of
    shape (..., n_fields * n) is viewed as (..., n_fields, n), n the matrix
    size, and multiplied in one product; the result has the shape of U."""
    U = np.asarray(U, dtype=float)
    return mat.matvec(U.reshape(U.shape[:-1] + (-1, mat.n))).reshape(U.shape)


def mass_inner(forms, U, V):
    """Blockwise L2 inner products; U (..., d) against V (k, d) -> (..., k)."""
    return np.asarray(U) @ block_matvec(forms.mass, np.asarray(V)).T


def pod(snapshots, forms, keep):
    """Proper orthogonal decomposition in the H1 inner product, the
    blockwise mass plus stiffness form.

    ``keep`` is a mode count, further limited by the numerical rank: Gram
    eigenvalues at or below k eps ||G||_F for k snapshots, the accuracy of
    ``sym_eig``, are roundoff and count as zero, so sigma_i / sigma_1 is
    either 0 or above sqrt(k eps).  Returns (modes, singular_values) with
    one singular value per snapshot and the modes H1-orthonormal up to
    eigensolver accuracy; callers that need exact L2 orthonormality
    re-orthogonalize.  Eigenvectors are computed only up to ``keep``.  An
    all-zero snapshot set yields zero modes with a warning.

    The Gram matrix and the mode product are formed by ``blocked_matmul``
    at every snapshot count, one trajectory's or a pooled set's: as one
    product OpenBLAS may hand either to a second thread, which then
    spin-waits for about 0.13 s of CPU time after the call."""
    S = np.asarray(snapshots, dtype=float)
    if S.ndim != 2 or S.shape[0] == 0:
        raise ValueError(f"need a (k, d) snapshot array, got shape {S.shape}")
    W = block_matvec(forms.mass.lincomb(forms.stiffness, 1.0, 1.0), S)
    G = blocked_matmul(S, W.T)
    top = max(min(S.shape[0], int(keep)), 0)
    lam, V = sym_eig(0.5 * (G + G.T), top=top)
    lam = lam[::-1]
    V = V[:, ::-1]
    noise = S.shape[0] * np.finfo(float).eps * np.sqrt((G * G).sum())
    lam[lam <= noise] = 0.0
    sig = np.sqrt(np.clip(lam, 0.0, None))
    if sig[0] == 0.0:
        log.warning("POD of an all-zero snapshot set: returning zero modes")
        return np.zeros((0, S.shape[1])), sig
    k = min(int((sig > 0.0).sum()), top)
    return blocked_matmul(V[:, :k].T, S) / sig[:k, None], sig


def mass_orthonormalize(rows, forms):
    """The rows of ``rows`` made L2-orthonormal by Cholesky QR in the
    blockwise mass inner product, applied twice (CholeskyQR2, Yamamoto,
    Nakatsukasa, Yanagisawa & Fukaya, ETNA 44, 2015): each pass forms the
    rows' mass Gram G = L L^T (``linalg.cholesky``) and replaces the rows
    by L^{-1} times them.  The result spans the same space with the same
    leading subspaces as row-by-row Gram-Schmidt, which it equals in exact
    arithmetic; the second pass brings the Gram to the identity up to
    rounding when the first Gram's condition number is below about
    1/sqrt(eps).  A Gram that is not positive definite raises the
    ``ValueError`` of ``linalg.cholesky``."""
    Q = np.asarray(rows, dtype=float)
    for _ in range(2):
        G = mass_inner(forms, Q, Q)
        Q = _lower_inverse(cholesky(G)) @ Q
    return Q


def h1_rows(values, forms, n_max):
    """One training run's preparation for ``hierarchical_pod``: the H1 POD
    of its ``values``, at most ``n_max`` directions weighted by their
    singular values, as rows; an all-zero run has none."""
    modes, sig = pod(values, forms, n_max)
    return modes * sig[:len(modes), None]


def hierarchical_pod(rows, forms, n_max):
    """One H1 POD over every snapshot of every training trajectory, read
    from the trajectories' prepared rows: ``rows`` holds each run's
    ``h1_rows`` array, in run order, and the basis lives on ``forms.mesh``.

    Each trajectory is reduced by its own POD to at most ``n_max``
    directions, reweighted by their singular values, and one POD of the
    pooled survivors, truncated at ``n_max``, is the result.  The
    provenance records the pooled row count and the pooled POD's singular
    values (``spectrum``, one per pooled row, non-increasing), so what the
    truncation kept and dropped can be read off a saved basis.  The
    reweighted directions carry the second moment of their trajectory, so
    this reproduces the pooled POD closely, and exactly when every
    trajectory has rank at most ``n_max``.

    The H1 inner product ranks directions by mass plus stiffness energy.
    Spatially sharp, low-amplitude features, such as the boundary layers
    that form when an initial state violates a Neumann condition, carry far
    more stiffness energy than mass energy, so they survive a truncation
    that would drop them under a pure L2 ranking.  The output is
    re-orthonormalized in L2 by ``mass_orthonormalize`` (Cholesky QR of
    the modes' mass Gram, twice), so the basis invariants apply unchanged;
    a mass Gram that is not positive definite raises a ``RuntimeError``.
    All-zero runs have no prepared rows, and with nothing pooled, or
    nothing above roundoff in the pooled rows, the basis has no modes."""
    if not rows:
        raise ValueError("empty training set")
    pooled = np.vstack(rows)
    modes, sig = (pod(pooled, forms, n_max) if len(pooled)
                  else (pooled, np.zeros(0)))
    if len(modes):
        try:
            modes = mass_orthonormalize(modes, forms)
        except ValueError as exc:
            raise RuntimeError(f"hierarchical_pod could not L2-orthonormalize "
                               f"its {len(modes)} modes: {exc}") from exc
    return ReducedBasis(
        mesh=forms.mesh, modes=modes,
        provenance={"algorithm": "hierarchical_pod",
                    "pooled_rows": int(pooled.shape[0]),
                    "spectrum": [float(s) for s in sig]})


def mass_weighted_modes(basis, forms):
    """The modes under the blockwise mass matrix of ``forms``, as columns:
    shape (n_fields * n_nodes, N)."""
    return block_matvec(forms.mass, basis.modes).T


def coefficients(basis, forms, values):
    """L2 coefficients of (rows of) ``values`` in the basis."""
    return np.asarray(values) @ mass_weighted_modes(basis, forms)


def reconstruct(basis, coeffs):
    """Nodal fields from coefficient rows."""
    return np.asarray(coeffs) @ basis.modes
