"""Reduced basis construction from solution trajectories: proper orthogonal
decomposition and two builders, POD-greedy and the hierarchical H1 POD,
each returning L2-orthonormal modes.

Each builder reads its training runs in two stages: a per-run preparation
that does not depend on which other runs are in the set (``mass_products``
for ``pod_greedy``, ``h1_rows`` for the hierarchical POD), and the
selection over the set.  A caller that builds many bases from one training
set, as leave-one-out does, prepares each run once and hands the prepared
runs to every build."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from nirb.linalg import blocked_matmul, sym_eig

log = logging.getLogger(__name__)

# largest snapshot count whose Gram matrix ``pod`` forms by
# ``blocked_matmul``: at 1100-1250 columns the pieces take less wall time
# than one product up to about 40 rows, and twice as much from 64 on
_BLOCKED_GRAM_ROWS = 40


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


def l2_norms(forms, U):
    """Rowwise L2 norms of (stacked) nodal fields."""
    U = np.asarray(U, dtype=float)
    return _norms(U, block_matvec(forms.mass, U))


def _norms(U, MU):
    """Rowwise norms sqrt(u . M u) of the rows of U from their products MU
    with the inner product's matrix."""
    return np.sqrt(np.clip((U * MU).sum(-1), 0.0, None))


def pod(snapshots, forms, keep, inner="l2", n_max=None):
    """Proper orthogonal decomposition in the L2 or H1 inner product.

    ``keep`` is either a mode count (int), further limited by the numerical
    rank, or a relative singular value threshold (float): directions with
    sigma_i / sigma_1 > keep survive, at least one.  ``n_max`` caps the
    mode count of either kind.  Gram eigenvalues at or below k eps ||G||_F
    for k snapshots, the accuracy of ``sym_eig``, are roundoff and count as
    zero, so sigma_i / sigma_1 is either 0 or above sqrt(k eps).  Returns
    (modes, singular_values) with one singular value per snapshot and the
    modes orthonormal in the chosen inner product up to eigensolver
    accuracy; callers that need exact L2 orthonormality re-orthogonalize.
    Eigenvectors are computed only up to the mode budget, the int ``keep``
    or ``n_max``.  An all-zero snapshot set yields zero modes with a
    warning."""
    if inner not in ("l2", "h1"):
        raise ValueError(f"unknown inner product {inner!r}")
    S = np.asarray(snapshots, dtype=float)
    if S.ndim != 2 or S.shape[0] == 0:
        raise ValueError(f"need a (k, d) snapshot array, got shape {S.shape}")
    mat = forms.mass
    if inner == "h1":
        mat = mat.lincomb(forms.stiffness, 1.0, 1.0)
    return _pod(S, block_matvec(mat, S), keep, n_max)


def _pod(S, W, keep, n_max=None):
    """``pod`` of the (k, d) snapshot rows S from their product W with the
    inner product's matrix."""
    # one trajectory's Gram (a few dozen rows) runs in pieces on the calling
    # thread: as one product OpenBLAS hands it to a second thread, which
    # then spin-waits for about 0.13 s of CPU time; pooled snapshot sets
    # keep the one product, whose pieces would cost more wall time
    if S.shape[0] <= _BLOCKED_GRAM_ROWS:
        G = blocked_matmul(S, W.T)
    else:
        G = S @ W.T
    count = isinstance(keep, (int, np.integer))
    top = S.shape[0]
    if count:
        top = min(top, int(keep))
    if n_max is not None:
        top = min(top, int(n_max))
    top = max(top, 0)
    lam, V = sym_eig(0.5 * (G + G.T), top=top)
    lam = lam[::-1]
    V = V[:, ::-1]
    noise = S.shape[0] * np.finfo(float).eps * np.sqrt((G * G).sum())
    lam[lam <= noise] = 0.0
    sig = np.sqrt(np.clip(lam, 0.0, None))
    if sig[0] == 0.0:
        log.warning("POD of an all-zero snapshot set: returning zero modes")
        return np.zeros((0, S.shape[1])), sig
    if count:
        k = int((sig > 0.0).sum())
    else:
        k = max(1, int((sig > keep * sig[0]).sum()))
    k = min(k, top)
    return (V[:, :k].T @ S) / sig[:k, None], sig


def _mass_mgs(cands, against, forms, drop_tol=None):
    """Modified Gram-Schmidt in the L2 inner product, two passes.

    Orthogonalizes the rows of ``cands`` in place against ``against`` (may be
    None) and against each other; with drop_tol set, rows whose norm falls
    below drop_tol relative to their original size are removed and the kept
    rows are returned."""
    orig = l2_norms(forms, cands)
    kept = []
    for i in range(cands.shape[0]):
        v = cands[i]
        for _ in range(2):
            if against is not None and len(against):
                coef = mass_inner(forms, v, against)
                v = v - coef @ against
            for j in kept:
                c = mass_inner(forms, v, cands[j:j + 1])[0]
                v = v - c * cands[j]
        nrm = l2_norms(forms, v)
        if drop_tol is not None and nrm <= drop_tol * max(orig[i], 1e-300):
            continue
        if nrm == 0.0:
            continue
        cands[i] = v / nrm
        kept.append(i)
    return cands[kept]


def _residual_norms(U, MU, modes, weighted):
    """Rowwise L2 norms of R = U - C modes, the residual of the rows of U
    after L2 projection onto the orthonormal ``modes``, from U's mass
    product MU and the modes' ``weighted`` = M modes: with C = U
    weighted^T, M R = MU - C weighted, so no sparse product is made."""
    C = U @ weighted.T
    return _norms(U - C @ modes, MU - C @ weighted)


@dataclass(frozen=True)
class MassProduct:
    """What ``pod_greedy`` reads of one training run in every fold: the
    run's blockwise mass product ``values`` (M U, the shape of U) and its
    sup-in-time L2 norm ``sup_norm``."""

    values: np.ndarray
    sup_norm: float


def mass_products(trajectories, forms):
    """{parameter: ``MassProduct``} of training runs, one sparse product
    per run: the fold-invariant preparation of ``pod_greedy``."""
    out = {}
    for p, traj in trajectories.items():
        MU = block_matvec(forms.mass, traj.values)
        out[p] = MassProduct(values=MU, sup_norm=_norms(traj.values, MU).max())
    return out


def h1_rows(trajectories, forms, n_max):
    """{parameter: rows} of training runs: each run's own H1 POD, at most
    ``n_max`` directions weighted by their singular values, the
    fold-invariant preparation of ``hierarchical_pod``."""
    out = {}
    for p, traj in trajectories.items():
        modes, sig = pod(traj.values, forms, n_max, inner="h1")
        out[p] = modes * sig[:modes.shape[0], None]
    return out


def pod_greedy(trajectories, forms, n_max, pod_tol=1e-6, prepared=None):
    """Greedy-in-parameter, POD-in-time basis construction.

    The first parameter maximizes the sup-in-time L2 norm of its trajectory;
    afterwards the worst relative sup-in-time projection error picks the next
    parameter, whose projection residual is POD-compressed (directions with
    sigma_i/sigma_1 > pod_tol) and appended after a Gram-Schmidt safeguard.
    Stops at n_max total modes, when the worst remaining error drops below
    pod_tol, or when the training set is exhausted.  Ties break toward the
    earliest parameter in the given order.

    ``prepared`` maps (at least) the parameters of ``trajectories`` to
    their ``MassProduct`` (``mass_products``, formed here when None), so a
    caller that builds many bases from one training set forms each run's
    mass product once.  The sweep then makes no sparse product per
    candidate: with C = U (M Phi)^T the coefficients of run U in the modes
    Phi, the residual R = U - C Phi has the squared M-norms rowsum(R * (M U
    - C M Phi)), one sparse product M Phi per sweep.  Their rounding is a
    few eps ||U|| absolute, as in the explicit residual R itself."""
    items = list(trajectories.items())
    if not items:
        raise ValueError("empty training set")
    if prepared is None:
        prepared = mass_products(trajectories, forms)
    mass = [prepared[p] for p, _ in items]
    norm_inf = [m.sup_norm for m in mass]

    first = int(np.argmax(norm_inf))
    selected = [first]
    modes, _ = _pod(items[first][1].values, mass[first].values, pod_tol,
                    n_max=n_max)
    modes = _mass_mgs(modes, None, forms)
    picks = [(items[first][0], modes.shape[0])]

    while modes.shape[0] < n_max:
        remaining = [k for k in range(len(items)) if k not in selected]
        if not remaining:
            break
        weighted = block_matvec(forms.mass, modes)
        errs = []
        for k in remaining:
            norms = _residual_norms(items[k][1].values, mass[k].values,
                                    modes, weighted)
            denom = norm_inf[k] if norm_inf[k] > 0 else 1.0
            errs.append(norms.max() / denom)
        worst = int(np.argmax(errs))
        if errs[worst] <= pod_tol:
            break
        k = remaining[worst]
        selected.append(k)
        U = items[k][1].values
        resid = U - (U @ weighted.T) @ modes
        new, _ = pod(resid, forms, pod_tol, n_max=n_max - modes.shape[0])
        new = _mass_mgs(new, modes, forms, drop_tol=1e-10)
        if new.shape[0] == 0:
            log.warning("residual POD at parameter %s produced no new modes",
                        items[k][0])
            break
        modes = np.vstack([modes, new])
        picks.append((items[k][0], new.shape[0]))

    return ReducedBasis(
        mesh=items[0][1].mesh, modes=modes,
        provenance={"algorithm": "pod_greedy", "selected": picks,
                    "pod_tol": pod_tol})


def hierarchical_pod(trajectories, forms, n_max, prepared=None):
    """One H1 POD over every snapshot of every training trajectory.

    Each trajectory is reduced by its own POD to at most ``n_max``
    directions, reweighted by their singular values, and one POD of the
    pooled survivors, truncated at ``n_max``, is the result; the provenance
    records the pooled row count.  The reweighted directions carry the
    second moment of their trajectory, so this reproduces the pooled POD
    closely, and exactly when every trajectory has rank at most ``n_max``.
    ``prepared`` maps (at least) the parameters of ``trajectories`` to
    those per-run rows (``h1_rows``, formed here when None), so a caller
    that builds many bases from one training set reduces each run once.

    The H1 inner product ranks directions by mass plus stiffness energy.
    Spatially sharp, low-amplitude features, such as the boundary layers
    that form when an initial state violates a Neumann condition, carry far
    more stiffness energy than mass energy, so they survive a truncation
    that would drop them under a pure L2 ranking.  The output is
    re-orthonormalized in L2, so the basis invariants apply unchanged."""
    items = list(trajectories.items())
    if not items:
        raise ValueError("empty training set")
    if prepared is None:
        prepared = h1_rows(trajectories, forms, n_max)
    rows = np.vstack([prepared[p] for p, _ in items])
    modes, _ = pod(rows, forms, n_max, inner="h1")
    modes = _mass_mgs(modes, None, forms)
    return ReducedBasis(
        mesh=items[0][1].mesh, modes=modes,
        provenance={"algorithm": "hierarchical_pod",
                    "pooled_rows": int(rows.shape[0])})


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
