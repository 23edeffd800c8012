"""P1 finite element assembly on triangle meshes: exact mass and stiffness
matrices, midpoint-rule load vectors, discrete norms, distances to a closed
form, and the cached modal decomposition of the free-dof pencil."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from nirb.linalg import (SparseSym, blocked_matmul, pencil_eig,
                         pencil_residuals, sparse_with_scatter)

log = logging.getLogger(__name__)

# largest relative eigen-residual and M-orthogonality defect the cached
# modal decomposition may have; both sit near n eps for a sound one
MODAL_TOL = 1e-10

def triangle_geometry(mesh):
    """Areas and constant P1 gradient coefficients per element.

    Returns (areas, b, c) with grad(phi_i) = (b_i, c_i) / (2 A) on each
    triangle."""
    p = mesh.nodes[mesh.triangles]
    x = p[..., 0]
    y = p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    if (det <= 0).any():
        raise ValueError("mesh contains degenerate or clockwise triangles")
    return 0.5 * det, b, c


@dataclass
class AssembledForms:
    """Assembled bilinear forms for one mesh plus its quadrature geometry.

    ``areas``, ``b`` and ``c`` are the element areas and P1 gradient
    coefficients of ``triangle_geometry``; ``mid_x`` and ``mid_y`` are the
    edge-midpoint coordinates, shape (n_tris, 3) in midpoint order 01, 12,
    20.  ``mass`` and ``stiffness`` share one slot pattern (``SparseSym``,
    r slots a row).  ``_slot_midpoints`` has shape (2, r - 1, n): for every
    off-diagonal slot (s, i), holding the entry (i, j), the flat indices
    3 t + q of the at most two midpoints that lie on the edge ij, or
    3 n_tris, a zero column, where the edge has one triangle or the slot is
    padding; so a coefficient-weighted mass matrix is one gather.
    ``_edge_nodes`` lists the vertex each midpoint load contribution
    lands on (edge 01 of every triangle, then 12, then 20, each vertex pair
    in turn), so a load vector is one ``bincount``."""

    mesh: object
    mass: SparseSym
    stiffness: SparseSym
    free_dofs: np.ndarray
    bc: str
    areas: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    mid_x: np.ndarray = field(repr=False)
    mid_y: np.ndarray = field(repr=False)
    _slot_midpoints: np.ndarray = field(repr=False)   # (2, r - 1, n)
    _edge_nodes: np.ndarray = field(repr=False)   # (6 n_tris,)
    _cache: dict = field(repr=False, default_factory=dict)

    @property
    def n_dofs(self):
        return self.mesh.n_nodes

    def mass_free(self):
        if "Mff" not in self._cache:
            self._cache["Mff"] = self.mass.restrict(self.free_dofs)
        return self._cache["Mff"]

    def stiffness_free(self):
        if "Kff" not in self._cache:
            self._cache["Kff"] = self.stiffness.restrict(self.free_dofs)
        return self._cache["Kff"]

    def free_loads(self, f, grid, lag=0.0):
        """Free-dof entries of ``load_vector(self, f, t - lag)`` at every knot
        t of ``grid`` after the first, shape (steps, n_free), computed once
        per (f, grid, lag) and returned read-only: a source and its time
        knots do not depend on the parameter, so every march on these forms
        shares them."""
        key = ("loads", f, grid, lag)
        if key not in self._cache:
            loads = np.array([load_vector(self, f, t)[self.free_dofs]
                              for t in grid.times()[1:] - lag])
            loads.flags.writeable = False
            self._cache[key] = loads
        return self._cache[key]

    def free_eigenpairs(self):
        """(lam, V): every eigenpair of the free-dof pencil K v = lam M v,
        lam ascending, with V^T M V = I (``linalg.pencil_eig``), computed
        once per form set and returned read-only.

        The decomposition is checked once, when it is built: its relative
        residual ||K V - M V diag(lam)||_F / ||K V||_F and its
        M-orthogonality defect max |V^T M V - I| must both be within
        ``MODAL_TOL``.  The cache keeps (lam, V) and the constants of
        ``modal_bounds``; the dense M and K the setup works on, and the
        check's products M V and K V, are not kept."""
        if "eig" not in self._cache:
            start = time.perf_counter()
            M = self.mass_free().to_dense()
            K = self.stiffness_free().to_dense()
            lam, V = pencil_eig(K, M)
            MV, KV = blocked_matmul(M, V), blocked_matmul(K, V)
            residual, orthogonality = pencil_residuals(KV, MV, lam, V)
            if not (residual <= MODAL_TOL and orthogonality <= MODAL_TOL):
                raise RuntimeError(
                    f"modal decomposition of the {lam.size}-dof pencil failed "
                    f"its check: residual {residual:.3e}, M-orthogonality "
                    f"defect {orthogonality:.3e} (limit {MODAL_TOL:.0e})")
            # ||V^T M V - I||_2 <= n max |V^T M V - I|, and the P1 element
            # mass A/12 (1 1^T + I) has eigenvalues A/12 {4, 1, 1}, so
            # diag(lumped) / 4 <= M <= diag(lumped) on the free dofs
            slack = lam.size * orthogonality
            lumped = self.lumped_mass()[self.free_dofs]
            self._cache["modal bounds"] = (
                math.sqrt(lumped.max() * (1.0 + slack)),
                math.sqrt(max(0.0, 0.25 * lumped.min() * (1.0 - slack))),
                residual * math.sqrt((KV * KV).sum()))
            lam.flags.writeable = V.flags.writeable = False
            self._cache["eig"] = lam, V
            log.info("modal setup: n=%d in %.3fs, residual %.2e, "
                     "M-orthogonality defect %.2e", lam.size,
                     time.perf_counter() - start, residual, orthogonality)
        return self._cache["eig"]

    def modal_bounds(self):
        """(upper, lower, e) for the eigenvectors V of ``free_eigenpairs``
        and the free-dof M and K, read off that setup: upper >= ||M V||_2,
        0 <= lower <= sigma_min(M V) and e >= ||K V - M V diag(lam)||_2
        (its Frobenius norm).  ||M V||_2^2 and sigma_min(M V)^2 lie within
        the extreme eigenvalues of M times 1 +- ||V^T M V - I||_2, and the
        P1 mass lies between a quarter of its lumped diagonal and that
        diagonal, so no eigensolve is needed.  Only form sets that carry
        ``free_eigenpairs`` hold them."""
        self.free_eigenpairs()
        return self._cache["modal bounds"]

    def modal_loads(self, f, grid, lag=0.0):
        """``free_loads(f, grid, lag)`` in the eigenvector coordinates of
        ``free_eigenpairs``, each row multiplied by V^T, computed once per
        (f, grid, lag) and returned read-only."""
        key = ("modal loads", f, grid, lag)
        if key not in self._cache:
            _, V = self.free_eigenpairs()
            loads = blocked_matmul(self.free_loads(f, grid, lag), V)
            loads.flags.writeable = False
            self._cache[key] = loads
        return self._cache[key]

    def modal_load_defects(self, f, grid, lag=0.0):
        """||b_k - M V g_k|| for every row b_k of ``free_loads(f, grid,
        lag)`` and the row g_k of ``modal_loads`` cached for it: how far
        the loads a modal march pushes are from the nodal ones, shape
        (steps,), computed once per (f, grid, lag) from one dense product
        with V^T and one sparse product with the free-dof M."""
        key = ("modal load defects", f, grid, lag)
        if key not in self._cache:
            _, V = self.free_eigenpairs()
            pushed = self.mass_free().matvec(
                blocked_matmul(self.modal_loads(f, grid, lag), V.T))
            gap = pushed - self.free_loads(f, grid, lag)
            defects = np.sqrt((gap * gap).sum(axis=-1))
            defects.flags.writeable = False
            self._cache[key] = defects
        return self._cache[key]

    def lumped_mass(self):
        """Row sums of the mass matrix (the nodal area shares)."""
        if "lumped" not in self._cache:
            self._cache["lumped"] = self.mass.vals.sum(axis=0)
        return self._cache["lumped"]

    def weighted_mass(self, midpoint_coeffs):
        """Values of mass matrices weighted by coefficients given at the
        three edge midpoints of every triangle, in the slot layout of
        ``mass``.

        midpoint_coeffs has shape (k, n_tris, 3), midpoint order 01, 12,
        20, one coefficient field per matrix; the result has shape
        (k, r, n), the values of all k matrices on the pattern ``mass.cols``.

        Only phi_i and phi_j are nonzero at the midpoint of edge ij, both
        1/2 there, so the midpoint rule (weight area/3) puts area/12 times
        the coefficient there on the entries (i, j) and (j, i): each
        off-diagonal slot gathers its at most two midpoints
        (``_slot_midpoints``), and the diagonal slot 0 is the sum of its
        row's other slots.  The rule integrates quadratics exactly, so unit
        coefficients give ``mass``."""
        cw = np.asarray(midpoint_coeffs, dtype=float)
        if cw.ndim != 3 or cw.shape[1:] != self.areas.shape + (3,):
            raise ValueError(f"coefficients have shape {cw.shape}, expected "
                             f"(k, {self.areas.size}, 3)")
        k = cw.shape[0]
        # the scaled coefficients, flat, and a zero column after them
        w = np.empty((k, cw[0].size + 1))
        np.multiply(cw.reshape(k, -1), np.repeat(self.areas / 12.0, 3),
                    out=w[:, :-1])
        w[:, -1] = 0.0
        g = np.take(w, self._slot_midpoints, axis=-1)
        vals = np.empty((k,) + self.mass.vals.shape)
        np.add(g[:, 0], g[:, 1], out=vals[:, 1:])
        vals[:, 0] = vals[:, 1:].sum(axis=1)
        return vals

    def midpoint_values(self, u):
        """Interpolate nodal fields at the edge midpoints: shape (..., n) to
        (..., n_tris, 3), midpoint order 01, 12, 20, for any leading axes
        (a species axis, time knots)."""
        uv = np.take(u, self.mesh.triangles, axis=-1)
        return 0.5 * (uv + uv[..., [1, 2, 0]])


def assemble(mesh, bc="dirichlet_zero"):
    """Assemble exact P1 mass and stiffness matrices.

    bc is 'dirichlet_zero' (boundary dofs constrained to zero) or
    'neumann_natural' (all dofs free).  Mass and stiffness share one sparsity
    pattern, including structural zeros of the stiffness, so matrix pencils
    combine entrywise."""
    if bc not in ("dirichlet_zero", "neumann_natural"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    areas, b, c = triangle_geometry(mesh)
    tri = mesh.triangles
    n_tris = tri.shape[0]

    m_el = (areas / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    k_el = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        / (4.0 * areas)[:, None, None]

    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    mass, scatter = sparse_with_scatter(mesh.n_nodes, rows, cols, m_el.ravel())
    k_vals = np.bincount(scatter, weights=k_el.ravel(), minlength=mass.vals.size)
    stiffness = SparseSym(mass.n, mass.cols, k_vals.reshape(mass.vals.shape),
                          check=False)

    if bc == "dirichlet_zero":
        free = np.flatnonzero(~mesh.boundary_mask)
    else:
        free = np.arange(mesh.n_nodes)
    p = mesh.nodes[tri]
    mids = 0.5 * (p + p[:, [1, 2, 0]])
    edge_nodes = np.concatenate([tri[:, [0, 1]].ravel(), tri[:, [1, 2]].ravel(),
                                 tri[:, [2, 0]].ravel()])
    # midpoint q of triangle t, on the edge of local vertices (i_q, j_q),
    # feeds the slots of the entries (i, j) and (j, i); sorted by slot, a
    # slot's second midpoint follows its first (a conforming mesh has at
    # most two triangles on an edge, and their order does not matter)
    scatter = scatter.reshape(n_tris, 3, 3)
    i, j = np.arange(3), np.array([1, 2, 0])
    slots = np.concatenate([scatter[:, i, j].ravel(),
                            scatter[:, j, i].ravel()])
    order = np.argsort(slots)
    slots = slots[order]
    second = np.zeros(slots.size, dtype=np.int64)
    second[1:] = slots[1:] == slots[:-1]
    table = np.full((2, mass.vals.size), 3 * n_tris)
    table[second, slots] = order % (3 * n_tris)
    slot_midpoints = table[:, mass.n:].reshape((2,) + mass.vals[1:].shape)
    return AssembledForms(mesh=mesh, mass=mass, stiffness=stiffness,
                          free_dofs=free, bc=bc, areas=areas, b=b, c=c,
                          mid_x=mids[..., 0], mid_y=mids[..., 1],
                          _slot_midpoints=slot_midpoints,
                          _edge_nodes=edge_nodes)


def load_from_midpoint_values(forms, values):
    """Weak load vectors from integrand values at the edge midpoints.

    values has shape (..., n_tris, 3) in midpoint order 01, 12, 20, and the
    result shape (..., n_dofs): every leading row (a species, a time knot)
    gets its own load vector, all of them from one ``bincount`` with the
    node indices of row r offset by r n_dofs.  Each midpoint carries weight
    area/3 and the two adjacent P1 basis functions take value 1/2 there."""
    w = (forms.areas / 6.0)[:, None] * np.asarray(values, dtype=float)
    lead, n = w.shape[:-2], forms.n_dofs
    rows = math.prod(lead)
    nodes = forms._edge_nodes + n * np.arange(rows)[:, None]
    return np.bincount(nodes.ravel(),
                       weights=np.repeat(np.swapaxes(w, -1, -2), 2,
                                         axis=-1).ravel(),
                       minlength=rows * n).reshape(lead + (n,))


def load_vector(forms, f, t):
    """Assemble b_i = integral of f(t, x, y) * phi_i with the three-midpoint
    rule (exact for quadratic integrands)."""
    mx, my = forms.mid_x, forms.mid_y
    fv = np.broadcast_to(np.asarray(f(t, mx, my), dtype=float), mx.shape)
    if not np.isfinite(fv).all():
        k, q = np.argwhere(~np.isfinite(fv))[0]
        raise ValueError(
            f"source term is not finite at t={t}, (x, y)=({mx[k, q]}, {my[k, q]})")
    return load_from_midpoint_values(forms, fv)


def norms(forms, v):
    """Discrete L2 norm and H1 seminorm of a nodal field:
    (sqrt(v' M v), sqrt(v' K v))."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != forms.n_dofs:
        raise ValueError(f"field has {v.shape[-1]} values, expected {forms.n_dofs}")
    l2sq = (v * forms.mass.matvec(v)).sum(-1)
    h1sq = (v * forms.stiffness.matvec(v)).sum(-1)
    return np.sqrt(np.clip(l2sq, 0.0, None)), np.sqrt(np.clip(h1sq, 0.0, None))


def difference_norms(forms, u_nodal, u_fn, grad_fn, t):
    """L2 and H1-seminorm distances between P1 fields and a smooth function,
    by the three-midpoint rule, plus the function's own norms.

    u_nodal has shape (..., K, n) and t shape (K,), or (..., n) and a
    scalar: every field of a knot is compared with the function at that
    knot, and the function and its gradient are evaluated once per knot,
    on all knots at once.  Nodal sampling of the reference would hide the
    O(h) gradient error on structured meshes (the discrete field is
    supercloser to the interpolant than to the function), so the comparison
    is made under quadrature.  Returns (err_l2, err_h1) of shape (..., K)
    and (ref_l2, ref_h1) of shape (K,)."""
    areas, b, c = forms.areas, forms.b, forms.c
    t = np.asarray(t, dtype=float)[..., None, None]
    mx, my = forms.mid_x, forms.mid_y
    shape = t.shape[:-2] + mx.shape
    w = areas[:, None] / 3.0

    def integral(v):
        return np.sqrt((w * v).sum(axis=(-2, -1)))

    u_nodal = np.asarray(u_nodal, dtype=float)
    u_mid = np.broadcast_to(np.asarray(u_fn(t, mx, my), dtype=float), shape)
    err_l2 = integral((forms.midpoint_values(u_nodal) - u_mid) ** 2)
    ref_l2 = integral(u_mid ** 2)

    ue = np.take(u_nodal, forms.mesh.triangles, axis=-1)
    gxh = ((ue * b).sum(-1) / (2.0 * areas))[..., None]
    gyh = ((ue * c).sum(-1) / (2.0 * areas))[..., None]
    gx, gy = (np.broadcast_to(np.asarray(g, dtype=float), shape)
              for g in grad_fn(t, mx, my))
    err_h1 = integral((gxh - gx) ** 2 + (gyh - gy) ** 2)
    ref_h1 = integral(gx ** 2 + gy ** 2)
    return err_l2, err_h1, ref_l2, ref_h1
