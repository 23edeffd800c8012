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
from nirb.mesh import transfer_operator

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
    coefficients of ``triangle_geometry``.  ``mass`` and ``stiffness``
    share one slot pattern (``SparseSym``, r slots a row).

    The three-midpoint rule is kept in one layout, the mesh's unique edges,
    sorted by their (lower, higher) node pair: an interior edge's midpoint
    is shared by its two triangles, so every integrand is interpolated and
    evaluated once per edge.  ``midpoints`` has shape (2, n_edges): the
    (x, y) of every edge midpoint.  ``_edge_nodes`` has shape
    (2, n_edges): the two nodes of every edge, lower first, so midpoint
    values are one gather.  ``_edge_weights`` has shape (n_edges,): area/6
    summed over the edge's triangles, the rule's weight area/3 times the
    value 1/2 of either end's hat function there.  ``_node_edges`` has
    shape (k_max, n), k_max the most edges at any node (6 on the structured
    meshes): the edges at each node in ascending order, padded with
    n_edges, a zero column; so a load vector is one gather of the weighted
    values and one sum over the k_max axis, in the order of a ``bincount``
    of the contributions edge by edge.  ``_triangle_edges`` has shape
    (n_tris, 3): edge q of triangle t, from its vertex q to vertex q + 1,
    for the integrands that are not continuous across edges."""

    mesh: object
    mass: SparseSym
    stiffness: SparseSym
    free_dofs: np.ndarray
    bc: str
    areas: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    midpoints: np.ndarray = field(repr=False)        # (2, n_edges)
    _edge_nodes: np.ndarray = field(repr=False)      # (2, n_edges)
    _edge_weights: np.ndarray = field(repr=False)    # (n_edges,)
    _node_edges: np.ndarray = field(repr=False)      # (k_max, n)
    _triangle_edges: np.ndarray = field(repr=False)  # (n_tris, 3)
    _cache: dict = field(repr=False, default_factory=dict)

    @property
    def n_dofs(self):
        return self.mesh.n_nodes

    @property
    def n_edges(self):
        return self._edge_nodes.shape[1]

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
        ``MODAL_TOL``.  The check's products M V and K V are sparse ones,
        one gather per column of V.  The cache keeps (lam, V) and the
        constants of ``modal_bounds``; the dense M and K the setup works
        on, and M V and K V, are not kept."""
        if "eig" not in self._cache:
            start = time.perf_counter()
            lam, V = pencil_eig(self.stiffness_free().to_dense(),
                                self.mass_free().to_dense())
            MV = self.mass_free().matvec(V.T).T
            KV = self.stiffness_free().matvec(V.T).T
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

    def modal_operand(self, B):
        """V^T B_free, shape (B's columns, n_free), with B_free the rows of B
        at the free dofs and V of ``free_eigenpairs``: what a
        ``integrators.ModalTrajectory`` multiplies its states by to read
        values @ B.  The product of the last read-only B is kept, matched by
        identity, so the runs read through one lift share it; a writable B
        could change under the cache and is never kept."""
        B = np.asarray(B, dtype=float)
        kept = self._cache.get("modal operand")
        if kept is not None and kept[0] is B:
            return kept[1]
        _, V = self.free_eigenpairs()
        operand = blocked_matmul(B[self.free_dofs].T, V)
        if not B.flags.writeable:
            operand.flags.writeable = False
            self._cache["modal operand"] = B, operand
        return operand

    def transfer_to(self, mesh):
        """(vertex indices, P1 weights) of ``mesh.transfer_operator`` from
        this form set's mesh to the nodes of ``mesh``, both read-only: the
        interpolation that lifts a run on these forms to ``mesh``.  The
        pair of the last target is kept, matched by identity, so every
        lift of a study's coarse runs to its fine mesh locates the fine
        nodes once."""
        kept = self._cache.get("transfer")
        if kept is None or kept[0] is not mesh:
            idx, w = transfer_operator(self.mesh, mesh.nodes)
            idx.flags.writeable = w.flags.writeable = False
            kept = self._cache["transfer"] = mesh, (idx, w)
        return kept[1]

    def lumped_mass(self):
        """Row sums of the mass matrix (the nodal area shares)."""
        if "lumped" not in self._cache:
            self._cache["lumped"] = self.mass.vals.sum(axis=0)
        return self._cache["lumped"]

    def weighted_mass(self, edge_coeffs):
        """Values of mass matrices weighted by coefficients given at the
        edge midpoints, in the slot layout of ``mass``.

        edge_coeffs has shape (k, n_edges), one coefficient field per
        matrix; the result has shape (k, r, n), the values of all k
        matrices on the pattern ``mass.cols``.

        Only phi_i and phi_j are nonzero at the midpoint of edge ij, both
        1/2 there, so the midpoint rule (weight area/3) puts area/12,
        summed over the edge's triangles, times the coefficient there on
        the entries (i, j) and (j, i): each off-diagonal slot reads its one
        edge, and the diagonal slot 0 is the sum of its row's other slots.
        The rule integrates quadratics exactly, so unit coefficients give
        ``mass``.  The slot-to-edge table, shape (r - 1, n) with padding
        slots at the zero column n_edges, and the area/12 weights are built
        at the first call and kept."""
        cw = np.asarray(edge_coeffs, dtype=float)
        if cw.ndim != 2 or cw.shape[1] != self.n_edges:
            raise ValueError(f"coefficients have shape {cw.shape}, expected "
                             f"(k, {self.n_edges})")
        if "slot edges" not in self._cache:
            # the edge of every off-diagonal slot, n_edges at padding
            n, cols = self.n_dofs, self.mass.cols[1:]
            rows = np.broadcast_to(np.arange(n), cols.shape)
            table = np.searchsorted(
                self._edge_nodes[0] * n + self._edge_nodes[1],
                np.minimum(rows, cols) * n + np.maximum(rows, cols))
            table[cols == rows] = self.n_edges
            self._cache["slot edges"] = table, 0.5 * self._edge_weights
        slot_edges, weights = self._cache["slot edges"]
        # the scaled coefficients and a zero column after them
        w = np.empty((cw.shape[0], self.n_edges + 1))
        np.multiply(cw, weights, out=w[:, :-1])
        w[:, -1] = 0.0
        vals = np.empty(cw.shape[:1] + self.mass.vals.shape)
        vals[:, 1:] = np.take(w, slot_edges, axis=-1)
        vals[:, 0] = vals[:, 1:].sum(axis=1)
        return vals

    def midpoint_values(self, u):
        """Interpolate nodal fields at the edge midpoints: shape (..., n) to
        (..., n_edges), for any leading axes (a species axis, time
        knots)."""
        uv = np.take(u, self._edge_nodes, axis=-1)
        mids = np.add(uv[..., 0, :], uv[..., 1, :])
        mids *= 0.5
        return mids


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
    # the unique edges by (lower, higher) node, and edge q of every
    # triangle, from its vertex q to vertex q + 1
    n = mesh.n_nodes
    ends = np.stack([tri, tri[:, [1, 2, 0]]])
    keys, tri_edges = np.unique(ends.min(axis=0) * n + ends.max(axis=0),
                                return_inverse=True)
    tri_edges = tri_edges.reshape(n_tris, 3)
    edge_nodes = np.stack(np.divmod(keys, n))
    n_edges = keys.size
    xy = mesh.nodes.T[:, edge_nodes]
    # every (edge, node) incidence edge by edge; a stable sort by node
    # keeps each node's edges ascending
    pairs = edge_nodes.T.ravel()
    order = np.argsort(pairs, kind="stable")
    counts = np.bincount(pairs, minlength=n)
    rank = np.arange(pairs.size) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
    node_edges = np.full((counts.max(), n), n_edges)
    node_edges[rank, pairs[order]] = order // 2
    return AssembledForms(mesh=mesh, mass=mass, stiffness=stiffness,
                          free_dofs=free, bc=bc, areas=areas, b=b, c=c,
                          midpoints=0.5 * (xy[:, 0] + xy[:, 1]),
                          _edge_nodes=edge_nodes,
                          _edge_weights=np.bincount(
                              tri_edges.ravel(),
                              weights=np.repeat(areas / 6.0, 3),
                              minlength=n_edges),
                          _node_edges=node_edges,
                          _triangle_edges=tri_edges)


def load_from_midpoint_values(forms, values):
    """Weak load vectors from integrand values at the edge midpoints.

    values has shape (..., n_edges) and the result shape (..., n_dofs):
    every leading row (a species, a time knot) gets its own load vector,
    all of them from one gather of the values times ``_edge_weights`` at
    ``_node_edges`` and one sum over its k_max axis."""
    values = np.asarray(values, dtype=float)
    # the weighted values and a zero column after them
    w = np.empty(values.shape[:-1] + (forms.n_edges + 1,))
    np.multiply(values, forms._edge_weights, out=w[..., :-1])
    w[..., -1] = 0.0
    return np.take(w, forms._node_edges, axis=-1).sum(axis=-2)


def load_vector(forms, f, t):
    """Assemble b_i = integral of f(t, x, y) * phi_i with the three-midpoint
    rule (exact for quadratic integrands), f evaluated once per edge
    midpoint."""
    mx, my = forms.midpoints
    fv = np.broadcast_to(np.asarray(f(t, mx, my), dtype=float), mx.shape)
    if not np.isfinite(fv).all():
        e = np.flatnonzero(~np.isfinite(fv))[0]
        raise ValueError(
            f"source term is not finite at t={t}, (x, y)=({mx[e]}, {my[e]})")
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
    and (ref_l2, ref_h1) of shape (K,).  The function and its gradient are
    evaluated once per edge midpoint; the gradient is gathered per triangle
    only where it is compared with the field's, which jumps across edges."""
    areas, b, c = forms.areas, forms.b, forms.c
    t = np.asarray(t, dtype=float)[..., None]
    mx, my = forms.midpoints
    shape = t.shape[:-1] + mx.shape
    # area/3 summed over each edge's triangles
    w = 2.0 * forms._edge_weights

    u_nodal = np.asarray(u_nodal, dtype=float)
    u_mid = np.broadcast_to(np.asarray(u_fn(t, mx, my), dtype=float), shape)
    err_l2 = np.sqrt(((forms.midpoint_values(u_nodal) - u_mid) ** 2
                      * w).sum(axis=-1))
    ref_l2 = np.sqrt((u_mid ** 2 * w).sum(axis=-1))

    gx, gy = (np.broadcast_to(np.asarray(g, dtype=float), shape)
              for g in grad_fn(t, mx, my))
    ref_h1 = np.sqrt(((gx ** 2 + gy ** 2) * w).sum(axis=-1))
    ue = np.take(u_nodal, forms.mesh.triangles, axis=-1)
    gxh = ((ue * b).sum(-1) / (2.0 * areas))[..., None]
    gyh = ((ue * c).sum(-1) / (2.0 * areas))[..., None]
    gap = (gxh - np.take(gx, forms._triangle_edges, axis=-1)) ** 2
    gap += (gyh - np.take(gy, forms._triangle_edges, axis=-1)) ** 2
    err_h1 = np.sqrt((areas[:, None] / 3.0 * gap).sum(axis=(-2, -1)))
    return err_l2, err_h1, ref_l2, ref_h1
