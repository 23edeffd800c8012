"""Structured triangulations of axis-aligned rectangles and P1 field transfer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# point-location slack, relative to the domain extent
LOCATE_TOL = 1e-12


@dataclass(frozen=True)
class TriMesh:
    """Triangulation of a rectangle into a uniform grid of cells, each cell
    split into two triangles along the same diagonal.

    Node (i, j) has index ``j * (nx + 1) + i`` with x varying fastest, so
    locating the cell that contains a point is plain index arithmetic.  The
    mesh is immutable after construction.
    """

    nodes: np.ndarray          # (n_nodes, 2) coordinates
    triangles: np.ndarray      # (n_tris, 3) vertex indices, counter-clockwise
    boundary_mask: np.ndarray  # (n_nodes,) True on the rectangle boundary
    h: float                   # largest element diameter
    domain: tuple              # (xmin, xmax, ymin, ymax)
    nx: int
    ny: int

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    def cell_sizes(self):
        xmin, xmax, ymin, ymax = self.domain
        return (xmax - xmin) / self.nx, (ymax - ymin) / self.ny


def build_structured(nx, ny, domain=(0.0, 1.0, 0.0, 1.0)):
    """Build a conforming triangulation with ``2 * nx * ny`` triangles.

    domain is (xmin, xmax, ymin, ymax).  Every cell is split along the
    diagonal that runs from its lower-left to its upper-right corner, so all
    elements are congruent right triangles.
    """
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be positive, got nx={nx}, ny={ny}")
    xmin, xmax, ymin, ymax = (float(v) for v in domain)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"degenerate domain {domain}")

    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    i = i.ravel()
    j = j.ravel()
    n00 = j * (nx + 1) + i
    n10 = n00 + 1
    n01 = n00 + (nx + 1)
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    boundary = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)

    p = nodes[triangles]
    edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    diam = np.sqrt((edges ** 2).sum(-1)).max(axis=0)
    return TriMesh(
        nodes=nodes,
        triangles=triangles,
        boundary_mask=boundary.ravel(),
        h=float(diam.max()),
        domain=(xmin, xmax, ymin, ymax),
        nx=nx,
        ny=ny,
    )


def transfer_operator(src, points):
    """Locate ``points`` in ``src`` and return (vertex indices, P1 weights).

    Both returned arrays have shape (n_points, 3); the weights are
    barycentric, nonnegative, and sum to one, so applying the operator never
    amplifies the max norm.  Points outside the domain (beyond a 1e-12
    relative slack) are reported by index.
    """
    pts = np.asarray(points, dtype=float)
    xmin, xmax, ymin, ymax = src.domain
    ext = max(xmax - xmin, ymax - ymin)
    tol = LOCATE_TOL * ext
    x, y = pts[:, 0], pts[:, 1]

    outside = (x < xmin - tol) | (x > xmax + tol) | (y < ymin - tol) | (y > ymax + tol)
    if outside.any():
        bad = np.flatnonzero(outside)
        head = ", ".join(f"{k}:{tuple(pts[k])}" for k in bad[:5])
        raise ValueError(f"{bad.size} point(s) outside the source domain: {head}")

    dx, dy = src.cell_sizes()
    xc = np.clip(x, xmin, xmax)
    yc = np.clip(y, ymin, ymax)
    ci = np.clip(((xc - xmin) / dx).astype(np.int64), 0, src.nx - 1)
    cj = np.clip(((yc - ymin) / dy).astype(np.int64), 0, src.ny - 1)
    xi = np.clip((xc - xmin) / dx - ci, 0.0, 1.0)
    eta = np.clip((yc - ymin) / dy - cj, 0.0, 1.0)

    n00 = cj * (src.nx + 1) + ci
    n10 = n00 + 1
    n01 = n00 + (src.nx + 1)
    n11 = n01 + 1

    # lower triangle (n00, n10, n11) holds eta <= xi, upper (n00, n11, n01)
    # the rest; on the shared diagonal the two formulas agree.
    low = eta <= xi
    idx = np.where(low[:, None],
                   np.column_stack([n00, n10, n11]),
                   np.column_stack([n00, n11, n01]))
    w = np.where(low[:, None],
                 np.column_stack([1.0 - xi, xi - eta, eta]),
                 np.column_stack([1.0 - eta, xi, eta - xi]))
    return idx, w


def interpolate_field(src_mesh, src_field, dst_mesh, transfer=None):
    """Evaluate a P1 field given by nodal values on ``src_mesh`` at the nodes
    of ``dst_mesh``.  Works on any array whose last axis is the source node
    axis, e.g. a whole trajectory at once.  ``transfer`` is the (vertex
    indices, weights) pair of ``transfer_operator(src_mesh,
    dst_mesh.nodes)`` where the caller keeps one; without it the nodes are
    located here."""
    field = np.asarray(src_field, dtype=float)
    if field.shape[-1] != src_mesh.n_nodes:
        raise ValueError(
            f"field has {field.shape[-1]} values, mesh has {src_mesh.n_nodes} nodes")
    idx, w = (transfer_operator(src_mesh, dst_mesh.nodes) if transfer is None
              else transfer)
    return np.einsum("...nk,nk->...n", field[..., idx], w)
