"""Self-contained linear algebra kernels: symmetric CSR storage, Krylov
solvers, a block-tridiagonal direct factor for banded SPD matrices, a cyclic
Jacobi eigensolver, and regularized normal-equation solves.  Dense matrices
are plain numpy arrays."""

from __future__ import annotations

import numpy as np


def _norm2(v):
    """Euclidean norm without the numpy.linalg namespace, which this module
    deliberately avoids so the kernels stay audit-clean."""
    v = np.asarray(v)
    return np.sqrt((v * v).sum())


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; carries the last residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SparseSym:
    """Symmetric sparse matrix in CSR form.

    The full pattern is stored (both triangles) so the matvec is a single
    gather/reduce.  Column indices are sorted and unique per row, every row
    holds at least its diagonal, and the pattern is structurally symmetric;
    these invariants are checked on construction unless ``check=False``.
    """

    __slots__ = ("n", "indptr", "indices", "vals", "_diag")

    def __init__(self, n, indptr, indices, vals, check=True):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=float)
        self._diag = None
        if self.n < 1:
            raise ValueError("matrix dimension must be at least 1")
        if check:
            self._validate()

    @property
    def nnz(self):
        return self.indices.size

    def _validate(self):
        if self.indptr.size != self.n + 1 or self.indptr[0] != 0 \
                or self.indptr[-1] != self.indices.size:
            raise ValueError("inconsistent CSR index pointers")
        counts = np.diff(self.indptr)
        if (counts < 1).any():
            raise ValueError("empty rows are not allowed")
        rows = np.repeat(np.arange(self.n), counts)
        # sorted, unique column indices within each row
        ok = np.ones(self.indices.size, dtype=bool)
        ok[1:] = (rows[1:] != rows[:-1]) | (self.indices[1:] > self.indices[:-1])
        if not ok.all():
            raise ValueError("column indices must be sorted and unique per row")
        # structural symmetry: the (row, col) set equals the (col, row) set
        fwd = np.lexsort((self.indices, rows))
        bwd = np.lexsort((rows, self.indices))
        if not (np.array_equal(rows[fwd], self.indices[bwd])
                and np.array_equal(self.indices[fwd], rows[bwd])):
            raise ValueError("pattern is not structurally symmetric")
        vmax = np.abs(self.vals).max() if self.vals.size else 0.0
        if vmax > 0 and np.abs(self.vals[fwd] - self.vals[bwd]).max() > 1e-12 * vmax:
            raise ValueError("values are not symmetric")

    @classmethod
    def from_coo(cls, n, rows, cols, vals, check=True):
        mat, _ = csr_with_scatter(n, rows, cols, vals, check=check)
        return mat

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        prod = self.vals * x[..., self.indices]
        return np.add.reduceat(prod, self.indptr[:-1], axis=-1)

    __matmul__ = matvec

    def diagonal(self):
        if self._diag is None:
            counts = np.diff(self.indptr)
            rows = np.repeat(np.arange(self.n), counts)
            d = np.zeros(self.n)
            hit = self.indices == rows
            d[rows[hit]] = self.vals[hit]
            self._diag = d
        return self._diag

    def lincomb(self, other, a, b):
        """Return a*self + b*other for a matrix with the identical pattern."""
        if not (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)):
            raise ValueError("lincomb requires identical sparsity patterns")
        return SparseSym(self.n, self.indptr, self.indices,
                         a * self.vals + b * other.vals, check=False)

    def restrict(self, keep):
        """Submatrix on the given index set (used to drop constrained dofs)."""
        keep = np.asarray(keep, dtype=np.int64)
        newid = -np.ones(self.n, dtype=np.int64)
        newid[keep] = np.arange(keep.size)
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        mask = (newid[rows] >= 0) & (newid[self.indices] >= 0)
        return SparseSym.from_coo(keep.size, newid[rows[mask]],
                                  newid[self.indices[mask]], self.vals[mask],
                                  check=False)

    def to_dense(self):
        out = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        out[rows, self.indices] = self.vals
        return out


def csr_with_scatter(n, rows, cols, vals, check=True):
    """Assemble CSR from coordinate triplets, summing duplicates.

    Also returns, for every input triplet, the position of its (row, col)
    entry in the assembled value array, so repeated assemblies with the same
    pattern reduce to one bincount."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if rows.size == 0:
        raise ValueError("cannot assemble an empty matrix")
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    new = np.empty(r.size, dtype=bool)
    new[0] = True
    new[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(new)
    rr, cc = r[starts], c[starts]
    vv = np.add.reduceat(v, starts)
    counts = np.bincount(rr, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    slot_sorted = np.cumsum(new) - 1
    scatter = np.empty(order.size, dtype=np.int64)
    scatter[order] = slot_sorted
    return SparseSym(n, indptr, cc, vv, check=check), scatter


def cg_solve(A, b, tol=1e-10, max_iter=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Returns (x, iterations) with the true residual satisfying
    ||A x - b||_2 <= tol * ||b||_2.  Raises ConvergenceError when max_iter
    is exhausted, reporting the final residual."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if n < 1:
        raise ValueError("zero-dimensional system")
    if A.n != n:
        raise ValueError(f"matrix is {A.n}x{A.n}, rhs has length {n}")
    nb = _norm2(b)
    if nb == 0.0:
        return np.zeros(n), 0
    if max_iter is None:
        max_iter = max(100, 10 * n)
    x = np.zeros(n)
    dinv = 1.0 / A.diagonal()
    r = b.copy()
    z = dinv * r
    p = z.copy()
    rz = r @ z
    target = tol * nb
    rnorm = _norm2(r)
    if rnorm <= target:
        return x, 0
    for k in range(1, max_iter + 1):
        Ap = A.matvec(p)
        pAp = p @ Ap
        if pAp <= 0.0:
            raise ValueError("matrix is not positive definite")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rnorm = _norm2(r)
        if rnorm <= target:
            r = b - A.matvec(x)  # guard against recurrence drift
            rnorm = _norm2(r)
            if rnorm <= target:
                return x, k
        z = dinv * r
        rz_new = r @ z
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    raise ConvergenceError(
        f"CG did not reach {tol:.1e} relative residual in {max_iter} iterations "
        f"(final {rnorm / nb:.3e})", residual=rnorm, iterations=max_iter)


class BandFactor:
    """Direct factor of a banded SPD matrix, for many solves with one matrix.

    With bandwidth w = max |i - j| over the stored pattern, consecutive row
    blocks of size w (the last padded with identity rows) make the matrix
    block tridiagonal, whatever the mesh: diagonal blocks D_j, upper blocks
    U_j and lower blocks U_j^T.  Block elimination without pivoting,

        S_0 = D_0,   S_j = D_j - U_{j-1}^T S_{j-1}^{-1} U_{j-1},

    keeps every Schur complement S_j SPD (Golub & Van Loan, Matrix
    Computations, block tridiagonal systems).  A solve is a forward sweep
    g_j = b_j - C_j g_{j-1} with C_j = U_{j-1}^T S_{j-1}^{-1}, then a backward
    sweep x_j = S_j^{-1} g_j - E_j x_{j+1} with E_j = S_j^{-1} U_j, so the
    factor stores the dense (w, w) stacks C, S^{-1} and E.  Factoring costs
    O(n w^2) and one solve O(n w).  A non-SPD input is rejected by the pivot
    checks of ``_spd_inverse``, naming the block and pivot."""

    def __init__(self, A):
        n = A.n
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        bs = max(int(np.abs(A.indices - rows).max()), 1)
        nb = -(-n // bs)
        self.n = n
        D = np.zeros((nb, bs, bs))
        U = np.zeros((nb - 1, bs, bs))
        br, bc = rows // bs, A.indices // bs
        diag, upper = bc == br, bc == br + 1
        D[br[diag], rows[diag] % bs, A.indices[diag] % bs] = A.vals[diag]
        U[br[upper], rows[upper] % bs, A.indices[upper] % bs] = A.vals[upper]
        pad = np.arange(n % bs or bs, bs)
        D[-1, pad, pad] = 1.0
        Sinv = np.empty_like(D)
        C = np.empty_like(U)
        Sinv[0] = _spd_inverse(D[0], 0)
        for j in range(1, nb):
            C[j - 1] = U[j - 1].T @ Sinv[j - 1]
            Sinv[j] = _spd_inverse(D[j] - C[j - 1] @ U[j - 1], j)
        self._sinv = Sinv
        # per-block lists: the sweeps index one block per Python step
        self._fwd = list(C)
        self._bwd = list(Sinv[:-1] @ U)

    def solve(self, b):
        """Solve A x = b by one forward and one backward block sweep."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"rhs has shape {b.shape}, expected ({self.n},)")
        nb, bs = self._sinv.shape[:2]
        g = np.zeros((nb, bs))
        g.ravel()[:self.n] = b
        C, E = self._fwd, self._bwd
        for j in range(1, nb):
            g[j] -= C[j - 1] @ g[j - 1]
        x = np.matmul(self._sinv, g[:, :, None])[:, :, 0]
        for j in range(nb - 2, -1, -1):
            x[j] -= E[j] @ x[j + 1]
        return x.ravel()[:self.n]


def _spd_inverse(S, block):
    """Inverse of a small dense SPD matrix by the symmetric sweep operator.

    The pivot of sweep k is the k-th Gaussian elimination pivot, so every
    pivot is positive exactly when S is positive definite; a failure names
    ``block`` and the pivot."""
    a = S.copy()
    for k in range(a.shape[0]):
        p = a[k, k]
        if not p > 0.0:
            raise ValueError(f"matrix is not positive definite "
                             f"(block {block}, pivot {k}: {p:.3e})")
        v = a[k] / p
        a -= np.multiply.outer(a[k], v)
        a[k] = v
        a[:, k] = v
        a[k, k] = -1.0 / p
    a *= -1.0
    return a


def bicgstab_solve(matvec, b, tol=1e-10, max_iter=None, precond=None):
    """Right-preconditioned BiCGStab for general square systems.

    ``matvec`` is a callable; ``precond`` is a callable approximate inverse
    of the matrix (None means the identity).  Used for the nonsymmetric
    Newton systems of the reaction-diffusion step."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if n < 1:
        raise ValueError("zero-dimensional system")
    nb = _norm2(b)
    if nb == 0.0:
        return np.zeros(n), 0
    if max_iter is None:
        max_iter = max(200, 10 * n)
    if precond is None:
        precond = np.asarray
    x = np.zeros(n)
    target = tol * nb
    r = b.copy()
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    for k in range(1, max_iter + 1):
        rho_new = r0 @ r
        if abs(rho_new) < 1e-300:
            r0 = r.copy()
            rho_new = r0 @ r
            if abs(rho_new) < 1e-300:
                break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = precond(p)
        v = matvec(ph)
        denom = r0 @ v
        if abs(denom) < 1e-300:
            r0 = r.copy()
            continue
        alpha = rho / denom
        s = r - alpha * v
        if _norm2(s) <= target:
            x += alpha * ph
            r = b - matvec(x)
            if _norm2(r) <= target:
                return x, k
            s = r.copy()
        sh = precond(s)
        t = matvec(sh)
        tt = t @ t
        if tt == 0.0:
            x += alpha * ph
            r = b - matvec(x)
            if _norm2(r) <= target:
                return x, k
            break
        omega = (t @ s) / tt
        x += alpha * ph + omega * sh
        r = s - omega * t
        if _norm2(r) <= target:
            r = b - matvec(x)
            if _norm2(r) <= target:
                return x, k
    rn = _norm2(b - matvec(x))
    raise ConvergenceError(
        f"BiCGStab did not reach {tol:.1e} relative residual in {max_iter} "
        f"iterations (final {rn / nb:.3e})", residual=rn, iterations=max_iter)


def sym_eig(G):
    """Cyclic Jacobi eigensolver for dense symmetric matrices.

    Returns (eigenvalues ascending, eigenvector columns) with
    G v_i = lambda_i v_i and orthonormal v_i.  Input asymmetry beyond 1e-12
    relative is rejected."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    if not np.isfinite(G).all():
        raise ValueError("matrix contains non-finite entries")
    n = G.shape[0]
    gmax = np.abs(G).max()
    if gmax > 0 and np.abs(G - G.T).max() > 1e-12 * gmax:
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    A = 0.5 * (G + G.T)
    V = np.eye(n)
    norm = np.sqrt((A * A).sum())
    # Per-entry rotation threshold: once every off-diagonal entry is below
    # it, the remaining off-diagonal mass is at the roundoff floor of the
    # sweeps themselves, so a rotation-free sweep counts as converged.
    skip = n * np.finfo(float).eps * norm
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(100):
        # Sum the off-diagonal entries directly: subtracting the diagonal
        # mass from the total cancels catastrophically once the remaining
        # coupling is far below the dominant eigenvalue scale.
        off = np.sqrt((A[off_mask] ** 2).sum())
        if off <= n * skip:
            break
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                rotated = True
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = A[q, p] = 0.0
                vcol_p = V[:, p].copy()
                vcol_q = V[:, q].copy()
                V[:, p] = c * vcol_p - s * vcol_q
                V[:, q] = s * vcol_p + c * vcol_q
        if not rotated:
            break
    else:
        raise ConvergenceError("Jacobi sweeps did not converge")
    lam = np.diag(A).copy()
    order = np.argsort(lam, kind="stable")
    return lam[order], V[:, order]


def dominant_eigenvalue(G, tol=1e-6, max_iter=500):
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(max_iter):
        w = G @ v
        nrm = _norm2(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        lam_new = v @ (G @ v)
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    return lam


def solve_regularized_normal(A, B, delta):
    """Tikhonov-regularized normal-equation solve, columnwise.

    Column i of the result solves (A^T A + delta I) r_i = A^T b_i, where b_i
    is column i of B, through the pivot-checked inverse ``_spd_inverse``.
    With delta == 0 the Gram matrix is first screened: a condition number
    above 1e12 (or a nonpositive smallest eigenvalue) is reported as rank
    deficiency."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, B {B.shape}")
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    G = A.T @ A
    N = G.shape[0]
    if delta == 0.0:
        lam, _ = sym_eig(G)
        if lam[0] <= 0.0 or lam[-1] / lam[0] > 1e12:
            raise ValueError(
                f"normal matrix is rank deficient at delta=0 "
                f"(eigenvalue range [{lam[0]:.3e}, {lam[-1]:.3e}])")
    return _spd_inverse(G + delta * np.eye(N), 0) @ (A.T @ B)
