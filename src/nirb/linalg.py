"""Self-contained linear algebra kernels: symmetric padded-row sparse
storage, a block cyclic reduction factor for banded SPD matrices, a dense
Cholesky factor and its blocked triangular inverse, a dense symmetric
eigensolver and the generalized symmetric-definite eigenproblem built on
the two, regularized normal-equation solves, and BiCGStab, the one Krylov
solver, for the nonsymmetric Newton systems.  Dense matrices are plain
numpy arrays.

The eigensolver ``sym_eig`` reduces to tridiagonal form by Householder
reflections and solves the tridiagonal by Cuppen's divide and conquer
(Numer. Math. 36, 1981): every merge of one tree level is one set of array
operations over all its nodes, with LAPACK's deflation (``dlaed2``),
secular roots as offsets from the nearer pole (``dlaed4``) and the
eigenvectors of Gu & Eisenstat (SIAM J. Matrix Anal. Appl. 16, 1995); the
wanted vectors go back through the reflectors in compact-WY blocks
(Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989).  Dense
products go through ``blocked_matmul``, so OpenBLAS never hands one to a
second thread."""

from __future__ import annotations

import math

import numpy as np


def _norm2(v):
    """Euclidean norm without the numpy.linalg namespace, which this module
    deliberately avoids so the kernels stay audit-clean."""
    v = np.asarray(v)
    return np.sqrt((v * v).sum())


_EPS = np.finfo(float).eps
# Entries of one (nodes, roots, poles) work array of a divide-and-conquer
# merge's secular stage (128 kB; the root iteration holds a few, one of
# three planes): the roots, weights and vectors of a level are computed in
# chunks of about this over nodes times poles, which keeps a full
# 225-dof spectrum under 2 MB of work arrays.
_SECULAR_ENTRIES = 16_384
# Steps after which a secular root stops, converged or not; the fixed-weight
# step with its bisection fallback takes 5-8 per merge level on the pencils
# and POD Grams, and at most 18 on every matrix tested (glued Wilkinson).
_SECULAR_STEPS = 40
# Householder reflectors per compact-WY block of the back-transform.
_WY_BLOCK = 32
# Rows per diagonal block of ``_lower_inverse``.
_TRIANGLE_BLOCK = 32
# Row count of the pieces ``blocked_matmul`` multiplies: OpenBLAS runs a
# product of this size against a few-hundred-square matrix on the calling
# thread, while a larger one may wake a second thread, which then spin-waits
# after the call and adds its CPU time to the process's.
_BLAS_ROWS = 4
# Entries of the array that one gather of ``SparseSym.matvec`` fills (1 MB):
# a stack of rows is multiplied in chunks of about this over r n rows.
_GATHER_ENTRIES = 131_072


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; carries the last residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SparseSym:
    """Symmetric sparse matrix in slot-major padded-row (ELLPACK) form.

    ``cols`` and ``vals`` have shape (r, n), where r is the longest row:
    slot s of row i holds the entry (i, cols[s, i]) with value vals[s, i].
    The diagonal sits in slot 0, the other entries of a row follow in
    ascending column order, and a shorter row is padded with zero entries
    that point at their own row, so every row is r slots long and a product
    is one gather and one sum over the slot axis (Bell & Garland, SC'09).
    r grows with the highest node valence: 7 on the structured P1 meshes.
    The full pattern is stored (both triangles) and must be structurally
    symmetric with symmetric values; these invariants are checked on
    construction unless ``check=False``.  Matrices on one pattern share one
    ``cols`` array, which is read-only."""

    __slots__ = ("n", "cols", "vals")

    def __init__(self, n, cols, vals, check=True):
        self.n = int(n)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=float)
        if self.n < 1:
            raise ValueError("matrix dimension must be at least 1")
        if check:
            self._validate()
        self.cols.flags.writeable = False

    def _entries(self):
        """(rows, cols, vals) of the stored entries, padding excluded, in
        slot-major order."""
        rows = np.broadcast_to(np.arange(self.n), self.cols.shape)
        real = self.cols != rows
        real[0] = True
        return rows[real], self.cols[real], self.vals[real]

    def _validate(self):
        r, n = self.cols.shape if self.cols.ndim == 2 else (0, 0)
        if r < 1 or n != self.n or self.vals.shape != self.cols.shape:
            raise ValueError(f"slot arrays have shapes {self.cols.shape} and "
                             f"{self.vals.shape}, expected (r, {self.n})")
        if self.cols.min() < 0 or self.cols.max() >= n:
            raise ValueError("column index out of range")
        rows = np.arange(n)
        if not np.array_equal(self.cols[0], rows):
            raise ValueError("slot 0 must hold the diagonal")
        pad = self.cols[1:] == rows
        if (self.vals[1:][pad] != 0.0).any():
            raise ValueError("padding entries must be zero")
        # off-diagonal columns ascend within each row, padding comes last
        nxt, cur = self.cols[2:], self.cols[1:-1]
        if (pad[:-1] & ~pad[1:]).any() or (~pad[1:] & (nxt <= cur)).any():
            raise ValueError("off-diagonal columns must be sorted and unique "
                             "per row, with padding last")
        i, j, v = self._entries()
        # structural symmetry: the (row, col) set equals the (col, row) set;
        # the keys are unique, so the sort kind does not matter
        fwd = np.argsort(i * n + j)
        bwd = np.argsort(j * n + i)
        if not (np.array_equal(i[fwd], j[bwd])
                and np.array_equal(j[fwd], i[bwd])):
            raise ValueError("pattern is not structurally symmetric")
        vmax = np.abs(v).max()
        if vmax > 0 and np.abs(v[fwd] - v[bwd]).max() > 1e-12 * vmax:
            raise ValueError("values are not symmetric")

    @classmethod
    def from_coo(cls, n, rows, cols, vals, check=True):
        mat, _ = sparse_with_scatter(n, rows, cols, vals, check=check)
        return mat

    def matvec(self, x):
        """A x for x of shape (..., n), over any leading axes: one gather,
        one multiply and one sum over the slot axis, in slot order, so
        every leading row gets its 1-D product bit for bit.  A stack of
        more than ``_GATHER_ENTRIES`` / (r n) rows is multiplied in chunks
        of that many rows, so the gathered (rows, r, n) array stays near
        1 MB."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ValueError(f"operand has shape {x.shape}, expected "
                             f"(..., {self.n})")
        chunk = max(1, _GATHER_ENTRIES // self.cols.size)
        if x.size <= chunk * self.n:
            return self._gather_product(x)
        rows = x.reshape(-1, self.n)
        out = np.empty(rows.shape)
        for s in range(0, rows.shape[0], chunk):
            out[s:s + chunk] = self._gather_product(rows[s:s + chunk])
        return out.reshape(x.shape)

    def _gather_product(self, x):
        prod = np.take(x, self.cols, axis=-1)
        prod *= self.vals
        return prod.sum(axis=-2)

    def lincomb(self, other, a, b):
        """Return a*self + b*other for a matrix with the identical pattern;
        the result shares ``cols``."""
        if not (other.cols is self.cols
                or np.array_equal(self.cols, other.cols)):
            raise ValueError("lincomb requires identical sparsity patterns")
        return SparseSym(self.n, self.cols, a * self.vals + b * other.vals,
                         check=False)

    def restrict(self, keep):
        """Submatrix on the given index set (used to drop constrained dofs)."""
        keep = np.asarray(keep, dtype=np.int64)
        newid = -np.ones(self.n, dtype=np.int64)
        newid[keep] = np.arange(keep.size)
        rows, cols, vals = self._entries()
        mask = (newid[rows] >= 0) & (newid[cols] >= 0)
        return SparseSym.from_coo(keep.size, newid[rows[mask]],
                                  newid[cols[mask]], vals[mask], check=False)

    def to_dense(self):
        out = np.zeros((self.n, self.n))
        rows, cols, vals = self._entries()
        out[rows, cols] = vals
        return out


def sparse_with_scatter(n, rows, cols, vals, check=True):
    """Assemble the slot layout of ``SparseSym`` from coordinate triplets,
    summing duplicates.

    Also returns, for every input triplet, the flat position s n + i of its
    entry's slot (s, i) in the (r, n) value array, so this and every later
    assembly on the pattern is one ``bincount`` onto the slots."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if rows.size == 0:
        raise ValueError("cannot assemble an empty matrix")
    keys, entry = np.unique(rows * n + cols, return_inverse=True)
    i, j = keys // n, keys % n
    off = i != j
    # keys ascend, so a row's off-diagonal entries ascend by column and
    # take slots 1, 2, ... in turn
    counts = np.bincount(i[off], minlength=n)
    first = np.cumsum(counts) - counts
    slot = np.zeros(keys.size, dtype=np.int64)
    slot[off] = 1 + np.arange(off.sum()) - first[i[off]]
    r = 1 + int(counts.max())
    position = slot * n + i
    pattern = np.tile(np.arange(n), r)
    pattern[position] = j
    scatter = position[entry]
    summed = np.bincount(scatter, weights=vals, minlength=r * n)
    return (SparseSym(n, pattern.reshape(r, n), summed.reshape(r, n),
                      check=check), scatter)


class BandFactor:
    """Direct factor of a banded SPD matrix, for many solves with one matrix.

    Consecutive row blocks of size b make the matrix block tridiagonal:
    diagonal blocks D_j, upper blocks U_j and lower blocks U_j^T.  b is the
    smallest size that puts every stored entry (i, j) in equal or adjacent
    blocks (``_block_size``), at most the bandwidth w = max |i - j|, which
    always does; on a structured mesh it is one grid row, w - 1, so the
    blocks tile the dofs exactly.  Otherwise the last block is padded with
    identity rows.  ``block_shape`` is (block count nb, b).

    The factor is block cyclic reduction.  Even-position blocks couple only
    to odd ones, so one level eliminates all of them at once: one batched
    pivot-checked inverse of their diagonal blocks, then batched products
    for the odd blocks' Schur complements and couplings,

        D'_i = D_{2i+1} - U_{2i}^T D_{2i}^{-1} U_{2i}
               - U_{2i+1} D_{2i+2}^{-1} U_{2i+1}^T,
        U'_i = -U_{2i+1} D_{2i+2}^{-1} U_{2i+2},

    the block tridiagonal matrix of the next level, whose blocks are the
    odd ones.  Odd and even block counts are handled by slicing; the levels
    halve the count down to one block, ``levels`` = ceil(log2(nb + 1)) of
    them.  Each reduced matrix is a Schur complement of the SPD input, so
    every pivot block stays SPD (Heller, SIAM J. Numer. Anal. 13, 1976).

    The factor owns one buffer per level, the level's blocks between two
    zero blocks, so every run of three consecutive blocks is a view, made
    once; a solve writes the right-hand side into the first buffer and makes
    one batched product per level and sweep against such runs.  Solves on
    one factor therefore run one at a time; each returns its own array.
    Going down, a kept block gets g'_i = [-P_l | I | -P_r] [g_{2i}; g_{2i+1};
    g_{2i+2}] with P_l = U_{2i}^T D_{2i}^{-1} and P_r = U_{2i+1}
    D_{2i+2}^{-1}; coming up, an eliminated block gets x_{2i} = [-F_l |
    D_{2i}^{-1} | -F_r] [x_{2i-1}; g_{2i}; x_{2i+1}] with F_l = D_{2i}^{-1}
    U_{2i-1}^T = P_r^T of its left neighbour and F_r = D_{2i}^{-1} U_{2i} =
    P_l^T of its right one; a missing neighbour's block is zero.  Factoring
    costs O(n b^2) and one solve O(n b), in O(log nb) batched steps.  A
    non-SPD input is rejected by the pivot checks of ``_spd_inverse``,
    naming the failing block by its index in the input and the pivot."""

    def __init__(self, A):
        n = A.n
        rows, cols, vals = A._entries()
        bs = _block_size(rows, cols)
        nb = -(-n // bs)
        self.n = n
        self.block_shape = (nb, bs)
        D = np.zeros((nb, bs, bs))
        U = np.zeros((nb - 1, bs, bs))
        br, bc = rows // bs, cols // bs
        diag, upper = bc == br, bc == br + 1
        D[br[diag], rows[diag] % bs, cols[diag] % bs] = vals[diag]
        U[br[upper], rows[upper] % bs, cols[upper] % bs] = vals[upper]
        pad = np.arange(n % bs or bs, bs)
        D[-1, pad, pad] = 1.0
        ids = np.array([f"block {i}" for i in range(nb)])
        left, mid, right = slice(0, bs), slice(bs, 2 * bs), slice(2 * bs, None)
        sizes, down, up = [], [], []
        while D.shape[0]:
            m = D.shape[0]
            ne, no = m - m // 2, m // 2
            Q = np.zeros((ne, bs, 3 * bs))
            Q[:, :, mid] = _spd_inverse(D[0::2], ids[0::2])
            Q[1:, :, left] = -Q[1:, :, mid] @ U[1::2].transpose(0, 2, 1)
            Q[:no, :, right] = -Q[:no, :, mid] @ U[0::2]
            P = np.zeros((no, bs, 3 * bs))
            P[:, :, left] = Q[:no, :, right].transpose(0, 2, 1)
            P[:, :, mid] = np.eye(bs)
            P[:ne - 1, :, right] = Q[1:, :, left].transpose(0, 2, 1)
            sizes.append(m)
            up.append(Q)
            down.append(P)
            D = D[1::2] + P[:, :, left] @ U[0::2]
            D[:ne - 1] += P[:ne - 1, :, right] @ U[1::2].transpose(0, 2, 1)
            U = P[:no - 1, :, right] @ U[2::2]
            ids = ids[1::2]
        # one buffer per level, its blocks between two zero blocks, and the
        # views of it that each product reads and writes
        B = [np.zeros((m + 2, bs)) for m in sizes + [0]]
        self._rhs = B[0].ravel()
        self._down = [(P, _triples(B[k], 1, len(P)), B[k + 1][1:-1, :, None])
                      for k, P in enumerate(down)]
        self._up = [(Q, _triples(B[k], 0, len(Q)), B[k], B[k + 1])
                    for k, Q in enumerate(up)][::-1]

    @property
    def levels(self):
        """Number of cyclic-reduction levels."""
        return len(self._up)

    def solve(self, b):
        """Solve A x = b: one batched product per level down, then one per
        level up, in the factor's own level buffers."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"rhs has shape {b.shape}, expected ({self.n},)")
        bs = self.block_shape[1]
        g = self._rhs
        g[bs:bs + self.n] = b
        # the last block's padding rows, which a non-finite rhs may have left
        # non-finite
        g[bs + self.n:-bs] = 0.0
        for P, triples, kept in self._down:
            np.matmul(P, triples, out=kept)
        for Q, triples, level, below in self._up:
            level[2:-1:2] = below[1:-1]
            x = np.matmul(Q, triples)
            level[1:-1:2] = x[:, :, 0]
        return g[bs:bs + self.n].copy()


def _triples(G, first, count):
    """(count, 3 b, 1) view of the runs of three consecutive rows of the
    contiguous (m, b) array G that start at rows first, first + 2, ..."""
    step = G.strides[0]
    return np.ndarray((count, 3 * G.shape[1], 1), buffer=G,
                      offset=first * step, strides=(2 * step, G.itemsize,
                                                    G.itemsize))


def _block_size(rows, cols):
    """Smallest b with |i // b - j // b| <= 1 for every entry (i, j).  An
    entry of offset d = |i - j| spans at least d // b blocks, so b > w / 2
    for the bandwidth w, and b = w always qualifies.  The pattern is
    symmetric, so the upper entries (i, i + d) decide.  One with d < b
    always fits, so only the entries with d > w / 2 can rule a candidate
    out; an entry fits exactly when i mod b + d < 2 b, which is tested for
    every candidate in one pass."""
    d = cols - rows
    w = int(d.max())
    far = d > w // 2
    b = np.arange(w // 2 + 1, w)[:, None]
    fits = (rows[far] % b + d[far] < 2 * b).all(axis=1)
    return int(b[fits.argmax(), 0]) if fits.any() else max(w, 1)


def _spd_inverse(S, labels):
    """Inverses of small dense SPD matrices by the symmetric sweep operator,
    over any leading axes of S.

    The pivot of sweep k is the k-th Gaussian elimination pivot, so every
    pivot is positive exactly when S is positive definite.  The matrices
    sweep in lockstep; the first sweep k with a nonpositive pivot raises,
    naming k and the label of the first matrix that fails there: ``labels``
    holds one label per leading entry, or one label for all, such as
    "block 3"."""
    a = np.array(S, dtype=float)
    for k in range(a.shape[-1]):
        row = a[..., k, :].copy()
        p = row[..., k]
        if not (p > 0.0).all():
            first = np.unravel_index(np.argmin(p > 0.0), p.shape)
            raise ValueError(f"matrix is not positive definite "
                             f"({np.broadcast_to(labels, p.shape)[first]}, "
                             f"pivot {k}: {p[first]:.3e})")
        v = row / p[..., None]
        a -= row[..., :, None] * v[..., None, :]
        v[..., k] = -1.0 / p
        a[..., k, :] = v
        a[..., :, k] = v
    a *= -1.0
    return a


def blocked_matmul(A, B):
    """A @ B for dense A and B, over any leading axes as ``np.matmul``
    takes them, computed ``_BLAS_ROWS`` rows of A at a time so that every
    product stays on the calling thread."""
    A = np.asarray(A, dtype=float)
    out = np.empty(np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
                   + (A.shape[-2], B.shape[-1]))
    for i in range(0, A.shape[-2], _BLAS_ROWS):
        np.matmul(A[..., i:i + _BLAS_ROWS, :], B,
                  out=out[..., i:i + _BLAS_ROWS, :])
    return out


def _triangular_matmul(T, B, lower):
    """T @ B for a lower (``lower``) or upper triangular T, ``_BLAS_ROWS``
    rows of T at a time as in ``blocked_matmul``, each piece reading only
    the columns of T its rows can have entries in: half the work."""
    n = T.shape[0]
    out = np.empty((n, B.shape[1]))
    for i in range(0, n, _BLAS_ROWS):
        end = min(i + _BLAS_ROWS, n)
        cols = slice(0, end) if lower else slice(i, n)
        np.matmul(T[i:end, cols], B[cols], out=out[i:end])
    return out


def cholesky(A):
    """Lower-triangular L with A = L L^T for a dense SPD matrix, by
    outer-product elimination within the bandwidth w = max |i - j| over the
    nonzero entries, which L shares (Golub & Van Loan, Matrix Computations,
    section 4.3), in O(n w^2).  The pivot of step k is the k-th Gaussian
    elimination pivot, so every pivot is positive exactly when A is positive
    definite; a failure names the pivot, as ``_spd_inverse`` does."""
    a = np.array(A, dtype=float)
    n = a.shape[0]
    rows, cols = np.nonzero(a)
    w = int(np.abs(rows - cols).max()) if rows.size else 0
    L = np.zeros((n, n))
    for k in range(n):
        p = a[k, k]
        if not p > 0.0:
            raise ValueError(f"matrix is not positive definite "
                             f"(Cholesky pivot {k}: {p:.3e})")
        end = min(n, k + w + 1)
        col = a[k:end, k] / math.sqrt(p)
        L[k:end, k] = col
        a[k + 1:end, k + 1:end] -= np.multiply.outer(col[1:], col[1:])
    return L


def _lower_inverse(L):
    """Inverse of a nonsingular lower-triangular matrix, lower triangular
    too, by blocks of ``_TRIANGLE_BLOCK`` rows.  Each diagonal block X_ii
    is the inverse of L_ii, row by row by forward substitution; the block
    row left of it is -X_ii L[i, :a] X[:a, :a] (block forward
    substitution), both products by ``blocked_matmul`` and the first over
    the columns where that block row of L has entries only, so a banded
    Cholesky factor costs O(n^2 (w + b)) for bandwidth w and block b.  A
    matrix of at most one block is the row loop alone."""
    n = L.shape[0]
    X = np.zeros((n, n))
    for a in range(0, n, _TRIANGLE_BLOCK):
        end = min(a + _TRIANGLE_BLOCK, n)
        D, Xd = L[a:end, a:end], X[a:end, a:end]
        for j in range(end - a):
            Xd[j, :j] = -(D[j, :j] @ Xd[:j, :j]) / D[j, j]
            Xd[j, j] = 1.0 / D[j, j]
        used = np.flatnonzero(L[a:end, :a].any(axis=0))
        if used.size:
            lo = used[0]
            X[a:end, :a] = -blocked_matmul(
                Xd, blocked_matmul(L[a:end, lo:a], X[lo:a, :a]))
    return X


def pencil_eig(K, M):
    """Every eigenpair of the symmetric-definite pencil K v = lambda M v for
    dense symmetric K and SPD M: returns (lambda ascending, V) with
    K V = M V diag(lambda) and V^T M V = I.

    With M = L L^T (``cholesky``), the pencil is the symmetric eigenproblem
    of C = L^{-1} K L^{-T}, and V = L^{-T} W for its eigenvectors W (Golub &
    Van Loan, Matrix Computations, section 8.7).  L^{-1} comes from the
    blocked ``_lower_inverse``, which reads only the band of a banded M,
    and C's full spectrum from ``sym_eig``'s divide and conquer.  Dense,
    O(n^3), with every dense product blocked, the three with L^{-1} or
    L^{-T} reading only its triangle (``_triangular_matmul``).  Check the
    result with ``pencil_residuals``."""
    Linv = _lower_inverse(cholesky(M))
    # C = L^{-1} (L^{-1} K)^T, as K is symmetric: both products lower
    C = _triangular_matmul(Linv, _triangular_matmul(Linv, K, True).T, True)
    lam, W = sym_eig(0.5 * (C + C.T))
    return lam, _triangular_matmul(Linv.T, W, False)


def pencil_residuals(KV, MV, lam, V):
    """How far (lam, V) is from an M-orthonormal eigendecomposition of the
    pencil K v = lambda M v, given the dense products KV = K V and
    MV = M V: returns
    (||K V - M V diag(lam)||_F / ||K V||_F, max |V^T M V - I|)."""
    residual = _norm2(KV - MV * lam) / _norm2(KV)
    orthogonality = np.abs(blocked_matmul(V.T, MV) - np.eye(lam.size)).max()
    return float(residual), float(orthogonality)


def bicgstab_solve(matvec, b, precond, tol=1e-10, max_iter=None):
    """Right-preconditioned BiCGStab for general square systems.

    ``matvec`` is a callable; ``precond`` is a callable approximate inverse
    of the matrix.  Used for the nonsymmetric Newton systems of the
    reaction-diffusion step."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if n < 1:
        raise ValueError("zero-dimensional system")
    nb = _norm2(b)
    if nb == 0.0:
        return np.zeros(n), 0
    if max_iter is None:
        max_iter = max(200, 10 * n)
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


def sym_eig(G, top=None):
    """Eigenvalues of a dense symmetric matrix, and eigenvectors of its
    ``top`` largest (all when ``top`` is None, none when it is 0).

    Returns (every eigenvalue ascending, eigenvector columns of the last
    ``top`` of them, in the same order) with G v_i = lambda_i v_i and
    orthonormal v_i; each vector's largest-magnitude entry is positive, so
    the output is deterministic.  Input asymmetry beyond 1e-12 relative is
    rejected.

    The matrix is reduced to tridiagonal form T by Householder reflections
    (``_householder_tridiagonal``), and T is solved by Cuppen's divide and
    conquer (Numer. Math. 36, 1981) from leaves of one or two rows, merged
    one tree level at a time (``_merge``): deflation as in LAPACK
    ``dlaed2``, the
    secular roots as in ``dlaed4`` (``_secular_roots``) and the
    eigenvectors from the recomputed weights of Gu & Eisenstat (SIAM J.
    Matrix Anal. Appl. 16, 1995), which keep them orthogonal however close
    the roots.  Only the wanted columns of the last merge are formed, and
    they are carried back through the reflectors in compact-WY blocks
    (``_back_transform``).  Eigenvalues are accurate to about n eps ||G||_F,
    absolutely: parts of T below that level, the reduction's own backward
    error, are dropped, so T splits into independent blocks where repeated
    eigenvalues or a numerically low-rank G make it nearly reducible."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    if not np.isfinite(G).all():
        raise ValueError("matrix contains non-finite entries")
    n = G.shape[0]
    k = n if top is None else int(top)
    if not 0 <= k <= n:
        raise ValueError(f"top must lie in [0, {n}], got {top}")
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    gmax = np.abs(G).max()
    if gmax > 0 and np.abs(G - G.T).max() > 1e-12 * gmax:
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    if gmax == 0.0:
        return np.zeros(n), np.eye(n)[:, n - k:]
    A = (0.5 / gmax) * (G + G.T)
    tol = n * _EPS * math.sqrt(float((A * A).sum()))
    d, e, blocks = _householder_tridiagonal(A, tol)
    del A  # overwritten by the reduction
    # split T at off-diagonals below tol, as LAPACK does: the merge across
    # such a split deflates every weight and leaves its halves independent
    e[np.abs(e) <= tol] = 0.0
    radius = np.zeros(n)  # Gershgorin radii
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    tnorm = float((np.abs(d) + radius).max())
    lam, V = _tridiagonal_eig(d, e, k, tnorm)
    _back_transform(V, blocks)
    flip = V[np.abs(V).argmax(axis=0), np.arange(k)] < 0.0
    V[:, flip] *= -1.0
    return gmax * lam, V


def _householder_tridiagonal(A, tol):
    """Householder reduction Q^T A Q = T of a symmetric matrix, which is
    overwritten, in panels of ``_WY_BLOCK`` columns (LAPACK ``dlatrd``).

    Within a panel the trailing block is left as it was at the panel's
    start, A - Y W^T - W Y^T for the panel's reflectors Y and their
    updates W so far: each column is brought up to date before it is
    reduced, and each product with the trailing block takes the two
    corrections; the panel's rank-2 updates then go in at once, in pieces
    of ``_BLAS_ROWS`` rows.  Returns the diagonal d and off-diagonal e of T
    and the reflectors in blocks (j0, Y, beta): Q = H_0 H_1 ..., where
    H_j = I - beta_i y_i y_i^T acts on rows j+1 onward, j = j0 + i, and y_i
    is column i of Y, whose row 0 is row j0 + 1 (a column that needs no
    reflection keeps y_i = 0 and beta_i = 0).  Once the unreduced column
    and the trailing block together have a Frobenius norm within ``tol``,
    the reduction stops and that block keeps only its diagonal (its
    off-diagonals in e stay 0), which makes the numerically low-rank Gram
    matrices of POD cheap."""
    n = A.shape[0]
    e = np.zeros(max(n - 1, 0))
    blocks = []
    tol2 = tol * tol
    for j in range(n - 2):
        i = j % _WY_BLOCK
        if i == 0:
            j0, nb = j, min(_WY_BLOCK, n - 2 - j)
            Y = np.zeros((n - j - 1, nb))
            W = np.zeros(Y.shape)
            betas = np.zeros(nb)
            blocks.append((j0, Y, betas))
        if i:
            A[j:, j] -= (Y[i - 1:, :i] @ W[i - 1, :i]
                         + W[i - 1:, :i] @ Y[i - 1, :i])
        x = A[j + 1:, j]
        A22 = A[j + 1:, j + 1:]
        x0 = float(x[0])
        xx = float(x @ x)
        if xx <= tol2:
            rest = A22 - blocked_matmul(np.hstack([Y[i:, :i], W[i:, :i]]),
                                        np.hstack([W[i:, :i], Y[i:, :i]]).T)
            if xx + float((rest * rest).sum()) <= tol2:
                A22[...] = rest
                blocks.pop()
                if i:
                    blocks.append((j0, Y[:, :i], betas[:i]))
                return np.diag(A).copy(), e, blocks
        alpha = -math.copysign(math.sqrt(xx), x0)
        e[j] = alpha
        if xx != 0.0:  # else the column is already reduced
            v = x.copy()
            v[0] = x0 - alpha
            beta = 1.0 / (xx - x0 * alpha)  # 2 / v^T v
            p = A22 @ v
            if i:
                p -= (Y[i:, :i] @ (W[i:, :i].T @ v)
                      + W[i:, :i] @ (Y[i:, :i].T @ v))
            p *= beta
            Y[i:, i] = v
            W[i:, i] = p - (0.5 * beta * float(p @ v)) * v
            betas[i] = beta
        if i == nb - 1:
            left = np.hstack([Y[i:], W[i:]])
            right = np.hstack([W[i:], Y[i:]]).T
            trailing = A[j + 1:, j + 1:]
            for r in range(0, left.shape[0], _BLAS_ROWS):
                trailing[r:r + _BLAS_ROWS] -= left[r:r + _BLAS_ROWS] @ right
    if n >= 2:
        e[n - 2] = A[n - 1, n - 2]
    return np.diag(A).copy(), e, blocks


def _back_transform(X, blocks):
    """X <- Q X in place for the reflectors Q = H_0 H_1 ... of
    ``_householder_tridiagonal``, one compact-WY block at a time, last block
    first: a block's product is I - Y T Y^T with T upper triangular,
    T_ii = beta_i and T[:i, i] = -beta_i T[:i, :i] Y[:, :i]^T y_i
    (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989), so each
    block costs three products, all by ``blocked_matmul``."""
    for j0, Y, beta in reversed(blocks):
        S = blocked_matmul(Y.T, Y)
        T = np.zeros(S.shape)
        for i in range(beta.size):
            T[:i, i] = -beta[i] * (T[:i, :i] @ S[:i, i])
            T[i, i] = beta[i]
        Z = X[j0 + 1:]
        Z -= blocked_matmul(Y, blocked_matmul(T, blocked_matmul(Y.T, Z)))


def _tridiagonal_eig(d, e, k, tnorm):
    """Every eigenvalue of the symmetric tridiagonal (d, e), ascending, and
    the eigenvectors of its k largest; ``tnorm`` bounds ||T||.  The rows
    after the last nonzero off-diagonal, where the reduction of a
    numerically low-rank matrix stopped, are one-row blocks with their
    own eigenpairs (d_i, e_i), so only the leading block goes through
    ``_divide_and_conquer``, for at most min(k, its size) vectors."""
    n = d.size
    coupled = np.flatnonzero(e)
    m = int(coupled[-1]) + 2 if coupled.size else 1
    km = min(k, m)
    lam, Q = _divide_and_conquer(d[:m], e[:m - 1], km, tnorm)
    if m == n:
        return lam, Q
    values = np.concatenate([lam, d[m:]])
    order = np.argsort(values, kind="stable")
    top = order[n - k:]
    tree = top < m
    V = np.zeros((n, k))
    V[:m, tree] = Q[:, top[tree] - (m - km)]
    V[top[~tree], (~tree).nonzero()[0]] = 1.0
    return values[order], V


def _divide_and_conquer(d, e, k, tnorm):
    """Every eigenvalue of the unreduced symmetric tridiagonal (d, e),
    ascending, and the eigenvectors of its k largest, by Cuppen's tree.

    The 2^L nodes of depth L, L = ceil(log2 n) - 1, are the rows
    [floor(i n / 2^L), floor((i + 1) n / 2^L)), one or two each, and node
    i of depth t joins its children 2i and 2i + 1, so the nodes of one
    depth differ in size by at most one row.  Splitting at row p writes T
    as the two children, each with |e_{p-1}| taken off the diagonal entry
    beside the cut, plus the rank-one |e_{p-1}| u u^T, u = e_{p-1} +
    sign(e_{p-1}) e_p.  The leaves are solved in closed form
    (``_leaf_pairs``), and each of the L levels above them is one call of
    ``_merge`` for all nodes of a depth, so the Python work grows with
    log n, not with n."""
    n = d.size
    levels = max(0, (n - 1).bit_length() - 1)
    big = 8.0 * tnorm  # eigenvalue of a padding slot, above every real one
    tol = 8.0 * _EPS * tnorm  # LAPACK dlaed2's deflation level
    starts = (np.arange(2 ** levels + 1) * n) >> levels
    cut = starts[1:-1]
    shifted = d.copy()
    shifted[cut - 1] -= np.abs(e[cut - 1])
    shifted[cut] -= np.abs(e[cut - 1])
    lam, Q = _leaf_pairs(shifted, e, starts, big)
    sizes = np.diff(starts)
    for t in range(levels - 1, -1, -1):
        starts = (np.arange(2 ** (t + 1) + 1) * n) >> (t + 1)
        lam, Q, sizes = _merge(lam, Q, sizes, e[starts[1:-1:2] - 1], tol,
                               big, k if t == 0 else None)
    if levels == 0:
        return lam[0, :n], Q[0, :n, n - k:n]
    return lam[0], Q[0]


def _leaf_pairs(d, e, starts, big):
    """Eigenpairs of the one- and two-row leaves [starts[i], starts[i +
    1]) of the tridiagonal (d, e), as (eigenvalues (leaves, 2) ascending,
    eigenvectors (leaves, 2, 2)), a one-row leaf padded with ``big`` and
    zeros.  A two-row leaf [[a, b], [b, c]] has the eigenvalues
    (a + c -+ r) / 2, r = hypot(a - c, 2 b), and the upper one's vector
    along (a - c + r, 2 b) or (2 b, c - a + r), whichever sum has no
    cancellation (LAPACK ``dlaev2``)."""
    i = starts[:-1]
    pair = np.diff(starts) == 2
    a = d[i]
    c = np.where(pair, d[np.minimum(i + 1, d.size - 1)], 0.0)
    b = np.where(pair, e[np.minimum(i, e.size - 1)] if e.size else 0.0, 0.0)
    df = a - c
    r = np.hypot(df, 2.0 * b)
    x = np.where(df >= 0.0, df + r, 2.0 * b)
    y = np.where(df >= 0.0, 2.0 * b, r - df)
    norm = np.hypot(x, y)
    split = norm > 0.0  # b = 0 and a = c: the unit vectors
    x = np.where(split, x / np.where(split, norm, 1.0), 0.0)
    y = np.where(split, y / np.where(split, norm, 1.0), 1.0)
    lam = np.stack([np.where(pair, 0.5 * (a + c - r), a),
                    np.where(pair, 0.5 * (a + c + r), big)], axis=1)
    Q = np.zeros((i.size, 2, 2))
    Q[:, 0, 0] = np.where(pair, -y, 1.0)
    Q[:, 1, 0] = np.where(pair, x, 0.0)
    Q[:, 0, 1] = np.where(pair, x, 0.0)
    Q[:, 1, 1] = np.where(pair, y, 0.0)
    return lam, Q


def _merge(lam, Q, sizes, beta, tol, big, top):
    """One level of the divide-and-conquer tree: the eigendecompositions of
    S nodes from those of their 2 S children, all at once.

    Child c has ``sizes[c]`` rows, eigenvalues lam[c] ascending (padding
    slots ``big``) and eigenvectors Q[c] (rows and columns past its size
    zero); node s joins children 2s and 2s + 1 with coupling beta[s].  In
    the children's basis the node's matrix is D + u u^T, D the children's
    eigenvalues and u = sqrt|beta| (last row of Q[2s], sign(beta) first row
    of Q[2s + 1]).  As in LAPACK ``dlaed2``, a weight with |u_i| ||u|| <=
    tol deflates its pole, and of two neighbouring live poles whose Givens
    rotation (c, s) zeroing the first weight leaves an off-diagonal
    |t c s| <= tol (t their gap) the first deflates; every non-overlapping
    pair that qualifies is rotated in one pass (``_deflate_pairs``), and
    passes repeat until none qualifies.  The live poles' roots come from
    ``_secular_roots``, their eigenvectors from the recomputed weights of
    ``_secular_weights``, and the deflated poles keep unit vectors; the
    rotations and the sort are then undone on the rows, and one blocked
    product with the children's vectors gives the node's.  Returns
    (eigenvalues, eigenvectors, sizes) of the nodes, with only the ``top``
    largest eigenvectors when ``top`` is not None (the root)."""
    S = beta.size
    Mc = lam.shape[1]
    W = 2 * Mc
    rows = np.arange(S)[:, None]
    left, right = sizes[0::2], sizes[1::2]
    sizes = left + right
    Mt = int(sizes.max())
    u = np.concatenate([Q[0::2][rows[:, 0], np.maximum(left - 1, 0)],
                        np.sign(beta)[:, None] * Q[1::2, 0]], axis=1)
    u *= np.sqrt(np.abs(beta))[:, None]
    order = np.argsort(lam.reshape(S, W), axis=1, kind="stable")
    D = lam.reshape(S, W)[rows, order]
    u = u[rows, order]
    live = np.abs(u) * np.sqrt(2.0 * np.abs(beta))[:, None] > tol
    rotations = _deflate_pairs(D.ravel(), u.ravel(), live.ravel(), W, tol)
    K = live.sum(axis=1)
    Kmax = max(1, int(K.max()))  # a padding column when all deflate
    # the live poles first, ascending, then the deflated slots
    pos = np.argsort(~live, axis=1, kind="stable")[:, :Kmax]
    valid = np.arange(Kmax) < K[:, None]
    delta = np.where(valid, D[rows, pos], big)
    uk = np.where(valid, u[rows, pos], 0.0)
    origin, tau = _secular_roots(delta, uk * uk, K)
    base = delta[rows, origin]
    D[rows, pos] = np.where(valid, base + tau, D[rows, pos])
    final = np.argsort(D, axis=1, kind="stable")[:, :Mt]
    lam = D[rows, final]
    if top is not None:
        final = final[:, Mt - top:]
        if top == 0:
            return lam, np.zeros((S, Mt, 0)), sizes
    root = live[rows, final]
    index = np.where(root, (np.cumsum(live, axis=1) - 1)[rows, final], 0)
    zhat = _secular_weights(delta, base, tau, K, np.sign(uk))
    # the node's eigenvectors in its children's basis, each sorted slot r
    # written to its children's row order[r], which undoes the sort
    U = np.zeros((S, W, final.shape[1]))
    _secular_vectors(U, order[rows, pos], delta, zhat, base[rows, index],
                     tau[rows, index], root)
    node, col = (~root).nonzero()
    U[node, order[node, final[node, col]], col] = 1.0
    flat = U.reshape(S * W, -1)
    slot = (order + W * rows).ravel()
    for p, q, cos, sin in reversed(rotations):
        p, q = slot[p], slot[q]
        xp, xq = flat[p], flat[q]
        flat[p] = cos[:, None] * xp - sin[:, None] * xq
        flat[q] = sin[:, None] * xp + cos[:, None] * xq
    P = blocked_matmul(Q, U.reshape(2 * S, Mc, -1)).reshape(S, W, -1)
    del U, flat
    # compact rows: the left child's, then the right child's, then a zero
    # row of either child's padding
    r = np.arange(Mt)
    rowmap = np.where(r < left[:, None], r, Mc + r - left[:, None])
    pad = np.where(left < Mc, left, Mc + right)
    rowmap = np.where(r < sizes[:, None], rowmap, pad[:, None])
    return lam, P[rows, rowmap], sizes


def _deflate_pairs(D, u, live, W, tol):
    """The close-pole deflation of ``_merge`` on the flat poles D, weights
    u and live mask of all nodes (W slots each), in place.  Returns the
    rotations (p, q, c, s), pass by pass: pole p deflates and q takes the
    weight sqrt(u_p^2 + u_q^2), the basis vectors becoming c e_p + s e_q
    and c e_q - s e_p."""
    rotations = []
    while True:
        idx = live.nonzero()[0]
        p, q = idx[:-1], idx[1:]
        r = np.hypot(u[p], u[q])
        c, s = u[q] / r, -u[p] / r
        ok = (p // W == q // W) & (np.abs((D[q] - D[p]) * c * s) <= tol)
        if not ok.any():
            return rotations
        at = np.arange(ok.size)
        first = ok.copy()
        first[1:] &= ~ok[:-1]
        run = np.maximum.accumulate(np.where(first, at, 0))
        sel = ok & ((at - run) % 2 == 0)
        p, q, c, s = p[sel], q[sel], c[sel], s[sel]
        dp, dq = D[p], D[q]
        D[p] = dp * c * c + dq * s * s
        D[q] = dp * s * s + dq * c * c
        u[q] = r[sel]
        u[p] = 0.0
        live[p] = False
        rotations.append((p, q, c, s))


def _chunks(count, S, Kmax):
    """Consecutive ranges of ``count`` indices, about
    ``_SECULAR_ENTRIES`` / (S Kmax) each, so that every (S, chunk, Kmax)
    work array of the secular stage stays near that many entries."""
    width = max(1, _SECULAR_ENTRIES // max(1, S * Kmax))
    return [slice(a, a + width) for a in range(0, count, width)]


def _secular_roots(delta, w, K):
    """Roots of the secular equations f(x) = 1 + sum_i w_i / (delta_i - x)
    of S nodes: node s has K[s] live poles delta[s, :K[s]], strictly
    ascending, with weights w > 0 (padding past K[s]: weight 0, pole far
    above).  Its root j lies in (delta_j, delta_{j+1}), or above the last
    pole by at most sum w.  Returns (origin, tau): root j is delta[s,
    origin] + tau, the offset from the nearer pole, which is what the
    eigenvectors need to full relative accuracy (LAPACK ``dlaed4``).

    The sign of f at the midpoint of the interval picks the origin, and a
    two-pole model with the other poles frozen at the midpoint gives the
    start.  Each step takes the root of Gragg's fixed-weight model: the
    origin pole with its own weight, the other pole of the interval (for
    the last root the pole below) with the rest of f', matching f and f'
    (``dlaed4``'s first scheme; its middle way, which lumps the poles on
    the origin's side into the origin's weight, takes twice the steps on
    the near-equal poles of glued matrices).  Steps stay inside a bracket,
    the whole interval narrowed by the sign of f, bisecting when the model
    root falls outside.  A root stops once |f| <= 8 eps (1 + |psi| + phi),
    psi and phi the sums of the negative and positive terms of f, the
    rounding level of f, after which steps only oscillate in the last
    bits.  The roots go in chunks (``_chunks``); every root's arithmetic is
    elementwise or a sum over its own row of poles, so the chunks do not
    change it."""
    S, Kmax = delta.shape
    origin = np.zeros((S, Kmax), dtype=np.int64)
    tau = np.zeros((S, Kmax))
    total = w.sum(axis=1)
    for chunk in _chunks(Kmax, S, Kmax):
        origin[:, chunk], tau[:, chunk] = _secular_chunk(
            delta, w, K, total, np.arange(Kmax)[chunk])
    return origin, tau


def _secular_chunk(delta, w, K, total, j):
    """``_secular_roots`` for the roots j of every node."""
    S, Kmax = delta.shape
    node = np.arange(S)[:, None]
    root = j < K[:, None]
    last = j == K[:, None] - 1
    interior = root & ~last
    nxt = np.minimum(j + 1, Kmax - 1)
    # the interval: (delta_j, delta_{j+1}) for an interior root, (delta_j,
    # delta_j + sum w] for the last one, whose end is its root when it has
    # one pole, so the bracket reaches just past it
    gap = np.where(interior, delta[:, nxt] - delta[:, j],
                   np.where(last, (1.0 + 4.0 * _EPS) * total[:, None], 1.0))
    mid = 0.5 * gap
    weights = w[:, None, :]
    offsets = delta[:, None, :] - delta[:, j, None]
    f_mid = 1.0 + (weights / (offsets - mid[:, :, None])).sum(axis=-1)
    right = interior & (f_mid < 0.0)
    o = np.where(right, nxt, j)
    if right.any():
        offsets = delta[:, None, :] - delta[node, o][:, :, None]
    # the model's other pole, as an offset from the origin: the interval's
    # other end, or the pole below the last root (a virtual one of weight 0
    # at -1 when that root has one pole)
    other = np.where(last, np.maximum(j - 1, 0), np.where(right, j, nxt))
    alone = last & (j == 0)
    p_x = np.where(alone, -1.0, delta[node, other] - delta[node, o])
    w_o = w[node, o]
    w_x = np.where(alone, 0.0, w[node, other])
    lo = np.where(right, -gap, 0.0)
    hi = np.where(right, 0.0, gap)
    # the start: the model with the other poles frozen at the midpoint
    at = np.where(right, -mid, mid)
    c = f_mid + w_o / at - w_x / (p_x - at)
    tau = _model_step(np.zeros_like(gap), c * p_x + w_o + w_x, w_o * p_x, c,
                      last, lo, hi)
    tau = np.where(root, tau, 1.0)  # padding roots stay clear of the poles
    done = ~root
    # planes: the terms w_i / (delta_i - x) of f, their magnitudes, whose
    # sum is |psi| + phi, and the terms of f'
    X = np.empty((S, j.size, 3, Kmax))
    terms, size, slope = X[:, :, 0], X[:, :, 1], X[:, :, 2]
    pw = p_x * w_o
    for _ in range(_SECULAR_STEPS):
        dist = offsets - tau[:, :, None]
        np.divide(weights, dist, out=terms)
        np.abs(terms, out=size)
        np.divide(terms, dist, out=slope)
        sums = X.sum(axis=-1)
        f, dw = sums[..., 0] + 1.0, sums[..., 2]
        done |= np.abs(f) <= 8.0 * _EPS * (1.0 + sums[..., 1])
        if done.all():
            break
        below = f < 0.0
        lo = np.where(below, tau, lo)
        hi = np.where(below, hi, tau)
        ex = p_x - tau
        tex = tau * ex
        step = _model_step(tau, (ex - tau) * f + tex * dw, -tex * f,
                           f - ex * dw + pw / (tau * tau), last, lo, hi)
        tau = np.where(done, tau, step)
    return o, tau


def _model_step(tau, a, b, c, last, lo, hi):
    """tau + eta for the root eta of a model's quadratic c eta^2 - a eta +
    b = 0 that the secular root follows, as LAPACK ``dlaed4`` picks it:
    (a - sqrt(a^2 - 4 b c)) / (2 c), the root between the model's poles,
    or for the last root, with both poles below it, (a + sqrt(a^2 -
    4 b c)) / (2 c), each in the form without cancellation; the bracket's
    midpoint when that is not inside (lo, hi); a division by zero or an
    overflow only makes a candidate that is not."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = a + np.copysign(np.sqrt(np.abs(a * a - 4.0 * b * c)), a)
        new = tau + np.where(np.signbit(a) == last, 2.0 * b / q, 0.5 * q / c)
        inside = (lo < new) & (new < hi)
    return np.where(inside, new, 0.5 * (lo + hi))


def _secular_weights(delta, base, tau, K, sign):
    """Gu & Eisenstat's weights: the u_i for which the live poles delta_i
    and the computed roots base_j + tau_j are exact eigenvalues of
    diag(delta) + u u^T,
    u_i^2 = prod_j (root_j - delta_i) / prod_{j != i} (delta_j - delta_i),
    each factor paired as (delta_i - root_j) / (delta_i - delta_j) as in
    LAPACK ``dlaed3``, with the sign of the original weight.  Chunked over
    the poles i; a product runs over its own row of roots."""
    S, Kmax = delta.shape
    out = np.zeros((S, Kmax))
    j = np.arange(Kmax)
    real = j < K[:, None, None]
    for chunk in _chunks(Kmax, S, Kmax):
        i = j[chunk]
        di = delta[:, i, None]
        num = (di - base[:, None, :]) - tau[:, None, :]
        den = np.where((i[:, None] == j) | ~real, -1.0,
                       di - delta[:, None, :])
        factor = np.where(real, num / den, 1.0)
        out[:, chunk] = factor.prod(axis=-1)
    out[np.arange(Kmax) >= K[:, None]] = 0.0
    return sign * np.sqrt(np.maximum(out, 0.0))


def _secular_vectors(out, slots, delta, zhat, base, tau, root):
    """Unit eigenvectors zhat_i / (delta_i - root_c) of diag(delta) +
    zhat zhat^T for the roots base_c + tau_c of each node, written into
    out[s, slots[s, i], c]; columns where ``root`` is False are written
    zero.  Chunked over the columns; a norm runs over its own row."""
    S, cols = base.shape
    node = np.arange(S)[:, None]
    for chunk in _chunks(cols, S, delta.shape[1]):
        dist = (delta[:, None, :] - base[:, chunk, None]) - tau[:, chunk,
                                                                None]
        v = zhat[:, None, :] / dist
        norm = np.sqrt((v * v).sum(axis=-1))
        v /= np.where(root[:, chunk], norm, 1.0)[:, :, None]
        v[~root[:, chunk]] = 0.0
        out[node, slots, chunk] = v.transpose(0, 2, 1)


def solve_regularized_normal(A, B, delta, labels="system"):
    """Tikhonov-regularized normal-equation solves, columnwise, over any
    leading axes of A (..., k, N) and B (..., k, m).

    Column i of each result solves (A^T A + delta I) r_i = A^T b_i, where
    b_i is column i of B and delta is one value or one per leading entry,
    all through one batched pivot-checked inverse ``_spd_inverse``.  Every
    system with delta == 0 is first screened: a condition number of its
    Gram matrix above 1e12 (or a nonpositive smallest eigenvalue) is
    reported as rank deficiency.  A failure names the failing system by its
    entry of ``labels``, one per leading entry or one for all."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim < 2 or A.shape[:-1] != B.shape[:-1]:
        raise ValueError(f"shape mismatch: A {A.shape}, B {B.shape}")
    lead = A.shape[:-2]
    delta = np.broadcast_to(np.asarray(delta, dtype=float), lead)
    if (delta < 0.0).any():
        raise ValueError(f"delta must be nonnegative, got {delta.min()}")
    labels = np.broadcast_to(np.asarray(labels), lead)
    At = np.swapaxes(A, -1, -2)
    G = At @ A
    for i in map(tuple, np.argwhere(delta == 0.0)):
        lam, _ = sym_eig(G[i], top=0)
        if lam[0] <= 0.0 or lam[-1] / lam[0] > 1e12:
            raise ValueError(
                f"normal matrix is rank deficient at delta=0 ({labels[i]}: "
                f"eigenvalue range [{lam[0]:.3e}, {lam[-1]:.3e}])")
    N = G.shape[-1]
    return _spd_inverse(G + delta[..., None, None] * np.eye(N), labels) \
        @ (At @ B)
