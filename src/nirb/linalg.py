"""Self-contained linear algebra kernels: symmetric padded-row sparse
storage, a block cyclic reduction factor for banded SPD matrices, a dense
Cholesky factor, a dense symmetric eigensolver (Householder
tridiagonalization, Sturm multisection and inverse iteration) and the
generalized symmetric-definite eigenproblem built on the two, regularized
normal-equation solves, and BiCGStab, the one Krylov solver, for the
nonsymmetric Newton systems.  Dense matrices are plain numpy arrays."""

from __future__ import annotations

import math

import numpy as np


def _norm2(v):
    """Euclidean norm without the numpy.linalg namespace, which this module
    deliberately avoids so the kernels stay audit-clean."""
    v = np.asarray(v)
    return np.sqrt((v * v).sum())


_EPS = np.finfo(float).eps
# Sturm-count points per multisection round, shared among the open brackets:
# an order-n matrix gets this times (1 + 8 / n), since a round costs one
# Python step per pivot, so small matrices afford more points and fewer rounds.
_MULTISECTION_POINTS = 256
# Inverse-iteration shifts sit this many eps ||T|| above their eigenvalues
# (see _inverse_iteration).
_SHIFT_OFFSET = 10.0
# Entries of one (n, shifts) work array of inverse iteration: an order-n
# tridiagonal's shifts are factored in blocks of about this over n, so the
# work arrays (about 50 n bytes per shift) stay near 1.3 MB whatever the
# number of shifts.  At n = 225 a full spectrum takes two blocks of 115.
_INVERSE_ITERATION_ENTRIES = 26_000
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
    """A @ B for dense A and B, computed ``_BLAS_ROWS`` rows of A at a time
    so that every product stays on the calling thread."""
    A = np.asarray(A, dtype=float)
    out = np.empty((A.shape[0], B.shape[1]))
    for i in range(0, A.shape[0], _BLAS_ROWS):
        np.matmul(A[i:i + _BLAS_ROWS], B, out=out[i:i + _BLAS_ROWS])
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
    """Inverse of a nonsingular lower-triangular matrix, row by row by
    forward substitution; it is lower triangular too."""
    n = L.shape[0]
    X = np.zeros((n, n))
    for j in range(n):
        X[j, :j] = -(L[j, :j] @ X[:j, :j]) / L[j, j]
        X[j, j] = 1.0 / L[j, j]
    return X


def pencil_eig(K, M):
    """Every eigenpair of the symmetric-definite pencil K v = lambda M v for
    dense symmetric K and SPD M: returns (lambda ascending, V) with
    K V = M V diag(lambda) and V^T M V = I.

    With M = L L^T (``cholesky``), the pencil is the symmetric eigenproblem
    of C = L^{-1} K L^{-T}, solved by ``sym_eig``, and V = L^{-T} W for its
    eigenvectors W (Golub & Van Loan, Matrix Computations, section 8.7).
    Dense, O(n^3), with every dense product blocked (``blocked_matmul``).
    Check the result with ``pencil_residuals``."""
    Linv = _lower_inverse(cholesky(M))
    C = blocked_matmul(blocked_matmul(Linv, K), Linv.T)
    lam, W = sym_eig(0.5 * (C + C.T))
    return lam, blocked_matmul(Linv.T, W)


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

    The matrix is reduced to tridiagonal form T by Householder reflections.
    Every eigenvalue is bracketed by Sturm counts, the negative LDL^T pivots
    of T - x I, and refined by multisection until its bracket is a few ulp
    of ||T|| wide (LAPACK ``dstebz``).  The wanted eigenvectors of T come
    from inverse iteration at those shifts, orthogonalized only within
    clusters closer than 1e-3 ||T|| (LAPACK ``dstein``), and are carried
    back through the reflectors (Golub & Van Loan, Matrix Computations,
    sections 8.4-8.5).  Eigenvalues are accurate to about n eps ||G||_F,
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
    d, e, reflectors = _householder_tridiagonal(A, tol)
    del A  # overwritten by the reduction
    # split T at off-diagonals below tol, as LAPACK does: exactly repeated
    # eigenvalues then sit in different blocks, which inverse iteration
    # could not separate to full accuracy within one block
    e[np.abs(e) <= tol] = 0.0
    radius = np.zeros(n)  # Gershgorin radii
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    tnorm = (np.abs(d) + radius).max()
    cuts = ((e == 0.0).nonzero()[0] + 1).tolist()
    blocks = [(a, b) for a, b in zip([0] + cuts, cuts + [n]) if b - a > 1]
    lam = d.copy()  # a one-row block's eigenvalue is its diagonal entry
    for a, b in blocks:
        lam[a:b] = _sturm_eigenvalues(d[a:b], e[a:b - 1], radius[a:b], tnorm)
    order = np.argsort(lam, kind="stable")
    column = np.full(n, -1)
    column[order[n - k:]] = np.arange(k)
    one_row = np.ones(n, dtype=bool)
    parts = []
    for a, b in blocks:
        one_row[a:b] = False
        sel = (column[a:b] >= 0).nonzero()[0] + a
        parts.append((a, b, column[sel], _inverse_iteration(
            d[a:b], e[a:b - 1], lam[sel], tnorm)))
    # V is allocated only after inverse iteration, and the blocks' vectors
    # are dropped before the carry-back, so neither is held beside V longer
    # than the copy
    V = np.zeros((n, k))
    for a, b, cols, X in parts:
        V[a:b, cols] = X
    parts = X = None
    sel = (one_row & (column >= 0)).nonzero()[0]
    V[sel, column[sel]] = 1.0
    for j, v, beta in reversed(reflectors):
        Y = V[j + 1:]
        Y -= np.multiply.outer(beta * v, v @ Y)
    flip = V[np.abs(V).argmax(axis=0), np.arange(k)] < 0.0
    V[:, flip] *= -1.0
    return gmax * lam[order], V


def _householder_tridiagonal(A, tol):
    """Householder reduction Q^T A Q = T of a symmetric matrix, which is
    overwritten: one rank-2 update of the trailing block per column.

    Returns the diagonal d and off-diagonal e of T and the reflectors
    (j, v, beta) with Q = H_0 H_1 ..., H_j = I - beta v v^T acting on rows
    j+1 onward.  Once the unreduced column and the trailing block together
    have a Frobenius norm within ``tol``, the reduction stops and that block
    keeps only its diagonal (its off-diagonals in e stay 0), which makes the
    numerically low-rank Gram matrices of POD cheap."""
    n = A.shape[0]
    e = np.zeros(max(n - 1, 0))
    reflectors = []
    vw = np.empty((n, 2))
    wv = np.empty((2, n))
    tol2 = tol * tol
    for j in range(n - 2):
        x = A[j + 1:, j]
        A22 = A[j + 1:, j + 1:]
        x0 = float(x[0])
        xx = float(x @ x)
        if xx <= tol2 and xx + float((A22 * A22).sum()) <= tol2:
            return np.diag(A).copy(), e, reflectors
        alpha = -math.copysign(math.sqrt(xx), x0)
        e[j] = alpha
        if xx == 0.0:  # the column is already reduced
            continue
        v = x.copy()
        v[0] = x0 - alpha
        beta = 1.0 / (xx - x0 * alpha)  # 2 / v^T v
        p = A22 @ v
        p *= beta
        w = p - (0.5 * beta * float(p @ v)) * v
        m = n - j - 1
        vw[:m, 0] = wv[1, :m] = v
        vw[:m, 1] = wv[0, :m] = w
        A22 -= vw[:m] @ wv[:, :m]
        reflectors.append((j, v, beta))
    if n >= 2:
        e[n - 2] = A[n - 1, n - 2]
    return np.diag(A).copy(), e, reflectors


def _sturm_eigenvalues(d, e, radius, tnorm):
    """Every eigenvalue of the symmetric tridiagonal (d, e), ascending;
    ``radius`` holds the Gershgorin radii |e_{i-1}| + |e_i| and ``tnorm``
    their bound max |d_i| + radius_i on ||T||.

    Each eigenvalue index keeps a bracket [lo, hi] with count(lo) <= i <
    count(hi), where count(x) is the number of negative LDL^T pivots of
    T - x I.  A round places m points in each distinct open bracket, so
    every bracket shrinks by m + 1; indices sharing a bracket share its
    points.  The off-diagonals are nonzero (the matrix is one unreduced
    block), so a zero pivot makes the next one infinite instead of 0/0;
    counting sign bits (-0 and -inf are negative) keeps the count right in
    IEEE arithmetic (Kahan).  Every round writes its pivots into one table
    of max(budget, 3 n) columns: L brackets get m points each, and L m
    exceeds the budget only when m is raised to 3."""
    n = d.size
    e2 = (e * e).tolist()
    pad = 2.0 * n * _EPS * tnorm
    lo = np.full(n, (d - radius).min() - pad)
    hi = np.full(n, (d + radius).max() + pad)
    width = 4.0 * _EPS * tnorm
    budget = _MULTISECTION_POINTS + _MULTISECTION_POINTS * 8 // n
    table = np.empty((n, max(budget, 3 * n)))
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            act = (hi - lo > width).nonzero()[0]
            if act.size == 0:
                return 0.5 * (lo + hi)
            la = lo[act]
            # active brackets are distinct exactly where their lower ends are
            first = np.empty(act.size, dtype=bool)
            first[0] = True
            np.not_equal(la[1:], la[:-1], out=first[1:])
            group = np.cumsum(first) - 1
            L, H = la[first], hi[act][first]
            m = min(255, max(3, budget // L.size))
            X = L[:, None] + np.multiply.outer(H - L,
                                               np.arange(m + 2) / (m + 1))
            X[:, -1] = H
            P = table[:, :L.size * m]
            np.subtract(d[:, None], X[:, 1:-1].ravel(), out=P)
            rows = list(P)
            for prev, row, c in zip(rows, rows[1:], e2):
                row -= c / prev
            count = np.maximum.accumulate(
                np.signbit(P).sum(axis=0).reshape(L.size, m), axis=1)
            # below = how many of its bracket's counts are <= each index:
            # with bracket g's counts raised by g (n + 1) they are sorted
            # overall, so one search answers every index without an
            # (indices, points) table
            count += (n + 1) * np.arange(L.size)[:, None]
            below = np.searchsorted(count.ravel(), act + (n + 1) * group,
                                    side="right") - m * group
            lo[act] = X[group, below]
            hi[act] = X[group, below + 1]


def _inverse_iteration(d, e, shifts, tnorm):
    """Eigenvectors of the tridiagonal (d, e) at ascending ``shifts``.

    Each of two steps solves (T - s I) x = x_old for all shifts at once, by
    a tridiagonal LU with partial pivoting per shift (LAPACK ``dgttrf``, as
    ``dstein`` pivots; unpivoted solves lost digits to element growth in
    degenerate clusters).  The off-diagonals are nonzero, so only the last
    pivot can vanish; it is kept at least eps ||T||.  Every shift sits
    ``_SHIFT_OFFSET`` eps ||T|| above its eigenvalue, clear of the bisection
    error, so the solves amplify a group of unresolved equal eigenvalues
    evenly; a shift on one of them would amplify it alone and leave
    Gram-Schmidt only the roundoff of the others.  The vectors of a cluster
    (neighbouring shifts within 1e-3 ||T||) are Gram-Schmidt orthogonalized
    after each step, as in ``dstein``, from the largest shift down, so a
    vector does not depend on how many smaller shifts were requested.  The
    start vectors are fixed pseudo-random ones (``_start_vectors``).

    The shifts are factored in blocks of about
    ``_INVERSE_ITERATION_ENTRIES`` / n that end between clusters, each
    working in place on its columns of the one start-vector array, so the
    factors take memory for one block, not for every shift.  Each column's
    arithmetic is the same whatever the blocks: a block is never a single
    column unless there is only one shift, since numpy would sum a lone
    column's norm pairwise rather than row by row."""
    n, k = d.size, shifts.size
    if k == 0:
        return np.zeros((n, 0))
    cuts = ((np.diff(shifts) > 1e-3 * tnorm).nonzero()[0] + 1).tolist()
    X = _start_vectors(n, k)
    e = e.tolist() + [0.0]
    width = _INVERSE_ITERATION_ENTRIES // n
    blocks, a, end = [], 0, 0
    for c in cuts + [k]:
        if c - a > width and end - a > 1:
            blocks.append((a, end))
            a = end
        end = c
    if blocks and k - a == 1:
        a = blocks.pop()[0]
    blocks.append((a, k))
    for a, b in blocks:
        clusters = [(i - a, j - a) for i, j in zip([0] + cuts, cuts + [k])
                    if a <= i and j <= b and j - i > 1]
        _inverse_iteration_block(d, e, shifts[a:b], X[:, a:b], clusters,
                                 tnorm)
    return X


def _inverse_iteration_block(d, e, shifts, X, clusters, tnorm):
    """Two steps of ``_inverse_iteration`` for the ``shifts`` of one block
    from the start vectors X, overwritten with the eigenvectors; e is the
    off-diagonal list padded with a zero and ``clusters`` the (start, stop)
    columns of the block's clusters."""
    n, k = X.shape
    s = shifts + _SHIFT_OFFSET * _EPS * tnorm
    floor = _EPS * tnorm
    # row i of U holds the pivot row's entries in columns i, i+1 and i+2;
    # w0, w1 are the entries of the row still to be eliminated
    U = np.zeros((n, 3, k))
    swaps = np.empty((n - 1, k), dtype=bool)
    mults = np.empty((n - 1, k))
    w0, w1 = d[0] - s, np.full(k, e[0])
    for i, swap, f in zip(range(n - 1), swaps, mults):
        below = d[i + 1] - s
        np.less(np.abs(w0), abs(e[i]), out=swap)
        U[i, 0] = np.where(swap, e[i], w0)
        U[i, 1] = np.where(swap, below, w1)
        U[i, 2] = swap * e[i + 1]
        np.divide(np.where(swap, w0, e[i]), U[i, 0], out=f)
        w0 = np.where(swap, w1, below) - f * U[i, 1]
        w1 = (e[i + 1] - U[i, 2]) - f * U[i, 2]
    U[n - 1, 0] = np.where(np.abs(w0) < floor, floor, w0)
    # U becomes the inverse pivots and the scaled upper entries in place
    inv = np.divide(1.0, U[:, 0], out=U[:, 0])
    U[:, 1] *= inv
    U[:, 2] *= inv
    rows = list(X) + [np.zeros(k)]
    for _ in range(2):
        for row, nxt, swap, f in zip(rows, rows[1:], swaps, mults):
            top = np.where(swap, nxt, row)
            nxt[:] = np.where(swap, row, nxt) - f * top
            row[:] = top
        X *= inv
        for row, nxt, nxt2, c1, c2 in zip(rows[n - 2::-1], rows[n - 1:0:-1],
                                          rows[n:1:-1], U[n - 2::-1, 1],
                                          U[n - 2::-1, 2]):
            row -= c1 * nxt + c2 * nxt2
        X /= np.abs(X).max(axis=0)
        X /= np.sqrt((X * X).sum(axis=0))
        for a, b in clusters:
            for j in range(b - 2, a - 1, -1):
                x, Q = X[:, j], X[:, j + 1:b]
                x -= Q @ (x @ Q)
                x -= Q @ (x @ Q)
                x /= math.sqrt(x @ x)


def _start_vectors(n, k):
    """Fixed pseudo-random (n, k) start vectors with entries in [-1, 1):
    the splitmix64 outputs 1, 2, ... in blocks of n, the first block
    starting the last column, so the largest shifts get the same vectors
    whatever k is (the generator of Steele, Lea & Flood, OOPSLA 2014)."""
    z = np.arange(1, n * k + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    u = z.astype(float)
    del z  # every array above is updated in place, to keep the peak low
    u *= 2.0 ** -52
    u -= 1.0
    return u.reshape(k, n)[::-1].T.copy()


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
