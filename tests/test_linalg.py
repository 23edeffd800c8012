import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nirb import fem, integrators, linalg, mesh, models


def random_spd(rng, n, cond=10.0):
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = np.geomspace(1.0, cond, n)
    return Q @ np.diag(d) @ Q.T


def rotated(rng, eigenvalues):
    """Q diag(eigenvalues) Q^T for a random orthogonal Q, symmetrized."""
    n = len(eigenvalues)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    G = (Q * np.asarray(eigenvalues, dtype=float)) @ Q.T
    return 0.5 * (G + G.T)


def assert_eigenpairs(G, lam, V):
    """Eigenvalues within 1e-10 ||G|| of the numpy oracle, residual within
    1e-12 ||G|| and orthonormality within 1e-12 for the returned vectors,
    which belong to the largest eigenvalues."""
    ref = np.linalg.eigvalsh(G)
    scale = max(np.abs(ref).max(), np.finfo(float).tiny)
    k = V.shape[1]
    assert lam.shape == ref.shape and V.shape == (G.shape[0], k)
    assert np.abs(lam - ref).max() <= 1e-10 * scale
    residual = G @ V - V * lam[lam.size - k:]
    assert np.abs(residual).max(initial=0.0) <= 1e-12 * scale
    assert np.abs(V.T @ V - np.eye(k)).max(initial=0.0) <= 1e-12


def sparse_from_dense(A):
    rows, cols = np.nonzero(A)
    return linalg.SparseSym.from_coo(A.shape[0], rows, cols, A[rows, cols])


class TestSparseSym:
    def test_dense_roundtrip(self, rng):
        A = random_spd(rng, 6)
        A[np.abs(A) < 0.1] = 0.0
        A = 0.5 * (A + A.T)
        S = sparse_from_dense(A)
        assert S.to_dense() == pytest.approx(A)

    def test_coo_duplicates_accumulate(self):
        S = linalg.SparseSym.from_coo(2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
        assert S.to_dense() == pytest.approx(np.array([[3.0, 0.0], [0.0, 5.0]]))

    def test_matvec_matches_dense(self, rng):
        A = random_spd(rng, 8)
        S = sparse_from_dense(A)
        x = rng.standard_normal(8)
        assert S.matvec(x) == pytest.approx(A @ x)

    def test_stacked_matvec_is_the_rowwise_matvec(self, rng):
        # one product over leading axes gives every row's 1-D product bit
        # for bit, and the 1-D product is the plain gather and a sum over
        # the slots in slot order
        S = fem.assemble(mesh.build_structured(5, 5)).stiffness
        X = rng.standard_normal((3, 2, S.n))
        x = X[0, 0]
        want = S.vals[0] * x[S.cols[0]]
        for vals, cols in zip(S.vals[1:], S.cols[1:]):
            want = want + vals * x[cols]
        assert np.array_equal(S.matvec(x), want)
        for stacked in (X[0], X):
            rows = stacked.reshape(-1, S.n)
            want = np.stack([S.matvec(r) for r in rows])
            assert np.array_equal(S.matvec(stacked),
                                  want.reshape(stacked.shape))

    def test_stacked_matvec_gathers_in_bounded_chunks(self, rng):
        # the pooled snapshots of an rd POD: 180 rows of two species on the
        # 24^2 mesh, whose gather in one piece took 12.6 MB
        S = fem.assemble(mesh.build_structured(24, 24)).mass
        X = rng.standard_normal((180, 2, S.n))
        want = np.stack([S.matvec(r) for r in X.reshape(-1, S.n)])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = S.matvec(X)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the output and one chunk's gather of about 1 MB
        assert peak <= X.nbytes + 1.5e6
        assert np.array_equal(got, want.reshape(X.shape))

    def test_matvec_checks_the_operand_width(self):
        S = fem.assemble(mesh.build_structured(4, 4)).mass
        with pytest.raises(ValueError, match=r"operand has shape \(2, 50\)"):
            S.matvec(np.zeros((2, 2 * S.n)))

    @pytest.mark.parametrize("seed", range(4))
    def test_matvec_matches_dense_on_uneven_rows(self, seed):
        # random SPD patterns whose rows run from the diagonal alone to
        # well past the 7 slots of a structured mesh
        rng = np.random.default_rng(seed)
        n = 40
        mask = rng.random((n, n)) < 0.04
        mask[:3] |= rng.random((3, n)) < 0.5
        mask = np.triu(mask, 1)
        mask[:, -1] = False  # the last row holds only its diagonal
        A = np.where(mask, rng.standard_normal((n, n)), 0.0)
        A = A + A.T
        A += np.diag(np.abs(A).sum(axis=1) + rng.random(n) + 0.5)
        S = sparse_from_dense(A)
        lengths = 1 + (S.cols[1:] != np.arange(n)).sum(axis=0)
        assert S.cols.shape == (lengths.max(), n) and lengths.max() > 7
        assert lengths.min() == 1
        assert S._entries()[0].size == np.count_nonzero(A)
        assert np.array_equal(S.to_dense(), A)
        assert np.array_equal(S.vals[0], np.diag(A))
        X = rng.standard_normal((2, 3, n))
        assert np.abs(S.matvec(X) - X @ A).max() \
            <= 1e-14 * np.abs(A).sum(axis=1).max() * np.abs(X).max()

    @pytest.mark.parametrize("free", [False, True])
    def test_nan_reaches_only_the_rows_that_touch_it(self, free):
        # padding points at its own row, so a NaN entry of x spoils exactly
        # the rows whose pattern holds its column
        forms = fem.assemble(mesh.build_structured(4, 4))
        M = forms.mass_free() if free else forms.mass
        pattern = M.to_dense() != 0.0
        for k in range(M.n):
            x = np.ones(M.n)
            x[k] = np.nan
            assert np.array_equal(np.isnan(M.matvec(x)), pattern[:, k])

    def test_layout_invariants_are_checked(self):
        # the tridiagonal 3x3 [[2, 1, 0], [1, 2, 1], [0, 1, 2]]: row 1 has
        # two off-diagonal slots, rows 0 and 2 one and a padding slot
        A = linalg.SparseSym.from_coo(3, [0, 0, 1, 1, 1, 2, 2],
                                      [0, 1, 0, 1, 2, 1, 2],
                                      [2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0])
        assert np.array_equal(A.cols, [[0, 1, 2], [1, 0, 1], [0, 2, 2]])
        assert np.array_equal(A.vals, [[2.0, 2.0, 2.0], [1.0, 1.0, 1.0],
                                       [0.0, 1.0, 0.0]])
        assert A._entries()[0].size == 7
        linalg.SparseSym(3, A.cols, A.vals)

        cases = [  # (message, array, slot index, corrupt value)
            ("slot 0 must hold the diagonal", "cols", (slice(0, 2), 1),
             [0, 1]),
            ("padding entries must be zero", "vals", (2, 0), 1.0),
            ("sorted and unique per row", "cols", (slice(1, 3), 1), [2, 0]),
            ("not structurally symmetric", "cols", (1, 2), 0),
            ("values are not symmetric", "vals", (1, 0), 1.5),
            ("column index out of range", "cols", (1, 0), 3),
        ]
        for message, name, index, value in cases:
            arrays = {"cols": A.cols.copy(), "vals": A.vals.copy()}
            arrays[name][index] = value
            with pytest.raises(ValueError, match=message):
                linalg.SparseSym(3, arrays["cols"], arrays["vals"])
        with pytest.raises(ValueError, match=r"expected \(r, 3\)"):
            linalg.SparseSym(3, A.cols[:, :2], A.vals[:, :2])

    def test_diagonal(self, rng):
        A = random_spd(rng, 5)
        assert sparse_from_dense(A).vals[0] == pytest.approx(np.diag(A))

    def test_lincomb(self, rng):
        A = random_spd(rng, 5)
        B = random_spd(rng, 5)
        B[A == 0.0] = 0.0
        SA, SB = sparse_from_dense(A), sparse_from_dense(B)
        C = SA.lincomb(SB, 2.0, -0.5)
        assert C.to_dense() == pytest.approx(2.0 * A - 0.5 * SB.to_dense())

    def test_restrict(self, rng):
        A = random_spd(rng, 6)
        keep = np.array([0, 2, 5])
        R = sparse_from_dense(A).restrict(keep)
        assert R.to_dense() == pytest.approx(A[np.ix_(keep, keep)])


def heat_lhs(nx, bc="dirichlet_zero", dt=1.0 / 32.0, alpha=4.0):
    forms = fem.assemble(mesh.build_structured(nx, nx), bc=bc)
    return forms.mass_free().lincomb(forms.stiffness_free(), 1.0, dt * alpha)


def banded_matrix(n, offdiag):
    """Diagonally dominant symmetric band: 1 to 4 plus 2 sum|offdiag| on
    the diagonal, offdiag[k - 1] on the k-th off-diagonals."""
    rows, cols, vals = [np.arange(n)], [np.arange(n)], \
        [np.linspace(1.0, 4.0, n) + 2.0 * np.abs(offdiag).sum()]
    for k, v in enumerate(offdiag, start=1):
        i = np.arange(n - k)
        rows += [i, i + k]
        cols += [i + k, i]
        vals += [np.full(n - k, v)] * 2
    return linalg.SparseSym.from_coo(n, np.concatenate(rows),
                                     np.concatenate(cols),
                                     np.concatenate(vals))


class TestBandFactor:
    @pytest.mark.parametrize("make", [
        lambda: heat_lhs(8),
        # 64 free dofs, bandwidth 9: 8 blocks of one grid row
        lambda: heat_lhs(9),
        lambda: heat_lhs(6, bc="neumann_natural", dt=0.1, alpha=0.05),
        lambda: banded_matrix(1, []),
        lambda: banded_matrix(5, []),                 # bandwidth 0
        lambda: banded_matrix(12, [-1.0, 0.5, 0.25]),  # 4 full blocks of 3
        # blocks of 3 again: the last block is one row and padding
        lambda: banded_matrix(13, [-1.0, 0.5, 0.25]),
    ], ids=["dirichlet-8", "dirichlet-9", "neumann-6", "one-by-one",
            "diagonal", "full-blocks", "padded"])
    def test_matches_dense_solve(self, make, rng):
        A = make()
        b = rng.standard_normal(A.n)
        x = linalg.BandFactor(A).solve(b)
        want = np.linalg.solve(A.to_dense(), b)
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("bc", ["dirichlet_zero", "neumann_natural"])
    @pytest.mark.parametrize("nx", [4, 5, 8, 12, 16, 20, 24, 28, 32])
    def test_blocks_tile_the_structured_pencils(self, nx, bc, rng):
        # one grid row of dofs per block, one less than the bandwidth, so
        # no block is identity padding
        A = heat_lhs(nx, bc=bc)
        F = linalg.BandFactor(A)
        nb, bs = F.block_shape
        assert bs == (nx - 1 if bc == "dirichlet_zero" else nx + 1)
        assert nb * bs == A.n
        assert F.levels == nb.bit_length()
        b = rng.standard_normal(A.n)
        want = np.linalg.solve(A.to_dense(), b)
        assert np.abs(F.solve(b) - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=80, deadline=None)
    @given(nb=st.integers(1, 40), bs=st.integers(1, 6), data=st.data())
    def test_cyclic_reduction_matches_dense_solve(self, nb, bs, data):
        # a full band of width bs over at least 2 bs - 1 rows makes blocks
        # of bs rows; the last one holds 1 to bs of them and is padded with
        # identity rows
        n = (nb - 1) * bs + data.draw(st.integers(1, bs), label="last")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        i, j = np.indices((n, n))
        A = np.where(np.abs(i - j) <= bs, rng.standard_normal((n, n)), 0.0)
        A = A + A.T
        np.fill_diagonal(A, 0.0)
        A += np.diag(np.abs(A).sum(axis=1) + rng.random(n) + 0.1)
        F = linalg.BandFactor(sparse_from_dense(A))
        if n >= 2 * bs - 1:
            assert F.block_shape == (nb, bs)
        assert F.levels == F.block_shape[0].bit_length()
        b = rng.standard_normal(n)
        want = np.linalg.solve(A, b)
        assert np.abs(F.solve(b) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("nb, levels", [
        (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (31, 5), (32, 6)])
    def test_levels_halve_the_block_count(self, nb, levels):
        # 31 blocks, the grid rows of the 32^2 fine heat matrix, take 5
        F = linalg.BandFactor(banded_matrix(3 * nb, [-1.0, 0.5, 0.25]))
        assert F.block_shape == (nb, 3)
        assert F.levels == levels

    def test_indefinite_names_the_block_of_a_later_level(self):
        # unit diagonal blocks, so every block of the input is SPD; the
        # second rows of the 7 blocks form tridiag(0.6, 1, 0.6), which is
        # indefinite (lowest eigenvalue 1 - 1.2 cos(pi / 8) < 0), and the
        # third level finds it in the Schur complement of block 3
        def tridiagonal(c):
            return np.eye(7) + c * (np.eye(7, k=1) + np.eye(7, k=-1))

        A = (np.kron(tridiagonal(0.1), np.diag([1.0, 0.0]))
             + np.kron(tridiagonal(0.6), np.diag([0.0, 1.0])))
        assert np.linalg.eigvalsh(A)[0] < 0.0
        with pytest.raises(ValueError,
                           match=r"not positive definite \(block 3, pivot 1"):
            linalg.BandFactor(sparse_from_dense(A))

    @pytest.mark.parametrize("mu", [0.5, 9.5])
    def test_row_blocks_keep_the_fine_heat_states(self, mu, monkeypatch):
        # the 32^2 fine heat march on grid-row blocks stays within 1e-12 of
        # the march on blocks of the bandwidth, whose last block is padding
        forms = fem.assemble(mesh.build_structured(32, 32))
        grid = integrators.TimeGrid(0.5, 1.0, 32)

        def march():
            return integrators.heat_backward_euler(
                forms, mu, models.manufactured_f, grid).values

        got = march()
        monkeypatch.setattr(linalg, "_block_size",
                            lambda rows, cols: int(np.abs(rows - cols).max()))
        want = march()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_negative_definite_names_the_pivot(self):
        forms = fem.assemble(mesh.build_structured(4, 4), bc="dirichlet_zero")
        minus_m = forms.mass_free().lincomb(forms.mass_free(), -1.0, 0.0)
        with pytest.raises(ValueError,
                           match=r"not positive definite \(block 0, pivot 0"):
            linalg.BandFactor(minus_m)

    def test_solves_share_no_state(self, rng):
        # the factor reuses its level buffers: each solve returns its own
        # array, and a NaN in one right-hand side, which reaches the padding
        # rows of the last block, leaves the next solve intact
        A = banded_matrix(13, [-1.0, 0.5, 0.25])
        F = linalg.BandFactor(A)
        b1, b2 = rng.standard_normal((2, A.n))
        x1 = F.solve(b1)
        bad = b2.copy()
        bad[-1] = np.nan
        with np.errstate(invalid="ignore"):
            assert np.isnan(F.solve(bad)).all()
        x2 = F.solve(b2)
        assert not np.shares_memory(x1, x2)
        assert np.array_equal(x1, F.solve(b1))
        want = np.linalg.solve(A.to_dense(), b2)
        assert np.abs(x2 - want).max() <= 1e-12 * np.abs(want).max()

    def test_rhs_shape_checked(self):
        with pytest.raises(ValueError, match="rhs has shape"):
            linalg.BandFactor(heat_lhs(4)).solve(np.zeros(5))


def block_size_by_search(rows, cols):
    """The smallest block size that fits, by trying every candidate."""
    w = int(np.abs(rows - cols).max())
    for b in range(w // 2 + 1, w):
        if (np.abs(rows // b - cols // b) <= 1).all():
            return b
    return max(w, 1)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), data=st.data())
def test_block_size_matches_the_search(n, data):
    pairs = np.array(data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=80)), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([np.arange(n), pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([np.arange(n), pairs[:, 1], pairs[:, 0]])
    assert linalg._block_size(rows, cols) == block_size_by_search(rows, cols)


class TestCholesky:
    @pytest.mark.parametrize("make", [
        lambda rng: random_spd(rng, 30, cond=1e6),
        lambda rng: heat_lhs(6).to_dense(),
        lambda rng: banded_matrix(12, [-1.0, 0.5, 0.25]).to_dense(),
        lambda rng: np.array([[4.0]]),
    ], ids=["dense", "heat", "band-3", "one-by-one"])
    def test_reproduces_the_matrix(self, make, rng):
        A = make(rng)
        L = linalg.cholesky(A)
        assert np.array_equal(L, np.tril(L))
        assert np.abs(L @ L.T - A).max() <= 1e-14 * np.abs(A).max()
        assert np.abs(L - np.linalg.cholesky(A)).max() \
            <= 1e-12 * np.abs(L).max()

    def test_indefinite_names_the_pivot(self):
        with pytest.raises(ValueError, match=r"not positive definite "
                           r"\(Cholesky pivot 1: -3\.000e\+00\)"):
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestPencilEig:
    @pytest.mark.parametrize("nx, bc", [(2, "dirichlet_zero"),
                                        (6, "dirichlet_zero"),
                                        (4, "neumann_natural")])
    def test_mass_orthonormal_eigenpairs(self, nx, bc):
        forms = fem.assemble(mesh.build_structured(nx, nx), bc=bc)
        Md = forms.mass_free().to_dense()
        Kd = forms.stiffness_free().to_dense()
        lam, V = linalg.pencil_eig(Kd, Md)
        Linv = np.linalg.inv(np.linalg.cholesky(Md))
        ref = np.linalg.eigvalsh(Linv @ Kd @ Linv.T)
        assert np.abs(lam - ref).max() <= 1e-12 * ref.max()
        assert np.abs(Kd @ V - Md @ V * lam).max() <= 1e-12 * ref.max()
        assert np.abs(V.T @ Md @ V - np.eye(len(Md))).max() <= 1e-12
        res, orth = linalg.pencil_residuals(Kd @ V, Md @ V, lam, V)
        assert res <= 1e-14 and orth <= 1e-13

    def test_residuals_see_a_corrupted_decomposition(self):
        forms = fem.assemble(mesh.build_structured(4, 4))
        M = forms.mass_free().to_dense()
        K = forms.stiffness_free().to_dense()
        lam, V = linalg.pencil_eig(K, M)
        res, orth = linalg.pencil_residuals(K @ V, M @ V, lam * (1.0 + 1e-6),
                                            V)
        assert 1e-7 < res < 1e-5 and orth <= 1e-13
        W = V * (1.0 + 1e-6)
        res, orth = linalg.pencil_residuals(K @ W, M @ W, lam, W)
        assert res <= 1e-14 and 1e-6 < orth < 1e-5


@pytest.mark.parametrize("rows", [0, 1, 4, 5, 9])
def test_blocked_matmul(rng, rows):
    A, B = rng.standard_normal((rows, 30)), rng.standard_normal((30, 7))
    got = linalg.blocked_matmul(A, B)
    assert got.shape == (rows, 7)
    assert np.abs(got - A @ B).max(initial=0.0) <= 1e-13


class TestBiCGStab:
    def test_nonsymmetric_matches_oracle(self, rng):
        A = random_spd(rng, 15) + 0.3 * rng.standard_normal((15, 15))
        b = rng.standard_normal(15)
        x, _ = linalg.bicgstab_solve(lambda v: A @ v, b, tol=1e-12,
                                     precond=lambda v: v / np.diag(A))
        assert x == pytest.approx(np.linalg.solve(A, b), rel=1e-8)

    def test_identity_immediate(self):
        b = np.array([3.0, -1.0])
        x, _ = linalg.bicgstab_solve(lambda v: v, b, lambda v: v)
        assert x == pytest.approx(b)


class TestSymEig:
    def test_diagonal(self):
        lam, V = linalg.sym_eig(np.diag([2.0, 1.0]))
        assert lam == pytest.approx([1.0, 2.0])
        assert np.abs(V) == pytest.approx(np.eye(2)[:, ::-1])

    def test_off_diagonal_pair(self):
        lam, V = linalg.sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx([-1.0, 1.0])
        r = 1.0 / np.sqrt(2.0)
        assert abs(V[:, 0] @ [r, -r]) == pytest.approx(1.0)
        assert abs(V[:, 1] @ [r, r]) == pytest.approx(1.0)

    def test_identity(self):
        lam, V = linalg.sym_eig(np.eye(4))
        assert lam == pytest.approx(np.ones(4))
        assert V.T @ V == pytest.approx(np.eye(4), abs=1e-12)

    def test_equal_diagonal_rotation(self):
        # Equal diagonal entries force the full 45-degree rotation branch.
        lam, _ = linalg.sym_eig(np.array([[1.0, 1e-3], [1e-3, 1.0]]))
        assert lam == pytest.approx([1.0 - 1e-3, 1.0 + 1e-3])

    def test_random_matches_oracle(self, rng):
        for n in (3, 7, 20):
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            lam, V = linalg.sym_eig(A)
            assert np.all(np.diff(lam) >= -1e-12)
            assert lam == pytest.approx(np.linalg.eigvalsh(A), abs=1e-10)
            assert V.T @ V == pytest.approx(np.eye(n), abs=1e-10)
            assert A @ V == pytest.approx(V @ np.diag(lam), abs=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            linalg.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_exact_degeneracy(self, rng):
        for G in (np.eye(4), rotated(rng, [1.0, 1.0, 1.0, 2.0, 2.0])):
            lam, V = linalg.sym_eig(G)
            assert np.isfinite(V).all()
            assert_eigenpairs(G, lam, V)

    def test_zero_and_one_by_one(self):
        lam, V = linalg.sym_eig(np.zeros((5, 5)))
        assert np.array_equal(lam, np.zeros(5))
        assert_eigenpairs(np.zeros((5, 5)), lam, V)
        lam, V = linalg.sym_eig(np.array([[-3.0]]))
        assert lam.tolist() == [-3.0] and V.tolist() == [[1.0]]

    @pytest.mark.parametrize("top", [None, 0])
    def test_empty(self, top):
        lam, V = linalg.sym_eig(np.zeros((0, 0)), top=top)
        assert lam.shape == (0,) and V.shape == (0, 0)

    def test_pod_like_spectrum_top(self, rng):
        G = rotated(rng, np.logspace(0, -14, 180))
        lam, V = linalg.sym_eig(G, top=10)
        assert V.shape == (180, 10)
        assert_eigenpairs(G, lam, V)

    def test_wishart_full_spectrum(self, rng):
        W = rng.standard_normal((60, 90))
        G = W @ W.T
        assert_eigenpairs(G, *linalg.sym_eig(G))

    def test_top_is_the_tail_of_the_full_solve(self, rng):
        W = rng.standard_normal((40, 50))
        G = W @ W.T
        lam, V = linalg.sym_eig(G)
        for k in (0, 1, 7, 40):
            lam_k, V_k = linalg.sym_eig(G, top=k)
            assert np.array_equal(lam_k, lam)
            assert np.abs(V_k - V[:, 40 - k:]).max(initial=0.0) <= 1e-12
            # each vector's largest-magnitude entry is positive
            assert (V_k[np.abs(V_k).argmax(axis=0), np.arange(k)] > 0).all()

    def test_repeatable_bit_for_bit(self, rng):
        G = rotated(rng, [3.0, 1.0, 1.0, 0.0, 0.0, 0.0, -2.0])
        lam1, V1 = linalg.sym_eig(G, top=5)
        lam2, V2 = linalg.sym_eig(G.copy(), top=5)
        assert np.array_equal(lam1, lam2) and np.array_equal(V1, V2)

    def test_top_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="top"):
            linalg.sym_eig(np.eye(3), top=4)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.sampled_from([-2.0, -1e-9, 0.0, 1.0, 1.0 + 1e-13,
                                            4.0]), min_size=1, max_size=9),
           repeats=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           top=st.integers(min_value=0, max_value=27))
    def test_forced_repeated_eigenvalues(self, values, repeats, seed, top):
        G = rotated(np.random.default_rng(seed), values * repeats)
        lam, V = linalg.sym_eig(G, top=min(top, G.shape[0]))
        assert_eigenpairs(G, lam, V)


def sym_eig_in_blocks(G, top, width):
    """``sym_eig`` with inverse iteration run in blocks of ``width`` shifts
    (the tridiagonal of G is unreduced)."""
    with mock.patch.object(linalg, "_INVERSE_ITERATION_ENTRIES",
                           width * G.shape[0]):
        return linalg.sym_eig(G, top=top)


def dirichlet_pencil_matrix(nx):
    """L^-1 K L^-T for the free-dof mass M = L L^T and stiffness K of the
    nx-by-nx Dirichlet square, whose spectrum has exactly repeated pairs."""
    forms = fem.assemble(mesh.build_structured(nx, nx))
    M = forms.mass_free().to_dense()
    K = forms.stiffness_free().to_dense()
    Linv = np.linalg.inv(np.linalg.cholesky(M))
    C = Linv @ K @ Linv.T
    return 0.5 * (C + C.T)


class TestInverseIterationBlocks:
    @pytest.mark.parametrize("width", [1, 2, 7, 64])
    def test_blocks_are_bit_identical_to_one_block(self, width):
        G = dirichlet_pencil_matrix(12)
        one = sym_eig_in_blocks(G, None, 10 ** 6)
        lam, V = sym_eig_in_blocks(G, None, width)
        assert np.array_equal(lam, one[0]) and np.array_equal(V, one[1])
        assert_eigenpairs(G, lam, V)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.sampled_from([-2.0, -1e-9, 0.0, 1.0, 1.0 + 1e-13,
                                            4.0]), min_size=1, max_size=9),
           repeats=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           width=st.integers(min_value=1, max_value=5))
    def test_clustered_spectra_in_blocks(self, values, repeats, seed, width):
        G = rotated(np.random.default_rng(seed), values * repeats)
        one = sym_eig_in_blocks(G, None, 10 ** 6)
        lam, V = sym_eig_in_blocks(G, None, width)
        assert np.array_equal(lam, one[0]) and np.array_equal(V, one[1])

    def test_work_memory_is_bounded(self):
        # the (n, 3, k) pivot rows, the multipliers and the Sturm table of
        # a full 225-dof spectrum once took about 5 MB above the input
        G = dirichlet_pencil_matrix(16)
        assert G.shape == (225, 225)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lam, V = linalg.sym_eig(G)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2e6
        one = sym_eig_in_blocks(G, None, 10 ** 6)
        assert np.array_equal(lam, one[0]) and np.array_equal(V, one[1])
        assert_eigenpairs(G, lam, V)


class TestRegularizedNormal:
    def test_square_invertible_zero_delta(self, rng):
        A = random_spd(rng, 4)
        B = rng.standard_normal((4, 2))
        R = linalg.solve_regularized_normal(A, B, 0.0)
        assert R == pytest.approx(np.linalg.solve(A, B), rel=1e-8)

    def test_identity_with_unit_delta(self):
        R = linalg.solve_regularized_normal(np.eye(3), np.eye(3), 1.0)
        assert R == pytest.approx(0.5 * np.eye(3))

    def test_least_squares_mean(self):
        A = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [4.0]])
        R = linalg.solve_regularized_normal(A, B, 0.0)
        assert R == pytest.approx(np.array([[3.0]]))

    def test_rank_deficiency_screened(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="rank deficient"):
            linalg.solve_regularized_normal(A, np.eye(2), 0.0)

    def test_ill_conditioned_screened_from_eigenvalues_only(self, rng,
                                                            monkeypatch):
        # nonsingular, but cond(A^T A) is about 1e13, past the 1e12 screen;
        # the screen asks the eigensolver for no eigenvectors
        A = rotated(rng, [1.0, 0.3, np.sqrt(1e-13)])
        tops = []
        sym_eig = linalg.sym_eig

        def spy(G, top=None):
            tops.append(top)
            return sym_eig(G, top)

        monkeypatch.setattr(linalg, "sym_eig", spy)
        with pytest.raises(ValueError, match="rank deficient"):
            linalg.solve_regularized_normal(A, np.eye(3), 0.0)
        assert tops == [0]

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            linalg.solve_regularized_normal(np.eye(2), np.eye(2), -1.0)

    @pytest.mark.parametrize("N", [3, 10])
    def test_batched_matches_per_index_dense_solves(self, rng, N):
        A = rng.standard_normal((6, 2 * N, N))
        B = rng.standard_normal((6, 2 * N, N))
        delta = np.array([0.0, 1e-10, 1e-3, 0.0, 1.0, 1e-6])
        R = linalg.solve_regularized_normal(A, B, delta)
        for a, b, d, r in zip(A, B, delta, R):
            want = np.linalg.solve(a.T @ a + d * np.eye(N), a.T @ b)
            assert np.abs(r - want).max() <= 1e-12 * np.abs(want).max()

    def test_batched_failure_names_its_label(self):
        # a zero system fails the delta = 0 screen, a non-finite one the
        # pivot check; either names its own entry of the labels
        A = np.stack([np.eye(2), np.eye(2), np.zeros((2, 2))])
        labels = [f"time index {n}" for n in range(3)]
        with pytest.raises(ValueError, match=r"rank deficient at delta=0 "
                                             r"\(time index 2: "):
            linalg.solve_regularized_normal(A, A, 0.0, labels)
        A[2, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"not positive definite "
                                             r"\(time index 2, pivot 0"):
            linalg.solve_regularized_normal(A, A, 1.0, labels)

    def test_shrinkage_monotone(self, rng):
        A = rng.standard_normal((10, 4))
        B = rng.standard_normal((10, 4))
        norms = [np.linalg.norm(linalg.solve_regularized_normal(A, B, d))
                 for d in (0.0, 1e-6, 1e-3, 1.0, 10.0)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
