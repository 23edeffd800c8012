import numpy as np
import pytest

from nirb import fem, mesh
from nirb import reduced_basis as rb
from nirb.integrators import FieldTrajectory, TimeGrid


@pytest.fixture(scope="module")
def setup():
    m = mesh.build_structured(6, 6)
    forms = fem.assemble(m, bc="neumann_natural")
    return m, forms


def make_traj(m, values, param=1.0):
    grid = TimeGrid(0.0, 1.0, values.shape[0] - 1)
    return FieldTrajectory(mesh=m, grid=grid, values=values, parameter=param)


def l2_gram(forms, U):
    return rb.mass_inner(forms, U, U)


def h1_matvec(forms, U):
    """The blockwise H1 (mass plus stiffness) form of ``pod`` applied."""
    h1 = forms.mass.lincomb(forms.stiffness, 1.0, 1.0)
    return rb.block_matvec(h1, U)


def h1_inner(forms, U, V):
    """Blockwise H1 inner products; U (..., d) against V (k, d) -> (..., k)."""
    return np.asarray(U) @ h1_matvec(forms, V).T


def h1_norms(forms, U):
    """Rowwise H1 norms of (stacked) nodal fields."""
    U = np.atleast_2d(U)
    return np.sqrt((U * h1_matvec(forms, U)).sum(-1))


def build(trajs, forms, n_max):
    """The hierarchical POD basis of ``trajs``, each run prepared here."""
    return rb.hierarchical_pod([rb.h1_rows(traj.values, forms, n_max)
                                for traj in trajs.values()], forms, n_max)


class TestPod:
    def test_collinear_snapshots_single_mode(self, setup):
        m, forms = setup
        v = np.sin(2.0 * np.pi * m.nodes[:, 0])
        modes, sig = rb.pod(np.stack([v, 2.0 * v]), forms, 2)
        assert modes.shape[0] == 1
        assert sig[1] / sig[0] <= 1e-14
        nrm = h1_norms(forms, v)[0]
        assert np.abs(np.abs(modes[0]) - np.abs(v) / nrm).max() <= 1e-12

    def test_orthonormal_pair_spans_plane(self, setup):
        m, forms = setup
        a = np.ones(m.n_nodes)
        b = m.nodes[:, 0] - 0.5
        a = a / h1_norms(forms, a)[0]
        b = b - h1_inner(forms, b, a[None, :])[0] * a
        b = b / h1_norms(forms, b)[0]
        snaps = np.stack([a, b])
        modes, _ = rb.pod(snaps, forms, 2)
        assert modes.shape[0] == 2
        resid = snaps - h1_inner(forms, snaps, modes) @ modes
        assert h1_norms(forms, resid).max() <= 1e-12

    def test_modes_orthonormal(self, setup, rng):
        m, forms = setup
        snaps = rng.standard_normal((12, m.n_nodes))
        modes, _ = rb.pod(snaps, forms, 8)
        G = h1_inner(forms, modes, modes)
        assert np.abs(G - np.eye(modes.shape[0])).max() <= 1e-10

    def test_integer_keep_caps_count(self, setup, rng):
        m, forms = setup
        snaps = rng.standard_normal((10, m.n_nodes))
        modes, _ = rb.pod(snaps, forms, 3)
        assert modes.shape[0] == 3

    def test_all_zero_snapshots_give_zero_modes(self, setup, caplog):
        m, forms = setup
        modes, sig = rb.pod(np.zeros((4, m.n_nodes)), forms, 3)
        assert modes.shape == (0, m.n_nodes)
        assert np.array_equal(sig, np.zeros(4))
        assert "all-zero snapshot set" in caplog.text

    def test_rank_three_time_series_keeps_three_modes(self, setup):
        # 33 snapshots of three decaying spatial patterns, as a heat run
        # gives: a larger count stops at the rank, a smaller one caps it,
        # and every snapshot still has a singular value
        m, forms = setup
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        patterns = np.stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                             np.sin(2 * np.pi * x) * np.sin(np.pi * y),
                             np.cos(np.pi * x) * y])
        t = np.linspace(0.0, 1.0, 33)[:, None]
        snaps = np.exp(-t * np.array([1.0, 5.0, 20.0])) @ patterns
        modes, sig = rb.pod(snaps, forms, 10)
        assert modes.shape[0] == 3
        assert sig.shape == (33,)
        assert (sig[3:] == 0.0).all() and (sig[:3] > 0.0).all()
        resid = snaps - h1_inner(forms, snaps, modes) @ modes
        assert h1_norms(forms, resid).max() <= 1e-10 * sig[0]
        modes, sig = rb.pod(snaps, forms, 2)
        assert modes.shape[0] == 2 and sig.shape == (33,)

    def test_gram_of_one_trajectory_stays_on_the_calling_thread(
            self, setup, rng, monkeypatch):
        # at every snapshot count, one trajectory's or a pooled set's, the
        # Gram matrix and the mode product are formed in blocked pieces:
        # as one product OpenBLAS may hand either to a second thread,
        # which then spin-waits after the call
        m, forms = setup
        calls = []

        def recording(A, B):
            calls.append(A.shape)
            return blocked_matmul(A, B)

        blocked_matmul = rb.blocked_matmul
        monkeypatch.setattr(rb, "blocked_matmul", recording)
        for k in (5, 40, 41, 48):
            snaps = rng.standard_normal((k, m.n_nodes))
            calls.clear()
            modes, sig = rb.pod(snaps, forms, 5)
            assert calls == [(k, m.n_nodes), (5, k)]
            G = h1_inner(forms, snaps, snaps)
            want = np.sqrt(np.linalg.eigvalsh(G)[::-1])
            assert np.abs(sig - want).max() <= 1e-12 * want[0]
            assert np.abs(h1_inner(forms, modes, modes)
                          - np.eye(5)).max() <= 1e-10


class TestPreparedRuns:
    def test_a_subset_reads_the_prepared_set(self, setup, rng):
        # runs prepared once for the whole set give every subset the basis
        # it builds when it prepares its own runs, bit for bit
        m, forms = setup
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        t = np.linspace(0.0, 1.0, 6)[:, None]
        trajs = {mu: make_traj(m, np.exp(-mu * t) * np.sin(np.pi * x)
                               * np.sin(np.pi * y) + 0.1 * mu * t ** 2
                               * np.cos(np.pi * x * mu)
                               + 1e-3 * rng.standard_normal((6, m.n_nodes)),
                               param=mu)
                 for mu in (0.5, 1.0, 2.0, 4.0)}
        prepared = {mu: rb.h1_rows(traj.values, forms, 4)
                    for mu, traj in trajs.items()}
        for held_out in trajs:
            rest = {mu: tr for mu, tr in trajs.items() if mu != held_out}
            got = rb.hierarchical_pod([prepared[mu] for mu in rest], forms, 4)
            want = build(rest, forms, 4)
            assert np.array_equal(got.modes, want.modes)
            assert got.provenance == want.provenance


class TestHierarchicalPod:
    def test_matches_direct_pod_on_single_block(self, setup, rng):
        m, forms = setup
        values = rng.standard_normal((8, m.n_nodes))
        basis = build({1.0: make_traj(m, values)}, forms, 4)
        direct, _ = rb.pod(values, forms, 4)
        direct = rb.mass_orthonormalize(direct, forms)
        P1 = basis.modes.T @ block_mass(forms, basis.modes)
        P2 = direct.T @ block_mass(forms, direct)
        assert np.abs(P1 - P2).max() <= 1e-9

    def test_one_round_matches_pooled(self, setup, rng):
        # On trajectories of rank at most the mode budget every per-trajectory
        # compression is lossless, so the one round spans what the H1 POD of
        # all snapshots pooled spans.
        m, forms = setup
        base = rng.standard_normal((3, m.n_nodes))
        trajs = {float(k): make_traj(m, rng.standard_normal((10, 3)) @ base,
                                     param=float(k)) for k in range(3)}
        basis = build(trajs, forms, 3)
        pooled, sig = rb.pod(np.vstack([t.values for t in trajs.values()]),
                             forms, 3)
        pooled = rb.mass_orthonormalize(pooled, forms)
        P1 = basis.modes.T @ block_mass(forms, basis.modes)
        P2 = pooled.T @ block_mass(forms, pooled)
        assert np.abs(P1 - P2).max() <= 1e-8
        assert basis.provenance["pooled_rows"] == 9
        # and its recorded spectrum is the pooled POD's
        spectrum = basis.provenance["spectrum"]
        assert all(type(s) is float for s in spectrum)
        assert spectrum[:3] == pytest.approx(sig[:3], rel=1e-8)

    def test_h1_ranking_keeps_stiff_direction(self, setup):
        # A tiny sharp feature loses the L2 ranking but dominates the
        # stiffness energy, so the one-mode h1 basis keeps it.
        m, forms = setup
        smooth = np.ones(m.n_nodes)
        spike = np.zeros(m.n_nodes)
        spike[m.n_nodes // 2] = 2.0
        values = np.stack([smooth + spike, smooth - spike])
        trajs = {1.0: make_traj(m, values)}
        # the top L2 POD mode: the leading eigenvector of the mass Gram
        lam, V = np.linalg.eigh(l2_gram(forms, values))
        l2_modes = (V[:, -1] @ values)[None, :] / np.sqrt(lam[-1])
        h1_modes = build(trajs, forms, 1).modes
        # under l2 the kept mode is nearly constant; under h1 it is nearly
        # the spike, measured by the stiffness energy it retains
        def stiff_energy(modes):
            v = modes[0]
            return float(v @ forms.stiffness.matvec(v))
        assert stiff_energy(h1_modes) > 100.0 * stiff_energy(l2_modes)

    def test_output_l2_orthonormal(self, setup, rng):
        m, forms = setup
        trajs = {k: make_traj(m, rng.standard_normal((6, m.n_nodes)),
                              param=float(k)) for k in range(3)}
        basis = build(trajs, forms, 8)
        G = l2_gram(forms, basis.modes)
        assert np.abs(G - np.eye(basis.N)).max() <= 1e-10

    def test_respects_mode_budget(self, setup, rng):
        m, forms = setup
        trajs = {k: make_traj(m, rng.standard_normal((4, m.n_nodes)),
                              param=float(k)) for k in range(5)}
        basis = build(trajs, forms, 3)
        assert basis.N == 3
        assert basis.provenance["pooled_rows"] == 15

    def test_empty_training_set(self, setup):
        with pytest.raises(ValueError, match="empty training set"):
            rb.hierarchical_pod([], setup[1], 3)

    def test_a_vanishing_mode_raises_naming_the_builder(self, setup, rng,
                                                      monkeypatch):
        # pooled modes with a vanishing one have a singular mass Gram and
        # cannot be orthonormalized
        m, forms = setup
        values = rng.standard_normal((8, m.n_nodes))
        prepared = rb.h1_rows(values, forms, 3)
        pod = rb.pod

        def vanishing(*args, **kwargs):
            modes, sig = pod(*args, **kwargs)
            modes[2] = 0.0
            return modes, sig

        monkeypatch.setattr(rb, "pod", vanishing)
        with pytest.raises(RuntimeError, match="hierarchical_pod could not "
                                               "L2-orthonormalize its 3 "
                                               "modes: .*not positive "
                                               "definite"):
            rb.hierarchical_pod([prepared], forms, 3)


def gram_schmidt(rows, forms):
    """Two-pass modified Gram-Schmidt in the mass inner product, row by
    row, as a reference."""
    Q = np.array(rows, dtype=float)
    for i in range(len(Q)):
        for _ in range(2):
            for j in range(i):
                Q[i] -= rb.mass_inner(forms, Q[i], Q[j:j + 1])[0] * Q[j]
        Q[i] /= np.sqrt(rb.mass_inner(forms, Q[i], Q[i:i + 1])[0])
    return Q


class TestMassOrthonormalize:
    @pytest.mark.parametrize("n_fields", [1, 2])
    def test_matches_gram_schmidt(self, setup, rng, n_fields):
        # the same rows as Gram-Schmidt, and a mass Gram at the identity
        m, forms = setup
        rows = rng.standard_normal((6, n_fields * m.n_nodes))
        rows[1] += 3.0 * rows[0]
        got = rb.mass_orthonormalize(rows, forms)
        want = gram_schmidt(rows, forms)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(l2_gram(forms, got) - np.eye(6)).max() <= 1e-14

    def test_a_vanishing_row_is_rejected(self, setup, rng):
        m, forms = setup
        rows = rng.standard_normal((3, m.n_nodes))
        rows[1] = 0.0
        with pytest.raises(ValueError, match="not positive definite"):
            rb.mass_orthonormalize(rows, forms)


def block_mass(forms, U):
    return np.stack([forms.mass.matvec(u) for u in U])


class TestCoefficients:
    def test_roundtrip_in_span(self, setup, rng):
        m, forms = setup
        snaps = rng.standard_normal((6, m.n_nodes))
        modes = rb.mass_orthonormalize(rb.pod(snaps, forms, 4)[0], forms)
        basis = rb.ReducedBasis(mesh=m, modes=modes)
        want = rng.standard_normal((3, 4))
        fields = rb.reconstruct(basis, want)
        back = rb.coefficients(basis, forms, fields)
        assert back == pytest.approx(want, abs=1e-10)

    def test_two_field_blocks(self, setup, rng):
        m, forms = setup
        snaps = rng.standard_normal((6, 2 * m.n_nodes))
        modes = rb.mass_orthonormalize(rb.pod(snaps, forms, 3)[0], forms)
        basis = rb.ReducedBasis(mesh=m, modes=modes)
        assert basis.n_fields == 2
        G = rb.mass_inner(forms, modes, modes)
        assert np.abs(G - np.eye(3)).max() <= 1e-10
        coef = rb.coefficients(basis, forms, snaps[:2])
        assert coef.shape == (2, 3)
