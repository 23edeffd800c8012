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


class TestPod:
    def test_collinear_snapshots_single_mode(self, setup):
        m, forms = setup
        v = np.sin(2.0 * np.pi * m.nodes[:, 0])
        modes, sig = rb.pod(np.stack([v, 2.0 * v]), forms, 1e-10)
        assert modes.shape[0] == 1
        assert sig[1] / sig[0] <= 1e-14
        nrm = rb.l2_norms(forms, v)
        assert np.abs(np.abs(modes[0]) - np.abs(v) / nrm).max() <= 1e-12

    def test_orthonormal_pair_spans_plane(self, setup):
        m, forms = setup
        a = np.ones(m.n_nodes)
        b = m.nodes[:, 0] - 0.5
        a = a / rb.l2_norms(forms, a)
        b = b - rb.mass_inner(forms, b, a[None, :])[0] * a
        b = b / rb.l2_norms(forms, b)
        snaps = np.stack([a, b])
        modes, _ = rb.pod(snaps, forms, 2)
        assert modes.shape[0] == 2
        resid = snaps - rb.mass_inner(forms, snaps, modes) @ modes
        assert rb.l2_norms(forms, resid).max() <= 1e-12

    def test_energy_threshold_reprojection(self, setup, rng):
        m, forms = setup
        snaps = rng.standard_normal((20, m.n_nodes))
        modes, _ = rb.pod(snaps, forms, 1e-6)
        resid = snaps - rb.mass_inner(forms, snaps, modes) @ modes
        rel = rb.l2_norms(forms, resid) / rb.l2_norms(forms, snaps)
        assert rel.max() <= 1e-5

    def test_modes_orthonormal(self, setup, rng):
        m, forms = setup
        snaps = rng.standard_normal((12, m.n_nodes))
        modes, _ = rb.pod(snaps, forms, 8)
        G = l2_gram(forms, modes)
        assert np.abs(G - np.eye(modes.shape[0])).max() <= 1e-10

    def test_integer_keep_caps_count(self, setup, rng):
        m, forms = setup
        snaps = rng.standard_normal((10, m.n_nodes))
        modes, _ = rb.pod(snaps, forms, 3)
        assert modes.shape[0] == 3


    def test_all_zero_snapshots_give_zero_modes(self, setup, caplog):
        m, forms = setup
        for keep in (3, 1e-6):
            caplog.clear()
            modes, sig = rb.pod(np.zeros((4, m.n_nodes)), forms, keep)
            assert modes.shape == (0, m.n_nodes)
            assert np.array_equal(sig, np.zeros(4))
            assert "all-zero snapshot set" in caplog.text

    def test_rank_three_time_series_keeps_three_modes(self, setup):
        # 33 snapshots of three decaying spatial patterns, as a heat run
        # gives: the float threshold and the count both stop at the rank,
        # and every snapshot still has a singular value
        m, forms = setup
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        patterns = np.stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                             np.sin(2 * np.pi * x) * np.sin(np.pi * y),
                             np.cos(np.pi * x) * y])
        t = np.linspace(0.0, 1.0, 33)[:, None]
        snaps = np.exp(-t * np.array([1.0, 5.0, 20.0])) @ patterns
        for keep in (1e-6, 10):
            modes, sig = rb.pod(snaps, forms, keep)
            assert modes.shape[0] == 3
            assert sig.shape == (33,)
            assert (sig[3:] == 0.0).all() and (sig[:3] > 0.0).all()
            resid = snaps - rb.mass_inner(forms, snaps, modes) @ modes
            assert rb.l2_norms(forms, resid).max() <= 1e-10 * sig[0]
        modes, sig = rb.pod(snaps, forms, 1e-6, n_max=2)
        assert modes.shape[0] == 2 and sig.shape == (33,)

    def test_gram_of_one_trajectory_stays_on_the_calling_thread(
            self, setup, rng, monkeypatch):
        # up to _BLOCKED_GRAM_ROWS snapshots the Gram matrix is formed in
        # blocked pieces, above it as one product; both give the same POD
        m, forms = setup
        calls = []

        def recording(A, B):
            calls.append(A.shape)
            return blocked_matmul(A, B)

        blocked_matmul = rb.blocked_matmul
        monkeypatch.setattr(rb, "blocked_matmul", recording)
        for k in (rb._BLOCKED_GRAM_ROWS, rb._BLOCKED_GRAM_ROWS + 1):
            snaps = rng.standard_normal((k, m.n_nodes))
            calls.clear()
            modes, sig = rb.pod(snaps, forms, 5)
            assert calls == ([(k, m.n_nodes)]
                             if k <= rb._BLOCKED_GRAM_ROWS else [])
            G = snaps @ rb.block_matvec(forms.mass, snaps).T
            want = np.sqrt(np.linalg.eigvalsh(G)[::-1])
            assert np.abs(sig - want).max() <= 1e-12 * want[0]
            assert np.abs(l2_gram(forms, modes) - np.eye(5)).max() <= 1e-10


class TestPodGreedy:
    def test_single_parameter(self, setup):
        m, forms = setup
        x = m.nodes[:, 0]
        values = np.stack([np.sin(np.pi * x * (1 + k / 4)) for k in range(5)])
        basis = rb.pod_greedy({2.0: make_traj(m, values, param=2.0)}, forms, 3)
        assert basis.provenance["algorithm"] == "pod_greedy"
        assert [p for p, _ in basis.provenance["selected"]] == [2.0]
        assert 1 <= basis.N <= 3

    def test_identical_trajectories_stop_early(self, setup):
        m, forms = setup
        x = m.nodes[:, 0]
        values = np.stack([np.cos(np.pi * x), np.cos(2.0 * np.pi * x)])
        trajs = {1.0: make_traj(m, values, param=1.0),
                 2.0: make_traj(m, values.copy(), param=2.0)}
        basis = rb.pod_greedy(trajs, forms, 10, pod_tol=1e-10)
        assert [p for p, _ in basis.provenance["selected"]] == [1.0]
        resid = values - rb.mass_inner(forms, values, basis.modes) @ basis.modes
        rel = rb.l2_norms(forms, resid) / rb.l2_norms(forms, values)
        assert rel.max() <= 1e-12

    def test_training_set_reprojects(self, setup, rng):
        m, forms = setup
        trajs = {}
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        for k, mu in enumerate((0.5, 1.0, 2.0, 4.0)):
            t = np.linspace(0.0, 1.0, 6)[:, None]
            values = np.exp(-mu * t) * np.sin(np.pi * x) * np.sin(np.pi * y) \
                + 0.1 * mu * t ** 2 * np.cos(np.pi * x)
            trajs[mu] = make_traj(m, values, param=mu)
        basis = rb.pod_greedy(trajs, forms, 6, pod_tol=1e-8)
        for mu, traj in trajs.items():
            U = traj.values
            resid = U - rb.mass_inner(forms, U, basis.modes) @ basis.modes
            rel = rb.l2_norms(forms, resid).max() / rb.l2_norms(forms, U).max()
            assert rel <= 1e-2

    def test_respects_mode_budget(self, setup, rng):
        m, forms = setup
        trajs = {k: make_traj(m, rng.standard_normal((4, m.n_nodes)),
                              param=float(k)) for k in range(5)}
        basis = rb.pod_greedy(trajs, forms, 3, pod_tol=1e-12)
        assert basis.N <= 3

    def test_empty_training_set(self, setup):
        with pytest.raises(ValueError):
            rb.pod_greedy({}, setup[1], 3)


class TestPreparedRuns:
    @pytest.mark.parametrize("size", [1e-2, 1e-6, 1e-10, 1e-12])
    def test_sweep_norms_match_the_explicit_residual(self, setup, rng, size):
        # the sweep reads each residual's norm off the run's mass product;
        # it agrees with the norm of the explicit residual to 1e-8 relative
        # down to residuals of 1e-6 ||U||, and always to a few eps ||U||,
        # the rounding the explicit residual itself carries, so at 1e-10
        # and 1e-12 ||U|| (the pod_tol regime above) to about 1e-6 and 1e-4
        m, forms = setup
        modes, _ = rb.pod(rng.standard_normal((8, m.n_nodes)), forms, 5)
        modes = rb._mass_mgs(modes, None, forms)
        weighted = rb.block_matvec(forms.mass, modes)
        noise = rng.standard_normal((25, m.n_nodes))
        noise -= rb.mass_inner(forms, noise, modes) @ modes
        U = rng.standard_normal((25, 5)) @ modes
        scale = size * rb.l2_norms(forms, U) / rb.l2_norms(forms, noise)
        U += scale[:, None] * noise
        got = rb._residual_norms(U, rb.block_matvec(forms.mass, U), modes,
                                 weighted)
        want = rb.l2_norms(forms, U - rb.mass_inner(forms, U, modes) @ modes)
        assert want == pytest.approx(size * rb.l2_norms(forms, U), rel=1e-3)
        bound = 8 * np.finfo(float).eps * rb.l2_norms(forms, U)
        if size >= 1e-6:
            bound = 1e-8 * want
        assert (np.abs(got - want) <= bound).all()

    @pytest.mark.parametrize("build, prepare", [
        (lambda t, f, p: rb.pod_greedy(t, f, 6, pod_tol=1e-8, prepared=p),
         rb.mass_products),
        (lambda t, f, p: rb.hierarchical_pod(t, f, 4, prepared=p),
         lambda t, f: rb.h1_rows(t, f, 4))],
        ids=["pod_greedy", "hierarchical_pod"])
    def test_a_subset_reads_the_prepared_set(self, setup, rng, build,
                                             prepare):
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
        prepared = prepare(trajs, forms)
        for held_out in trajs:
            rest = {mu: tr for mu, tr in trajs.items() if mu != held_out}
            got, want = build(rest, forms, prepared), build(rest, forms, None)
            assert np.array_equal(got.modes, want.modes)
            assert got.provenance == want.provenance


class TestHierarchicalPod:
    def test_matches_direct_pod_on_single_block(self, setup, rng):
        m, forms = setup
        values = rng.standard_normal((8, m.n_nodes))
        basis = rb.hierarchical_pod({1.0: make_traj(m, values)}, forms, 4)
        direct, _ = rb.pod(values, forms, 4, inner="h1")
        direct = rb._mass_mgs(direct, None, forms)
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
        basis = rb.hierarchical_pod(trajs, forms, 3)
        pooled, _ = rb.pod(np.vstack([t.values for t in trajs.values()]),
                           forms, 3, inner="h1")
        pooled = rb._mass_mgs(pooled, None, forms)
        P1 = basis.modes.T @ block_mass(forms, basis.modes)
        P2 = pooled.T @ block_mass(forms, pooled)
        assert np.abs(P1 - P2).max() <= 1e-8
        assert basis.provenance["pooled_rows"] == 9

    def test_h1_ranking_keeps_stiff_direction(self, setup):
        # A tiny sharp feature loses the L2 ranking but dominates the
        # stiffness energy, so the one-mode h1 basis keeps it.
        m, forms = setup
        smooth = np.ones(m.n_nodes)
        spike = np.zeros(m.n_nodes)
        spike[m.n_nodes // 2] = 2.0
        values = np.stack([smooth + spike, smooth - spike])
        trajs = {1.0: make_traj(m, values)}
        l2_modes, _ = rb.pod(values, forms, 1, inner="l2")
        h1_modes = rb.hierarchical_pod(trajs, forms, 1).modes
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
        basis = rb.hierarchical_pod(trajs, forms, 8)
        G = l2_gram(forms, basis.modes)
        assert np.abs(G - np.eye(basis.N)).max() <= 1e-10

    def test_unknown_inner_rejected(self, setup):
        m, forms = setup
        with pytest.raises(ValueError):
            rb.pod(np.ones((2, m.n_nodes)), forms, 2, inner="h2")


def block_mass(forms, U):
    return np.stack([forms.mass.matvec(u) for u in U])


class TestCoefficients:
    def test_roundtrip_in_span(self, setup, rng):
        m, forms = setup
        snaps = rng.standard_normal((6, m.n_nodes))
        modes, _ = rb.pod(snaps, forms, 4)
        basis = rb.ReducedBasis(mesh=m, modes=modes)
        want = rng.standard_normal((3, 4))
        fields = rb.reconstruct(basis, want)
        back = rb.coefficients(basis, forms, fields)
        assert back == pytest.approx(want, abs=1e-10)

    def test_two_field_blocks(self, setup, rng):
        m, forms = setup
        snaps = rng.standard_normal((6, 2 * m.n_nodes))
        modes, _ = rb.pod(snaps, forms, 3)
        basis = rb.ReducedBasis(mesh=m, modes=modes)
        assert basis.n_fields == 2
        G = rb.mass_inner(forms, modes, modes)
        assert np.abs(G - np.eye(3)).max() <= 1e-10
        coef = rb.coefficients(basis, forms, snaps[:2])
        assert coef.shape == (2, 3)
