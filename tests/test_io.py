import struct

import numpy as np
import pytest

from nirb import io, pipeline
from nirb.config import StudyConfig
from nirb.integrators import FieldTrajectory, TimeGrid


@pytest.fixture(scope="module")
def saved(small_heat_text, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("artifacts")
    config = StudyConfig.from_text(small_heat_text + f"output_dir = {outdir}\n")
    artifacts = pipeline.offline(config, persist=True)
    return config, artifacts, outdir / pipeline.ARTIFACT_FILE


def _copy_with(path, tmp_path, edit):
    data = bytearray(path.read_bytes())
    edit(data)
    out = tmp_path / "edited.nirb"
    out.write_bytes(bytes(data))
    return str(out)


class TestArtifacts:
    def test_round_trip_is_bit_exact(self, saved):
        config, artifacts, path = saved
        loaded = io.load_artifacts(str(path))
        assert loaded.config == config
        for name in ("fine", "coarse"):
            want, got = getattr(artifacts, name), getattr(loaded, name)
            a, b = want.mesh, got.mesh
            assert np.array_equal(a.nodes, b.nodes)
            assert np.array_equal(a.triangles, b.triangles)
            assert np.array_equal(a.boundary_mask, b.boundary_mask)
            assert (a.h, a.nx, a.ny, tuple(a.domain)) \
                == (b.h, b.nx, b.ny, tuple(b.domain))
            assert got.grid == want.grid
        assert np.array_equal(loaded.basis.modes, artifacts.basis.modes)
        assert np.array_equal(loaded.basis.eigenvalues,
                              artifacts.basis.eigenvalues)
        assert loaded.basis.n_fields == artifacts.basis.n_fields
        assert np.array_equal(loaded.tensor.matrices, artifacts.tensor.matrices)
        assert np.array_equal(loaded.tensor.deltas, artifacts.tensor.deltas)
        assert loaded.tensor.params == artifacts.tensor.params
        assert loaded.tensor.delta_mode == artifacts.tensor.delta_mode
        assert loaded.tensor.delta_value == artifacts.tensor.delta_value

        mu = 4.5
        want = pipeline.online(artifacts, mu).coefficients
        got = pipeline.online(loaded, mu).coefficients
        assert np.array_equal(got, want)

    def test_flipped_payload_byte_is_corrupt(self, saved, tmp_path):
        _, _, path = saved
        # header (8 bytes), then the first block's length word; flip a byte
        # inside the config payload so only its checksum can notice
        def flip(data):
            data[8 + 4 + 40] ^= 0x01
        with pytest.raises(io.ArtifactError) as err:
            io.load_artifacts(_copy_with(path, tmp_path, flip))
        assert err.value.slug == "corrupt-artifacts"
        assert "checksum" in str(err.value)
        assert "config block" in str(err.value)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_is_a_mismatch(self, saved, tmp_path, version):
        _, _, path = saved

        def downgrade(data):
            data[4:8] = struct.pack("<I", version)
        with pytest.raises(io.ArtifactError) as err:
            io.load_artifacts(_copy_with(path, tmp_path, downgrade))
        assert err.value.slug == "version-mismatch"

    def test_offline_writes_only_the_artifact_file(self, saved):
        _, _, path = saved
        assert sorted(p.name for p in path.parent.iterdir()) \
            == [pipeline.ARTIFACT_FILE]

    def test_missing_file(self, tmp_path):
        with pytest.raises(io.ArtifactError) as err:
            io.load_artifacts(str(tmp_path / "absent.nirb"))
        assert err.value.slug == "missing-artifacts"


class TestTrajectory:
    def test_round_trip_is_exact(self, saved, tmp_path):
        config, artifacts, _ = saved
        ctx = artifacts.context()
        traj = pipeline.solve_coarse(config, ctx.coarse, 2.0)
        path = str(tmp_path / "t.traj")
        io.save_trajectory(path, traj)
        back = io.load_trajectory(path)
        assert np.array_equal(back.values, traj.values)
        assert np.array_equal(back.mesh.nodes, traj.mesh.nodes)
        assert back.grid == traj.grid
        assert back.parameter == traj.parameter
        assert back.n_fields == traj.n_fields

    @pytest.mark.parametrize("version, slug", [
        (1, None), (2, None), (io.TRAJ_VERSION + 1, "version-mismatch")])
    def test_header_version(self, tmp_path, unit_mesh_4, version, slug):
        # the trajectory layout is unchanged since version 1, so older
        # headers load; a newer one is refused
        traj = FieldTrajectory(mesh=unit_mesh_4, grid=TimeGrid(0.0, 1.0, 1),
                               values=np.ones((2, unit_mesh_4.n_nodes)),
                               parameter=2.0)
        path = tmp_path / "t.traj"
        io.save_trajectory(str(path), traj)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(data))
        if slug is None:
            back = io.load_trajectory(str(path))
            assert np.array_equal(back.values, traj.values)
            assert back.parameter == 2.0
        else:
            with pytest.raises(io.ArtifactError) as err:
                io.load_trajectory(str(path))
            assert err.value.slug == slug

    def test_tuple_parameter_round_trip(self, tmp_path, unit_mesh_4):
        values = np.arange(3 * 2 * unit_mesh_4.n_nodes, dtype=float) / 7.0
        traj = FieldTrajectory(mesh=unit_mesh_4, grid=TimeGrid(0.0, 1.0, 2),
                               values=values.reshape(3, -1),
                               parameter=(3.0, 2.0, 0.008), n_fields=2)
        path = str(tmp_path / "t.traj")
        io.save_trajectory(path, traj)
        back = io.load_trajectory(path)
        assert np.array_equal(back.values, traj.values)
        assert back.parameter == (3.0, 2.0, 0.008)
        assert back.n_fields == 2
