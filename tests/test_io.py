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

    def test_stored_field_count_must_match_the_width(self, saved, tmp_path):
        _, _, path = saved
        blocks = io._read_file(str(path), io.MAGIC, io.VERSION,
                               io.ARTIFACT_BLOCKS, "artifact")
        basis = bytearray(blocks[1])
        basis[8:12] = struct.pack("<I", 2)  # after u32 N and u32 width
        out = str(tmp_path / "edited.nirb")
        io._write_file(out, io.MAGIC, io.VERSION,
                       [blocks[0], bytes(basis), blocks[2]])
        with pytest.raises(io.ArtifactError, match="stores 2 field") as err:
            io.load_artifacts(out)
        assert err.value.slug == "corrupt-artifacts"

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
        assert np.array_equal(back.mesh.triangles, traj.mesh.triangles)
        assert np.array_equal(back.mesh.boundary_mask, traj.mesh.boundary_mask)
        assert back.mesh.h == traj.mesh.h
        assert back.grid == traj.grid
        assert back.parameter == traj.parameter
        assert back.n_fields == traj.n_fields

    @pytest.mark.parametrize("version, slug", [
        (4, None), (3, "version-mismatch"), (5, "version-mismatch")])
    def test_header_version(self, tmp_path, unit_mesh_4, version, slug):
        # only the current layout loads: version 3 stored the whole mesh,
        # and a newer header is refused
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

    @pytest.mark.parametrize("nx, count, message", [
        (0, 1, "bad mesh block"), (4, 2, "stores 2 field")])
    def test_inconsistent_blocks_are_corrupt(self, tmp_path, nx, count,
                                             message):
        # a 4x4 mesh has 25 nodes; the values block holds 2 rows of 25
        mesh_block = struct.pack("<II4d", nx, 4, 0.0, 1.0, 0.0, 1.0)
        values_block = struct.pack("<IIIId", 2, 25, count, 1, 2.0) \
            + np.ones((2, 25)).tobytes()
        path = str(tmp_path / "t.traj")
        io._write_file(path, io.TRAJ_MAGIC, io.TRAJ_VERSION,
                       [mesh_block, io.encode_grid(TimeGrid(0.0, 1.0, 1)),
                        values_block])
        with pytest.raises(io.ArtifactError, match=message) as err:
            io.load_trajectory(path)
        assert err.value.slug == "corrupt-artifacts"

    def test_tuple_parameter_round_trip(self, tmp_path, unit_mesh_4):
        values = np.arange(3 * 2 * unit_mesh_4.n_nodes, dtype=float) / 7.0
        traj = FieldTrajectory(mesh=unit_mesh_4, grid=TimeGrid(0.0, 1.0, 2),
                               values=values.reshape(3, -1),
                               parameter=(3.0, 2.0, 0.008))
        path = str(tmp_path / "t.traj")
        io.save_trajectory(path, traj)
        back = io.load_trajectory(path)
        assert np.array_equal(back.values, traj.values)
        assert back.parameter == (3.0, 2.0, 0.008)
        assert back.n_fields == 2
