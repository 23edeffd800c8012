import dataclasses
import struct
import zipfile

import numpy as np
import pytest

from nirb import io, pipeline
from nirb.config import StudyConfig
from nirb.integrators import FieldTrajectory, TimeGrid
from nirb.rectification import (coarse_to_fine_coefficients, lift_coarse,
                                lift_projection, quadratic_weights)
from nirb.reduced_basis import coefficients

def _offline(text, outdir):
    config = StudyConfig.from_text(text + f"output_dir = {outdir}\n")
    artifacts = pipeline.offline(config, persist=True)
    return config, artifacts, outdir / pipeline.ARTIFACT_FILE


@pytest.fixture(scope="module")
def saved(small_heat_text, tmp_path_factory):
    return _offline(small_heat_text, tmp_path_factory.mktemp("artifacts"))


def _copy_with(path, tmp_path, edit):
    data = bytearray(path.read_bytes())
    edit(data)
    out = tmp_path / "edited.nirb"
    out.write_bytes(bytes(data))
    return str(out)


def _rewrite(path, tmp_path, **changes):
    """Copy of the archive at ``path`` with some members replaced."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    members.update(changes)
    out = tmp_path / "rewritten"
    with open(out, "wb") as fh:
        np.savez(fh, **members)
    return str(out)


def _assert_same_artifacts(got, want, param):
    assert np.array_equal(got.basis.modes, want.basis.modes)
    assert got.basis.provenance == want.basis.provenance
    assert np.array_equal(got.tensor.matrices, want.tensor.matrices)
    assert np.array_equal(got.tensor.deltas, want.tensor.deltas)
    assert np.array_equal(got.lift, want.lift)
    assert np.array_equal(got.time_weights, want.time_weights)
    assert np.array_equal(pipeline.online(got, param).coefficients,
                          pipeline.online(want, param).coefficients)


def _small_trajectory(mesh, parameter=(3.0, 2.0)):
    values = np.arange(2 * mesh.n_nodes, dtype=float) / 7.0
    return FieldTrajectory(mesh=mesh, grid=TimeGrid(0.0, 1.0, 1),
                           values=values.reshape(2, -1), parameter=parameter)


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
        assert loaded.basis.n_fields == artifacts.basis.n_fields
        assert artifacts.basis.provenance["algorithm"] == "hierarchical_pod"
        _assert_same_artifacts(loaded, artifacts, 4.5)

    @pytest.mark.parametrize("problem", ["heat", "rd"])
    def test_every_basis_keeps_its_provenance(self, small_heat_text,
                                              small_rd_text, tmp_path,
                                              problem):
        # reaction-diffusion parameters are tuples; either basis keeps the
        # pooled POD's spectrum: non-increasing, the N kept values first
        text = small_heat_text if problem == "heat" else small_rd_text
        config, artifacts, path = _offline(text, tmp_path)
        loaded = io.load_artifacts(str(path))
        assert loaded.config == config
        provenance = loaded.basis.provenance
        assert provenance["algorithm"] == "hierarchical_pod"
        spectrum = provenance["spectrum"]
        assert spectrum == artifacts.basis.provenance["spectrum"]
        assert len(spectrum) == provenance["pooled_rows"] > loaded.basis.N
        assert all(a >= b for a, b in zip(spectrum, spectrum[1:]))
        assert spectrum[loaded.basis.N - 1] > 0.0
        _assert_same_artifacts(loaded, artifacts, config.test_parameter())

    def test_provenance_that_is_not_a_literal_is_refused(self, saved,
                                                         tmp_path):
        _, artifacts, _ = saved
        basis = artifacts.basis
        odd = dataclasses.replace(artifacts, basis=type(basis)(
            mesh=basis.mesh, modes=basis.modes,
            provenance={"pooled_rows": np.int64(16)}))
        with pytest.raises(ValueError, match="not a plain literal"):
            io.save_artifacts(str(tmp_path / "odd.nirb"), odd)
        assert not list(tmp_path.iterdir())

    def test_flipped_payload_byte_is_corrupt(self, saved, tmp_path):
        config, _, path = saved
        # numpy stores the config text as UCS-4; flip a byte inside it so
        # only the member's CRC-32 can notice
        start = path.read_bytes().find(config.to_text().encode("utf-32-le"))
        assert start > 0

        def flip(data):
            data[start + 40] ^= 0x01
        with pytest.raises(io.ArtifactError) as err:
            io.load_artifacts(_copy_with(path, tmp_path, flip))
        assert err.value.slug == "corrupt-artifacts"
        assert "config member" in str(err.value)
        assert "CRC" in str(err.value)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_is_a_mismatch(self, saved, tmp_path, version):
        # files of the block format began with 'NIRB' and a u32 version
        _, _, path = saved

        def downgrade(data):
            data[:8] = b"NIRB" + struct.pack("<I", version)
        with pytest.raises(io.ArtifactError) as err:
            io.load_artifacts(_copy_with(path, tmp_path, downgrade))
        assert err.value.slug == "version-mismatch"

    @pytest.mark.parametrize("fmt", ["nirb-artifacts 4", io.TRAJ_FORMAT, ""])
    def test_foreign_format_is_a_mismatch(self, saved, tmp_path, fmt):
        _, _, path = saved
        with pytest.raises(io.ArtifactError) as err:
            io.load_artifacts(_rewrite(path, tmp_path, format=fmt))
        assert err.value.slug == "version-mismatch"
        assert repr(fmt) in str(err.value)

    @pytest.mark.parametrize("width", [80, 0])
    def test_modes_width_must_fit_the_mesh(self, saved, tmp_path, width):
        # the 8x8 fine mesh has 81 nodes
        _, artifacts, path = saved
        edited = _rewrite(path, tmp_path,
                          modes=artifacts.basis.modes[:, :width])
        with pytest.raises(io.ArtifactError, match="modes of shape") as err:
            io.load_artifacts(edited)
        assert err.value.slug == "corrupt-artifacts"

    @pytest.mark.parametrize("name, raw", [
        ("deltas", None), ("provenance", b"raw bytes"),
        pytest.param("modes", lambda a: a.astype(complex), id="modes-complex"),
        pytest.param("modes", lambda a: a.astype(int), id="modes-integer"),
        pytest.param("matrices", lambda a: np.where(a == a.max(), np.nan, a),
                     id="matrices-nan"),
        pytest.param("matrices", lambda a: np.full_like(a, np.inf),
                     id="matrices-inf"),
        pytest.param("deltas", lambda a: a.astype(complex) + 1j,
                     id="deltas-complex"),
        pytest.param("deltas", lambda a: -a, id="deltas-negative")])
    def test_missing_or_raw_member_is_corrupt(self, saved, tmp_path, name,
                                              raw):
        # numpy hands back a member without the .npy magic as raw bytes; a
        # callable raw rewrites the member's array instead
        _, _, path = saved
        with np.load(path, allow_pickle=False) as archive:
            members = {n: archive[n] for n in archive.files if n != name}
            if callable(raw):
                members[name] = raw(archive[name])
        out = tmp_path / "edited"
        with open(out, "wb") as fh:
            np.savez(fh, **members)
        if isinstance(raw, bytes):
            with zipfile.ZipFile(out, "a") as zf:
                zf.writestr(f"{name}.npy", raw)
        with pytest.raises(io.ArtifactError, match=f"{name} member") as err:
            io.load_artifacts(str(out))
        assert err.value.slug == "corrupt-artifacts"

    def test_not_an_archive_is_corrupt(self, tmp_path):
        path = tmp_path / "junk.nirb"
        path.write_bytes(b"\x93NUMPY junk")
        with pytest.raises(io.ArtifactError) as err:
            io.load_artifacts(str(path))
        assert err.value.slug == "corrupt-artifacts"

    def test_strided_byte_flips_load_identically_or_fail(self, saved,
                                                         tmp_path):
        _, artifacts, path = saved
        data = path.read_bytes()
        out = tmp_path / "flipped.nirb"
        loaded = 0
        positions = range(3, len(data), len(data) // 40)
        for i in positions:
            flipped = bytearray(data)
            flipped[i] ^= 0x01
            out.write_bytes(bytes(flipped))
            try:
                back = io.load_artifacts(str(out))
            except io.ArtifactError:
                continue
            loaded += 1
            assert np.array_equal(back.basis.modes, artifacts.basis.modes)
            assert np.array_equal(back.tensor.matrices,
                                  artifacts.tensor.matrices)
            assert np.array_equal(back.tensor.deltas, artifacts.tensor.deltas)
            assert back.config == artifacts.config
        assert loaded < len(positions) // 2

    def test_offline_writes_only_the_artifact_file(self, saved):
        _, _, path = saved
        assert sorted(p.name for p in path.parent.iterdir()) \
            == [pipeline.ARTIFACT_FILE]

    def test_missing_file(self, tmp_path):
        with pytest.raises(io.ArtifactError) as err:
            io.load_artifacts(str(tmp_path / "absent.nirb"))
        assert err.value.slug == "missing-artifacts"


def test_artifact_members_are_unchanged():
    # the artifacts derive the lift-projection operator and the time
    # weights; neither is stored
    assert io.ARTIFACT_FORMAT == "nirb-artifacts 5"
    assert io.ARTIFACT_MEMBERS == ("format", "config", "modes", "provenance",
                                   "matrices", "deltas")


@pytest.mark.parametrize("problem", ["heat", "rd"])
def test_lift_projection_is_lift_then_coefficients(small_heat_text,
                                                   small_rd_text, tmp_path,
                                                   problem):
    text = small_heat_text if problem == "heat" else small_rd_text
    config, artifacts, path = _offline(text, tmp_path)
    loaded = io.load_artifacts(str(path))
    param = config.test_parameter()
    phis = []
    for arts in (artifacts, loaded):
        fine, coarse = arts.fine, arts.coarse
        traj = pipeline.solve_coarse(config, coarse, param)
        got = coarse_to_fine_coefficients(traj, arts.lift, arts.time_weights)
        want = coefficients(arts.basis, fine.forms,
                            lift_coarse(traj, coarse.forms, fine,
                                        arts.time_weights).values)
        assert got.shape == (fine.grid.steps + 1, arts.basis.N)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert arts.lift.shape == (traj.values.shape[1], arts.basis.N)
        assert np.array_equal(
            arts.lift, lift_projection(arts.basis, fine.forms, coarse.forms))
        assert np.array_equal(arts.time_weights,
                              quadratic_weights(coarse.grid, fine.grid))
        phis.append(arts.lift)
    assert np.array_equal(phis[0], phis[1])
    io.save_artifacts(str(path), loaded)
    with zipfile.ZipFile(path) as archive:
        assert sorted(archive.namelist()) \
            == sorted(name + ".npy" for name in io.ARTIFACT_MEMBERS)


def _read_trajectory(path):
    """The members of a trajectory archive, read back by name with
    ``np.load`` through a handle that is closed also when the zip directory
    is corrupt."""
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
        return {name: archive[name] for name in ("format", "header",
                                                 "values")}


class TestTrajectory:
    def test_round_trip_is_exact(self, saved, tmp_path):
        config, artifacts, _ = saved
        ctx = artifacts.context()
        traj = pipeline.solve_coarse(config, ctx.coarse, 2.0)
        path = str(tmp_path / "t.traj")
        io.save_trajectory(path, traj)
        back = _read_trajectory(path)
        assert str(back["format"]) == io.TRAJ_FORMAT
        assert np.array_equal(back["values"], traj.values)
        header = back["header"]
        mesh, grid = traj.mesh, traj.grid
        assert (int(header["nx"]), int(header["ny"])) == (mesh.nx, mesh.ny)
        assert tuple(header["domain"]) == tuple(mesh.domain)
        assert TimeGrid(float(header["t0"]), float(header["T"]),
                        int(header["steps"])) == grid
        assert tuple(header["parameter"]) == (traj.parameter,)

    def test_tuple_parameter_round_trip(self, tmp_path, unit_mesh_4):
        values = np.arange(3 * 2 * unit_mesh_4.n_nodes, dtype=float) / 7.0
        traj = FieldTrajectory(mesh=unit_mesh_4, grid=TimeGrid(0.0, 1.0, 2),
                               values=values.reshape(3, -1),
                               parameter=(3.0, 2.0, 0.008))
        path = str(tmp_path / "t.traj")
        io.save_trajectory(path, traj)
        back = _read_trajectory(path)
        assert np.array_equal(back["values"], traj.values)
        assert tuple(back["header"]["parameter"]) == (3.0, 2.0, 0.008)

    @pytest.mark.parametrize("parameter", [None, 2.5])
    def test_scalar_and_missing_parameters_round_trip(self, tmp_path,
                                                      unit_mesh_4, parameter):
        # no entry for no parameter, one for a scalar
        path = str(tmp_path / "t.traj")
        io.save_trajectory(path, _small_trajectory(unit_mesh_4, parameter))
        got = tuple(_read_trajectory(path)["header"]["parameter"])
        assert got == (() if parameter is None else (parameter,))

    def test_every_byte_flip_loads_identically_or_fails(self, tmp_path,
                                                        unit_mesh_4):
        traj = _small_trajectory(unit_mesh_4)
        path = tmp_path / "t.traj"
        io.save_trajectory(str(path), traj)
        want = _read_trajectory(str(path))
        data = path.read_bytes()
        out = tmp_path / "flipped.traj"
        loaded = 0
        for i in range(len(data)):
            flipped = bytearray(data)
            flipped[i] ^= 0x01
            out.write_bytes(bytes(flipped))
            try:
                back = _read_trajectory(str(out))
            except io._READ_ERRORS:
                continue
            loaded += 1
            for name in want:
                assert np.array_equal(back[name], want[name])
        # the CRC-32 covers every member, so most flips fail
        assert loaded < len(data) // 2
