"""Binary persistence and CSV emission.

Artifact and trajectory files are little-endian throughout: a four-byte
magic, a u32 format version, then a fixed sequence of blocks, each framed as
u32 payload length, payload, u32 CRC-32 of the payload.  Loads verify every
checksum and fail naming the offending section; writes go through a
temporary file and an atomic rename.  Artifact and trajectory files carry
their own format versions, and each loader reads only its current one.

An artifact file holds three blocks: the study config, the reduced basis
and the rectification maps.  The meshes, time grids and assembled forms are
not stored: loading rebuilds them from the config with
``pipeline.discretize``.  A trajectory file holds three blocks: the mesh as
u32 nx, ny and f64 xmin, xmax, ymin, ymax, rebuilt on load with
``build_structured``; the grid as f64 t0, T and u32 steps; and the values
as u32 rows, cols, field count and parameter width, the parameter, then the
f64 values.  The field count stored in the basis and values headers must
agree with the width and the mesh, or the load fails."""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from nirb.config import StudyConfig
from nirb.integrators import FieldTrajectory, TimeGrid
from nirb.mesh import build_structured
from nirb.rectification import RectificationTensor
from nirb.reduced_basis import ReducedBasis

MAGIC = b"NIRB"
TRAJ_MAGIC = b"NTRJ"
VERSION = 3
TRAJ_VERSION = 4

ARTIFACT_BLOCKS = ("config", "basis", "rectification")
TRAJ_BLOCKS = ("mesh", "grid", "values")


class ArtifactError(ValueError):
    """Load/save failure with a stable machine-readable slug."""

    def __init__(self, slug, message):
        super().__init__(message)
        self.slug = slug


class _Reader:
    """Sequential decoder for one block, erroring with the section name."""

    def __init__(self, buf, section):
        self.buf = buf
        self.off = 0
        self.section = section

    def take(self, n):
        if self.off + n > len(self.buf):
            raise ArtifactError(
                "corrupt-artifacts", f"the {self.section} block is too short")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def u32(self, count=1):
        vals = struct.unpack("<%dI" % count, self.take(4 * count))
        return vals[0] if count == 1 else vals

    def u8(self):
        return self.take(1)[0]

    def f64(self, count=1):
        vals = struct.unpack("<%dd" % count, self.take(8 * count))
        return vals[0] if count == 1 else vals

    def array(self, dtype, count):
        item = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(item * count), dtype=dtype).copy()

    def done(self):
        if self.off != len(self.buf):
            raise ArtifactError(
                "corrupt-artifacts",
                f"trailing bytes in the {self.section} block")


def _write_file(path, magic, version, blocks):
    parts = [magic, struct.pack("<I", version)]
    for payload in blocks:
        parts.append(struct.pack("<I", len(payload)))
        parts.append(payload)
        parts.append(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(parts))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_file(path, magic, expected, names, kind):
    if not os.path.exists(path):
        raise ArtifactError("missing-artifacts",
                            f"no {kind} file at {path}; run the offline stage first")
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != magic:
        raise ArtifactError("corrupt-artifacts", f"{path} is not a {kind} file")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != expected:
        raise ArtifactError(
            "version-mismatch",
            f"{kind} format version {version} is unsupported (expected "
            f"{expected})")
    off = 8
    out = []
    for name in names:
        if off + 4 > len(data):
            raise ArtifactError("corrupt-artifacts",
                                f"file truncated in the {name} block")
        (length,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + length + 4 > len(data):
            raise ArtifactError("corrupt-artifacts",
                                f"file truncated in the {name} block")
        payload = data[off:off + length]
        off += length
        (crc,) = struct.unpack_from("<I", data, off)
        off += 4
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise ArtifactError("corrupt-artifacts",
                                f"checksum mismatch in the {name} block")
        out.append(payload)
    if off != len(data):
        raise ArtifactError("corrupt-artifacts",
                            "trailing bytes after the last block")
    return out


def encode_mesh(mesh):
    return struct.pack("<II4d", mesh.nx, mesh.ny, *mesh.domain)


def decode_mesh(buf, section):
    r = _Reader(buf, section)
    nx, ny = r.u32(2)
    domain = r.f64(4)
    r.done()
    try:
        return build_structured(nx, ny, domain)
    except ValueError as exc:
        raise ArtifactError("corrupt-artifacts",
                            f"bad {section} block: {exc}") from exc


def _check_field_count(stored, width, mesh, section):
    if stored < 1 or stored * mesh.n_nodes != width:
        raise ArtifactError(
            "corrupt-artifacts",
            f"the {section} block stores {stored} field(s) of width {width} "
            f"on a mesh of {mesh.n_nodes} nodes")


def encode_grid(grid):
    return struct.pack("<ddI", grid.t0, grid.T, grid.steps)


def decode_grid(buf, section):
    r = _Reader(buf, section)
    t0, T = r.f64(2)
    steps = r.u32()
    r.done()
    return TimeGrid(t0=t0, T=T, steps=steps)


def encode_basis(basis):
    modes = np.ascontiguousarray(basis.modes, "<f8")
    has_eig = basis.eigenvalues is not None
    parts = [struct.pack("<IIIB", basis.N, modes.shape[1], basis.n_fields,
                         int(has_eig)),
             modes.tobytes()]
    if has_eig:
        parts.append(np.ascontiguousarray(basis.eigenvalues, "<f8").tobytes())
    return b"".join(parts)


def decode_basis(buf, mesh, section="basis"):
    r = _Reader(buf, section)
    N, width, n_fields, has_eig = *r.u32(3), r.u8()
    _check_field_count(n_fields, width, mesh, section)
    modes = r.array("<f8", N * width).reshape(N, width)
    eig = r.f64(N) if has_eig else None
    r.done()
    eig = np.atleast_1d(np.asarray(eig)) if eig is not None else None
    return ReducedBasis(mesh=mesh, modes=modes, eigenvalues=eig,
                        provenance={"algorithm": "loaded"})


def _param_width(params):
    if not params:
        return 1
    return len(params[0]) if isinstance(params[0], tuple) else 1


def encode_tensor(tensor):
    width = _param_width(tensor.params)
    flat = np.asarray([list(p) if isinstance(p, tuple) else [p]
                       for p in tensor.params], dtype=float)
    mode_code = 0 if tensor.delta_mode == "relative" else 1
    return b"".join([
        struct.pack("<IIBd", tensor.n_times, tensor.N, mode_code,
                    tensor.delta_value),
        np.ascontiguousarray(tensor.deltas, "<f8").tobytes(),
        struct.pack("<II", len(tensor.params), width),
        np.ascontiguousarray(flat, "<f8").tobytes(),
        np.ascontiguousarray(tensor.matrices, "<f8").tobytes(),
    ])


def decode_tensor(buf, section="rectification"):
    r = _Reader(buf, section)
    n_times, N = r.u32(2)
    mode_code = r.u8()
    delta_value = r.f64()
    deltas = r.array("<f8", n_times)
    n_params, width = r.u32(2)
    flat = r.array("<f8", n_params * width).reshape(n_params, width)
    matrices = r.array("<f8", n_times * N * N).reshape(n_times, N, N)
    r.done()
    params = ([float(v) for v in flat[:, 0]] if width == 1
              else [tuple(float(v) for v in row) for row in flat])
    return RectificationTensor(matrices=matrices, deltas=deltas,
                               delta_mode="relative" if mode_code == 0 else "absolute",
                               delta_value=delta_value, params=params)


def encode_config(config):
    return config.to_text().encode("utf-8")


def decode_config(buf):
    try:
        return StudyConfig.from_text(buf.decode("utf-8"))
    except ValueError as exc:
        raise ArtifactError("corrupt-artifacts",
                            f"config block does not parse: {exc}") from exc


def save_artifacts(path, artifacts):
    _write_file(path, MAGIC, VERSION, [encode_config(artifacts.config),
                              encode_basis(artifacts.basis),
                              encode_tensor(artifacts.tensor)])


def load_artifacts(path):
    from nirb.pipeline import OfflineArtifacts, discretize

    blocks = _read_file(path, MAGIC, VERSION, ARTIFACT_BLOCKS, "artifact")
    config = decode_config(blocks[0])
    fine, coarse = discretize(config)
    basis = decode_basis(blocks[1], fine.mesh)
    tensor = decode_tensor(blocks[2])
    try:
        return OfflineArtifacts(config=config, basis=basis, tensor=tensor,
                                fine=fine, coarse=coarse).validate()
    except ValueError as exc:
        raise ArtifactError("corrupt-artifacts",
                            f"inconsistent artifact contents: {exc}") from exc


def save_trajectory(path, traj):
    rows, cols = traj.values.shape
    if traj.parameter is None:
        flat = []
    elif isinstance(traj.parameter, tuple):
        flat = [float(v) for v in traj.parameter]
    else:
        flat = [float(traj.parameter)]
    values_block = b"".join([
        struct.pack("<IIII", rows, cols, traj.n_fields, len(flat)),
        struct.pack("<%dd" % len(flat), *flat),
        np.ascontiguousarray(traj.values, "<f8").tobytes(),
    ])
    _write_file(path, TRAJ_MAGIC, TRAJ_VERSION, [
        encode_mesh(traj.mesh), encode_grid(traj.grid), values_block])


def load_trajectory(path):
    blocks = _read_file(path, TRAJ_MAGIC, TRAJ_VERSION, TRAJ_BLOCKS,
                        "trajectory")
    mesh = decode_mesh(blocks[0], "mesh")
    grid = decode_grid(blocks[1], "grid")
    r = _Reader(blocks[2], "values")
    rows, cols, n_fields, width = r.u32(4)
    _check_field_count(n_fields, cols, mesh, "values")
    flat = list(r.f64(width)) if width > 1 else ([r.f64()] if width == 1 else [])
    values = r.array("<f8", rows * cols).reshape(rows, cols)
    r.done()
    if width == 0:
        param = None
    elif width == 1:
        param = flat[0]
    else:
        param = tuple(flat)
    return FieldTrajectory(mesh=mesh, grid=grid, values=values,
                           parameter=param)


def format_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path, rows):
    text = "\n".join(",".join(format_cell(c) for c in row) for row in rows)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
