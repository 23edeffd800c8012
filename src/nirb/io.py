"""Persistence as numpy ``.npz`` archives, and CSV emission.

Artifact and trajectory files are zip archives of ``.npy`` members written
by ``np.savez`` into a temporary file that is synced and renamed over the
target; the zip CRC-32 covers every member.  The artifact loader refuses
pickled data, reads the members one at a time and turns every failure into
an ``ArtifactError`` naming the member; ``modes``, ``matrices`` and
``deltas`` must be real floating arrays with finite entries, and
``deltas`` nonnegative.  It reads only the current
``format``; files of the earlier block format (``NIRB`` header) fail with
``version-mismatch``.

Artifact file members:

- ``format``: ``ARTIFACT_FORMAT``;
- ``config``: the study config text; loading rebuilds the meshes, time
  grids and forms from it with ``pipeline.discretize``, and the artifacts
  derive the lift-projection operator and the time weights from them, so
  neither is stored;
- ``modes``: the (N, n_fields * n_nodes) L2-orthonormal basis modes on
  the fine mesh;
- ``provenance``: the ``repr`` of the basis provenance, read back with
  ``ast.literal_eval``;
- ``matrices``: the (n_times, N, N) rectification maps;
- ``deltas``: the (n_times,) Tikhonov parameters.

Trajectory file members (the package writes them; ``np.load`` reads them):

- ``format``: ``TRAJ_FORMAT``;
- ``header``: one record with the mesh fields ``nx``, ``ny``, ``domain``,
  the time-grid fields ``t0``, ``T``, ``steps``, and ``parameter``: no
  entry for none, one for a scalar, more for a tuple;
- ``values``: the (steps + 1, n_fields * n_nodes) nodal values."""

from __future__ import annotations

import ast
import os
import zipfile

import numpy as np

from nirb.config import StudyConfig
from nirb.rectification import RectificationTensor
from nirb.reduced_basis import ReducedBasis

ARTIFACT_FORMAT = "nirb-artifacts 5"
TRAJ_FORMAT = "nirb-trajectory 5"
ARTIFACT_MEMBERS = ("format", "config", "modes", "provenance", "matrices",
                    "deltas")

# what zipfile and numpy raise on a damaged archive or member
_READ_ERRORS = (zipfile.BadZipFile, KeyError, ValueError, NotImplementedError,
                RuntimeError, EOFError, OSError)


class ArtifactError(ValueError):
    """Load/save failure with a stable machine-readable slug."""

    def __init__(self, slug, message):
        super().__init__(message)
        self.slug = slug


def _corrupt(path, what, exc):
    return ArtifactError("corrupt-artifacts", f"{path}: {what}: {exc}")


def _replace(path, write):
    """Write through ``write(fh)`` to a synced file renamed over ``path``."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _save(path, fmt, members):
    # a file object, not a str path, or np.savez appends '.npz'
    _replace(path, lambda fh: np.savez(fh, allow_pickle=False, format=fmt,
                                       **members))


def _read(path):
    """The ``ARTIFACT_MEMBERS`` of the archive at ``path`` as arrays, read
    in order; the first, ``format``, must be ``ARTIFACT_FORMAT``."""
    fmt = ARTIFACT_FORMAT
    if not os.path.exists(path):
        raise ArtifactError("missing-artifacts",
                            f"no artifact file at {path}; run the offline stage first")
    members, name = {}, "archive directory"
    # one handle for the head and the archive: np.load on a path leaves
    # the file open when the zip directory is corrupt
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == b"NIRB":
            raise ArtifactError("version-mismatch",
                                f"{path} is in the earlier block format; "
                                f"this version reads {fmt!r}")
        if head != b"PK\x03\x04":
            raise ArtifactError("corrupt-artifacts",
                                f"{path} is not a nirb artifact file")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                for name in ARTIFACT_MEMBERS:
                    members[name] = archive[name]
                    if not isinstance(members[name], np.ndarray):
                        raise ValueError("not a numpy array")
                    if str(members["format"]) != fmt:
                        break
        except _READ_ERRORS as exc:
            raise _corrupt(path, f"cannot read the {name} member",
                           exc) from exc
    if str(members["format"]) != fmt:
        raise ArtifactError("version-mismatch", f"{path} holds format "
                            f"{str(members['format'])!r}; this version reads "
                            f"{fmt!r}")
    return members


def _provenance_text(provenance):
    text = repr(provenance)
    try:
        if ast.literal_eval(text) == provenance:
            return text
    except (ValueError, SyntaxError):
        pass
    raise ValueError(f"basis provenance {text} is not a plain literal")


def save_artifacts(path, artifacts):
    basis, tensor = artifacts.basis, artifacts.tensor
    _save(path, ARTIFACT_FORMAT, {
        "config": artifacts.config.to_text(), "modes": basis.modes,
        "provenance": _provenance_text(basis.provenance),
        "matrices": tensor.matrices, "deltas": tensor.deltas})


def load_artifacts(path):
    from nirb.pipeline import OfflineArtifacts, discretize

    m = _read(path)
    try:
        config = StudyConfig.from_text(str(m["config"]))
    except ValueError as exc:
        raise _corrupt(path, "the config member does not parse", exc) from exc
    try:
        provenance = ast.literal_eval(str(m["provenance"]))
    except (ValueError, SyntaxError) as exc:
        raise _corrupt(path, "the provenance member does not parse",
                       exc) from exc
    for name in ("modes", "matrices", "deltas"):
        a = m[name]
        if a.dtype.kind != "f" or not np.isfinite(a).all():
            raise ArtifactError("corrupt-artifacts", f"{path}: the {name} "
                                f"member is not a finite real floating "
                                f"array (dtype {a.dtype})")
    if (m["deltas"] < 0.0).any():
        raise ArtifactError("corrupt-artifacts",
                            f"{path}: the deltas member has a negative entry")
    fine, coarse = discretize(config)
    tensor = RectificationTensor(matrices=m["matrices"], deltas=m["deltas"])
    try:
        basis = ReducedBasis(mesh=fine.mesh, modes=m["modes"],
                             provenance=provenance)
        return OfflineArtifacts(config=config, basis=basis, tensor=tensor,
                                fine=fine, coarse=coarse).validate()
    except ValueError as exc:
        raise _corrupt(path, "inconsistent artifact members", exc) from exc


def save_trajectory(path, traj):
    mesh, grid = traj.mesh, traj.grid
    param = np.atleast_1d(np.asarray(
        () if traj.parameter is None else traj.parameter, dtype=float))
    header = np.array(
        (mesh.nx, mesh.ny, mesh.domain, grid.t0, grid.T, grid.steps, param),
        dtype=[("nx", "<i8"), ("ny", "<i8"), ("domain", "<f8", (4,)),
               ("t0", "<f8"), ("T", "<f8"), ("steps", "<i8"),
               ("parameter", "<f8", param.shape)])
    _save(path, TRAJ_FORMAT, {"header": header, "values": traj.values})


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
    _replace(path, lambda fh: fh.write((text + "\n").encode("utf-8")))
