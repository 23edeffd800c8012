import numpy as np
import pytest

from nirb import mesh


def signed_areas(m):
    p = m.nodes[m.triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def test_single_cell_counts():
    m = mesh.build_structured(1, 1)
    assert m.n_nodes == 4
    assert m.triangles.shape[0] == 2
    assert m.h == pytest.approx(np.sqrt(2.0))


def test_two_by_two_counts():
    m = mesh.build_structured(2, 2)
    assert m.n_nodes == 9
    assert m.triangles.shape[0] == 8
    assert m.h == pytest.approx(np.sqrt(2.0) / 2.0)


def test_rectangle_counts():
    m = mesh.build_structured(4, 2, domain=(0.0, 2.0, 0.0, 1.0))
    assert m.n_nodes == 15
    assert m.triangles.shape[0] == 16
    assert m.h == pytest.approx(np.sqrt(0.5))
    assert m.cell_sizes() == pytest.approx((0.5, 0.5))


def test_node_ordering_x_fastest():
    m = mesh.build_structured(2, 2)
    assert m.nodes[4] == pytest.approx([0.5, 0.5])
    assert m.nodes[1] == pytest.approx([0.5, 0.0])
    assert m.nodes[3] == pytest.approx([0.0, 0.5])


def test_orientation_counter_clockwise():
    m = mesh.build_structured(3, 5, domain=(-1.0, 2.0, 0.0, 4.0))
    areas = signed_areas(m)
    assert np.all(areas > 0.0)
    assert areas.sum() == pytest.approx(12.0)


def test_boundary_mask():
    m = mesh.build_structured(2, 2)
    assert m.boundary_mask.sum() == 8
    assert not m.boundary_mask[4]


def test_invalid_counts_rejected():
    with pytest.raises(ValueError):
        mesh.build_structured(0, 3)
    with pytest.raises(ValueError):
        mesh.build_structured(2, 2, domain=(1.0, 1.0, 0.0, 1.0))


def test_interpolate_affine_exact():
    src = mesh.build_structured(2, 2)
    dst = mesh.build_structured(8, 8)
    f = src.nodes[:, 0] + src.nodes[:, 1]
    out = mesh.interpolate_field(src, f, dst)
    want = dst.nodes[:, 0] + dst.nodes[:, 1]
    assert np.abs(out - want).max() <= 1e-14


def test_interpolate_constant():
    src = mesh.build_structured(3, 2)
    dst = mesh.build_structured(7, 5)
    out = mesh.interpolate_field(src, np.ones(src.n_nodes), dst)
    assert out == pytest.approx(np.ones(dst.n_nodes))


def test_interpolant_of_parabola_is_chordal():
    # x^2 sampled on a 2x2 mesh is linear between x=0 and x=0.5, so the
    # value at x=0.25 is the chord midpoint 0.125.
    src = mesh.build_structured(2, 2)
    op = mesh.transfer_operator(src, np.array([[0.25, 0.0]]))
    f = src.nodes[:, 0] ** 2
    idx, w = op
    assert (w[0] * f[idx[0]]).sum() == pytest.approx(0.125)


def test_transfer_weights_partition_of_unity(rng):
    src = mesh.build_structured(5, 3, domain=(0.0, 2.0, -1.0, 1.0))
    pts = np.column_stack([rng.uniform(0.0, 2.0, 40), rng.uniform(-1.0, 1.0, 40)])
    idx, w = mesh.transfer_operator(src, pts)
    assert w.sum(axis=1) == pytest.approx(np.ones(40))
    assert idx.min() >= 0 and idx.max() < src.n_nodes


def test_transfer_rejects_outside_points():
    src = mesh.build_structured(2, 2)
    with pytest.raises(ValueError):
        mesh.transfer_operator(src, np.array([[1.5, 0.5]]))


def test_interpolate_field_stacked_rows():
    src = mesh.build_structured(2, 2)
    dst = mesh.build_structured(4, 4)
    F = np.stack([src.nodes[:, 0], src.nodes[:, 1]])
    out = mesh.interpolate_field(src, F, dst)
    assert out.shape == (2, dst.n_nodes)
    assert out[0] == pytest.approx(dst.nodes[:, 0])
    assert out[1] == pytest.approx(dst.nodes[:, 1])
