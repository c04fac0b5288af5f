import logging
import re

import numpy as np
import pytest

from fungrasp.objects import (
    AffordanceDistribution,
    AffordanceParams,
    ObjectError,
    ObjectModel,
    affordance_distribution,
    farthest_point_sample,
    load_object,
    make_box,
    make_cylinder,
    make_sphere,
    sample_affordance_index,
    save_object_ply,
)


def _cube_cloud(n_per_edge=6):
    g = np.linspace(-0.5, 0.5, n_per_edge)
    pts, nrm = [], []
    for sign in (-1, 1):
        for axis in range(3):
            a, b = np.meshgrid(g, g, indexing="ij")
            face = np.zeros((a.size, 3))
            face[:, axis] = sign * 0.5
            others = [i for i in range(3) if i != axis]
            face[:, others[0]] = a.ravel()
            face[:, others[1]] = b.ravel()
            pts.append(face)
            n = np.zeros((a.size, 3))
            n[:, axis] = sign
            nrm.append(n)
    return np.concatenate(pts), np.concatenate(nrm)


def test_unit_cube_bbox():
    pts, nrm = _cube_cloud()
    obj = ObjectModel.from_points("cube", pts, nrm)
    assert np.allclose(obj.bb_edges, [1.0, 1.0, 1.0], atol=1e-12)
    assert obj.obj_bb == 1.0
    assert obj.obj_bb == obj.bb_edges.max()


def test_cylinder_bbox():
    obj = make_cylinder(radius=0.03, height=0.20)
    assert abs(obj.obj_bb - 0.20) < 1e-9
    assert np.allclose(obj.bb_edges[:2], [0.06, 0.06], atol=1e-3)


def test_canonicalization_shifts_min_z_to_zero():
    pts, nrm = _cube_cloud()
    pts = pts + np.array([0.0, 0.0, -0.05])
    obj = ObjectModel.from_points("shifted", pts, nrm)
    assert abs(obj.points[:, 2].min()) < 1e-12


def test_too_few_points_rejected():
    with pytest.raises(ObjectError, match="at least"):
        ObjectModel.from_points("tiny", np.random.default_rng(0).normal(size=(10, 3)))


def test_non_finite_rejected():
    pts, nrm = _cube_cloud()
    pts[0, 0] = np.nan
    with pytest.raises(ObjectError, match="non-finite"):
        ObjectModel.from_points("nan", pts, nrm)


def test_sphere_affordance_weights_follow_upward_normals():
    obj = make_sphere(radius=0.05, n=400)
    dist = affordance_distribution(obj, AffordanceParams(beta=1.0, h_min=0.01, up_weight=1.0))
    nz = obj.normals[:, 2]
    admissible = obj.points[:, 2] >= 0.01
    # lower hemisphere (and excluded band): zero weight
    assert np.all(dist.weights[(nz <= 0) | ~admissible] == 0.0)
    # weights proportional to nz among admissible upward points
    sel = (nz > 0.1) & admissible
    ratio = dist.weights[sel] / nz[sel]
    assert ratio.std() / ratio.mean() < 1e-9
    top = int(np.argmax(obj.points[:, 2]))
    assert dist.weights[top] == pytest.approx(dist.weights.max(), rel=1e-6)


def test_affordance_h_min_above_object_rejected():
    obj = make_box(edges=(0.05, 0.05, 0.02))
    with pytest.raises(ObjectError, match="below h_min"):
        affordance_distribution(obj, AffordanceParams(h_min=0.5))


def test_affordance_uniform_fallback():
    pts, _ = _cube_cloud()
    down = np.tile([0.0, 0.0, -1.0], (pts.shape[0], 1))
    obj = ObjectModel.from_points("down", pts, down)
    dist = affordance_distribution(obj, AffordanceParams(up_weight=1.0))
    admissible = obj.points[:, 2] >= dist.params.h_min
    assert np.allclose(dist.weights[admissible], 1.0 / admissible.sum())
    assert np.all(dist.weights[~admissible] == 0.0)


def test_weights_sum_to_one(objects):
    for obj in objects.values():
        dist = affordance_distribution(obj)
        assert abs(dist.weights.sum() - 1.0) < 1e-9
        assert np.all(dist.weights >= 0.0)


def test_sample_one_hot_and_determinism(objects):
    obj = objects["box"]
    w = np.zeros(len(obj.points))
    w[17] = 1.0
    dist = AffordanceDistribution(weights=w, params=AffordanceParams())
    for seed in range(5):
        rng = np.random.default_rng(seed)
        assert sample_affordance_index(dist, rng) == 17
    d2 = affordance_distribution(obj)
    a = obj.points[sample_affordance_index(d2, np.random.default_rng(42))]
    b = obj.points[sample_affordance_index(d2, np.random.default_rng(42))]
    assert np.array_equal(a, b)


def test_distribution_holds_its_cdf(objects):
    """The draw reads the stored CDF, the cumsum of the weights, and
    picks the index an inverse-CDF on a fresh cumsum picks."""
    dist = affordance_distribution(objects["mug"])
    assert np.array_equal(dist.cdf, np.cumsum(dist.weights)) and not dist.cdf.flags.writeable
    for seed in range(200):
        u = np.random.default_rng(seed).random()
        want = min(int(np.searchsorted(np.cumsum(dist.weights), u, side="right")), len(dist.weights) - 1)
        assert sample_affordance_index(dist, np.random.default_rng(seed)) == want


def test_sample_frequencies_match_weights():
    # law-of-large-numbers check against a known 3-point distribution
    pts = np.zeros((64, 3))
    pts[:, 2] = 1.0
    w = np.zeros(64)
    w[[3, 17, 40]] = [0.2, 0.3, 0.5]
    dist = AffordanceDistribution(weights=w, params=AffordanceParams())
    rng = np.random.default_rng(7)
    draws = np.array([sample_affordance_index(dist, rng) for _ in range(100_000)])
    for idx, expected in ((3, 0.2), (17, 0.3), (40, 0.5)):
        assert abs(np.mean(draws == idx) - expected) < 0.01


def test_fps_full_sample_is_permutation():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    idx = farthest_point_sample(pts, 40, seed=0)
    assert sorted(idx) == list(range(40))


def test_fps_two_points_on_segment_are_endpoints():
    t = np.linspace(0, 1, 50)
    pts = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
    for seed in range(10):
        idx = farthest_point_sample(pts, 2, seed=seed)
        assert set(idx) == {0, 49}


def test_fps_spread_beats_random_subsets():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(200, 3))
    m = 16

    def min_pairwise(sub):
        d = np.linalg.norm(sub[:, None] - sub[None, :], axis=2)
        iu = np.triu_indices(len(sub), k=1)
        return d[iu].min()

    fps_d = min_pairwise(pts[farthest_point_sample(pts, m, seed=0)])
    for k in range(100):
        sub = pts[rng.choice(200, m, replace=False)]
        assert fps_d >= min_pairwise(sub)


def test_fps_m_too_large():
    with pytest.raises(ObjectError):
        farthest_point_sample(np.zeros((5, 3)), 6, seed=0)


def test_affordance_permutation_invariance():
    obj = make_sphere(radius=0.04, n=300)
    dist = affordance_distribution(obj)
    rng = np.random.default_rng(5)
    perm = rng.permutation(len(obj.points))
    obj2 = ObjectModel.from_points("perm", obj.points[perm], obj.normals[perm])
    dist2 = affordance_distribution(obj2)
    assert np.allclose(dist2.weights, dist.weights[perm], atol=1e-12)


def test_obj_bb_scales_linearly():
    obj = make_box()
    for c in (0.5, 2.0, 7.0):
        scaled = ObjectModel.from_points("s", obj.points * c, obj.normals)
        assert scaled.obj_bb == pytest.approx(c * obj.obj_bb, rel=1e-12)


def test_ply_round_trip(tmp_path, objects):
    obj = objects["cylinder"]
    path = tmp_path / "cyl.ply"
    save_object_ply(obj, path)
    back = load_object(path)
    assert np.allclose(back.points, obj.points, atol=1e-15)
    assert np.allclose(back.normals, obj.normals, atol=1e-15)
    assert not back.normals_estimated


def test_ply_without_normals_estimates_and_flags(tmp_path):
    obj = make_sphere(radius=0.05, n=300)
    path = tmp_path / "plain.ply"
    n = len(obj.points)
    head = ["ply", "format ascii 1.0", f"element vertex {n}",
            "property float x", "property float y", "property float z", "end_header"]
    rows = [" ".join(repr(float(v)) for v in p) for p in obj.points]
    path.write_text("\n".join(head + rows) + "\n")
    back = load_object(path)
    assert back.normals_estimated
    # estimated normals should roughly agree with the true radial field
    agree = np.einsum("ij,ij->i", back.normals, obj.normals)
    assert np.mean(agree > 0.9) > 0.95


def test_ply_parse_errors(tmp_path):
    bad = tmp_path / "bad.ply"
    bad.write_text("not a ply\n")
    with pytest.raises(ObjectError, match="magic"):
        load_object(bad)
    trunc = tmp_path / "trunc.ply"
    trunc.write_text("ply\nformat ascii 1.0\nelement vertex 100\nproperty float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n")
    with pytest.raises(ObjectError, match="file ends"):
        load_object(trunc)


_XYZ_HEADER = "ply\nformat ascii 1.0\nelement vertex {}\nproperty float x\nproperty float y\nproperty float z\nend_header\n"


def test_ply_vertex_count_is_checked(tmp_path):
    """An empty cloud parses and is refused as too small; a count that is
    not a non-negative integer is an ObjectError that names the file."""
    empty = tmp_path / "empty.ply"
    empty.write_text(_XYZ_HEADER.format(0))
    with pytest.raises(ObjectError, match="needs at least"):
        load_object(empty)
    for count in ("-1", "2.5", "many", ""):
        bad = tmp_path / "count.ply"
        bad.write_text(_XYZ_HEADER.format(count) + "0 0 0\n0 0 1\n")
        with pytest.raises(ObjectError, match=re.escape(f"{bad}:3: vertex count must be a non-negative integer")):
            load_object(bad)


def test_only_an_accepted_cloud_warns_of_estimated_normals(tmp_path, caplog):
    empty = tmp_path / "empty.ply"
    empty.write_text(_XYZ_HEADER.format(0))
    with caplog.at_level(logging.WARNING, logger="fungrasp.objects"):
        with pytest.raises(ObjectError, match="needs at least"):
            load_object(empty)
    assert caplog.records == []
    plain = tmp_path / "plain.ply"
    points = make_sphere(radius=0.05, n=100).points
    plain.write_text(_XYZ_HEADER.format(len(points)) + "".join(f"{x} {y} {z}\n" for x, y, z in points))
    with caplog.at_level(logging.WARNING, logger="fungrasp.objects"):
        assert load_object(plain).normals_estimated
    assert [r.getMessage() for r in caplog.records] == [
        f"{plain}: no normals in file, estimating from 8-NN plane fits"
    ]


def test_toy_suite_contents(objects):
    assert set(objects) == {"box", "cylinder", "sphere", "l_shape", "mug"}
    for obj in objects.values():
        assert len(obj.points) >= 64
        assert abs(obj.points[:, 2].min()) < 1e-9
        assert np.allclose(np.linalg.norm(obj.normals, axis=1), 1.0, atol=1e-6)
