import logging
import re
import tracemalloc

import numpy as np
import pytest

from conftest import _load_script
from kernel_reference import reference_estimate_normals, reference_farthest_point_sample
from fungrasp.assets import UserError, default_objects_dir
from fungrasp.objects import (
    AFFORD_H_MIN,
    AFFORD_UP_WEIGHT,
    NORMAL_ROWS,
    AffordanceDistribution,
    ObjectModel,
    affordance_distribution,
    _squared_distances,
    farthest_point_sample,
    estimate_normals,
    load_object,
    sample_affordance_index,
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
    assert np.allclose(np.ptp(obj.points, axis=0), [1.0, 1.0, 1.0], atol=1e-12)
    assert obj.obj_bb == 1.0


def test_cylinder_bbox():
    obj = _load_script().make_cylinder(radius=0.03, height=0.20)
    assert abs(obj.obj_bb - 0.20) < 1e-9
    assert np.allclose(np.ptp(obj.points, axis=0)[:2], [0.06, 0.06], atol=1e-3)


def test_box_is_the_clouds_exact_min_and_max(objects):
    """box holds the per-axis min and max of the points, bit for bit, read
    only; obj_bb is its longest edge."""
    for obj in objects.values():
        assert obj.box.tobytes() == np.stack([obj.points.min(axis=0), obj.points.max(axis=0)]).tobytes()
        assert not obj.box.flags.writeable
        assert obj.obj_bb == (obj.points.max(axis=0) - obj.points.min(axis=0)).max()


def test_canonicalization_shifts_min_z_to_zero():
    pts, nrm = _cube_cloud()
    pts = pts + np.array([0.0, 0.0, -0.05])
    obj = ObjectModel.from_points("shifted", pts, nrm)
    assert abs(obj.points[:, 2].min()) < 1e-12


def test_too_few_points_rejected():
    with pytest.raises(UserError, match="at least"):
        ObjectModel.from_points("tiny", np.random.default_rng(0).normal(size=(10, 3)))


def test_non_finite_rejected():
    pts, nrm = _cube_cloud()
    pts[0, 0] = np.nan
    with pytest.raises(UserError, match="non-finite"):
        ObjectModel.from_points("nan", pts, nrm)


def test_sphere_affordance_weights_follow_upward_normals(objects):
    obj = objects["sphere"]
    dist = affordance_distribution(obj)
    out = obj.points - obj.centroid
    out[:, 2] = 0.0
    out /= np.linalg.norm(out, axis=1)[:, None]
    nz = obj.normals[:, 2]
    score = AFFORD_UP_WEIGHT * nz + (1.0 - AFFORD_UP_WEIGHT) * np.einsum("ij,ij->i", obj.normals, out)
    admissible = obj.points[:, 2] >= AFFORD_H_MIN
    # facing down past the blend (and the excluded band): zero weight
    assert np.all(dist.weights[(score <= 0) | ~admissible] == 0.0)
    # weights proportional to the blended score among admissible points
    sel = (score > 0.1) & admissible
    ratio = dist.weights[sel] / score[sel]
    assert ratio.std() / ratio.mean() < 1e-9
    # an even blend of up and out peaks half way up the upper hemisphere
    assert nz[np.argmax(dist.weights)] == pytest.approx(np.sqrt(0.5), abs=0.1)


def test_affordance_h_min_above_object_rejected():
    obj = _load_script().make_box(edges=(0.05, 0.05, AFFORD_H_MIN / 2))
    with pytest.raises(UserError, match="below h_min"):
        affordance_distribution(obj)


def test_affordance_uniform_fallback():
    pts, _ = _cube_cloud()
    down = np.tile([0.0, 0.0, -1.0], (pts.shape[0], 1))
    obj = ObjectModel.from_points("down", pts, down)
    dist = affordance_distribution(obj)
    admissible = obj.points[:, 2] >= AFFORD_H_MIN
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
    dist = AffordanceDistribution(weights=w)
    for seed in range(5):
        assert sample_affordance_index(dist, np.random.default_rng(seed).random(3)).tolist() == [17] * 3
    d2 = affordance_distribution(obj)
    a = obj.points[sample_affordance_index(d2, np.random.default_rng(42).random(4))]
    b = obj.points[sample_affordance_index(d2, np.random.default_rng(42).random(4))]
    assert np.array_equal(a, b)


def test_distribution_holds_its_cdf(objects):
    """The draw reads the stored CDF, the cumsum of the weights, and
    picks for each uniform the index an inverse-CDF on a fresh cumsum
    picks for it alone."""
    dist = affordance_distribution(objects["mug"])
    assert np.array_equal(dist.cdf, np.cumsum(dist.weights)) and not dist.cdf.flags.writeable
    u = np.random.default_rng(3).random(200)
    want = [min(int(np.searchsorted(np.cumsum(dist.weights), x, side="right")), len(dist.weights) - 1) for x in u]
    assert sample_affordance_index(dist, u).tolist() == want


def test_sample_frequencies_match_weights():
    # law-of-large-numbers check against a known 3-point distribution
    pts = np.zeros((64, 3))
    pts[:, 2] = 1.0
    w = np.zeros(64)
    w[[3, 17, 40]] = [0.2, 0.3, 0.5]
    dist = AffordanceDistribution(weights=w)
    draws = sample_affordance_index(dist, np.random.default_rng(7).random(100_000))
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


def test_fps_distances_have_the_bits_of_the_row_sum():
    """_squared_distances gives every point's squared distance the bits
    of numpy's (N, 3) row sum, on clouds of 11 sizes."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5, 8, 13, 64, 100, 257, 1000, 2250):
        pts = rng.normal(0.0, 0.05, (n, 3))
        out, tmp = np.empty(n), np.empty(n)
        for j in rng.integers(n, size=5):
            want = ((pts - pts[j]) ** 2).sum(axis=1)
            assert _squared_distances(pts.T.copy(), j, out, tmp).tobytes() == want.tobytes()


def test_fps_matches_the_row_sum_reference():
    """farthest_point_sample picks the indices of the (N, 3)-row
    reference on the bundled clouds, whose shared edges hold exact
    duplicate points, and on a cloud made mostly of duplicates."""
    rng = np.random.default_rng(4)
    base = rng.normal(0.0, 0.05, (50, 3))
    clouds = [load_object(p).points for p in sorted(default_objects_dir().glob("*.ply"))]
    clouds.append(np.concatenate([base, base[rng.integers(50, size=150)]]))
    for pts in clouds:
        for seed in range(20):
            got = farthest_point_sample(pts, 64, seed)
            assert np.array_equal(got, reference_farthest_point_sample(pts, 64, seed))


def test_fps_m_too_large():
    with pytest.raises(UserError):
        farthest_point_sample(np.zeros((5, 3)), 6, seed=0)


def test_affordance_permutation_invariance(objects):
    obj = objects["sphere"]
    dist = affordance_distribution(obj)
    rng = np.random.default_rng(5)
    perm = rng.permutation(len(obj.points))
    obj2 = ObjectModel.from_points("perm", obj.points[perm], obj.normals[perm])
    dist2 = affordance_distribution(obj2)
    assert np.allclose(dist2.weights, dist.weights[perm], atol=1e-12)


def test_obj_bb_scales_linearly(objects):
    obj = objects["box"]
    for c in (0.5, 2.0, 7.0):
        scaled = ObjectModel.from_points("s", obj.points * c, obj.normals)
        assert scaled.obj_bb == pytest.approx(c * obj.obj_bb, rel=1e-12)


_ESTIMATING = "no normals in file, estimating from 8-NN plane fits"


def test_ply_round_trip(tmp_path, objects, caplog):
    obj = objects["cylinder"]
    path = tmp_path / "cyl.ply"
    _load_script().save_object_ply(obj, path)
    with caplog.at_level(logging.WARNING, logger="fungrasp.objects"):
        back = load_object(path)
    assert np.allclose(back.points, obj.points, atol=1e-15)
    assert np.allclose(back.normals, obj.normals, atol=1e-15)
    assert not any(_ESTIMATING in r.getMessage() for r in caplog.records)


def test_ply_without_normals_estimates_and_flags(tmp_path, caplog, objects):
    obj = objects["sphere"]
    path = tmp_path / "plain.ply"
    n = len(obj.points)
    head = ["ply", "format ascii 1.0", f"element vertex {n}",
            "property float x", "property float y", "property float z", "end_header"]
    rows = [" ".join(repr(float(v)) for v in p) for p in obj.points]
    path.write_text("\n".join(head + rows) + "\n")
    with caplog.at_level(logging.WARNING, logger="fungrasp.objects"):
        back = load_object(path)
    assert [r.getMessage() for r in caplog.records] == [f"{path}: {_ESTIMATING}"]
    # estimated normals should roughly agree with the true radial field
    agree = np.einsum("ij,ij->i", back.normals, obj.normals)
    assert np.mean(agree > 0.9) > 0.95


def test_ply_parse_errors(tmp_path):
    bad = tmp_path / "bad.ply"
    bad.write_text("not a ply\n")
    with pytest.raises(UserError, match="magic"):
        load_object(bad)
    trunc = tmp_path / "trunc.ply"
    trunc.write_text("ply\nformat ascii 1.0\nelement vertex 100\nproperty float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n")
    with pytest.raises(UserError, match="file ends"):
        load_object(trunc)
    # a format or element line with no operand names the file and line
    for header, line in (("ply\nformat\n", 2), ("ply\nformat ascii 1.0\nelement\n", 3)):
        bare = tmp_path / "bare.ply"
        bare.write_text(header + "end_header\n")
        word = header.split()[-1]
        with pytest.raises(UserError, match=re.escape(f"{bare}:{line}: '{word}' line has no operand")):
            load_object(bare)


def test_binary_ply_names_the_file_and_its_format(tmp_path, objects):
    """A binary PLY, whose body is not text, is refused by its header."""
    points = objects["sphere"].points[:100].astype("<f4")
    path = tmp_path / "binary.ply"
    path.write_bytes(_XYZ_HEADER.format(100).replace("ascii", "binary_little_endian").encode() + points.tobytes())
    with pytest.raises(UserError, match=re.escape(f"{path}:2: only ascii PLY is supported, got binary_little_endian")):
        load_object(path)


_XYZ_HEADER = "ply\nformat ascii 1.0\nelement vertex {}\nproperty float x\nproperty float y\nproperty float z\nend_header\n"


def test_ply_vertex_count_is_checked(tmp_path):
    """An empty cloud parses and is refused as too small; a count that is
    not a non-negative integer is a UserError that names the file."""
    empty = tmp_path / "empty.ply"
    empty.write_text(_XYZ_HEADER.format(0))
    with pytest.raises(UserError, match="needs at least"):
        load_object(empty)
    for count in ("-1", "2.5", "many", ""):
        bad = tmp_path / "count.ply"
        bad.write_text(_XYZ_HEADER.format(count) + "0 0 0\n0 0 1\n")
        with pytest.raises(UserError, match=re.escape(f"{bad}:3: vertex count must be a non-negative integer")):
            load_object(bad)


def test_only_an_accepted_cloud_warns_of_estimated_normals(tmp_path, caplog, objects):
    empty = tmp_path / "empty.ply"
    empty.write_text(_XYZ_HEADER.format(0))
    with caplog.at_level(logging.WARNING, logger="fungrasp.objects"):
        with pytest.raises(UserError, match="needs at least"):
            load_object(empty)
    assert caplog.records == []
    plain = tmp_path / "plain.ply"
    points = objects["sphere"].points[::8]
    plain.write_text(_XYZ_HEADER.format(len(points)) + "".join(f"{x} {y} {z}\n" for x, y, z in points))
    with caplog.at_level(logging.WARNING, logger="fungrasp.objects"):
        load_object(plain)
    assert [r.getMessage() for r in caplog.records] == [f"{plain}: {_ESTIMATING}"]


def test_bundled_objects_contents(objects):
    assert set(objects) == {"box", "cylinder", "sphere", "l_shape", "mug"}
    for obj in objects.values():
        assert len(obj.points) >= 64
        assert abs(obj.points[:, 2].min()) < 1e-9
        assert np.allclose(np.linalg.norm(obj.normals, axis=1), 1.0, atol=1e-6)


def test_estimate_normals_matches_the_whole_matrix_reference():
    """The row-block neighbor search, the stacked plane fit and the
    row-wise sign test give the normals of the (N, N) reference and its
    per-point fits byte for byte, on clouds whose sizes are and are not
    multiples of the block, and on one that holds points twice (ties at
    distance 0)."""
    rng = np.random.default_rng(6)
    clouds = [rng.normal(0.0, 0.05, (n, 3)) for n in (NORMAL_ROWS, 3 * NORMAL_ROWS + 17, 1000)]
    twice = rng.normal(0.0, 0.05, (300, 3))
    clouds.append(rng.permutation(np.concatenate([twice, twice[::3]])))
    for points in clouds:
        assert estimate_normals(points).tobytes() == reference_estimate_normals(points).tobytes()


def test_estimate_normals_memory_is_linear_in_the_points():
    """3,000 points stay under 16 MB, where an (N, N, 3) float64
    temporary alone takes 216 MB."""
    points = np.random.default_rng(7).normal(0.0, 0.05, (3000, 3))
    tracemalloc.start()
    try:
        estimate_normals(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
