"""Object ingestion, affordance likelihoods, and the procedural toy suite.

Objects are oriented point clouds in a canonical pose: the cloud is
shifted so its minimum z sits on the table plane z = 0. Affordance
weights are computed once in this canonical frame; episode randomization
transforms the sampled point, not the distribution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

__all__ = [
    "ObjectError",
    "ObjectModel",
    "AffordanceParams",
    "AffordanceDistribution",
    "load_object",
    "save_object_ply",
    "affordance_distribution",
    "sample_affordance_index",
    "farthest_point_sample",
    "make_box",
    "make_cylinder",
    "make_sphere",
    "make_l_shape",
    "make_mug",
    "toy_suite",
]

MIN_POINTS = 64


class ObjectError(ValueError):
    """Raised for unusable point-cloud files or degenerate objects."""


@dataclass(frozen=True)
class ObjectModel:
    """Oriented point cloud in canonical pose (min z = 0)."""

    name: str
    points: np.ndarray        # (N, 3) meters
    normals: np.ndarray       # (N, 3) unit outward normals
    centroid: np.ndarray      # (3,)
    bb_edges: np.ndarray      # (3,) axis-aligned bounding box edge lengths
    obj_bb: float             # max(bb_edges)
    normals_estimated: bool = False

    @classmethod
    def from_points(cls, name: str, points, normals=None, *, normals_estimated=False) -> "ObjectModel":
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ObjectError(f"{name}: points must be (N, 3), got {points.shape}")
        if points.shape[0] < MIN_POINTS:
            raise ObjectError(f"{name}: needs at least {MIN_POINTS} points, got {points.shape[0]}")
        if not np.all(np.isfinite(points)):
            raise ObjectError(f"{name}: points contain non-finite values")
        points = points - np.array([0.0, 0.0, points[:, 2].min()])
        if normals is None:
            normals = estimate_normals(points)
            normals_estimated = True
        normals = np.array(normals, dtype=float)
        if normals.shape != points.shape:
            raise ObjectError(f"{name}: normals shape {normals.shape} != points shape {points.shape}")
        if not np.all(np.isfinite(normals)):
            raise ObjectError(f"{name}: normals contain non-finite values")
        lens = np.linalg.norm(normals, axis=1)
        if np.any(lens < 1e-9):
            raise ObjectError(f"{name}: zero-length normal at index {int(np.argmin(lens))}")
        normals = normals / lens[:, None]
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        bb_edges = hi - lo
        for a in (points, normals, bb_edges):
            a.setflags(write=False)
        centroid = points.mean(axis=0)
        centroid.setflags(write=False)
        return cls(
            name=name,
            points=points,
            normals=normals,
            centroid=centroid,
            bb_edges=bb_edges,
            obj_bb=float(bb_edges.max()),
            normals_estimated=normals_estimated,
        )


def estimate_normals(points: np.ndarray, k: int = 8) -> np.ndarray:
    """Plane-fit normals from the k nearest neighbors, oriented outward.

    Outward means agreeing in sign with the direction from the cloud
    centroid to the point; good enough for star-shaped desk objects.
    """
    n = points.shape[0]
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    k = min(k, n - 1)
    nbr = np.argpartition(d2, k - 1, axis=1)[:, :k]
    centroid = points.mean(axis=0)
    normals = np.empty_like(points)
    for i in range(n):
        local = points[nbr[i]] - points[nbr[i]].mean(axis=0)
        _, _, vt = np.linalg.svd(local, full_matrices=False)
        nrm = vt[-1]
        outward = points[i] - centroid
        if np.dot(nrm, outward) < 0:
            nrm = -nrm
        normals[i] = nrm
    return normals


def _read_ply(path: Path):
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ObjectError(f"{path}: not a PLY file (missing magic)")
    n_vertex = None
    props: list[str] = []
    i = 1
    in_vertex = False
    while i < len(lines):
        tok = lines[i].split()
        i += 1
        if not tok:
            continue
        if tok[0] == "format":
            if tok[1] != "ascii":
                raise ObjectError(f"{path}:{i}: only ascii PLY is supported, got {tok[1]}")
        elif tok[0] == "element":
            in_vertex = tok[1] == "vertex"
            if in_vertex:
                count = tok[2] if len(tok) > 2 else ""
                if not (count.isascii() and count.isdigit()):
                    raise ObjectError(f"{path}:{i}: vertex count must be a non-negative integer, got {count!r}")
                n_vertex = int(count)
        elif tok[0] == "property" and in_vertex:
            props.append(tok[-1])
        elif tok[0] == "end_header":
            break
    else:
        raise ObjectError(f"{path}: header never ended")
    if n_vertex is None:
        raise ObjectError(f"{path}: no vertex element in header")
    for need in ("x", "y", "z"):
        if need not in props:
            raise ObjectError(f"{path}: vertex property '{need}' missing")
    rows = []
    for ln in range(n_vertex):
        if i + ln >= len(lines):
            raise ObjectError(f"{path}: expected {n_vertex} vertex rows, file ends at {ln}")
        vals = lines[i + ln].split()
        if len(vals) < len(props):
            raise ObjectError(f"{path}:{i + ln + 1}: row has {len(vals)} fields, header declares {len(props)}")
        try:
            rows.append([float(v) for v in vals[: len(props)]])
        except ValueError as e:
            raise ObjectError(f"{path}:{i + ln + 1}: {e}") from e
    arr = np.array(rows, dtype=float).reshape(n_vertex, len(props))
    cols = {p: arr[:, j] for j, p in enumerate(props)}
    points = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    normals = None
    if all(p in props for p in ("nx", "ny", "nz")):
        normals = np.stack([cols["nx"], cols["ny"], cols["nz"]], axis=1)
    return points, normals


def load_object(path, name: str | None = None) -> ObjectModel:
    """Load an ascii PLY cloud; estimates normals (and says so) if absent."""
    path = Path(path)
    points, normals = _read_ply(path)
    obj = ObjectModel.from_points(name or path.stem, points, normals, normals_estimated=normals is None)
    if normals is None:
        log.warning("%s: no normals in file, estimating from 8-NN plane fits", path)
    return obj


def save_object_ply(obj: ObjectModel, path) -> None:
    """Write an ObjectModel as ascii PLY with x,y,z,nx,ny,nz."""
    path = Path(path)
    n = obj.points.shape[0]
    head = [
        "ply",
        "format ascii 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
        "property float nx",
        "property float ny",
        "property float nz",
        "end_header",
    ]
    rows = [
        " ".join(repr(float(v)) for v in np.concatenate([obj.points[i], obj.normals[i]]))
        for i in range(n)
    ]
    path.write_text("\n".join(head + rows) + "\n")


@dataclass(frozen=True)
class AffordanceParams:
    beta: float = 1.0
    h_min: float = 0.01      # points below this height are never affordances
    up_weight: float = 0.5   # blend between upward and outward normal alignment


@dataclass(frozen=True)
class AffordanceDistribution:
    """A categorical distribution over a cloud's points, with its CDF."""

    weights: np.ndarray      # (N,), non-negative, sums to 1
    params: AffordanceParams
    cdf: np.ndarray = field(init=False, repr=False, compare=False)   # cumsum of weights

    def __post_init__(self):
        cdf = np.cumsum(self.weights)
        cdf.setflags(write=False)
        object.__setattr__(self, "cdf", cdf)


def affordance_distribution(obj: ObjectModel, params: AffordanceParams = AffordanceParams()) -> AffordanceDistribution:
    """Likelihood over cloud points favoring upward/outward-facing surface.

    score_i = max(0, w_up * (n_i . z) + (1 - w_up) * (n_i . o_i)) ** beta,
    where o_i is the horizontal unit direction from the centroid to the
    point. Points below h_min are excluded; a uniform fallback covers
    clouds where every admissible score vanishes.
    """
    z = obj.points[:, 2]
    admissible = z >= params.h_min
    if not admissible.any():
        raise ObjectError(
            f"{obj.name}: all points below h_min={params.h_min}; object too flat to condition on"
        )
    o = obj.points - obj.centroid
    o[:, 2] = 0.0
    norms = np.linalg.norm(o, axis=1)
    safe = norms > 1e-9
    o[safe] /= norms[safe, None]
    o[~safe] = 0.0
    score = params.up_weight * obj.normals[:, 2] + (1.0 - params.up_weight) * np.einsum(
        "ij,ij->i", obj.normals, o
    )
    weights = np.where(score > 0.0, np.maximum(score, 0.0) ** params.beta, 0.0)
    weights[~admissible] = 0.0
    total = weights.sum()
    if total <= 0.0:
        weights = admissible.astype(float)
        total = weights.sum()
    weights /= total
    weights.setflags(write=False)
    return AffordanceDistribution(weights=weights, params=params)


def sample_affordance_index(dist: AffordanceDistribution, rng: np.random.Generator) -> int:
    """Categorical draw of a point index (inverse-CDF on one uniform)."""
    idx = int(np.searchsorted(dist.cdf, rng.random(), side="right"))
    return min(idx, len(dist.weights) - 1)


def farthest_point_sample(points, m: int, seed: int) -> np.ndarray:
    """Greedy farthest-point subsampling.

    A seed-selected index bootstraps the distance field but is not itself
    auto-selected: the first chosen point is the one farthest from it
    (so M = 2 on a segment returns the two endpoints regardless of where
    the seed lands). Deterministic given (points, m, seed).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if m > n:
        raise ObjectError(f"cannot sample {m} points from a cloud of {n}")
    rng = np.random.default_rng(seed)
    start = int(rng.integers(n))
    chosen = np.empty(m, dtype=int)
    first = int(np.argmax(((points - points[start]) ** 2).sum(axis=1)))
    chosen[0] = first
    dist = ((points - points[first]) ** 2).sum(axis=1)
    dist[first] = -np.inf
    for i in range(1, m):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        d = ((points - points[nxt]) ** 2).sum(axis=1)
        dist = np.minimum(dist, d)
        dist[nxt] = -np.inf
    return chosen


# ---------------------------------------------------------------------------
# Procedural toy suite: analytic clouds with exact normals so the tests and
# the acceptance run need no external datasets.
# ---------------------------------------------------------------------------

def _grid(lo, hi, step):
    n = max(2, int(round((hi - lo) / step)) + 1)
    return np.linspace(lo, hi, n)


def make_box(edges=(0.06, 0.06, 0.06), step=0.004, name="box") -> ObjectModel:
    ex, ey, ez = edges
    xs, ys, zs = _grid(-ex / 2, ex / 2, step), _grid(-ey / 2, ey / 2, step), _grid(0.0, ez, step)
    pts, nrm = [], []
    for sign in (-1.0, 1.0):
        gy, gz = np.meshgrid(ys, zs, indexing="ij")
        pts.append(np.stack([np.full(gy.size, sign * ex / 2), gy.ravel(), gz.ravel()], axis=1))
        nrm.append(np.tile([sign, 0.0, 0.0], (gy.size, 1)))
        gx, gz = np.meshgrid(xs, zs, indexing="ij")
        pts.append(np.stack([gx.ravel(), np.full(gx.size, sign * ey / 2), gz.ravel()], axis=1))
        nrm.append(np.tile([0.0, sign, 0.0], (gx.size, 1)))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        zval = ez if sign > 0 else 0.0
        pts.append(np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, zval)], axis=1))
        nrm.append(np.tile([0.0, 0.0, sign], (gx.size, 1)))
    return ObjectModel.from_points(name, np.concatenate(pts), np.concatenate(nrm))


def make_cylinder(radius=0.028, height=0.09, step=0.004, name="cylinder") -> ObjectModel:
    n_theta = max(8, int(round(2 * np.pi * radius / step)))
    theta = np.linspace(0, 2 * np.pi, n_theta, endpoint=False)
    zs = _grid(0.0, height, step)
    gt, gz = np.meshgrid(theta, zs, indexing="ij")
    side = np.stack([radius * np.cos(gt).ravel(), radius * np.sin(gt).ravel(), gz.ravel()], axis=1)
    side_n = np.stack([np.cos(gt).ravel(), np.sin(gt).ravel(), np.zeros(gt.size)], axis=1)
    pts, nrm = [side], [side_n]
    for zval, nz in ((0.0, -1.0), (height, 1.0)):
        for r in _grid(0.0, radius, step)[1:]:
            nt = max(6, int(round(2 * np.pi * r / step)))
            th = np.linspace(0, 2 * np.pi, nt, endpoint=False)
            pts.append(np.stack([r * np.cos(th), r * np.sin(th), np.full(nt, zval)], axis=1))
            nrm.append(np.tile([0.0, 0.0, nz], (nt, 1)))
        pts.append(np.array([[0.0, 0.0, zval]]))
        nrm.append(np.array([[0.0, 0.0, nz]]))
    return ObjectModel.from_points(name, np.concatenate(pts), np.concatenate(nrm))


def make_sphere(radius=0.032, n=800, name="sphere") -> ObjectModel:
    # Fibonacci sphere: even coverage, exact radial normals
    i = np.arange(n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    y = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - y * y)
    dirs = np.stack([np.cos(phi) * r, y, np.sin(phi) * r], axis=1)
    pts = radius * dirs + np.array([0.0, 0.0, radius])
    return ObjectModel.from_points(name, pts, dirs)


def make_l_shape(name="l_shape") -> ObjectModel:
    # foot slab plus a column on its -x end; interior points removed
    foot = make_box((0.08, 0.05, 0.03), name="_foot")
    col = make_box((0.03, 0.05, 0.09), name="_col")
    col_pts = col.points + np.array([-0.025, 0.0, 0.0])
    foot_pts = np.array(foot.points)

    def inside(p, lo, hi):
        return np.all((p > lo + 1e-9) & (p < hi - 1e-9), axis=1)

    keep_f = ~inside(foot_pts, np.array([-0.04, -0.025, 0.0]) + [0.0, 0.0, -1.0],
                     np.array([-0.01, 0.025, 0.03]))
    keep_c = ~inside(col_pts, np.array([-0.04, -0.025, -1.0]), np.array([-0.01, 0.025, 0.03]))
    pts = np.concatenate([foot_pts[keep_f], col_pts[keep_c]])
    nrm = np.concatenate([foot.normals[keep_f], col.normals[keep_c]])
    return ObjectModel.from_points(name, pts, nrm)


def make_mug(body_radius=0.033, body_height=0.08, name="mug") -> ObjectModel:
    # handle sticks out along +y, clear of a +-x pincer approach
    body = make_cylinder(body_radius, body_height, name="_body")
    handle = make_box((0.016, 0.024, 0.05), step=0.004, name="_handle")
    handle_pts = handle.points + np.array([0.0, body_radius + 0.008, 0.018])
    r = np.linalg.norm(handle_pts[:, :2], axis=1)
    keep = r > body_radius - 1e-9
    pts = np.concatenate([body.points, handle_pts[keep]])
    nrm = np.concatenate([body.normals, handle.normals[keep]])
    return ObjectModel.from_points(name, pts, nrm)


def toy_suite() -> dict[str, ObjectModel]:
    """The five bundled desk objects used by tests and the acceptance run."""
    objs = [make_box(), make_cylinder(), make_sphere(), make_l_shape(), make_mug()]
    return {o.name: o for o in objs}
