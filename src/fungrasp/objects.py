"""Object ingestion and affordance likelihoods.

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

from .assets import LENGTH_MAX, UserError

log = logging.getLogger(__name__)

__all__ = [
    "ObjectModel",
    "AffordanceDistribution",
    "load_object",
    "affordance_distribution",
    "sample_affordance_index",
    "farthest_point_sample",
]

MIN_POINTS = 64
NORMAL_ROWS = 64          # rows of the neighbor search's distance block (estimate_normals)

AFFORD_BETA = 1.0         # the affordance score's exponent
AFFORD_H_MIN = 0.01       # points below this height are never affordances
AFFORD_UP_WEIGHT = 0.5    # blend between upward and outward normal alignment


@dataclass(frozen=True)
class ObjectModel:
    """Oriented point cloud in canonical pose (min z = 0); its len is
    its point count."""

    name: str
    points: np.ndarray        # (N, 3) meters
    normals: np.ndarray       # (N, 3) unit outward normals
    centroid: np.ndarray      # (3,)
    obj_bb: float             # the longest edge of the axis-aligned bounding box
    box: np.ndarray           # (2, 3) that box's min and max corners
    # the points' terms of sim._nearest's product: -2.0 * points.T (3, N) and each |p|^2 (N,)
    neg2p: np.ndarray = field(compare=False, repr=False)
    p2: np.ndarray = field(compare=False, repr=False)
    # sim's crush-floor table, filled a block at a time on first use (sim._may_crush)
    crush_floor: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_points(cls, name: str, points, normals=None) -> "ObjectModel":
        """The cloud named name, shifted to min z = 0, with unit normals,
        estimated when none are given. Raises UserError, naming the
        object, for fewer than MIN_POINTS points, a non-finite or
        zero-length entry, or a coordinate beyond assets.LENGTH_MAX in
        magnitude (a cloud in millimetres, say)."""
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise UserError(f"{name}: points must be (N, 3), got {points.shape}")
        if points.shape[0] < MIN_POINTS:
            raise UserError(f"{name}: needs at least {MIN_POINTS} points, got {points.shape[0]}")
        if not np.all(np.isfinite(points)):
            raise UserError(f"{name}: points contain non-finite values")
        far = np.abs(points).max()
        if far > LENGTH_MAX:
            raise UserError(f"{name}: points must lie within {LENGTH_MAX:g} m of 0 (in metres), got {far}")
        points = points - np.array([0.0, 0.0, points[:, 2].min()])
        if normals is None:
            normals = estimate_normals(points)
        normals = np.array(normals, dtype=float)
        if normals.shape != points.shape:
            raise UserError(f"{name}: normals shape {normals.shape} != points shape {points.shape}")
        if not np.all(np.isfinite(normals)):
            raise UserError(f"{name}: normals contain non-finite values")
        lens = np.linalg.norm(normals, axis=1)
        if np.any(lens < 1e-9):
            raise UserError(f"{name}: zero-length normal at index {int(np.argmin(lens))}")
        normals = normals / lens[:, None]
        centroid = points.mean(axis=0)
        box = np.stack([points.min(axis=0), points.max(axis=0)])
        neg2p, p2 = -2.0 * points.T, np.einsum("ij,ij->i", points, points)
        for a in (points, normals, centroid, box, neg2p, p2):
            a.setflags(write=False)
        return cls(
            name=name,
            points=points,
            normals=normals,
            centroid=centroid,
            obj_bb=float((box[1] - box[0]).max()),
            box=box,
            neg2p=neg2p,
            p2=p2,
        )


def estimate_normals(points: np.ndarray) -> np.ndarray:
    """Plane-fit normals from the 8 nearest neighbors, oriented outward.

    Outward means agreeing in sign with the direction from the cloud
    centroid to the point; good enough for star-shaped desk objects.
    The fits are one stacked SVD of the (N, 8, 3) neighborhoods, and the
    sign test one product per row, each with the bits of one point's
    own fit and np.dot.
    """
    n = points.shape[0]
    k = min(8, n - 1)
    nbr = np.empty((n, k), dtype=np.intp)
    cols = points.T
    # NORMAL_ROWS rows of squared distances at a time: memory linear in n;
    # summed a coordinate at a time, in the order a sum over them adds
    for lo in range(0, n, NORMAL_ROWS):
        x = points[lo:lo + NORMAL_ROWS]
        d2 = (x[:, :1] - cols[0]) ** 2
        d2 += (x[:, 1:2] - cols[1]) ** 2
        d2 += (x[:, 2:] - cols[2]) ** 2
        rows = np.arange(len(d2))
        d2[rows, lo + rows] = np.inf
        nbr[lo:lo + NORMAL_ROWS] = np.argpartition(d2, k - 1, axis=1)[:, :k]
    # one stacked plane fit: each point's (k, 3) centered neighborhood,
    # and its last right singular vector
    hood = points[nbr]
    normals = np.linalg.svd(hood - hood.mean(axis=1, keepdims=True), full_matrices=False)[2][:, -1]
    # each normal's dot with its outward direction, by a (1, 3) @ (3, 1)
    # product per row: the bits np.dot gives the pair
    outward = points - points.mean(axis=0)
    dots = (normals[:, None, :] @ outward[:, :, None])[:, 0, 0]
    return np.where(dots[:, None] < 0, -normals, normals)


def _read_ply(path: Path):
    # undecodable bytes, as in a binary PLY's body, wait for the header check
    lines = path.read_text(errors="surrogateescape").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise UserError(f"{path}: not a PLY file (missing magic)")
    n_vertex = None
    props: list[str] = []
    i = 1
    in_vertex = False
    while i < len(lines):
        tok = lines[i].split()
        i += 1
        if not tok:
            continue
        if tok[0] in ("format", "element") and len(tok) < 2:
            raise UserError(f"{path}:{i}: '{tok[0]}' line has no operand")
        if tok[0] == "format":
            if tok[1] != "ascii":
                raise UserError(f"{path}:{i}: only ascii PLY is supported, got {tok[1]}")
        elif tok[0] == "element":
            in_vertex = tok[1] == "vertex"
            if in_vertex:
                count = tok[2] if len(tok) > 2 else ""
                if not (count.isascii() and count.isdigit()):
                    raise UserError(f"{path}:{i}: vertex count must be a non-negative integer, got {count!r}")
                n_vertex = int(count)
        elif tok[0] == "property" and in_vertex:
            props.append(tok[-1])
        elif tok[0] == "end_header":
            break
    else:
        raise UserError(f"{path}: header never ended")
    if n_vertex is None:
        raise UserError(f"{path}: no vertex element in header")
    for need in ("x", "y", "z"):
        if need not in props:
            raise UserError(f"{path}: vertex property '{need}' missing")
    rows = []
    for ln in range(n_vertex):
        if i + ln >= len(lines):
            raise UserError(f"{path}: expected {n_vertex} vertex rows, file ends at {ln}")
        vals = lines[i + ln].split()
        if len(vals) < len(props):
            raise UserError(f"{path}:{i + ln + 1}: row has {len(vals)} fields, header declares {len(props)}")
        try:
            rows.append([float(v) for v in vals[: len(props)]])
        except ValueError as e:
            raise UserError(f"{path}:{i + ln + 1}: {e}") from e
    arr = np.array(rows, dtype=float).reshape(n_vertex, len(props))
    cols = {p: arr[:, j] for j, p in enumerate(props)}
    points = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    normals = None
    if all(p in props for p in ("nx", "ny", "nz")):
        normals = np.stack([cols["nx"], cols["ny"], cols["nz"]], axis=1)
    return points, normals


def load_object(path) -> ObjectModel:
    """Load an ascii PLY cloud, named by its file stem; estimates normals
    (and says so) if absent."""
    path = Path(path)
    points, normals = _read_ply(path)
    obj = ObjectModel.from_points(path.stem, points, normals)
    if normals is None:
        log.warning("%s: no normals in file, estimating from 8-NN plane fits", path)
    return obj


@dataclass(frozen=True)
class AffordanceDistribution:
    """A categorical distribution over a cloud's points, with its CDF."""

    weights: np.ndarray      # (N,), non-negative, sums to 1
    cdf: np.ndarray = field(init=False, repr=False, compare=False)   # cumsum of weights

    def __post_init__(self):
        cdf = np.cumsum(self.weights)
        cdf.setflags(write=False)
        object.__setattr__(self, "cdf", cdf)


def affordance_distribution(obj: ObjectModel) -> AffordanceDistribution:
    """Likelihood over cloud points favoring upward/outward-facing surface.

    score_i = max(0, w_up * (n_i . z) + (1 - w_up) * (n_i . o_i)) ** beta,
    where o_i is the horizontal unit direction from the centroid to the
    point, w_up is AFFORD_UP_WEIGHT and beta AFFORD_BETA. Points below
    AFFORD_H_MIN are excluded; a uniform fallback covers clouds where
    every admissible score vanishes.
    """
    z = obj.points[:, 2]
    admissible = z >= AFFORD_H_MIN
    if not admissible.any():
        raise UserError(
            f"{obj.name}: all points below h_min={AFFORD_H_MIN}; object too flat to condition on"
        )
    o = obj.points - obj.centroid
    o[:, 2] = 0.0
    norms = np.linalg.norm(o, axis=1)
    safe = norms > 1e-9
    o[safe] /= norms[safe, None]
    o[~safe] = 0.0
    score = AFFORD_UP_WEIGHT * obj.normals[:, 2] + (1.0 - AFFORD_UP_WEIGHT) * np.einsum(
        "ij,ij->i", obj.normals, o
    )
    weights = np.where(score > 0.0, np.maximum(score, 0.0) ** AFFORD_BETA, 0.0)
    weights[~admissible] = 0.0
    total = weights.sum()
    if total <= 0.0:
        weights = admissible.astype(float)
        total = weights.sum()
    weights /= total
    weights.setflags(write=False)
    return AffordanceDistribution(weights=weights)


def sample_affordance_index(dist: AffordanceDistribution, u: np.ndarray) -> np.ndarray:
    """Categorical draws of point indices, one per uniform in [0, 1) of u
    (inverse-CDF)."""
    return np.minimum(np.searchsorted(dist.cdf, u, side="right"), len(dist.weights) - 1)


def _squared_distances(cols: np.ndarray, j: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """((x - xj)^2 + (y - yj)^2) + (z - zj)^2 of the points, columns cols
    (3, N), into out: the bits of numpy's (N, 3) row sum."""
    np.square(np.subtract(cols[0], cols[0, j], out=out), out=out)
    for col in cols[1:]:
        out += np.square(np.subtract(col, col[j], out=tmp), out=tmp)
    return out


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
        raise UserError(f"cannot sample {m} points from a cloud of {n}")
    rng = np.random.default_rng(seed)
    cols, (dist, d, tmp) = points.T.copy(), np.empty((3, n))
    chosen = np.empty(m, dtype=int)
    chosen[0] = np.argmax(_squared_distances(cols, int(rng.integers(n)), dist, tmp))
    _squared_distances(cols, chosen[0], dist, tmp)[chosen[0]] = -np.inf
    for i in range(1, m):
        chosen[i] = nxt = int(np.argmax(dist))
        np.minimum(dist, _squared_distances(cols, nxt, d, tmp), out=dist)[nxt] = -np.inf
    return chosen
