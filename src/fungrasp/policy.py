"""Conditioned one-step stochastic policy with hand-written gradients.

The network is deliberately small and fully explicit in numpy: a
pointwise MLP with channel-wise max pooling encodes the object cloud,
an actor trunk maps the concatenated observation to a Gaussian action
head (state-independent log-std), and a separate value path shares no
trunk parameters with the actor. The three are stacks of dense layers,
each named once as a table of its (weight, bias) names (POINT_BRANCH,
ACTOR, VALUE); every layer is followed by a ReLU except a head's last.
One forward (_stack) and one reverse pass (_stack_backward) run every
stack, so the rule z = x W + b, g_W = x^T d, g_b = sum d,
d <- (d W^T) * [z > 0] is written once; the check-gradients command and
the tests gate the gradients against finite differences.

Observations only exist as an ObsBatch, and only encode_observation
makes one, over many episodes at once: a chunk of episodes encodes its
batch for its forward pass, and collection encodes the PPO batch once
from the results of the episodes that ran. An episode's result carries
no observation. The encoding is row-wise, so the PPO batch's rows have
the bits the chunks saw. A batch holds its rows as the trunks' input,
one (B, D) table in param_shapes order with the pooled-feature block
left blank, and each row field is a view of its columns. So a minibatch
of the update is one gather of table rows, and every forward pass only
fills the pooled block of its copy. Log-probabilities are always taken
of the stored raw (pre-squash) samples, so no squashed action is ever
inverted, and the squash correction of a raw sample, which no parameter
moves, is taken once per sample (squash_correction).

The observed cloud depends only on (object, M, FPS seed), so a batch
holds a table of its U distinct encoded clouds, clouds (U, M, 6), and
each row's entry in it, cloud_index (B,). Every entry is used by some
row: an encoded batch holds the cached cloud of each of its objects
once, first seen first, and indexing rows keeps only the entries they
use. The point branch runs once per table entry in both passes; the
pooled feature is gathered per row, and its gradient summed per entry
before it is routed back through the pool.

The parameters live in one float64 vector, PolicyParams.flat, laid out
as param_shapes lists the 17 arrays, each stored C-order. Each named
array (params.pb_w1 ... params.v_b3) is a read-only view into flat, so
no reader can write through a PolicyParams. The PPO update builds one
over its private copy of the vector, which only it steps in place (see
training.ppo_update). policy_backward's gradient and Adam's moments are
vectors in the same layout; policy_backward can fill a caller's vector
through views the caller builds once.

A batch of one and the rows of a batch round differently in the trunk:
numpy gives a one-row product to gemv and a many-row one to gemm. The
episodes of a chunk run one row-alone forward (policy_forward with
row_alone=True), whose trunk products are stacked (B, 1, D) @ (D, H)
products, one gemv per row, so each row has the bits of its batch of
one; the update keeps its gemm. The finiteness checks come in two
forms: policy_forward raises the first that any row fails, and
row_errors gives each row the message a batch of one of it would raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demo import EditBounds
from .geometry import compose_pose_rows
from .hand import Style
from .objects import ObjectModel, farthest_point_sample

__all__ = [
    "PolicyError",
    "ObsBatch",
    "PolicyParams",
    "encode_observation",
    "observation_checks",
    "activation_checks",
    "row_errors",
    "random_obs",
    "init_params",
    "policy_forward",
    "policy_backward",
    "param_shapes",
    "param_views",
    "squash",
    "gaussian_log_prob",
    "sample_action",
    "entropy",
    "LOG_STD_MIN",
    "LOG_STD_MAX",
    "POINT_FEATURES",
    "CLOUD_FEAT_DIM",
]

LOG_STD_MIN = -5.0
LOG_STD_MAX = 1.0
POINT_FEATURES = 6          # xyz (centered, scaled) + normal
CLOUD_FEAT_DIM = 64
HEAD_SCALE = 0.01           # output heads start near zero: initial policy ~ replay

# the dense stacks, each layer's (weight, bias) names in param_shapes
POINT_BRANCH = (("pb_w1", "pb_b1"), ("pb_w2", "pb_b2"))
ACTOR = (("a_w1", "a_b1"), ("a_w2", "a_b2"), ("mean_w", "mean_b"))
VALUE = (("v_w1", "v_b1"), ("v_w2", "v_b2"), ("v_w3", "v_b3"))
# the columns of the trunks' input that hold the pooled cloud feature,
# after s_r and s_o
_POOLED = slice(7 + 7, 7 + 7 + CLOUD_FEAT_DIM)


class PolicyError(RuntimeError):
    """Raised on dimension mismatches or non-finite activations."""


@dataclass(frozen=True)
class ObsBatch:
    """B observations over a table of U distinct clouds. The rows' own
    values are the column blocks of trunk_in, the trunks' input with a
    blank (zero) pooled block: s_r, s_o, pooled, p_afford_rel, l_style,
    obj_bb. Each row field is a view of its block."""

    trunk_in: np.ndarray       # (B, D), D as param_shapes counts it
    cloud_index: np.ndarray    # (B,) each row's entry in clouds
    clouds: np.ndarray         # (U, M, 6) centered/scaled FPS points + normals

    # the row fields, each a view of its block: s_r (B, 7) initial
    # end-effector pose (t, quat), s_o (B, 7) object pose, p_afford_rel
    # (B, 3), l_style (B, S) one-hot, obj_bb (B, 1)
    s_r = property(lambda self: self.trunk_in[:, :7])
    s_o = property(lambda self: self.trunk_in[:, 7 : _POOLED.start])
    p_afford_rel = property(lambda self: self.trunk_in[:, _POOLED.stop : _POOLED.stop + 3])
    l_style = property(lambda self: self.trunk_in[:, _POOLED.stop + 3 : -1])
    obj_bb = property(lambda self: self.trunk_in[:, -1:])

    @classmethod
    def build(cls, s_r, s_o, p_afford_rel, l_style, obj_bb, cloud_index, clouds) -> "ObsBatch":
        """The batch of those row fields (p_afford_rel: the affordance
        point relative to the centroid, / obj_bb) and that cloud table."""
        blank = np.zeros((len(s_r), CLOUD_FEAT_DIM))
        return cls(np.concatenate([s_r, s_o, blank, p_afford_rel, l_style, obj_bb], axis=1), cloud_index, clouds)

    @property
    def size(self) -> int:
        return self.trunk_in.shape[0]

    def __getitem__(self, sel) -> "ObsBatch":
        """The rows `sel` (an index array or a slice) picks, over the
        table entries those rows use, in ascending order as np.unique
        lists them: a bincount over the U entries finds them."""
        index = self.cloud_index[sel]
        used = np.bincount(index, minlength=len(self.clouds)) > 0
        return ObsBatch(self.trunk_in[sel], (np.cumsum(used) - 1)[index], self.clouds[used])


def encode_observation(
    objs: list[ObjectModel],
    pose_t: np.ndarray,
    pose_r: np.ndarray,
    p_afford: np.ndarray,
    style_index,
    demo,
    styles: list[Style],
    m_points: int,
    fps_seed: int,
    cloud_cache: dict,
) -> ObsBatch:
    """Deterministic observation encoding of E episodes: one batch, row i
    for the episode on objs[i] at object pose (pose_t[i], pose_r[i]),
    with affordance point p_afford[i] (object frame) and conditioned
    style style_index[i].

    An object's cloud is FPS-subsampled, centered on the centroid and
    scaled by 1/obj_bb, so the encoding is invariant to uniform object
    scaling. It is encoded once per (object, M, FPS seed) into
    cloud_cache as a read-only array, and the table holds each distinct
    object's cached cloud once, first seen first. s_r is the would-be
    initial end-effector pose of the unedited replay, the object pose
    composed with the demo's frame 0 by compose_pose_rows. Every row
    expression is element-wise or renormalizes its own quaternion, so
    each row has the bits it gets in a batch of one. Nothing is checked here:
    observation_checks names the rows with non-finite fields.
    """
    entry_of: dict[str, int] = {}
    clouds = []
    for obj in objs:
        if obj.name in entry_of:
            continue
        entry_of[obj.name] = len(clouds)
        key = (obj.name, m_points, fps_seed)
        if key not in cloud_cache:
            idx = farthest_point_sample(obj.points, m_points, fps_seed)
            cloud = np.concatenate([(obj.points[idx] - obj.centroid) * (1.0 / obj.obj_bb), obj.normals[idx]], axis=1)
            cloud.flags.writeable = False
            cloud_cache[key] = cloud
        clouds.append(cloud_cache[key])
    ee0_t, ee0_r = compose_pose_rows(pose_t, pose_r, demo.pose_t[0], demo.pose_r[0])
    centroid = np.stack([obj.centroid for obj in objs])
    obj_bb = np.array([[obj.obj_bb] for obj in objs], dtype=float)
    return ObsBatch.build(
        s_r=np.concatenate([ee0_t, ee0_r], axis=1),
        s_o=np.concatenate([pose_t, pose_r], axis=1),
        p_afford_rel=(p_afford - centroid) * (1.0 / obj_bb),
        l_style=np.eye(len(styles))[list(style_index)],
        obj_bb=obj_bb,
        cloud_index=np.array([entry_of[obj.name] for obj in objs], dtype=np.intp),
        clouds=np.stack(clouds),
    )


def observation_checks(batch: ObsBatch) -> list[tuple[str, np.ndarray]]:
    """(message, (B,) bool ok) of each observation check, in the order a
    batch of one meets them: the row's cloud entry, s_r, s_o,
    p_afford_rel and l_style must be finite."""
    clouds_ok = np.isfinite(batch.clouds).all(axis=(1, 2))[batch.cloud_index]
    return [("non-finite observation field clouds", clouds_ok)] + [
        (f"non-finite observation field {name}", np.isfinite(getattr(batch, name)).all(axis=1))
        for name in ("s_r", "s_o", "p_afford_rel", "l_style")
    ]


def activation_checks(mean: np.ndarray, value: np.ndarray, cache: ForwardCache) -> list[tuple[str, np.ndarray]]:
    """(message, (B,) bool ok) of each activation check of a forward
    pass, in order: each row's pooled cloud feature (a NaN or inf in
    the point branch's output reaches its column's max), the actor trunk,
    the action head and the value head must be finite."""
    feat, trunk = cache.actor[0][0], cache.actor[0][-1]
    return [
        ("non-finite activations in point_branch", np.isfinite(feat[:, _POOLED]).all(axis=1)),
        ("non-finite activations in actor_trunk", np.isfinite(trunk).all(axis=1)),
        ("non-finite activations in action_head", np.isfinite(mean).all(axis=1)),
        ("non-finite activations in value_head", np.isfinite(value)),
    ]


def row_errors(checks: list[tuple[str, np.ndarray]], size: int) -> list[str | None]:
    """Per row of `size`, the message of the first of `checks` the row
    fails, or None when it passes them all."""
    errors = np.full(size, None, dtype=object)
    for message, ok in reversed(checks):
        errors[~ok] = message
    return errors.tolist()


def random_obs(rng: np.random.Generator, size: int, m_points: int, style_count: int) -> ObsBatch:
    """`size` random observations over `size` distinct random clouds, the
    batch the gradient gate probes. Each row draws, in order, its style,
    s_r, s_o, cloud, p_afford_rel and obj_bb."""
    draws = []
    for _ in range(size):
        style = rng.integers(style_count)
        draws.append(dict(
            s_r=rng.normal(size=7), s_o=rng.normal(size=7), clouds=rng.normal(size=(m_points, 6)),
            p_afford_rel=rng.normal(size=3), l_style=np.eye(style_count)[style],
            obj_bb=rng.uniform(0.05, 0.3, size=1),
        ))
    return ObsBatch.build(**{name: np.stack([d[name] for d in draws]) for name in draws[0]},
                          cloud_index=np.arange(size))


def param_shapes(style_count: int, joint_count: int) -> dict[str, tuple]:
    """The layout of PolicyParams.flat: every learnable array's shape,
    in the order the arrays are stored. The trunks read s_r, s_o, the
    pooled cloud feature, p_afford_rel, the style one-hot and obj_bb."""
    d = 7 + 7 + CLOUD_FEAT_DIM + 3 + style_count + 1
    a_dim = 7 + joint_count
    return {
        "pb_w1": (POINT_FEATURES, 32), "pb_b1": (32,),
        "pb_w2": (32, CLOUD_FEAT_DIM), "pb_b2": (CLOUD_FEAT_DIM,),
        "a_w1": (d, 128), "a_b1": (128,), "a_w2": (128, 128), "a_b2": (128,),
        "mean_w": (128, a_dim), "mean_b": (a_dim,), "log_std": (a_dim,),
        "v_w1": (d, 128), "v_b1": (128,), "v_w2": (128, 64), "v_b2": (64,),
        "v_w3": (64, 1), "v_b3": (1,),
    }


def param_views(flat: np.ndarray, style_count: int, joint_count: int) -> dict[str, np.ndarray]:
    """Every array of the param_shapes layout, by name, as a view into
    the vector flat (read-only when flat is). Raises PolicyError when
    flat is not a vector of the layout's size."""
    shapes = param_shapes(style_count, joint_count)
    sizes = [math.prod(shape) for shape in shapes.values()]
    if flat.shape != (sum(sizes),):
        raise PolicyError(f"parameter vector has shape {flat.shape}, the layout needs ({sum(sizes)},)")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """All learnable parameters as one float64 vector, plus the counts
    that fix its layout; each named array (params.a_w1, ...) is a
    read-only view into flat."""

    flat: np.ndarray
    m_points: int
    style_count: int
    joint_count: int

    def __post_init__(self):
        flat = np.ascontiguousarray(self.flat, dtype=float).view()
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)
        self.__dict__.update(param_views(flat, self.style_count, self.joint_count))

    def __reduce__(self):
        # numpy pickles every view as its own copy, so only flat goes in
        return PolicyParams, (self.flat, self.m_points, self.style_count, self.joint_count)

    @property
    def action_dim(self) -> int:
        return 7 + self.joint_count


def _orthogonal(rng: np.random.Generator, shape, gain: float) -> np.ndarray:
    a = rng.standard_normal(shape)
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    w = u if u.shape == shape else vt
    return gain * w


def init_params(
    rng: np.random.Generator,
    m_points: int,
    style_count: int,
    joint_count: int,
    init_log_std: float = -0.5,
) -> PolicyParams:
    """Orthogonal weights (drawn in layout order), zero biases; output
    heads scaled down so the initial policy squashes to (almost) the
    identity edit."""
    heads = {stack[-1][0] for stack in (ACTOR, VALUE)}
    parts = []
    for name, shape in param_shapes(style_count, joint_count).items():
        if name == "log_std":
            part = np.full(shape, float(init_log_std))
        elif len(shape) == 2:
            gain = HEAD_SCALE if name in heads else np.sqrt(2.0)
            part = _orthogonal(rng, shape, gain)
        else:
            part = np.zeros(shape)
        parts.append(part.ravel())
    return PolicyParams(np.concatenate(parts), m_points, style_count, joint_count)


@dataclass
class ForwardCache:
    """The batch, and each stack's (inputs, pre-activations) as _stack
    returns them."""

    batch: ObsBatch
    point: tuple[list, list]
    actor: tuple[list, list]
    value: tuple[list, list]


def _stack(params: PolicyParams, layers, x: np.ndarray, row_alone: bool, head: bool):
    """(inputs, pre-activations) of the dense layers of a stack table
    run on x: inputs[k] is layer k's input, x or the ReLU of layer k - 1.
    A head's last layer has no ReLU; a stack that is no head also ends
    its inputs with its last layer's ReLU, the stack's output. Each
    pre-activation is its product, into which the bias is added in place."""
    xs, zs = [x], []
    for w, b in layers:
        if zs:
            x = np.maximum(zs[-1], 0.0)
            xs.append(x)
        weight = getattr(params, w)
        # row-alone: one stacked (1, D) @ (D, H) product per row, which
        # numpy runs as one gemv each, the bits of a batch of one
        z = (x[:, None, :] @ weight)[:, 0] if row_alone else x @ weight
        z += getattr(params, b)
        zs.append(z)
    if not head:
        xs.append(np.maximum(zs[-1], 0.0))
    return xs, zs


def _stack_backward(params: PolicyParams, layers, xs: list, zs: list, d: np.ndarray, g: dict) -> np.ndarray:
    """Write each layer's slots in g (its views, with out=) from d, the
    gradient at the output of the stack whose _stack pass gave (xs, zs),
    and return the gradient at its first pre-activation. A layer's ReLU
    was taken when the layer has a successor in xs. The point branch's
    (U, M, k) arrays take each weight gradient as one product over the
    U*M points."""
    for k in reversed(range(len(layers))):
        w, b = layers[k]
        if k + 1 < len(xs):
            d = d * (zs[k] > 0.0)
        np.matmul(xs[k].reshape(-1, xs[k].shape[-1]).T, d.reshape(-1, d.shape[-1]), out=g[w])
        np.sum(d, axis=tuple(range(d.ndim - 1)), out=g[b])
        if k:
            d = d @ getattr(params, w).T
    return d


def policy_forward(params: PolicyParams, batch: ObsBatch, check: bool = True, *, row_alone: bool = False):
    """Batched forward pass.

    Returns (mean (B, A), log_std (A,), value (B,), cache). The point
    branch runs once per entry of the cloud table, and each row takes
    its entry's pooled feature into the pooled block of its copy of the
    batch's trunk_in row; every output row has the bits it would
    have with the branch run on the row's own copy of its cloud. The max
    pool over points makes the cloud branch permutation-invariant; the
    backward pass routes a pooling tie to the lowest point index (argmax
    convention).

    With row_alone every trunk and head product is taken row by row, so
    each output row has the bits of the batch of one of its row (see the
    module docstring); without it they are gemm products, which the
    update uses. check raises the first activation_checks message any
    row fails; shape mismatches always raise.
    """
    if batch.clouds.shape[1] != params.m_points or batch.clouds.shape[2] != POINT_FEATURES:
        raise PolicyError(
            f"cloud shape {batch.clouds.shape[1:]} does not match params (M={params.m_points})"
        )
    if batch.l_style.shape[1] != params.style_count:
        raise PolicyError(
            f"style one-hot dim {batch.l_style.shape[1]} != S={params.style_count}"
        )
    point = _stack(params, POINT_BRANCH, batch.clouds, row_alone=False, head=False)   # (U, M, ·) arrays
    feat = batch.trunk_in.copy()
    feat[:, _POOLED] = point[0][-1].max(axis=1)[batch.cloud_index]
    cache = ForwardCache(
        batch, point, _stack(params, ACTOR, feat, row_alone, head=True), _stack(params, VALUE, feat, row_alone, head=True)
    )
    mean, value = cache.actor[1][-1], cache.value[1][-1][:, 0]
    log_std = np.clip(params.log_std, LOG_STD_MIN, LOG_STD_MAX)
    if check:
        for message, ok in activation_checks(mean, value, cache):
            if not ok.all():
                raise PolicyError(message)
    return mean, log_std, value, cache


def policy_backward(
    params: PolicyParams,
    cache: ForwardCache,
    d_mean: np.ndarray,
    d_value: np.ndarray,
    d_log_std: np.ndarray,
    out: dict[str, np.ndarray] | None = None,
) -> np.ndarray | None:
    """Exact reverse-mode gradients, summed over the batch, as one vector
    in the layout of params.flat: a new vector, which is returned, or,
    with out, the caller's vector whose param_views out holds (None is
    returned). Every slot of the vector is assigned, so a reused one
    needs no zeroing, and its views are built once by its owner.

    Upstream gradients are per-sample (B, A) / (B,); a duplicated batch
    row therefore contributes its gradient twice, and the rows that
    share a cloud add up their pooled-feature gradients before the point
    branch. d_log_std collects the direct terms (density
    sigma-derivatives, entropy bonus) and is masked by the [-5, 1]
    clamp.

    Every weight and bias gradient is written straight into its view of
    the vector. The pooled-feature gradient goes back through the
    winning point of each (cloud, channel), the first of tied ones as
    argmax picks, by one flat index into the point branch's output: one
    bincount sums each winner's rows from 0.0 in row order, the sums a
    zeroed per-cloud accumulation and its scatter give.
    """
    flat = None
    if out is None:
        flat = np.empty_like(params.flat)
        out = param_views(flat, params.style_count, params.joint_count)
    d_feat = _stack_backward(params, ACTOR, *cache.actor, d_mean, out) @ params.a_w1.T
    d_feat += _stack_backward(params, VALUE, *cache.value, d_value[:, None], out) @ params.v_w1.T
    pool_in = cache.point[0][-1]                                        # (U, M, C)
    u, m, c = pool_in.shape
    winner = np.argmax(pool_in, axis=1) * c + np.arange(c) + (np.arange(u) * (m * c))[:, None]
    d_out = np.bincount(winner[cache.batch.cloud_index].ravel(), weights=d_feat[:, _POOLED].ravel(),
                        minlength=pool_in.size).reshape(pool_in.shape)
    _stack_backward(params, POINT_BRANCH, *cache.point, d_out, out)
    inside = (params.log_std > LOG_STD_MIN) & (params.log_std < LOG_STD_MAX)
    out["log_std"][...] = d_log_std * inside
    return flat


# ---------------------------------------------------------------------------
# Squashing and log-probabilities
# ---------------------------------------------------------------------------

def _log1m_tanh2(u: np.ndarray) -> np.ndarray:
    # log(1 - tanh(u)^2) = 2 (log 2 - u - softplus(-2u)), stable for large |u|
    return 2.0 * (np.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))


def squash(raw, lo, hi) -> np.ndarray:
    """Map unbounded raw values into (lo, hi) via tanh."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return center + half * np.tanh(raw)


def gaussian_log_prob(mean, log_std, raw):
    """Sum log N(raw; mean, exp(log_std)) over the last axis.

    Also returns d/d mean and d/d log_std, which the PPO update consumes.
    """
    mean = np.asarray(mean, dtype=float)
    raw = np.asarray(raw, dtype=float)
    inv_var = np.exp(-2.0 * log_std)
    diff = raw - mean
    logp = np.sum(
        -0.5 * diff**2 * inv_var - log_std - 0.5 * np.log(2.0 * np.pi), axis=-1
    )
    d_mean = diff * inv_var
    d_log_std = diff**2 * inv_var - 1.0
    return logp, d_mean, d_log_std


def squash_correction(raw, lo, hi) -> np.ndarray:
    """Sum over action dims of log |d action / d raw| (the tanh Jacobian)."""
    half = 0.5 * (hi - lo)
    return np.sum(np.log(half) + _log1m_tanh2(np.asarray(raw, dtype=float)), axis=-1)


def sample_action(
    mean: np.ndarray,
    log_std: np.ndarray,
    bounds: EditBounds,
    joint_count: int,
    noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(raw (B, A), action (B, A), log_prob (B,)): raw = mean +
    exp(log_std) * noise for B rows of standard-normal noise, the action
    is raw squashed into bounds, and the log-prob includes the tanh
    Jacobian correction. Element-wise with per-row sums, so a row has the
    bits it gets alone."""
    lo, hi = bounds.intervals(joint_count)
    raw = mean + np.exp(log_std) * noise
    logp, _, _ = log_prob_of_raw(mean, log_std, raw, squash_correction(raw, lo, hi))
    return raw, squash(raw, lo, hi), logp


def log_prob_of_raw(mean, log_std, raw, correction: np.ndarray):
    """Log-prob (with Jacobian) of stored raw samples; batched.
    correction is each row's squash_correction of raw, which no
    parameter moves, so a caller takes it once per sample.

    Returns (logp, d_mean, d_log_std); the Jacobian term is constant in
    the parameters, so the gradients are those of the Gaussian density.
    """
    logp, d_mean, d_log_std = gaussian_log_prob(mean, log_std, raw)
    return logp - correction, d_mean, d_log_std


def entropy(log_std: np.ndarray) -> float:
    """Entropy of the raw diagonal Gaussian (pre-squash)."""
    a = log_std.shape[0]
    return float(np.sum(log_std) + 0.5 * a * np.log(2.0 * np.pi * np.e))
