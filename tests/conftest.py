import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from fungrasp.assets import default_demo_path, default_hand_path, default_styles_path
from fungrasp.demo import load_demo
from fungrasp.geometry import axis_angle_to_quat
from fungrasp.hand import load_hand_spec, load_styles
from fungrasp.policy import ObsBatch, param_views
from fungrasp.sim import EnvBatch
from fungrasp.training import Assets, load_objects
from pose_reference import IDENTITY, pose


@pytest.fixture(scope="session")
def spec():
    return load_hand_spec(default_hand_path())


@pytest.fixture(scope="session")
def styles(spec):
    return load_styles(default_styles_path(), spec)


@pytest.fixture(scope="session")
def demo(spec):
    return load_demo(default_demo_path(), spec)


@pytest.fixture(scope="session")
def shadow_spec():
    return load_hand_spec(default_hand_path("shadow_like"))


@pytest.fixture(scope="session")
def objects():
    """The bundled objects, as every run loads them, by name."""
    return {o.name: o for o in load_objects(None)}


@pytest.fixture(scope="session")
def assets(spec, styles, demo, objects):
    return Assets.build(spec, styles, demo, list(objects.values()))


@pytest.fixture(scope="session")
def box_assets(spec, styles, demo, objects):
    """Single-object asset bundle where identity replay always succeeds."""
    return Assets.build(spec, styles, demo, [objects["box"]])


MAKE_ASSETS = Path(__file__).resolve().parents[1] / "scripts" / "make_assets.py"


def _load_script():
    """scripts/make_assets.py, imported by path: the asset builders and
    writers, which the package does not hold."""
    spec = importlib.util.spec_from_file_location("make_assets", MAKE_ASSETS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_pose(rng):
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform(0, 3.0)
    return pose(rng.normal(size=3), axis_angle_to_quat(v))


def unit_quaternions():
    """Hypothesis strategy: unit quaternions, normalized from 4-vectors of
    norm at least 0.1, so every rotation (and both signs) can come up."""
    vecs = st.tuples(*[st.floats(-1.0, 1.0)] * 4).map(np.array).filter(lambda q: np.linalg.norm(q) >= 0.1)
    return vecs.map(lambda q: q / np.linalg.norm(q))


def poses():
    """Hypothesis strategy: rigid (t, r) poses with translations within 2 m."""
    return st.builds(pose, st.tuples(*[st.floats(-2.0, 2.0)] * 3), unit_quaternions())


def env_of(obj, p_afford, q_style, mask, style=0, pose=None):
    """An EnvBatch of one: obj at the (t, r) pose (the identity by
    default), its affordance point p_afford (object frame), conditioned
    on style with joints q_style and the (F,) bool contact mask."""
    t, r = pose or IDENTITY
    return EnvBatch([obj], t[None], r[None], np.asarray(p_afford, dtype=float)[None], np.array([style]),
                    np.asarray(q_style, dtype=float)[None], np.asarray(mask, dtype=bool)[None])


def concat_envs(envs):
    """The rows of a list of EnvBatches, in order, as one batch."""
    columns = [f.name for f in dataclasses.fields(EnvBatch)[1:]]
    return EnvBatch([obj for env in envs for obj in env.objs],
                    *(np.concatenate([getattr(env, name) for env in envs]) for name in columns))


def with_arrays(params, **arrays):
    """A copy of params with the named arrays replaced, written through
    the flat layout."""
    flat = params.flat.copy()
    views = param_views(flat, params.style_count, params.joint_count)
    for name, value in arrays.items():
        views[name][...] = value
    return dataclasses.replace(params, flat=flat)


def with_fields(obs, **fields):
    """A copy of the ObsBatch obs with the named row fields replaced."""
    rows = {name: fields.get(name, getattr(obs, name)) for name in ("s_r", "s_o", "p_afford_rel", "l_style", "obj_bb")}
    return ObsBatch.build(**rows, cloud_index=obs.cloud_index, clouds=obs.clouds)


def poison_cloud_of(encode, episode):
    """A wrapper of encode_observation that gives the row of `episode`
    (an EpisodeResult, found by its object position) a cloud entry of its own
    with one NaN in it: that episode alone errors, with the message a
    non-finite cloud gets."""

    def poisoned(objs, pose_t, *args):
        obs = encode(objs, pose_t, *args)
        for k, t in enumerate(pose_t):
            if np.array_equal(t, episode.pose_t):
                bad = obs.clouds[obs.cloud_index[k]].copy()
                bad[0, 0] = np.nan
                index = obs.cloud_index.copy()
                index[k] = len(obs.clouds)
                obs = dataclasses.replace(obs, clouds=np.concatenate([obs.clouds, bad[None]]), cloud_index=index)
        return obs

    return poisoned


def bits(x):
    """x as comparable bytes, through dataclasses, lists and floats."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (float, np.floating)):
        return np.float64(x).tobytes()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple((f.name, bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    return x


def assert_same_results(got, want):
    """Every field of each result, its record's included, by bits."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(w):
            assert bits(getattr(g, f.name)) == bits(getattr(w, f.name)), (w.index, f.name)


def assert_same_typed_results(got, want):
    """assert_same_results, and every field of each result and of its
    record of the same type."""
    assert_same_results(got, want)
    for g, w in zip(got, want):
        for a, b in ((g, w), (g.record, w.record)) if w.record is not None else ((g, w),):
            for f in dataclasses.fields(b):
                assert type(getattr(a, f.name)) is type(getattr(b, f.name)), (w.index, f.name)
