"""Command-line entry point.

Subcommands: train, eval, ablate, collect, sample-affordance,
demo inspect, check-gradients. Flags override config-file values; all
randomness flows from --seed via seed-splitting, so repeated invocations
reproduce outputs byte for byte. FUNGRASP_LOG sets verbosity.

Exit codes: 0 success, 1 user error (bad flags, missing files, failed
gate), 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import assets as bundled
from .dataio import CheckpointError, ExportError, default_cameras, export_rollouts, load_checkpoint
from .demo import DemoError, load_demo
from .hand import HandError, load_hand_spec
from .objects import ObjectError, affordance_distribution, sample_affordance_index
from .policy import PolicyError, init_params, random_obs
from .training import (
    Assets,
    TrainConfig,
    config_from_dict,
    episode_rng,
    finite_diff_check,
    load_assets,
    load_objects,
    train,
)

log = logging.getLogger(__name__)

USER_ERRORS = (
    FileNotFoundError,
    NotADirectoryError,
    HandError,
    DemoError,
    ObjectError,
    CheckpointError,
    ExportError,
    ValueError,
    KeyError,
)

GRADIENT_GATE = 1e-4

# top-level config-file keys: the flag-backed settings, with the type each
# must hold, and the "train" section, which config_from_dict checks
CONFIG_TYPES = {
    "seed": int, "workers": int, "objects": str, "demo": str, "hand": str,
    "styles": str, "out": str, "checkpoint": str, "episodes": int,
}
CONFIG_KEYS = (*CONFIG_TYPES, "train")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for internal faults
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _setup_logging():
    level = os.environ.get("FUNGRASP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    cfg = bundled.read_json_object(p, ValueError)
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) in {p}: {', '.join(map(repr, unknown))}; known: {', '.join(CONFIG_KEYS)}")
    for key, want in CONFIG_TYPES.items():
        # a JSON true/false is a Python bool, which is an int too
        if key in cfg and (not isinstance(cfg[key], want) or isinstance(cfg[key], bool)):
            raise ValueError(f"{p}: config '{key}' must be {want.__name__}, got {cfg[key]!r}")
    return cfg


def _resolve(args, cfg_file: dict, key: str, default=None):
    """Flags beat config file beats default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg_file:
        return cfg_file[key]
    return default


def _require_seed(args, cfg_file) -> int:
    seed = _resolve(args, cfg_file, "seed")
    if seed is None:
        raise ValueError("a --seed (or config 'seed') is required for this subcommand")
    return int(seed)


def _build_assets(args, cfg_file) -> Assets:
    hand = _resolve(args, cfg_file, "hand") or bundled.default_hand_path()
    styles = _resolve(args, cfg_file, "styles") or bundled.default_styles_path()
    demo = _resolve(args, cfg_file, "demo") or bundled.default_demo_path()
    objects = _resolve(args, cfg_file, "objects")
    for p in (hand, styles, demo):
        if not Path(p).exists():
            raise FileNotFoundError(f"asset file not found: {p}")
    if objects is not None and not Path(objects).is_dir():
        raise NotADirectoryError(f"objects directory not found: {objects}")
    return load_assets(hand, styles, demo, objects)


def _build_train_config(args, cfg_file) -> TrainConfig:
    seed = _require_seed(args, cfg_file)
    workers = _resolve(args, cfg_file, "workers")
    cfg = config_from_dict(cfg_file.get("train", {}))
    return replace(cfg, seed=seed, workers=cfg.workers if workers is None else int(workers))


def _run_setup(args) -> tuple[dict, TrainConfig, Assets, Path]:
    """What train, ablate, eval and collect share: the config file, the
    train config, the assets and the output directory (--out, else
    runs/out), made if missing."""
    cfg_file = _load_config_file(args.config)
    cfg = _build_train_config(args, cfg_file)
    assets = _build_assets(args, cfg_file)
    out = Path(_resolve(args, cfg_file, "out", "runs/out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError:        # exist_ok: the path exists and is no directory
        raise NotADirectoryError(f"output path exists and is not a directory: {out}") from None
    return cfg_file, cfg, assets, out


def cmd_train(args) -> int:
    _, cfg, assets, out = _run_setup(args)
    result = train(cfg, assets, out)
    print(json.dumps({"metrics": str(result["metrics_path"]), "checkpoint": str(result["checkpoint_path"])}))
    return 0


def _checkpoint_run(args):
    """What eval and collect share: the _run_setup, the checkpoint's
    params (checked against the hand and the config) and the episode
    count."""
    cfg_file, cfg, assets, out = _run_setup(args)
    ckpt = _resolve(args, cfg_file, "checkpoint")
    if ckpt is None:
        raise ValueError(f"{args.command} needs --checkpoint (or config 'checkpoint')")
    params, _ = load_checkpoint(
        ckpt, expect_hand=assets.spec.name, expect_style_count=len(assets.styles),
        expect_m_points=cfg.m_points, expect_joint_count=assets.spec.joint_count,
    )
    return cfg, assets, out, params, int(_resolve(args, cfg_file, "episodes", 200))


def cmd_eval(args) -> int:
    from .evaluation import evaluate, write_episode_rows, write_report

    cfg, assets, out, params, n = _checkpoint_run(args)
    metrics, results = evaluate(
        params, cfg, assets, n, seed=cfg.seed,
        strict=bool(args.strict_success), exhaustive_styles=bool(args.exhaustive_styles),
    )
    rows_path = out / "episodes.jsonl"
    write_episode_rows(results, rows_path)
    write_report(metrics, cfg, rows_path, out / "report.json", results)
    print(json.dumps(metrics.as_dict()))
    return 0


def cmd_ablate(args) -> int:
    from .evaluation import ABLATION_COMPONENTS, ablation_run

    component = args.component
    if component not in ABLATION_COMPONENTS:
        raise ValueError(f"unknown component {component!r}; pick from {ABLATION_COMPONENTS}")
    _, cfg, assets, out = _run_setup(args)
    result = ablation_run(cfg, component, assets, out)
    payload = {
        "component": component,
        "full": result.full.as_dict(),
        "ablated": result.ablated.as_dict(),
        "deltas": result.deltas(),
    }
    (out / f"ablation_{component}.json").write_text(json.dumps(payload, indent=1))
    print(json.dumps(payload))
    return 0


def cmd_collect(args) -> int:
    from .evaluation import evaluate

    cfg, assets, out, params, n = _checkpoint_run(args)
    _, results = evaluate(params, cfg, assets, n, seed=cfg.seed)
    manifest = export_rollouts(
        results, default_cameras(), out / "rollouts.jsonl", assets.demo, assets.spec,
        success_only=bool(args.success_only), config=asdict(cfg),
    )
    print(json.dumps(manifest))
    return 0


def cmd_sample_affordance(args) -> int:
    cfg_file = _load_config_file(args.config)
    seed = _require_seed(args, cfg_file)
    objs = {o.name: o for o in load_objects(_resolve(args, cfg_file, "objects"))}
    name = args.object or sorted(objs)[0]
    if name not in objs:
        raise ValueError(f"object {name!r} not found; have {sorted(objs)}")
    obj = objs[name]
    dist = affordance_distribution(obj)
    rng = episode_rng(seed, 42)
    idx = sample_affordance_index(dist, rng)
    print(json.dumps({
        "object": name,
        "seed": seed,
        "point": [float(v) for v in obj.points[idx]],
        "index": int(idx),
    }))
    return 0


def cmd_demo_inspect(args) -> int:
    cfg_file = _load_config_file(args.config)
    hand = _resolve(args, cfg_file, "hand") or bundled.default_hand_path()
    demo_path = _resolve(args, cfg_file, "demo") or bundled.default_demo_path()
    spec = load_hand_spec(hand)
    demo = load_demo(demo_path, spec)
    span = demo.joints.max(axis=0) - demo.joints.min(axis=0)
    ee_z = demo.pose_t[:, 2]
    print(json.dumps({
        "hand": spec.name,
        "T_D": demo.horizon,
        "T_l": demo.grasp_index,
        "J": demo.joint_count,
        "frames": demo.horizon + 1,
        "joint_excursion": [float(v) for v in span],
        "ee_z_range": [float(ee_z.min()), float(ee_z.max())],
        "q_at_grasp": [float(v) for v in demo.joints[demo.grasp_index]],
    }, indent=1))
    return 0


def cmd_check_gradients(args) -> int:
    cfg_file = _load_config_file(args.config)
    seed = _require_seed(args, cfg_file)
    if args.params < 1:
        raise ValueError(f"--params must be >= 1, got {args.params}")
    rng = episode_rng(seed, 7)
    m_points, style_count, joint_count = 16, 4, 6
    params = init_params(rng, m_points, style_count, joint_count)
    obs = random_obs(rng, 4, m_points, style_count)
    err = finite_diff_check(params, obs, rng, n_params=args.params)
    ok = err < GRADIENT_GATE
    print(json.dumps({"max_relative_error": err, "gate": GRADIENT_GATE, "pass": bool(ok)}))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fungrasp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p, checkpoint=False, episodes=False):
        p.add_argument("--config", help="JSON run config; flags override it")
        p.add_argument("--seed", type=int, help="master seed (required for train/eval/collect)")
        p.add_argument("--workers", type=int, help="episode workers; 1 and N give identical outputs")
        p.add_argument("--objects", help="directory of .ply objects (default: bundled toy suite)")
        p.add_argument("--demo", help="demonstration JSON (default: bundled)")
        p.add_argument("--hand", help="hand spec JSON (default: bundled)")
        p.add_argument("--styles", help="styles JSON (default: bundled)")
        p.add_argument("--out", help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", help="policy checkpoint JSON")
        if episodes:
            p.add_argument("--episodes", type=int, help="number of evaluation episodes")

    p = sub.add_parser("train", help="train a policy with one-step PPO")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint (GSR/SAD/SD/SA)")
    common(p, checkpoint=True, episodes=True)
    p.add_argument("--exhaustive-styles", action="store_true",
                   help="replay every style per episode, keep the best")
    p.add_argument("--strict-success", action="store_true",
                   help="success also needs affordance distance < 4 cm and a style match")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train full vs ablated models and compare")
    common(p)
    p.add_argument("--component", required=True,
                   help="one of: afford, clip, close, qpos, disturbance")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("collect", help="export rollouts for imitation learning")
    common(p, checkpoint=True, episodes=True)
    p.add_argument("--success-only", action="store_true", help="export only successful episodes")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("sample-affordance", help="draw one affordance point from an object")
    common(p)
    p.add_argument("--object", help="object name (default: first in the set)")
    p.set_defaults(func=cmd_sample_affordance)

    p = sub.add_parser("demo", help="demonstration utilities")
    demo_sub = p.add_subparsers(dest="demo_command", metavar="SUBCOMMAND")
    pi = demo_sub.add_parser("inspect", help="print demo summary statistics")
    common(pi)
    pi.set_defaults(func=cmd_demo_inspect)

    p = sub.add_parser("check-gradients", help="analytic vs finite-difference gradient gate")
    common(p)
    p.add_argument("--params", type=int, default=200, help="number of sampled parameters")
    p.set_defaults(func=cmd_check_gradients)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PolicyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001
        log.exception("internal error")
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
