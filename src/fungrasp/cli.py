"""Command-line entry point.

Each subcommand takes --config and the settings its handler reads:

  train, ablate       --seed --workers --objects --demo --hand --styles --out
  eval, collect       the same and --checkpoint --episodes
  sample-affordance   --seed --objects
  demo inspect        --hand --demo
  check-gradients     --seed

A setting's value is its flag, else its config-file key, else its
default. One config file may serve every subcommand, so it may hold
settings a subcommand ignores; a flag the subcommand does not take is a
usage error. All randomness flows from --seed via seed-splitting, so
repeated invocations reproduce outputs byte for byte. FUNGRASP_LOG sets
verbosity.

Exit codes: 0 success, 1 user error, 2 internal error. A user error is
an input the user gave that the run rejects, with a message that names
it: a flag, a config key, a file or a field of one, or a path that
cannot be read or written; a failed gradient gate exits 1 too. Any
other exception is an internal error, a fault of the program, and is
logged with its traceback.
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
from .assets import UserError
from .dataio import default_cameras, export_rollouts, load_checkpoint
from .demo import load_demo
from .evaluation import ABLATION_COMPONENTS, ablation_run, evaluate, write_episode_rows, write_report
from .hand import load_hand_spec
from .objects import affordance_distribution, sample_affordance_index
from .policy import init_params, random_obs
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

USER_ERRORS = (UserError, OSError)

GRADIENT_GATE = 1e-4

# every setting a flag or a top-level config key can give: its type and help
SETTINGS = {
    "seed": (int, "master seed, >= 0 (required)"),
    "workers": (int, "episode workers; 1 and N give identical outputs"),
    "objects": (str, "directory of .ply objects (default: bundled)"),
    "demo": (str, "demonstration JSON (default: bundled)"),
    "hand": (str, "hand spec JSON (default: bundled)"),
    "styles": (str, "styles JSON (default: bundled)"),
    "out": (str, "output directory (default: runs/out)"),
    "checkpoint": (str, "policy checkpoint JSON (required)"),
    "episodes": (int, "number of evaluation episodes (default: 200)"),
}
# the config file's keys: the settings and the "train" section, which
# config_from_dict checks
CONFIG_KEYS = (*SETTINGS, "train")
# the settings train and ablate read; eval and collect read these too
RUN_SETTINGS = ("seed", "workers", "objects", "demo", "hand", "styles", "out")
BUNDLED_FILES = {
    "hand": bundled.default_hand_path, "styles": bundled.default_styles_path, "demo": bundled.default_demo_path,
}


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
    cfg = bundled.read_json_object(p)
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise UserError(f"unknown config key(s) in {p}: {', '.join(map(repr, unknown))}; known: {', '.join(CONFIG_KEYS)}")
    for key, (want, _) in SETTINGS.items():
        where = f"{p}: config '{key}'"
        if key in cfg and want is int:
            bundled.json_number(cfg[key], where, integer=True)
        elif key in cfg and not isinstance(cfg[key], str):
            raise UserError(f"{where}: must be a string, got {cfg[key]!r}")
    return cfg


def _merge_config(args) -> None:
    """Fill each setting the subcommand takes and its flags left unset
    from the config file, and keep the file's train section."""
    cfg_file = _load_config_file(args.config)
    for name in SETTINGS.keys() & vars(args).keys():
        if getattr(args, name) is None:
            setattr(args, name, cfg_file.get(name))
    args.train = cfg_file.get("train", {})


def _require_seed(args) -> int:
    if args.seed is None:
        raise UserError("a --seed (or config 'seed') is required for this subcommand")
    if args.seed < 0:
        raise UserError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _asset_file(args, name: str):
    """The hand, styles or demo file: the setting, else (unset or empty)
    the bundled one. It must exist."""
    path = getattr(args, name) or BUNDLED_FILES[name]()
    if not Path(path).exists():
        raise FileNotFoundError(f"asset file not found: {path}")
    return path


def _objects_dir(args):
    """The objects directory, which must exist; None for the bundled
    objects."""
    if args.objects is not None and not Path(args.objects).is_dir():
        raise NotADirectoryError(f"objects directory not found: {args.objects}")
    return args.objects


def _run_setup(args) -> tuple[TrainConfig, Assets, Path]:
    """What train, ablate, eval and collect share: the train config, the
    assets and the output directory (runs/out if unset), made if
    missing. The train section may not hold seed or workers: TrainConfig
    has both fields, but only the top-level settings set them."""
    for key in ("seed", "workers"):
        if isinstance(args.train, dict) and key in args.train:
            raise UserError(f"config 'train.{key}': not a train setting; set the top-level config '{key}' or --{key}")
    seed = _require_seed(args)
    cfg = config_from_dict(args.train)
    cfg = replace(cfg, seed=seed, workers=cfg.workers if args.workers is None else args.workers)
    files = [_asset_file(args, name) for name in ("hand", "styles", "demo")]
    assets = load_assets(*files, _objects_dir(args))
    out = Path("runs/out" if args.out is None else args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError:        # exist_ok: the path exists and is no directory
        raise NotADirectoryError(f"output path exists and is not a directory: {out}") from None
    return cfg, assets, out


def cmd_train(args) -> int:
    cfg, assets, out = _run_setup(args)
    result = train(cfg, assets, out)
    print(json.dumps({"metrics": str(result["metrics_path"]), "checkpoint": str(result["checkpoint_path"])}))
    return 0


def _checkpoint_run(args):
    """What eval and collect share: the _run_setup, the checkpoint's
    params (checked against the hand and the config) and the episode
    count (200 if unset)."""
    cfg, assets, out = _run_setup(args)
    if args.checkpoint is None:
        raise UserError(f"{args.command} needs --checkpoint (or config 'checkpoint')")
    params, _ = load_checkpoint(
        args.checkpoint, expect_hand=assets.spec.name, expect_style_count=len(assets.styles),
        expect_m_points=cfg.m_points, expect_joint_count=assets.spec.joint_count,
    )
    return cfg, assets, out, params, 200 if args.episodes is None else args.episodes


def cmd_eval(args) -> int:
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
    cfg, assets, out = _run_setup(args)
    result = ablation_run(cfg, args.component, assets, out)
    payload = {
        "component": args.component,
        "full": result.full.as_dict(),
        "ablated": result.ablated.as_dict(),
        "deltas": result.deltas(),
    }
    (out / f"ablation_{args.component}.json").write_text(json.dumps(payload, indent=1))
    print(json.dumps(payload))
    return 0


def cmd_collect(args) -> int:
    cfg, assets, out, params, n = _checkpoint_run(args)
    _, results = evaluate(params, cfg, assets, n, seed=cfg.seed)
    manifest = export_rollouts(
        results, default_cameras(), out / "rollouts.jsonl", assets.demo, assets.spec,
        success_only=bool(args.success_only), config=asdict(cfg),
    )
    print(json.dumps(manifest))
    return 0


def cmd_sample_affordance(args) -> int:
    seed = _require_seed(args)
    objs = {o.name: o for o in load_objects(_objects_dir(args))}
    name = args.object or sorted(objs)[0]
    if name not in objs:
        raise UserError(f"object {name!r} not found; have {sorted(objs)}")
    obj = objs[name]
    idx = sample_affordance_index(affordance_distribution(obj), episode_rng(seed, 42).random(1))[0]
    print(json.dumps({
        "object": name,
        "seed": seed,
        "point": [float(v) for v in obj.points[idx]],
        "index": int(idx),
    }))
    return 0


def cmd_demo_inspect(args) -> int:
    hand, demo_path = _asset_file(args, "hand"), _asset_file(args, "demo")
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
    seed = _require_seed(args)
    if args.params < 1:
        raise UserError(f"--params must be >= 1, got {args.params}")
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

    def command(parent, name, func, settings, summary):
        p = parent.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON run config; flags override it")
        for key in settings:
            kind, text = SETTINGS[key]
            p.add_argument(f"--{key}", type=kind, help=text)
        p.set_defaults(func=func)
        return p

    checkpoint_run = (*RUN_SETTINGS, "checkpoint", "episodes")
    command(sub, "train", cmd_train, RUN_SETTINGS, "train a policy with one-step PPO")

    p = command(sub, "eval", cmd_eval, checkpoint_run, "evaluate a checkpoint (GSR/SAD/SD/SA)")
    p.add_argument("--exhaustive-styles", action="store_true",
                   help="replay every style per episode, keep the best")
    p.add_argument("--strict-success", action="store_true",
                   help="success also needs affordance distance < 4 cm and a style match")

    p = command(sub, "ablate", cmd_ablate, RUN_SETTINGS, "train full vs ablated models and compare")
    p.add_argument("--component", required=True, choices=ABLATION_COMPONENTS, help="the component to switch off")

    p = command(sub, "collect", cmd_collect, checkpoint_run, "export rollouts for imitation learning")
    p.add_argument("--success-only", action="store_true", help="export only successful episodes")

    p = command(sub, "sample-affordance", cmd_sample_affordance, ("seed", "objects"),
                "draw one affordance point from an object")
    p.add_argument("--object", help="object name (default: first in the set)")

    p = sub.add_parser("demo", help="demonstration utilities")
    demo_sub = p.add_subparsers(dest="demo_command", metavar="SUBCOMMAND")
    command(demo_sub, "inspect", cmd_demo_inspect, ("hand", "demo"), "print demo summary statistics")

    p = command(sub, "check-gradients", cmd_check_gradients, ("seed",),
                "analytic vs finite-difference gradient gate")
    p.add_argument("--params", type=int, default=200, help="number of sampled parameters")

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
        _merge_config(args)
        return args.func(args)
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001
        log.exception("internal error")
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
