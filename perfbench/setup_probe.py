"""One fresh-process set-up of a workload: import fungrasp, load the
hand's assets, start the EpisodePool and run one episode per worker.

Prints `ready` when the pool can run episodes, then shuts the pool down.
run.py times it from process start to that line.

    python3 perfbench/setup_probe.py <workload> [--tiny]
"""

import sys

import _paths


def main(argv):
    fg = _paths.import_fungrasp()
    from workloads import POLICY_SEED, WORKLOADS, Session

    wl = WORKLOADS[argv[0]]
    with Session(fg, wl, tiny="--tiny" in argv) as s:
        params = s.init_params(POLICY_SEED)
        fg.evaluation.evaluate(params, s.config(POLICY_SEED), s.assets, wl.workers, seed=0, pool=s.pool)
        print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
