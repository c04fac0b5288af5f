"""The benchmark's golden check, run in process.

perfbench/run.py checks each workload's first steps at a fixed seed
against perfbench/golden.json before it times anything. Running that
check here makes a change to the program that moves a recorded value,
or that breaks a call the benchmark makes, fail the tests, not only a
benchmark run. Loading the training snapshots writes only under the
ignored perfbench/out/.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import _paths  # noqa: E402
from run import GOLDEN, check_golden  # noqa: E402
from workloads import WORKLOADS, Session  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_steps_reproduce(name):
    workload = WORKLOADS[name]
    golden = json.loads(GOLDEN.read_text())["full"][workload.golden]
    errors = []
    with Session(_paths.import_fungrasp(), workload) as session:
        check_golden(session, golden, errors)
    assert errors == []
