"""Every benchmark command line still parses.

Imports ``bench/workloads.py`` as ``bench/selfcheck.py`` does, runs each
workload's set-up commands through ``cli.main`` in a temporary directory,
builds its job list with ``random.Random(0)`` and parses every job's argv
with ``cli.build_parser()``.  A removed or renamed flag that a benchmark job
uses therefore fails here and not only in a benchmark run.  Nothing under
``bench/`` is written.
"""

import importlib
import random
from pathlib import Path

import pytest

from thuelex import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["certify", "solve", "words"])
def test_job_argv_parses(workloads, name, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    for argv in workload.setup:
        assert cli.main(list(argv)) == 0, argv
    jobs = workload.jobs(tmp_path, random.Random(0))
    assert jobs
    parser = cli.build_parser()
    for job in jobs:
        try:
            parser.parse_args(list(job.argv))
        except SystemExit:
            pytest.fail(f"benchmark job {job.name} does not parse: {job.argv}")
