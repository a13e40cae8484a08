"""The benchmark's workloads run on this tree.

``perfbench/workloads.py`` reaches into cara: ``scene.graph.edges`` and
``.ground_truth``, ``cli.cao_solve``, ``stream.solve_file_streaming`` and
more. Each workload is set up, prepared and run once here, unedited, so a
change that breaks one of those reach-ins fails this test rather than the
benchmark run.
"""
import importlib
import sys
from pathlib import Path
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

with mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
    workloads = importlib.import_module("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(tmp_path, name):
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    wl.setup()
    wl.prepare()
    res = wl.op()
    assert res.problems == []
    assert wl.edges > 0 and res.fingerprint
