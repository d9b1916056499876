"""One cycle of every benchmark workload at the tiny scale, in-process.

The benchmark under ``perfbench/`` calls the library through its public
names; this runs each workload's set-up and every part of one cycle,
with its output check, so an API change that breaks those calls fails
here and not only in a benchmark run.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_cycle_passes_its_checks(name):
    wl = WORKLOADS[name](7, "tiny")
    wl.setup()
    for k, spec in enumerate(wl.cycle()):
        for i, part in enumerate(wl.parts(spec)):
            res = wl.check(k, i, part, wl.run(k, i, part))
            assert res.ok, f"{wl.label(part)}: {res.problem}"
