"""The benchmark's alias guard, run as part of the test suite.

The traced benchmark wraps tracealg functions by name and rebinds every
alias of them inside the package; a refactor that drops or re-tables one of
those functions must fail here, not only under ``bench/run.py --trace 1``.
The guard runs in a fresh interpreter: the test modules of this suite hold
their own aliases of tracealg functions, which it would rightly report.
"""

import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_rebinds_every_alias():
    code = "from checks import test_tracer_rebinds_every_alias as guard; guard()"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
