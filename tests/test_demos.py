import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))

# scipy made unimportable: the demos need numpy alone
RUN = ("import runpy, sys; sys.modules['scipy'] = None; "
       "runpy.run_path(sys.argv[1], run_name='__main__')")


def test_the_demos_are_found():
    assert DEMOS  # an empty glob would parametrize no test below


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_without_scipy(name):
    """Each demo runs to its end in a fresh process, with a RuntimeWarning (an
    invalid cast, an overflow) an error, as the tests run the library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", RUN, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
