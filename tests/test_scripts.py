"""Every script in scripts/ runs to exit 0 on small inputs.

The scripts import private names of the package, such as classify._orbits
and oracle._closure, so a rename breaks them without any other
test noticing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

RUNS = [
    ["stage_timings.py", "--no-core-group", "E6", "D5"],
    ["stage_timings.py", "E6"],
    ["print_orbit_tables.py", "A3", "D4"],
    ["oracle_timings.py", "A3"],
    ["dump_enhanced_diagrams.py", "{tmp}"],
]


def test_every_script_is_run():
    assert {run[0] for run in RUNS} == {path.name for path in SCRIPTS.glob("*.py")}


@pytest.mark.parametrize("run", RUNS, ids=[" ".join(run).replace("{tmp}", "DIR") for run in RUNS])
def test_script_exits_0(run, tmp_path):
    script, *args = (arg.format(tmp=tmp_path) for arg in run)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr
