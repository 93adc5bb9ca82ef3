"""Each demo script runs to completion in a fresh process."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import listalign

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # A copy of the script runs, so a demo writing next to itself writes under
    # tmp_path; the child imports the same package this process imported.
    script = tmp_path / "demos" / demo.name
    script.parent.mkdir()
    shutil.copyfile(demo, script)
    work = tmp_path / "work"
    work.mkdir()
    package_root = str(Path(listalign.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, cwd=work, env=env)
    assert proc.returncode == 0, proc.stderr
    assert list(work.iterdir()) == []
