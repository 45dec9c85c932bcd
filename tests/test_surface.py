"""The documented public surface and the experiment scripts stay usable."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tanglegcd

ROOT = Path(__file__).resolve().parents[1]


def readme_library_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^from tanglegcd import \((.*?)^\)", readme, re.M | re.S)
    assert block, "README has no `from tanglegcd import (...)` block"
    code = re.sub(r"#.*", "", block[1])
    return [name.strip() for name in code.split(",") if name.strip()]


def test_readme_library_names_are_exported():
    names = readme_library_names()
    assert names
    assert [name for name in names if name not in tanglegcd.__all__] == []


def test_every_exported_name_imports():
    assert [name for name in tanglegcd.__all__ if not hasattr(tanglegcd, name)] == []


SCRIPT_ARGUMENTS = {
    "step_survey.py": ["--max", "6"],
    "rotation_economy.py": ["--max", "6"],
    "move_distance.py": ["--radius", "8"],
}


@pytest.mark.parametrize("script", SCRIPT_ARGUMENTS)
def test_experiment_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPT_ARGUMENTS[script]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
