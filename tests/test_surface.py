"""The documented public surface and the experiment scripts stay usable."""

import importlib
import os
import re
import subprocess
import sys
import types
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


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from tanglegcd import *", namespace)
    assert [name for name in tanglegcd.__all__ if name not in namespace] == []


def test_dir_lists_every_exported_name_and_module():
    assert set(tanglegcd.__all__) | set(tanglegcd._EXPORTS) <= set(dir(tanglegcd))


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'tanglegcd' has no attribute 'no_such'"):
        tanglegcd.no_such
    with pytest.raises(ImportError):
        exec("from tanglegcd import no_such", {})


def test_each_name_comes_from_the_module_its_table_entry_names():
    for name in tanglegcd.__all__:
        module = importlib.import_module(f"tanglegcd.{tanglegcd._OWNERS[name]}")
        value = getattr(tanglegcd, name)
        assert getattr(module, name) is value, name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, name


def test_modules_resolve_as_attributes_after_a_bare_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tanglegcd; "
         "print(tanglegcd.euclid.run_lar is tanglegcd.run_lar, tanglegcd.tangles.__name__)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True tanglegcd.tangles\n"


SCRIPT_ARGUMENTS = {
    "step_survey.py": ["--max", "6"],
    "rotation_economy.py": ["--max", "6"],
    "move_distance.py": ["--radius", "8"],
    "source_lines.py": [],
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
