"""The README's Python example and the package it documents stay in step:
the example runs as written, the root exports exactly its names, every
module's ``__all__`` names only what it defines, and importing the root
loads the same layers as before.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mmps

README = Path(__file__).resolve().parents[1] / "README.md"


def _example() -> str:
    """The ``python`` block under *Simulating from Python*."""
    section = README.read_text(encoding="utf-8").split("## Simulating from Python", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_example_runs_as_written(capsys):
    exec(compile(_example(), str(README), "exec"), {})
    assert capsys.readouterr().out.strip().endswith("0.05")  # the march's final time


def test_root_exports_the_readme_example_names():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "mmps"
        for alias in node.names
    }
    # the example's comment says a failing step raises StepError
    assert sorted(mmps.__all__) == sorted(imported | {"StepError"})
    assert all(hasattr(mmps, name) for name in mmps.__all__)


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(mmps.__path__)))
def test_every_module_export_resolves(name):
    # a deleted function left in __all__ breaks ``from mmps.<module> import *``
    module = importlib.import_module(f"mmps.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_import_loads_every_layer_but_the_cli():
    src = os.path.dirname(os.path.dirname(mmps.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, mmps; print(sorted(m for m in sys.modules if m.split('.')[0] == 'mmps'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    layers = ("config", "estimates", "evolution", "experiments", "fields", "recipes",
              "snapshots", "stokes")
    assert ast.literal_eval(out.stdout.strip()) == ["mmps"] + [f"mmps.{m}" for m in layers]
