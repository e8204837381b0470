"""The quick demos run to completion against the current package, and every
documented import resolves.

Demos 04 (search walkthrough) and 05 (replay vs scratch) take several
seconds each and stay out of the tier-1 run; their imports, and their calls
of what they import, are checked without running them.
"""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from netshrink.cost import total_resource

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize(
    "demo", ["01_bypass_arithmetic.py", "02_shared_weight_training.py", "03_cost_models.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve(demo):
    """Each `from netshrink... import name` names a module attribute or a submodule."""
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "netshrink":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_calls_bind_to_the_current_signatures(demo):
    """Each call of a name imported from netshrink passes arguments its signature accepts."""
    tree = ast.parse(demo.read_text())
    imported = {
        alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "netshrink"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and callable(imported.get(node.func.id))):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue  # *args or **kwargs: the arguments are not known statically
        try:
            inspect.signature(imported[node.func.id]).bind(
                *node.args, **{k.arg: None for k in node.keywords}
            )
        except TypeError as e:
            pytest.fail(f"{demo.name}:{node.lineno}: {node.func.id}: {e}")


def test_readme_library_sketch_meets_its_target():
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n.*?```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(compile(sketch, "README.md", "exec"), scope)
    final = scope["result"].trajectory[-1].choice
    assert total_resource(final, scope["table"]) <= scope["cfg"].target_resource
