"""Every demo script runs to completion and prints its results, and the
package exports exactly what the README and the demos import from it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qfiber

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def _imported_from_package() -> set:
    names = set()
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "qfiber":
                names.update(alias.name for alias in node.names)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for line in re.findall(r"^from qfiber import (.+)$", readme, re.M):
        names.update(n.strip() for n in line.strip("()").split(","))
    return names


def test_exports_cover_readme_and_demos():
    used = _imported_from_package()
    assert "q_module" in used
    assert used <= set(qfiber.__all__)
    assert all(hasattr(qfiber, name) for name in qfiber.__all__)
