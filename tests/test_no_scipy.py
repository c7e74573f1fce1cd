"""scipy is a test oracle (the ``test`` extra), never a dependency of
otfuse: no module of the package imports it, and importing the package and
its CLI loads none of it."""

import re
import subprocess
import sys
from pathlib import Path

import otfuse
from helpers import this_tree_env

SCIPY_IMPORT = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)


def test_no_module_of_the_package_imports_scipy():
    modules = sorted(Path(otfuse.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}: {match.group(0).strip()}"
        for path in modules
        for match in SCIPY_IMPORT.finditer(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_importing_the_package_and_cli_loads_no_scipy():
    code = "import sys, otfuse, otfuse.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=this_tree_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
