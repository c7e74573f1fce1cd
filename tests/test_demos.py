"""Each demo runs as a user runs it, in a new interpreter in which a
RuntimeWarning (a numpy overflow or invalid value) is an error."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import this_tree_env

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, subprocess.CompletedProcess]:
    cwd = tmp_path_factory.mktemp("demos")
    return {
        demo.stem: subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
            capture_output=True, text=True, env=this_tree_env(), timeout=120, cwd=cwd,
        )
        for demo in DEMOS
    }


@pytest.mark.parametrize("name", [demo.stem for demo in DEMOS])
def test_demo_exits_zero(runs, name):
    assert runs[name].returncode == 0, runs[name].stderr


def test_alignment_recovers_every_planted_permutation(runs):
    lines = [
        line for line in runs["02_permutation_alignment"].stdout.splitlines()
        if "recovered == planted permutation:" in line
    ]
    assert lines and all(line.endswith(": True") for line in lines), lines
