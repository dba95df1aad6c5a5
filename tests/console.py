"""The `hodge-degen` console script as the tests run it: the installed script
when `shutil.which` finds one, otherwise the `[project.scripts]` target run
the way the generated script runs it, in a fresh interpreter with this
package's root first on PYTHONPATH."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hodge_degen

ROOT = Path(__file__).resolve().parents[1]


def pkg_env():
    """The environment with this package's root first on PYTHONPATH."""
    pkg_root = os.path.dirname(os.path.dirname(hodge_degen.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return env


def console(*argv, cwd):
    """The CompletedProcess (text) of `hodge-degen argv...`, run in `cwd`, a
    directory that holds no catalog."""
    if shutil.which("hodge-degen"):
        return subprocess.run(["hodge-degen", *argv], capture_output=True,
                              text=True, cwd=cwd)
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hodge-degen"]
    module, fn = target.split(":")
    code = f"import sys; from {module} import {fn}; sys.exit({fn}())"
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, cwd=cwd, env=pkg_env())
