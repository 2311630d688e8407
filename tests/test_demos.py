"""Every Python demo imports cleanly against the current package API, and
the CLI pipeline demo runs to the end.

The Python demos guard their work behind ``__main__``, so importing one runs
nothing; a stale import name fails here instead of in a reader's shell.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_cli_pipeline_demo_completes(tmp_path):
    """``05_cli_pipeline.sh`` under bash, with this interpreter's ``python3``
    first on PATH and the package taken from ``src/``."""
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PATH": os.path.dirname(sys.executable) + os.pathsep + os.environ["PATH"],
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(["bash", str(ROOT / "demos" / "05_cli_pipeline.sh")], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "pipeline complete" in proc.stdout
