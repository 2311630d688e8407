"""Every Python demo imports cleanly against the current package API, and
the evolution, gradient-machinery and CLI pipeline demos run to the end.

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


def _env(tmp_path):
    """This environment with the package taken from ``src/`` and this interpreter's
    ``python3`` first on PATH."""
    return {**os.environ, "TMPDIR": str(tmp_path),
            "PATH": os.path.dirname(sys.executable) + os.pathsep + os.environ["PATH"],
            "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("name, last", [
    ("02_continuous_evolution.py", "the eigenvalues of A - I set the relaxation rates"),
    ("04_gradient_machinery.py", "-> PASS")])
def test_python_demo_completes(name, last, tmp_path):
    """The demo as ``PYTHONPATH=src python3 demos/<name>`` runs, exits 0 and
    prints its last section. Demo 04 lists every gradient check, the fused
    ``gated_fusion`` op's among them."""
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=_env(tmp_path),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert last in proc.stdout
    if name.startswith("04"):
        checks = [line.split()[0] for line in proc.stdout.splitlines() if "max rel err" in line]
        assert "op:gated_fusion" in checks and checks[-1] == "end_to_end_step_loss"


def test_cli_pipeline_demo_completes(tmp_path):
    """``05_cli_pipeline.sh`` under bash, with this interpreter's ``python3``
    first on PATH and the package taken from ``src/``."""
    proc = subprocess.run(["bash", str(ROOT / "demos" / "05_cli_pipeline.sh")],
                          env=_env(tmp_path), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "pipeline complete" in proc.stdout
