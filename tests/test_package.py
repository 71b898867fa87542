"""The package namespace holds only modules and ``__version__``; ``python -m tracefill`` runs."""

import os
import subprocess
import sys
import types
from pathlib import Path

import tracefill

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_submodule_names_bind_the_modules():
    import tracefill.reconstruct as module

    assert isinstance(module, types.ModuleType)
    assert module is sys.modules["tracefill.reconstruct"]
    public = {name: value for name, value in vars(tracefill).items()
              if not name.startswith("_")}
    assert public
    assert {name: value for name, value in public.items()
            if not isinstance(value, types.ModuleType)} == {}
    assert isinstance(tracefill.__version__, str)


def test_importing_one_module_loads_only_its_imports(tmp_path):
    proc = run_python("-c", "import sys, tracefill.preprocess; "
                      "print(sorted(m for m in sys.modules if m.startswith('tracefill')))",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['tracefill', 'tracefill.preprocess']"


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = run_python("-m", "tracefill", "gradcheck", "--samples", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "end-to-end" in proc.stdout
