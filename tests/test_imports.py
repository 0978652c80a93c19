"""What ``import entqkd`` loads, checked in a fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LIBRARY_MODULES = {"entqkd", "entqkd.bases", "entqkd.metrics", "entqkd.numeric",
                   "entqkd.optimize", "entqkd.spdc", "entqkd.states", "entqkd.tomography"}


def test_import_loads_the_library_modules_only():
    # cli, dataio and refdata (the bundled reference table), with argparse and
    # json, load on first use only; the benchmark's setup time includes this import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", "import sys, entqkd; print(sorted(sys.modules))"],
                         env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(ast.literal_eval(out))
    assert {name for name in loaded if name.partition(".")[0] == "entqkd"} == LIBRARY_MODULES
    assert not loaded & {"json", "argparse"}
