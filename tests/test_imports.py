"""What ``import entqkd`` loads, and that it runs from a zip file, in fresh interpreters."""

import ast
import os
import subprocess
import sys
import zipfile
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


def test_bundled_table_loads_from_a_zip_of_the_package(tmp_path):
    # a zip on sys.path serves the package through zipimport, which serves the
    # files of a package but fails on a directory read as a namespace package;
    # the archive holds directory entries, as the zip tool writes them
    archive = tmp_path / "entqkd.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted([SRC / "entqkd", *(SRC / "entqkd").rglob("*")]):
            if "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(SRC).as_posix())
    script = ("import sys, entqkd\n"
              "assert entqkd.__file__.startswith(sys.argv[1]), entqkd.__file__\n"
              "from entqkd.refdata import load_reference_table\n"
              "assert len(load_reference_table()) == 20\n"
              "from entqkd.cli import main\n"
              "sys.exit(main(['table-check']))\n")
    env = dict(os.environ, PYTHONPATH=str(archive))
    result = subprocess.run([sys.executable, "-c", script, str(archive)], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().split("\n")[-1] == "20/20 rows consistent"
