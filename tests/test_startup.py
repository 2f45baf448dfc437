"""Start-up: the analytic commands never load numpy, and when numpy loads
changes no output byte; only a command that dimensions loads `statistics`;
`import m2mpool` alone loads neither `sim` nor `lte`.

The start-up checks run in a fresh interpreter, since this test process
has imported numpy and every module of the package long before.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from m2mpool import numerics

from test_acceptance import GOLDEN_DIR, GOLDEN_SWEEPS

ROOT = Path(__file__).resolve().parents[1]

# argv: [eager|lazy, out path, JSON list of argv lists].  Prints the loaded
# numpy submodules after `import m2mpool.cli` and after the commands, each
# command's exit code and what it wrote to the out path.
CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "eager":
    import numpy
import m2mpool.cli

def numpy_submodules():
    return sorted(name for name in sys.modules if name.startswith("numpy."))

loaded = {name: name in sys.modules for name in ("m2mpool.sim", "m2mpool.analytic", "m2mpool.numerics")}
at_import = numpy_submodules()
codes, outputs = [], []
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(m2mpool.cli.main(argv + ["--out", sys.argv[2]]))
    with open(sys.argv[2]) as handle:
        outputs.append(handle.read())
print(json.dumps({"loaded": loaded, "at_import": at_import, "after": numpy_submodules(),
                  "codes": codes, "outputs": outputs}))
"""


def run_child(tmp_path: Path, mode: str, commands: list[list[str]]) -> dict:
    (tmp_path / "out.csv").write_text("")  # `--help` writes no CSV
    done = subprocess.run(
        [sys.executable, "-c", CHILD, mode, str(tmp_path / "out.csv"), json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_analytic_commands_never_load_numpy(tmp_path):
    commands = [["dimension"], *(argv for _, argv in GOLDEN_SWEEPS), ["--help"], ["sweep", "--help"]]
    result = run_child(tmp_path, "lazy", commands)
    # the benchmark reads these from sys.modules after `import m2mpool.cli`
    assert all(result["loaded"].values())
    assert result["codes"] == [0] * len(commands)
    assert "C_min" in result["outputs"][0] and "14841" in result["outputs"][0]
    for (name, _), output in zip(GOLDEN_SWEEPS, result["outputs"][1:]):
        assert output == (GOLDEN_DIR / name).read_text(), f"{name} drifted"
    assert result["after"] == []


def test_a_draw_loads_numpy(tmp_path):
    result = run_child(tmp_path, "lazy", [["simulate", "--runs", "10"]])
    assert result["codes"] == [0]
    assert result["at_import"] == [] and result["after"] != []


def test_eager_and_lazy_numpy_give_the_same_bytes(tmp_path):
    overload = ["--devices", "1000", "--pe", "0.4", "--capacity", "926", "--seed", "7"]
    commands = [
        ["simulate", "--runs", "2000", "--policy", "random", *overload],
        ["simulate", "--runs", "2000", "--policy", "fifo", *overload],
        ["simulate", "--runs", "500", "--seed", "3"],
        ["validate-clt", "--runs", "200", "--seed", "5"],
        ["sweep", "--sweep", "devices:100:300:100", "--runs", "100", "--seed", "9"],
    ]
    eager = run_child(tmp_path, "eager", commands)
    lazy = run_child(tmp_path, "lazy", commands)
    assert eager["at_import"] != [] and lazy["at_import"] == []
    assert eager["codes"] == lazy["codes"] == [0] * len(commands)
    assert eager["outputs"] == lazy["outputs"]


# prints whether `statistics` is loaded after `import m2mpool.cli`, after
# `build_parser()` and after `main(argv)` for the JSON argv list given
STATISTICS_CHILD = """
import contextlib, io, json, sys
import m2mpool.cli
loaded = ["statistics" in sys.modules]
m2mpool.cli.build_parser()
loaded.append("statistics" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    m2mpool.cli.main(json.loads(sys.argv[1]))
print(json.dumps(loaded + ["statistics" in sys.modules]))
"""


@pytest.mark.parametrize("argv, dimensions", [(["--help"], False), (["dimension", "--help"], False),
                                              (["validate-clt", "--runs", "10"], False), (["dimension"], True)])
def test_only_a_command_that_dimensions_loads_statistics(argv, dimensions):
    done = subprocess.run(
        [sys.executable, "-c", STATISTICS_CHILD, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout) == [False, False, dimensions]


def test_the_package_root_loads_neither_the_engine_nor_the_grid():
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, m2mpool; print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, check=True,
    )
    loaded = [name for name in json.loads(done.stdout) if name.startswith("m2mpool")]
    assert loaded == ["m2mpool", "m2mpool.analytic", "m2mpool.errors", "m2mpool.numerics"]


def test_numpy_already_imported_is_used_as_it_is():
    assert numerics._lazy_numpy() is sys.modules["numpy"]


def test_missing_numpy_fails_at_import(monkeypatch):
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError, match="numpy"):
        numerics._lazy_numpy()
