"""Cold start: no CLI command loads scipy; only the FD oracle needs it.

numpy loads ``numpy.ma`` lazily; no command should pull it in.
"""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

from temsphere.special import erfc

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: argv[1] is a work directory holding config.json.
CLI_COMMANDS = """
import json, os, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

work = sys.argv[1]
import temsphere, temsphere.cli
from temsphere import cli
assert not scipy_loaded(), ("import", scipy_loaded()[:3])
config = os.path.join(work, "config.json")
library = os.path.join(work, "library.json")
with open(config) as fh:
    candidate = json.load(fh)
with open(library, "w") as fh:
    json.dump({"candidates": [{"name": "a", "config": candidate}]}, fh)
commands = [
    ["modes", "--config", config, "--out", work],
    ["simulate", "--config", config, "--out", work, "--gates", "2e-3,1.0,30"],
    ["early", "--config", config, "--out", work, "--gates", "1e-6,1e-4,12",
     "--scan", "0.1,0.7,0.4"],
    ["classify", "--data", os.path.join(work, "simulate.csv"), "--library", library,
     "--out", work],
    ["fit", "--data", os.path.join(work, "simulate.csv"), "--out", work, "--terms", "1"],
]
for argv in commands:
    assert cli.main(argv) == 0, argv
    assert not scipy_loaded(), (argv[0], scipy_loaded()[:3])
    assert "numpy.ma" not in sys.modules, argv[0]
print("ok")
"""


def test_cli_commands_leave_scipy_unloaded(tmp_path, sample_config_dict):
    cfg = json.loads(json.dumps(sample_config_dict))
    cfg["options"]["max_n"] = 40
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CLI_COMMANDS, str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"


def _module_level_imports(tree):
    """Import nodes that run when the module is imported (not inside a def)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize(
    "path", sorted(p.name for p in (SRC / "temsphere").glob("*.py"))
)
def test_no_module_level_scipy_import(path):
    tree = ast.parse((SRC / "temsphere" / path).read_text(encoding="utf-8"))
    names = []
    for node in _module_level_imports(tree):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        else:
            names.extend(alias.name for alias in node.names)
    assert not [n for n in names if n == "scipy" or n.startswith("scipy.")]


ERFC_GRID = np.concatenate([np.linspace(-6.0, 30.0, 3601), [0.0, 26.6, -0.0]])


def test_erfc_matches_math_erfc():
    got = erfc(ERFC_GRID)
    want = np.array([math.erfc(x) for x in ERFC_GRID])
    assert got.dtype == np.float64 and got.shape == ERFC_GRID.shape
    normal = ERFC_GRID <= 26.6
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-15, atol=0.0)
    # past 26.6 the value underflows through the subnormals to zero
    assert np.max(np.abs(got[~normal] - want[~normal])) <= 1e-300
    assert erfc(0.0) == 1.0


def test_erfc_shapes():
    scalar = erfc(0.5)
    assert isinstance(scalar, np.ndarray) and scalar.shape == () and scalar.dtype == np.float64
    assert float(erfc(np.float64(0.5))) == math.erfc(0.5)
    assert erfc(np.array(-1.0)).shape == ()
    grid = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    assert erfc(grid).shape == (3, 4)
    assert erfc([]).shape == (0,)


def test_erfc_matches_scipy():
    got = erfc(ERFC_GRID)
    want = scipy.special.erfc(ERFC_GRID)
    keep = want >= 1e-300
    assert np.count_nonzero(keep) > 3000
    np.testing.assert_allclose(got[keep], want[keep], rtol=1e-13, atol=0.0)


# Runs in a fresh interpreter: no Bessel zero is held yet.
COLD_LADDER = """
import temsphere as ts
from temsphere import special

refined, refine = [], special._refine_roots

def counting(fdf, lo, hi, *args, **kwargs):
    refined.append(len(lo))
    return refine(fdf, lo, hi, *args, **kwargs)

special._refine_roots = counting
target = ts.TargetSpec(0.05, ts.MaterialSpec(1 / 2.8e-8, 60.0))
assert len(ts.build_mode_library(target, 1.0, 6, 100)) == 600
print(len(refined), [z.size for z in special._zeros])
"""


def test_first_library_refines_each_bessel_order_once():
    # the library asks the ladder once for its highest sector, so each order
    # 1..max_l is refined in one Newton loop (21 loops when each sector asked)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", COLD_LADDER], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split(maxsplit=1)
    assert int(out[0]) <= 6 + 1
    assert json.loads(out[1]) == [102 + 6 - k for k in range(7)]
