"""What a fresh interpreter loads on the three cold paths.

A partition run, ``python -m repro --help`` and the ``repro serve`` daemon
start in a new interpreter each time (every batch set-up, benchmark harness
and CLI call pays it).  On each path ``scipy.sparse`` is the only public
scipy subpackage that may load: a heavy optional one (``scipy.spatial``
pulls in ``scipy.linalg``, about 15 MB) is imported inside the function that
uses it, so a module-level import of one fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PRINT_MODULES = "\nimport sys\nprint('\\n'.join(sys.modules))\n"

_PATHS = {
    "partition": (
        "import repro, repro.matrix\n"
        "a = repro.matrix.load_collection_matrix('sherman3', scale=0.05)\n"
        "d = repro.decompose(a, 4, 'finegrain', seed=0).decomposition\n"
        "repro.communication_stats(d)\n"
    ),
    # ``python -m repro --help`` imports repro.__main__ and so repro.cli
    "cli-help": "import repro.__main__\n",
    "daemon": "import repro.cli, repro.serve.server\n",
}


def _modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code + _PRINT_MODULES],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _public_scipy_subpackages(modules: set[str]) -> set[str]:
    # private names (scipy._lib, scipy.__config__) and scipy.version are allowed
    subs = {m.split(".")[1] for m in modules if m.startswith("scipy.")}
    return {s for s in subs if not s.startswith("_")} - {"version"}


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_only_scipy_sparse_loads(path):
    modules = _modules_after(_PATHS[path])
    assert "repro" in modules
    assert _public_scipy_subpackages(modules) == {"sparse"}


def test_bcspwr10_loads_scipy_spatial_on_demand():
    modules = _modules_after(
        "import repro.matrix\n"
        "a = repro.matrix.load_collection_matrix('bcspwr10', scale=0.05)\n"
        "assert a.nnz > 0\n"
    )
    assert "scipy.spatial" in modules
