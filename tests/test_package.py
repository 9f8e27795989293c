"""Package surface: every exported name exists, and importing the package
stays cheap.

Tools that wrap the public API look up each ``__all__`` name with getattr,
so a name left behind after its function is deleted breaks them.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import gcruin

MODULES = sorted(m.name for m in pkgutil.iter_modules(gcruin.__path__)
                 if m.name != "__main__")


def test_modules_found():
    assert {"cli", "convolutions", "measures", "risk", "ruin", "walks",
            "williamson"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(f"gcruin.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs more to import than the rest of the package; only the
    # functions that need it import it
    src = os.path.dirname(os.path.dirname(gcruin.__file__))
    subprocess.run([sys.executable, "-c",
                    "import gcruin, sys; assert 'scipy.stats' not in sys.modules"],
                   check=True, env={**os.environ, "PYTHONPATH": src})
