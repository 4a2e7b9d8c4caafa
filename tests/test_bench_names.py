"""The names the benchmark harness rebinds must keep resolving.

``bench/tracing.py`` wraps the functions in its ``TRACED`` list by module
and attribute, and ``bench/tests`` checks that ``chains.kernel_basis`` and
``corpus.snf`` are rebound too.  Those tests live outside this suite, so a
rename would otherwise only show as a failing ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.TRACED]


@pytest.mark.parametrize("module, attr", _traced() + [("chains", "kernel_basis"),
                                                       ("corpus", "snf")])
def test_rebound_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"ahom.{module}"), attr))
