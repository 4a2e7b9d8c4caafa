"""The names the benchmark harness rebinds or imports must keep resolving.

``bench/tracing.py`` wraps the functions in its ``TRACED`` list by module
and attribute, and ``bench/tests`` checks that ``chains.kernel_basis`` and
``corpus.snf`` are rebound too.  ``bench/tests/test_bench.py`` also imports
and calls a few library functions directly.  Those tests live outside this
suite, so a rename or a signature change would otherwise only show as a
failing ``bench/run.py --trace 1`` or ``pytest bench/tests``.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from ahom.chains import ChainComplex
from ahom.spaces import build, parse_recipe, projective
from helpers import complex_to_json

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# what bench/tests/test_bench.py takes from ahom besides the traced names
BENCH_TEST_IMPORTS = [
    ("spaces", "build"),
    ("spaces", "parse_recipe"),
    ("abelian", "parse_group"),
    ("chains", "complex_from_json"),
    ("chains", "cohomology_uct"),
    ("ahomology", "a_homology"),
]


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.TRACED]


NAMES = _traced() + [("chains", "kernel_basis"), ("corpus", "snf")]
# a name listed twice would rename both parameter ids
NAMES += [name for name in BENCH_TEST_IMPORTS if name not in NAMES]


@pytest.mark.parametrize("module, attr", NAMES)
def test_rebound_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"ahom.{module}"), attr))


@pytest.mark.parametrize("text", ["sphere:3", "rp:4", "moore:Z+Z/6:2", "file:{path}"])
def test_build_of_parsed_recipe_is_a_complex(tmp_path, text):
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps(complex_to_json(projective(2))))
    assert isinstance(build(parse_recipe(text.format(path=path))), ChainComplex)
