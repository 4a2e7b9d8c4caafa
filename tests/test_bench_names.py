"""The names the benchmark harness rebinds or imports must keep resolving.

``bench/tracing.py`` wraps the functions in its ``TRACED`` list by module
and attribute, and ``bench/tests`` checks that ``chains.kernel_basis`` and
``corpus.snf`` are rebound too.  ``bench/tests/test_bench.py`` also imports
and calls a few library functions directly.  The tracer names the row of
each entry of ``corpus.ALL_CHECKS`` from its function's name, which must
give the name the check reports, and it reads ``SmithDecomposition.S``,
``U`` and ``V`` off each ``snf`` result and ``entries`` off each page;
``snf`` leaves U and V empty, so the tracer must read empty transforms too.
Those tests live outside this suite, so a rename or a signature change
would otherwise only show as a failing ``bench/run.py --trace 1`` or
``pytest bench/tests``.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from ahom import corpus
from ahom.abelian import FgAbGroup, IntMatrix, snf
from ahom.chains import ChainComplex, homology
from ahom.federer import ABSOLUTE, HomotopyTable, federer_e2
from ahom.spaces import build, parse_recipe, projective
from helpers import check_name, complex_to_json, reference_snf

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
CORPUS_JSON = Path(__file__).parent / "golden" / "corpus-json.out"

# what bench/tests/test_bench.py takes from ahom besides the traced names
BENCH_TEST_IMPORTS = [
    ("spaces", "build"),
    ("spaces", "parse_recipe"),
    ("abelian", "parse_group"),
    ("chains", "complex_from_json"),
    ("chains", "cohomology_uct"),
    ("ahomology", "a_homology"),
]


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAMES = [(mod, attr) for mod, attr, _ in _tracing().TRACED] + [("chains", "kernel_basis"), ("corpus", "snf")]
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


def test_traced_check_names_are_the_reported_names():
    # the tracer names its corpus.<check>.s rows from each function's name
    reported = [r["name"] for r in json.loads(CORPUS_JSON.read_text())]
    assert [check_name(check) for check in corpus.ALL_CHECKS] == reported
    assert all(getattr(corpus, check.__name__) is check for check in corpus.ALL_CHECKS)


def test_tracer_observes_real_values():
    # the observers read dec.S, dec.U, dec.V and len(page.entries), so none
    # of them can leave the library while bench/run.py --trace 1 reads them;
    # the reference's certificate gives the transform row a real value
    tracer = _tracing().Tracer()
    m = IntMatrix.from_rows([[2, 4], [6, 9]])
    tracer._observe_snf((m,), snf(m))
    assert tracer.maxima["abelian.snf.max_transform_bits"] == 0
    tracer._observe_snf((m,), reference_snf(m))
    x = projective(3)
    tracer._observe_homology((x, 1), homology(x, 1))
    page = federer_e2(projective(2), HomotopyTable(ABSOLUTE, {1: FgAbGroup.free(1),
                                                              2: FgAbGroup.cyclic(2)}, True))
    tracer._observe_page((projective(2), None), page)
    assert all(tracer.maxima[f"abelian.snf.max_{row}"] > 0
               for row in ("cells", "entry_bits", "transform_bits"))
    assert [len(keys) for keys in tracer._distinct.values()] == [1]
    assert tracer.page_cells == len(page.entries) == 4
