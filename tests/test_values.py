"""The value types: immutable, compared, hashed and shown by their fields alone,
keeping nothing they derive except a chain complex's reductions, and defined
without generating code, so that importing the command line loads none of
dataclasses, inspect and typing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ahom
from ahom.abelian import FgAbGroup, IntMatrix, PrimeSet, SmithDecomposition, snf
from ahom.ahomology import MooreSes, axiom_checks, a_homology_range, moore_a_homology_ses
from ahom.chains import ChainComplex, cohomology_direct, cohomology_uct
from ahom.corpus import CheckResult
from ahom.federer import (ABSOLUTE, BigradedPage, HomotopyTable, collapse_report,
                          e2_consistency_with_ahomology, federer_e2, hopf_whitney,
                          moore_homotopy_ses, torsion_class_check)
from ahom.spaces import projective, sphere

Z2 = FgAbGroup.cyclic(2)


def _table() -> HomotopyTable:
    return HomotopyTable(ABSOLUTE, {1: FgAbGroup.free(1), 2: Z2, 3: FgAbGroup.of(1, [2, 3]),
                                    4: FgAbGroup.trivial()}, True)


# case name -> (its field names in order, a builder of a fresh sample); a case is
# named after its type, save the two Moore sequences that share MooreSes
SAMPLES = {
    "IntMatrix": ("rows cols entries", lambda: IntMatrix.from_rows([[2, 0], [0, 3]])),
    "SmithDecomposition": ("U diagonal V",
                           lambda: snf(IntMatrix.from_rows([[2, 4], [6, 8]]))),
    "FgAbGroup": ("free_rank invariant_factors", lambda: FgAbGroup.of(1, [2, 6])),
    "PrimeSet": ("primes", lambda: PrimeSet.of(2, 3)),
    "ChainComplex": ("name ranks boundaries", lambda: projective(3)),
    "AHomologyReport": ("a_name x_name range groups assumptions violations",
                        lambda: a_homology_range(projective(2), projective(3))),
    "AxiomCheck": ("axiom left right detail",
                   lambda: axiom_checks(projective(2), sphere(3), [], [1])[0]),
    "MooreHomologySes": ("ext_part hom_part middle",
                         lambda: moore_a_homology_ses(Z2, 1, [projective(3)], [1])[0]),
    "CheckResult": ("name passed detail", lambda: CheckResult("sample", True, "1 case")),
    "HomotopyTable": ("variant entries abelian_assumption", _table),
    "BigradedPage": ("variant p_range q_range a pi", lambda: federer_e2(projective(2), _table())),
    "DiagonalVerdict": ("n surviving verdict group notes",
                        lambda: collapse_report(federer_e2(projective(2), _table()), 2)),
    "HopfWhitneyResult": ("group structure", lambda: hopf_whitney(projective(2), Z2)),
    "MooreHomotopySes": ("ext_part hom_part middle",
                         lambda: moore_homotopy_ses(Z2, 1, _table(), 1)),
    "TorsionClassReport": ("primes hypothesis_holds hypothesis_failures entries_in_class "
                           "diagonal_flags",
                           lambda: torsion_class_check(projective(2), _table(), PrimeSet.of(2))),
    "ConsistencyCheck": ("n holds diagonal_sum formula_value",
                         lambda: e2_consistency_with_ahomology(projective(2), sphere(3), 1)),
}

# the types with a dict among their fields hash as a tuple holding a dict does: not at all
UNHASHABLE = {"ChainComplex", "AHomologyReport", "HomotopyTable", "BigradedPage",
              "TorsionClassReport"}

TYPE_OF = {"MooreHomologySes": "MooreSes", "MooreHomotopySes": "MooreSes"}


def _read_derived(value) -> list[str]:
    """Read every value a sample derives; the names of those it keeps, which
    only a chain complex does."""
    if isinstance(value, ChainComplex):
        value.graded_homology
        cohomology_uct(value, 2, Z2)
        cohomology_direct(value, 2, Z2)
        return ["graded_homology", "_cohomology", "_cochains"]
    if isinstance(value, SmithDecomposition):
        assert value.S == IntMatrix.diagonal(value.diagonal, 2, 2)
    if isinstance(value, MooreSes):  # the homotopy sample has no middle term
        expected = (2, 2) if value.middle is not None else (8, 4)
        assert (value.order_product, value.exponent_bound) == expected
    if isinstance(value, BigradedPage):
        assert len(value.entries) == 2 * 4
    return []


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_type_contract(name):
    fields, make = SAMPLES[name]
    fields = fields.split()
    value = make()
    type_name = TYPE_OF.get(name, name)
    assert type(value).__name__ == type_name
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)

    shown = f"{type_name}({', '.join(f'{f}={getattr(value, f)!r}' for f in fields)})"
    twin = type(value)(**{f: getattr(value, f) for f in fields})
    assert value == twin and twin == value
    assert repr(value) == repr(twin) == shown
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin) == hash(tuple(getattr(value, f) for f in fields))

    kept = _read_derived(value)
    if kept:
        assert all(key in vars(value) for key in kept)
    else:  # nothing is left behind: there is no instance dict to leave it in
        assert not hasattr(value, "__dict__")
    assert value == twin and twin == value
    assert repr(value) == shown
    if name not in UNHASHABLE:
        assert hash(value) == hash(twin)


def test_importing_the_command_line_generates_no_code():
    # diffed against the modules loaded before, since a host's site may preload some
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import ahom.cli",
        "print(sorted((set(sys.modules) - before) & {'dataclasses', 'inspect', 'typing'}))",
        "sys.exit(ahom.cli.main(['homology', '--X', 'rp:3']))",
    ])
    src = str(Path(ahom.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "[]", "H_0(rp:3) = 0", "H_1(rp:3) = Z/2", "H_2(rp:3) = 0", "H_3(rp:3) = Z"]
