"""The three workloads: seeded request lists, each request with its checker.

A request is one ``ahom.cli.main(argv)`` call.  Its checker receives the
captured stdout and returns a description of what is wrong, or None.  All
expected answers come from :mod:`known` and :mod:`groups`.

* ``verbs``: a stratified, shuffled mix of the nine non-corpus verbs in both
  output modes on small recipes and generated homotopy tables, with 5 % of
  requests that must be refused (exit 1) or rejected (exit 2).
* ``large-complex``: ``homology`` on generated ``file:`` complexes of 60-200
  cells with planted homology, free wedges ``moore:Z^r:m`` and
  ``moore:(Z/4+Z/2)^k:m``.  No input repeats within a run.
* ``corpus``: one full ``corpus --out json`` pass; the program fixes its
  own seeds, so the seed argument does not apply.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import known
from groups import TRIVIAL, Group, ext, group, hom, parse

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    code: int = 0
    check: Check | None = None


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _expect_groups(got: dict, want: dict) -> str | None:
    """Compare {degree: rendered group} against {degree: Group}."""
    if set(got) != set(want):
        return f"degrees {sorted(got)} != {sorted(want)}"
    for key, g in want.items():
        try:
            value = parse(got[key])
        except (TypeError, ValueError):
            return f"degree {key}: unreadable group {got[key]!r}"
        if value != g:
            return f"degree {key}: {got[key]} != {g.render()}"
    return None


def _lines(out: str, pattern: str) -> list[tuple[str, ...]] | None:
    """Every line of out matched against pattern, or None on a mismatch."""
    rx = re.compile(pattern)
    matches = [rx.match(line) for line in out.splitlines()]
    if not matches or not all(matches):
        return None
    return [m.groups() for m in matches]


# ---------------------------------------------------------------------------
# Random inputs for the verbs mix
# ---------------------------------------------------------------------------

def _random_group(rng: random.Random, max_free: int = 1, max_factors: int = 2,
                  nontrivial: bool = False) -> tuple[Group, str]:
    """A group and a spelling of it with summands in random order."""
    while True:
        free = rng.randint(0, max_free)
        orders = [rng.randint(2, 12) for _ in range(rng.randint(0, max_factors))]
        if free or orders or not nontrivial:
            break
    tokens = ["Z"] * free + [f"Z/{d}" for d in orders]
    rng.shuffle(tokens)
    return group(free, orders), "+".join(tokens) or "0"


def _random_space(rng: random.Random, max_rp: int = 12) -> known.Known:
    roll = rng.random()
    if roll < 0.45:
        return known.rp(rng.randint(2, max_rp))
    if roll < 0.7:
        return known.sphere(rng.randint(1, 8))
    g, text = _random_group(rng, nontrivial=True)
    return known.moore(g, rng.randint(1, 4), text)


def _small_shape(rng: random.Random) -> known.Known:
    roll = rng.random()
    if roll < 0.5:
        return known.rp(rng.randint(2, 4))
    if roll < 0.75:
        return known.sphere(rng.randint(1, 3))
    g, text = _random_group(rng, max_free=0, nontrivial=True)
    return known.moore(g, rng.randint(1, 2), text)


@dataclass(frozen=True)
class Table:
    path: str
    variant: str
    pi: dict[int, Group]

    @property
    def q_max(self) -> int:
        return max(self.pi)


def _write_table(path: str, variant: str, abelian, pi_text: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"variant": variant, "abelian": abelian, "pi": pi_text}, fh)


def _random_table(rng: random.Random, path: str, variant: str, q_max: int) -> Table:
    start = 1 if variant == "absolute" else 2
    pi, text = {}, {}
    for q in range(start, q_max + 1):
        pi[q], text[str(q)] = _random_group(rng)
    _write_table(path, variant, True, text)
    return Table(path, variant, pi)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _homology_request(x: known.Known, degree: int | None, mode: str) -> Request:
    degrees = [degree] if degree is not None else list(range(x.top + 1))
    want = {str(n): x.h(n) for n in degrees}
    argv = ["homology", "--X", x.recipe, "--out", mode]
    if degree is not None:
        argv += ["--degree", str(degree)]

    def check(out: str):
        if mode == "json":
            got = _json(out)
            return "not a JSON object" if not isinstance(got, dict) else _expect_groups(got, want)
        rows = _lines(out, r"^H_(\d+)\(.*\) = (.*)$")
        return "unexpected line" if rows is None else _expect_groups(dict(rows), want)
    return Request(tuple(argv), 0, check)


def _cohomology_request(x: known.Known, g: Group, g_text: str, degree: int | None,
                        mode: str) -> Request:
    degrees = [degree] if degree is not None else list(range(x.top + 1))
    want = {str(n): known.cohomology(x, n, g) for n in degrees}
    argv = ["cohomology", "--X", x.recipe, "--coefficients", g_text, "--out", mode]
    if degree is not None:
        argv += ["--degree", str(degree)]

    def check(out: str):
        if mode == "json":
            got = _json(out)
            return "not a JSON object" if not isinstance(got, dict) else _expect_groups(got, want)
        rows = _lines(out, r"^H\^(\d+)\(.*; .*\) = (.*)$")
        return "unexpected line" if rows is None else _expect_groups(dict(rows), want)
    return Request(tuple(argv), 0, check)


def _ahomology_request(a: known.Known, x: known.Known, mode: str) -> Request:
    want = {str(n): known.a_homology(a, x, n) for n in known.a_homology_degrees(a, x)}

    def check(out: str):
        if mode == "json":
            got = _json(out)
            if not isinstance(got, dict) or "assumptions" not in got:
                return "missing assumptions"
            got = dict(got)
            del got["assumptions"]
            return _expect_groups(got, want)
        rows = [line for line in out.splitlines() if line.startswith("H^A_")]
        if "assumptions:" not in out.splitlines():
            return "missing assumptions"
        pairs = _lines("\n".join(rows), r"^H\^A_(\d+)\(X\) = (.*)$")
        return "unexpected line" if pairs is None else _expect_groups(dict(pairs), want)
    return Request(("ahomology", "--A", a.recipe, "--X", x.recipe, "--out", mode), 0, check)


def _marks(status: str, must_die: bool) -> str:
    return ("*" if status == "subgroup_upper_bound" else "") + ("!" if must_die else "")


def _page_request(a: known.Known, table: Table, mode: str) -> Request:
    cells = known.page(a, table.variant, table.pi)

    def check(out: str):
        if mode == "json":
            got = _json(out)
            if not isinstance(got, dict):
                return "not a JSON object"
            want = {f"{p},{q}": c for (p, q), c in cells.items()}
            if set(got) != set(want):
                return "page cells differ"
            for key, (g, status, must_die) in want.items():
                cell = got[key]
                if (parse(cell["group"]) != g or cell["status"] != status
                        or cell.get("must_die", False) != must_die):
                    return f"cell {key}: {cell} != {g.render()} {status}"
            return None
        rows = [re.split(r" {2,}", line.strip()) for line in out.splitlines()]
        ps = list(range(-a.top, 0))
        if not rows or rows[0] != ["q\\p"] + [str(p) for p in ps]:
            return "bad page header"
        qs = sorted(table.pi, reverse=True)
        if [row[0] for row in rows[1:]] != [str(q) for q in qs]:
            return "bad page rows"
        for row, q in zip(rows[1:], qs):
            if len(row) != len(ps) + 1:
                return f"row {q} has {len(row) - 1} cells"
            for text, p in zip(row[1:], ps):
                g, status, must_die = cells[(p, q)]
                core = text.rstrip("*!")
                if parse(core) != g or text[len(core):] != _marks(status, must_die):
                    return f"cell ({p},{q}): {text!r} != {g.render()}{_marks(status, must_die)}"
        return None
    return Request(("federer-e2", "--A", a.recipe, "--table", table.path, "--out", mode), 0, check)


_SURVIVING_LINE = re.compile(r"^  \((-?\d+),(-?\d+)\) = (.*) \[(\w+)\]$")


def _diagonal_request(a: known.Known, table: Table, n: int, mode: str) -> Request:
    cells = known.page(a, table.variant, table.pi)

    def check(out: str):
        if mode == "json":
            got = _json(out)
            if not isinstance(got, dict) or set(got) != {"n", "verdict", "group", "surviving", "notes"}:
                return "unexpected keys"
            verdict, value = got["verdict"], got["group"]
            surviving = [(s["p"], s["q"], s["group"], s["status"]) for s in got["surviving"]]
        else:
            lines = out.splitlines()
            if len(lines) < 2 or lines[0] != f"diagonal n = {n}" or \
                    not lines[1].startswith("verdict = "):
                return "unexpected text"
            verdict = lines[1].removeprefix("verdict = ")
            value = next((x.removeprefix("group = ") for x in lines if x.startswith("group = ")), None)
            matches = [_SURVIVING_LINE.match(x) for x in lines if x.startswith("  (")]
            if not all(matches):
                return "unexpected surviving entry"
            surviving = [(int(m[1]), int(m[2]), m[3], m[4]) for m in matches]
        for p, q, g_text, status in surviving:
            g, want_status, _ = cells[(p, q)]
            if parse(g_text) != g or status != want_status:
                return f"surviving ({p},{q}) = {g_text} != {g.render()}"
        if verdict == "determined":
            want = cells[surviving[0][:2]][0] if surviving else TRIVIAL
            if value is None or parse(value) != want:
                return f"determined group {value} != {want.render()}"
        return None
    return Request(("diagonal", "--A", a.recipe, "--table", table.path, "--n", str(n),
                    "--out", mode), 0, check)


def _hopf_whitney_request(k: known.Known, g: Group, g_text: str, loop: bool,
                          mode: str) -> Request:
    want = known.cohomology(k, k.top, g)
    structure = "group" if (k.suspension_shaped() or loop) else "set_with_group_cardinality"
    argv = ["hopf-whitney", "--K", k.recipe, "--pi", g_text, "--out", mode]
    if loop:
        argv.append("--loop-space")

    def check(out: str):
        if mode == "json":
            got = _json(out)
            if not isinstance(got, dict) or set(got) != {"group", "structure"}:
                return "unexpected keys"
            pair = (got["group"], got["structure"])
        else:
            rows = _lines(out, r"^(?:\[K,Y\]|structure) = (.*)$")
            if rows is None or len(rows) != 2:
                return "unexpected text"
            pair = (rows[0][0], rows[1][0])
        if parse(pair[0]) != want or pair[1] != structure:
            return f"{pair} != ({want.render()}, {structure})"
        return None
    return Request(tuple(argv), 0, check)


def _render_bound(value) -> str:
    return "infinite" if value == math.inf else str(value)


def _moore_ses_request(g: Group, g_text: str, m: int, table: Table, n: int,
                       mode: str) -> Request:
    ext_part = ext(g, table.pi[n + m + 1])
    hom_part = hom(g, table.pi[n + m])
    want = {
        "ext_part": ext_part,
        "hom_part": hom_part,
        "order_product": _render_bound(ext_part.order() * hom_part.order()),
        "exponent_bound": _render_bound(ext_part.exponent() * hom_part.exponent()),
    }

    def check(out: str):
        if mode == "json":
            got = _json(out)
            if not isinstance(got, dict) or set(got) != set(want):
                return "unexpected keys"
        else:
            rows = _lines(out, r"^(ext part|hom part|order product|exponent bound) = (.*)$")
            if rows is None:
                return "unexpected text"
            got = {k.replace(" ", "_"): v for k, v in rows}
        for key, value in want.items():
            ok = parse(got.get(key, "?!")) == value if isinstance(value, Group) \
                else got.get(key) == value
            if not ok:
                return f"{key}: {got.get(key)!r} != {getattr(value, 'render', lambda: value)()}"
        return None
    return Request(("moore-ses", "--G", g_text, "--m", str(m), "--table", table.path,
                    "--n", str(n), "--out", mode), 0, check)


def _in_class(g: Group, primes: set[int]) -> bool:
    return g.free == 0 and g.primes() <= primes


def _torsion_request(a: known.Known, table: Table, primes: list[int], mode: str) -> Request:
    pset = set(primes)
    failures = [j for j in range(1, a.top + 1) if not _in_class(a.h(j), pset)]
    cells = known.page(a, "absolute", table.pi)
    entries_ok = all(_in_class(c[0], pset) for c in cells.values())
    diagonals = {str(n): not failures and all(_in_class(c[0], pset)
                                              for (p, q), c in cells.items() if p + q == n)
                 for n in range(1, table.q_max - a.top + 1)}

    def check(out: str):
        if mode == "text":
            lines = out.splitlines()
            return None if lines and lines[0].startswith("primes = ") else "unexpected text"
        got = _json(out)
        keys = {"primes", "hypothesis_holds", "hypothesis_failures", "entries_in_class",
                "diagonals"}
        if not isinstance(got, dict) or set(got) != keys:
            return "unexpected keys"
        want = {"primes": sorted(pset), "hypothesis_holds": not failures,
                "hypothesis_failures": failures, "entries_in_class": entries_ok,
                "diagonals": diagonals}
        return None if got == want else f"{got} != {want}"
    return Request(("torsion-check", "--A", a.recipe, "--table", table.path,
                    "--primes", ",".join(map(str, primes)), "--out", mode), 0, check)


def _axioms_request(a: known.Known, x: known.Known, n: int | None, mode: str) -> Request:
    degrees = [n] if n is not None else list(range(x.top + 2))
    want = []
    for d in degrees:
        value = known.a_homology(a, x, d)
        want += [("suspension", value), ("wedge", value * 2)]
    argv = ["axioms", "--A", a.recipe, "--X", x.recipe, "--out", mode]
    if n is not None:
        argv += ["--n", str(n)]

    def check(out: str):
        if mode == "json":
            got = _json(out)
            if not isinstance(got, list) or any(
                    not isinstance(c, dict) or set(c) != {"axiom", "holds", "detail", "left", "right"}
                    for c in got):
                return "unexpected keys"
            rows = [(c["axiom"], c["holds"], c["left"], c["right"]) for c in got]
        else:
            parsed = _lines(out, r"^(suspension|wedge) axiom (holds|FAILS): .*: (.*) vs (.*)$")
            if parsed is None:
                return "unexpected text"
            rows = [(ax, verdict == "holds", left, right) for ax, verdict, left, right in parsed]
        if len(rows) != len(want):
            return f"{len(rows)} checks, expected {len(want)}"
        for (axiom, holds, left, right), (w_axiom, value) in zip(rows, want):
            if axiom != w_axiom or holds is not True or parse(left) != value or parse(right) != value:
                return f"{axiom} {holds} {left} vs {right}, expected {value.render()}"
        return None
    return Request(tuple(argv), 0, check)


def _silent(out: str):
    return None if out == "" else "printed a result"


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

# requests of each kind in every block of 100; the last two kinds must fail
VERB_BLOCK = {
    "homology": 12, "cohomology": 12, "ahomology": 10, "federer-e2": 10,
    "diagonal": 10, "hopf-whitney": 10, "moore-ses": 10, "torsion-check": 10,
    "axioms": 11, "refused": 3, "malformed": 2,
}


def verbs(seed: int, workdir: str, blocks: int = 50) -> list[Request]:
    rng = random.Random(seed)
    # every seed gets the same spread of table lengths, 5 through 9
    absolute = [_random_table(rng, os.path.join(workdir, f"abs{i}.json"), "absolute", 5 + i % 5)
                for i in range(25)]
    relative = [_random_table(rng, os.path.join(workdir, f"rel{i}.json"), "relative", 5 + i % 5)
                for i in range(10)]
    nonabelian = os.path.join(workdir, "nonabelian.json")
    _write_table(nonabelian, "absolute", False, {"1": "Z", "2": "Z/2", "3": "0"})
    malformed = os.path.join(workdir, "malformed.json")
    with open(malformed, "w", encoding="utf-8") as fh:
        fh.write('{"variant": "absolute", "abelian": true, "pi": {"1": "Z",')

    def make(kind: str, mode: str) -> Request:
        if kind == "homology":
            x = _random_space(rng)
            degree = rng.randint(0, x.top + 1) if rng.random() < 0.3 else None
            return _homology_request(x, degree, mode)
        if kind == "cohomology":
            x = _random_space(rng)
            g, text = _random_group(rng)
            degree = rng.randint(0, x.top + 1) if rng.random() < 0.3 else None
            return _cohomology_request(x, g, text, degree, mode)
        if kind == "ahomology":
            return _ahomology_request(_small_shape(rng), _random_space(rng), mode)
        if kind == "federer-e2":
            table = rng.choice(absolute if rng.random() < 0.6 else relative)
            return _page_request(_small_shape(rng), table, mode)
        if kind == "diagonal":
            table = rng.choice(absolute if rng.random() < 0.6 else relative)
            return _diagonal_request(_small_shape(rng), table, rng.randint(1, table.q_max), mode)
        if kind == "hopf-whitney":
            while True:
                k = _random_space(rng, max_rp=8)
                if k.top >= 2:
                    break
            g, text = _random_group(rng)
            return _hopf_whitney_request(k, g, text, rng.random() < 0.3, mode)
        if kind == "moore-ses":
            table = rng.choice(absolute)
            g, text = _random_group(rng, nontrivial=True)
            m = rng.randint(1, 3)
            return _moore_ses_request(g, text, m, table, rng.randint(1, table.q_max - m - 1), mode)
        if kind == "torsion-check":
            primes = sorted(rng.sample([2, 3, 5, 7], rng.randint(1, 3)))
            return _torsion_request(_small_shape(rng), rng.choice(absolute), primes, mode)
        if kind == "axioms":
            n = rng.randint(0, 4) if rng.random() < 0.4 else None
            x = rng.choice([known.rp(rng.randint(2, 6)), known.sphere(rng.randint(1, 5))])
            return _axioms_request(_small_shape(rng), x, n, mode)
        if kind == "refused":
            table = rng.choice(absolute)
            argv = rng.choice([
                ("federer-e2", "--A", "rp:2", "--table", nonabelian),
                ("torsion-check", "--A", "rp:3", "--table", nonabelian, "--primes", "2"),
                ("hopf-whitney", "--K", rng.choice(["sphere:1", "rp:1"]), "--pi", "Z/2"),
                ("moore-ses", "--G", "Z/2", "--m", "2", "--table", table.path,
                 "--n", str(table.q_max - 2)),
            ])
            return Request(argv + ("--out", mode), 1, _silent)
        argv = rng.choice([
            ("homology", "--X", "rp:two"),
            ("homology", "--X", "torus:2"),
            ("cohomology", "--X", "rp:3", "--coefficients", "Z/1"),
            ("homology", "--X", "file:" + os.path.join(workdir, "missing.json")),
            ("federer-e2", "--A", "rp:2", "--table", malformed),
        ])
        return Request(argv + ("--out", mode), 2, _silent)

    requests = []
    for _ in range(blocks):
        block = [make(kind, ("text", "json")[i % 2])
                 for kind, count in VERB_BLOCK.items() for i in range(count)]
        rng.shuffle(block)
        requests += block
    return requests


# ---------------------------------------------------------------------------
# large-complex
# ---------------------------------------------------------------------------

# one stratum per entry, visited in this order: (kind, size, top degree).
# File complexes spread their cells over more degrees as they grow.  Every
# stratum costs 0.1-0.4 s, so a run holds over a hundred operations and
# their latencies form one cluster, whose median is steadier than one that
# falls in a gap between clusters.
LARGE_CYCLE = [
    ("file", 60, 3), ("moore42", 9, 0), ("file", 100, 5), ("free", 120, 0),
    ("file", 160, 8), ("file", 80, 4), ("moore42", 10, 0), ("file", 130, 6),
    ("free", 110, 0), ("file", 200, 10),
]


def large_complex(seed: int, workdir: str, cycles: int = 24) -> list[Request]:
    rng = random.Random(seed)
    requests = []
    for c in range(cycles):
        for i, (kind, size, top) in enumerate(LARGE_CYCLE):
            if kind == "file":
                data, k = known.planted_complex(rng, size, top, 2, f"planted-{c}-{i}")
                x = known.write_complex(os.path.join(workdir, f"c{c}-{i}.json"), data, k)
            elif kind == "free":
                x = known.moore(group(size), rng.randint(1, 6))
            else:
                tokens = ["Z/4", "Z/2"] * size
                rng.shuffle(tokens)
                x = known.moore(group(0, [4, 2] * size), rng.randint(1, 6), "+".join(tokens))
            requests.append(_homology_request(x, None, "json"))
    return requests


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

CORPUS_CHECKS = [
    "sphere-formula", "s0-degeneration", "uct-vs-direct", "snf-certificates", "axioms",
    "moore-ses-orders", "page-shape", "hopf-whitney", "cross-path", "torsion-class",
    "single-column",
]


def _corpus_check(out: str):
    got = _json(out)
    if not isinstance(got, list) or [r.get("name") for r in got] != CORPUS_CHECKS:
        return "unexpected check list"
    failed = [r["name"] for r in got if r.get("passed") is not True]
    return f"checks failed: {failed}" if failed else None


def corpus(seed: int, workdir: str) -> list[Request]:
    del seed, workdir  # the corpus fixes its own seeds and writes no inputs
    return [Request(("corpus", "--out", "json"), 0, _corpus_check)]


WORKLOADS = {"verbs": verbs, "large-complex": large_complex, "corpus": corpus}

# per-operation time caps in seconds; an operation past its cap fails
CAPS = {"verbs": 10.0, "large-complex": 60.0, "corpus": 60.0}


def warmup(workdir: str) -> list[Request]:
    """A fixed request per verb, run before timing in every workload."""
    table = os.path.join(workdir, "warmup-table.json")
    _write_table(table, "absolute", True, {"1": "Z", "2": "Z/2", "3": "Z/4", "4": "0"})
    return [Request(argv) for argv in [
        ("homology", "--X", "rp:3"),
        ("cohomology", "--X", "rp:2", "--coefficients", "Z/4", "--out", "json"),
        ("ahomology", "--A", "rp:2", "--X", "sphere:4"),
        ("federer-e2", "--A", "rp:2", "--table", table),
        ("diagonal", "--A", "rp:2", "--table", table, "--n", "1"),
        ("hopf-whitney", "--K", "sphere:3", "--pi", "Z/5"),
        ("moore-ses", "--G", "Z/2", "--m", "1", "--table", table, "--n", "1"),
        ("torsion-check", "--A", "rp:2", "--table", table, "--primes", "2"),
        ("axioms", "--A", "rp:2", "--X", "moore:Z/4:2", "--n", "1"),
    ]]
