"""Tests for the benchmark's own code: generator, oracle, checkers, tracer.

Run with ``python3 -m pytest -q bench/tests`` from the repository root.
"""

import random
import re
import statistics
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import calibrate  # noqa: E402
import groups  # noqa: E402
import known  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ahom import abelian, chains, cli, corpus  # noqa: E402
from ahom.abelian import parse_group  # noqa: E402
from ahom.spaces import build, parse_recipe  # noqa: E402


def test_group_arithmetic():
    g = groups.group(1, [2, 6, 4])
    assert g.render() == "Z + Z/2 + Z/2 + Z/12"
    assert groups.parse("Z + Z/2 + Z/2 + Z/12") == g
    assert groups.hom(groups.group(0, [4]), groups.group(0, [6])) == groups.group(0, [2])
    assert groups.ext(groups.group(0, [4]), groups.Z) == groups.group(0, [4])
    assert groups.group(0, [2, 3]) == groups.group(0, [6])
    assert groups.group(0, [4, 6]).exponent() == 12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_complexes_are_valid_and_match_the_oracle(seed):
    rng = random.Random(seed)
    for cells, top in [(20, 3), (30, 4), (24, 5)]:
        data, k = known.planted_complex(rng, cells, top, 2, f"planted-{seed}")
        c = chains.complex_from_json(data)  # validates shapes and d*d = 0
        assert c.ranks == k.ranks
        bits = max(abs(x).bit_length() for m in data["boundaries"].values()
                   for row in m for x in row)
        assert bits > 1  # the basis changes did mix
        for n in range(c.top_degree + 2):
            assert groups.parse(str(chains.homology(c, n))) == k.h(n)


def test_recipe_oracle_agrees_with_ahom():
    spaces = [known.rp(5), known.rp(6), known.sphere(3),
              known.moore(groups.group(1, [2, 6]), 2, "Z/6+Z+Z/2")]
    coefficients = [groups.Z, groups.group(0, [4]), groups.group(1, [6])]
    built = {s.recipe: build(parse_recipe(s.recipe)) for s in spaces}
    for s in spaces:
        c = built[s.recipe]
        assert c.top_degree == s.top
        for g in coefficients:
            for n in range(s.top + 2):
                got = chains.cohomology_uct(c, n, parse_group(g.render()))
                assert groups.parse(str(got)) == known.cohomology(s, n, g)
    from ahom.ahomology import a_homology
    for a in spaces[:3]:
        for x in spaces:
            for n in range(x.top + 2):
                got = a_homology(built[a.recipe], built[x.recipe], n)
                assert groups.parse(str(got)) == known.a_homology(a, x, n)


def _answers(requests):
    return [run.run_op(cli, i, r.argv, 10.0) for i, r in enumerate(requests)]


def test_verbs_answers_pass_their_checks(tmp_path):
    requests = workloads.verbs(5, str(tmp_path), blocks=1)
    assert len(requests) == 100
    assert sum(r.code != 0 for r in requests) == 5
    assert run.check_ops(_answers(requests), requests) == {}


def test_large_complex_answers_pass_their_checks(tmp_path):
    requests = workloads.large_complex(5, str(tmp_path), cycles=1)[:4]
    assert run.check_ops(_answers(requests), requests) == {}


def _plus_z13(op) -> bool:
    """Add a Z/13 summand to the first group-valued answer in op.out."""
    if op.out.lstrip().startswith(("{", "[")):
        pattern = r'("(?:group|left|ext_part|\d+)": ")(0|Z[^"]*)(")'
    else:
        pattern = r"^(.*(?:\) =| vs|part =) )(0|Z.*?)()$"
    wrong = re.sub(pattern, r"\1\2 + Z/13\3", op.out, count=1, flags=re.M)
    changed, op.out = wrong != op.out, wrong
    return changed


def test_checks_reject_wrong_answers(tmp_path):
    requests = workloads.verbs(6, str(tmp_path), blocks=1)
    ops = _answers(requests)
    mutated = [op for op in ops if requests[op.index].code == 0 and _plus_z13(op)]
    assert len(mutated) > 60
    assert set(run.check_ops(mutated, requests)) == {op.index for op in mutated}
    refused = next(i for i, r in enumerate(requests) if r.code == 1)
    ops[refused].code = 0
    assert refused in run.check_ops(ops, requests)


def test_escaped_exceptions_and_time_outs_fail_the_operation():
    def main(argv):
        if argv[0] == "raise":
            raise RuntimeError("Smith reduction failed to converge")
        time.sleep(5)
    fake = types.SimpleNamespace(main=main)
    raised = run.run_op(fake, 0, ["raise"], 1.0)
    assert raised.code is None and "RuntimeError" in raised.error
    t0 = time.perf_counter()
    slow = run.run_op(fake, 1, ["sleep"], 0.05)
    assert slow.code is None and "time-out" in slow.error
    assert time.perf_counter() - t0 < 1.0


def test_meter_measures_cost_in_reference_units():
    def main(argv):
        sum(i * i for i in range(int(argv[0])))
        return 0
    fake = types.SimpleNamespace(main=main)
    requests = [workloads.Request(("20000",)), workloads.Request(("200000",))]
    meter = calibrate.Meter()
    meter.start()
    try:
        ops, elapsed = run.timed_phase(fake, requests, 1.0, 1.0, meter)
    finally:
        meter.stop()
    assert elapsed >= 1.0 and len(ops) > 2
    # the reference ran inside operations too, about every PERIOD CPU seconds
    assert len(meter.samples) >= calibrate.WINDOW + 0.8 / calibrate.PERIOD / 2
    assert all(op.cost > 0 for op in ops)
    small, large = ops[0::2], ops[1::2]
    ratio = statistics.median(op.cost for op in large) / statistics.median(op.cost for op in small)
    assert 5 < ratio < 20
    values = run.end_to_end(ops, {}, elapsed, meter.samples)
    assert values["latency_p50_ref"] == statistics.median(op.cost for op in ops)
    assert values["throughput_per_kref"] == pytest.approx(1000 * len(ops) / sum(op.cost for op in ops))
    failed = run.end_to_end(ops, {ops[0].index: "wrong"}, elapsed, meter.samples)
    assert failed["throughput_per_kref"] < values["throughput_per_kref"]
    assert failed["failed_share"] == 1 / len(ops)


def test_reference_computation_is_fixed():
    assert calibrate._checksum() == calibrate.EXPECTED
    assert calibrate.reference() > 0


def _originals():
    out = {}
    for name, mod in sys.modules.items():
        if name.startswith("ahom."):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    out["of"] = vars(abelian.FgAbGroup)["of"]
    out["matmul"] = vars(abelian.IntMatrix)["__matmul__"]
    out["checks"] = corpus.ALL_CHECKS
    return out


def test_traced_outputs_are_identical_and_wrappers_are_removed(tmp_path):
    requests = workloads.verbs(7, str(tmp_path), blocks=1)[:60]
    requests += workloads.large_complex(7, str(tmp_path), cycles=1)[:2]
    before = _originals()
    plain = _answers(requests)
    tracer = tracing.Tracer()
    tracer.install()
    assert chains.kernel_basis is not before[("ahom.chains", "kernel_basis")]
    assert corpus.snf is not before[("ahom.corpus", "snf")]
    try:
        traced = _answers(requests)
    finally:
        tracer.uninstall()
    assert [(o.code, o.out) for o in traced] == [(o.code, o.out) for o in plain]
    assert _originals() == before
    summary = tracer.summary(len(requests))
    assert summary["chains.homology.calls"] > 0
    assert 0 < summary["chains.homology.distinct_ratio"] <= 1
    assert summary["abelian.snf.rounds"] >= 1
    assert summary["abelian.snf.self_s"] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrap("chains.child", child)

    def parent():
        time.sleep(0.01)
        traced_child()

    tracer.wrap("cli.parent", parent)()
    names = [tracer.names[i] for i in tracer.name]
    p, c = names.index("cli.parent"), names.index("chains.child")
    assert tracer.parent[c] == p and tracer.parent[p] == -1
    assert 0.005 < tracer.self_time[p] < 0.02
    assert tracer.self_time[c] >= 0.02
