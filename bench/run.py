"""Benchmark harness for ahom: one process, one client, closed loop.

    python3 bench/run.py --workload verbs --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each operation is one in-process ``ahom.cli.main(argv)`` call with stdout
and stderr captured.  The run sets up (imports ahom afresh, writes the
workload's inputs under ``.bench_work/``, runs a fixed warm-up) five
times and reports the median as ``setup_s``, measured like operations (see
below) and given in seconds at the reference's nominal speed;
then it issues operations until ``--seconds`` have passed, then checks
every captured answer.  An operation fails on a wrong answer, a wrong exit
code, an escaped exception or a time-out.

Untraced, a :class:`calibrate.Meter` measures the cost of each operation in
reference units, which a change of the host's speed moves far less than
wall-clock time; wall-clock figures are printed on the text lines only.

With ``--trace 1`` the first half of the time runs untraced and the second
half under :class:`tracing.Tracer`, both without the meter, so that no
reference run falls inside a span; the per-layer metrics come from the
traced half and ``trace.overhead_ratio`` is untraced over traced
throughput.  Operations run in both halves must print identical bytes.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the ``end_to_end`` metrics of
BENCHMARK.json (untraced) or its ``per_layer`` metrics (traced).  The lines
before it list those and every other measured metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WARMUP_CAP = 2.0  # seconds; bounds the run even if warm-up requests hang

# Units of the metrics printed on the text lines only: the ones BENCHMARK.json
# cannot hold (failed_share is 0 at the seed and the p90 latencies need 100
# operations, which corpus runs never reach), the wall-clock figures, which
# move with the host's speed by more than any bound, and self times of layers
# some workload never enters, which would read exactly 0 on every run of it.
TEXT_UNITS = {"failed_share": "ratio", "latency_p90_ms": "ms", "latency_p90_ref": "ref",
              "throughput_ops_s": "1/s", "latency_p50_ms": "ms", "reference_ms": "ms",
              "setup_wall_s": "s"}


def _unit(name: str, spec: dict[str, str]) -> str:
    if name in spec:
        return spec[name]
    return TEXT_UNITS.get(name, "count/op" if name.endswith(".calls") else "s/op")


class OpTimeout(BaseException):
    """Raised by the interval timer inside an operation past its cap.

    A BaseException, so that no ``except Exception`` in the program
    swallows it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Op:
    index: int
    latency: float  # wall-clock seconds
    code: int | None  # None when the call raised or timed out
    out: str
    error: str = ""
    cost: float = 0.0  # work in reference units (see calibrate.Meter)


def _call(cli, argv, cap: float):
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue()


def run_op(cli, index: int, argv, cap: float) -> Op:
    t0 = perf_counter()
    try:
        code, out = _call(cli, argv, cap)
    except OpTimeout:
        return Op(index, perf_counter() - t0, None, "", f"time-out after {cap} s")
    except Exception as exc:  # an escaped exception is a failed operation
        return Op(index, perf_counter() - t0, None, "", f"raised {exc!r}")
    return Op(index, perf_counter() - t0, code, out)


def timed_phase(cli, requests, seconds: float, cap: float,
                meter: calibrate.Meter | None = None,
                tracer=None) -> tuple[list[Op], float]:
    """Issue requests in order, one at a time, until `seconds` have passed.

    With a started `meter`, each operation's ``cost`` is the meter's advance
    across it.  Returns the operations and the wall-clock seconds they took.
    """
    ops = []
    t_start = perf_counter()
    while not ops or perf_counter() - t_start < seconds:
        i = len(ops)
        if tracer is not None:
            tracer.current_op = i
        w0 = meter.read() if meter else 0.0
        op = run_op(cli, i, requests[i % len(requests)].argv, cap)
        op.cost = meter.read() - w0 if meter else 0.0
        ops.append(op)
    return ops, perf_counter() - t_start


def check_ops(ops: list[Op], requests) -> dict[int, str]:
    """The problem found in each failed operation, by operation index."""
    problems = {}
    for op in ops:
        req = requests[op.index % len(requests)]
        if op.code is None:
            problem = op.error
        elif op.code != req.code:
            problem = f"exit {op.code}, expected {req.code}"
        elif req.check:
            try:
                problem = req.check(op.out)
            except Exception as exc:  # output the checker cannot even read
                problem = f"unreadable output: {exc!r}"
        else:
            problem = None
        if problem:
            problems[op.index] = f"{' '.join(req.argv)}: {problem}"
    return problems


def _fresh_cli():
    for name in [m for m in sys.modules if m == "ahom" or m.startswith("ahom.")]:
        del sys.modules[name]
    return importlib.import_module("ahom.cli")


def setup(workload: str, seed: int, workdir: Path):
    """Import ahom, write the inputs and warm up; returns (cli, requests)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    cli = _fresh_cli()
    requests = workloads.WORKLOADS[workload](seed, str(workdir))
    for req in workloads.warmup(str(workdir)):
        run_op(cli, 0, req.argv, WARMUP_CAP)
    return cli, requests


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def end_to_end(ops: list[Op], problems: dict, elapsed: float,
               refs: list[float]) -> dict[str, float]:
    """Wall-clock figures, and costs in reference units (ref)."""
    # a failed operation misses every latency limit
    wall = [math.inf if op.index in problems else op.latency * 1000 for op in ops]
    cost = [math.inf if op.index in problems else op.cost for op in ops]
    done = len(ops) - len(problems)
    values = {
        "throughput_per_kref": done / sum(op.cost for op in ops) * 1000,
        "latency_p50_ref": statistics.median(cost),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_share": len(problems) / len(ops),
        "throughput_ops_s": done / elapsed,
        "latency_p50_ms": statistics.median(wall),
        "reference_ms": statistics.median(refs) * 1000,
    }
    if len(ops) >= 100:  # at least ten samples beyond the 90th percentile
        values["latency_p90_ref"] = percentile(cost, 0.9)
        values["latency_p90_ms"] = percentile(wall, 0.9)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in workloads.WORKLOADS:
            print(f"== {name}", flush=True)
            child = subprocess.run([sys.executable, __file__, "--workload", name,
                                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], check=False)
            code = code or child.returncode
        return code

    if not (ROOT / "src" / "ahom" / "cli.py").is_file():
        print(f"error: no ahom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    cap = workloads.CAPS[args.workload]
    # the meter runs through set-up as well, whose work it measures too
    meter = calibrate.Meter()
    meter.start()
    try:
        setups, setup_walls = [], []
        for _ in range(SETUP_REPEATS):
            t0, w0 = perf_counter(), meter.read()
            cli, requests = setup(args.workload, args.seed, workdir)
            setups.append(meter.read() - w0)
            setup_walls.append(perf_counter() - t0)
        if not cli.__file__.startswith(str(ROOT / "src")):
            print(f"error: imported ahom from {cli.__file__}", file=sys.stderr)
            return 2
        if not args.trace:
            ops, elapsed = timed_phase(cli, requests, args.seconds, cap, meter)
    finally:
        meter.stop()

    if not args.trace:
        problems = check_ops(ops, requests)
        values = end_to_end(ops, problems, elapsed, meter.samples)
        values["setup_s"] = statistics.median(setups) * calibrate.NOMINAL_SECONDS
        values["setup_wall_s"] = statistics.median(setup_walls)
        attempted, failed = len(ops), len(problems)
        problems = [f"op {i} {p}" for i, p in problems.items()]
    else:
        plain, plain_elapsed = timed_phase(cli, requests, args.seconds / 2, cap)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_elapsed = timed_phase(cli, requests, args.seconds / 2, cap,
                                                 tracer=tracer)
        finally:
            tracer.uninstall()
        traced_problems = check_ops(traced, requests)
        for a, b in zip(plain, traced):
            if (a.out, a.code) != (b.out, b.code) and b.index not in traced_problems:
                traced_problems[b.index] = "traced output differs from untraced"
        problems = [f"untraced op {i} {p}" for i, p in check_ops(plain, requests).items()]
        problems += [f"traced op {i} {p}" for i, p in traced_problems.items()]
        attempted, failed = len(plain) + len(traced), len(problems)
        values = tracer.summary(len(traced))
        values["trace.overhead_ratio"] = (len(plain) / plain_elapsed) / (len(traced) / traced_elapsed)
        tracer.write(str(ROOT / ".bench_work" / f"trace-{args.workload}.tsv"))
    shutil.rmtree(workdir, ignore_errors=True)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = {m["name"]: m["unit"]
                for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, {failed} failed")
    for name in list(spec) + sorted(set(values) - set(spec)):
        print(f"  {name:40s} {values.get(name, 0.0):14.6f} {_unit(name, spec)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
