"""Record a change's and its parent's benchmark numbers in a BENCH_<pr>.json file.

    python3 scripts/bench_record.py BENCH_28.json path/to/parent/checkout
    python3 scripts/bench_record.py --trend throughput_per_kref

Runs ``bench/run.py`` of both checkouts, the parent given and the change
holding this script, for 30 s untraced on each workload and seed 1-5, then
traced once on ``verbs`` and ``corpus``, one run at a time.  The two
checkouts alternate run by run: per seed the parent runs first on odd seeds
and the change first on even ones, and the two traced runs take turns the
same way, so that drift of the host falls on both sides of each pair.  For
each of ``parent`` and ``change`` the file holds the commit, the Python
version, the CPU count, the seeds, the run length, each run's last-line JSON
object and the median of each metric over the seeds.  The seeds and run
length are fixed here, so that files compare across commits.

With ``--trend METRIC`` it records nothing: it prints one line per
``BENCH_<pr>.json`` beside ``scripts/``, in PR order, with the parent and
change medians of METRIC on each workload.  A metric that no file holds
exits 2.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("verbs", "large-complex", "corpus")
TRACED = ("verbs", "corpus")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 30
NOTES = {
    "verbs.peak_rss_mib": "follows the operation count: bench/run.py keeps every answer until "
                          "the run ends; over the 40 verbs runs of BENCH_26-29 it is 29.0 MiB "
                          "+ 0.611 KiB per operation (r = 0.998), so a faster program reads "
                          "as using more memory",
    "large-complex.peak_rss_mib": "follows the operation count the same way: over the 40 "
                                  "large-complex runs of BENCH_26-29 it is 20.8 MiB + 0.533 "
                                  "KiB per operation (r = 0.994)",
    "traced": "per-op counts average over the prefix of the input cycle that the traced "
              "half of the run reaches, not over whole cycles",
}


def last_line(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def paired(checkouts: dict[str, Path], workload: str, turn: int, seed: int,
           trace: int) -> dict[str, dict]:
    """One run of each checkout, the parent first when `turn` is odd."""
    order = list(checkouts) if turn % 2 else list(checkouts)[::-1]
    return {label: last_line(checkouts[label], workload, seed, trace) for label in order}


def medians(runs: list[dict]) -> dict[str, float]:
    return {name: statistics.median(run["metrics"][name]["value"] for run in runs)
            for name in runs[0]["metrics"]}


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True,
                          check=True).stdout


def trend(metric: str, root: Path) -> int:
    """Print the parent and change medians of `metric` per BENCH file under root."""
    files = sorted(root.glob("BENCH_*.json"), key=lambda p: int(p.stem.removeprefix("BENCH_")))
    records = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in files}
    known = {name for data in records.values() for side in data.values()
             for runs in side["untraced"].values() for name in runs["median"]}
    if metric not in known:
        print(f"unknown metric {metric!r}; the BENCH files hold {', '.join(sorted(known))}",
              file=sys.stderr)
        return 2
    for stem, data in records.items():
        cells = []
        for w in WORKLOADS:
            values = [data[side]["untraced"].get(w, {}).get("median", {}).get(metric)
                      for side in ("parent", "change")]
            cells.append(f"{w} " + " -> ".join("-" if v is None else f"{v:.4g}" for v in values))
        print(stem, *cells, sep="  ")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--trend":
        return trend(argv[1], Path(__file__).resolve().parent.parent)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    checkouts = {"parent": Path(argv[1]), "change": Path(__file__).resolve().parent.parent}
    untraced = {w: [paired(checkouts, w, s, s, 0) for s in SEEDS] for w in WORKLOADS}
    traced = {w: paired(checkouts, w, turn, SEEDS[0], 1) for turn, w in enumerate(TRACED, 1)}
    data = {}
    for label, checkout in checkouts.items():
        runs = {w: [pair[label] for pair in pairs] for w, pairs in untraced.items()}
        data[label] = {
            "commit": git(checkout, "rev-parse", "HEAD").strip(),
            "modified": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "seeds": list(SEEDS),
            "seconds": SECONDS,
            "notes": NOTES,
            "untraced": {w: {"runs": r, "median": medians(r)} for w, r in runs.items()},
            "traced": {w: pair[label] for w, pair in traced.items()},
        }
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
