"""Record one checkout's benchmark numbers in a BENCH_<pr>.json file.

    python3 scripts/bench_record.py BENCH_26.json change
    python3 scripts/bench_record.py BENCH_26.json parent path/to/parent/checkout

Runs ``bench/run.py`` of the checkout (by default the one holding this
script) for 30 s untraced on each workload and seed 1-5, then traced once
on ``verbs`` and ``corpus``, one run at a time.  The record of the commit,
the Python version, the CPU count, the seeds, the run length, each run's
last-line JSON object and the median of each metric over the seeds is stored
under the label, beside any other label the file already holds.  The seeds
and run length are fixed here, so that files compare across commits.
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
                          "the run ends, about 0.47 KiB per verbs operation, so a faster "
                          "program reads as using more memory",
    "traced": "per-op counts average over the prefix of the input cycle that the traced "
              "half of the run reaches, not over whole cycles",
}


def last_line(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def medians(runs: list[dict]) -> dict[str, float]:
    return {name: statistics.median(run["metrics"][name]["value"] for run in runs)
            for name in runs[0]["metrics"]}


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    out, label = Path(argv[0]), argv[1]
    checkout = Path(argv[2] if len(argv) == 3 else Path(__file__).resolve().parent.parent)
    git = ["git", "-C", str(checkout)]
    commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                            check=True).stdout.strip()
    modified = bool(subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, check=True).stdout)
    untraced = {w: [last_line(checkout, w, s, 0) for s in SEEDS] for w in WORKLOADS}
    traced = {w: last_line(checkout, w, SEEDS[0], 1) for w in TRACED}
    record = {
        "commit": commit,
        "modified": modified,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "notes": NOTES,
        "untraced": {w: {"runs": runs, "median": medians(runs)} for w, runs in untraced.items()},
        "traced": traced,
    }
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data[label] = record
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
