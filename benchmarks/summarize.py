"""Summarize the per-run files in benchmarks/results/.

    python3 benchmarks/summarize.py

For each workload: the median and the spread (interquartile range over
median) of every end-to-end metric across the untraced runs, scaled and
unscaled; and for each traced run, every layer's share of traced self time
and how much slower it ran than the untraced run of the same seed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(RESULTS.glob("*-seed*-trace*.json")):
        workload, _, rest = path.stem.rpartition("-seed")
        seed, _, trace = rest.partition("-trace")
        doc = json.loads(path.read_text())
        doc["seed"] = int(seed)
        runs[workload, int(trace)].append(doc)

    for (workload, trace), docs in sorted(runs.items()):
        if trace:
            continue
        print(f"{workload}: {len(docs)} untraced runs, "
              f"attempted {sorted({d['attempted'] for d in docs})}, "
              f"failed {sorted({d['failed'] for d in docs})}, "
              f"correct {sorted({d['correct'] for d in docs})}")
        for name in docs[0]["metrics"]:
            values = [d["metrics"][name]["value"] for d in docs]
            line = f"  {name:15s} {statistics.median(values):10.4g}"
            if len(docs) >= 2:
                line += f"  spread {spread(values):.3f}"
            raw = [d["unscaled"].get(name) for d in docs]
            if None not in raw:
                line += f"  | unscaled {statistics.median(raw):10.4g}"
                if len(docs) >= 2:
                    line += f"  spread {spread(raw):.3f}"
            print(line)

    for (workload, trace), docs in sorted(runs.items()):
        if not trace:
            continue
        untraced = {d["seed"]: d for d in runs[workload, 0]}
        for doc in docs:
            total = sum(doc["self_s"].values())
            line = f"{workload} seed {doc['seed']}: traced self time {total:.2f} s"
            if doc["seed"] in untraced:
                plain = sum(op["scaled_seconds"]
                            for op in untraced[doc["seed"]]["operations"])
                traced = sum(op["scaled_seconds"] for op in doc["operations"])
                line += f", {traced / plain:.3f}x the untraced run"
            print(line)
            for name, value in sorted(doc["self_s"].items(), key=lambda kv: -kv[1]):
                if value >= 0.001 * total:
                    print(f"  {name:42s} {100 * value / total:5.1f}%")


if __name__ == "__main__":
    main()
