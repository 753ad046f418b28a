"""Benchmark for ``tableaux``: one workload, one process, one closed loop.

    python3 benchmarks/run.py --workload strict-formula --seed 1 --seconds 20 --trace 0

Each operation is one command line sent through ``tableaux.cli.main`` in
this process, with its output captured; the next is sent when it returns.
Interpreter start is measured apart, by cold starts of a fresh interpreter
spread through the run.  After the timed phase every reply is checked
against answers computed in ``reference`` (which does not import
``tableaux``).  With ``--trace 1`` the same batch runs with every layer
wrapped (see ``tracing``) and the per-layer metrics are reported instead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw per-operation results, and
with ``--trace 1`` the spans, go to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import (PREDICATES, PathCounter, parse_series,  # noqa: E402
                       series_mismatch)
from workloads import WORKLOADS, Op  # noqa: E402

SRC = HERE.parent / "src"
RESULTS = HERE / "results"
UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}
COLD_STARTS = 9
# calibration_job() time on the reference machine in its faster state, so
# scaled times read as seconds on that machine (see README).
REFERENCE_CALIBRATION_S = 0.007
COLD_REQUEST = ["count", "--graph", "pascal", "--k", "2", "--to", "1,1",
                "--method", "formula"]
COLD_SCRIPT = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import tableaux; from tableaux.cli import main; "
               "sys.exit(main(sys.argv[2:]))")


def cold_start() -> tuple[float, bool]:
    """Fresh interpreter -> import tableaux -> one trivial request answered."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_SCRIPT, str(SRC),
                           *COLD_REQUEST], capture_output=True, text=True,
                          timeout=60)
    elapsed = time.perf_counter() - started
    expected = PathCounter(PREDICATES["pascal"], (0, 0)).count((1, 1))
    return elapsed, proc.returncode == 0 and proc.stdout.strip() == str(expected)


def calibration_job() -> float:
    """Seconds for one fixed pure-Python job shaped like the program's inner
    loops: sparse products of dicts keyed by exponent tuples, with Fraction
    and int coefficients.  It allocates no cycles, so it runs with the
    collector off and its time does not depend on the program's heap."""
    a = {(i, j, 6 - i - j): Fraction(i + 1, j + 2)
         for i in range(7) for j in range(7 - i)}
    b = {(i, j, 4 - i - j): 2 * i - 2 * j - 1
         for i in range(5) for j in range(5 - i)}
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(4):
            out: dict = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    key = tuple(x + y for x, y in zip(e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
        return time.perf_counter() - started
    finally:
        gc.enable()


def call(main, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


def check(op: Op, code: int, out: str, err: str,
          path_counters: dict) -> str | None:
    """None when the reply is right, else why not."""
    what = op.check[0]
    if what == "fault":
        _, vertices, src, dst = op.check
        expected = PathCounter(frozenset(vertices).__contains__, src).count(dst)
        if code == 0 and out.strip() == str(expected):
            return None
        if code == 1 and ("minimum_closed" in err or "coordinate_convex" in err):
            return None
        return f"exit {code}, printed {out.strip()!r}; there are {expected} paths"
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}"
    if what == "count":
        _, graph, src, dst = op.check
        key = (graph, src)
        if key not in path_counters:
            path_counters[key] = PathCounter(PREDICATES[graph], src)
        expected = path_counters[key].count(dst)
        return None if out.strip() == str(expected) else \
            f"printed {out.strip()!r}, reference {expected}"
    if what == "series":
        _, graph, base, bound = op.check
        coeffs, status = parse_series(out)
        if status != "pass":
            return f"conditions {status}"
        return series_mismatch(PREDICATES[graph], base, coeffs, bound)
    if what == "verify":
        identities = op.check[1]
        lines = out.strip().splitlines()
        if len(lines) != len(identities):
            return f"{len(lines)} lines, expected {len(identities)}"
        for line, identity in zip(lines, identities):
            doc = json.loads(line)
            if doc.get("identity") != identity or doc.get("status") != "pass":
                return f"unexpected report {line[:300]}"
        return None
    raise ValueError(f"unknown check {what!r}")


def timings(latencies: list[float], cold_starts: list[float]) -> dict:
    """The end-to-end time metrics, from per-operation and cold-start seconds."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * statistics.quantiles(
            latencies, n=10, method="inclusive")[8],
        "setup_s": statistics.median(cold_starts) if cold_starts else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "tableaux" / "cli.py").is_file():
        print(f"no tableaux sources under {SRC}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](random.Random(args.seed), args.seconds)
    sys.path.insert(0, str(SRC))
    import tableaux.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"imported tableaux from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    cold_at = set() if tracer else {
        (2 * i + 1) * len(ops) // (2 * COLD_STARTS) for i in range(COLD_STARTS)}

    # This shared machine switches between speeds about 2x apart every few
    # seconds.  So each timed step runs between two calibration jobs and its
    # time is scaled to the reference speed by their mean.
    calibration = [calibration_job()]

    def speed() -> float:
        calibration.append(calibration_job())
        return 2 * REFERENCE_CALIBRATION_S / sum(calibration[-2:])

    replies, factors, cold = [], [], []
    for i, op in enumerate(ops):
        if i in cold_at:
            elapsed, ok = cold_start()
            cold.append((elapsed, elapsed * speed(), ok))
        if tracer:
            tracer.request = i
        replies.append(call(cli.main, op.argv))
        factors.append(speed())
    latencies = [reply[3] * f for reply, f in zip(replies, factors)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    path_counters: dict = {}
    records, failed, correct = [], 0, all(ok for _, _, ok in cold)
    for op, (code, out, err, elapsed), latency in zip(ops, replies, latencies):
        try:
            reason = check(op, code, out, err, path_counters)
        except ValueError as exc:  # includes replies that are not JSON
            reason = f"unreadable reply: {exc}"
        if reason is not None:
            failed += 1
            correct = correct and op.exempt
        records.append({"kind": op.kind, "argv": op.argv, "exit": code,
                        "seconds": elapsed, "scaled_seconds": latency,
                        "failure": reason})

    if tracer:
        values = tracer.metrics(factors)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.METRICS}
    else:
        values = {**timings(latencies, [s for _, s, _ in cold]),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in UNITS.items()}
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {**result, "python": platform.python_version(),
              "machine": platform.machine(),
              "unscaled": timings([r[3] for r in replies], [t for t, _, _ in cold]),
              "cold_starts_s": [t for t, _, _ in cold],
              "calibration_s": calibration, "operations": records}
    if tracer:
        detail["self_s"] = tracer.self_times(factors)
        detail["calls"] = dict(tracer.calls)
        tracer.write(RESULTS / f"{stem}.spans.csv")
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    for record in records:
        if record["failure"]:
            print(f"failed: {' '.join(record['argv'])}: {record['failure']}",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
