#!/usr/bin/env python3
"""Benchmark for hurwitzdegen: workloads ``ladder``, ``strata`` and ``batch``.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py          # every workload, each in its own child process

Run from the repository root.  Each workload is one closed-loop client in one
single-threaded process.  ``--trace 0`` times a fixed plan of passes over
the workload's inputs, sized to take about ``--seconds``, and reports the
end-to-end metrics, every time host-adjusted (see ``hostclock``); ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics.
Human-readable tables come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Work files go to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
NAMES = ("ladder", "strata", "batch")
SETUP_SAMPLES = 7
LIMIT_S = 120           # a run must end within 180 s, set-ups included

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "op_ms.p50": "ms", "op_ms.p95": "ms", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_canonical", "_per_found")):
        return "ratio"
    return "count"


def load_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hurwitzdegen
    import workloads
    if Path(hurwitzdegen.__file__).resolve().parent != SRC / "hurwitzdegen":
        raise SystemExit(f"perfbench: imported hurwitzdegen from {hurwitzdegen.__file__}")
    return workloads


def setup(args, workdir: Path):
    """Import plus building the inputs from the seed: the timed set-up,
    host-adjusted like every timing (see ``hostclock``)."""
    def build():
        workloads = load_package()
        return workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
    workload, _, adjusted = hostclock.HostClock().time(build)
    return adjusted, workload


def probe_setup(args) -> float:
    """One more set-up in a fresh interpreter, the way a user pays for it."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def nearest_rank(values: list[float], q: float) -> float:
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def measure(workload, seconds: float, corrupt: bool) -> list:
    """A fixed number of passes over every input.

    The number depends only on the workload and ``seconds``, so one seed
    always does the same work and ``attempted`` and ``failed`` repeat exactly.
    It is sized from the workload's typical pass time to take about
    ``seconds``.  Only a very slow run stops early, past ``LIMIT_S``.
    """
    clock = hostclock.HostClock()
    start = perf_counter()
    passes = []
    for _ in range(max(1, round(seconds / workload.pass_s))):
        if passes and perf_counter() - start > LIMIT_S:
            print(f"perfbench: stopped after {len(passes)} passes and {LIMIT_S} s")
            break
        passes.append(workload.run_pass(corrupt=corrupt and not passes, clock=clock))
    return passes


def failure_summary(passes) -> tuple[int, int, bool]:
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    # a known-defect failure counts as failed but is not a wrong result
    correct = all(known for _, _, known in failures)
    return attempted, len(failures), correct


def print_failures(passes) -> None:
    seen = set()
    for p in passes:
        for label, reason, known in p.failures:
            if (label, reason) not in seen:
                seen.add((label, reason))
                tag = "known defect" if known else "FAILED"
                print(f"  {tag}: {label}: {reason}")


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")


def latencies_by_input(passes) -> dict[str, tuple[list[float], list[float]]]:
    """Each input's (measured, host-adjusted) samples over the run."""
    by_label: dict[str, tuple[list[float], list[float]]] = {}
    for p in passes:
        for label, dt, adjusted in p.latencies:
            measured, adj = by_label.setdefault(label, ([], []))
            measured.append(dt)
            adj.append(adjusted)
    return by_label


def workload_table(workload, by_label: dict, latency: dict[str, float]) -> dict:
    """Per-input medians; on ladder, each rung's seconds next to its |G|."""
    extra = {}
    if workload.name == "ladder":
        print("  rung             |G|  samples  measured: least s  median s  adjusted: median s")
        orders = {label: exp["group_order"]
                  for (label, _), exp in zip(workload.items, workload.expected)}
        for label, (times, _) in by_label.items():
            print(f"  {label:<14} {orders[label]:>5}  {len(times):>7}  {min(times):>17.4f}"
                  f"  {statistics.median(times):>8.4f}  {latency[label]:>18.4f}")
        for rung in ("o660", "o3420"):
            extra[f"rung_s.{rung}"] = sum(t for label, t in latency.items()
                                          if label.startswith(rung + "."))
    else:
        groups: dict[str, list[tuple[float, float]]] = {}
        for label, (times, _) in by_label.items():
            parts = label.split(".")
            key = ".".join([parts[0], parts[-1].rstrip("0123456789")]).rstrip(".")
            groups.setdefault(key, []).append((statistics.median(times), latency[label]))
        print("  inputs       inputs  median latency, ms: measured  adjusted")
        for key, rows in sorted(groups.items()):
            print(f"  {key:<14} {len(rows):>5}  "
                  f"{1000 * statistics.median(m for m, _ in rows):>25.3f}"
                  f"  {1000 * statistics.median(a for _, a in rows):>8.3f}")
    return extra


def run_timed(args, workload, setup_samples: list[float]) -> dict:
    """End-to-end metrics of one timed run.

    Each input's latency is the median of its host-adjusted samples in the run
    (see ``hostclock``).  wall_s is one pass with every input once, the sum of
    those latencies; the percentiles are nearest-rank over them.
    """
    passes = measure(workload, args.seconds, args.corrupt)
    attempted, failed, correct = failure_summary(passes)
    by_label = latencies_by_input(passes)
    latency = {label: statistics.median(adj) for label, (_, adj) in by_label.items()}
    wall = sum(latency.values())
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "ops_per_s": passes[0].units / wall,
        "op_ms.p50": 1000 * nearest_rank(list(latency.values()), 0.50),
        "op_ms.p95": 1000 * nearest_rank(list(latency.values()), 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = sum(len(v) for v, _ in by_label.values())
    measured = sum(p.seconds for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} (first "
          f"{passes[0].seconds:.2f} s measured)  inputs {len(by_label)}  "
          f"latency samples {samples}  set-up samples {len(setup_samples)}")
    print(f"  measured {measured:.2f} s in operations; host-adjusted "
          f"{sum(sum(a) for _, a in by_label.values()):.2f} s")
    extra = workload_table(workload, by_label, latency)
    extra["failed_ratio"] = failed / attempted
    print_failures(passes)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    shown = dict(metrics)
    shown.update({k: {"value": v, "unit": "ratio" if k == "failed_ratio" else "s"}
                  for k, v in extra.items()})
    print_metrics("end-to-end metrics", shown)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


SIZE_COLUMNS = ("group_order", "classes", "cover_components", "cover_nodes", "edge_orbits")


def print_sizes(ops: list[dict]) -> None:
    """Sizes of each traced operation (the largest per kind when there are many)."""
    rows: dict[str, dict] = {}
    for op in ops:
        key = op["label"] if len(ops) <= 40 else op["kind"]
        row = rows.setdefault(key, {"ops": 0, "seconds": 0.0})
        row["ops"] += 1
        row["seconds"] += op["seconds"]
        for col in SIZE_COLUMNS:
            row[col] = max(row.get(col, 0), op["sizes"].get(col, 0))
    print("  op                ops    |G| classes  comps  nodes orbits  traced s")
    for key, row in rows.items():
        print(f"  {key:<15} {row['ops']:>5} {row['group_order']:>6} {row['classes']:>7} "
              f"{row['cover_components']:>6} {row['cover_nodes']:>6} {row['edge_orbits']:>6}"
              f"  {row['seconds']:.4f}")


def run_traced(args, workload) -> dict:
    import spans
    untraced = workload.run_pass()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(tracer=tracer)
    finally:
        tracer.uninstall()
    attempted, failed, correct = failure_summary([untraced, traced])
    values = tracer.metrics(getattr(workload, "kept_ratio", 0.0))
    values["trace.untraced_s"] = untraced.seconds
    values["trace.traced_s"] = traced.seconds
    values["trace.overhead_s"] = traced.seconds - untraced.seconds
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "metrics": values})
    print(f"workload {args.workload}  seed {args.seed}  traced ops {len(tracer.ops)}  "
          f"spans {len(tracer.spans)}  written to {path.relative_to(ROOT)}")
    print_sizes(tracer.ops)
    print_failures([untraced, traced])
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    print_metrics("per-layer metrics (traced pass)", metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_workload(args) -> int:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_s, workload = setup(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workload.prepare()
        if args.trace:
            result = run_traced(args, workload)
        else:
            samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            result = run_timed(args, workload, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, so each peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] if args.tiny else []
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke check")
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify one result, to show the correctness gate trips")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "hurwitzdegen" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    os.chdir(ROOT)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
