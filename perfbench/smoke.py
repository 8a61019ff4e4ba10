#!/usr/bin/env python3
"""Fast smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

For every workload it makes a tiny timed run and a tiny traced run, and checks
that the gate passes and that the last line reports exactly the metrics of
``BENCHMARK.json``, each with its unit.  Then it runs each workload with
``--corrupt``, which falsifies one result, and checks that the gate trips.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args: str) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--tiny", *args]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(args)}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1]), out.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            result, text = run("--workload", w, "--trace", str(trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{w} trace {trace}: metrics {got} != {wanted[trace]}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{w} trace {trace}: gate failed on honest results")
            for name in wanted[trace]:
                if not any(line.split()[:1] == [name] for line in text.splitlines()):
                    problems.append(f"{w} trace {trace}: {name} not printed")
            if trace == 0:
                lines = {line.split()[0] for line in text.splitlines()[:-1] if line.strip()}
                extra = {"failed_ratio"} | ({"rung_s.o660", "rung_s.o3420"} if w == "ladder"
                                            else set())
                problems += [f"{w}: {name} not printed" for name in extra - lines]
        result, _ = run("--workload", w, "--corrupt")
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{w}: a corrupted result did not trip the gate")
        print(f"{w}: ok" if not problems else f"{w}: {len(problems)} problem(s) so far")
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
