"""Run the benchmark over several seeds and print every metric's spread.

    python3 bench/spread.py --seeds 0-9 [--workloads embed,cli-explore]
                            [--seconds 20] [--trace 0] [--json out.json]

Each (workload, seed) runs in a fresh process, one after another.  For each
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  End-to-end metrics are checked against the bound in
``BENCHMARK.json``: a spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        report[workload] = {"correct": all(r["correct"] for r in runs), "metrics": {}}
        print(f"\n{workload} ({len(runs)} seeds, correct={report[workload]['correct']})")
        for name, first in runs[0]["metrics"].items():
            stats = summary([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            report[workload]["metrics"][name] = stats
            flag = ""
            if name in bounds and name != "setup_s" and stats["spread"] > bounds[name] / 3:
                flag = f"  spread above a third of the bound {bounds[name]}"
                steady = False
            print(f"  {name:44s} {stats['median']:12.6g} {first['unit']:6s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"spread {stats['spread']:.4f}{flag}")
            print("      values " + " ".join(f"{v:.6g}" for v in stats["values"]))
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
