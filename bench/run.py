"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload embed --seed 0 --seconds 30 --trace 0

The run starts WORKERS fresh interpreters (TRACE_WORKERS when tracing)
one after another and gives each an equal share of `--seconds`.

A worker imports boolps, builds the workload's inputs and then runs its
operations in a fixed order, as one round, until its share of the time has
passed.  Every round rebuilds its inputs from text and runs a full garbage
collection before each operation, outside the timed region, so no cache of
the program carries over from one round to the next.  Each result is
checked against an answer built into the input; its output digest must
match the first round's, every other worker's and, on the default seed,
the digest recorded from the seed commit in ``golden.json``.  A failed
check counts against the pass ratio; it never stops the run.

Times are reported in reference seconds.  On a shared host the speed of
the machine drifts by 30-70% within a minute, for every process alike, so
raw wall times of the same code spread too far to compare two commits.
Each operation is therefore bracketed by two runs of `reference_work`, a
fixed pure-Python loop that is no part of the program, and its wall time
is scaled by REF_S over the mean of those two; set-up time is scaled the
same way by the reference time measured right after it.  A reference
second is the time the host takes for REF_S worth of reference work: a
change to the program moves it as it moves wall time, a change in the
host's speed moves it far less.  Raw wall times go to stderr.

Each operation's time is the median over all rounds of all workers.
With ``--trace 0`` the line holds the end-to-end metrics: the time of one
round (`wall_s`, the sum of the operation times), the median operation
time over every timed operation of the run (`op_s.p50`), the median time from spawning a worker until its inputs
are built (`setup_s`), the median peak resident memory of a worker, and
the share of operations that passed (`pass_ratio`; `failed` and
`attempted` give its base).  With ``--trace 1`` each worker alternates
plain and traced rounds, and the line holds the median per-layer metrics
of the traced rounds (see ``tracer.py``, raw seconds) plus the tracing
overhead: the round time of traced rounds minus that of plain ones, in
reference seconds.  The spans of the last traced round are written to
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORKLOADS = ("embed", "solve-direct", "cli-explore")
DEFAULT_SEED = 0
WORKERS = 3
TRACE_WORKERS = 3
# About the time of one `reference_work` call on the host the benchmark was
# written on (2 vCPUs of a 2.1 GHz Xeon, Python 3.11); any fixed value would
# do, since only ratios between runs are compared.
REF_S = 0.015
RUN_LIMIT_S = 170  # a run must end within 180 s


def import_program():
    """Import boolps from the checkout's own source tree, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import boolps
    except ImportError as exc:
        sys.exit(f"cannot import boolps from {SRC}: {exc}")
    if not Path(boolps.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"boolps was imported from {boolps.__file__}, not from {SRC}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- worker ---------------------------------------------------------------------


def reference_work() -> int:
    """A fixed pure-Python loop of the kinds of work boolps does (integer
    arithmetic, small tuples and frozensets, dict updates).  It is no part
    of the program and never changes, so its time measures the host."""
    total = 0
    seen = {}
    for i in range(25_000):
        key = frozenset((i % 37, i % 11, i % 5))
        pair = (key, i & 7)
        seen[pair] = seen.get(pair, 0) + 1
        total += i * i % 7 + len(key)
    return total + len(seen)


def reference_time() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def run_rounds(ops, calls, seconds, tracer, log):
    """Run rounds until `seconds` have passed, alternating plain and traced
    rounds when a tracer is given.  A new round starts while at least half
    of the last round's time is left, and there is always one round (one
    plain and one traced when tracing)."""
    record = {"plain": {op.name: [] for op in ops}, "traced": {op.name: [] for op in ops},
              "layers": [], "rounds": 0, "attempted": 0, "failed": 0, "digests": {}}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        started = time.perf_counter()
        tracing = tracer is not None and index % 2 == 1
        if tracing:
            tracer.reset()
            tracer.install()
        total = scaled = 0.0
        try:
            for position, op in enumerate(ops):
                call = calls[position] if index == 0 else op.prepare()
                gc.collect()
                before = reference_time()
                scope = tracer.operation(op.name) if tracing else contextlib.nullcontext()
                with scope:
                    start = time.perf_counter()
                    try:
                        result, error = call(), ""
                    except Exception:  # a crash is a failed operation, not a failed run
                        result, error = None, traceback.format_exc()
                    elapsed = time.perf_counter() - start
                del call
                elapsed_ref = elapsed * REF_S * 2 / (before + reference_time())
                total += elapsed
                scaled += elapsed_ref
                record["traced" if tracing else "plain"][op.name].append(elapsed_ref)
                record["attempted"] += 1
                reason = error or op.check(result)
                if not reason:
                    got = digest(op.output(result))
                    if record["digests"].setdefault(op.name, got) != got:
                        reason = "output differs from the first round's"
                if reason:
                    record["failed"] += 1
                    log(f"FAIL round {index} {op.name}: {reason}")
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            record["layers"].append(tracer.metrics())
        log(f"round {index}{' traced' if tracing else ''}: {total:.4f} s wall, "
            f"{scaled:.4f} reference s")
        index += 1
        record["rounds"] = index
        now = time.perf_counter()
        if deadline - now < (now - started) / 2 and (tracer is None or record["layers"]):
            return record


def worker(args, log) -> dict:
    import_program()
    import tracer as tracing
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        calls = [op.prepare() for op in ops]
        ready = time.monotonic()
        setup_scale = REF_S / statistics.median(reference_time() for _ in range(5))
        tracer = tracing.Tracer() if args.trace else None
        record = run_rounds(ops, calls, args.seconds, tracer, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.spans:
        write_spans(tracer, Path(args.spans))
    record["ready"] = ready
    record["setup_scale"] = setup_scale
    record["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return record


def write_spans(tracer, path: Path):
    origin = min(span[3] for span in tracer.spans)
    with path.open("w") as out:
        for span_id, parent, name, start, end in tracer.spans:
            out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                  "start": start - origin, "end": end - origin}) + "\n")


# --- parent ---------------------------------------------------------------------


def spawn(args, share: float, spans: Path | None, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (spawn time, its record)."""
    command = [sys.executable, __file__, "--worker", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(share), "--trace", str(args.trace)]
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    if done.returncode != 0:
        sys.exit(f"worker exited with code {done.returncode}")
    return spawned, json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    def log(line):
        print(f"[{args.workload} seed {args.seed}] {line}", file=sys.stderr)

    if args.worker:
        print(json.dumps(worker(args, log)))
        return 0

    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
    workers = TRACE_WORKERS if args.trace else WORKERS
    deadline = time.monotonic() + RUN_LIMIT_S
    records, setups = [], []
    for index in range(workers):
        last = index == workers - 1
        spawned, record = spawn(args, args.seconds / workers, spans if last else None, deadline)
        log(f"worker {index} set-up: {record['ready'] - spawned:.4f} s wall")
        setups.append((record["ready"] - spawned) * record["setup_scale"])
        records.append(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text())[args.workload]
    for index, record in enumerate(records):
        for name, got in record["digests"].items():
            if golden is not None and golden[name] != got:
                failed += 1
                log(f"FAIL worker {index} {name}: output differs from the seed commit's")
            elif got != records[0]["digests"].get(name, got):
                failed += 1
                log(f"FAIL worker {index} {name}: output differs from worker 0's")

    def op_medians(kind):
        """Each operation's median time over every worker's rounds of `kind`."""
        return [statistics.median(t for r in records for t in r[kind][name])
                for name in records[0][kind]]

    if args.trace:
        import_program()
        import tracer as tracing

        layers = [layer for r in records for layer in r["layers"]]
        metrics = {
            name: {"value": statistics.median(layer[name] for layer in layers), "unit": unit}
            for name, unit in tracing.METRICS
        }
        metrics["trace.overhead_s"] = {
            "value": sum(op_medians("traced")) - sum(op_medians("plain")), "unit": "s"
        }
        log(f"spans of the last traced round: {spans}")
    else:
        metrics = {
            "wall_s": {"value": sum(op_medians("plain")), "unit": "s"},
            "op_s.p50": {
                "value": statistics.median(t for r in records for ts in r["plain"].values()
                                           for t in ts),
                "unit": "s",
            },
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["rss_kib"] for r in records) / 1024, "unit": "MiB"
            },
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "1"},
        }
    rounds = sum(r["rounds"] for r in records)
    log(f"{attempted} operations in {rounds} rounds over {workers} workers, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
