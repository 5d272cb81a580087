"""Record the output digest of every operation on the default seed.

    python3 bench/record_golden.py

Writes ``golden.json`` next to this file.  The recorded digests pin the
program's outputs (solution JSON, check reports, CLI bytes and exit codes);
record them again only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil

import run


def main():
    run.import_program()
    import workloads

    golden = {}
    for workload in run.WORKLOADS:
        workdir = run.WORK / f"golden-{workload}-{os.getpid()}"
        try:
            ops = workloads.build(workload, run.DEFAULT_SEED, workdir)
            golden[workload] = {}
            for op in ops:
                result = op.prepare()()
                reason = op.check(result)
                if reason:
                    raise SystemExit(f"{workload} {op.name}: {reason}")
                golden[workload][op.name] = run.digest(op.output(result))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
