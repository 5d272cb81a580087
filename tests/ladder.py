"""The scaling ladder of both engines: fixed instances, each with its
answer pinned, so that a speed or memory claim names a rung that exists.

Each rung builds its instance from a seeded generator (nothing is read
from disk) and pins what its engine answers: `solve_cofase` under the
uniform policy, or `solve_cofase_via_composite` under the rung's step
bound.  It pins whether the instance is solvable, the phases of the
solution, the `explored` count of a refutation, and the SHA-256 of the
solution JSON, which covers the sequence and the witnesses byte for
byte.  `SMALL` names the rungs that tier-1 runs (`test_ladder.py`).

Run ``PYTHONPATH=src python tests/ladder.py [rung ...]`` from the
repository root to solve rungs (all by default) and print each one's
process time and answer, as JSON lines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

from test_bn import _gray_walk_network
from test_cofase import freeze_extended_instance, wide_instance

from boolps.bcn import BooleanControlNetwork
from boolps.bn import BooleanMode
from boolps.cofase import (
    CoFaSeInstance,
    solution_to_json,
    solve_cofase,
    solve_cofase_via_composite,
)
from boolps.formula import VarTable
from boolps.generators import random_mode


def family(seed: int, n: int, mode: str = "asyn") -> CoFaSeInstance:
    """`test_cofase.wide_instance`: n variables, x1-x3 freeze-controlled
    (27 classes), three starts and one target, under asyn, under syn when
    `mode` is "syn", or under ``random_mode(Random(0), table)`` when it is
    "random"."""
    instance = wide_instance(seed, n)
    table = instance.bcn.x_table
    if mode == "syn":
        instance = dataclasses.replace(instance, mode=BooleanMode.syn(table))
    elif mode == "random":
        instance = dataclasses.replace(instance, mode=random_mode(random.Random(0), table))
    return instance


def gray_walk(n: int) -> CoFaSeInstance:
    """`test_bn._gray_walk_network` without controls (one class), under
    asyn, from 0..0 to its fixed point: one phase of 2**n - 1 steps."""
    table = VarTable(f"x{i}" for i in range(n))
    network = _gray_walk_network(table)
    bcn = BooleanControlNetwork(table, VarTable(()), table, network.updates)
    return CoFaSeInstance.of(bcn, [table.state(0)], [table.state(1 << n - 1)],
                             BooleanMode.asyn(table))


@dataclass(frozen=True)
class Rung:
    name: str
    build: Callable[[], CoFaSeInstance]
    max_phases: int
    solvable: bool
    phases: int | None  # of the solution; None for a refutation
    explored: int | None  # of the refutation; None for a solution
    digest: str  # SHA-256 of `solution_to_json` of the answer
    engine: str = "direct"  # or "composite"
    max_steps: int | None = None  # the composite engine's step bound


def answer(rung: Rung) -> dict:
    """What the rung's engine answers on it, in `Rung`'s fields."""
    instance = rung.build()
    if rung.engine == "composite":
        result = solve_cofase_via_composite(instance, rung.max_steps, rung.max_phases)
    else:
        result = solve_cofase(instance, rung.max_phases)
    return {
        "solvable": bool(result),
        "phases": result.phases if result else None,
        "explored": None if result else result.explored,
        "digest": hashlib.sha256(solution_to_json(result).encode()).hexdigest(),
    }


def expected(rung: Rung) -> dict:
    return {key: getattr(rung, key) for key in ("solvable", "phases", "explored", "digest")}


RUNGS = {rung.name: rung for rung in (
    # one transient of 2**n - 1 steps: the deepest image of the ladder
    Rung("gray-12", lambda: gray_walk(12), 1, True, 1, None,
         "2dc37298da12c946f246b0b0cb03a6136b838b16be459f7d18e37bb6a612eb92"),
    Rung("gray-14", lambda: gray_walk(14), 1, True, 1, None,
         "d5ec47732e66b4c20ad080a6d623e57905fc74ae2ff2f492508f152e4e22e6c2"),
    # many small images under syn: one group of every variable
    Rung("syn-n8-seed3", lambda: family(3, 8, "syn"), 5, False, None, 2968,
         "5bfa03877e59258e21c1ca5dee23db3e9bc78be27f4de9fea10d464c838b1d17"),
    Rung("syn-n8-seed2", lambda: family(2, 8, "syn"), 5, False, None, 5245,
         "b266fda018a5d36d3150387c0899e50d570556a1c05bccace67e9a85ac968bbd"),
    Rung("syn-n9-seed1", lambda: family(1, 9, "syn"), 5, True, 4, None,
         "8714a7b859fb16d7ecbf6e50214d98b687f265e7a857e817a83bbc0bb8572fa9"),
    # dense images under asyn
    Rung("asyn-n11-seed0", lambda: family(0, 11), 3, False, None, 563,
         "009a4018e10e7956641b553091159ea91576ee3ba198217280adbe987f011257"),
    Rung("asyn-n13-seed0", lambda: family(0, 13), 3, False, None, 1801,
         "c1a0a65732a839c5d911c1abd0c6c207aa7c640b90b4942f5d05ddb3d3acc655"),
    Rung("asyn-n14-seed0", lambda: family(0, 14), 3, False, None, 401,
         "ad636463e9e78202b341db4fc414daac05da56840708820f352ba7e25f260c6b"),
    # several wide groups: at n=10, groups of 3, 3, 7 and 7 variables
    Rung("wide-n10-seed0", lambda: family(0, 10, "random"), 3, False, None, 3737,
         "1698e662fa28b10a10edfcb5e01051fd6703ee97e5da9d3ce752cccb92d4bc2a"),
    # the composite engine on every variable freeze-controlled: 3n symbols,
    # step bound 4n
    Rung("composite-n3", lambda: freeze_extended_instance(3), 2, True, 1, None,
         "7242eff87c13c4c14504dbd0a1fd2ce1cb3f39847d9a07898f32d28cea2d78f0",
         "composite", 12),
    Rung("composite-n4", lambda: freeze_extended_instance(4), 2, True, 1, None,
         "8fd69e72d060eb7d4513272f686b122a6a7792dac179e5bedf530aa4e922f99b",
         "composite", 16),
    Rung("composite-n5", lambda: freeze_extended_instance(5), 2, True, 1, None,
         "530d7dce215b7a106c0d062c80d8c7ce06f13849f5d1ba35ee4bc35af9df9ba6",
         "composite", 20),
)}

# the rungs tier-1 solves, each in well under a second on a laptop-class
# core; tier-1 also solves asyn-n14-seed0, under `tracemalloc`
SMALL = ("gray-12", "syn-n8-seed3", "syn-n9-seed1", "asyn-n11-seed0", "composite-n3")


def main(names) -> int:
    failed = 0
    for name in names or RUNGS:
        rung = RUNGS[name]
        start = time.process_time()
        got = answer(rung)
        seconds = time.process_time() - start
        failed += got != expected(rung)
        print(json.dumps({"rung": name, "process_s": round(seconds, 3), **got,
                          "pinned": got == expected(rung)}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
