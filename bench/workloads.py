"""Inputs, operations and independent answers for the benchmark workloads.

Every input is generated as model text from the seed, so the program under
test only ever sees the generated files and text.  Each operation knows
its expected answer from how its input was built, never from the code it
measures:

* a canonical composite passes its simulation check, and a composite whose
  guard was flipped at one planted configuration fails exactly there;
* a control instance is built to need one phase, to need exactly two
  phases (a latch the controls can only set in one phase and clear in the
  next), or to have no solution (an uncontrollable variable that holds its
  value while the target asks for the other one); witnesses are replayed
  with ``verify_control_sequence``, which steps the network with
  ``bn_step`` and never uses the rewriting kernel;
* CLI commands must exit with the expected code, and relation outputs must
  have the edge count the model size implies.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import boolps
from boolps import cli
from boolps.cofase import parse_instance_text, solution_to_json

# Formula size (literal count) of every generated update, fixed so that seeds
# change the networks but not the cost of evaluating them.
LEAVES = 4
CLI_VARS = 12
CLI_RULES = 24
CLI_REACTIONS = 12
MAX_PHASES = 4


@dataclass(frozen=True)
class Operation:
    """One timed call with its correctness check.

    `prepare` builds fresh inputs (parsed from text, so no cache of the
    program carries over between rounds) and returns the call to time.
    `check` returns "" for a correct result, else the reason it is wrong.
    `output` gives the bytes whose digest pins the result.
    """

    name: str
    prepare: Callable[[], Callable[[], object]]
    check: Callable[[object], str]
    output: Callable[[object], bytes]


# --- model text ---------------------------------------------------------------


def _formula(rng: random.Random, names, leaves: int) -> str:
    """Random formula text over `names`: `leaves` literals, each negated
    with probability one half, in a fixed shape (conjunctions of pairs under
    one disjunction).  The fixed shape keeps the cost of evaluating an update
    the same from seed to seed; only the variables and the signs change."""
    literals = [
        ("!" if rng.random() < 0.5 else "") + rng.choice(names) for _ in range(leaves)
    ]
    pairs = [" & ".join(literals[i:i + 2]) for i in range(0, leaves, 2)]
    if len(pairs) == 1:
        return pairs[0]
    return " | ".join(f"({pair})" for pair in pairs)


def _names(n: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _digits(bits: int, n: int) -> str:
    return "".join("1" if bits >> i & 1 else "0" for i in range(n))


def _bcn_text(names, updates, frozen) -> str:
    lines = ["var " + ", ".join(names)]
    if frozen:
        lines.append("freeze " + ", ".join(frozen))
    lines += [f"{name}' = {update}" for name, update in zip(names, updates)]
    return "\n".join(lines) + "\n"


def _random_updates(rng, names) -> list[str]:
    return [_formula(rng, names, LEAVES) for _ in names]


def instance_text(rng: random.Random, n: int, mode: str, kind: str) -> str:
    """A freeze-controlled instance whose outcome is fixed by construction.

    ``one``: every variable is controllable, so pinning all of them to the
    target reaches it within one phase.  The target is the start's
    complement, so every seed asks for the same number of flips.
    ``two``: x0' = x0 | x1 latches, x1' = x1 holds; only x1.. are
    controllable.  The target wants x0 = 1 and x1 = 0 from x0 = x1 = 0:
    within one phase x1 keeps 0 (so x0 stays 0) or moves to a pinned value
    and stays there, so a phase that sets x0 ends with x1 = 1; pinning x1
    to 1 and then to 0 takes exactly two phases.
    ``none``: x0' = x0 holds and is not controllable (only x1 and x2 are),
    and the target asks for the other value of x0.
    """
    names = _names(n)
    updates = _random_updates(rng, names)
    start = rng.randrange(1 << n)
    target = rng.randrange(1 << n)
    if kind == "one":
        frozen = names
        target = start ^ (1 << n) - 1
    elif kind == "two":
        updates[0] = "x0 | x1"
        updates[1] = "x1"
        frozen = names[1:]
        start &= ~0b11
        target = target & ~0b11 | 0b01
    elif kind == "none":
        updates[0] = "x0"
        frozen = names[1:3]
        start &= ~1
        target |= 1
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    return (
        _bcn_text(names, updates, frozen)
        + f"start {_digits(start, n)}\ntarget {_digits(target, n)}\nmode {mode}\n"
    )


def mutant_text(rng: random.Random, n: int) -> tuple[str, str, int]:
    """A freeze-controlled network and a copy whose first update is flipped
    at one planted configuration of the composite alphabet.

    Returns (network text, mutant text, planted configuration bits).  The
    mutant spells the freeze controls out, so both share one alphabet.  The
    planted configuration is one of the last 16 in enumeration order, so
    the check examines nearly every configuration before it finds the fault.
    """
    names = _names(n)
    updates = _random_updates(rng, names)
    controls = [u for name in names for u in (f"u_{name}0", f"u_{name}1")]
    alphabet = names + controls
    size = len(alphabet)
    planted = rng.randrange((1 << size) - 16, 1 << size)
    minterm = " & ".join(
        name if planted >> i & 1 else "!" + name for i, name in enumerate(alphabet)
    )
    spelled = [f"(({u}) & !u_{name}0 | u_{name}1)" for name, u in zip(names, updates)]
    first = spelled[0]
    spelled[0] = f"({first} & !({minterm}) | !{first} & ({minterm}))"
    lines = ["var " + ", ".join(names), "control " + ", ".join(controls)]
    lines += [f"{name}' = {update}" for name, update in zip(names, spelled)]
    return _bcn_text(names, updates, names), "\n".join(lines) + "\n", planted


# --- checks -------------------------------------------------------------------

_PHASES = {"one": 1, "two": 2, "none": None}



def _report_bytes(report) -> bytes:
    return json.dumps(report.to_json_dict(), sort_keys=True).encode()


def _expect_pass(report) -> str:
    return "" if report.passed else f"canonical composite failed: {report.detail}"


def _expect_fail_at(planted: int):
    def check(report) -> str:
        if report.passed:
            return "mutated composite passed"
        ce = report.counterexample
        if ce is None or ce.state.bits != planted:
            found = None if ce is None else ce.state.bits
            return f"counterexample at {found}, fault planted at {planted}"
        return ""

    return check


def _expect_solution(text: str, phases):
    """Check a solver result against the phase count the instance was built for
    (None: no solution), replaying every witness on the network itself."""
    instance = parse_instance_text(text)

    def check(result) -> str:
        if phases is None:
            return "" if not result else f"solved an unsolvable instance in {result.phases}"
        if not result:
            return f"no solution found, expected {phases} phase(s)"
        if result.phases != phases:
            return f"{result.phases} phase(s), expected {phases}"
        for witness in result.witnesses:
            verdict = boolps.verify_control_sequence(
                instance.bcn, witness.sequence, instance.mode,
                witness.trajectory, witness.boundaries,
            )
            if not verdict:
                return f"witness rejected: {verdict.reason}"
            if witness.trajectory.first != witness.start:
                return "witness starts elsewhere"
            if witness.trajectory.last not in instance.targets:
                return "witness ends outside the targets"
        return ""

    return check


def _solution_bytes(result) -> bytes:
    return solution_to_json(result).encode()


# --- workloads ----------------------------------------------------------------


def _bn_mode(name: str, table):
    return boolps.BooleanMode.syn(table) if name == "syn" else boolps.BooleanMode.asyn(table)


def _check_ops(rng: random.Random, modes, suffix: str = "") -> list[Operation]:
    """A canonical and a planted-fault simulation check per mode."""
    ops = []
    for mode in modes:
        text = _bcn_text(_names(3), _random_updates(rng, _names(3)), _names(3))

        def prepare(text=text, mode=mode):
            bcn = boolps.parse_bcn_text(text)
            view = _bn_mode(mode, bcn.x_table)
            return lambda: boolps.check_bcn_simulation(bcn, view)

        ops.append(
            Operation(f"check-{mode}-canonical{suffix}", prepare, _expect_pass, _report_bytes)
        )
    for mode in modes:
        text, mutant, planted = mutant_text(rng, 3)

        def prepare(text=text, mutant=mutant, mode=mode):
            bcn = boolps.parse_bcn_text(text)
            bad = boolps.parse_bcn_text(mutant)
            view = _bn_mode(mode, bcn.x_table)
            return lambda: boolps.check_bcn_simulation(
                bcn, view, composite=boolps.bcn_to_composite(bad, view)
            )

        ops.append(Operation(
            f"check-{mode}-mutant{suffix}", prepare, _expect_fail_at(planted), _report_bytes
        ))
    return ops


def _embed(rng: random.Random, workdir: Path) -> list[Operation]:
    ops = _check_ops(rng, ("syn", "asyn"))
    # No one-phase case at n=4: its search stops at a seed-dependent point
    # and its peak memory, which would set the workload's, varied by 25%.
    cases = [(3, "asyn", "one"), (3, "asyn", "two"), (3, "asyn", "none"),
             (4, "syn", "two"), (4, "syn", "none")]
    ops += _solver_ops(
        rng, "composite", cases,
        lambda instance, n: boolps.solve_cofase_via_composite(
            instance, max_steps=4 * (1 << n) + 4, max_phases=MAX_PHASES
        ),
    )
    # The syn checks and the asyn one-phase solve take about the same time
    # and hold the median operation; a second pair of syn checks makes that
    # median depend less on any one seed's networks.
    return ops + _check_ops(rng, ("syn",), "-2")


def _solver_ops(rng, prefix, cases, solve) -> list[Operation]:
    """One operation per (variables, mode, kind) case; repeated cases are
    numbered so that every operation has its own name."""
    ops = []
    for n, mode, kind in cases:
        name = f"{prefix}-{mode}-n{n}-{kind}"
        if cases.count((n, mode, kind)) > 1:
            name += f"-{sum(op.name.startswith(name + '-') for op in ops)}"
        text = instance_text(rng, n, mode, kind)

        def prepare(text=text, n=n):
            instance = parse_instance_text(text)
            return lambda: solve(instance, n)

        ops.append(
            Operation(name, prepare, _expect_solution(text, _PHASES[kind]), _solution_bytes)
        )
    return ops


def _solve_direct(rng: random.Random, workdir: Path) -> list[Operation]:
    # One-phase solves cost the full control space and barely depend on the
    # network; with three of them under syn the median of the nine operations
    # is always one of those.  The two-phase and unsolvable cases add the
    # phase search.
    copies = {("syn", "one"): 3, ("asyn", "one"): 2}
    cases = [(5, mode, kind) for mode in ("syn", "asyn") for kind in ("one", "two", "none")
             for _copy in range(copies.get((mode, kind), 1))]
    return _solver_ops(
        rng, "direct", cases,
        lambda instance, n: boolps.solve_cofase(
            instance, max_phases=MAX_PHASES, policy="uniform"
        ),
    )


def _pi_text(rng: random.Random) -> str:
    names = _names(CLI_VARS, "s")
    lines = ["alphabet " + ", ".join(names)]
    for k in range(CLI_RULES):
        lhs, rhs = rng.sample(names, 2)
        lines.append(f"r{k}: {{{lhs}}} -> {{{rhs}}} | {_formula(rng, names, 2)}")
    return "\n".join(lines) + "\n"


def _rs_text(rng: random.Random) -> str:
    names = _names(CLI_VARS, "s")
    lines = ["species " + ", ".join(names)]
    for k in range(CLI_REACTIONS):
        picked = rng.sample(names, 3)
        reactants = picked[: rng.randint(1, 2)]
        inhibitors = picked[2:] if rng.random() < 0.5 else []
        products = rng.sample(names, rng.randint(1, 2))
        lines.append(
            f"a{k}: reactants {{{', '.join(reactants)}}} inhibitors "
            f"{{{', '.join(inhibitors)}}} products {{{', '.join(products)}}}"
        )
    return "\n".join(lines) + "\n"


def _edge_lines(marker: str, count: int):
    def check(text: str) -> str:
        found = sum(marker in line for line in text.splitlines())
        return "" if found == count else f"{found} edges, expected {count}"

    return check


def _contains(word: str):
    return lambda text: "" if word in text else f"output lacks {word!r}"


def run_cli(argv, out: Path):
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([str(a) for a in argv] + ["--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue()


def _cli_ops(rng: random.Random, workdir: Path, suffix: str = "") -> list[Operation]:
    """Every command on one freshly generated .bn, .pi and .rs model."""
    names = _names(CLI_VARS)
    bn = workdir / f"model{suffix}.bn"
    pi = workdir / f"model{suffix}.pi"
    rs = workdir / f"model{suffix}.rs"
    bn.write_text(_bcn_text(names, [_formula(rng, names, 3) for _ in names], ()))
    pi.write_text(_pi_text(rng))
    rs.write_text(_rs_text(rng))
    states = 1 << CLI_VARS
    commands = (
        ("bn-transitions-dot", ["bn", "transitions", bn, "--mode", "asyn", "--format", "dot"],
         _edge_lines("->", states * CLI_VARS)),
        ("bn-transitions-json", ["bn", "transitions", bn, "--mode", "syn", "--format", "json"],
         _edge_lines('"src"', states)),
        ("bn-attractors", ["bn", "attractors", bn, "--mode", "asyn", "--format", "json"],
         _contains("[")),
        ("pi-transitions-maxpar", ["pi", "transitions", pi, "--mode", "maxpar", "--format", "json"],
         _contains('"rules"')),
        ("pi-transitions-seq", ["pi", "transitions", pi, "--mode", "seq", "--format", "text"],
         _contains("-->")),
        ("check-bn-sim", ["check", "bn-sim", bn, "--mode", "asyn"], _contains("pass")),
        ("check-rs-embed", ["check", "rs-embed", rs], _contains("pass")),
        ("translate-bn", ["translate", "bn", bn, "--mode", "asyn"], _contains("set_x0")),
    )
    ops = []
    for name, argv, check_text in commands:
        name += suffix
        out = workdir / f"{name}.out"

        def prepare(argv=argv, out=out):
            out.unlink(missing_ok=True)
            return lambda: run_cli(argv, out)

        def check(result, out=out, check_text=check_text):
            code, stdout, stderr = result
            if code != 0:
                return f"exit code {code}, expected 0: {stderr.strip()}"
            if stdout:
                return "output reached stdout despite --out"
            return check_text(out.read_text())

        def output(result, out=out):
            code, stdout, _stderr = result
            return f"{code}\n{stdout}\n".encode() + out.read_bytes()

        ops.append(Operation(name, prepare, check, output))
    return ops


def _cli_explore(rng: random.Random, workdir: Path) -> list[Operation]:
    # Which command holds the median time depends on the model; two sets of
    # models make that median depend less on any one seed's.
    return _cli_ops(rng, workdir) + _cli_ops(rng, workdir, "-2")


_WORKLOADS = {"embed": _embed, "solve-direct": _solve_direct, "cli-explore": _cli_explore}


def build(workload: str, seed: int, workdir: Path) -> list[Operation]:
    """Generate the workload's inputs from the seed and write any model files."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
