"""Command-line front door: run, translate, solve and check models.

Exit codes: 0 success or check passed, 1 no solution or check failed,
2 usage problem, 3 parse error, 4 enumeration cap exceeded.  A reader
that closes stdout early (`| head`) ends the command with exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

from . import equivalence
from .bcn import parse_bcn_text
from .bn import (
    attractors,
    bn_trajectories,
    bn_transitions,
    named_mode,
    parse_bn_text,
    parse_mode_text,
)
from .boolp import (
    BooleanPSystem,
    derive_mode,
    evolve,
    format_system_text,
    maximally_parallel_mode,
    named_quasimode,
    parse_system_text,
    quasimode_maxpar,
)
from .cofase import (
    check_solution,
    parse_instance_text,
    solution_from_json,
    solution_to_json,
    solve_cofase,
    solve_cofase_via_composite,
)
from .errors import BoolpsError, CapacityError, ParseError, UsageError
from .formula import parse_state
from .limits import capped
from .translate import (
    _encode_updates,
    bcn_to_composite,
    bn_mode_to_quasimode,
    bn_to_boolp,
    format_composite_text,
    parse_reactions_text,
    rs_to_boolp,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAPACITY = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start} ({exc.reason})", source=path) from None


@contextlib.contextmanager
def _output(args):
    """The text stream for `--out`, else stdout; an OSError on the file is a usage error."""
    path = getattr(args, "out", None)
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w") as out:
            yield out
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _emit(args, text: str):
    with _output(args) as out:
        out.write(text)


def _bn_mode(args, table):
    name = args.mode
    if name in ("syn", "asyn"):
        return named_mode(name, table)
    return parse_mode_text(_read(name), table, source=name)


def _load_mode(args):
    """The model's mode under `--mode`; it carries the model's system."""
    system, embedded = parse_system_text(_read(args.model), source=args.model)
    name = args.mode
    if name == "embedded":
        if embedded is None:
            raise UsageError("model file declares no quasimode; pass --mode")
        return derive_mode(system, embedded)
    if name == "maxpar":
        return maximally_parallel_mode(system)
    if name in ("seq", "async"):
        return derive_mode(system, named_quasimode(name, system))
    _other, quasimode = parse_system_text(_read(name), source=name)
    if quasimode is None:
        raise UsageError(f"quasimode file {name} declares no quasimode")
    unknown = quasimode.rule_ids() - system.rule_ids()
    if unknown:
        raise UsageError(f"quasimode file {name} advises rules the model lacks: {sorted(unknown)}")
    return derive_mode(system, quasimode)


def _emit_relation(args, relation, style, label_key):
    with _output(args) as out:
        if args.format == "dot":
            relation.to_dot(style=style, out=out)
        elif args.format == "json":
            relation.to_json_lines(style=style, label_key=label_key, out=out)
        else:
            relation.to_text(style=style, out=out)
    return EXIT_OK


def _emit_runs(args, runs, style):
    _emit(args, "\n".join(sorted(t.text(style=style) for t in runs)) + "\n")
    return EXIT_OK


# --- bn ------------------------------------------------------------------


def _cmd_bn_transitions(args):
    network = parse_bn_text(_read(args.model), source=args.model)
    relation = bn_transitions(network, _bn_mode(args, network.table))
    return _emit_relation(args, relation, "digits", "mode_elem")


def _cmd_bn_trace(args):
    network = parse_bn_text(_read(args.model), source=args.model)
    start = parse_state(network.table, args.init)
    runs = bn_trajectories(
        network, _bn_mode(args, network.table), start, args.steps, args.max_breadth
    )
    return _emit_runs(args, runs, "digits")


def _cmd_bn_attractors(args):
    network = parse_bn_text(_read(args.model), source=args.model)
    found = attractors(network, _bn_mode(args, network.table))
    if args.format == "json":
        _emit(args, json.dumps([[s.digits() for s in a] for a in found], indent=2) + "\n")
    else:
        lines = ["{" + ", ".join(s.digits() for s in a) + "}" for a in found]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# --- pi ------------------------------------------------------------------


def _cmd_pi_transitions(args):
    relation = equivalence.boolp_transitions(_load_mode(args))
    return _emit_relation(args, relation, "set", "rules")


def _cmd_pi_trace(args):
    view = _load_mode(args)
    start = parse_state(view.system.table, args.init)
    return _emit_runs(args, evolve(view, start, args.steps, args.max_breadth), "set")


# --- translate / compose ---------------------------------------------------


def _cmd_translate_bn(args):
    network = parse_bn_text(_read(args.model), source=args.model)
    system = bn_to_boolp(network)
    quasimode = None
    if args.mode is not None:
        quasimode = bn_mode_to_quasimode(_bn_mode(args, network.table), system)
    _emit(args, format_system_text(system, quasimode))
    return EXIT_OK


def _cmd_translate_bcn(args):
    bcn = parse_bcn_text(_read(args.model), source=args.model)
    system = BooleanPSystem(bcn.table, _encode_updates(bcn.table, bcn.x_table.names, bcn.updates))
    quasimode = bn_mode_to_quasimode(_bn_mode(args, bcn.x_table), system)
    _emit(args, format_system_text(system, quasimode))
    return EXIT_OK


def _cmd_translate_rs(args):
    rs = parse_reactions_text(_read(args.model), source=args.model)
    system = rs_to_boolp(rs).system
    _emit(args, format_system_text(system, quasimode_maxpar(system)))
    return EXIT_OK


def _cmd_compose(args):
    bcn = parse_bcn_text(_read(args.model), source=args.model)
    composite = bcn_to_composite(bcn, _bn_mode(args, bcn.x_table), regime=args.regime)
    _emit(args, format_composite_text(composite))
    return EXIT_OK


# --- cofase -----------------------------------------------------------------


def _cmd_cofase_solve(args):
    instance = parse_instance_text(_read(args.instance), source=args.instance)
    if args.engine == "composite":
        result = solve_cofase_via_composite(
            instance, max_steps=args.max_steps, max_phases=args.max_phases
        )
    else:
        result = solve_cofase(
            instance,
            max_phases=args.max_phases,
            policy=args.policy,
            min_steps_per_phase=args.min_steps_per_phase,
        )
    if args.format == "json":
        _emit(args, solution_to_json(result) + "\n")
    elif result:
        lines = [f"solvable in {result.phases} phase(s) [{result.policy}]"]
        for witness in result.witnesses:
            lines.append(
                f"  start {witness.start.digits()}: controls "
                + ", ".join(c.set_text() for c in witness.sequence)
            )
            lines.append(f"    witness {witness.trajectory.text()}")
            lines.append(f"    boundaries {list(witness.boundaries)}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        stop = ""  # the composite engine keeps no frontier; its detail says it all
        if result.frontier:
            stop = ("exhausted" if result.frontier[-1] == 0
                    else f"phase bound {result.phase_bound} reached")
        reason = "; ".join(filter(None, (result.detail, stop)))
        _emit(args, f"no solution within bounds ({reason})\n")
    return EXIT_OK if result else EXIT_NEGATIVE


def _cmd_cofase_verify(args):
    instance = parse_instance_text(_read(args.instance), source=args.instance)
    solution = solution_from_json(instance, _read(args.solution), source=args.solution)
    problems = check_solution(instance, solution)
    if problems:
        _emit(args, "\n".join(problems) + "\n")
        return EXIT_NEGATIVE
    _emit(args, f"ok: {len(solution.witnesses)} witness(es) verified\n")
    return EXIT_OK


# --- check ------------------------------------------------------------------


def _report_outcome(args, report):
    if args.format == "json":
        _emit(args, json.dumps(report.to_json_dict(), indent=2) + "\n")
    else:
        text = "pass" if report else "FAIL"
        detail = report.detail
        if report.counterexample is not None:
            detail += "\n" + report.counterexample.describe()
        _emit(args, f"{text}: {detail}\n")
    return EXIT_OK if report else EXIT_NEGATIVE


def _suite_outcome(args, suite):
    if args.format == "json":
        doc = {
            "name": suite.name,
            "total": suite.total,
            "passed": suite.passed,
            "failures": [
                {"case": label, **report.to_json_dict()}
                for label, report in suite.failures
            ],
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        _emit(args, suite.summary() + "\n")
    return EXIT_OK if suite else EXIT_NEGATIVE


def _cmd_check(args):
    """A seeded random suite with --random N, else the model file's check."""
    if args.random is not None:
        return _suite_outcome(args, args.suite(count=args.random, seed=args.seed))
    if args.model is None:
        raise UsageError("pass a model file or --random N")
    return _report_outcome(args, args.check(args))


def _check_bn_sim(args):
    network = parse_bn_text(_read(args.model), source=args.model)
    return equivalence.check_bn_simulation(network, _bn_mode(args, network.table))


def _check_bcn_sim(args):
    bcn = parse_bcn_text(_read(args.model), source=args.model)
    return equivalence.check_bcn_simulation(bcn, _bn_mode(args, bcn.x_table))


def _check_rs(args):
    rs = parse_reactions_text(_read(args.model), source=args.model)
    return equivalence.check_rs_embedding(rs)


# --- parser -------------------------------------------------------------------


def _add_common(parser, fmt=("text", "json", "dot")):
    parser.add_argument("--format", choices=fmt, default="text")
    parser.add_argument("--out", help="write output to a file instead of stdout")
    parser.add_argument("--cap-vars", type=int, default=None,
                        help="override the enumeration cap (BOOLPS_CAP_VARS)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolps",
        description="Boolean networks, guarded set rewriting, and sequential control.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    bn = top.add_parser("bn", help="Boolean network commands")
    bn_sub = bn.add_subparsers(dest="subcommand", required=True)
    p = bn_sub.add_parser("transitions", help="full labelled transition relation")
    p.add_argument("model")
    p.add_argument("--mode", default="syn", help="syn, asyn, or a mode file")
    _add_common(p)
    p.set_defaults(handler=_cmd_bn_transitions)
    p = bn_sub.add_parser("trace", help="all runs from an initial state")
    p.add_argument("model")
    p.add_argument("--mode", default="syn")
    p.add_argument("--init", required=True, help="state literal, e.g. 01 or {y}")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--max-breadth", type=int, default=None)
    _add_common(p, fmt=("text",))
    p.set_defaults(handler=_cmd_bn_trace)
    p = bn_sub.add_parser("attractors", help="terminal mutually-reachable state sets")
    p.add_argument("model")
    p.add_argument("--mode", default="syn")
    _add_common(p, fmt=("text", "json"))
    p.set_defaults(handler=_cmd_bn_attractors)

    pi = top.add_parser("pi", help="set-rewriting system commands")
    pi_sub = pi.add_subparsers(dest="subcommand", required=True)
    p = pi_sub.add_parser("transitions", help="full labelled transition relation")
    p.add_argument("model")
    p.add_argument("--mode", default="embedded",
                   help="maxpar, seq, async, embedded, or a quasimode file")
    _add_common(p)
    p.set_defaults(handler=_cmd_pi_transitions)
    p = pi_sub.add_parser("trace", help="all evolutions from a configuration")
    p.add_argument("model")
    p.add_argument("--mode", default="maxpar")
    p.add_argument("--init", required=True)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--max-breadth", type=int, default=None)
    _add_common(p, fmt=("text",))
    p.set_defaults(handler=_cmd_pi_trace)

    tr = top.add_parser("translate", help="encode a model as a rewriting system")
    tr_sub = tr.add_subparsers(dest="subcommand", required=True)
    p = tr_sub.add_parser("bn", help="network to rule pairs")
    p.add_argument("model")
    p.add_argument("--mode", default=None, help="also emit the advised quasimode")
    _add_common(p, fmt=("text",))
    p.set_defaults(handler=_cmd_translate_bn)
    p = tr_sub.add_parser("bcn", help="controlled network to rule pairs over X and U")
    p.add_argument("model")
    p.add_argument("--mode", default="syn")
    _add_common(p, fmt=("text",))
    p.set_defaults(handler=_cmd_translate_bcn)
    p = tr_sub.add_parser("rs", help="reaction system to rules plus degradation")
    p.add_argument("model")
    _add_common(p, fmt=("text",))
    p.set_defaults(handler=_cmd_translate_rs)

    p = top.add_parser("compose", help="embed a controlled network with its controller")
    p.add_argument("model")
    p.add_argument("--mode", default="syn")
    p.add_argument("--regime", choices=("free", "tcs", "acs"), default="free")
    _add_common(p, fmt=("text",))
    p.set_defaults(handler=_cmd_compose)

    co = top.add_parser("cofase", help="sequential-control solving and verification")
    co_sub = co.add_subparsers(dest="subcommand", required=True)
    p = co_sub.add_parser("solve", help="search for a control sequence")
    p.add_argument("instance")
    p.add_argument("--max-phases", type=int, default=4)
    p.add_argument("--max-steps", type=int, default=64,
                   help="step bound for the composite engine")
    p.add_argument("--policy", choices=("uniform", "per-start"), default="uniform")
    p.add_argument("--engine", choices=("direct", "composite"), default="direct")
    p.add_argument("--min-steps-per-phase", type=int, choices=(0, 1), default=0)
    _add_common(p, fmt=("text", "json"))
    p.set_defaults(handler=_cmd_cofase_solve)
    p = co_sub.add_parser("verify", help="check a solution document")
    p.add_argument("instance")
    p.add_argument("--solution", required=True, help="solution JSON file")
    _add_common(p, fmt=("text",))
    p.set_defaults(handler=_cmd_cofase_verify)

    ck = top.add_parser("check", help="exhaustive equivalence certifications")
    ck_sub = ck.add_subparsers(dest="subcommand", required=True)
    for name, suite, check, with_mode in (
        ("bn-sim", equivalence.run_bn_simulation_suite, _check_bn_sim, True),
        ("bcn-sim", equivalence.run_bcn_simulation_suite, _check_bcn_sim, True),
        ("lemma-product", equivalence.run_product_lemma_suite, None, False),
        ("rs-embed", equivalence.run_rs_embedding_suite, _check_rs, False),
    ):
        p = ck_sub.add_parser(name)
        if check is not None:
            p.add_argument("model", nargs="?", default=None)
        if with_mode:
            p.add_argument("--mode", default="syn")
        # lemma-product has no model file: it always runs its suite
        p.add_argument("--random", type=int, default=100 if check is None else None,
                       help="run this many seeded random cases instead of a file")
        p.add_argument("--seed", type=int, default=2024)
        _add_common(p, fmt=("text", "json"))
        p.set_defaults(handler=_cmd_check, suite=suite, check=check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`'s parser, built on first use and kept for the process:
    a cache of one entry.  Parsing keeps nothing in the parser; each call
    gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with capped(args.cap_vars):
            code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`| head`): what it read is all it
        # wanted; send what is still buffered to devnull so exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except BoolpsError as exc:  # usage, validation and any other library error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
