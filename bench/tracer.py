"""Per-layer tracing of boolps from outside the package.

`Tracer.install` replaces every binding of the traced functions: the
function in its home module, every module of the package that imported it
by name (``successors`` also lives in ``equivalence``, in ``cofase`` as
``boolp_successors`` and in the package root), and methods on their
classes.  `Tracer.uninstall` puts the originals back.  While
`Tracer.active` is false the wrappers only call through, so checks that
run between operations are not counted.

Hot leaf functions keep running counts and times; every other traced call
also records a span (name, start, end, parent span).  Self time is a call's
duration minus the time spent in traced calls below it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

from boolps import bcn, bn, boolp, cli, cofase, equivalence, formula, relation, translate

# name -> (owner, attribute, hot); an owner is a module or a class.
TARGETS = {
    "formula.evaluate": (formula.Formula, "evaluate", True),
    "formula.substitute": (formula.Formula, "substitute", True),
    "formula.parse_formula": (formula, "parse_formula", False),
    "bn.bn_step": (bn, "bn_step", True),
    "bn.bn_transitions": (bn, "bn_transitions", False),
    "bn.attractors": (bn, "attractors", False),
    "bcn.apply_control": (bcn, "apply_control", False),
    "boolp.applicable_rules": (boolp.BooleanPSystem, "applicable_rules", True),
    "boolp.advised:explicit": (boolp.ExplicitQuasimode, "advised", True),
    "boolp.advised:powerset": (boolp.PowersetQuasimode, "advised", True),
    "boolp.advised:product": (boolp.ProductQuasimode, "advised", True),
    "boolp.dotted_product": (boolp, "dotted_product", True),
    "boolp.mode_at": (boolp.ModeView, "at", True),
    "boolp.successors": (boolp, "successors", True),
    "translate.bcn_to_composite": (translate, "bcn_to_composite", False),
    "translate.bn_to_boolp": (translate, "bn_to_boolp", False),
    "equivalence.check_bcn_simulation": (equivalence, "check_bcn_simulation", False),
    "equivalence.check_bn_simulation": (equivalence, "check_bn_simulation", False),
    "equivalence.check_rs_embedding": (equivalence, "check_rs_embedding", False),
    "cofase.solve_cofase": (cofase, "solve_cofase", False),
    "cofase.solve_cofase_via_composite": (cofase, "solve_cofase_via_composite", False),
    "cofase.control_space": (cofase, "control_space", False),
    "relation.render:dot": (relation.TransitionRelation, "to_dot", False),
    "relation.render:text": (relation.TransitionRelation, "to_text", False),
    "relation.render:json": (relation.TransitionRelation, "to_json_lines", False),
    "cli.main": (cli, "main", False),
}

# (metric, unit) in report order; `Tracer.metrics` fills every one of them.
METRICS = (
    ("formula.evaluate.calls", "count"),
    ("formula.evaluate.s", "s"),
    ("formula.substitute.calls", "count"),
    ("formula.substitute.s", "s"),
    ("formula.parse_formula.s", "s"),
    ("bn.bn_step.calls", "count"),
    ("bn.bn_step.self_s", "s"),
    ("bn.bn_transitions.s", "s"),
    ("bn.attractors.s", "s"),
    ("bcn.apply_control.calls", "count"),
    ("bcn.apply_control.s", "s"),
    ("bcn.apply_control.distinct_ratio", "1"),
    ("boolp.applicable_rules.calls", "count"),
    ("boolp.applicable_rules.hit_ratio", "1"),
    ("boolp.advised.calls", "count"),
    ("boolp.advised.self_s", "s"),
    ("boolp.dotted_product.calls", "count"),
    ("boolp.dotted_product.s", "s"),
    ("boolp.dotted_product.useful_ratio", "1"),
    ("boolp.mode_at.hit_ratio", "1"),
    ("boolp.successors.calls", "count"),
    ("boolp.successors.self_s", "s"),
    ("boolp.successors.fired", "count"),
    ("translate.bcn_to_composite.calls", "count"),
    ("translate.bcn_to_composite.s", "s"),
    ("translate.bn_to_boolp.s", "s"),
    ("equivalence.check_bcn_simulation.self_s", "s"),
    ("equivalence.check_bn_simulation.self_s", "s"),
    ("equivalence.check_rs_embedding.self_s", "s"),
    ("equivalence.configs", "count"),
    ("cofase.solve_cofase.s", "s"),
    ("cofase.solve_cofase.self_s", "s"),
    ("cofase.controls", "count"),
    ("cofase.solve_cofase_via_composite.self_s", "s"),
    ("cofase.composite.expanded", "count"),
    ("relation.render.s", "s"),
    ("relation.edges", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
)


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "boolps" or name.startswith("boolps."))]


def bindings(function):
    """Every (module, name) in the package bound to `function`."""
    return [(module, name) for module in package_modules()
            for name, value in vars(module).items() if value is function]


class _Stat:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.patched = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Forget everything recorded so far (one report per round)."""
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(int)
        self.spans = []  # (span id, parent id, name, start, end)
        self._stack = []  # frames: [child time, span id, span name]
        self._seen = {}  # id(owner) -> (owner, keys seen); cleared per operation
        self._networks = set()  # folded update texts, cleared per operation

    # -- patching

    def install(self):
        if self.patched:
            raise RuntimeError("tracer already installed")
        for name, (owner, attribute, hot) in TARGETS.items():
            original = vars(owner)[attribute]
            wrapper = self._wrap(name.split(":")[0], original, hot)
            places = [(owner, attribute)]
            if not isinstance(owner, type):
                places = bindings(original)
            for place, bound in places:
                setattr(place, bound, wrapper)
                self.patched.append((place, bound, original))

    def uninstall(self):
        for place, bound, original in reversed(self.patched):
            setattr(place, bound, original)
        self.patched = []

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- recording

    @contextlib.contextmanager
    def operation(self, name: str):
        """Record one operation as a root span; calls are counted inside it only."""
        span = len(self.spans)
        self.spans.append(None)
        self._stack.append([0.0, span, name])
        self.active = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.active = False
            self._stack.pop()
            self.spans[span] = (span, None, name, start, end)
            self._seen.clear()
            self.counts["bcn.apply_control.distinct"] += len(self._networks)
            self._networks.clear()

    def _wrap(self, name, function, hot):
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            if before is not None:
                args = before(tracer, args)
            stack = tracer._stack
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1], parent[2]]
            else:
                frame = [0.0, len(tracer.spans), name]
                tracer.spans.append(None)
            stat = tracer.stats[name]
            stat.depth += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stat.depth -= 1
                duration = end - start
                parent[0] += duration
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if not stat.depth:
                    stat.s += duration
                if not hot:
                    tracer.spans[frame[1]] = (frame[1], parent[1], name, start, end)
            if after is not None:
                after(tracer, args, result, parent[2])
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- report

    def metrics(self) -> dict:
        stats, counts = self.stats, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = dict(counts)
        for metric, _unit in METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat in ("calls", "s", "self_s"):
                out[metric] = getattr(stats[layer], stat)
        out["bcn.apply_control.distinct_ratio"] = ratio(
            counts["bcn.apply_control.distinct"], stats["bcn.apply_control"].calls)
        out["boolp.applicable_rules.hit_ratio"] = ratio(
            counts["boolp.applicable_rules.hits"], stats["boolp.applicable_rules"].calls)
        out["boolp.dotted_product.useful_ratio"] = ratio(
            counts["boolp.dotted_product.unions"], counts["boolp.dotted_product.pairs"])
        out["boolp.mode_at.hit_ratio"] = ratio(
            counts["boolp.mode_at.hits"], stats["boolp.mode_at"].calls)
        return {metric: out.get(metric, 0) for metric, _unit in METRICS}


def _repeat(tracer, owner, key, counter):
    entry = tracer._seen.get(id(owner))
    if entry is None:
        entry = tracer._seen[id(owner)] = (owner, set())
    if key in entry[1]:
        tracer.counts[counter] += 1
    else:
        entry[1].add(key)


def _before_applicable(tracer, args):
    _repeat(tracer, args[0], args[1].bits, "boolp.applicable_rules.hits")
    return args


def _before_mode_at(tracer, args):
    _repeat(tracer, args[0], args[1].bits, "boolp.mode_at.hits")
    return args


def _before_dotted(tracer, args):
    a, b = (x if hasattr(x, "__len__") else tuple(x) for x in args)
    tracer.counts["boolp.dotted_product.pairs"] += len(a) * len(b)
    return (a, b)


def _after_dotted(tracer, args, result, caller):
    tracer.counts["boolp.dotted_product.unions"] += len(result)


def _after_successors(tracer, args, result, caller):
    tracer.counts["boolp.successors.fired"] += len(result)
    if caller.startswith("equivalence.check_"):
        tracer.counts["equivalence.configs"] += 1
    elif caller == "cofase.solve_cofase_via_composite":
        tracer.counts["cofase.composite.expanded"] += 1


def _after_apply_control(tracer, args, result, caller):
    tracer._networks.add(tuple(f.to_text() for f in result.updates))


def _after_control_space(tracer, args, result, caller):
    tracer.counts["cofase.controls"] += len(result)


def _after_render(tracer, args, result, caller):
    tracer.counts["relation.edges"] += len(args[0].edges)


_BEFORE = {
    "boolp.applicable_rules": _before_applicable,
    "boolp.mode_at": _before_mode_at,
    "boolp.dotted_product": _before_dotted,
}
_AFTER = {
    "boolp.dotted_product": _after_dotted,
    "boolp.successors": _after_successors,
    "bcn.apply_control": _after_apply_control,
    "cofase.control_space": _after_control_space,
    "relation.render": _after_render,
}
