"""Guarded set-rewriting systems, Boolean (control) networks, and bounded
sequential-control search, with exhaustive cross-certification of the
embeddings between the formalisms."""

from .bcn import (
    BooleanControlNetwork,
    apply_control,
    control_classes,
    enumerate_controls,
    freeze_extend,
    glue_trajectories,
    parse_bcn_text,
)
from .bn import (
    BooleanMode,
    BooleanNetwork,
    Trajectory,
    attractors,
    bn_step,
    bn_transitions,
    parse_bn_text,
)
from .boolp import (
    BooleanPSystem,
    ExplicitQuasimode,
    ModeView,
    PowersetQuasimode,
    ProductQuasimode,
    Quasimode,
    Rule,
    apply_rule_set,
    derive_mode,
    dotted_product,
    evolve,
    explicit_quasimode,
    maximally_parallel_mode,
    parse_system_text,
    quasimode_async,
    quasimode_maxpar,
    quasimode_seq,
    successors,
    union_systems,
)
from .cofase import (
    CoFaSeInstance,
    CoFaSeSolution,
    NoSolutionWithinBound,
    parse_instance_text,
    solve_cofase,
    solve_cofase_via_composite,
    verify_control_sequence,
)
from .equivalence import (
    EquivalenceReport,
    boolp_transitions,
    check_bcn_simulation,
    check_bn_simulation,
    check_product_lemma,
    check_rs_embedding,
)
from .errors import BoolpsError, CapacityError, ParseError, UsageError, ValidationError
from .formula import (
    Formula,
    StateSet,
    VarTable,
    equivalent,
    parse_formula,
    parse_state,
)
from .relation import TransitionRelation
from .translate import (
    ControlledComposite,
    Reaction,
    ReactionSystem,
    bcn_to_composite,
    bn_mode_to_quasimode,
    bn_to_boolp,
    parse_reactions_text,
    rs_to_boolp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
