"""Graph-Lagrangians and weighted polynomial programs of non-uniform
hypergraphs over the standard simplex, with numerical verification of the
associated clique-driven closed forms."""

__version__ = "0.1.0"

from .cliques import CliqueResult, contains_complete, max_complete_subgraph
from .compression import is_left_compressed, left_compress_fixpoint
from .generators import FAMILIES, GenerationError, gen_planted, gen_random, with_singletons
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    complete,
    dump,
    from_json,
    from_text,
    load,
    loads,
    relabel,
    to_json,
    validate,
    vertex_support,
)
from .objective import (
    Coefficients,
    MissingCoefficientError,
    check_rational_feasible,
    eval_exact,
    eval_L,
    flavour_coefficients,
    gradient,
    rational_uniform,
    uniform_weights,
)
from .optimizer import (
    GridTooLargeError,
    OptimizationResult,
    SolverConfig,
    grid_oracle,
    maximize,
    polish,
    project_to_simplex,
)
from .theorems import (
    ConditionCheck,
    HypothesisReport,
    TheoremVerdict,
    check_hypotheses,
    closed_form_exact,
    theorem_ids,
    verify,
)
