"""Layering games on ordered graphs.

A two-player game drives everything here: one side deletes the
smallest vertex or proposes a layering, the other side keeps a bounded
window of layers.  Graph classes that admit winning strategies for the
deleting side admit polynomial-time approximation schemes; the solvers
in :mod:`bakergame.ptas` follow a strategy move by move.
"""

from .graph import (
    Embedding,
    GeodesicPartition,
    GraphError,
    NotALayeringError,
    NotGeodesicError,
    OrderedGraph,
    PartitionError,
    bfs_layering,
    check_chordal_ordering,
    check_geodesic_partition,
    extend_geodesic_layering,
    is_geodesic,
    is_valid_layering,
    layering_width,
    quotient,
    spread_componentwise_layering,
    validate_embedding,
)
from .sequences import (
    ConstSeq,
    GeomSeq,
    RSequence,
    ScheduleSeq,
    SequenceError,
    parse_rseq,
)
from .game import (
    Action,
    GameState,
    Transcript,
    apply_delete,
    apply_restrict,
    legal_replies,
    minimax_rounds,
    parse_preserver,
    play,
)
from .strategies import (
    MinorWitness,
    StrategyError,
    build_strategy,
    chordal_geodesic_partition,
    parse_descriptor,
    round_bound,
    verify_minor_witness,
)
from .covers import Cover, margin, occupied_intervals, plan_dp
from .ptas import (
    INFEASIBLE,
    BudgetExceededError,
    ColorInstance,
    DomSetInstance,
    ISInstance,
    OracleError,
    Solution,
    SolverInvariantError,
    oracle_ccolorable,
    oracle_domset,
    oracle_mis,
    ratio_bound,
    solve_ccolorable,
    solve_domset,
    solve_mis,
    verify_solution,
)
from .generators import (
    gen_apex_grid,
    gen_diag_grid,
    gen_grid,
    gen_ktree,
    gen_random_instance,
)
from .fileio import (
    FormatError,
    parse_annotated_graph,
    parse_embedding,
    parse_graph,
    write_embedding,
    write_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
