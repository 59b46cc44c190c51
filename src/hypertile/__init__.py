"""Exact hypergraph-tiling toolkit: constructions, invariants, and solvers.

Everything here is finite and exact: integer counts, rational thresholds,
exhaustively verified yes/no answers under an explicit enumeration budget.
"""

from .budget import DEFAULT_BUDGET, ENV_VAR, resolve_budget
from .constructions import (LabeledConstruction, balanced_split, barrier_graph,
                            complete_k_partite, cone_graph, field_product_graph,
                            fortification_window, fortified_barrier, k_st,
                            mirrored_product_graph)
from .core import (Hypergraph, Partition, RelabeledGraph, TypeVector, VertexSet,
                   build, vertex_set)
from .errors import (BudgetExceededError, FormatError, HypertileError,
                     NotKPartiteError, UnsupportedFieldError, ValidationError)
from .experiments import (ExperimentReport, random_hypergraph, sweep_extremal,
                          verify_suite)
from .fields import GF, field
from .hgio import load_hg, parse_hg, save_hg, write_hg
from .invariants import (CASE_BALANCED, CASE_GCD_ONE, CASE_MIXED,
                         InvariantReport, ThresholdReport,
                         balanced_factor_codegree, c4_factor_codegree,
                         factor_free_codegree, invariants, kst_bound,
                         mycroft_threshold, realisations)
from .probes import (ExtremalWitness, GoodnessReport, RobustVectorReport,
                     classify_goodness, count_connectors, extremal_witness,
                     has_transferral, robust_vectors)
from .solver import (CopySetEnumeration, Embedding, TilingCertificate,
                     TilingOutcome, contains_copy, copies_of_type,
                     enumerate_copy_sets, has_perfect_tiling, max_tiling,
                     verify_certificate)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BUDGET",
    "ENV_VAR",
    "resolve_budget",
    "LabeledConstruction",
    "balanced_split",
    "barrier_graph",
    "complete_k_partite",
    "cone_graph",
    "field_product_graph",
    "fortification_window",
    "fortified_barrier",
    "k_st",
    "mirrored_product_graph",
    "Hypergraph",
    "Partition",
    "RelabeledGraph",
    "TypeVector",
    "VertexSet",
    "build",
    "vertex_set",
    "BudgetExceededError",
    "FormatError",
    "HypertileError",
    "NotKPartiteError",
    "UnsupportedFieldError",
    "ValidationError",
    "ExperimentReport",
    "random_hypergraph",
    "sweep_extremal",
    "verify_suite",
    "GF",
    "field",
    "load_hg",
    "parse_hg",
    "save_hg",
    "write_hg",
    "CASE_BALANCED",
    "CASE_GCD_ONE",
    "CASE_MIXED",
    "InvariantReport",
    "ThresholdReport",
    "balanced_factor_codegree",
    "c4_factor_codegree",
    "factor_free_codegree",
    "invariants",
    "kst_bound",
    "mycroft_threshold",
    "realisations",
    "ExtremalWitness",
    "GoodnessReport",
    "RobustVectorReport",
    "classify_goodness",
    "count_connectors",
    "extremal_witness",
    "has_transferral",
    "robust_vectors",
    "CopySetEnumeration",
    "Embedding",
    "TilingCertificate",
    "TilingOutcome",
    "contains_copy",
    "copies_of_type",
    "enumerate_copy_sets",
    "has_perfect_tiling",
    "max_tiling",
    "verify_certificate",
]
