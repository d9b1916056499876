"""Minimal spanning arborescences by cycle contraction, and the walks around them."""

from .algorithms import (
    cleb_walk,
    cleb_walk_algorithm,
    connectivity_profile,
    original_cleb,
    recover_branch,
    sequential_cleb,
)
from .graph import (
    Arborescence,
    ContractionStack,
    DirectedMultigraph,
    build_graph,
    uncontract,
    validate_arborescence,
)
from .oracle import brute_force_msa, enumerate_arborescences, msa_event_probability
from .walks import invasion_percolation, lcrw_run, wilson_lerw
from .weights import (
    BoltzmannConductance,
    Exponential,
    Fixed,
    Uniform01,
    WeightAssignment,
    min_out_subtract,
    sample_weights,
)

__version__ = "0.1.0"

__all__ = [
    "Arborescence",
    "BoltzmannConductance",
    "ContractionStack",
    "DirectedMultigraph",
    "Exponential",
    "Fixed",
    "Uniform01",
    "WeightAssignment",
    "brute_force_msa",
    "build_graph",
    "cleb_walk",
    "cleb_walk_algorithm",
    "connectivity_profile",
    "enumerate_arborescences",
    "invasion_percolation",
    "lcrw_run",
    "min_out_subtract",
    "msa_event_probability",
    "original_cleb",
    "recover_branch",
    "sample_weights",
    "sequential_cleb",
    "uncontract",
    "validate_arborescence",
    "wilson_lerw",
]
