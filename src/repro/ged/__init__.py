"""Graph edit distance: exact solver, polynomial metric surrogate, bounds."""

from repro.ged.costs import UNIT_COSTS, CustomCostModel, UnitCostModel
from repro.ged.bounds import (
    assignment_lower_bound,
    degree_lower_bound,
    edge_count_lower_bound,
    label_lower_bound,
    size_lower_bound,
    trivial_upper_bound,
)
from repro.ged.exact import DELETED, ExactGED, edit_path_cost
from repro.ged.star import StarDistance, star_assignment_value, star_ged_lower_bound
from repro.ged.bipartite import BipartiteGED, bipartite_upper_bound
from repro.ged.beam import BeamGED
from repro.ged.metric import (
    CountingDistance,
    GraphDistance,
    check_metric_axioms,
    pairwise_matrix,
)

__all__ = [
    "UnitCostModel",
    "CustomCostModel",
    "UNIT_COSTS",
    "ExactGED",
    "DELETED",
    "edit_path_cost",
    "StarDistance",
    "star_assignment_value",
    "star_ged_lower_bound",
    "BipartiteGED",
    "BeamGED",
    "bipartite_upper_bound",
    "label_lower_bound",
    "degree_lower_bound",
    "assignment_lower_bound",
    "edge_count_lower_bound",
    "size_lower_bound",
    "trivial_upper_bound",
    "GraphDistance",
    "CountingDistance",
    "pairwise_matrix",
    "check_metric_axioms",
]
