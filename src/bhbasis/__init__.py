"""bhbasis: randomized construction and exact verification of B_h[1] sets
that are asymptotic additive bases of order 2h.

Pipeline: sample a random integer set with density exponent 2/(4h-1), list
every equality that violates the B_h[1] property, delete the largest
participant of each, and certify both the collision-freeness and the
2h-fold coverage of what remains.
"""

from .collisions import (
    DISTINCT_2H,
    WEIGHTED,
    CollisionRecord,
    WeightSpec,
    construct_a,
    deletion_set,
    enumerate_collisions,
    normalize_largest,
    one_sided_weights,
    reduced_weight_pairs,
)
from .counting import ReprTable, repr_multiset, repr_strict, repr_weighted
from .harness import (
    ExperimentConfig,
    basis_floor_check,
    boundedness_check,
    canonical_json,
    replay_report,
    run_construction,
    run_experiment,
    validate_report,
)
from .ratio_bounds import (
    RatioCurve,
    TailBoundError,
    composition_curve,
    geometric_grid,
    shifted_tail_curve,
    signed_composition_curve,
    split_sum_curve,
)
from .sampling import (
    ModelParams,
    SampledSet,
    expected_count,
    inclusion_probability,
    sample_set,
)
from .verify import (
    BasisReport,
    BhgVerdict,
    basis_window,
    decomposition_summary,
    is_bhg,
)

__version__ = "0.1.0"

__all__ = [
    "DISTINCT_2H",
    "WEIGHTED",
    "BasisReport",
    "BhgVerdict",
    "CollisionRecord",
    "ExperimentConfig",
    "ModelParams",
    "RatioCurve",
    "ReprTable",
    "SampledSet",
    "TailBoundError",
    "WeightSpec",
    "basis_floor_check",
    "basis_window",
    "boundedness_check",
    "canonical_json",
    "composition_curve",
    "construct_a",
    "decomposition_summary",
    "deletion_set",
    "enumerate_collisions",
    "expected_count",
    "geometric_grid",
    "inclusion_probability",
    "is_bhg",
    "normalize_largest",
    "one_sided_weights",
    "reduced_weight_pairs",
    "replay_report",
    "repr_multiset",
    "repr_strict",
    "repr_weighted",
    "run_construction",
    "run_experiment",
    "sample_set",
    "shifted_tail_curve",
    "signed_composition_curve",
    "split_sum_curve",
    "validate_report",
]
