"""Interaction energies on automorphism orbits of regular rooted trees.

The library models configurations of particles on the leaves of an m-ary
rooted tree, their orbits under automorphisms fixing a base vertex, the
interaction energy summed over an orbit, and a family of product bounds on
that energy with several constant regimes, all cross-checked against
brute-force oracles at desk scale.
"""

from .bounds import (
    ExponentAssignment,
    ExponentViolation,
    KInductiveResult,
    MuirheadEstimate,
    MuirheadSpec,
    MuirheadValue,
    NodeAccount,
    cosh_ratio,
    k_inductive,
    level_power_sum,
    muirhead_closed_form,
    muirhead_numeric,
    regime_constant,
    rhs_product,
    symmetric_sum,
    validate_exponents,
)
from .energy import (
    EnergyResult,
    factorized_from_shape,
    interaction_value,
    orbit_energy_bruteforce,
    orbit_energy_factorized,
)
from .orbits import (
    Configuration,
    EnumerationGuardError,
    JoinNode,
    JoinWalk,
    JoinShape,
    ShapeLeaf,
    ShapeNode,
    equivalent,
    extract_shape,
    injective_sum,
    orbit_enumerate,
    orbit_size,
    shape_join_levels,
    shape_orbit_size,
)
from .tree import (
    ROOT,
    ConfigurationError,
    LevelFunction,
    TreeParams,
    Vertex,
    WeightAssignment,
    common_join,
    cylinder_masses,
    join,
    join_multiset,
)
from .verify import (
    CampaignSpec,
    CampaignSummary,
    ExampleReport,
    Instance,
    InstanceRanges,
    Report,
    check_equality_case,
    check_inequality,
    fuzz_campaign,
    load_instance,
    open_ratio_csv,
    random_instance,
    reproduce_example,
    worked_example_configuration,
)

__version__ = "0.1.0"
