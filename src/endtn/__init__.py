"""Verified computations in End(T_n), the endomorphism monoid of the
full transformation semigroup on n points."""

from .errors import CapacityError, NotAnEndomorphismError, VerificationError
from .transformations import Transformation, compose, conjugate
from .pairs import (
    PermissiblePair,
    count_pairs_for,
    enumerate_P,
    is_permissible,
)
from .endomorphisms import (
    Endomorphism,
    TypeTag,
    apply,
    aut,
    enumerate_End,
    epsilon,
    identify,
    multiply,
    oracle_multiply,
    phi,
    sigma4,
    star_map,
)
from .universe import ElementIndex, Universe, get_index, get_universe
from .structure import (
    AbundanceReport,
    FixSet,
    GreenPartition,
    IdealDescription,
    IdempotentPartition,
    PrincipalIdeals,
    abundance_report,
    component_of,
    enumerate_ideals,
    extended_partition,
    fix_set,
    green_partition,
    idempotent_partition,
    j_leq,
    principal_ideals,
    regular_elements,
)
from .presentation import (
    Orbit,
    Presentation,
    Relation,
    essential_orbits,
    minimal_generating_set,
    normal_form,
    orbits,
    presentation,
    rank_counts,
    theta_eval,
    verify_generates,
)

__version__ = "0.1.0"
