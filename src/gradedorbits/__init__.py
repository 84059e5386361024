"""Filled-diagram combinatorics for graded classical Lie algebras.

Enumerates nilpotent orbit labels per grading family, evaluates the counting
generating functions against brute-force enumeration, catalogs sheaf labels
and verifies the orbit-to-label bijections, and cross-checks the
distinguishedness predicate against an exact linear-algebra oracle.
"""

__version__ = "0.1.0"

from .diagrams import (
    FilledDiagram,
    MINUS,
    PLUS,
    canonicalize,
    count_by_size,
    count_diagrams,
    dimension_vector,
    empty_diagram,
    enumerate_by_size,
    enumerate_diagrams,
    iter_diagrams,
    multipartitions,
    partitions,
)
from .orbits import (
    GradingSpec,
    Stratum,
    admissible_for_case,
    centralizer_dim,
    component_group_order,
    d_check_dual,
    d_check_stratum,
    duality,
    enumerate_strata,
    full_support_stratum_ii,
    is_distinguished_ai,
    is_distinguished_ii,
    orbit_dim,
    peel_ai,
    peel_ii,
    stratum_dim_ai,
)
from .series import (
    TruncSeries,
    gf_distinguished_ai,
    gf_distinguished_ii,
    gf_orbit_count,
    weight_count,
    weight_sum,
)
from .oracle import (
    GradedMatrix,
    build_representative,
    centralizer_dim_gl,
    is_distinguished_oracle,
)
from .sheaves import (
    CentralCharacter,
    SheafLabel,
    catalog,
    cuspidal_ai,
    divisors,
    exact_order_characters,
    map_sheaf,
    orbital_complexes,
    verify_bijection,
)
