"""Orbit combinatorics and polynomial invariants of the exotic nilpotent
cone of a symplectic group.

The pieces fit together as follows: orbits of the cone are labelled by
marked partitions (:mod:`exocone.partitions`), which biject with
bi-partitions; each orbit has a deterministic representative and a
pointwise classifier (:mod:`exocone.nilcone`) built on exact linear algebra
and Pfaffians (:mod:`exocone.algebra`); the attached Weyl-group data lives
in :mod:`exocone.weyl`; Joseph polynomials of torus presentations and the
Macdonald representations they span are in :mod:`exocone.joseph`;
characteristic-two point counts are in :mod:`exocone.charp`; and
:mod:`exocone.verify` bundles the named cross-check suites behind the
command line (:mod:`exocone.cli`).
"""

from .algebra import (
    LaurentChar,
    Matrix,
    MultiPoly,
    is_nilpotent,
    jordan_type,
    kernel_basis,
    linear_form,
    lowest_term,
    pfaffian,
    rank,
    row_reduce,
    solve_linear,
)
from .charp import (
    GF,
    count_exotic_points,
    count_nilpotent_points,
    from_lie_algebra,
    is_nilpotent_lie,
    to_lie_algebra,
    verify_transport,
)
from .joseph import (
    Presentation,
    irrep_dim,
    joseph_poly,
    k_polynomial,
    macdonald_poly,
    macdonald_span,
)
from .nilcone import (
    ExoticVector,
    alt_coords,
    as_endomorphism,
    cone_dim,
    invariant_polys,
    is_in_nilcone,
    marked_invariant,
    orbit_dim,
    representative,
    symplectic_form,
)
from .partitions import (
    BiPartition,
    MarkedPartition,
    Partition,
    bipartition,
    bipartitions,
    from_bipartition,
    marked_partitions,
    markings_of,
    partition_count,
    partitions,
    to_bipartition,
)
from .verify import SuiteReport, run_suite, suite_names
from .weyl import (
    SignedPermutation,
    act_on_poly,
    block_boundaries,
    exotic_weights,
    is_stable_weight,
    positive_roots,
    simple_reflection,
    special_element,
    stable_weights,
    weyl_group,
)

__version__ = "0.1.0"
