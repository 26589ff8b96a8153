"""Exact-arithmetic criteria for gradings, expanding maps and self-covers
of rational nilpotent Lie algebras."""

from .grading import (
    Grading,
    classify,
    find_weights,
    grading_from_weights,
    meets_criterion,
    phi_p,
    preserved_by,
    verify_grading,
    weight_solution_space,
)
from .holonomy import (
    HolonomyGroup,
    check_criterion,
    close_group,
    commutes_with_all,
    preserves_grading_all,
)
from .latpow import (
    LatticePowerCertificate,
    ObstructionPrime,
    denominator_primes,
    obstruction_primes_pair,
    orbit_escapes_lattice,
    power_into_lattice,
)
from .liealg import (
    LieAlgebra,
    abelianization,
    bracket,
    derivations,
    induced_map,
    is_automorphism,
    is_characteristically_nilpotent,
    lower_central_series,
    nilpotency_class,
    validate,
)
from .matrices import IntegerLattice, QMat, charpoly, hnf, hnf_membership, order_mod, rmat, rvec
from .polynomials import Polynomial, factor_over_q, squarefree_part
from .matrices import primary_decomposition
from .specmaps import (
    NormProfile,
    expanding_to_positive_grading,
    grading_from_profile,
    is_expanding,
    map_problems,
    norm_profile,
    selfcover_to_nonneg_grading,
    semisimple_part,
)
from .verdict import Verdict

__version__ = "0.1.0"
