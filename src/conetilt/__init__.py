"""conetilt: exact Hom/Ext dimensions on weighted projective cones.

An exact-arithmetic engine for the cones P(1,...,1,m): monomial models
for twist cohomology, closed-form graded Hom rules between the
generator sheaves, automatic long-exact-sequence dimension chases for
kernel bundles, and a verification layer for tilting objects and
semiorthogonal decompositions.
"""

from .cone import (
    ConeSpace,
    Monomial,
    cone_cohomology_dim,
    laurent_top_basis,
    make_space,
    section_cohomology_dim,
    section_monomials,
    weighted_monomials,
)
from .linalg import (
    DirectSpace,
    EngineError,
    IllDefinedMap,
    PresentedMap,
    ShapeMismatch,
    Subquotient,
)
from .objects import (
    HomComputation,
    IndeterminateRank,
    KernelBundle,
    LongExactSequence,
    SumObject,
    direct_sum,
    euler_form,
    hom_objects,
    hom_objects_detailed,
    kernel_bundle,
    kernel_bundle_custom,
    ladder_propagate,
    les_hom_contra,
    les_hom_cov,
    rank_of,
)
from .rules import (
    Atom,
    GradedHom,
    OX,
    OZ,
    OutOfValidity,
    PresentationMismatch,
    hom_atoms,
)
from .tilting import (
    check_sod,
    end_blocks,
    stack_exceptional_check,
    stack_hom_dims,
)

__version__ = "0.1.0"
