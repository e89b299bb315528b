"""Exact computations with 2-cocycles on discrete groups.

The library decides Kleppner's condition K, computes regular conjugacy
classes and twisted group algebra centers for finite groups, handles the
integer-lattice and rank-3 nilpotent cocycle families exactly, and
assembles direct-product and free-product multipliers algorithmically.
"""

from .algebra import (
    AlgebraElement,
    PhaseSum,
    center_dimension_numeric,
    convolve,
    identify_matrix_algebra,
    trace,
)
from .groups import FiniteGroup, build, cyclic, direct_product
from .lattices import (
    G3Multiplier,
    LatticeMultiplier,
    MuMatrix,
    Theta,
    condition_k_lattice,
    g3_condition_k,
    g3_inverse,
    g3_multiply,
    g3_value,
    is_regular_lattice,
    qtheta_dimension,
    torus_value,
)
from .freeprod import (
    FreeProduct,
    FreeProductMultiplier,
    decompose,
    free_product_multiplier,
    rewrite_to_X,
)
from .multipliers import (
    KleinMultiplier,
    Multiplier,
    TableMultiplier,
    klein,
    normalize,
    trivial_multiplier,
    validate,
)
from .products import Bihomomorphism, f_degeneracy, two_of_three
from .regularity import center_basis, condition_k, is_regular_element, regular_classes
from .torus import IrrationalBasis, RotationNumber, rot

__version__ = "0.1.0"
