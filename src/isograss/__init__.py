"""Orbit strata of Grassmannians over odd prime fields.

Exact linear algebra, bilinear geometry, the rank stratification of
Gr_k(B) for ordered orthogonal sums of symmetric/skew forms, affine
pavings of isotropic Grassmannians, resolution towers of orbit closures,
and count-polynomial utilities, all verified by exhaustive point counting.
"""

from .bilinear import (
    SKEW,
    SYMMETRIC,
    BilinearSpace,
    perp,
    radical,
    standard_space,
    transport_isometry,
    witt_decompose,
)
from .linalg import (
    BudgetExceeded,
    Subspace,
    enumerate_subspaces,
    span,
    subspace_intersect,
    subspace_sum,
)
from .orbits import (
    DOUBLEPRIME0,
    PRIME0,
    SingleLabel,
    component_group_order,
    label_of,
    orbit_dim,
    valid_labels,
)
from .paving import build_paving, iso_grassmannian_count
from .polynomials import IntPolynomial, gaussian_binomial, interpolate_counts
from .sumspace import (
    MultiLabel,
    SumSpace,
    build_sum_space,
    component_group_order_multi,
    enumerate_multilabels,
    multilabel_of,
    orbit_dim_multi,
    orbit_point_counts,
    slice_weights,
)
from .towers import (
    closure_labels,
    cover_fiber,
    resolution_tower,
    tower_fiber,
    tower_points,
)

__version__ = "0.1.0"
