"""warpflow: star-shaped hypersurfaces in warped products at desk scale.

Library layout mirrors the pipeline: `ambient` describes the warped-product
space, `grid` and `surface` discretize a radial graph and its extrinsic
geometry, `quantities` integrates the scalar functionals, `inequalities`
turns the sharp three-term inequalities into signed deficits and defines the
monotone functionals that guard the inverse-curvature flows of `flows`, and
`cli` wraps everything for the command line; each imports only those before.
"""

from .ambient import (
    WarpedSpace,
    make_custom,
    make_space_form,
    probe_assumptions,
    sphere_area,
)
from .grid import SphereGrid, circle_grid, differentiate, sphere_grid
from .surface import (
    DomainError,
    GeometryFields,
    RadialGraph,
    geometry,
    make_seed_surface,
)
from .quantities import (
    QuantityReport,
    full_report,
    quermassintegrals,
    surface_integral,
    volume,
    weighted_volume,
)
from .inequalities import (
    DeficitReport,
    ball_chi,
    ball_chi_inverse,
    ball_xi,
    curve_kwww_deficit,
    deficit_boundary_momentum,
    deficit_hyperbolic_ref,
    deficit_phi_quermass_euclidean,
    deficit_sphere_ref,
    deficit_weinstock_iso,
    kwong_miao_deficit,
    minkowski_residual,
    monotone_series,
    q_imcf,
    q_k_euclidean,
)
from .flows import FlowSpec, FlowTrace, evolve, speed, variational_check

__version__ = "0.1.0"
