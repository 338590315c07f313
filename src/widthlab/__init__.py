"""widthlab: certified brackets for covering/packing numbers, entropy numbers,
linear and N-subspace Kolmogorov-type widths, and the explicit Lipschitz-map
constructions connecting them, on finite point clouds and a slowly decaying
coordinate sequence family."""

from .entropy import (
    CoverResult,
    PackingResult,
    cover_number,
    entropy_number,
    greedy_cover,
    ksigma_inner_entropy_attained,
    ksigma_nested_cover_radius,
    ksigma_packing_count,
    max_packing,
    packing_number,
)
from .harness import (
    RateFit,
    Verdict,
    bracket_leq,
    check_carl,
    check_entropy_from_width,
    check_generalized_carl,
    check_L6_schedule,
    check_lower_bound_theorems,
    check_width_chain,
    entropy_sandwich,
    fit_rate,
    ksigma_entropy_series,
    ksigma_inner_entropy_series,
    ksigma_linear_width_series,
    ksigma_nonlinear_width_series,
    packing_cover_sandwich,
    witness_envelope,
)
from .lipschitz import (
    CubeBumpSystem,
    HatSystem,
    IsometryChart,
    JohnMap,
    LipschitzMapSpec,
    build_phi,
    build_psi,
    build_theta_xi,
    estimate_lipschitz,
    fixed_width_upper,
    john_ellipsoid,
)
from .mterm import (
    VPOperator,
    best_m_term,
    best_tail,
    check_sigma_chain,
    vp_apply,
)
from .spaces import (
    Bracket,
    CompactSetModel,
    NormSpec,
    chebyshev_radius,
    minimum_enclosing_ball,
    norm_of,
    scale_set,
    sigma_value,
    sup_norm,
)
from .widths import (
    SubspaceFamily,
    WidthResult,
    dist_to_subspace,
    ksigma_nonlinear_width_upper,
    linear_width,
    nonlinear_width,
)

__version__ = "0.1.0"
