"""nlqsim: qubit state discrimination and unstructured search under
amplitude nonlinearities of the Gross-Pitaevskii family."""

__version__ = "0.1.0"

from .nonlinearity import (  # noqa: F401
    Kind,
    Nonlinearity,
    ReducedNonlinearity,
    build_from_mu_nu,
    from_odd_function,
    gross_pitaevskii,
    logarithmic,
    parse,
    piecewise_from_csv,
    piecewise_from_table,
    quartic_difference,
    reduce,
    square_root_sign,
)
from ._ode import SimTrace  # noqa: F401
from .blochdyn import (  # noqa: F401
    PairOrientation,
    axis_drive,
    integrate,
    ip_rate,
    ip_rate_vectors,
    optimal_pair,
    pair_to_bloch,
)
from .discrimination import (  # noqa: F401
    DiscriminationResult,
    OrientationPolicy,
    gp_overlap_closed_form,
    gp_t_perp,
    log_overlap_rate,
    time_to_overlap,
)
from .bounds import (  # noqa: F401
    GrowthCertificate,
    GrowthRefusal,
    LipschitzEstimate,
    certify_growth,
    check_lipschitz_separation_bound,
    estimate_lipschitz,
)
from .search import (  # noqa: F401
    Decision,
    HadamardTestOutcome,
    SearchInstance,
    SearchReport,
    hadamard_test,
    integrate_nlse,
    lower_bound_audit,
    oracle_overlap,
    run_search,
)
from .optimizer import (  # noqa: F401
    OptimizationResult,
    PairEmbedding,
    optimize_orientation,
    orientation_chain,
    rate_functional,
)
from .meanfield import (  # noqa: F401
    CondensateParams,
    gp_validity_time,
    meanfield_overlap,
)
