"""lacsum: L1 norms of exponential sums and the lacunary CLT toward sqrt(pi)/2."""

from .cltlab import (
    CharFnPoint,
    CltReport,
    FinalChainAudit,
    GaussianSpec,
    SmoothingInputs,
    ValueWithError,
    alpha_at,
    alpha_mean,
    beta_at,
    clt_report,
    default_phi_grid,
    deviation_bound,
    empirical_char_fn,
    gaussian_abs_mean,
    ks_distance_to_normal,
    product_moment,
    sample_mu_nu,
    smoothing_bound,
    w_remainder,
)
from .energy import (
    EnergyCertificate,
    count_quadruple_solutions,
    holder_lower_bound,
    is_sidon,
    mian_chowla,
)
from .errors import (
    BudgetExceeded,
    CapacityExceeded,
    DomainError,
    FrequencyTooLarge,
    LacsumError,
    SearchSpaceTooLarge,
)
from .frequency import (
    FrequencySet,
    evaluate_sum,
    lacunary_set,
    make_frequency_set,
    parse_freqs_file,
    write_freqs_file,
)
from .norms import (
    McConfig,
    NormEstimate,
    fourth_moment_cos,
    l1_auto,
    l1_monte_carlo,
    lp_norm_quadrature,
    markov_tail_fraction,
)
from .search import (
    SQRT_PI_OVER_2,
    SearchResult,
    StudyRow,
    anneal_sigma,
    canonicalize,
    convergence_study,
    exhaustive_sigma,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
