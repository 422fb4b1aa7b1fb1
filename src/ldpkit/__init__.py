"""Finite-alphabet toolkit for hockey-stick divergences, contraction
coefficients of Markov kernels, exact (epsilon, delta)-LDP profiles, and
privacy-constrained risk lower bounds."""

from .bounds import (
    BayesConfig,
    BoundReport,
    GridSpec,
    bayes_egamma_lb,
    bayes_gamma_opt_lb,
    bayes_xu_raginsky_private,
    fano_lb,
    highdim_mean_lb,
    ht_exponent,
    lecam_private,
    mi_cap,
    moment_estimation_lb,
    small_ball_uniform01,
)
from .contraction import (
    PrivacyParams,
    eta_kl_bsc,
    eta_tv_from_eta_gamma,
    gamma_from_epsilon,
    phi,
    phi_n,
    two_point_scan,
)
from .dist import Distribution, FGenerator, f_divergence
from .errors import CapacityError, DimensionError, DomainError
from .info import (
    BernoulliUniformModel,
    JointDistribution,
    bu_igamma,
    bu_mutual_information,
    f_information,
)
from .kernel import (
    Kernel,
    bsc,
    k_rr,
    load_kernel,
    parse_kernel,
    randomized_response,
    tensor_power,
)
from .ldp import (
    EpsilonSearchResult,
    EquivalenceReport,
    PrivacyProfile,
    delta_at,
    is_ldp,
    privacy_profile,
    tightest_epsilon,
    verify_equivalence,
)
from .oracle import (
    ProfileCheckReport,
    SearchConfig,
    brute_eta_f,
    brute_profile_check,
)

__version__ = "0.1.0"
