"""Finite-alphabet toolkit for hockey-stick divergences, contraction
coefficients of Markov kernels, exact (epsilon, delta)-LDP profiles, and
privacy-constrained risk lower bounds.

``import ldpkit`` loads no submodule and no numpy. Each public name is
imported from its module on first access (PEP 562), so ``ldpkit.Kernel``
costs the numpy import only when it is first used.
"""

import importlib

__version__ = "0.1.0"

# Library defaults the command-line parser reads too, kept here so that
# parsing argv needs no numpy. The verifier's fixed seed (override per call
# for independent replications), and the f-divergence kinds that
# ``dist.F_KINDS`` maps to their formulas, in order.
DEFAULT_SEED = 1729
F_KIND_NAMES = ("tv", "kl", "chi2", "hellinger_sq", "egamma")

_EXPORTS = {
    "bounds": (
        "BayesConfig", "BoundReport", "GridSpec", "bayes_egamma_lb", "bayes_gamma_opt_lb",
        "bayes_xu_raginsky_private", "fano_lb", "highdim_mean_lb", "ht_exponent",
        "lecam_private", "mi_cap", "moment_estimation_lb", "small_ball_uniform01",
    ),
    "contraction": (
        "PrivacyParams", "eta_kl_bsc", "eta_tv_from_eta_gamma", "gamma_from_epsilon", "phi",
        "phi_n", "two_point_scan",
    ),
    "dist": ("Distribution", "FGenerator", "f_divergence"),
    "errors": ("CapacityError", "DimensionError", "DomainError"),
    "info": (
        "BernoulliUniformModel", "JointDistribution", "bu_igamma", "bu_mutual_information",
        "f_information",
    ),
    "kernel": (
        "Kernel", "bsc", "k_rr", "load_kernel", "parse_kernel", "randomized_response",
        "tensor_power",
    ),
    "ldp": (
        "EpsilonSearchResult", "EquivalenceReport", "PrivacyProfile", "delta_at", "is_ldp",
        "privacy_profile", "tightest_epsilon", "verify_equivalence",
    ),
    "oracle": ("ProfileCheckReport", "SearchConfig", "brute_eta_f", "brute_profile_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
