import importlib
import os
import subprocess
import sys

import pytest

import ldpkit
from support import ldpkit_path

# The package's public names, by the module that defines each one.
PUBLIC = {
    "bounds": [
        "BayesConfig", "BoundReport", "GridSpec", "bayes_egamma_lb", "bayes_gamma_opt_lb",
        "bayes_xu_raginsky_private", "fano_lb", "highdim_mean_lb", "ht_exponent",
        "lecam_private", "mi_cap", "moment_estimation_lb", "small_ball_uniform01",
    ],
    "contraction": [
        "PrivacyParams", "eta_kl_bsc", "eta_tv_from_eta_gamma", "gamma_from_epsilon", "phi",
        "phi_n", "two_point_scan",
    ],
    "dist": ["Distribution", "FGenerator", "f_divergence"],
    "errors": ["CapacityError", "DimensionError", "DomainError"],
    "info": [
        "BernoulliUniformModel", "JointDistribution", "bu_igamma", "bu_mutual_information",
        "f_information",
    ],
    "kernel": [
        "Kernel", "bsc", "k_rr", "load_kernel", "parse_kernel", "randomized_response",
        "tensor_power",
    ],
    "ldp": [
        "EpsilonSearchResult", "EquivalenceReport", "PrivacyProfile", "delta_at", "is_ldp",
        "privacy_profile", "tightest_epsilon", "verify_equivalence",
    ],
    "oracle": ["ProfileCheckReport", "SearchConfig", "brute_eta_f", "brute_profile_check"],
}


def test_all_is_the_fifty_public_names():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 50
    assert sorted(ldpkit.__all__) == names
    assert set(names) <= set(dir(ldpkit))


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_each_name_is_the_object_its_module_defines(module, name):
    assert getattr(ldpkit, name) is getattr(importlib.import_module(f"ldpkit.{module}"), name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'grid_max'"):
        ldpkit.grid_max  # noqa: B018


def test_import_ldpkit_loads_no_numpy():
    # Names resolve on first access, so the bare import reads no submodule.
    code = "import sys, ldpkit; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'ldpkit.'))))"
    env = dict(os.environ, PYTHONPATH=ldpkit_path())
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
