"""lacsum: L1 norms of exponential sums and the lacunary CLT toward sqrt(pi)/2.

The package namespace is lazy (PEP 562): `import lacsum` loads no
submodule, and each public name is looked up on the submodule that owns it
when it is read, importing that submodule the first time. A name is never
copied into this namespace, so `lacsum.<name>` is always the owner's current
attribute.
"""

import sys

__version__ = "0.1.0"

# The public API: each submodule and the names it owns.
_API = {
    "cltlab": (
        "CharFnPoint",
        "CltReport",
        "FinalChainAudit",
        "GaussianSpec",
        "SmoothingInputs",
        "ValueWithError",
        "alpha_at",
        "alpha_mean",
        "beta_at",
        "clt_report",
        "default_phi_grid",
        "deviation_bound",
        "gaussian_abs_mean",
        "ks_distance_to_normal",
        "product_moment",
        "smoothing_bound",
        "w_remainder",
    ),
    "energy": (
        "EnergyCertificate",
        "count_quadruple_solutions",
        "holder_lower_bound",
        "is_sidon",
        "mian_chowla",
    ),
    "errors": (
        "BudgetExceeded",
        "CapacityExceeded",
        "DomainError",
        "FrequencyTooLarge",
        "LacsumError",
        "SearchSpaceTooLarge",
    ),
    "norms": (
        "McConfig",
        "NormEstimate",
        "fourth_moment_cos",
        "l1_monte_carlo",
        "lp_norm_quadrature",
        "markov_tail_fraction",
    ),
    "search": (
        "SQRT_PI_OVER_2",
        "SearchResult",
        "StudyRow",
        "anneal_sigma",
        "convergence_study",
        "exhaustive_sigma",
    ),
    "sets": (
        "FrequencySet",
        "canonicalize",
        "evaluate_sum",
        "lacunary_set",
        "make_frequency_set",
        "parse_freqs_file",
    ),
}
_OWNER = {name: module for module, names in _API.items() for name in names}
_SUBMODULES = (
    "cli", "cltlab", "energy", "errors", "frequency", "norms", "quadrature", "records", "rng", "search", "sets",
)

__all__ = sorted(_OWNER)


def _submodule(name: str):
    """lacsum.<name>, imported by the import statement's machinery, so the
    import raises the `import` audit event and shows in -X importtime."""
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(_submodule(_OWNER[name]), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
