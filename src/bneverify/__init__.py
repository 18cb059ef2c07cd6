"""Certified equilibrium-gap verification for sealed-bid auctions.

Estimates, with high-probability error bounds, how far a bidding-strategy
profile is from an approximate Bayesian Nash equilibrium, from samples of
the value prior and the induced bid distribution. Supports single-item and
combinatorial first-price rules plus discriminatory and uniform-price
multi-unit rules, with ex interim certificates for independent private
values and ex ante certificates for interdependent priors.

Importing the package loads none of its modules: each public name, and
each module read as an attribute, is imported on first use (PEP 562), so a
verify job loads only the modules it runs.
"""
import importlib

__version__ = "0.1.0"

# the module that defines each public name
_SOURCES = {
    "BACKEND_NAME": "_backend",
    **dict.fromkeys(("Cell", "Dataset", "GameConfig", "Grid", "MechanismSpec",
                     "Partition", "load_dataset", "make_grid", "save_dataset",
                     "split_by_partition"), "model"),
    **dict.fromkeys(("Outcome", "eval", "multiunit_allocation",
                     "winner_determination"), "mechanisms"),
    **dict.fromkeys(("Identity", "LinearShade", "PiecewiseLinearMonotone",
                     "Power", "Strategy", "StrategyProfile",
                     "profile_from_config", "pushforward_density_bound"),
                    "strategies"),
    **dict.fromkeys(("Beta", "CorrelatedCommonValue", "IndependentProduct",
                     "Uniform", "sample_dataset", "tv_integral_bound",
                     "tv_profile", "tv_radius"), "priors"),
    **dict.fromkeys(("ExAnteEstimate", "ExInterimEstimate", "estimate_ex_ante",
                     "estimate_ex_interim"), "estimator"),
    **dict.fromkeys(("AgentBound", "ExAnteSpecs", "InterimSpecs",
                     "assemble_ex_ante", "assemble_interim", "eps_disp",
                     "eps_hoeffding", "eps_pdim_ex_ante", "eps_pdim_interim",
                     "pdim"), "bounds"),
    **dict.fromkeys(("OracleResult", "analytic_fpsb_loss", "exhaustive_wd",
                     "quadrature_tv"), "oracle"),
}
__all__ = list(_SOURCES)
_MODULES = frozenset({"_backend", "_kernels_py", "bounds", "cli", "estimator",
                      "mechanisms", "model", "oracle", "priors", "strategies"})


def __getattr__(name):
    if name in _MODULES:   # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
