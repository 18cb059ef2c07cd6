"""Certified equilibrium-gap verification for sealed-bid auctions.

Estimates, with high-probability error bounds, how far a bidding-strategy
profile is from an approximate Bayesian Nash equilibrium, from samples of
the value prior and the induced bid distribution. Supports single-item and
combinatorial first-price rules plus discriminatory and uniform-price
multi-unit rules, with ex interim certificates for independent private
values and ex ante certificates for interdependent priors.
"""
from ._backend import BACKEND_NAME
from .model import (Cell, Dataset, GameConfig, Grid, MechanismSpec,
                    Partition, load_dataset, make_grid, save_dataset,
                    split_by_partition)
from .mechanisms import (Outcome, eval, multiunit_allocation,
                         winner_determination)
from .strategies import (Identity, LinearShade, PiecewiseLinearMonotone,
                         Power, Strategy, StrategyProfile,
                         profile_from_config, pushforward_density_bound)
from .priors import (Beta, CorrelatedCommonValue, IndependentProduct,
                     Uniform, sample_dataset, tv_integral_bound, tv_profile,
                     tv_radius)
from .estimator import (ExAnteEstimate, ExInterimEstimate, estimate_ex_ante,
                        estimate_ex_interim)
from .bounds import (AgentBound, ExAnteSpecs, InterimSpecs, assemble_ex_ante,
                     assemble_interim, eps_disp, eps_hoeffding,
                     eps_pdim_ex_ante, eps_pdim_interim, pdim)
from .oracle import (OracleResult, analytic_fpsb_loss, exhaustive_wd,
                     quadrature_tv)

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAME",
    "Cell", "Dataset", "GameConfig", "Grid",
    "MechanismSpec", "Partition", "load_dataset", "make_grid",
    "save_dataset", "split_by_partition",
    "Outcome", "eval", "multiunit_allocation", "winner_determination",
    "Identity", "LinearShade", "PiecewiseLinearMonotone", "Power",
    "Strategy", "StrategyProfile", "profile_from_config",
    "pushforward_density_bound",
    "Beta", "CorrelatedCommonValue", "IndependentProduct", "Uniform",
    "sample_dataset", "tv_integral_bound", "tv_profile", "tv_radius",
    "ExAnteEstimate", "ExInterimEstimate", "estimate_ex_ante",
    "estimate_ex_interim",
    "AgentBound", "ExAnteSpecs", "InterimSpecs", "assemble_ex_ante",
    "assemble_interim", "eps_disp", "eps_hoeffding", "eps_pdim_ex_ante",
    "eps_pdim_interim", "pdim",
    "OracleResult", "analytic_fpsb_loss", "exhaustive_wd", "quadrature_tv",
]
