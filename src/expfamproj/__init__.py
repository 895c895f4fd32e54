"""Low-rank factorisation of natural-parameter matrices for exponential
family data, with MAP and MCMC inference over a composite conjugate plus
Gaussian prior."""

from .chains import Chain, load_chain, save_chain, shared_latent_mean
from .evaluation import (CoupledData, MaskError, StatError, generate_coupled,
                         heldout_loglik, knn_latent_error,
                         paired_significance, prediction_error,
                         time_between_uncorrelated)
from .expfam import (BERNOULLI, EXPONENTIAL, FAMILIES, GAUSSIAN_UNIT,
                     POISSON, ConjugateHyper, DomainError, SupportError,
                     get_family)
from .gibecca import (GibeccaOptions, StageError, gibbs_gaussian_stage,
                      mh_accept_elements, propose_theta_rows, run_gibecca)
from .hmc_infer import (ChainError, ExchangeOptions, HmcOptions,
                        exchange_update_hyper, hmc_step, run_hmc_chain,
                        sample_prior_approx)
from .map_infer import (FitError, FoldInError, MapFit, MapOptions,
                        cv_select_hyperparams, fit_map, predict_target)
from .model import (BlockLayout, ConfigError, FactorState, LayoutError,
                    ObservationSet, ShapeError, assemble_theta,
                    load_observations, log_likelihood, log_likelihood_theta,
                    make_layout)
from .prior import PriorSpec, log_prior_unnorm

__all__ = [
    "BERNOULLI", "BlockLayout", "Chain", "ChainError", "ConfigError",
    "ConjugateHyper", "CoupledData", "DomainError", "EXPONENTIAL",
    "ExchangeOptions", "FAMILIES", "FactorState", "FitError", "FoldInError",
    "GAUSSIAN_UNIT", "GibeccaOptions", "HmcOptions",
    "LayoutError", "MapFit", "MapOptions", "MaskError", "ObservationSet",
    "POISSON", "PriorSpec", "ShapeError", "StageError",
    "StatError", "SupportError", "assemble_theta", "cv_select_hyperparams",
    "exchange_update_hyper", "fit_map", "generate_coupled", "get_family",
    "gibbs_gaussian_stage", "heldout_loglik", "hmc_step", "knn_latent_error",
    "load_chain", "load_observations", "log_likelihood",
    "log_likelihood_theta", "make_layout", "mh_accept_elements",
    "paired_significance", "predict_target", "prediction_error",
    "propose_theta_rows", "run_gibecca", "run_hmc_chain",
    "sample_prior_approx", "save_chain", "shared_latent_mean",
    "time_between_uncorrelated",
]
