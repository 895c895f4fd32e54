"""Alternating Gibbs / Metropolis-Hastings sampler over (Theta, U, V).

Each sweep has two stages.  First, with Theta held fixed and treated as
data, one conjugate Gibbs sweep of the all-Gaussian factor model

    Theta_n ~ N(u_n V, diag residual),   u ~ N(0, diag var_u),
    free V entries ~ N(0, var_v per row)

updates U, V and (optionally) the variances, all in closed form.  Second,
every entry of Theta gets a Metropolis refresh.  The proposal is that
model's own draw of Theta, Theta* = U V + sqrt(r) * Z with the full U and
V and r each column's view residual, independent across entries.  Given
U, V and the residuals the target factorises over entries, and its
Gaussian factor is the proposal, so each entry is accepted on its own
with probability

    min(1, [p(x | theta*) a(theta*)^beta] / [p(x | theta) a(theta)^beta]),

rejecting anything outside the family domain.  Unobserved entries carry
no likelihood term and accept whenever in-domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .chains import Chain, ChainOptions, ChainRecorder
from .model import (BlockLayout, ConfigError, FactorState, LayoutError,
                    ObservationSet, ShapeError)
from .map_infer import _check_obs_layout, moment_matched_row
from .prior import PriorSpec, factor_sums_of_squares

IG_SHAPE = 1.0   # inverse-gamma hyperprior on variances
IG_SCALE = 1.0

# the LAPACK routines behind scipy's cho_solve and solve_triangular
_POTRS = linalg.lapack.dpotrs
_TRTRS = linalg.lapack.dtrtrs


class StageError(ValueError):
    """Gaussian stage received a non-finite Theta or could not solve."""


@dataclass
class GaussianStageState:
    """State of the Gaussian stage: factors and variances.

    var_u and var_v are the effective per-component variances of the
    Gaussian factor priors (the spec's sigma divided by gamma); resid holds
    one residual variance per view.
    """

    u: np.ndarray
    v: np.ndarray
    var_u: np.ndarray
    var_v: np.ndarray
    resid: np.ndarray


def _inv_gamma(rng, shape, scale):
    return scale / rng.gamma(shape)


@dataclass(frozen=True)
class StagePlan:
    """Layout-derived indices the Gaussian stage reads on every sweep.

    widths repeats the per-view residual across its columns.  Each entry
    of views is (view index, its columns, its free V rows, the np.ix_
    block of V they span).  n_free counts the free entries of each V row.
    """

    widths: np.ndarray
    views: tuple
    n_free: np.ndarray


def stage_plan(layout: BlockLayout) -> StagePlan:
    """The Gaussian stage's index plan for a layout; one serves a chain."""
    k, d = layout.k_total, layout.d_total
    blocks = []
    for i in range(layout.n_views):
        cols = layout.cols_view[i]
        # free rows on view i: shared plus the view's own specific block
        rows = np.r_[np.arange(layout.ranks[0]),
                     np.arange(k)[layout.rows_view[i]]]
        blocks.append((i, cols, rows, np.ix_(rows, np.arange(d)[cols])))
    return StagePlan(np.asarray(layout.view_widths[:layout.n_views]),
                     tuple(blocks), np.sum(~layout.zero_mask, axis=1))


def _cholesky(prec, block):
    try:
        return np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise StageError(f"precision of {block} is not positive definite: "
                         f"{exc}") from exc


def _cho_solve(chol, b):
    """P^{-1} b given the lower Cholesky factor of P."""
    x, info = _POTRS(chol, b, lower=1)
    if info:
        raise StageError(f"potrs failed with info {info}")
    return x


def _sample_mvn_rows(mean, prec_chol, rng):
    """Rows ~ N(mean_row, P^{-1}) given the lower Cholesky factor of P."""
    z = rng.standard_normal(mean.shape)
    # L^T x = z^T; the transpose of the C-ordered L is upper and F-ordered
    x, info = _TRTRS(prec_chol.T, z.T, lower=0, trans=0)
    if info:
        raise StageError(f"trtrs failed with info {info}")
    return mean + x.T


def build_sigma(stage: GaussianStageState, layout: BlockLayout):
    """The Theta proposal's variances: each view's residual repeated over
    its columns, a D-vector."""
    return np.repeat(stage.resid, layout.view_widths[:layout.n_views])


def init_gaussian_stage(layout: BlockLayout, spec: PriorSpec, n_rows,
                        rng: np.random.Generator, resid_init=1.0,
                        fix_v=None) -> GaussianStageState:
    """Fresh stage state with factors drawn at the prior scales, or V
    pinned to fix_v.  Raises ShapeError when fix_v is not K x D and
    ValueError when its structural zeros are not exactly zero."""
    if spec.gamma > 0:
        su, sv = spec.sigmas(layout)
        var_u, var_v = su / spec.gamma, sv / spec.gamma
    else:
        var_u = np.full(layout.k_total, np.inf)
        var_v = np.full(layout.k_total, np.inf)
    sd_u = np.sqrt(np.minimum(var_u, 1.0))
    sd_v = np.sqrt(np.minimum(var_v, 1.0))
    u = sd_u * rng.standard_normal((n_rows, layout.k_total))
    if fix_v is not None:
        v = np.asarray(fix_v, dtype=float).copy()
        if v.shape != (layout.k_total, layout.d_total):
            raise ShapeError(f"fix_v must be {layout.k_total} x "
                             f"{layout.d_total}, got {v.shape}")
        if np.any(v[layout.zero_mask] != 0.0):
            raise ValueError("structural zeros of V are not exactly zero")
    else:
        v = sd_v[:, None] * rng.standard_normal((layout.k_total,
                                                 layout.d_total))
        v[layout.zero_mask] = 0.0
    resid = np.full(layout.n_views, float(resid_init))
    return GaussianStageState(u, v, var_u, var_v, resid)


def gibbs_gaussian_stage(theta: np.ndarray, layout: BlockLayout,
                         stage: GaussianStageState, rng: np.random.Generator,
                         sample_v=True, infer_variances=True, *,
                         plan: StagePlan = None) -> GaussianStageState:
    """One conjugate Gibbs sweep of the Gaussian factor model on Theta.

    Update order is fixed: U rows first (conditioned on the incoming V and
    variances), then free V rows per view, then component variances and
    per-view residuals.  Masked V entries are never touched.  Returns a
    new state; the input is not modified.  plan, when given, is
    stage_plan(layout) built once for a whole chain.  Raises StageError
    on a non-finite Theta, a precision that is not positive definite, a
    failed solve or non-finite new factors.
    """
    if not np.all(np.isfinite(theta)):
        raise StageError("theta contains non-finite entries")
    n, d = theta.shape
    k = layout.k_total
    if d != layout.d_total or stage.u.shape != (n, k):
        raise StageError(f"theta shape {theta.shape} does not match the "
                         f"stage ({stage.u.shape[0]} x {layout.d_total})")
    if plan is None:
        plan = stage_plan(layout)

    v = stage.v.copy()
    var_u = stage.var_u.copy()
    var_v = stage.var_v.copy()
    resid = stage.resid.copy()
    r_col = np.repeat(resid, plan.widths)

    # U | theta, V: shared precision across rows
    a = v / r_col                                   # K x D, V R^{-1}
    prec = a @ v.T + np.diag(1.0 / var_u)
    chol = _cholesky(prec, "U")
    mean = _cho_solve(chol, a @ theta.T).T
    u = _sample_mvn_rows(mean, chol, rng)

    # free V rows per view | theta, U
    if sample_v:
        for i, cols, rows, block in plan.views:
            a_blk = u[:, rows]
            prec_v = a_blk.T @ a_blk / resid[i] + np.diag(1.0 / var_v[rows])
            chol_v = _cholesky(prec_v, f"V of view {i + 1}")
            mean_v = _cho_solve(chol_v, a_blk.T @ theta[:, cols] / resid[i])
            v[block] = _sample_mvn_rows(mean_v.T, chol_v, rng).T

    if infer_variances:
        ssq_u, ssq_v = factor_sums_of_squares(u, v)
        for j in np.flatnonzero(np.isfinite(var_u)):
            var_u[j] = _inv_gamma(rng, IG_SHAPE + 0.5 * n,
                                  IG_SCALE + 0.5 * ssq_u[j])
        if sample_v:
            for j in np.flatnonzero(np.isfinite(var_v)):
                var_v[j] = _inv_gamma(rng, IG_SHAPE + 0.5 * plan.n_free[j],
                                      IG_SCALE + 0.5 * ssq_v[j])
        fit = u @ v
        for i, cols, *_ in plan.views:
            err = theta[:, cols] - fit[:, cols]
            resid[i] = _inv_gamma(rng, IG_SHAPE + 0.5 * err.size,
                                  IG_SCALE + 0.5 * float(np.sum(err * err)))

    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise StageError("the stage drew non-finite factors")
    return GaussianStageState(u, v, var_u, var_v, resid)


def propose_theta_rows(stage: GaussianStageState, layout: BlockLayout,
                       rng: np.random.Generator) -> np.ndarray:
    """Theta* = U V + sqrt(r) * Z, every entry independent, with r the
    column variances from build_sigma."""
    mean = stage.u @ stage.v
    return mean + np.sqrt(build_sigma(stage, layout)) \
        * rng.standard_normal(mean.shape)


def mh_accept_elements(obs: ObservationSet, theta_old: np.ndarray,
                       theta_star: np.ndarray, layout: BlockLayout,
                       spec: PriorSpec, rng: np.random.Generator, *,
                       kernel=None):
    """Element-wise MH accept/reject of the proposed Theta.

    Returns (theta_new, accepted_mask).  Out-of-domain proposals are
    always rejected; unobserved entries have no likelihood term and accept
    whenever the proposal is in-domain.  Entries are scored by
    spec.entry_terms(layout, obs); kernel, when given, is that built once
    for a whole chain.
    """
    if kernel is None:
        kernel = spec.entry_terms(layout, obs)
    log_r = kernel.log_ratio(theta_old, theta_star)
    accept = np.log(rng.random(theta_old.shape)) < log_r
    return np.where(accept, theta_star, theta_old), accept


def init_theta(obs: ObservationSet, layout: BlockLayout,
               rng: np.random.Generator) -> np.ndarray:
    """Moment-matched starting Theta, in-domain for every family.

    Columns start at the moment-matched natural parameter of their column
    mean, then each family refines its block (Family.start_entries).
    """
    theta = np.tile(moment_matched_row(obs, layout), (obs.n_rows, 1))
    for i, fam in enumerate(layout.families):
        cols = layout.cols_view[i]
        theta[:, cols] = fam.start_entries(theta[:, cols], obs.x[:, cols],
                                           obs.observed[:, cols], rng)
    return theta


@dataclass
class GibeccaOptions(ChainOptions):
    infer_hypers: bool = True
    resid_init: float = 1.0
    fix_v: np.ndarray = None


def run_gibecca(obs: ObservationSet, layout: BlockLayout, spec: PriorSpec,
                opts: GibeccaOptions = None) -> Chain:
    """Alternating sampler; returns a Chain carrying (U, V) and Theta.

    The conjugate hyperparameters (lam, nu) and beta stay fixed
    throughout; with infer_hypers the Gaussian-stage variances and
    residuals are Gibbs-updated each sweep, otherwise they stay at the
    spec's values (divided by gamma) and resid_init.
    """
    opts = opts or GibeccaOptions()
    if layout.model_kind == "sepca":
        raise LayoutError("the alternating sampler supports epca, epls and "
                          "ecca layouts (no likelihood weighting)")
    spec.validate_for(layout)
    _check_obs_layout(obs, layout)
    if opts.infer_hypers and spec.gamma <= 0:
        raise ConfigError("variance inference needs gamma > 0")
    if not 0 < opts.resid_init < np.inf:
        raise ConfigError(f"options.resid_init: must be finite and positive, "
                          f"got {opts.resid_init}")
    rng = np.random.default_rng(np.random.SeedSequence([opts.seed, 23]))

    theta = init_theta(obs, layout, rng)
    stage = init_gaussian_stage(layout, spec, obs.n_rows, rng,
                                opts.resid_init, opts.fix_v)
    kernel = spec.entry_terms(layout, obs)
    plan = stage_plan(layout)

    var_u_trace, var_v_trace, resid_trace = [], [], []
    n_acc_sample = n_acc_burn = 0
    rec = ChainRecorder(obs, layout, opts, "gibecca", thetas=True,
                        infer_hypers=opts.infer_hypers)

    for sweep, kept in rec.sweeps():
        stage = gibbs_gaussian_stage(theta, layout, stage, rng,
                                     sample_v=opts.fix_v is None,
                                     infer_variances=opts.infer_hypers,
                                     plan=plan)
        theta_star = propose_theta_rows(stage, layout, rng)
        theta, accepted = mh_accept_elements(obs, theta, theta_star, layout,
                                             spec, rng, kernel=kernel)
        if sweep < opts.burn_in:
            n_acc_burn += int(accepted.sum())
        else:
            n_acc_sample += int(accepted.sum())

        if kept:
            # each sweep's U, V and Theta are new arrays that nothing
            # writes into later, so they are stored as they are
            rec.record(FactorState(stage.u, stage.v), theta)
            var_u_trace.append(stage.var_u.tolist())
            var_v_trace.append(stage.var_v.tolist())
            resid_trace.append(stage.resid.tolist())

    n_kept = opts.n_samples * opts.thin * theta.size
    n_burn = opts.burn_in * theta.size
    return rec.finish({
        "theta_accept_rate": (n_acc_sample / n_kept) if n_kept else None,
        "theta_accept_rate_burnin": (n_acc_burn / n_burn) if n_burn else None,
        "var_u_trace": var_u_trace,
        "var_v_trace": var_v_trace,
        "resid_trace": resid_trace,
    })
