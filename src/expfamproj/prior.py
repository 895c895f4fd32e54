"""Composite prior over factor states.

The prior on (U, V) is, up to the conjugate kernel's normaliser,

    a(U V)^beta * b(U)^gamma * c(V)^gamma

where a applies the family's conjugate kernel exp(lam*theta - nu*g(theta))
entrywise to Theta = U V, and b, c are zero-mean Gaussians on the entries
of U and the free (unmasked) entries of V with per-component variances.
beta = 1, gamma = 0 is the pure conjugate prior on Theta; beta = 0,
gamma = 1 is the usual Gaussian factor prior.  The Gaussian terms keep
their full normalising constants because hyperparameter moves need the
dependence on the variances.

For families with a restricted domain the value is -inf whenever beta > 0
and any entry of U V leaves the domain; with beta = 0 the a term (and any
g evaluation) is skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .expfam import LOG_2PI, ConjugateHyper
from .model import BlockLayout, EntryTerms, FactorState, assemble_theta


class GradientUndefined(ValueError):
    """Gradient requested at a point where the log prior is -inf."""


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the composite prior.

    sigma_u and sigma_v are *variances* (per component, scalar broadcasts),
    matching the Gaussian blocks b and c.  a_hyper holds one ConjugateHyper
    per view; a single one broadcasts to all views.  gamma defaults to
    1 - beta.
    """

    beta: float
    a_hyper: tuple
    sigma_u: object = 1.0
    sigma_v: object = 1.0
    gamma: float = None

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.gamma is None:
            object.__setattr__(self, "gamma", 1.0 - self.beta)
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        hyp = self.a_hyper
        if isinstance(hyp, ConjugateHyper):
            hyp = (hyp,)
        object.__setattr__(self, "a_hyper", tuple(hyp))
        for s in (np.asarray(self.sigma_u), np.asarray(self.sigma_v)):
            if not np.all(s > 0):
                raise ValueError("prior variances must be positive")

    def hyper_for_view(self, i) -> ConjugateHyper:
        if len(self.a_hyper) == 1:
            return self.a_hyper[0]
        return self.a_hyper[i]

    def sigmas(self, layout: BlockLayout):
        """Variance vectors (sigma_u, sigma_v), each of length K."""
        k = layout.k_total
        su = np.broadcast_to(np.asarray(self.sigma_u, dtype=float), (k,)).copy()
        sv = np.broadcast_to(np.asarray(self.sigma_v, dtype=float), (k,)).copy()
        return su, sv

    def validate_for(self, layout: BlockLayout):
        if len(self.a_hyper) not in (1, layout.n_views):
            raise ValueError(f"need 1 or {layout.n_views} conjugate hypers")
        if self.beta > 0:
            for i, fam in enumerate(layout.families):
                fam.validate_hyper(self.hyper_for_view(i))
        self.sigmas(layout)

    def replace(self, **kw) -> "PriorSpec":
        return replace(self, **kw)

    def entry_terms(self, layout: BlockLayout, obs=None) -> EntryTerms:
        """The beta-weighted conjugate kernel entry by entry, plus the
        log-likelihood of obs when given.

        The likelihood is weighted by the layout's alpha.  With layout
        None the views come from obs and every weight is 1 (the gibecca
        Theta refresh, which has no layout).
        """
        views = layout or obs
        idx = range(len(views.families))
        x, mask = (None, None) if obs is None else (obs.x, obs.observed)
        weights = None if layout is None else layout.alpha
        return EntryTerms(views.families, [views.view_cols(i) for i in idx],
                          x, mask, weights, self.beta,
                          [self.hyper_for_view(i) for i in idx])


def _gaussian_logpdf_sum(values_sq_by_comp, n_terms_by_comp, variances):
    # sum over components of  -n/2 log(2 pi s) - ssq / (2 s)
    return float(np.sum(-0.5 * n_terms_by_comp * (LOG_2PI + np.log(variances))
                        - 0.5 * values_sq_by_comp / variances))


def gaussian_block_terms(state: FactorState, spec: PriorSpec,
                         layout: BlockLayout):
    """(log b(U), log c(V)) with full normalising constants."""
    su, sv = spec.sigmas(layout)
    n = state.u.shape[0]
    u_ssq = np.sum(state.u * state.u, axis=0)
    log_b = _gaussian_logpdf_sum(u_ssq, np.full(layout.k_total, n), su)
    free = ~layout.zero_mask
    v_ssq = np.sum(np.where(free, state.v, 0.0) ** 2, axis=1)
    n_free = free.sum(axis=1)
    log_c = _gaussian_logpdf_sum(v_ssq, n_free, sv)
    return log_b, log_c


def log_prior_unnorm(state: FactorState, spec: PriorSpec,
                     layout: BlockLayout) -> float:
    """log of a(UV)^beta b(U)^gamma c(V)^gamma, up to a's normaliser.

    Returns -inf when beta > 0 and U V leaves the family domain.  With
    beta = 0 the conjugate term is skipped without evaluating g, so
    domain violations of Theta do not matter there.
    """
    total = 0.0
    if spec.beta > 0:
        total += spec.entry_terms(layout).value(assemble_theta(state, layout))
    if spec.gamma > 0:
        log_b, log_c = gaussian_block_terms(state, spec, layout)
        total += spec.gamma * (log_b + log_c)
    return float(total)


def grad_log_prior(state: FactorState, spec: PriorSpec, layout: BlockLayout):
    """Gradients of log_prior_unnorm wrt U, the free entries of V, and the
    mean row (None when the layout has no mean row).

    Masked entries of the V gradient are returned as exact zeros.  Raises
    GradientUndefined in the -inf region.
    """
    grad_u = np.zeros_like(state.u)
    grad_v = np.zeros_like(state.v)
    grad_m = np.zeros(layout.d_total) if layout.use_mean_row else None

    if spec.beta > 0:
        out = spec.entry_terms(layout).terms(assemble_theta(state, layout),
                                             want_grad=True)
        if out is None:
            raise GradientUndefined(
                "theta outside the family domain with beta > 0")
        a_grad = out[1]  # d(a term)/d(theta)
        grad_u += a_grad @ state.v.T
        grad_v += state.u.T @ a_grad
        if grad_m is not None:
            grad_m += a_grad.sum(axis=0)

    if spec.gamma > 0:
        su, sv = spec.sigmas(layout)
        grad_u -= spec.gamma * state.u / su
        grad_v -= spec.gamma * state.v / sv[:, None]

    grad_v[layout.zero_mask] = 0.0
    return grad_u, grad_v, grad_m
