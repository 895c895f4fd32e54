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

A PreparedDensity scores the posterior, likelihood times prior, with
its gradients; the prior is the same density without data (obs None).
It is built once for a caller that scores many states: fits and chains
call it through map_infer.posterior_logp_and_grad, and log_prior_unnorm
builds one per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .expfam import LOG_2PI, ConjugateHyper
from .model import (_BLOCK_BYTES, BlockLayout, EntryTerms, FactorState,
                    assemble_theta)


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
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and non-negative, got "
                             f"{self.gamma}")
        hyp = self.a_hyper
        if isinstance(hyp, ConjugateHyper):
            hyp = (hyp,)
        object.__setattr__(self, "a_hyper", tuple(hyp))
        for s in (np.asarray(self.sigma_u), np.asarray(self.sigma_v)):
            if not np.all((s > 0) & (s < np.inf)):
                raise ValueError("prior variances must be positive and finite")

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
        """The beta-weighted conjugate kernel entry by entry on the
        layout's views, plus the log-likelihood of obs, weighted by the
        layout's alpha, when obs is given."""
        hypers = [self.hyper_for_view(i) for i in range(layout.n_views)]
        x, mask = (None, None) if obs is None else (obs.x, obs.observed)
        return EntryTerms(layout.families, layout.cols_view, x, mask,
                          layout.alpha, self.beta, hypers)


def factor_sums_of_squares(u, v):
    """Per-component sums of squares of U's columns and of V's rows, whose
    structural zeros are exactly zero and add nothing."""
    return np.sum(u * u, axis=0), np.sum(v * v, axis=1)


class GaussianBlocks:
    """The Gaussian blocks b(U) and c(V) for one spec, layout and row count
    N, with what a fit holds fixed computed once: the variance vectors
    (sigma_u, sigma_v) and the per-component normalisers -n/2 log(2 pi s),
    n the component's number of free entries."""

    def __init__(self, spec: PriorSpec, layout: BlockLayout, n_rows):
        self.sigmas = spec.sigmas(layout)
        n_terms = (np.full(layout.k_total, n_rows),
                   np.sum(~layout.zero_mask, axis=1))
        self.norms = tuple(-0.5 * n * (LOG_2PI + np.log(s))
                           for n, s in zip(n_terms, self.sigmas))

    def terms(self, u, v):
        """(log b(U), log c(V)) with full normalising constants."""
        # per block, sum over components of  -n/2 log(2 pi s) - ssq / (2 s)
        return tuple(float(np.sum(norm - 0.5 * ssq / s))
                     for ssq, norm, s in zip(
                         factor_sums_of_squares(u, v),
                         self.norms, self.sigmas))


def gaussian_block_terms(state: FactorState, spec: PriorSpec,
                         layout: BlockLayout):
    """(log b(U), log c(V)) with full normalising constants, for a state
    whose structural zeros of V are exactly zero."""
    return GaussianBlocks(spec, layout, state.u.shape[0]).terms(state.u,
                                                                state.v)


class PreparedDensity:
    """Log-likelihood of obs plus log a(UV)^beta b(U)^gamma c(V)^gamma,
    with its gradients wrt (U, V, mean_row), for states with n_rows rows;
    the log prior when obs is None.  What every evaluation shares is
    prepared once: the entrywise kernel and the Gaussian blocks'
    constants.

    A value-only evaluation keeps its point (the state, Theta, each
    span's g(Theta) and the value) until the next evaluation starts, so
    that a gradient asked next for the same state object reuses them and
    does only the gradient work.  That gradient keeps the point in turn,
    with the slopes W added, so that hessian_product at the same state
    forms only the curvature.  At most one point is held.
    """

    def __init__(self, spec: PriorSpec, layout: BlockLayout, obs, n_rows):
        self.layout = layout
        self.gamma = spec.gamma
        self.kernel = spec.entry_terms(layout, obs)
        self.blocks = (GaussianBlocks(spec, layout, n_rows)
                       if spec.gamma > 0 else None)
        self._point = None

    def __call__(self, state: FactorState, want_grad=True):
        """(logp, grad_u, grad_v, grad_mean) at state, whose V must be
        exactly zero on the layout's structural zeros (c(V) squares V as
        it is).  The gradients are None when not asked for or absent (no
        mean row), with exact zeros on masked V entries; out of the
        domain, or where anything overflows, (-inf, None, None, None)."""
        point, self._point = self._point, None
        reuse = (want_grad and point is not None and point.state is state
                 and point.w is None)
        if not reuse:
            point = None        # freed before Theta is formed
            theta = assemble_theta(state, self.layout)
            out = self.kernel.score(theta)
            if out is None:
                return -np.inf, None, None, None
            logp = float(np.sum(out[0]))
            if self.blocks is not None:
                log_b, log_c = self.blocks.terms(state.u, state.v)
                logp += self.gamma * (log_b + log_c)
            if not np.isfinite(logp):
                # overflow inside g (e.g. huge Poisson rates) counts as
                # infeasible
                return -np.inf, None, None, None
            point = _Point(state, theta, out[1], logp)
            if not want_grad:
                self._point = point
                return logp, None, None, None

        w = self.kernel.slopes(point.theta, point.gs)   # d logp / d theta
        grad_u = w @ state.v.T
        grad_v = state.u.T @ w
        grad_mean = w.sum(axis=0) if self.layout.use_mean_row else None
        if self.blocks is not None:
            su, sv = self.blocks.sigmas
            grad_u = grad_u - self.gamma * state.u / su
            grad_v = grad_v - self.gamma * state.v / sv[:, None]
        grad_v[self.layout.zero_mask] = 0.0
        if not (np.all(np.isfinite(grad_u)) and np.all(np.isfinite(grad_v))
                and (grad_mean is None or np.all(np.isfinite(grad_mean)))):
            return -np.inf, None, None, None
        if reuse:
            point.w = w
            self._point = point
        return point.logp, grad_u, grad_v, grad_mean

    def hessian_product(self, state: FactorState, d_u, d_v, d_mean=None):
        """Minus the Hessian of logp at state times the direction
        (d_u, d_v, d_mean), as (h_u, h_v, h_mean) shaped like the
        gradients.  With W the slopes, C the curvature and
        dTheta = d_u V + U d_v (+ d_mean):

            h_u    = (C o dTheta) V^T - W d_v^T + gamma d_u / sigma_u
            h_v    = U^T (C o dTheta) - d_u^T W + gamma d_v / sigma_v
            h_mean = sum over rows of C o dTheta

        with h_v zero on the structural zeros.  d_v None holds V fixed
        and d_mean None the mean row (h_mean is None without one).  The
        held point of a gradient call at state gives W, and C is formed
        from it once, in its Theta's buffer, after which g(Theta) is
        freed, so that Theta, g(Theta), W and C never coexist; at any
        other state the state is scored first.  C o dTheta is formed a
        block of rows at a time, so that it stays in cache while it is
        used three times.
        """
        point = self._point
        if point is None or point.state is not state or point.w is None:
            self(state, want_grad=False)
            self(state, want_grad=True)
            point = self._point
        if point.c is None:
            point.c = self.kernel.curvature(point.theta, point.gs,
                                            out=point.theta)
            point.theta = point.gs = None
        u, v, w, c = state.u, state.v, point.w, point.c
        if d_v is None:
            d_v = np.zeros_like(v)
        # [d_u, U] [V; d_v] = d_u V + U d_v in one product
        left, right = np.hstack((d_u, u)), np.vstack((v, d_v))
        h_u, h_v = np.empty_like(d_u), np.zeros_like(v)
        h_mean = np.zeros(v.shape[1]) if self.layout.use_mean_row else None
        step = max(1, _BLOCK_BYTES // (8 * v.shape[1]))
        for start in range(0, u.shape[0], step):
            rows = slice(start, start + step)
            cd = left[rows] @ right
            if d_mean is not None:
                cd += d_mean
            cd *= c[rows]
            h_u[rows] = cd @ v.T - w[rows] @ d_v.T
            h_v += u[rows].T @ cd - d_u[rows].T @ w[rows]
            if h_mean is not None:
                h_mean += cd.sum(axis=0)
        if self.blocks is not None:
            su, sv = self.blocks.sigmas
            h_u += self.gamma * d_u / su
            h_v += self.gamma * d_v / sv[:, None]
        h_v[self.layout.zero_mask] = 0.0
        return h_u, h_v, h_mean


class _Point:
    """What a PreparedDensity holds of its last evaluation: the state,
    Theta, each span's g(Theta) and the value; the slopes W after a
    gradient call, and the curvature C once a product formed it."""

    __slots__ = ("state", "theta", "gs", "logp", "w", "c")

    def __init__(self, state, theta, gs, logp):
        self.state, self.theta, self.gs, self.logp = state, theta, gs, logp
        self.w = self.c = None


def log_prior_unnorm(state: FactorState, spec: PriorSpec,
                     layout: BlockLayout) -> float:
    """log of a(UV)^beta b(U)^gamma c(V)^gamma, up to a's normaliser.

    Returns -inf when beta > 0 and U V leaves the family domain.  With
    beta = 0 the conjugate term is skipped without evaluating g, so
    domain violations of Theta do not matter there.
    """
    density = PreparedDensity(spec, layout, None, state.u.shape[0])
    return density(state, want_grad=False)[0]
