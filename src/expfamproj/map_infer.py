"""MAP fitting, fold-in prediction and hyperparameter selection.

The MAP objective is the negative unnormalised log posterior

    f(U, V) = -[ log_likelihood(X; U V) + log a(UV)^beta b(U)^gamma c(V)^gamma ]

minimised by line-search Newton-CG over the free coordinates (all of U,
the unmasked entries of V, and the mean row when the layout has one),
which FreeParams.objective hands to minimize_cg whitened: U and V are
divided, per component, by the square roots of their prior variances,
so the Gaussian blocks' curvature is gamma on every factor coordinate.
The convergence test still bounds the gradient in U, V and the mean row
by grad_tol.  FreeParams.log_density hands HMC the posterior itself, in
the unwhitened coordinates.  The likelihood and the conjugate prior term
come together from the model's EntryTerms as one conjugate kernel per
entry, a theta - b g(theta) + c, whose N x D value matrix is reduced by a
single sum, so that a two-view layout with unit alpha produces
bit-identical numbers to the equivalent single-view layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .expfam import ConjugateHyper, DomainError
from .model import (BlockLayout, ConfigError, FactorState, LayoutError,
                    ObservationSet, assemble_theta, log_pdf_sums_at)
from .optimize import (ARMIJO_C, ARMIJO_SHRINK, MAX_BACKTRACKS,
                       minimize_cg)
from .prior import PreparedDensity, PriorSpec, log_density


class FitError(RuntimeError):
    """No restart produced a finite objective."""


class FoldInError(RuntimeError):
    """Fold-in optimisation left the feasible region."""


# ---------------------------------------------------------------------------
# flat parameter vector

class FreeParams:
    """Bijection between a FactorState and a flat vector of free coordinates.

    The fixed parts (masked V entries, and all of V when fix_v) are taken
    from the template state given at construction.
    """

    def __init__(self, layout: BlockLayout, template: FactorState,
                 fix_v=False):
        self.layout = layout
        self.template = template.copy()
        self.n_rows = template.u.shape[0]
        self.fix_v = bool(fix_v)
        self.with_mean = bool(layout.use_mean_row)
        self.v_free_idx = np.flatnonzero(~layout.zero_mask.ravel())
        self.n_u = self.n_rows * layout.k_total
        self.n_v = 0 if self.fix_v else self.v_free_idx.size
        self.n_mean = layout.d_total if self.with_mean else 0
        self.size = self.n_u + self.n_v + self.n_mean

    def pack(self, state: FactorState) -> np.ndarray:
        parts = [state.u.ravel()]
        if not self.fix_v:
            parts.append(state.v.ravel()[self.v_free_idx])
        if self.with_mean:
            parts.append(state.mean_row)
        return np.concatenate(parts)

    def unpack(self, x: np.ndarray) -> FactorState:
        u, v, mean = self._parts(x)
        return FactorState(u, self.template.v if v is None else v,
                           mean if self.with_mean else self.template.mean_row)

    def _parts(self, x):
        """(U, V, mean row) of x, with None for V when fix_v and for the
        mean row without one."""
        k, d = self.layout.k_total, self.layout.d_total
        u = x[:self.n_u].reshape(self.n_rows, k)
        v = None
        if not self.fix_v:
            v = np.zeros((k, d))
            v.ravel()[self.v_free_idx] = x[self.n_u:self.n_u + self.n_v]
        mean = x[self.n_u + self.n_v:] if self.with_mean else None
        return u, v, mean

    def whitening(self, spec: PriorSpec) -> np.ndarray:
        """Per-coordinate scales s of the MAP objective's whitened
        coordinates x / s: each entry of U and of V by the square root of
        its component's prior variance, the mean row by 1."""
        su, sv = spec.sigmas(self.layout)
        parts = [np.tile(np.sqrt(su), self.n_rows)]
        if not self.fix_v:
            parts.append(np.sqrt(sv)[self.v_free_idx // self.layout.d_total])
        parts.append(np.ones(self.n_mean))
        return np.concatenate(parts)

    def pack_grad(self, grad_u, grad_v, grad_mean=None) -> np.ndarray:
        parts = [grad_u.ravel()]
        if not self.fix_v:
            parts.append(grad_v.ravel()[self.v_free_idx])
        if self.with_mean:
            parts.append(grad_mean)
        return np.concatenate(parts)

    def log_density(self, obs: ObservationSet, spec: PriorSpec):
        """HMC's target: x -> (log posterior, its packed gradient) over
        the free coordinates, (-inf, None) at infeasible points.  One
        PreparedDensity, built here, serves every evaluation."""
        kernel = PreparedDensity(spec, self.layout, obs, self.n_rows)

        def fn(x):
            logp, gu, gv, gm = posterior_logp_and_grad(
                self.unpack(x), obs, self.layout, spec, kernel=kernel)
            if not np.isfinite(logp):
                return -np.inf, None
            return logp, self.pack_grad(gu, gv, gm)
        return fn

    def objective(self, obs: ObservationSet, spec: PriorSpec):
        """minimize_cg's objective over the whitened coordinates
        x = pack(state) / whitening(spec): x -> (negative log posterior,
        thunk), +inf where infeasible.  The thunk gives the negated packed
        gradient and its Hessian-vector product in x, or None where the
        gradient is not finite; called before the next evaluation, it
        reuses this value call's Theta and g(Theta), and the product
        reuses the gradient's slopes."""
        kernel = PreparedDensity(spec, self.layout, obs, self.n_rows)
        scale = self.whitening(spec)

        def fun_and_grad(x):
            state = self.unpack(scale * x)
            logp = posterior_logp_and_grad(state, obs, self.layout, spec,
                                           False, kernel=kernel)[0]
            # a bound method, not a closure over fun_and_grad, which would
            # close a reference cycle that keeps the kernel and data alive
            return -logp, functools.partial(self._gradient_and_product,
                                            state, obs, spec, kernel, scale)
        return fun_and_grad

    def _gradient_and_product(self, state, obs, spec, kernel, scale):
        logp, gu, gv, gm = posterior_logp_and_grad(
            state, obs, self.layout, spec, True, kernel=kernel)
        if not np.isfinite(logp):
            return None
        return (-scale * self.pack_grad(gu, gv, gm),
                functools.partial(self._product, state, kernel, scale))

    def _product(self, state, kernel, scale, p):
        h = kernel.hessian_product(state, *self._parts(scale * p))
        return scale * self.pack_grad(*h)


# ---------------------------------------------------------------------------
# posterior value and gradient

def posterior_logp_and_grad(state: FactorState, obs: ObservationSet,
                            layout: BlockLayout, spec: PriorSpec,
                            want_grad=True, *, kernel=None):
    """Unnormalised log posterior and its gradients wrt (U, V, mean_row):
    prior.log_density of obs, with overflow warnings silenced.  kernel,
    when given, is a PreparedDensity of (spec, layout, obs) that a fit or
    chain builds once and that scores the state instead.

    Returns (logp, grad_u, grad_v, grad_mean); the gradients are None when
    logp is -inf (out-of-domain Theta with beta > 0) or want_grad is False.
    Infeasible points report -inf instead of raising so that line searches
    and MH steps can treat them as rejections.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if kernel is None:
            return log_density(state, obs, layout, spec, want_grad)
        return kernel(state, want_grad)


# ---------------------------------------------------------------------------
# initialisation

def moment_matched_row(obs: ObservationSet, layout: BlockLayout) -> np.ndarray:
    """Per-column natural parameter matched to the column means.

    Keeps the initial Theta inside the family domain, which matters for
    families with a restricted domain (the exponential family's half-line).
    """
    row = np.zeros(layout.d_total)
    for i, fam in enumerate(layout.families):
        cols = layout.cols_view[i]
        x_blk, m_blk = obs.x[:, cols], obs.observed[:, cols]
        n_obs = np.maximum(m_blk.sum(axis=0), 1)
        xbar = np.where(m_blk, x_blk, 0.0).sum(axis=0) / n_obs
        row[cols] = fam.moment_match(xbar, n_obs)
    return row


def init_state(obs: ObservationSet, layout: BlockLayout,
               rng: np.random.Generator, init_std=0.01) -> FactorState:
    """Small random factors; the mean row starts at the moment-matched point."""
    n, k, d = obs.n_rows, layout.k_total, layout.d_total
    u = init_std * rng.standard_normal((n, k))
    v = init_std * rng.standard_normal((k, d))
    v[layout.zero_mask] = 0.0
    mean = moment_matched_row(obs, layout) if layout.use_mean_row else None
    return FactorState(u, v, mean)


# ---------------------------------------------------------------------------
# MAP fitting

@dataclass
class MapOptions:
    max_iter: int = 2000
    grad_tol: float = None     # default 1e-5 * sqrt(N * D)
    restarts: int = 1
    seed: int = 0


@dataclass
class MapFit:
    state: FactorState
    objective: float
    converged: bool
    status: str
    n_iter: int
    trace: list
    restart_objectives: list = field(default_factory=list)
    # work summed over the restarts that started feasible: objective
    # values, gradients and Hessian-vector products
    n_values: int = 0
    n_gradients: int = 0
    n_products: int = 0


def _check_obs_layout(obs: ObservationSet, layout: BlockLayout):
    if obs.view_widths != layout.view_widths:
        raise LayoutError(f"data views {obs.view_widths} do not match layout "
                          f"views {layout.view_widths}")
    if tuple(f.name for f in obs.families) != tuple(f.name for f in layout.families):
        raise LayoutError("data families do not match layout families")


def fit_map(obs: ObservationSet, layout: BlockLayout, spec: PriorSpec,
            opts: MapOptions = None) -> MapFit:
    """Best MAP fit over random restarts.

    Each restart draws its own initial state from a child seed of
    opts.seed, so runs are reproducible and restarts independent.  Raises
    FitError when every restart starts (and therefore stays) infeasible.
    """
    opts = opts or MapOptions()
    spec.validate_for(layout)
    _check_obs_layout(obs, layout)
    grad_tol = opts.grad_tol
    if grad_tol is None:
        grad_tol = 1e-5 * math.sqrt(obs.n_rows * layout.d_total)

    best = None
    restart_objectives, runs = [], []
    for r in range(opts.restarts):
        rng = np.random.default_rng(np.random.SeedSequence([opts.seed, r]))
        state0 = init_state(obs, layout, rng)
        free = FreeParams(layout, state0)
        scale = free.whitening(spec)
        try:
            # grad_tol * scale bounds the gradient in U, V and the mean row
            res = minimize_cg(free.objective(obs, spec),
                              free.pack(state0) / scale, grad_tol * scale,
                              opts.max_iter)
        except ValueError:
            restart_objectives.append(np.inf)
            continue
        restart_objectives.append(res.fun)
        runs.append(res)
        if best is None or res.fun < best[0].fun:
            best = (res, free, scale)
    if best is None:
        raise FitError("all restarts started outside the feasible region")
    res, free, scale = best
    return MapFit(free.unpack(scale * res.x), res.fun, res.converged,
                  res.status, res.n_iter, res.trace, restart_objectives,
                  n_values=sum(run.n_values for run in runs),
                  n_gradients=sum(run.n_gradients for run in runs),
                  n_products=sum(run.n_products for run in runs))


# ---------------------------------------------------------------------------
# fold-in prediction for new rows

@dataclass
class Prediction:
    means: np.ndarray   # view-1 mean parameters, one row per test row
    u: np.ndarray       # folded-in factor rows


def predict_target(obs_test: ObservationSet, state: FactorState,
                   layout: BlockLayout, spec: PriorSpec,
                   opts: MapOptions = None) -> Prediction:
    """Predict view-1 mean parameters for rows with only view 2 observed.

    Folds each test row in by the MAP estimate of its full factor row u
    against the row's observed view-2 entries and the Gaussian prior b(u),
    with V (and the mean row) fixed at the training fit.  The conjugate
    term a(.) is not applied at fold-in time, so each row is a small
    concave problem, a regularised GLM fit, solved exactly by damped
    Newton from the prior mode u = 0 (see _fold_in).  No random numbers
    are drawn; of opts only max_iter is read.

    Raises FoldInError when Theta at u = 0 leaves a family's domain, when
    a row's Hessian is singular (possible only at gamma = 0), or when rows
    have not converged after opts.max_iter Newton iterations.
    """
    opts = opts or MapOptions()
    _check_obs_layout(obs_test, layout)
    if layout.n_views != 2:
        raise LayoutError("fold-in prediction needs a two-view layout")

    mask2 = np.zeros_like(obs_test.observed)
    cols2 = layout.cols_view[1]
    mask2[:, cols2] = obs_test.observed[:, cols2]
    obs2 = obs_test.with_mask(mask2)

    spec_fold = spec.replace(beta=0.0, gamma=spec.gamma)
    u = _fold_in(obs2, state, layout, spec_fold, opts.max_iter)
    theta = assemble_theta(FactorState(u, state.v, state.mean_row), layout)
    cols1 = layout.cols_view[0]
    means = layout.families[0]._gprime(theta[:, cols1])
    return Prediction(np.asarray(means, dtype=float), u)


# A row has converged once half its squared Newton decrement, the gain in
# log density that a full Newton step predicts, is at most
# NEWTON_DECREMENT_TOL nats.  Its line search can fail to resolve a gain
# of up to UNRESOLVED_GAIN_TOL nats, because the summed entry terms carry
# rounding errors of order eps * |x theta| (about 1e-12 per entry at
# Poisson counts of 1e3); such a row has converged too.  A larger gain
# that no step realises is a failure.
NEWTON_DECREMENT_TOL = 1e-12
UNRESOLVED_GAIN_TOL = 1e-6


def _fold_in(obs, state, layout, spec, max_iter):
    """The factor rows u that maximise, row by row,

        f_n(u) = sum_d terms_nd(u V + mean) - gamma/2 sum_k u_k^2 / sigma_u_k

    with V and the mean row fixed and the entry terms from spec's kernel
    of obs, starting from u = 0.  Newton's step for row n solves

        (V diag(c_n) V^T + gamma diag(1 / sigma_u)) step = grad f_n(u),

    c_n the kernel's curvature, on the stack of every unconverged row at
    once; each row then backtracks on its own (see _backtrack).  The
    kernel scores every row at u = 0 and after that only the rows still
    iterating (kernel.rows): a row that has converged drops out, and the
    g(Theta) that slopes and curvature read at an accepted point is the
    one its line search scored there, so no point is scored twice.
    V diag(c_n) V^T for every row is one product C VV, VV the D x K^2
    outer products of V's columns, formed once.
    """
    kernel = spec.entry_terms(layout, obs)
    v, n, k = state.v, obs.n_rows, layout.k_total
    prec = spec.gamma / spec.sigmas(layout)[0]
    vv = (v[:, None, :] * v[None, :, :]).reshape(k * k, -1).T

    def theta_of(u_rows):
        return assemble_theta(FactorState(u_rows, v, state.mean_row), layout)

    u = np.zeros((n, k))
    with np.errstate(over="ignore", invalid="ignore"):
        theta = theta_of(u)
        out = kernel.score(theta)
        if out is None or not np.all(np.isfinite(out[0])):
            raise FoldInError("fold-in started infeasible: Theta at u = 0 "
                              "is outside the family domain")
        f, gs = np.sum(out[0], axis=1), out[1]
        active = np.arange(n)
        for it in range(max_iter + 1):
            terms = kernel.rows(active)
            th, g_act = theta[active], [g[active] for g in gs]
            grad = terms.slopes(th, g_act) @ v.T - prec * u[active]
            curv = terms.curvature(th, g_act)
            hess = (curv @ vv).reshape(-1, k, k) + np.diag(prec)
            try:
                step = np.linalg.solve(hess, grad[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                n_bad = int(np.sum(np.linalg.matrix_rank(hess) < k))
                raise FoldInError(f"fold-in Hessian singular in {n_bad} of "
                                  f"{n} rows") from exc
            gain = 0.5 * np.sum(grad * step, axis=1)
            going = ~(gain <= NEWTON_DECREMENT_TOL)
            active, step, gain = active[going], step[going], gain[going]
            if active.size and it < max_iter:
                failed = _backtrack(kernel, theta_of, prec, u, theta, f, gs,
                                    active, step, gain)
                if not np.all(gain[failed] <= UNRESOLVED_GAIN_TOL):
                    raise FoldInError(
                        f"fold-in line search failed in {failed.size} of "
                        f"{n} rows")
                active = np.delete(active, failed)
            if not active.size:
                return u
    raise FoldInError(f"fold-in not converged in {active.size} of {n} rows "
                      f"after {max_iter} Newton iterations")


def _backtrack(kernel, theta_of, prec, u, theta, f, gs, rows, step, gain):
    """Armijo backtracking on values, row by row, along the Newton steps
    of the given rows, whose slope is twice their gain.  Each row halves
    only its own step, and each trial scores only the rows still
    backtracking, with kernel.rows.  A trial row outside the domain, or
    whose value overflows, fails the test like one that gains too
    little; it is scored at its current point so that the kernel sees
    only rows in the domain.  Updates u, theta, f and each view's g(Theta)
    in gs in place for the rows that accept a step, and returns the
    positions (into rows) of those that did not.
    """
    t = np.ones(rows.size)
    todo = np.arange(rows.size)
    for _ in range(MAX_BACKTRACKS):
        idx = rows[todo]
        u_try = u[idx] + t[todo, None] * step[todo]
        trial = theta_of(u_try)
        ok = kernel.in_domain(trial[:, None, :])
        trial[~ok] = theta[idx[~ok]]
        vals, g_try = kernel.rows(idx).score(trial)
        f_try = (np.sum(vals, axis=1)
                 - 0.5 * np.sum(prec * u_try * u_try, axis=1))
        f_try[~ok] = -np.inf
        # the gain itself is tested: added to f, a gain below f's rounding
        # would vanish and a step that does not move would pass
        accept = f_try - f[idx] >= 2.0 * ARMIJO_C * t[todo] * gain[todo]
        hit = idx[accept]
        u[hit], theta[hit] = u_try[accept], trial[accept]
        f[hit] = f_try[accept]
        for g, g_hit in zip(gs, g_try):
            g[hit] = g_hit[accept]
        todo = todo[~accept]
        if not todo.size:
            break
        t[todo] *= ARMIJO_SHRINK
    return todo


# ---------------------------------------------------------------------------
# two-stage cross-validated hyperparameter selection

DEFAULT_A_GRID = ((0.05, 0.1), (0.1, 0.2), (0.25, 0.5), (0.5, 1.0), (1.0, 2.0))
DEFAULT_BC_GRID = ((0.001, 100.0), (0.01, 10.0), (0.1, 1.0), (1.0, 1.0),
                   (1.0, 100.0))


def _fold_masks(observed: np.ndarray, folds: int, rng: np.random.Generator):
    """Split the observed entries into `folds` disjoint held-out masks."""
    idx = np.flatnonzero(observed.ravel())
    rng.shuffle(idx)
    masks = []
    for part in np.array_split(idx, folds):
        m = np.zeros(observed.size, dtype=bool)
        m[part] = True
        masks.append(m.reshape(observed.shape))
    return masks


def _cv_score(obs, layout, spec, fold_masks, opts):
    """Summed held-out log-likelihood over CV folds for one candidate spec;
    -inf when a fold's fit fails or leaves Theta outside the domain."""
    total = 0.0
    for fold in fold_masks:
        train = obs.with_mask(obs.observed & ~fold)
        try:
            fit = fit_map(train, layout, spec, opts)
        except FitError:
            return -np.inf
        theta = assemble_theta(fit.state, layout)
        try:
            total += log_pdf_sums_at(obs, [theta], layout, fold)[0]
        except DomainError:
            return -np.inf
    return total


def cv_select_hyperparams(obs: ObservationSet, layout: BlockLayout, beta,
                          a_grid=None, bc_grid=None, folds=10, seed=0,
                          opts: MapOptions = None) -> PriorSpec:
    """Pick prior hyperparameters by two-stage cross-validation.

    Stage one scores the conjugate hyperparameters (lam, nu) with the prior
    collapsed to a alone (beta = 1, gamma = 0); stage two scores the
    Gaussian variances (sigma_u, sigma_v) with the prior collapsed to the
    Gaussian blocks (beta = 0, gamma = 1).  Both stages reuse one random
    entry partition and score by held-out log-likelihood of MAP fits.  The
    returned spec carries the winning values at the requested beta with
    gamma = 1 - beta.
    """
    a_grid = tuple(a_grid) if a_grid is not None else DEFAULT_A_GRID
    bc_grid = tuple(bc_grid) if bc_grid is not None else DEFAULT_BC_GRID
    if not a_grid or not bc_grid:
        raise ConfigError("hyperparameter grids must be non-empty")
    opts = opts or MapOptions(max_iter=500)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    fold_masks = _fold_masks(obs.observed, folds, rng)

    best_a, best_a_score = a_grid[0], -np.inf
    if beta > 0:
        for lam, nu in a_grid:
            cand = PriorSpec(beta=1.0, a_hyper=ConjugateHyper(lam, nu),
                             sigma_u=1.0, sigma_v=1.0)
            try:
                cand.validate_for(layout)
            except ValueError:
                continue
            score = _cv_score(obs, layout, cand, fold_masks, opts)
            if score > best_a_score:
                best_a, best_a_score = (lam, nu), score

    best_bc, best_bc_score = bc_grid[0], -np.inf
    for su, sv in bc_grid:
        cand = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(*best_a),
                         sigma_u=su, sigma_v=sv)
        score = _cv_score(obs, layout, cand, fold_masks, opts)
        if score > best_bc_score:
            best_bc, best_bc_score = (su, sv), score

    return PriorSpec(beta=float(beta), a_hyper=ConjugateHyper(*best_a),
                     sigma_u=best_bc[0], sigma_v=best_bc[1])
