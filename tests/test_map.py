"""MAP fitting, fold-in prediction, and cross-validated hyperparameters."""

import gc
import weakref

import numpy as np
import pytest
from scipy import special

from expfamproj import (ConfigError, ConjugateHyper, FactorState, LayoutError,
                        MapOptions, ObservationSet, PriorSpec, assemble_theta,
                        cv_select_hyperparams, fit_map, generate_coupled,
                        log_likelihood_theta, make_layout, predict_target)
from expfamproj import map_infer, model, prior
from expfamproj.experiments import (BetaSweepConfig, EplsVsSepcaConfig,
                                    _seed_int)
from expfamproj.map_infer import (DEFAULT_BC_GRID, FoldInError, FreeParams,
                                  _fold_masks, init_state,
                                  moment_matched_row, posterior_logp_and_grad)
from expfamproj.spect import load_or_fallback, make_holdout

from conftest import dense_observations, make_rng


# ---------------------------------------------------------------- objective

def test_beta_zero_gamma_zero_is_pure_likelihood():
    lay = make_layout("epca", 3, 2, "poisson")
    rng = make_rng(11, 1)
    theta = 0.5 * rng.standard_normal((5, 3))
    obs = dense_observations(lay, theta, seed=111)
    state = FactorState(0.3 * rng.standard_normal((5, 2)),
                        0.3 * rng.standard_normal((2, 3)))
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.5, 1.0), gamma=0.0)
    logp, gu, gv, gm = posterior_logp_and_grad(state, obs, lay, spec)
    assert logp == pytest.approx(
        log_likelihood_theta(obs, assemble_theta(state, lay), lay),
        rel=1e-12)


def test_posterior_logp_reports_neg_inf_when_infeasible():
    lay = make_layout("epca", 2, 1, "exponential")
    obs = ObservationSet(np.full((2, 2), 0.5), np.ones((2, 2), dtype=bool),
                         lay.view_widths, lay.families)
    state = FactorState(np.ones((2, 1)), np.ones((1, 2)))  # theta = +1
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(1.0, 1.0))
    logp, gu, gv, gm = posterior_logp_and_grad(state, obs, lay, spec)
    assert logp == -np.inf and gu is None


# --------------------------------------------------------------------- fit

def test_gaussian_map_matches_truncated_svd():
    """Near-flat priors make the Gaussian MAP a rank-k least-squares fit,
    whose optimum is the truncated SVD."""
    lay = make_layout("epca", 6, 2, "gaussian")
    rng = make_rng(11, 2)
    x = rng.standard_normal((12, 6))
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=1e6, sigma_v=1e6)
    fit = fit_map(obs, lay, spec, MapOptions(restarts=2, seed=3))
    theta = assemble_theta(fit.state, lay)

    s_u, s_vals, s_vt = np.linalg.svd(x, full_matrices=False)
    svd2 = s_u[:, :2] * s_vals[:2] @ s_vt[:2]
    assert np.sum((x - theta) ** 2) == pytest.approx(
        np.sum((x - svd2) ** 2), rel=1e-6)
    # fitted column space matches the top-2 left singular vectors
    q, _ = np.linalg.qr(fit.state.u)
    overlap = np.linalg.svd(q.T @ s_u[:, :2], compute_uv=False)
    assert np.all(overlap > 1 - 1e-6)


def test_bernoulli_rank_one_stationarity():
    """With beta = 1, gamma = 0 on a 1x1 problem the MAP Theta solves
    g'(theta) = (x + lam) / (1 + nu)."""
    lay = make_layout("epca", 1, 1, "bernoulli")
    obs = ObservationSet(np.array([[1.0]]), np.array([[True]]),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=1.0, a_hyper=ConjugateHyper(0.1, 0.2), gamma=0.0)
    fit = fit_map(obs, lay, spec, MapOptions(seed=1, grad_tol=1e-10))
    theta = float(assemble_theta(fit.state, lay)[0, 0])
    assert special.expit(theta) == pytest.approx(1.1 / 1.2, rel=1e-5)


def test_fit_trace_non_increasing_and_restarts_recorded():
    lay = make_layout("epca", 4, 2, "bernoulli")
    rng = make_rng(11, 3)
    theta = rng.standard_normal((8, 4))
    obs = dense_observations(lay, theta, seed=113)
    spec = PriorSpec(beta=0.1, a_hyper=ConjugateHyper(0.1, 0.2))
    fit = fit_map(obs, lay, spec, MapOptions(restarts=3, seed=5))
    trace = np.asarray(fit.trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert len(fit.restart_objectives) == 3
    assert fit.objective == pytest.approx(min(fit.restart_objectives),
                                          rel=1e-12)


def test_fit_with_one_prepared_kernel_matches_rebuilt_kernels(monkeypatch):
    """A fit that builds its kernel once per restart follows the same
    iterates, bit for bit, as one whose kernel is rebuilt on every
    evaluation."""
    lay = make_layout("epls", (3, 4), (1, 1), ("poisson", "bernoulli"),
                      use_mean_row=True)
    rng = make_rng(11, 9)
    obs = dense_observations(lay, 0.5 * rng.standard_normal((10, 7)),
                             seed=119)
    obs = obs.with_mask(rng.random(obs.x.shape) < 0.8)
    spec = PriorSpec(beta=0.1, a_hyper=(ConjugateHyper(0.5, 1.0),
                                        ConjugateHyper(0.2, 1.5)))
    opts = MapOptions(restarts=2, seed=4, max_iter=80)
    prepared = fit_map(obs, lay, spec, opts)

    unprepared = posterior_logp_and_grad

    def rebuilt(state, obs, layout, spec, want_grad=True, *, kernel=None):
        return unprepared(state, obs, layout, spec, want_grad)

    monkeypatch.setattr(map_infer, "posterior_logp_and_grad", rebuilt)
    ref = fit_map(obs, lay, spec, opts)
    assert prepared.trace == ref.trace
    assert prepared.restart_objectives == ref.restart_objectives
    assert (prepared.status, prepared.n_iter) == (ref.status, ref.n_iter)
    for got, want in ((prepared.state.u, ref.state.u),
                      (prepared.state.v, ref.state.v),
                      (prepared.state.mean_row, ref.state.mean_row)):
        assert np.array_equal(got, want)


def test_fit_leaves_no_reference_cycles():
    """The objective and its gradient thunks form no reference cycle, so
    each fit's kernel and data are freed when it returns, not at the next
    cyclic garbage collection."""
    lay = make_layout("epca", 4, 2, "poisson")
    rng = make_rng(11, 10)
    obs = dense_observations(lay, 0.4 * rng.standard_normal((12, 4)),
                             seed=120)
    spec = PriorSpec(beta=0.1, a_hyper=ConjugateHyper(0.5, 1.0))
    gc.collect()
    gc.disable()
    try:
        fit_map(obs, lay, spec, MapOptions(restarts=2, max_iter=30))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _traced_fit(monkeypatch):
    """Fit a small two-view Poisson/Bernoulli model under counters.
    Returns the CG evaluations and iterations and, for each Theta the
    posterior formed, how many of those formed before it were still alive
    when its forming began."""
    lay = make_layout("epls", (3, 4), (1, 1), ("poisson", "bernoulli"),
                      use_mean_row=True)
    rng = make_rng(11, 11)
    obs = dense_observations(lay, 0.5 * rng.standard_normal((10, 7)),
                             seed=121)
    spec = PriorSpec(beta=0.1, a_hyper=(ConjugateHyper(0.5, 1.0),
                                        ConjugateHyper(0.2, 1.5)))
    counts = {"evals": 0, "iters": 0}
    refs, alive = [], []
    assemble, cg = prior.assemble_theta, map_infer.minimize_cg

    def tracked_theta(state, layout):
        alive.append(sum(ref() is not None for ref in refs))
        theta = assemble(state, layout)
        refs.append(weakref.ref(theta))
        return theta

    def counted_cg(fun_and_grad, x0, grad_tol, max_iter):
        def fun(x):
            counts["evals"] += 1
            return fun_and_grad(x)
        res = cg(fun, x0, grad_tol, max_iter)
        counts["iters"] += res.n_iter
        return res

    monkeypatch.setattr(prior, "assemble_theta", tracked_theta)
    monkeypatch.setattr(map_infer, "minimize_cg", counted_cg)
    fit_map(obs, lay, spec, MapOptions(restarts=2, seed=2, max_iter=40))
    # the line searches rejected some trial points
    assert counts["evals"] > counts["iters"] + 2
    return counts, alive


def test_fit_counts_the_work_of_every_restart(monkeypatch):
    """MapFit's counts are the objective values, gradients and
    Hessian-vector products of all its restarts."""
    lay = make_layout("epca", 4, 2, "poisson")
    obs = dense_observations(lay, 0.4 * make_rng(11, 12).standard_normal(
        (12, 4)), seed=122)
    spec = PriorSpec(beta=0.1, a_hyper=ConjugateHyper(0.5, 1.0))
    calls = {"value": 0, "grad": 0, "product": 0}
    cg = map_infer.minimize_cg

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def counted_cg(fun_and_grad, x0, grad_tol, max_iter):
        def fun(x):
            f, thunk = counted("value", fun_and_grad)(x)

            def counted_thunk():
                out = counted("grad", thunk)()
                return out and (out[0], counted("product", out[1]))
            return f, counted_thunk
        return cg(fun, x0, grad_tol, max_iter)

    monkeypatch.setattr(map_infer, "minimize_cg", counted_cg)
    fit = fit_map(obs, lay, spec, MapOptions(restarts=3, seed=2))
    assert calls["product"] > 0
    assert (fit.n_values, fit.n_gradients, fit.n_products) == (
        calls["value"], calls["grad"], calls["product"])


def test_fit_forms_theta_once_per_evaluation(monkeypatch):
    """The gradient at an accepted point reuses the Theta (and g(Theta))
    of the value call that scored it, so a fit forms one Theta per CG
    evaluation, not one more per gradient."""
    counts, alive = _traced_fit(monkeypatch)
    assert len(alive) == counts["evals"]


def test_scored_theta_is_freed_before_the_next_theta(monkeypatch):
    """At most one scored point is held: every Theta formed earlier,
    rejected trials' included, is freed before the next one is formed."""
    counts, alive = _traced_fit(monkeypatch)
    assert alive and not any(alive)


# ------------------------------------------------------- Hessian products

_PRODUCT_HYPER = {"bernoulli": (0.3, 1.0), "poisson": (0.5, 1.0),
                  "gaussian": (0.2, 1.0), "exponential": (0.5, 1.0)}


def _product_case(kind, fam, beta, seed):
    """A partly observed model with a mean row (and, for epls and ecca,
    structural zeros) at a random state inside the family's domain."""
    rng = make_rng(11, 40, seed)
    lay = {"epca": lambda: make_layout("epca", 5, 2, fam, use_mean_row=True),
           "sepca": lambda: make_layout("sepca", (2, 3), 2, fam,
                                        alpha=(1.0, 0.5), use_mean_row=True),
           "epls": lambda: make_layout("epls", (2, 3), (1, 2), fam,
                                       use_mean_row=True),
           "ecca": lambda: make_layout("ecca", (2, 3), (1, 1, 1), fam,
                                       use_mean_row=True)}[kind]()
    u = 0.5 * rng.standard_normal((6, lay.k_total))
    v = 0.5 * rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    mean = 0.3 * rng.standard_normal(lay.d_total)
    if fam == "exponential":
        mean -= 3.0
    state = FactorState(u, v, mean)
    obs = dense_observations(lay, assemble_theta(state, lay), seed=140 + seed)
    obs = obs.with_mask(rng.random(obs.x.shape) > 0.15)
    spec = PriorSpec(beta=beta, a_hyper=ConjugateHyper(*_PRODUCT_HYPER[fam]),
                     sigma_u=0.5, sigma_v=2.0)
    return lay, obs, spec, state


@pytest.mark.parametrize("beta", (0.0, 0.3))
@pytest.mark.parametrize("fam", sorted(_PRODUCT_HYPER))
def test_hessian_product_matches_central_differences(fam, beta, monkeypatch):
    """The MAP objective's Hessian-vector product, in its whitened
    coordinates, against central differences of its packed gradient, for
    every model kind with a mean row and sigma_u != sigma_v, formed one
    row at a time.  Asked again after other points were scored, it gives
    the same bits."""
    monkeypatch.setattr(prior, "_BLOCK_BYTES", 1)
    eps, worst = 1e-5, 0.0
    for seed, kind in enumerate(("epca", "sepca", "epls", "ecca")):
        lay, obs, spec, state = _product_case(kind, fam, beta, seed)
        free = FreeParams(lay, state)
        fun = free.objective(obs, spec)
        x0 = free.pack(state) / free.whitening(spec)

        def grad_at(x):
            return fun(x)[1]()[0]

        product = fun(x0)[1]()[1]
        dirs = make_rng(11, 41, seed).standard_normal((3, x0.size))
        products = [product(p) for p in dirs]
        for p, hp in zip(dirs, products):
            fd = (grad_at(x0 + eps * p) - grad_at(x0 - eps * p)) / (2 * eps)
            worst = max(worst, np.linalg.norm(fd - hp) / np.linalg.norm(hp))
            assert np.array_equal(product(p), hp)
    assert worst < 1e-6, worst


def test_hessian_product_is_zero_on_structural_zeros():
    lay, obs, spec, state = _product_case("ecca", "poisson", 0.3, 0)
    density = prior.PreparedDensity(spec, lay, obs, 6)
    rng = make_rng(11, 42)
    h_u, h_v, h_mean = density.hessian_product(
        state, rng.standard_normal(state.u.shape),
        rng.standard_normal(state.v.shape), rng.standard_normal(lay.d_total))
    assert np.all(h_v[lay.zero_mask] == 0.0)
    assert np.any(h_v != 0.0) and h_mean.shape == (lay.d_total,)


# ------------------------------------------------- convergence oracle

def _assert_converged(obs, lay, spec, opts, same_optimum=True):
    """The fit reaches grad_tol: its gradient in U, V and the mean row,
    formed afresh, is within the default tolerance, and a reference run
    from the same start with a 1000 times tighter tolerance lowers the
    objective by at most 1e-6 relative.  Where the problem is
    non-convex and the reference may find another stationary point,
    only stationarity is checked."""
    grad_tol = 1e-5 * np.sqrt(obs.n_rows * lay.d_total)
    fit = fit_map(obs, lay, spec, opts)
    assert fit.converged and fit.status == "grad_tol"
    _, gu, gv, gm = posterior_logp_and_grad(fit.state, obs, lay, spec)
    for g in (gu, gv, gm):
        assert g is None or np.max(np.abs(g)) <= grad_tol
    if same_optimum:
        ref = fit_map(obs, lay, spec, MapOptions(
            max_iter=20 * opts.max_iter, grad_tol=1e-3 * grad_tol,
            restarts=opts.restarts, seed=opts.seed))
        assert ref.converged
        assert fit.objective - ref.objective <= 1e-6 * abs(ref.objective)


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_poisson_ecca_fit_converges(seed):
    """The sampler-bench recipe's model and data."""
    lay = make_layout("ecca", (20, 20), (1, 2, 2), "poisson")
    obs = generate_coupled(lay, 50, seed=seed, latent_scale=0.8).train
    spec = PriorSpec(beta=0.1, a_hyper=ConjugateHyper(0.5, 1.0))
    _assert_converged(obs, lay, spec, MapOptions(max_iter=500, seed=seed))


@pytest.mark.parametrize("beta", (0.0, 0.5))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_exponential_epca_with_mean_row_converges(seed, beta):
    lay = make_layout("epca", 10, 3, "exponential", use_mean_row=True)
    rng = make_rng(11, 51, seed)
    theta = -np.exp(0.5 * rng.standard_normal((40, 3))
                    @ rng.standard_normal((3, 10)) / np.sqrt(3))
    obs = dense_observations(lay, theta, seed=160 + seed)
    spec = PriorSpec(beta=beta, a_hyper=ConjugateHyper(0.5, 1.0))
    _assert_converged(obs, lay, spec, MapOptions(max_iter=500, seed=seed))


@pytest.mark.parametrize("sigmas", DEFAULT_BC_GRID)
@pytest.mark.parametrize("fold", (0, 1))
def test_beta_sweep_cv_stage_two_fits_converge(fold, sigmas):
    """The second CV stage of the beta-sweep recipe at its default
    config, on the stand-in data: K = 1 at beta = 0, non-convex, so only
    stationarity is checked."""
    cfg = BetaSweepConfig(seed=0)
    train, _ = make_holdout(load_or_fallback(None)[0], cfg.holdout_fraction,
                            seed=_seed_int(cfg.seed, 31))
    lay = make_layout("epca", (train.x.shape[1], 0), cfg.k,
                      train.families[0].name)
    rng = np.random.default_rng(
        np.random.SeedSequence([_seed_int(cfg.seed, 37), 101]))
    held = _fold_masks(train.observed, cfg.cv_folds, rng)[fold]
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.5, 1.0),
                     sigma_u=sigmas[0], sigma_v=sigmas[1])
    _assert_converged(train.with_mask(train.observed & ~held), lay, spec,
                      MapOptions(max_iter=cfg.cv_max_iter),
                      same_optimum=False)


def test_fit_map_is_deterministic():
    lay = make_layout("epca", 3, 1, "poisson")
    rng = make_rng(11, 4)
    theta = 0.4 * rng.standard_normal((6, 3))
    obs = dense_observations(lay, theta, seed=114)
    spec = PriorSpec(beta=0.2, a_hyper=ConjugateHyper(0.5, 1.0))
    f1 = fit_map(obs, lay, spec, MapOptions(seed=9))
    f2 = fit_map(obs, lay, spec, MapOptions(seed=9))
    assert np.array_equal(f1.state.u, f2.state.u)
    assert np.array_equal(f1.state.v, f2.state.v)
    assert f1.objective == f2.objective


def test_masked_entries_do_not_pull_fit():
    """Entries switched off in the mask must not influence the optimum."""
    lay = make_layout("epca", 2, 1, "gaussian")
    x = np.array([[1.0, 500.0], [1.2, 500.0], [0.8, 500.0]])
    observed = np.array([[True, False]] * 3)
    obs = ObservationSet(x, observed, lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=1e4, sigma_v=1e4)
    fit = fit_map(obs, lay, spec, MapOptions(seed=2))
    theta = assemble_theta(fit.state, lay)
    assert np.all(np.abs(theta[:, 1]) < 10.0)
    assert np.allclose(theta[:, 0], x[:, 0], atol=0.05)


def test_init_state_moment_matched_domain():
    lay = make_layout("epca", 3, 1, "exponential")
    rng = make_rng(11, 5)
    x = rng.exponential(2.0, size=(10, 3))
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    row = moment_matched_row(obs, lay)
    assert np.all(row < 0.0)
    state = init_state(obs, lay, make_rng(11, 6), 0.01)
    state.validate(lay)


# ----------------------------------------------------------------- fold-in

def _two_view_fixture(seed, n_train=12, noiseless=True):
    lay = make_layout("epls", (2, 4), (1, 1), ("gaussian", "gaussian"))
    rng = make_rng(12, seed)
    u = rng.standard_normal((n_train, lay.k_total))
    v = rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    theta = u @ v
    x = theta.copy() if noiseless else theta + 0.1 * rng.standard_normal(
        theta.shape)
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    return lay, FactorState(u, v), obs, theta


def test_fold_in_recovers_noiseless_target():
    lay, state, obs, theta = _two_view_fixture(1)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=1e6, sigma_v=1e6)
    pred = predict_target(obs, state, lay, spec,
                          MapOptions(seed=0, grad_tol=1e-9))
    cols1 = lay.cols_view[0]
    assert np.allclose(pred.means, theta[:, cols1], atol=1e-4)


def test_fold_in_ignores_view_one_observations():
    """Fold-in must look only at view 2: corrupting view-1 entries of the
    test rows cannot change the predictions."""
    lay, state, obs, _ = _two_view_fixture(2)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=1e6, sigma_v=1e6)
    p1 = predict_target(obs, state, lay, spec, MapOptions(seed=0))
    x2 = obs.x.copy()
    x2[:, lay.cols_view[0]] += 100.0
    obs2 = ObservationSet(x2, obs.observed, lay.view_widths, lay.families)
    p2 = predict_target(obs2, state, lay, spec, MapOptions(seed=0))
    assert np.array_equal(p1.means, p2.means)


def test_fold_in_zero_loadings_predicts_constant():
    """When every view-1 loading is zero the prediction collapses to the
    mean-row response, identical across rows."""
    lay = make_layout("epls", (2, 3), (1, 1), ("bernoulli", "gaussian"),
                      use_mean_row=True)
    rng = make_rng(12, 3)
    v = rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    v[:, lay.cols_view[0]] = 0.0
    mean_row = np.array([0.3, -0.7, 0.0, 0.0, 0.0])
    state = FactorState(rng.standard_normal((6, lay.k_total)), v, mean_row)
    x = np.zeros((4, 5))
    x[:, 2:] = rng.standard_normal((4, 3))
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.1, 0.2))
    pred = predict_target(obs, state, lay, spec, MapOptions(seed=0))
    expect = special.expit(mean_row[:2])
    assert np.allclose(pred.means, np.tile(expect, (4, 1)), atol=1e-6)


def test_fold_in_matches_grid_oracle_logistic():
    """Single test row, K = 1, Bernoulli view 2: the folded-in u must
    maximise the penalised view-2 log-likelihood, located by grid search."""
    lay = make_layout("epls", (1, 6), (1, 0), ("gaussian", "bernoulli"))
    rng = make_rng(12, 4)
    v = np.concatenate([[0.8], rng.standard_normal(6)])[None, :]
    state = FactorState(np.zeros((1, 1)), v)
    x = np.array([[0.0, 1, 1, 0, 1, 1, 0]], dtype=float)
    obs = ObservationSet(x, np.ones((1, 7), dtype=bool),
                         lay.view_widths, lay.families)
    sigma_u = 2.0
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.1, 0.2),
                     sigma_u=sigma_u, sigma_v=1.0)
    pred = predict_target(obs, state, lay, spec,
                          MapOptions(seed=0, grad_tol=1e-10))

    grid = np.linspace(-10, 10, 200_001)
    vb = v[0, 1:]
    xb = x[0, 1:]
    ll = (xb[None, :] * np.outer(grid, vb)
          - np.logaddexp(0.0, np.outer(grid, vb))).sum(axis=1)
    ll = ll - grid ** 2 / (2 * sigma_u)
    u_star = grid[np.argmax(ll)]
    assert pred.u[0, 0] == pytest.approx(u_star, abs=1e-3)
    assert pred.means[0, 0] == pytest.approx(u_star * 0.8, abs=1e-3)


def _fold_in_gradient(obs_test, pred, state, layout, spec):
    """Gradient of the fold-in objective wrt each test row's u: view 2
    only, beta = 0, V and the mean row fixed."""
    mask2 = np.zeros_like(obs_test.observed)
    cols2 = layout.cols_view[1]
    mask2[:, cols2] = obs_test.observed[:, cols2]
    folded = FactorState(pred.u, state.v, state.mean_row)
    return posterior_logp_and_grad(
        folded, obs_test.with_mask(mask2), layout,
        spec.replace(beta=0.0, gamma=spec.gamma))[1]


@pytest.fixture(scope="module")
def sepca_weak_view_fold_in():
    """The epls-vs-sepca recipe's data and sepca fit at alpha = 1e-3 (its
    default shapes, replicate 0 of seed 0): a fold-in whose gradient at a
    small random start is already of the order of an absolute stopping
    tolerance 1e-5 sqrt(N D)."""
    cfg = EplsVsSepcaConfig()
    widths = (cfg.d_target, cfg.d_features)
    gen = make_layout("epls", widths, (cfg.k_shared, cfg.k_specific),
                      "bernoulli")
    data = generate_coupled(gen, cfg.n_train, cfg.n_test,
                            seed=_seed_int(cfg.seed, 29, 0),
                            latent_scale=cfg.latent_scale,
                            target_scale=cfg.target_scale)
    feat_mask = np.ones(data.test.x.shape, dtype=bool)
    feat_mask[:, :cfg.d_target] = False
    test_feats = data.test.with_mask(feat_mask)
    lay = make_layout("sepca", widths, 4, "bernoulli", alpha=(1.0, 1e-3))
    spec = PriorSpec(beta=cfg.beta, a_hyper=ConjugateHyper(cfg.lam, cfg.nu),
                     sigma_u=cfg.sigma_u, sigma_v=cfg.sigma_v)
    fit = fit_map(data.train, lay, spec,
                  MapOptions(max_iter=cfg.max_iter, seed=1))
    return test_feats, fit.state, lay, spec


def test_fold_in_does_not_depend_on_the_seed(sepca_weak_view_fold_in):
    test_feats, state, lay, spec = sepca_weak_view_fold_in
    p0 = predict_target(test_feats, state, lay, spec, MapOptions(seed=0))
    p1 = predict_target(test_feats, state, lay, spec, MapOptions(seed=1))
    assert np.array_equal(p0.means, p1.means)
    assert np.array_equal(p0.u, p1.u)


def test_fold_in_gradient_vanishes_in_every_row(sepca_weak_view_fold_in):
    test_feats, state, lay, spec = sepca_weak_view_fold_in
    pred = predict_target(test_feats, state, lay, spec)
    grad = _fold_in_gradient(test_feats, pred, state, lay, spec)
    assert grad.shape == (test_feats.n_rows, lay.k_total)
    assert np.max(np.abs(grad)) <= 1e-5


def test_fold_in_exponential_iterates_stay_in_domain(monkeypatch):
    """An exponential view 2 whose negative mean row sits close to the
    domain edge: every Theta at which the fold-in takes a gradient, and
    the result, lie in the domain, and the predictions are finite."""
    lay = make_layout("epls", (2, 6), (1, 2), ("gaussian", "exponential"),
                      use_mean_row=True)
    rng = make_rng(12, 9)
    v = rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    mean_row = np.concatenate([np.zeros(2), np.full(6, -0.2)])
    state = FactorState(np.zeros((3, lay.k_total)), v, mean_row)
    x = np.zeros((40, lay.d_total))
    x[:, 2:] = rng.exponential(rng.uniform(0.05, 20.0, (40, 1)), (40, 6))
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.1, 1.0),
                     sigma_u=4.0)
    seen = []
    slopes = model.EntryTerms.slopes

    def spy(self, theta, gs):
        seen.append(np.all(theta[:, 2:] < 0.0))
        return slopes(self, theta, gs)

    monkeypatch.setattr(model.EntryTerms, "slopes", spy)
    pred = predict_target(obs, state, lay, spec)
    theta = assemble_theta(FactorState(pred.u, v, mean_row), lay)
    assert seen and all(seen)
    assert np.all(theta[:, 2:] < 0.0)
    assert np.all(np.isfinite(pred.means))


def test_fold_in_poisson_large_counts_are_finite(monkeypatch):
    """Counts up to 1e3: the summed entry terms carry rounding errors of
    about 1e-12, so some rows end with a Newton gain that no step can
    resolve.  They count as converged, and every prediction is finite."""
    unresolved = []
    backtrack = map_infer._backtrack

    def spy(*args):
        failed = backtrack(*args)
        unresolved.extend(args[-1][failed])
        return failed

    monkeypatch.setattr(map_infer, "_backtrack", spy)
    lay = make_layout("epls", (2, 8), (1, 2), ("poisson", "poisson"),
                      use_mean_row=True)
    rng = make_rng(12, 11)
    v = 0.5 * rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    state = FactorState(np.zeros((3, lay.k_total)), v,
                        np.full(lay.d_total, 1.0))
    x = np.zeros((200, lay.d_total))
    x[:, 2:] = rng.integers(0, 1001, (200, 8))
    x[0, 2:] = 1000.0
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.5, 1.0))
    pred = predict_target(obs, state, lay, spec)
    assert unresolved and max(unresolved) <= map_infer.UNRESOLVED_GAIN_TOL
    assert np.all(np.isfinite(pred.u))
    assert np.all(np.isfinite(pred.means)) and np.all(pred.means > 0.0)


def _poisson_rates_fold_in(seed, observed_frac=1.0):
    """A Poisson epls fold-in of 40 rows whose view-2 rates run from 0.1
    to 300, so that rows converge after different numbers of Newton
    iterations; view 1 holds zeros, and a fraction of view 2 is
    observed."""
    lay = make_layout("epls", (2, 8), (1, 2), ("poisson", "poisson"),
                      use_mean_row=True)
    rng = make_rng(12, seed)
    v = 0.5 * rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    state = FactorState(np.zeros((3, lay.k_total)), v,
                        np.full(lay.d_total, 1.0))
    x = np.zeros((40, lay.d_total))
    x[:, 2:] = rng.poisson(rng.uniform(0.1, 300.0, (40, 1)), (40, 8))
    observed = rng.random(x.shape) < observed_frac
    obs = ObservationSet(x, observed, lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.5, 1.0))
    return lay, state, obs, spec


def test_fold_in_scores_only_the_rows_still_iterating(monkeypatch):
    """The kernel scores every row once, at u = 0.  After that the slopes
    and curvature of each Newton iteration see exactly the rows still
    iterating, and score runs only inside the line search, on the rows
    still trying a step: no accepted point is scored again, and no row
    is seen after the iteration at which it converged.  Rows are told
    apart by their view-2 counts, which are the kernel's coefficients
    a on view 2."""
    lay, state, obs, spec = _poisson_rates_fold_in(13)
    n, cols2 = obs.n_rows, lay.cols_view[1]
    row_of = {row.tobytes(): i for i, row in enumerate(obs.x[:, cols2])}
    assert len(row_of) == n
    events = []

    def spy_on(name):
        method = getattr(model.EntryTerms, name)

        def spy(self, *args, **kwargs):
            a2 = self.views[1][2]
            events.append((name, frozenset(row_of[r.tobytes()] for r in a2)))
            return method(self, *args, **kwargs)
        monkeypatch.setattr(model.EntryTerms, name, spy)

    for name in ("score", "slopes", "curvature"):
        spy_on(name)
    backtrack = map_infer._backtrack

    def backtrack_spy(*args):
        rows = args[-3]
        events.append(("backtrack", frozenset(rows)))
        failed = backtrack(*args)
        events.append(("return", frozenset(np.delete(rows, failed))))
        return failed

    monkeypatch.setattr(map_infer, "_backtrack", backtrack_spy)
    pred = predict_target(obs, state, lay, spec)
    assert np.all(np.isfinite(pred.u))

    assert events[0] == ("score", frozenset(range(n)))
    active, trying, sizes = frozenset(range(n)), None, []
    for name, rows in events[1:]:
        if name == "backtrack":
            assert rows <= active
            trying = rows
        elif name == "return":
            active, trying = rows, None
        elif name == "score":
            assert trying is not None and rows <= trying
            trying = rows
        else:
            assert rows == active
            sizes.append(len(rows))
    # rows converged at more than one iteration before the last
    assert len(set(sizes)) >= 3


def test_fold_in_of_a_row_subset_matches_the_full_fold_in():
    """Each row is its own problem: rows folded in on their own get the
    u they get in the full fold-in, and the kernel of those rows alone
    (EntryTerms.rows) scores them exactly as the full kernel does, with
    a partly observed view whose b, c and unscored mask are arrays."""
    lay, state, obs, spec = _poisson_rates_fold_in(14, observed_frac=0.8)
    idx = np.array([31, 2, 17, 5, 6, 39])
    full = predict_target(obs, state, lay, spec)
    part = predict_target(obs.subset_rows(idx), state, lay, spec)
    np.testing.assert_allclose(part.u, full.u[idx], rtol=1e-12, atol=0.0)

    kernel = spec.entry_terms(lay, obs)
    theta = make_rng(12, 15).standard_normal((obs.n_rows, lay.d_total))
    vals, gs = kernel.score(theta)
    sub = kernel.rows(idx)
    sub_vals, sub_gs = sub.score(theta[idx])
    assert np.array_equal(sub_vals, vals[idx])
    assert all(np.array_equal(s, g[idx]) for s, g in zip(sub_gs, gs))
    assert np.array_equal(sub.slopes(theta[idx], sub_gs),
                          kernel.slopes(theta, gs)[idx])
    assert np.array_equal(sub.curvature(theta[idx], sub_gs),
                          kernel.curvature(theta, gs)[idx])


def test_fold_in_optimum_on_the_domain_edge_raises():
    """The view-1 entries are not scored at fold-in, but their Theta must
    stay in the domain.  Here view 2 pulls u to 3.75 while the exponential
    target's Theta = u - 0.1 must stay negative: the supremum lies on the
    domain edge, no step realises the predicted gain, and the fold-in
    says so instead of returning a point at the edge."""
    lay = make_layout("epls", (1, 3), (1, 0), ("exponential", "gaussian"),
                      use_mean_row=True)
    state = FactorState(np.zeros((1, 1)), np.ones((1, 4)),
                        np.array([-0.1, 0.0, 0.0, 0.0]))
    x = np.array([[0.0, 5.0, 5.0, 5.0]])
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.1, 1.0))
    with pytest.raises(FoldInError, match="line search failed in 1 of 1"):
        predict_target(obs, state, lay, spec)


def test_fold_in_singular_hessian_raises_fold_in_error():
    """At gamma = 0 a component that loads on no view-2 column leaves the
    fold-in Hessian singular; the other component sees separable data.
    The failure is a FoldInError, not numpy's LinAlgError."""
    lay = make_layout("epls", (1, 3), (1, 1), ("bernoulli", "bernoulli"))
    v = np.array([[1.5, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 2.0, 0.5]])
    state = FactorState(np.zeros((2, 2)), v)
    x = np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.1, 0.2), gamma=0.0)
    with pytest.raises(FoldInError, match="singular in 2 of 2 rows"):
        predict_target(obs, state, lay, spec)


def test_fold_in_requires_two_views():
    lay = make_layout("epca", 3, 1, "gaussian")
    obs = ObservationSet(np.zeros((2, 3)), np.ones((2, 3), dtype=bool),
                         lay.view_widths, lay.families)
    state = FactorState(np.zeros((2, 1)), np.zeros((1, 3)))
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    with pytest.raises(LayoutError):
        predict_target(obs, state, lay, spec)


# ---------------------------------------------------------- cross-validation

def test_fold_masks_partition_observed():
    rng = make_rng(12, 5)
    observed = rng.random((9, 7)) < 0.8
    masks = _fold_masks(observed, 4, rng)
    assert len(masks) == 4
    total = np.zeros_like(observed, dtype=int)
    for m in masks:
        assert not np.any(m & ~observed)
        total += m
    assert np.array_equal(total > 0, observed)
    assert total.max() == 1


def test_cv_single_candidate_grids_pass_through():
    lay = make_layout("epca", 3, 1, "bernoulli")
    rng = make_rng(12, 6)
    theta = rng.standard_normal((10, 3))
    obs = dense_observations(lay, theta, seed=126)
    spec = cv_select_hyperparams(
        obs, lay, beta=0.3, a_grid=((0.25, 0.5),), bc_grid=((0.5, 2.0),),
        folds=3, seed=0, opts=MapOptions(max_iter=100))
    assert spec.beta == pytest.approx(0.3)
    assert spec.gamma == pytest.approx(0.7)
    assert spec.a_hyper[0] == ConjugateHyper(0.25, 0.5)
    assert spec.sigma_u == 0.5 and spec.sigma_v == 2.0


def test_cv_rejects_empty_grids():
    lay = make_layout("epca", 2, 1, "gaussian")
    obs = ObservationSet(np.zeros((4, 2)), np.ones((4, 2), dtype=bool),
                         lay.view_widths, lay.families)
    with pytest.raises(ConfigError):
        cv_select_hyperparams(obs, lay, beta=0.5, a_grid=())


def test_cv_beta_zero_skips_conjugate_stage():
    """At beta = 0 the a-grid is never scored: an a-candidate that would be
    rejected by the family (lam >= nu) must not matter."""
    lay = make_layout("epca", 3, 1, "bernoulli")
    rng = make_rng(12, 7)
    theta = rng.standard_normal((8, 3))
    obs = dense_observations(lay, theta, seed=127)
    spec = cv_select_hyperparams(
        obs, lay, beta=0.0, a_grid=((5.0, 1.0),), bc_grid=((1.0, 1.0),),
        folds=3, seed=0, opts=MapOptions(max_iter=100))
    assert spec.beta == 0.0
    assert spec.sigma_u == 1.0


def test_cv_picks_obviously_better_variance():
    """Strong low-rank Gaussian data with unit-scale factors: a variance
    candidate at the data scale must beat one collapsed to near zero."""
    lay = make_layout("epca", 4, 1, "gaussian")
    rng = make_rng(12, 8)
    u = rng.standard_normal((16, 1))
    v = rng.standard_normal((1, 4))
    x = u @ v + 0.05 * rng.standard_normal((16, 4))
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    spec = cv_select_hyperparams(
        obs, lay, beta=0.0, a_grid=((0.0, 1.0),),
        bc_grid=((1e-6, 1e-6), (1.0, 1.0)), folds=4, seed=1,
        opts=MapOptions(max_iter=200))
    assert spec.sigma_u == 1.0 and spec.sigma_v == 1.0
