"""Alternating Theta sampler: Gaussian stage, proposals, element-wise MH."""

import numpy as np
import pytest
from scipy import linalg, special

from expfamproj import gibecca
from expfamproj import (ConfigError, ConjugateHyper, GibeccaOptions,
                        HmcOptions, LayoutError, ObservationSet, PriorSpec,
                        ShapeError, gibbs_gaussian_stage, make_layout,
                        mh_accept_elements, propose_theta_rows, run_gibecca,
                        run_hmc_chain)
from expfamproj.gibecca import (StageError, build_sigma, init_gaussian_stage,
                                init_theta)

from conftest import batch_means_se, dense_observations, grid_stats, make_rng


def _stage(layout, spec, n_rows, seed, **kw):
    return init_gaussian_stage(layout, spec, n_rows, make_rng(15, seed), **kw)


FLAT = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.1, 0.2))


# ---------------------------------------------------------------- proposal

def test_build_sigma_is_each_columns_view_residual():
    lay = make_layout("ecca", (2, 3), (1, 1, 1), ("gaussian", "gaussian"))
    stage = _stage(lay, FLAT, 4, 1)
    stage.resid[:] = (0.5, 2.0)
    assert np.array_equal(build_sigma(stage, lay),
                          [0.5, 0.5, 2.0, 2.0, 2.0])


def test_proposal_rows_match_mean_and_covariance():
    """Every entry is drawn from N((U V)_nd, r_d) on its own: the full U
    and V give the mean, the view residual the variance, and no two
    columns or rows are correlated."""
    lay = make_layout("ecca", (2, 2), (1, 1, 1), ("gaussian", "gaussian"))
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.1, 0.2),
                     sigma_u=1.0, sigma_v=1.0)
    stage = _stage(lay, spec, 3, 3)
    stage.resid[:] = (0.3, 0.7)
    rng = make_rng(15, 4)
    n_draw = 6000
    mean_expect = stage.u @ stage.v
    draws = np.stack([propose_theta_rows(stage, lay, rng)
                      for _ in range(n_draw)])
    z = (draws.mean(axis=0) - mean_expect) \
        / (draws.std(axis=0) / np.sqrt(n_draw))
    assert np.max(np.abs(z)) < 4.5
    dev = (draws - mean_expect).reshape(n_draw, -1)   # rows x columns
    cov = dev.T @ dev / n_draw
    var_expect = np.tile([0.3, 0.3, 0.7, 0.7], 3)
    assert np.allclose(np.diag(cov), var_expect, rtol=0.08)
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    off = corr[~np.eye(corr.shape[0], dtype=bool)]
    assert np.max(np.abs(off)) < 0.06


# ------------------------------------------------------------ Gibbs stage

def test_gibbs_u_conditional_mean_and_variance():
    """1x1 layout with V pinned at 1 and fixed variances: u | theta is
    N(theta r^{-1} / (r^{-1} + 1/var_u), 1 / (r^{-1} + 1/var_u)).  The
    sweep must reproduce both moments over repeated draws."""
    lay = make_layout("epca", 1, 1, "gaussian")
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=2.0, sigma_v=1.0)
    theta = np.array([[1.5]])
    rng = make_rng(15, 5)
    stage0 = init_gaussian_stage(lay, spec, 1, rng,
                                 resid_init=0.5, fix_v=np.array([[1.0]]))
    prec = 1.0 / 0.5 + 1.0 / stage0.var_u[0]
    mean_expect = (1.5 / 0.5) / prec
    var_expect = 1.0 / prec
    draws = np.empty(20_000)
    for i in range(draws.size):
        new = gibbs_gaussian_stage(theta, lay, stage0, rng,
                                   sample_v=False, infer_variances=False)
        draws[i] = new.u[0, 0]
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - mean_expect) < 3.5 * se
    assert draws.var() == pytest.approx(var_expect, rel=0.05)


def test_gibbs_variance_updates_have_exact_conditionals():
    """Probability integral transform: var_u | U is IG(1 + n/2,
    1 + ssq(U)/2) and resid | (Theta, U, V) is IG(1 + size/2,
    1 + ssq(err)/2).  Feeding each draw through its own conditional CDF
    must give uniform values."""
    from scipy import stats as sps

    lay = make_layout("epca", 2, 1, "gaussian")
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    rng = make_rng(15, 6)
    theta = np.array([[0.3, -0.2], [0.8, 0.1], [-0.4, 0.6], [0.2, 0.2]])
    v0 = np.array([[1.0, 0.5]])
    stage = init_gaussian_stage(lay, spec, 4, rng, fix_v=v0)
    n_rep = 4000
    pit_var = np.empty(n_rep)
    pit_resid = np.empty(n_rep)
    for i in range(n_rep):
        new = gibbs_gaussian_stage(theta, lay, stage, rng,
                                   sample_v=False, infer_variances=True)
        ssq_u = float(np.sum(new.u * new.u))
        pit_var[i] = sps.invgamma.cdf(new.var_u[0], a=1.0 + 2.0,
                                      scale=1.0 + 0.5 * ssq_u)
        err = theta - new.u @ v0
        pit_resid[i] = sps.invgamma.cdf(
            new.resid[0], a=1.0 + 4.0, scale=1.0 + 0.5 * float(
                np.sum(err * err)))
    for pit in (pit_var, pit_resid):
        assert sps.kstest(pit, "uniform").pvalue > 1e-3


def test_gibbs_stage_preserves_masked_v():
    lay = make_layout("epls", (1, 3), (1, 2), ("gaussian", "gaussian"))
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    rng = make_rng(15, 7)
    stage = init_gaussian_stage(lay, spec, 6, rng)
    theta = rng.standard_normal((6, 4))
    for _ in range(5):
        stage = gibbs_gaussian_stage(theta, lay, stage, rng)
        assert np.all(stage.v[lay.zero_mask] == 0.0)


def test_gibbs_stage_input_not_modified():
    lay = make_layout("epca", 2, 1, "gaussian")
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    rng = make_rng(15, 8)
    stage = init_gaussian_stage(lay, spec, 3, rng)
    u_before = stage.u.copy()
    v_before = stage.v.copy()
    gibbs_gaussian_stage(rng.standard_normal((3, 2)), lay, stage, rng)
    assert np.array_equal(stage.u, u_before)
    assert np.array_equal(stage.v, v_before)


def test_gibbs_stage_rejects_bad_theta():
    lay = make_layout("epca", 2, 1, "gaussian")
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    rng = make_rng(15, 9)
    stage = init_gaussian_stage(lay, spec, 3, rng)
    with pytest.raises(StageError):
        gibbs_gaussian_stage(np.full((3, 2), np.nan), lay, stage, rng)
    with pytest.raises(StageError):
        gibbs_gaussian_stage(np.zeros((4, 2)), lay, stage, rng)


def test_gibbs_stage_rejects_non_finite_factors():
    """A NaN in a pinned V (GibeccaOptions.fix_v) reaches no LAPACK check
    that fails, so the stage's own check on the new factors raises."""
    lay = make_layout("ecca", (2, 3), (1, 1, 1), ("gaussian", "gaussian"))
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    rng = make_rng(15, 31)
    v = rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    v[0, 1] = np.nan
    stage = init_gaussian_stage(lay, spec, 4, rng, fix_v=v)
    for sample_v in (True, False):
        with pytest.raises(StageError):
            gibbs_gaussian_stage(rng.standard_normal((4, 5)), lay, stage, rng,
                                 sample_v=sample_v)
    obs = dense_observations(lay, rng.standard_normal((4, 5)), seed=131)
    with pytest.raises(StageError):
        run_gibecca(obs, lay, spec, GibeccaOptions(n_samples=2, burn_in=1,
                                                   fix_v=v))


@pytest.mark.parametrize("runner, options", [(run_gibecca, GibeccaOptions),
                                             (run_hmc_chain, HmcOptions)])
def test_pinned_v_is_checked_where_it_enters(runner, options):
    """A pinned V whose structural zeros are not exactly zero raises
    ValueError, and one of the wrong shape raises ShapeError, in the
    alternating sampler as in HMC; a valid pin runs and is kept."""
    lay = make_layout("ecca", (2, 3), (1, 1, 1), ("gaussian", "gaussian"))
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    rng = make_rng(15, 34)
    obs = dense_observations(lay, rng.standard_normal((4, 5)), seed=134)
    v = rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    chain = runner(obs, lay, spec, options(n_samples=2, burn_in=1, fix_v=v))
    assert all(np.array_equal(s.v, v) for s in chain.states)
    nonzero = v.copy()
    nonzero[lay.zero_mask] = 0.5
    with pytest.raises(ValueError, match="structural zeros"):
        runner(obs, lay, spec, options(n_samples=2, burn_in=1,
                                       fix_v=nonzero))
    with pytest.raises(ShapeError):
        runner(obs, lay, spec, options(n_samples=2, burn_in=1, fix_v=v[:2]))


# The Gaussian stage as it was written with scipy's checked wrappers; the
# stage must reproduce it bit for bit and leave the generator in the same
# state.

def _reference_mvn_rows(mean, prec_chol, rng):
    z = rng.standard_normal(mean.shape)
    return mean + linalg.solve_triangular(prec_chol, z.T, lower=True,
                                          trans="T").T


def _reference_stage(theta, layout, stage, rng, sample_v=True,
                     infer_variances=True):
    def inv_gamma(shape, scale):
        return scale / rng.gamma(shape)

    n, d = theta.shape
    k = layout.k_total
    v = stage.v.copy()
    var_u = stage.var_u.copy()
    var_v = stage.var_v.copy()
    resid = stage.resid.copy()
    r_col = np.repeat(resid, layout.view_widths[:layout.n_views])

    a = v / r_col
    prec = a @ v.T + np.diag(1.0 / var_u)
    chol = np.linalg.cholesky(prec)
    mean = linalg.cho_solve((chol, True), a @ theta.T).T
    u = _reference_mvn_rows(mean, chol, rng)

    if sample_v:
        for i in range(layout.n_views):
            cols = layout.cols_view[i]
            rows = np.r_[np.arange(layout.ranks[0]),
                         np.arange(k)[layout.rows_view[i]]]
            a_blk = u[:, rows]
            prec_v = a_blk.T @ a_blk / resid[i] + np.diag(1.0 / var_v[rows])
            chol_v = np.linalg.cholesky(prec_v)
            mean_v = linalg.cho_solve((chol_v, True),
                                      a_blk.T @ theta[:, cols] / resid[i])
            v[np.ix_(rows, np.arange(d)[cols])] = \
                _reference_mvn_rows(mean_v.T, chol_v, rng).T

    if infer_variances:
        free = ~layout.zero_mask
        ssq_u = np.sum(u * u, axis=0)
        ssq_v = np.sum(np.where(free, v, 0.0) ** 2, axis=1)
        n_free = free.sum(axis=1)
        for j in np.flatnonzero(np.isfinite(var_u)):
            var_u[j] = inv_gamma(1.0 + 0.5 * n, 1.0 + 0.5 * ssq_u[j])
        if sample_v:
            for j in np.flatnonzero(np.isfinite(var_v)):
                var_v[j] = inv_gamma(1.0 + 0.5 * n_free[j],
                                     1.0 + 0.5 * ssq_v[j])
        fit = u @ v
        for i in range(layout.n_views):
            cols = layout.cols_view[i]
            err = theta[:, cols] - fit[:, cols]
            resid[i] = inv_gamma(1.0 + 0.5 * err.size,
                                 1.0 + 0.5 * float(np.sum(err * err)))

    return gibecca.GaussianStageState(u, v, var_u, var_v, resid)


STAGE_LAYOUTS = {
    "epca": ("epca", 5, 3, "gaussian"),
    "epls": ("epls", (3, 4), (2, 2), ("gaussian", "gaussian")),
    "ecca": ("ecca", (3, 4), (2, 1, 2), ("gaussian", "gaussian")),
    # view 1's free V rows form a 1 x 1 block
    "ecca-1x1": ("ecca", (2, 3), (1, 0, 1), ("gaussian", "gaussian")),
}


@pytest.mark.parametrize("gamma", [0.5, 0.0])
@pytest.mark.parametrize("infer_variances", [True, False])
@pytest.mark.parametrize("sample_v", [True, False])
@pytest.mark.parametrize("kind", sorted(STAGE_LAYOUTS))
def test_gibbs_stage_matches_reference_bit_for_bit(kind, sample_v,
                                                   infer_variances, gamma):
    lay = make_layout(*STAGE_LAYOUTS[kind])
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=0.7, sigma_v=1.3, gamma=gamma)
    seed = make_rng(15, 32).integers(2**32)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    theta = 0.8 * rng.standard_normal((7, lay.d_total))
    ref_rng.standard_normal((7, lay.d_total))
    pin = None
    if not sample_v:
        pin = rng.standard_normal((lay.k_total, lay.d_total))
        pin[lay.zero_mask] = 0.0
        ref_rng.standard_normal((lay.k_total, lay.d_total))
    stage = init_gaussian_stage(lay, spec, 7, rng, fix_v=pin)
    ref = init_gaussian_stage(lay, spec, 7, ref_rng, fix_v=pin)
    plan = gibecca.stage_plan(lay)
    for sweep in range(6):
        # the chain's shared plan and the per-call one alike
        stage = gibbs_gaussian_stage(theta, lay, stage, rng, sample_v,
                                     infer_variances,
                                     plan=plan if sweep % 2 else None)
        ref = _reference_stage(theta, lay, ref, ref_rng, sample_v,
                               infer_variances)
        for name in ("u", "v", "var_u", "var_v", "resid"):
            got, want = getattr(stage, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.all(np.isinf(stage.var_u)) == (gamma == 0.0)


def test_chain_matches_reference_stage(monkeypatch):
    lay = make_layout("ecca", (3, 3), (1, 1, 1), ("poisson", "bernoulli"))
    rng = make_rng(15, 33)
    obs = dense_observations(lay, 0.4 * rng.standard_normal((10, 6)),
                             seed=133)
    obs = obs.with_mask(rng.random(obs.x.shape) < 0.8)
    spec = PriorSpec(beta=0.2, a_hyper=ConjugateHyper(0.5, 1.0))
    opts = GibeccaOptions(n_samples=6, burn_in=4, seed=4)
    chain = run_gibecca(obs, lay, spec, opts)

    def reference(theta, layout, stage, rng, sample_v=True,
                  infer_variances=True, *, plan=None):
        return _reference_stage(theta, layout, stage, rng, sample_v,
                                infer_variances)

    monkeypatch.setattr(gibecca, "gibbs_gaussian_stage", reference)
    ref = run_gibecca(obs, lay, spec, opts)
    assert len(chain.thetas) == len(ref.thetas) == 6
    for got, want in zip(chain.thetas, ref.thetas):
        assert got.tobytes() == want.tobytes()
    assert chain.loglik.tobytes() == ref.loglik.tobytes()
    assert chain.stats == ref.stats


# ------------------------------------------------------------ MH elements

def test_mh_identical_proposal_always_accepts():
    lay = make_layout("epca", 2, 1, "bernoulli")
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    theta = 0.3 * np.ones((2, 2))
    new, acc = mh_accept_elements(obs, theta, theta.copy(), lay, FLAT,
                                  make_rng(15, 10))
    assert acc.all()
    assert np.array_equal(new, theta)


def test_mh_acceptance_probability_matches_ratio():
    """x = 0, theta_old = 0, theta* = 1 under beta = 0: the acceptance
    probability is exactly p(0|1)/p(0|0) = 2(1 - sigmoid(1))."""
    lay = make_layout("epca", 1, 1, "bernoulli")
    obs = ObservationSet(np.zeros((1, 1)), np.ones((1, 1), dtype=bool),
                         lay.view_widths, lay.families)
    p_expect = (1.0 - special.expit(1.0)) / 0.5
    rng = make_rng(15, 11)
    n = 40_000
    hits = 0
    old = np.zeros((1, 1))
    star = np.ones((1, 1))
    for _ in range(n):
        _, acc = mh_accept_elements(obs, old, star, lay, FLAT, rng)
        hits += int(acc[0, 0])
    se = np.sqrt(p_expect * (1 - p_expect) / n)
    assert abs(hits / n - p_expect) < 3.5 * se


def test_mh_conjugate_term_shifts_acceptance():
    """beta > 0 multiplies the ratio by (a(theta*)/a(theta))^beta."""
    lay = make_layout("epca", 1, 1, "bernoulli")
    obs = ObservationSet(np.zeros((1, 1)), np.ones((1, 1), dtype=bool),
                         lay.view_widths, lay.families)
    beta, lam, nu = 0.5, 0.1, 0.2
    spec = PriorSpec(beta=beta, a_hyper=ConjugateHyper(lam, nu))
    base = np.log(1.0 - special.expit(1.0)) - np.log(0.5)
    conj = beta * (lam * 1.0 - nu * (np.logaddexp(0, 1.0) - np.log(2.0)))
    p_expect = np.exp(base + conj)
    rng = make_rng(15, 12)
    n = 40_000
    hits = 0
    old = np.zeros((1, 1))
    star = np.ones((1, 1))
    for _ in range(n):
        _, acc = mh_accept_elements(obs, old, star, lay, spec, rng)
        hits += int(acc[0, 0])
    se = np.sqrt(p_expect * (1 - p_expect) / n)
    assert abs(hits / n - p_expect) < 3.5 * se


def test_mh_unobserved_entries_accept_in_domain_proposals():
    lay = make_layout("epca", 2, 1, "bernoulli")
    obs = ObservationSet(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool),
                         lay.view_widths, lay.families)
    old = np.zeros((2, 2))
    star = 5.0 * np.ones((2, 2))
    new, acc = mh_accept_elements(obs, old, star, lay, FLAT,
                                  make_rng(15, 13))
    assert acc.all()
    assert np.array_equal(new, star)


def test_mh_rejects_out_of_domain_proposals():
    lay = make_layout("epca", 2, 1, "exponential")
    x = np.array([[0.5, 1.0]])
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    old = np.array([[-1.0, -2.0]])
    star = np.array([[0.5, -1.5]])  # first entry leaves the domain
    new, acc = mh_accept_elements(obs, old, star, lay, FLAT,
                                  make_rng(15, 14))
    assert not acc[0, 0]
    assert new[0, 0] == -1.0


def test_chain_kernel_matches_a_kernel_per_sweep(monkeypatch):
    """run_gibecca scores every refresh with one kernel built for the
    chain; its draws equal, bit for bit, those of a kernel per sweep."""
    lay = make_layout("ecca", (3, 3), (1, 1, 1), ("poisson", "poisson"))
    rng = make_rng(15, 30)
    obs = dense_observations(lay, 0.4 * rng.standard_normal((12, 6)),
                             seed=130)
    obs = obs.with_mask(rng.random(obs.x.shape) < 0.7)
    spec = PriorSpec(beta=0.2, a_hyper=ConjugateHyper(0.5, 1.0))
    opts = GibeccaOptions(n_samples=5, burn_in=5, seed=3)
    chain = run_gibecca(obs, lay, spec, opts)

    per_call = mh_accept_elements

    def per_sweep(obs, theta_old, theta_star, layout, spec, rng, *,
                  kernel=None):
        return per_call(obs, theta_old, theta_star, layout, spec, rng)

    monkeypatch.setattr(gibecca, "mh_accept_elements", per_sweep)
    ref = run_gibecca(obs, lay, spec, opts)
    assert len(chain.thetas) == len(ref.thetas) == 5
    for got, want in zip(chain.thetas, ref.thetas):
        assert np.array_equal(got, want)
    assert np.array_equal(chain.loglik, ref.loglik)


# --------------------------------------------------------------- full runs

def test_scalar_bernoulli_posterior_matches_grid():
    """Same quadrature fixture as the HMC version: 1x1 Bernoulli, V pinned
    at 1, beta = 0.  The stationary law of Theta is the likelihood times
    the Gaussian mixture prior induced by u and the proposal residual; with
    infer_hypers off and V pinned, theta = u + noise has the closed
    marginal N(0, sigma_u / gamma + resid), so the grid target is exact."""
    lay = make_layout("epca", 1, 1, "bernoulli")
    obs = ObservationSet(np.array([[1.0]]), np.array([[True]]),
                         lay.view_widths, lay.families)
    sigma_u, gamma, resid = 1.0, 0.5, 0.5
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.1, 0.2),
                     sigma_u=sigma_u, sigma_v=1.0, gamma=gamma)
    prior_var = sigma_u / gamma + resid

    def log_post(t):
        return (t - np.logaddexp(0.0, t)) - t * t / (2.0 * prior_var)

    mean_ref, _ = grid_stats(log_post, lo=-12, hi=12, n=20_000)
    chain = run_gibecca(obs, lay, spec, GibeccaOptions(
        n_samples=20_000, burn_in=2000, seed=3, infer_hypers=False,
        resid_init=resid, fix_v=np.array([[1.0]])))
    trace = np.array([t[0, 0] for t in chain.thetas])
    se = batch_means_se(trace, 50)
    assert abs(trace.mean() - mean_ref) < 3.0 * se + 1e-3


def test_identical_seeds_identical_chains():
    lay = make_layout("ecca", (2, 2), (1, 1, 1), ("poisson", "bernoulli"))
    rng = make_rng(15, 16)
    theta = 0.4 * rng.standard_normal((6, 4))
    obs = dense_observations(lay, theta, seed=151)
    spec = PriorSpec(beta=0.1, a_hyper=ConjugateHyper(0.5, 1.0))
    opts = GibeccaOptions(n_samples=15, burn_in=10, seed=9)
    c1 = run_gibecca(obs, lay, spec, opts)
    c2 = run_gibecca(obs, lay, spec, opts)
    for a, b in zip(c1.thetas, c2.thetas):
        assert np.array_equal(a, b)
    for a, b in zip(c1.states, c2.states):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)


@pytest.mark.parametrize("fix_v", [None, np.array([[0.5, -0.5, 0.2]])])
def test_stored_samples_share_no_memory(fix_v):
    """Every stored U, V and Theta is an array of its own: no two of them
    share memory, nor any with a pinned V the caller passed in."""
    lay = make_layout("epca", 3, 1, "poisson")
    rng = make_rng(15, 36)
    obs = dense_observations(lay, 0.4 * rng.standard_normal((5, 3)),
                             seed=136)
    spec = PriorSpec(beta=0.2, a_hyper=ConjugateHyper(0.5, 1.0))
    chain = run_gibecca(obs, lay, spec, GibeccaOptions(
        n_samples=6, burn_in=2, seed=6, fix_v=fix_v))
    arrays = [a for s in chain.states for a in (s.u, s.v)] + chain.thetas
    if fix_v is not None:
        arrays.append(fix_v)
    assert len(arrays) == 3 * 6 + (fix_v is not None)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_accept_rates_split_at_burn_in(monkeypatch):
    """theta_accept_rate counts the sweeps after burn-in only, and
    theta_accept_rate_burnin the burn-in sweeps, as HMC's rates do."""
    lay = make_layout("ecca", (3, 3), (1, 1, 1), ("poisson", "bernoulli"))
    rng = make_rng(15, 35)
    obs = dense_observations(lay, 0.4 * rng.standard_normal((8, 6)),
                             seed=135)
    spec = PriorSpec(beta=0.2, a_hyper=ConjugateHyper(0.5, 1.0))
    counts = []

    def counted(*args, **kwargs):
        theta, accepted = mh_accept_elements(*args, **kwargs)
        counts.append(int(accepted.sum()))
        return theta, accepted

    monkeypatch.setattr(gibecca, "mh_accept_elements", counted)
    chain = run_gibecca(obs, lay, spec, GibeccaOptions(
        n_samples=6, burn_in=4, thin=2, seed=5))
    stats, n_entries = chain.stats, obs.x.size
    assert len(counts) == 4 + 6 * 2
    assert stats["theta_accept_rate_burnin"] == \
        sum(counts[:4]) / (4 * n_entries)
    assert stats["theta_accept_rate"] == sum(counts[4:]) / (12 * n_entries)
    assert stats["theta_accept_rate"] != sum(counts) / (16 * n_entries)


def test_sepca_layout_is_rejected():
    lay = make_layout("sepca", (2, 2), 1, ("gaussian", "gaussian"),
                      alpha=1.0)
    obs = ObservationSet(np.zeros((3, 4)), np.ones((3, 4), dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    with pytest.raises(LayoutError):
        run_gibecca(obs, lay, spec, GibeccaOptions(n_samples=2, burn_in=1))


def test_infer_hypers_requires_positive_gamma():
    lay = make_layout("epca", 2, 1, "gaussian")
    obs = ObservationSet(np.zeros((3, 2)), np.ones((3, 2), dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=1.0, a_hyper=ConjugateHyper(0.0, 1.0), gamma=0.0)
    with pytest.raises(ConfigError):
        run_gibecca(obs, lay, spec, GibeccaOptions(n_samples=2, burn_in=1,
                                                   infer_hypers=True))


@pytest.mark.parametrize("infer_hypers", [True, False])
@pytest.mark.parametrize("resid_init", [-1e6, 0.0, np.nan, np.inf])
def test_resid_init_must_be_finite_and_positive(resid_init, infer_hypers):
    """A negative resid_init used to give a chain that never accepts (or,
    with infer_hypers, one that silently ignored it); 0 divided by zero."""
    lay = make_layout("epca", 2, 1, "gaussian")
    obs = ObservationSet(np.zeros((3, 2)), np.ones((3, 2), dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    with pytest.raises(ConfigError, match="resid_init"):
        run_gibecca(obs, lay, spec, GibeccaOptions(
            n_samples=2, burn_in=1, infer_hypers=infer_hypers,
            resid_init=resid_init))


def test_runs_on_epls_and_keeps_structure():
    lay = make_layout("epls", (1, 4), (1, 2), ("bernoulli", "poisson"))
    rng = make_rng(15, 17)
    theta = 0.4 * rng.standard_normal((8, 5))
    obs = dense_observations(lay, theta, seed=152)
    spec = PriorSpec(beta=0.1, a_hyper=ConjugateHyper(0.1, 0.2))
    chain = run_gibecca(obs, lay, spec, GibeccaOptions(
        n_samples=20, burn_in=20, seed=1))
    assert chain.n_samples == 20
    assert chain.meta["engine"] == "gibecca"
    for s in chain.states:
        assert np.all(s.v[lay.zero_mask] == 0.0)
    for t in chain.thetas:
        assert t.shape == (8, 5)
    assert 0.0 < chain.stats["theta_accept_rate"] <= 1.0
    assert len(chain.stats["var_u_trace"]) == 20


def test_exponential_thetas_stay_in_domain():
    lay = make_layout("epca", 3, 1, "exponential")
    rng = make_rng(15, 18)
    x = rng.exponential(1.0, size=(6, 3))
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.2, a_hyper=ConjugateHyper(1.0, 1.0))
    chain = run_gibecca(obs, lay, spec, GibeccaOptions(
        n_samples=40, burn_in=40, seed=2))
    for t in chain.thetas:
        assert np.all(t < 0.0)


def test_init_theta_moment_matches_observed():
    lay = make_layout("ecca", (2, 2), (1, 0, 0),
                      ("poisson", "gaussian"))
    x = np.array([[3.0, 0.0, 1.5, -0.5],
                  [1.0, 2.0, 0.0, 0.3]])
    observed = np.array([[True, True, True, False],
                         [True, False, True, True]])
    obs = ObservationSet(x, observed, lay.view_widths, lay.families)
    theta = init_theta(obs, lay, make_rng(15, 19))
    assert theta[0, 0] == pytest.approx(np.log(3.5))
    assert theta[1, 0] == pytest.approx(np.log(1.5))
    assert theta[0, 2] == 1.5
    assert theta[1, 3] == 0.3


def test_scalar_poisson_posterior_matches_grid():
    """1x1 Poisson count with V pinned: the Theta-refresh target is the
    Poisson likelihood times N(0, sigma_u / gamma + resid)."""
    lay = make_layout("epca", 1, 1, "poisson")
    obs = ObservationSet(np.array([[3.0]]), np.array([[True]]),
                         lay.view_widths, lay.families)
    sigma_u, gamma, resid = 1.0, 0.5, 0.5
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.5, 1.0),
                     sigma_u=sigma_u, sigma_v=1.0, gamma=gamma)
    prior_var = sigma_u / gamma + resid

    def log_post(t):
        return (3.0 * t - np.exp(t)) - t * t / (2.0 * prior_var)

    mean_ref, _ = grid_stats(log_post, lo=-12, hi=12, n=20_000)
    chain = run_gibecca(obs, lay, spec, GibeccaOptions(
        n_samples=20_000, burn_in=2000, seed=5, infer_hypers=False,
        resid_init=resid, fix_v=np.array([[1.0]])))
    trace = np.array([t[0, 0] for t in chain.thetas])
    se = batch_means_se(trace, 50)
    assert abs(trace.mean() - mean_ref) < 3.0 * se + 1e-3
