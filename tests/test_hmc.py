"""HMC transitions, exchange hyperparameter moves, and full chains."""

import warnings

import numpy as np
import pytest
from scipy import stats

from expfamproj import (ChainError, ConfigError, ConjugateHyper,
                        ExchangeOptions, FactorState, HmcOptions,
                        ObservationSet, PriorSpec, exchange_update_hyper,
                        hmc_step, make_layout, run_hmc_chain,
                        sample_prior_approx)
from expfamproj.hmc_infer import _leapfrog
from expfamproj.model import assemble_theta
from expfamproj.prior import gaussian_block_terms

from conftest import batch_means_se, dense_observations, grid_stats, make_rng


# -------------------------------------------------------------- transitions

def test_zero_step_size_leaves_state_unchanged():
    lay = make_layout("epca", 2, 1, "gaussian")
    obs = dense_observations(lay, np.zeros((3, 2)), seed=140)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    rng = make_rng(14, 1)
    state = FactorState(0.1 * rng.standard_normal((3, 1)),
                        0.1 * rng.standard_normal((1, 2)))
    new, accepted = hmc_step(state, obs, lay, spec, 0.0, 5, make_rng(14, 2))
    assert accepted
    assert np.array_equal(new.u, state.u)
    assert np.array_equal(new.v, state.v)


def test_leapfrog_is_time_reversible():
    """Integrate forward, flip the momentum, integrate back: the original
    phase-space point must reappear to integrator precision."""
    def fn(x):
        return -0.5 * float(x @ x), -x

    rng = make_rng(14, 3)
    x0 = rng.standard_normal(6)
    p0 = rng.standard_normal(6)
    _, g0 = fn(x0)
    x1, p1, _, _ = _leapfrog(x0, p0, g0, fn, 0.1, 25)
    _, g1 = fn(x1)
    x2, p2, _, _ = _leapfrog(x1, -p1, g1, fn, 0.1, 25)
    assert np.allclose(x2, x0, atol=1e-8)
    assert np.allclose(-p2, p0, atol=1e-8)


def test_leapfrog_energy_drift_is_small():
    def fn(x):
        return -0.5 * float(x @ x), -x

    rng = make_rng(14, 4)
    x = rng.standard_normal(4)
    p = rng.standard_normal(4)
    logp0, g = fn(x)
    h0 = -logp0 + 0.5 * float(p @ p)
    x1, p1, logp1, _ = _leapfrog(x, p, g, fn, 0.01, 200)
    h1 = -logp1 + 0.5 * float(p1 @ p1)
    assert abs(h1 - h0) < 1e-3


def test_leapfrog_aborts_on_nonfinite():
    def fn(x):
        if np.any(np.abs(x) > 2.0):
            return -np.inf, None
        return -0.5 * float(x @ x), -x

    x0 = np.array([1.9])
    _, g = fn(x0)
    assert _leapfrog(x0, np.array([50.0]), g, fn, 0.1, 5) is None


def test_hmc_step_refuses_infeasible_start():
    lay = make_layout("epca", 1, 1, "exponential")
    obs = ObservationSet(np.array([[1.0]]), np.array([[True]]),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=0.5, a_hyper=ConjugateHyper(1.0, 1.0))
    bad = FactorState(np.array([[1.0]]), np.array([[1.0]]))  # theta = +1
    with pytest.raises(ValueError):
        hmc_step(bad, obs, lay, spec, 0.1, 5, make_rng(14, 5))


# ------------------------------------------------------------- grid oracle

def test_scalar_bernoulli_posterior_matches_grid():
    """1x1 Bernoulli with V pinned to 1: theta = u is scalar, so the chain
    mean can be checked against deterministic quadrature."""
    lay = make_layout("epca", 1, 1, "bernoulli")
    obs = ObservationSet(np.array([[1.0]]), np.array([[True]]),
                         lay.view_widths, lay.families)
    beta, lam, nu, sigma_u, gamma = 0.4, 0.1, 0.2, 1.0, 0.6
    spec = PriorSpec(beta=beta, a_hyper=ConjugateHyper(lam, nu),
                     sigma_u=sigma_u, sigma_v=1.0, gamma=gamma)

    def log_post(t):
        ll = t - np.logaddexp(0.0, t)
        conj = beta * (lam * t - nu * np.logaddexp(0.0, t))
        return ll + conj - gamma * t * t / (2.0 * sigma_u)

    mean_ref, _ = grid_stats(log_post, lo=-12, hi=12, n=20_000)

    chain = run_hmc_chain(obs, lay, spec, HmcOptions(
        n_samples=4000, burn_in=500, step_size=0.5, n_leapfrog=10,
        seed=11, fix_v=np.array([[1.0]])))
    trace = np.array([s.u[0, 0] for s in chain.states])
    se = batch_means_se(trace, 40)
    assert abs(trace.mean() - mean_ref) < 3.0 * se + 1e-3


# ---------------------------------------------------------------- exchange

def test_exchange_identity_proposal_always_accepts():
    """With prop_scale = 0 the proposal equals the current spec, so the
    acceptance ratio is exactly zero in log space: every un-flagged move
    must accept."""
    lay = make_layout("epca", 2, 2, "gaussian")
    rng = make_rng(14, 6)
    state = FactorState(rng.standard_normal((4, 2)),
                        rng.standard_normal((2, 2)))
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    opts = ExchangeOptions(inner_sweeps=20, prop_scale=0.0)
    for _ in range(50):
        new, info = exchange_update_hyper(spec, state, lay, "sigma_u", rng,
                                          opts)
        assert info["accepted"] or info["flagged"]
        if info["accepted"]:
            assert new.sigma_u == spec.sigma_u


def test_exchange_frozen_state_targets_inverse_gamma():
    """Holding the factor state fixed and updating only sigma_u, the
    exchange chain's invariant law is the closed-form conditional
    IG(N K / 2, ssq / 2) under the flat-in-log hyperprior.  The sampled
    mean must match the analytic mean within Monte Carlo error."""
    lay = make_layout("epca", 2, 2, "gaussian")
    rng = make_rng(14, 7)
    u0 = 0.6 * rng.standard_normal((5, 2))
    state = FactorState(u0, rng.standard_normal((2, 2)))
    ssq = float(np.sum(u0 * u0))
    shape = 5.0  # N K / 2
    exact_mean = (ssq / 2.0) / (shape - 1.0)

    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    opts = ExchangeOptions(inner_sweeps=8, prop_scale=0.5)
    draws = np.empty(20_000)
    for i in range(draws.size):
        spec, _ = exchange_update_hyper(spec, state, lay, "sigma_u", rng,
                                        opts)
        draws[i] = spec.sigma_u
    se = batch_means_se(draws, 50)
    assert abs(draws.mean() - exact_mean) < 3.0 * se
    # distribution check on a tail probability
    q25 = stats.invgamma(shape, scale=ssq / 2.0).ppf(0.25)
    frac = float(np.mean(draws < q25))
    assert abs(frac - 0.25) < 0.03


def test_exchange_rejects_invalid_conjugate_proposal():
    """A conj proposal that violates the Bernoulli constraint must be
    rejected outright (returned spec unchanged, accepted False)."""
    lay = make_layout("epca", 2, 1, "bernoulli")
    state = FactorState(np.zeros((3, 1)), np.zeros((1, 2)))
    # lam just below nu: a large upward lam step breaks 0 < lam < nu often
    spec = PriorSpec(beta=0.5, a_hyper=ConjugateHyper(0.49, 0.5))
    rng = make_rng(14, 8)
    rejected_any = False
    for _ in range(40):
        new, info = exchange_update_hyper(
            spec, state, lay, "conj:0", rng,
            ExchangeOptions(inner_sweeps=5, prop_scale=1.0))
        if not info["accepted"] and not info["flagged"]:
            rejected_any = True
        if info["accepted"]:
            h = new.hyper_for_view(0)
            assert 0.0 < h.lam < h.nu
    assert rejected_any


def test_sample_prior_approx_beta_zero_is_exact_gaussian():
    lay = make_layout("epca", 2, 1, "gaussian")
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=2.0, sigma_v=0.5)
    rng = make_rng(14, 9)
    opts = ExchangeOptions(inner_sweeps=40)
    us, flags = [], 0
    for _ in range(400):
        st, flagged = sample_prior_approx(spec, lay, 3, rng, opts)
        us.append(st.u.ravel())
        flags += flagged
    u = np.concatenate(us)
    assert flags <= 10
    assert abs(u.mean()) < 0.1
    assert u.var() == pytest.approx(2.0, abs=0.25)


def test_sample_prior_approx_needs_positive_gamma():
    lay = make_layout("epca", 2, 1, "gaussian")
    spec = PriorSpec(beta=1.0, a_hyper=ConjugateHyper(0.0, 1.0), gamma=0.0)
    with pytest.raises(ConfigError):
        sample_prior_approx(spec, lay, 3, make_rng(14, 10))


def test_sample_prior_approx_respects_zero_mask():
    lay = make_layout("epls", (1, 3), (1, 2), ("gaussian", "gaussian"))
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    st, _ = sample_prior_approx(spec, lay, 4, make_rng(14, 11),
                                ExchangeOptions(inner_sweeps=3))
    assert np.all(st.v[lay.zero_mask] == 0.0)


def _sample_prior_per_sweep(spec, layout, n_rows, rng, opts, mean_row=None):
    """The inner prior chain one sweep at a time: one candidate, one kernel
    call and one Gaussian-terms call per sweep (the loop that
    sample_prior_approx scores in chunks)."""
    su, sv = spec.sigmas(layout)
    sd_u = np.sqrt(su / spec.gamma)
    sd_v = np.sqrt(sv / spec.gamma)
    k, d = layout.k_total, layout.d_total
    kernel = spec.entry_terms(layout)

    def draw():
        u = sd_u * rng.standard_normal((n_rows, k))
        v = sd_v[:, None] * rng.standard_normal((k, d))
        v[layout.zero_mask] = 0.0
        state = FactorState(u, v, mean_row)
        return state, kernel.value(assemble_theta(state, layout))

    state, conj = draw()
    for _ in range(50):
        if np.isfinite(conj):
            break
        state, conj = draw()
    else:
        return state, True

    trace = np.empty(opts.inner_sweeps)
    n_accept = 0
    for s in range(opts.inner_sweeps):
        cand, conj_c = draw()
        if np.log(rng.random()) < conj_c - conj:
            state, conj = cand, conj_c
            n_accept += 1
        log_b, log_c = gaussian_block_terms(state, spec, layout)
        trace[s] = conj + spec.gamma * (log_b + log_c)

    half = opts.inner_sweeps // 2
    first, second = trace[:half], trace[half:]
    se = np.sqrt(first.var() / max(len(first), 1)
                 + second.var() / max(len(second), 1))
    flagged = (n_accept == 0) or \
        (abs(first.mean() - second.mean()) > 3.0 * se + 1e-12)
    return state, flagged


_HYPERS = {"poisson": ConjugateHyper(1.0, 1.0),
           "bernoulli": ConjugateHyper(0.5, 1.0),
           "exponential": ConjugateHyper(1.0, 1.0)}


@pytest.mark.parametrize("layout_args, beta, sigma, mean, n_rows, sweeps", [
    # 50 x 40: chunks of 32 sweeps, the last one partial
    (("ecca", (20, 20), (2, 1, 2), "poisson"), 0.1, 1.0, None, 50, 200),
    (("ecca", (20, 20), (2, 1, 2), "poisson"), 0.0, 1.0, None, 50, 40),
    # 300 x 40: chunks of 5 sweeps
    (("epca", 40, 3, "bernoulli"), 0.1, 1.0, None, 300, 7),
    (("epca", 40, 3, "bernoulli"), 0.0, 1.0, None, 1, 3),
    # a mean row keeps most, not all, candidates inside the exponential
    # domain: chunks of 46 sweeps, about a quarter of them scored -inf
    (("epls", (3, 4), (1, 1), "exponential"), 0.1, 0.4, -3.0, 200, 60),
    # no in-domain start in 51 draws: flagged before any sweep
    (("epca", 4, 2, "exponential"), 0.1, 1.0, None, 5, 20),
    # 1700 x 40 Theta entries exceed one chunk's budget: one sweep each
    (("epca", 40, 3, "poisson"), 0.1, 1.0, None, 1700, 3),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_sample_prior_approx_matches_per_sweep_chain(layout_args, beta, sigma,
                                                     mean, n_rows, sweeps,
                                                     seed):
    """Chunked scoring draws the same random numbers in the same order
    and makes the same decisions: the same bytes, flag and RNG state."""
    lay = make_layout(*layout_args, use_mean_row=mean is not None)
    spec = PriorSpec(beta=beta, a_hyper=_HYPERS[layout_args[3]],
                     sigma_u=sigma, sigma_v=sigma)
    mean_row = None if mean is None else np.full(lay.d_total, mean)
    opts = ExchangeOptions(inner_sweeps=sweeps)

    ref_rng, rng = make_rng(14, 20, seed), make_rng(14, 20, seed)
    ref, ref_flag = _sample_prior_per_sweep(spec, lay, n_rows, ref_rng, opts,
                                            mean_row)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, flag = sample_prior_approx(spec, lay, n_rows, rng, opts,
                                        mean_row)
    assert out.u.tobytes() == ref.u.tobytes()
    assert out.v.tobytes() == ref.v.tobytes()
    assert out.mean_row is mean_row
    assert flag == ref_flag
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ------------------------------------------------------------- full chains

def test_chain_error_on_oversized_step():
    lay = make_layout("epca", 3, 1, "gaussian")
    rng = make_rng(14, 12)
    theta = rng.standard_normal((6, 3))
    obs = dense_observations(lay, theta, seed=141)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    with pytest.raises(ChainError):
        run_hmc_chain(obs, lay, spec, HmcOptions(
            n_samples=40, burn_in=5, step_size=1e6, seed=0))


def test_adaptation_grows_a_tiny_step():
    lay = make_layout("epca", 2, 1, "gaussian")
    rng = make_rng(14, 13)
    theta = rng.standard_normal((4, 2))
    obs = dense_observations(lay, theta, seed=142)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    chain = run_hmc_chain(obs, lay, spec, HmcOptions(
        n_samples=10, burn_in=300, step_size=1e-4, seed=2))
    assert chain.stats["step_size_final"] > 5e-4
    assert chain.stats["accept_rate_burnin"] > 0.5


def test_infer_hyper_records_spec_trace():
    lay = make_layout("epca", 3, 1, "gaussian")
    rng = make_rng(14, 14)
    v0 = rng.standard_normal((1, 3))
    theta = 0.8 * rng.standard_normal((8, 1)) @ v0
    obs = dense_observations(lay, theta, seed=143)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    chain = run_hmc_chain(obs, lay, spec, HmcOptions(
        n_samples=60, burn_in=60, step_size=0.1, infer_hyper=True, seed=3,
        fix_v=v0, exchange=ExchangeOptions(inner_sweeps=10)))
    assert chain.hypers is not None and len(chain.hypers) == 60
    ex = chain.stats["exchange"]
    assert ex["proposed"] == 120
    assert 0 < ex["accepted"] <= ex["proposed"]
    sus = {float(np.asarray(h.sigma_u).ravel()[0]) for h in chain.hypers}
    assert len(sus) > 1  # the hyperparameter actually moved


def test_infer_hyper_needs_positive_gamma():
    lay = make_layout("epca", 2, 1, "bernoulli")
    obs = ObservationSet(np.ones((3, 2)), np.ones((3, 2), dtype=bool),
                         lay.view_widths, lay.families)
    spec = PriorSpec(beta=1.0, a_hyper=ConjugateHyper(0.1, 0.2), gamma=0.0)
    with pytest.raises(ConfigError):
        run_hmc_chain(obs, lay, spec, HmcOptions(n_samples=5, burn_in=5,
                                                 infer_hyper=True))


def test_thinning_keeps_every_kth_sweep():
    lay = make_layout("epca", 2, 1, "gaussian")
    rng = make_rng(14, 15)
    theta = rng.standard_normal((3, 2))
    obs = dense_observations(lay, theta, seed=144)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    chain = run_hmc_chain(obs, lay, spec, HmcOptions(
        n_samples=15, burn_in=20, thin=3, step_size=0.2, seed=5))
    assert chain.n_samples == 15
    assert chain.meta["thin"] == 3


def test_fix_v_pins_loadings_every_sample():
    lay = make_layout("epca", 2, 1, "gaussian")
    rng = make_rng(14, 16)
    theta = rng.standard_normal((4, 2))
    obs = dense_observations(lay, theta, seed=145)
    v0 = np.array([[0.7, -1.2]])
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0))
    chain = run_hmc_chain(obs, lay, spec, HmcOptions(
        n_samples=25, burn_in=25, step_size=0.3, seed=6, fix_v=v0))
    for s in chain.states:
        assert np.array_equal(s.v, v0)
