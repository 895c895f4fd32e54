"""Composite prior: values, decomposition, gradients, spec validation."""

import numpy as np
import pytest

from expfamproj import (ConjugateHyper, FactorState, ObservationSet,
                        PriorSpec, assemble_theta, get_family,
                        log_prior_unnorm, make_layout)
from expfamproj import prior
from expfamproj.map_infer import posterior_logp_and_grad
from expfamproj.prior import PreparedDensity, gaussian_block_terms

from conftest import central_diff_grad, make_rng

LOG_2PI = np.log(2.0 * np.pi)


def _random_state(layout, rng, scale=0.5):
    u = scale * rng.standard_normal((4, layout.k_total))
    v = scale * rng.standard_normal((layout.k_total, layout.d_total))
    v[layout.zero_mask] = 0.0
    return FactorState(u, v)


# ------------------------------------------------------------------ values

def test_beta_zero_is_pure_gaussian_term():
    lay = make_layout("epca", 3, 2, "bernoulli")
    rng = make_rng(9, 1)
    state = _random_state(lay, rng)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.1, 0.2),
                     sigma_u=0.7, sigma_v=1.3, gamma=0.9)
    n = state.u.shape[0]
    expect = 0.0
    for k in range(lay.k_total):
        ssq = np.sum(state.u[:, k] ** 2)
        expect += -0.5 * n * (LOG_2PI + np.log(0.7)) - ssq / (2 * 0.7)
    for k in range(lay.k_total):
        ssq = np.sum(state.v[k] ** 2)
        d = lay.d_total
        expect += -0.5 * d * (LOG_2PI + np.log(1.3)) - ssq / (2 * 1.3)
    assert log_prior_unnorm(state, spec, lay) == pytest.approx(
        0.9 * expect, rel=1e-12)


def test_beta_one_gamma_zero_bernoulli_pinned():
    lay = make_layout("epca", 1, 1, "bernoulli")
    state = FactorState(np.zeros((1, 1)), np.zeros((1, 1)))
    spec = PriorSpec(beta=1.0, a_hyper=ConjugateHyper(0.1, 0.2), gamma=0.0)
    assert log_prior_unnorm(state, spec, lay) == pytest.approx(
        -0.2 * np.log(2.0), rel=1e-12)


def test_log_prior_decomposes_per_entry():
    """The conjugate term re-summed element by element through
    conj_log_kernel must match the vectorised path exactly."""
    lay = make_layout("epls", (2, 2), (1, 1), ("bernoulli", "poisson"))
    rng = make_rng(9, 2)
    state = _random_state(lay, rng, scale=0.4)
    spec = PriorSpec(beta=0.4, a_hyper=(ConjugateHyper(0.1, 0.2),
                                        ConjugateHyper(0.5, 1.0)),
                     sigma_u=1.1, sigma_v=0.9)
    theta = state.u @ state.v
    a_sum = 0.0
    for i, fam in enumerate(lay.families):
        hyp = spec.hyper_for_view(i)
        for j in np.arange(lay.d_total)[np.r_[lay.cols_view[i]]]:
            for r in range(theta.shape[0]):
                a_sum += float(fam.conj_log_kernel(theta[r, j], hyp))
    log_b, log_c = gaussian_block_terms(state, spec, lay)
    expect = 0.4 * a_sum + spec.gamma * (log_b + log_c)
    assert log_prior_unnorm(state, spec, lay) == pytest.approx(
        expect, rel=1e-12)


def test_masked_v_entries_carry_no_mass():
    """Structural zeros contribute neither ssq nor normalising constants."""
    lay = make_layout("epls", (1, 3), (1, 2), ("gaussian", "gaussian"))
    rng = make_rng(9, 3)
    state = _random_state(lay, rng)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_v=2.0)
    _, log_c = gaussian_block_terms(state, spec, lay)
    free = ~lay.zero_mask
    expect = 0.0
    for k in range(lay.k_total):
        nf = free[k].sum()
        ssq = np.sum(state.v[k, free[k]] ** 2)
        expect += -0.5 * nf * (LOG_2PI + np.log(2.0)) - ssq / 4.0
    assert log_c == pytest.approx(expect, rel=1e-12)


def test_domain_violation_returns_neg_inf():
    lay = make_layout("epca", 1, 1, "exponential")
    state = FactorState(np.array([[1.0]]), np.array([[1.0]]))  # theta = 1 > 0
    spec = PriorSpec(beta=0.5, a_hyper=ConjugateHyper(1.0, 1.0))
    assert log_prior_unnorm(state, spec, lay) == -np.inf
    assert posterior_logp_and_grad(state, None, lay, spec) == (
        -np.inf, None, None, None)
    # beta = 0 never evaluates the cumulant, so the same state is fine
    spec0 = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(1.0, 1.0))
    assert np.isfinite(log_prior_unnorm(state, spec0, lay))


# --------------------------------------------------------------- gradients

def test_beta_zero_gradient_closed_form():
    lay = make_layout("epca", 3, 2, "gaussian")
    rng = make_rng(9, 4)
    state = _random_state(lay, rng)
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=0.5, sigma_v=2.0, gamma=0.7)
    _, gu, gv, gm = posterior_logp_and_grad(state, None, lay, spec)
    assert np.allclose(gu, -0.7 * state.u / 0.5, atol=1e-12)
    assert np.allclose(gv, -0.7 * state.v / 2.0, atol=1e-12)
    assert gm is None


def test_gradient_zero_on_structural_zeros():
    lay = make_layout("ecca", (2, 2), (1, 1, 1), ("bernoulli", "poisson"))
    rng = make_rng(9, 5)
    state = _random_state(lay, rng, scale=0.3)
    spec = PriorSpec(beta=0.8, a_hyper=ConjugateHyper(0.1, 0.2))
    _, _, gv, _ = posterior_logp_and_grad(state, None, lay, spec)
    assert np.all(gv[lay.zero_mask] == 0.0)


def _fd_check(layout, spec, state, tol=1e-6):
    free = ~layout.zero_mask
    nu = state.u.size

    def pack(st):
        return np.concatenate([st.u.ravel(), st.v[free]])

    def unpack(x):
        u = x[:nu].reshape(state.u.shape)
        v = np.zeros_like(state.v)
        v[free] = x[nu:]
        return FactorState(u, v)

    def fun(x):
        return log_prior_unnorm(unpack(x), spec, layout)

    _, gu, gv, _ = posterior_logp_and_grad(state, None, layout, spec)
    analytic = np.concatenate([gu.ravel(), gv[free]])
    numeric = central_diff_grad(fun, pack(state), eps=1e-6)
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < tol


@pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("family", ["bernoulli", "poisson", "gaussian"])
def test_gradient_matches_finite_differences(family, beta):
    lay = make_layout("epca", 3, 2, family)
    rng = make_rng(9, 6)
    state = FactorState(0.4 * rng.standard_normal((4, 2)),
                        0.4 * rng.standard_normal((2, 3)))
    spec = PriorSpec(beta=beta, a_hyper=ConjugateHyper(0.1, 0.2),
                     sigma_u=0.8, sigma_v=1.2)
    _fd_check(lay, spec, state)


@pytest.mark.parametrize("beta", [0.4, 1.0])
def test_gradient_matches_fd_exponential(beta):
    # keep theta strictly negative: positive U rows times negative V
    lay = make_layout("epca", 3, 2, "exponential")
    rng = make_rng(9, 7)
    u = 0.2 + 0.3 * rng.random((4, 2))
    v = -(0.2 + 0.3 * rng.random((2, 3)))
    spec = PriorSpec(beta=beta, a_hyper=ConjugateHyper(1.0, 1.0))
    _fd_check(lay, spec, FactorState(u, v))


def test_gradient_fd_with_zero_blocks_and_mean_row():
    lay = make_layout("epls", (1, 2), (1, 1), ("bernoulli", "bernoulli"),
                      use_mean_row=True)
    rng = make_rng(9, 8)
    state = _random_state(lay, rng, scale=0.3)
    state = FactorState(state.u, state.v,
                        mean_row=0.1 * rng.standard_normal(lay.d_total))
    spec = PriorSpec(beta=0.6, a_hyper=ConjugateHyper(0.1, 0.2))
    free = ~lay.zero_mask
    nu_, nv_ = state.u.size, int(free.sum())

    def fun(x):
        u = x[:nu_].reshape(state.u.shape)
        v = np.zeros_like(state.v)
        v[free] = x[nu_:nu_ + nv_]
        m = x[nu_ + nv_:]
        return log_prior_unnorm(FactorState(u, v, m), spec, lay)

    _, gu, gv, gm = posterior_logp_and_grad(state, None, lay, spec)
    x0 = np.concatenate([state.u.ravel(), state.v[free], state.mean_row])
    numeric = central_diff_grad(fun, x0)
    analytic = np.concatenate([gu.ravel(), gv[free], gm])
    assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("beta", [0.0, 0.4])
def test_posterior_without_data_is_the_prior(beta):
    """With every entry unobserved the posterior density is the prior
    density, value and gradients, to the last bit."""
    lay = make_layout("epls", (2, 3), (1, 1), ("bernoulli", "poisson"),
                      use_mean_row=True)
    rng = make_rng(9, 9)
    state = _random_state(lay, rng, scale=0.4)
    state = FactorState(state.u, state.v,
                        mean_row=0.1 * rng.standard_normal(lay.d_total))
    x = rng.integers(0, 2, (4, lay.d_total)).astype(float)
    none_seen = ObservationSet(x, np.zeros(x.shape, dtype=bool),
                               lay.view_widths, lay.families)
    spec = PriorSpec(beta=beta, a_hyper=(ConjugateHyper(0.1, 0.2),
                                         ConjugateHyper(0.5, 1.0)),
                     sigma_u=0.8, sigma_v=1.2)
    prior = posterior_logp_and_grad(state, None, lay, spec)
    posterior = posterior_logp_and_grad(state, none_seen, lay, spec)
    assert posterior[0] == prior[0] == log_prior_unnorm(state, spec, lay)
    for got, want in zip(posterior[1:], prior[1:]):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("beta", [0.0, 0.1])
@pytest.mark.parametrize("families, alpha", [
    (("bernoulli", "poisson"), (1.0, 0.3)),
    (("gaussian", "exponential"), (1.0, 2.5)),
])
def test_prepared_kernel_gives_the_same_density(families, alpha, beta):
    """A PreparedDensity built once and reused across states scores value
    and gradients to the last bit as posterior_logp_and_grad building
    its own on every call, at alpha != 1."""
    lay = make_layout("sepca", (3, 4), 2, families, alpha=alpha,
                      use_mean_row=True)
    rng = make_rng(9, 10)
    # the mean row keeps the exponential view's Theta negative
    mean = np.where(np.arange(lay.d_total) < 3, 0.1, -2.0)
    states = [FactorState(0.3 * rng.standard_normal((5, lay.k_total)),
                          0.3 * rng.standard_normal((lay.k_total,
                                                     lay.d_total)), mean)
              for _ in range(2)]
    theta = assemble_theta(states[0], lay)
    x = np.empty_like(theta)
    for fam, cols in zip(lay.families, lay.cols_view):
        x[:, cols] = fam.sample(theta[:, cols], rng)
    obs = ObservationSet(x, rng.random(x.shape) < 0.6, lay.view_widths,
                         lay.families)
    spec = PriorSpec(beta=beta, a_hyper=(ConjugateHyper(0.5, 1.0),
                                         ConjugateHyper(0.2, 1.5)),
                     sigma_u=0.8, sigma_v=1.2)
    density = PreparedDensity(spec, lay, obs, 5)
    for state in states:
        for want_grad in (True, False):
            plain = posterior_logp_and_grad(state, obs, lay, spec, want_grad)
            prepared = density(state, want_grad)
            assert np.isfinite(plain[0])
            assert prepared[0] == plain[0]
            for got, want in zip(prepared[1:], plain[1:]):
                assert (got is None) == (want is None) == (not want_grad)
                assert want is None or np.array_equal(got, want)


def _reference_density(state, obs, lay, spec):
    """The log posterior with its gradients computed from scratch: each
    view's _g, _gprime and _h on its columns, the Gaussian blocks from the
    spec, in PreparedDensity's order of operations.  An entry scores the
    conjugate kernel a t - b g(t) + c with a = alpha [obs] x + beta lam,
    b = alpha [obs] + beta nu and c = alpha [obs] h(x); one with b = 0
    scores 0."""
    theta = state.u @ state.v
    if lay.use_mean_row:
        theta = theta + state.mean_row
    vals, w = np.empty_like(theta), np.empty_like(theta)
    for i, (fam, cols) in enumerate(zip(lay.families, lay.cols_view)):
        t, x, m = theta[:, cols], obs.x[:, cols], obs.observed[:, cols]
        hyp, alpha = spec.hyper_for_view(i), lay.alpha[i]
        a = np.where(m, x, 0.0) * alpha + spec.beta * hyp.lam
        b = np.where(m, alpha + spec.beta * hyp.nu, spec.beta * hyp.nu)
        c = np.where(m, fam._h(x), 0.0) * alpha
        off = b == 0
        g = np.where(off, 0.0, fam._g(t))
        mu = np.where(off, 0.0, fam._gprime(t))
        val = a * np.where(off, 0.0, t) - b * g
        vals[:, cols] = val + c if np.any(c) else val
        w[:, cols] = a - b * mu
    logp = float(np.sum(vals))
    gu, gv = w @ state.v.T, state.u.T @ w
    gm = w.sum(axis=0) if lay.use_mean_row else None
    if spec.gamma > 0:
        free = ~lay.zero_mask
        su, sv = spec.sigmas(lay)
        blocks = 0.0
        for n, ssq, s in (
                (np.full(lay.k_total, state.u.shape[0]),
                 np.sum(state.u * state.u, axis=0), su),
                (free.sum(axis=1),
                 np.sum(np.where(free, state.v, 0.0) ** 2, axis=1), sv)):
            blocks += float(np.sum(-0.5 * n * (LOG_2PI + np.log(s))
                                   - 0.5 * ssq / s))
        logp += spec.gamma * blocks
        gu = gu - spec.gamma * state.u / su
        gv = gv - spec.gamma * state.v / sv[:, None]
    gv[lay.zero_mask] = 0.0
    return logp, gu, gv, gm


def _assert_same_density(got, want):
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert (g is None) == (w is None)
        assert w is None or np.array_equal(g, w)


@pytest.mark.parametrize("beta, gamma", [(0.0, None), (0.1, None),
                                         (1.0, 0.0)])
@pytest.mark.parametrize("kind, families, ranks", [
    ("epls", ("poisson", "bernoulli"), (1, 2)),
    ("sepca", ("gaussian", "exponential"), 2),
])
def test_prepared_density_matches_the_reference(kind, families, ranks, beta,
                                                gamma, monkeypatch):
    """A PreparedDensity scores value and gradients to the last bit as
    the from-scratch reference and as posterior_logp_and_grad without a
    kernel, and a gradient asked at the point its value call just scored
    forms no new Theta."""
    lay = make_layout(kind, (3, 4), ranks, families, use_mean_row=True)
    rng = make_rng(9, 11)
    # the mean row keeps an exponential view's Theta negative
    mean = np.where(np.arange(lay.d_total) < 3, 0.1, -2.0)
    states = []
    for _ in range(3):
        v = 0.3 * rng.standard_normal((lay.k_total, lay.d_total))
        v[lay.zero_mask] = 0.0
        states.append(FactorState(0.3 * rng.standard_normal(
            (5, lay.k_total)), v, mean))
    theta = assemble_theta(states[0], lay)
    x = np.empty_like(theta)
    for fam, cols in zip(lay.families, lay.cols_view):
        x[:, cols] = fam.sample(theta[:, cols], rng)
    obs = ObservationSet(x, rng.random(x.shape) < 0.6, lay.view_widths,
                         lay.families)
    spec = PriorSpec(beta=beta, a_hyper=(ConjugateHyper(0.5, 1.0),
                                         ConjugateHyper(0.2, 1.5)),
                     sigma_u=0.8, sigma_v=(1.2, 0.7, 2.0)[:lay.k_total],
                     gamma=gamma)
    formed = []
    assemble = prior.assemble_theta

    def counted(state, layout):
        formed.append(state)
        return assemble(state, layout)

    monkeypatch.setattr(prior, "assemble_theta", counted)
    prepared = PreparedDensity(spec, lay, obs, 5)
    for state in states:
        want = _reference_density(state, obs, lay, spec)
        assert np.isfinite(want[0])
        del formed[:]
        _assert_same_density(prepared(state, want_grad=False),
                             (want[0], None, None, None))
        _assert_same_density(prepared(state, want_grad=True), want)
        assert len(formed) == 1
        _assert_same_density(prepared(state, want_grad=True), want)
        assert len(formed) == 2
        for want_grad in (False, True):
            _assert_same_density(
                posterior_logp_and_grad(state, obs, lay, spec, want_grad),
                want if want_grad else (want[0], None, None, None))


# -------------------------------------------------------------------- spec

def test_prior_spec_validation():
    with pytest.raises(ValueError):
        PriorSpec(beta=-0.1, a_hyper=ConjugateHyper(0.1, 0.2))
    with pytest.raises(ValueError):
        PriorSpec(beta=1.2, a_hyper=ConjugateHyper(0.1, 0.2))
    with pytest.raises(ValueError):
        PriorSpec(beta=0.5, a_hyper=ConjugateHyper(0.1, 0.2), sigma_u=0.0)
    with pytest.raises(ValueError):
        PriorSpec(beta=0.5, a_hyper=ConjugateHyper(0.1, 0.2), gamma=-0.2)
    # a NaN gamma would switch the Gaussian factor prior off, and an
    # infinite gamma or variance start every fit outside the domain
    for bad in ({"gamma": np.nan}, {"gamma": np.inf}, {"sigma_u": np.inf},
                {"sigma_v": np.nan}, {"sigma_v": [1.0, np.inf]}):
        with pytest.raises(ValueError):
            PriorSpec(beta=0.5, a_hyper=ConjugateHyper(0.1, 0.2), **bad)


def test_gamma_defaults_to_one_minus_beta():
    spec = PriorSpec(beta=0.3, a_hyper=ConjugateHyper(0.1, 0.2))
    assert spec.gamma == pytest.approx(0.7, rel=1e-15)
    explicit = PriorSpec(beta=0.3, a_hyper=ConjugateHyper(0.1, 0.2),
                         gamma=0.0)
    assert explicit.gamma == 0.0


def test_single_hyper_broadcasts_to_views():
    spec = PriorSpec(beta=0.5, a_hyper=ConjugateHyper(0.1, 0.2))
    assert spec.hyper_for_view(0) == spec.hyper_for_view(1)
    two = PriorSpec(beta=0.5, a_hyper=(ConjugateHyper(0.1, 0.2),
                                       ConjugateHyper(0.5, 1.0)))
    assert two.hyper_for_view(1).lam == 0.5


def test_validate_for_counts_and_family_rules():
    lay = make_layout("epls", (1, 2), (1, 1), ("bernoulli", "gaussian"))
    three = PriorSpec(beta=0.5, a_hyper=(ConjugateHyper(0.1, 0.2),) * 3)
    with pytest.raises(ValueError):
        three.validate_for(lay)
    # bernoulli view rejects lam >= nu when beta > 0
    bad = PriorSpec(beta=0.5, a_hyper=ConjugateHyper(1.0, 1.0))
    with pytest.raises(ValueError):
        bad.validate_for(lay)
    # but the same hyper passes at beta = 0 where a is never evaluated
    PriorSpec(beta=0.0, a_hyper=ConjugateHyper(1.0, 1.0)).validate_for(lay)


def test_sigmas_broadcast_per_component():
    lay = make_layout("epca", 3, 3, "gaussian")
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=2.0, sigma_v=(1.0, 2.0, 3.0))
    su, sv = spec.sigmas(lay)
    assert su.tolist() == [2.0, 2.0, 2.0]
    assert sv.tolist() == [1.0, 2.0, 3.0]


def test_replace_returns_new_frozen_spec():
    spec = PriorSpec(beta=0.2, a_hyper=ConjugateHyper(0.1, 0.2))
    other = spec.replace(sigma_u=5.0)
    assert other.sigma_u == 5.0 and spec.sigma_u == 1.0
    with pytest.raises(Exception):
        spec.beta = 0.9
