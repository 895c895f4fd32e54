"""Family-level checks: cumulants, densities, conjugate kernels, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from expfamproj import (BERNOULLI, EXPONENTIAL, FAMILIES, GAUSSIAN_UNIT,
                        POISSON, ConjugateHyper, DomainError, SupportError,
                        get_family)

from conftest import grid_stats, make_rng

LOG2 = np.log(2.0)


# ---------------------------------------------------------------- cumulants

def test_bernoulli_cumulant_at_zero():
    assert BERNOULLI._g(0.0) == pytest.approx(LOG2, rel=1e-12)


def test_poisson_cumulant_at_zero():
    assert POISSON._g(0.0) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_cumulant_is_half_square():
    assert GAUSSIAN_UNIT._g(2.0) == pytest.approx(2.0, rel=1e-12)


def test_exponential_cumulant_is_neg_log_rate():
    assert EXPONENTIAL._g(-3.0) == pytest.approx(-np.log(3.0), rel=1e-12)


def test_bernoulli_mean_is_sigmoid():
    assert BERNOULLI._gprime(0.0) == pytest.approx(0.5, rel=1e-12)
    assert BERNOULLI._gprime(2.0) == pytest.approx(special.expit(2.0),
                                                   rel=1e-12)


def test_poisson_mean_is_exp():
    assert POISSON._gprime(np.log(3.0)) == pytest.approx(3.0, rel=1e-12)


def test_gaussian_mean_is_identity():
    assert GAUSSIAN_UNIT._gprime(-1.7) == pytest.approx(-1.7, rel=1e-12)


def test_exponential_mean_is_neg_reciprocal():
    assert EXPONENTIAL._gprime(-4.0) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("name, thetas", [
    ("bernoulli", (-30.0, -8.0, -1.0, 0.0, 0.5, 8.0)),
    ("poisson", (-5.0, 0.0, 2.0, 7.5, 10.0)),
    ("gaussian", (-3.0, 0.0, 4.0)),
    ("exponential", (-20.0, -1.0, -0.1, -1e-2, -1e-3)),
])
def test_second_derivative_matches_difference_of_mean(name, thetas):
    """g''(theta) against a central difference of g'(theta), pointwise
    and on an array."""
    fam = get_family(name)
    thetas = np.array(thetas)
    eps = 1e-6 * np.minimum(1.0, np.abs(thetas)) if name == "exponential" \
        else 1e-6 * np.maximum(1.0, np.abs(thetas))
    fd = (fam._gprime(thetas + eps) - fam._gprime(thetas - eps)) / (2 * eps)
    assert np.allclose(fam._gsecond(thetas), fd, rtol=1e-6, atol=0.0)
    for t, want in zip(thetas, fd):
        assert fam._gsecond(t) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("name, thetas", [
    ("bernoulli", (-30.0, -1.0, 0.0, 8.0)),
    ("poisson", (-5.0, 0.0, 2.0, 800.0)),
    ("gaussian", (-3.0, 0.0, 4.0)),
    ("exponential", (-20.0, -1.0, -1e-3)),
])
def test_gprime_at_is_gprime_bit_for_bit(name, thetas):
    """_gprime_at, given g(theta), gives _gprime to the last bit, on an
    array and on a scalar."""
    fam = get_family(name)
    for theta in (np.array(thetas), thetas[0]):
        assert np.array_equal(fam._gprime_at(theta, fam._g(theta)),
                              fam._gprime(theta))


@pytest.mark.parametrize("name, thetas", [
    ("bernoulli", (-30.0, -1.0, 0.0, 8.0)),
    ("poisson", (-5.0, 0.0, 2.0, 800.0)),
    ("gaussian", (-3.0, 0.0, 4.0)),
    ("exponential", (-20.0, -1.0, -1e-3)),
])
def test_gsecond_at_is_gsecond_bit_for_bit(name, thetas):
    """_gsecond_at, given g(theta), gives _gsecond to the last bit."""
    fam = get_family(name)
    for theta in (np.array(thetas), thetas[0]):
        assert np.array_equal(fam._gsecond_at(theta, fam._g(theta)),
                              fam._gsecond(theta))


# ---------------------------------------------------------------- densities

def test_bernoulli_log_pdf_values():
    assert BERNOULLI.log_pdf(1.0, 0.0) == pytest.approx(-LOG2, rel=1e-12)
    assert BERNOULLI.log_pdf(0.0, 0.0) == pytest.approx(-LOG2, rel=1e-12)


def test_poisson_log_pdf_value():
    # x=2, theta=0: 2*0 - log(2!) - e^0
    assert POISSON.log_pdf(2.0, 0.0) == pytest.approx(-LOG2 - 1.0, rel=1e-12)


def test_gaussian_log_pdf_is_standard_normal():
    assert GAUSSIAN_UNIT.log_pdf(0.0, 0.0) == pytest.approx(
        stats.norm.logpdf(0.0), rel=1e-12)
    assert GAUSSIAN_UNIT.log_pdf(1.3, -0.4) == pytest.approx(
        stats.norm.logpdf(1.3, loc=-0.4), rel=1e-12)


def test_exponential_log_pdf_matches_scipy():
    # theta = -rate
    assert EXPONENTIAL.log_pdf(2.0, -1.5) == pytest.approx(
        stats.expon.logpdf(2.0, scale=1.0 / 1.5), rel=1e-12)


def test_log_pdf_normalizes_bernoulli():
    theta = 0.37
    total = np.exp(BERNOULLI.log_pdf(0.0, theta)) \
        + np.exp(BERNOULLI.log_pdf(1.0, theta))
    assert total == pytest.approx(1.0, rel=1e-12)


def test_log_pdf_normalizes_poisson():
    theta = 0.8
    xs = np.arange(60.0)
    total = np.exp(POISSON.log_pdf(xs, np.full_like(xs, theta))).sum()
    assert total == pytest.approx(1.0, rel=1e-10)


def test_log_pdf_rejects_out_of_support():
    with pytest.raises(SupportError):
        BERNOULLI.log_pdf(0.5, 0.0)
    with pytest.raises(SupportError):
        POISSON.log_pdf(-1.0, 0.0)
    with pytest.raises(SupportError):
        EXPONENTIAL.log_pdf(-0.1, -1.0)


def test_log_pdf_rejects_out_of_domain():
    with pytest.raises(DomainError):
        EXPONENTIAL.log_pdf(1.0, 0.0)
    with pytest.raises(DomainError):
        EXPONENTIAL.log_pdf(1.0, 0.5)


# ---------------------------------------------------------------- domains

def test_in_domain_shapes_and_values():
    assert BERNOULLI.in_domain(-1000.0)
    assert GAUSSIAN_UNIT.in_domain(0.0)
    assert POISSON.in_domain(50.0)
    assert not EXPONENTIAL.in_domain(0.0)
    assert not EXPONENTIAL.in_domain(1e-9)
    assert EXPONENTIAL.in_domain(-1e-9)
    got = EXPONENTIAL.in_domain(np.array([-1.0, 0.0, 2.0]))
    assert got.tolist() == [True, False, False]


def test_in_support_values():
    assert BERNOULLI.in_support(1.0) and BERNOULLI.in_support(0.0)
    assert not BERNOULLI.in_support(2.0)
    assert POISSON.in_support(7.0) and not POISSON.in_support(2.5)
    assert EXPONENTIAL.in_support(0.0) and not EXPONENTIAL.in_support(-0.1)
    assert GAUSSIAN_UNIT.in_support(-123.4)


# ------------------------------------------------------- conjugate kernels

def test_conj_kernel_bernoulli_pinned():
    # lam*theta - nu*g(theta) at theta=0 is -nu*log 2
    hyp = ConjugateHyper(0.1, 0.2)
    assert BERNOULLI.conj_log_kernel(0.0, hyp) == pytest.approx(
        -0.2 * LOG2, rel=1e-12)


def test_conj_kernel_poisson_pinned():
    hyp = ConjugateHyper(1.0, 1.0)
    assert POISSON.conj_log_kernel(0.0, hyp) == pytest.approx(-1.0, rel=1e-12)


def test_conj_kernel_linear_in_hyper():
    hyp1 = ConjugateHyper(0.3, 0.7)
    hyp2 = ConjugateHyper(0.6, 1.4)
    t = 0.9
    assert GAUSSIAN_UNIT.conj_log_kernel(t, hyp2) == pytest.approx(
        2.0 * GAUSSIAN_UNIT.conj_log_kernel(t, hyp1), rel=1e-12)


def test_conj_kernel_exponential_domain_guard():
    hyp = ConjugateHyper(1.0, 1.0)
    with pytest.raises(DomainError):
        EXPONENTIAL.conj_log_kernel(0.5, hyp)


def test_bernoulli_conj_posterior_matches_beta():
    """Grid posterior mean under prior exp(lam*t - nu*g(t)) and n Bernoulli
    observations must match the Beta-Bernoulli answer mapped through the
    sigmoid.

    The conjugate kernel in theta corresponds to Beta(lam, nu - lam) on the
    mean parameter, including the Jacobian of the logit transform.
    """
    lam, nu = 2.0, 5.0
    xs = np.array([1.0, 1.0, 0.0, 1.0])
    hyp = ConjugateHyper(lam, nu)

    def log_post(t):
        lp = BERNOULLI.conj_log_kernel(t, hyp)
        for x in xs:
            lp = lp + BERNOULLI.log_pdf(x, t)
        return lp

    mean_t, _ = grid_stats(log_post, lo=-15, hi=15, n=40_000)
    # posterior over p = sigmoid(theta) is Beta(lam + sum x, nu - lam + n -
    # sum x), so E[theta] = E[logit p] = digamma(a) - digamma(b)
    a = lam + xs.sum()
    b = (nu - lam) + (xs.size - xs.sum())
    mean_ref = special.digamma(a) - special.digamma(b)
    assert mean_t == pytest.approx(mean_ref, abs=1e-4)


def test_validate_hyper_bernoulli_needs_interior_lam():
    BERNOULLI.validate_hyper(ConjugateHyper(0.1, 0.2))
    with pytest.raises(ValueError):
        BERNOULLI.validate_hyper(ConjugateHyper(0.0, 1.0))
    with pytest.raises(ValueError):
        BERNOULLI.validate_hyper(ConjugateHyper(1.0, 1.0))
    with pytest.raises(ValueError):
        BERNOULLI.validate_hyper(ConjugateHyper(1.5, 1.0))


def test_conjugate_hyper_validates_inputs():
    with pytest.raises(ValueError):
        ConjugateHyper(0.5, 0.0)
    with pytest.raises(ValueError):
        ConjugateHyper(np.nan, 1.0)
    with pytest.raises(ValueError):
        ConjugateHyper(0.5, -2.0)


# ---------------------------------------------------------------- sampling

def test_sampling_saturates_at_extreme_theta():
    rng = make_rng(5, 1)
    ones = BERNOULLI.sample(np.full(200, 50.0), rng)
    assert np.all(ones == 1.0)
    zeros = POISSON.sample(np.full(200, -50.0), rng)
    assert np.all(zeros == 0.0)


def test_bernoulli_sample_mean_matches_sigmoid():
    rng = make_rng(5, 2)
    draws = BERNOULLI.sample(np.zeros(100_000), rng)
    assert draws.mean() == pytest.approx(0.5, abs=0.005)


def test_poisson_sample_mean_matches_exp():
    rng = make_rng(5, 3)
    draws = POISSON.sample(np.full(100_000, 1.0), rng)
    assert draws.mean() == pytest.approx(np.e, abs=0.03)


def test_exponential_sample_mean_matches_rate():
    rng = make_rng(5, 4)
    draws = EXPONENTIAL.sample(np.full(100_000, -2.0), rng)
    assert draws.mean() == pytest.approx(0.5, abs=0.01)
    assert np.all(draws >= 0.0)


def test_gaussian_sample_moments():
    rng = make_rng(5, 5)
    draws = GAUSSIAN_UNIT.sample(np.full(100_000, 1.5), rng)
    assert draws.mean() == pytest.approx(1.5, abs=0.02)
    assert draws.std() == pytest.approx(1.0, abs=0.02)


def test_sample_rejects_out_of_domain():
    rng = make_rng(5, 6)
    with pytest.raises(DomainError):
        EXPONENTIAL.sample(np.array([0.5]), rng)


# ---------------------------------------------------------------- registry

def test_get_family_by_name():
    assert get_family("bernoulli") is BERNOULLI
    assert get_family("poisson") is POISSON
    assert get_family("gaussian") is GAUSSIAN_UNIT
    assert get_family("exponential") is EXPONENTIAL


def test_get_family_unknown_name():
    with pytest.raises(ValueError):
        get_family("gamma")


def test_get_family_takes_only_the_family_names():
    assert sorted(FAMILIES) == ["bernoulli", "exponential", "gaussian",
                                "poisson"]
    with pytest.raises(ValueError, match="known: bernoulli, poisson"):
        get_family("poisson_log")


def test_registry_is_consistent():
    # each name maps to the singleton that carries it
    for name, fam in FAMILIES.items():
        assert get_family(name) is fam
        assert FAMILIES[fam.name] is fam


# ------------------------------------------------------------- properties

@st.composite
def family_and_theta(draw):
    name = draw(st.sampled_from(["bernoulli", "poisson", "gaussian",
                                 "exponential"]))
    fam = get_family(name)
    if name == "exponential":
        t = draw(st.floats(min_value=-20.0, max_value=-1e-3))
    else:
        t = draw(st.floats(min_value=-8.0, max_value=8.0))
    return fam, t


@settings(max_examples=120, deadline=None)
@given(family_and_theta())
def test_cumulant_derivative_is_mean(ft):
    """g'(theta) computed by central differences must match _gprime."""
    fam, t = ft
    eps = 1e-6 * max(1.0, abs(t))
    if fam.name == "exponential" and t + eps >= 0:
        eps = -t / 2
    fd = (fam._g(t + eps) - fam._g(t - eps)) / (2 * eps)
    assert fd == pytest.approx(fam._gprime(t), rel=1e-4, abs=1e-6)


@settings(max_examples=120, deadline=None)
@given(family_and_theta())
def test_cumulant_is_convex_locally(ft):
    fam, t = ft
    eps = 1e-4 * max(1.0, abs(t))
    if fam.name == "exponential" and t + eps >= 0:
        eps = -t / 2
    second = (fam._g(t + eps) - 2 * fam._g(t) + fam._g(t - eps)) / eps ** 2
    assert second > -1e-6


@settings(max_examples=80, deadline=None)
@given(family_and_theta(), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_samples_stay_in_support(ft, seed):
    fam, t = ft
    rng = np.random.default_rng(seed)
    draws = fam.sample(np.full(16, t), rng)
    assert np.all(fam.in_support(draws))


@settings(max_examples=80, deadline=None)
@given(family_and_theta())
def test_log_pdf_decomposition(ft):
    """log p = x*theta + h(x) - g(theta) for an in-support draw."""
    fam, t = ft
    rng = np.random.default_rng(7)
    x = float(fam.sample(np.array([t]), rng)[0])
    expect = x * t + fam._h(x) - fam._g(t)
    assert fam.log_pdf(x, t) == pytest.approx(expect, rel=1e-10, abs=1e-10)
