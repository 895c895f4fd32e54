"""Synthetic generator and evaluation metrics."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats

from expfamproj import (Chain, ConfigError, ConjugateHyper, FactorState,
                        MaskError, ObservationSet, PriorSpec, StatError,
                        generate_coupled, heldout_loglik, knn_latent_error,
                        log_likelihood_theta, make_layout,
                        paired_significance, prediction_error,
                        time_between_uncorrelated)
from expfamproj import model

from conftest import make_rng

LOG2 = np.log(2.0)


# --------------------------------------------------------------- generator

def test_generator_shapes_and_split():
    lay = make_layout("epls", (1, 20), (1, 5), ("gaussian", "gaussian"))
    data = generate_coupled(lay, 50, 950, seed=4,
                            latent_scale=1.5, target_scale=2.0)
    assert data.train.x.shape == (50, 21)
    assert data.test.x.shape == (950, 21)
    assert data.labels.shape == (1000,)
    assert set(np.unique(data.labels)) <= {0.0, 1.0}
    assert data.theta.shape == (1000, 21)
    assert np.array_equal(data.labels, (data.u[:, 0] > 0).astype(float))


def test_generator_is_deterministic():
    lay = make_layout("ecca", (4, 4), (1, 2, 2), ("poisson", "bernoulli"))
    d1 = generate_coupled(lay, 10, 5, seed=7)
    d2 = generate_coupled(lay, 10, 5, seed=7)
    assert np.array_equal(d1.train.x, d2.train.x)
    assert np.array_equal(d1.test.x, d2.test.x)
    assert np.array_equal(d1.theta, d2.theta)
    d3 = generate_coupled(lay, 10, 5, seed=8)
    assert not np.array_equal(d1.train.x, d3.train.x)


def test_generator_respects_structure_and_domains():
    lay = make_layout("ecca", (3, 3), (1, 1, 1),
                      ("exponential", "poisson"))
    data = generate_coupled(lay, 20, 0, seed=5)
    assert np.all(data.v[lay.zero_mask] == 0.0)
    assert np.all(data.theta[:, :3] < 0.0)       # exponential half-line
    assert np.all(data.train.x[:, :3] >= 0.0)
    assert np.all(data.train.x[:, 3:] % 1 == 0)  # integer counts
    assert data.test is None


def test_generator_pins_shared_loading_scale():
    """The shared loading row on view 1 is rescaled to a fixed norm so the
    signal strength does not depend on one lucky draw."""
    lay = make_layout("epls", (1, 10), (1, 3), ("gaussian", "gaussian"))
    for seed in range(5):
        data = generate_coupled(lay, 10, 0, seed=seed,
                                latent_scale=1.5, target_scale=2.0)
        norm = np.linalg.norm(data.v[:1, :1])
        assert norm == pytest.approx(1.5 * 2.0 * np.sqrt(1), rel=1e-12)


def test_generator_bayes_rate_is_low_at_paper_dims():
    """Thresholding the true view-1 mean parameter at the true labels must
    beat chance clearly; this is the signal the recipes rely on."""
    lay = make_layout("epls", (1, 20), (1, 5), ("bernoulli", "gaussian"))
    data = generate_coupled(lay, 0, 500, seed=11,
                            latent_scale=1.5, target_scale=2.0)
    mu = special.expit(data.theta[:, 0])
    err = np.mean((mu > 0.5) != (data.labels > 0.5))
    # the pinned shared loading keeps its random sign, so the label column
    # may be anti-correlated with theta; the separation is what matters
    assert min(err, 1.0 - err) < 0.25


# ----------------------------------------------------------------- metrics

def test_prediction_error_binary_enumeration():
    fam = make_layout("epca", 1, 1, "bernoulli").families[0]
    means = np.array([0.9, 0.2, 0.6, 0.4])
    x = np.array([1.0, 0.0, 0.0, 1.0])
    # right, right, wrong, wrong
    assert prediction_error(means, x, fam) == pytest.approx(0.5)
    assert prediction_error(x, x, fam) == 0.0
    assert prediction_error(np.array([0.5, 0.5, 0.5, 0.5]), x, fam) \
        == pytest.approx(0.5)


def test_prediction_error_gaussian_is_mse():
    fam = make_layout("epca", 1, 1, "gaussian").families[0]
    means = np.array([1.0, 2.0])
    x = np.array([0.0, 4.0])
    assert prediction_error(means, x, fam) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        prediction_error(means, np.zeros(3), fam)


def _log_pdf_sums(obs, thetas, lay, held):
    """Per theta, the checked Family.log_pdf summed over the held entries
    of a single-view layout: a reference independent of the kernel, which
    sums in another order."""
    fam = lay.families[0]
    return np.array([np.sum(fam.log_pdf(obs.x[held], t[held]))
                     for t in thetas])


def test_heldout_loglik_point_estimates():
    lay = make_layout("epca", 2, 1, "bernoulli")
    x = np.array([[1.0, 0.0]])
    observed = np.array([[False, True]])
    obs = ObservationSet(x, observed, lay.view_widths, lay.families)
    held = np.array([[True, False]])
    theta = np.zeros((1, 2))
    assert heldout_loglik([theta], obs, held, lay) == pytest.approx(-LOG2)
    # one sample is scored exactly, with no Monte Carlo rounding: the sum
    # of the kernel that observes the held entries alone
    assert heldout_loglik([theta], obs, held, lay) == \
        log_likelihood_theta(obs.with_mask(held), theta, lay)


def test_heldout_loglik_empty_mask_is_zero():
    lay = make_layout("epca", 2, 1, "gaussian")
    obs = ObservationSet(np.zeros((2, 2)), np.ones((2, 2), dtype=bool),
                         lay.view_widths, lay.families)
    held = np.zeros((2, 2), dtype=bool)
    # a fully observed training mask leaves nothing to hold out
    assert heldout_loglik([np.zeros((2, 2))], obs, held, lay) == 0.0


def test_heldout_loglik_rejects_overlap_and_shape():
    lay = make_layout("epca", 2, 1, "gaussian")
    obs = ObservationSet(np.zeros((2, 2)), np.ones((2, 2), dtype=bool),
                         lay.view_widths, lay.families)
    with pytest.raises(MaskError):
        heldout_loglik([np.zeros((2, 2))], obs,
                       np.array([[True, False], [False, False]]), lay)
    with pytest.raises(MaskError):
        heldout_loglik([np.zeros((2, 2))], obs, np.ones((3, 2), dtype=bool),
                       lay)


def test_heldout_loglik_chain_is_logsumexp():
    lay = make_layout("epca", 1, 1, "bernoulli")
    x = np.array([[1.0]])
    obs = ObservationSet(x, np.array([[False]]), lay.view_widths,
                         lay.families)
    held = np.array([[True]])
    thetas = [np.array([[0.0]]), np.array([[1.0]]), np.array([[-1.0]])]
    states = [FactorState(np.zeros((1, 1)), np.zeros((1, 1)))] * 3
    chain = Chain(states, np.array([1.0, 2.0, 3.0]), np.zeros(3),
                  thetas=thetas)
    lls = np.array([heldout_loglik([t], obs, held, lay) for t in thetas])
    assert np.allclose(lls, _log_pdf_sums(obs, thetas, lay, held),
                       rtol=1e-12, atol=0.0)
    expect = special.logsumexp(lls) - np.log(3.0)
    assert heldout_loglik(chain.theta_samples(lay), obs, held,
                          lay) == pytest.approx(expect, rel=1e-12)
    empty = Chain([], np.array([]), np.array([]))
    with pytest.raises(StatError):
        heldout_loglik(empty.theta_samples(lay), obs, held, lay)


def test_heldout_loglik_builds_one_kernel(monkeypatch):
    lay = make_layout("epca", 6, 2, "poisson")
    rng = make_rng(16, 11)
    x = rng.poisson(2.0, size=(8, 6)).astype(float)
    held = rng.random((8, 6)) < 0.3
    obs = ObservationSet(x, ~held, lay.view_widths, lay.families)
    thetas = [0.5 * rng.standard_normal((8, 6)) for _ in range(5)]
    lls = np.array([heldout_loglik([t], obs, held, lay) for t in thetas])
    assert np.allclose(lls, _log_pdf_sums(obs, thetas, lay, held),
                       rtol=1e-12, atol=0.0)
    built = []
    init = model.EntryTerms.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.EntryTerms, "__init__", counting_init)
    value = heldout_loglik(thetas, obs, held, lay)
    assert len(built) == 1
    assert value == float(special.logsumexp(lls) - np.log(5))


# --------------------------------------------------------------------- knn

def test_knn_separated_clusters_are_perfect():
    rng = make_rng(16, 1)
    u = np.r_[rng.standard_normal((20, 2)) + 10.0,
              rng.standard_normal((20, 2)) - 10.0]
    labels = np.r_[np.ones(20), np.zeros(20)]
    assert knn_latent_error(u, labels, n_neighbors=5, folds=5, seed=0) == 0.0


def test_knn_random_labels_near_half():
    rng = make_rng(16, 2)
    u = rng.standard_normal((300, 2))
    labels = (rng.random(300) > 0.5).astype(float)
    err = knn_latent_error(u, labels, n_neighbors=9, folds=5, seed=0)
    assert abs(err - 0.5) < 3.5 * np.sqrt(0.25 / 300)


def test_knn_brute_force_oracle_single_fold():
    """12 points, 2 folds: recompute the vote by hand for every held-out
    point and compare the pooled error."""
    rng = make_rng(16, 3)
    u = rng.standard_normal((12, 2))
    labels = (rng.random(12) > 0.4).astype(float)
    got = knn_latent_error(u, labels, n_neighbors=3, folds=2, seed=5)

    order = np.random.default_rng(np.random.SeedSequence([5, 11])) \
        .permutation(12)
    wrong = 0
    for fold in np.array_split(order, 2):
        train = np.setdiff1d(order, fold)
        for i in fold:
            d2 = np.sum((u[train] - u[i]) ** 2, axis=1)
            nearest = train[np.argsort(d2)[:3]]
            vote = labels[nearest].mean()
            wrong += int((vote > 0.5) != (labels[i] > 0.5))
    assert got == pytest.approx(wrong / 12)


def test_knn_parameter_validation():
    u = np.zeros((5, 2))
    labels = np.zeros(5)
    with pytest.raises(ConfigError):
        knn_latent_error(u, labels, n_neighbors=5)
    with pytest.raises(ConfigError):
        knn_latent_error(u, labels, n_neighbors=2, folds=1)
    with pytest.raises(ConfigError):
        knn_latent_error(u, labels, n_neighbors=2, folds=9)
    with pytest.raises(ValueError):
        knn_latent_error(u, np.zeros(4), n_neighbors=2)


def test_knn_is_seed_deterministic():
    rng = make_rng(16, 4)
    u = rng.standard_normal((40, 3))
    labels = (rng.random(40) > 0.5).astype(float)
    a = knn_latent_error(u, labels, n_neighbors=5, folds=4, seed=9)
    b = knn_latent_error(u, labels, n_neighbors=5, folds=4, seed=9)
    assert a == b


# ---------------------------------------------------- decorrelation timing

def _chain_with_series(series, dt=0.5):
    n = len(series)
    states = [FactorState(np.zeros((1, 1)), np.zeros((1, 1)))] * n
    wall = dt * np.arange(1, n + 1)
    return Chain(states, wall, np.asarray(series, dtype=float))


def test_uncorrelated_time_iid_is_lag_one():
    rng = make_rng(16, 5)
    chain = _chain_with_series(rng.standard_normal(2000), dt=0.25)
    out = time_between_uncorrelated(chain)
    assert not out.flagged
    assert out.lag == 1.0
    assert out.seconds == pytest.approx(0.25, rel=1e-9)


def test_uncorrelated_time_ar1_matches_theory():
    """AR(1) with coefficient 0.8: population ACF 0.8^k drops below 0.1 at
    k = 11; the sample estimate on a long trace lands nearby."""
    rng = make_rng(16, 6)
    n = 200_000
    eps = rng.standard_normal(n)
    y = np.empty(n)
    y[0] = eps[0]
    for i in range(1, n):
        y[i] = 0.8 * y[i - 1] + eps[i]
    out = time_between_uncorrelated(_chain_with_series(y, dt=1.0))
    assert not out.flagged
    assert 9 <= out.lag <= 13
    assert out.seconds == pytest.approx(out.lag, rel=1e-9)


def test_uncorrelated_time_constant_trace_flagged():
    chain = _chain_with_series(np.ones(500))
    out = time_between_uncorrelated(chain)
    assert out.flagged
    assert np.isinf(out.seconds)


def test_uncorrelated_time_drifting_trace_has_long_lag():
    # a linear drift decorrelates very late; the exact crossing of the
    # centred sample ACF of a ramp sits near 0.32 n independent of scale
    chain = _chain_with_series(np.arange(500.0))
    out = time_between_uncorrelated(chain)
    assert not out.flagged
    assert out.lag > 100


def test_uncorrelated_time_needs_samples():
    with pytest.raises(StatError):
        time_between_uncorrelated(_chain_with_series(np.zeros(99)))


def test_uncorrelated_time_explicit_series():
    rng = make_rng(16, 7)
    # 2000 points keeps the lag-1 sample ACF of white noise ~1/sqrt(n) << 0.1
    chain = _chain_with_series(np.ones(2000))
    out = time_between_uncorrelated(chain, series=rng.standard_normal(2000))
    assert out.lag == 1.0


# ------------------------------------------------------------ paired tests

def test_paired_identical_gives_one():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    out = paired_significance(a, a.copy())
    assert out.p_value == 1.0
    assert out.mean_diff == 0.0


def test_paired_constant_gap_gives_tiny_p():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    out = paired_significance(a, a + 1.0)
    assert 0.0 < out.p_value < 1e-200
    assert out.mean_diff == pytest.approx(-1.0)


def test_paired_matches_t_distribution():
    rng = make_rng(16, 8)
    a = rng.standard_normal(10)
    b = a + 0.3 + 0.4 * rng.standard_normal(10)
    out = paired_significance(a, b)
    d = a - b
    t = d.mean() / (d.std(ddof=1) / np.sqrt(10))
    p = 2.0 * stats.t.sf(abs(t), df=9)
    assert out.statistic == pytest.approx(t, rel=1e-10)
    assert out.p_value == pytest.approx(p, rel=1e-10)


def test_paired_matches_ttest_rel_bit_for_bit():
    rng = make_rng(16, 10)
    for _ in range(2000):
        n = int(rng.integers(3, 30))
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        b = a + (rng.standard_normal() + rng.standard_normal(n)) \
            * 10.0 ** rng.integers(-3, 4)
        k = int(rng.integers(1, 4))
        out = paired_significance(a, b, n_comparisons=k)
        t, p = stats.ttest_rel(a, b)
        assert out.statistic == float(t)
        assert out.p_value == float(min(1.0, p * k))


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(model.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import expfamproj, expfamproj.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.strip() == "[]"


def test_paired_bonferroni_scales_and_caps():
    rng = make_rng(16, 9)
    a = rng.standard_normal(8)
    b = a + 0.1 * rng.standard_normal(8)
    p1 = paired_significance(a, b, n_comparisons=1).p_value
    p3 = paired_significance(a, b, n_comparisons=3).p_value
    assert p3 == pytest.approx(min(1.0, 3 * p1), rel=1e-12)
    p_huge = paired_significance(a, b, n_comparisons=10 ** 9).p_value
    assert p_huge == 1.0


def test_paired_needs_three_replicates():
    with pytest.raises(StatError):
        paired_significance(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(StatError):
        paired_significance(np.zeros((3, 2)), np.zeros((3, 2)))
