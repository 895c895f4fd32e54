"""Chain containers, sign-aligned summaries, the samplers' shared
sweep schedule and clock, and binary persistence."""

import time

import numpy as np
import pytest

from expfamproj import (Chain, ConjugateHyper, ExchangeOptions, FactorState,
                        GibeccaOptions, HmcOptions, PriorSpec, load_chain,
                        make_layout, run_gibecca, run_hmc_chain, save_chain,
                        shared_latent_mean)

from conftest import dense_observations, make_rng


def _toy_chain(n_samples, layout, seed=0, with_hypers=False,
               with_thetas=False):
    rng = make_rng(13, seed)
    states, hypers, thetas = [], [], []
    for _ in range(n_samples):
        u = rng.standard_normal((3, layout.k_total))
        v = rng.standard_normal((layout.k_total, layout.d_total))
        v[layout.zero_mask] = 0.0
        states.append(FactorState(u, v))
        if with_hypers:
            hypers.append(PriorSpec(
                beta=0.2, a_hyper=ConjugateHyper(rng.uniform(0.1, 0.4), 1.0),
                sigma_u=rng.uniform(0.5, 2.0), sigma_v=1.0))
        if with_thetas:
            thetas.append(u @ v)
    wall = np.cumsum(rng.uniform(0.01, 0.1, size=n_samples))
    loglik = rng.standard_normal(n_samples)
    return Chain(states, wall, loglik,
                 hypers if with_hypers else None,
                 thetas if with_thetas else None,
                 stats={"accept": 0.5}, meta={"engine": "toy"})


def test_empty_chain_is_valid():
    chain = Chain([], np.array([]), np.array([]))
    chain.validate()
    assert chain.n_samples == 0


def test_validate_rejects_mismatched_traces():
    lay = make_layout("epca", 2, 1, "gaussian")
    chain = _toy_chain(3, lay)
    bad = Chain(chain.states, chain.wall_clock[:2], chain.loglik)
    with pytest.raises(ValueError):
        bad.validate()
    nonmono = Chain(chain.states, np.array([1.0, 1.0, 2.0]), chain.loglik)
    with pytest.raises(ValueError):
        nonmono.validate()


def test_theta_samples_assembles_when_not_stored():
    lay = make_layout("epca", 4, 2, "gaussian")
    chain = _toy_chain(3, lay)
    thetas = chain.theta_samples(lay)
    for t, s in zip(thetas, chain.states):
        assert np.allclose(t, s.u @ s.v, atol=1e-15)


def test_theta_samples_prefers_stored():
    lay = make_layout("epca", 4, 2, "gaussian")
    chain = _toy_chain(3, lay, with_thetas=True)
    chain.thetas[1] = chain.thetas[1] + 7.0  # marker
    thetas = chain.theta_samples(lay)
    assert np.allclose(thetas[1], chain.states[1].u @ chain.states[1].v + 7.0)


def test_shared_latent_mean_fixes_sign_flips():
    """A chain whose samples are sign flips of one state must average back
    to (up to sign) that state, not to zero."""
    lay = make_layout("epls", (1, 3), (1, 1), ("gaussian", "gaussian"))
    rng = make_rng(13, 5)
    u = rng.standard_normal((6, 2))
    v = rng.standard_normal((2, 4))
    v[lay.zero_mask] = 0.0
    states = []
    for i in range(8):
        sgn = -1.0 if i % 2 else 1.0
        us = u.copy()
        us[:, 0] *= sgn
        vs = v.copy()
        vs[0] *= sgn
        states.append(FactorState(us, vs))
    wall = np.arange(1.0, 9.0)
    chain = Chain(states, wall, np.zeros(8))
    mean = shared_latent_mean(chain, lay)
    assert mean.shape == (6, 1)
    assert np.allclose(np.abs(mean[:, 0]), np.abs(u[:, 0]), atol=1e-12)


def test_shared_latent_mean_empty_chain():
    lay = make_layout("epca", 2, 1, "gaussian")
    with pytest.raises(ValueError):
        shared_latent_mean(Chain([], np.array([]), np.array([])), lay)


# ------------------------------------------------------------- persistence

def test_chain_round_trip_exact(tmp_path):
    lay = make_layout("epls", (1, 3), (1, 1), ("gaussian", "gaussian"))
    chain = _toy_chain(4, lay, seed=6, with_hypers=True, with_thetas=True)
    save_chain(chain, tmp_path / "c", lay)
    back = load_chain(tmp_path / "c")
    assert back.n_samples == 4
    for a, b in zip(chain.states, back.states):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)
    for a, b in zip(chain.thetas, back.thetas):
        assert np.array_equal(a, b)
    for a, b in zip(chain.hypers, back.hypers):
        su_a, sv_a = a.sigmas(lay)
        su_b, sv_b = b.sigmas(lay)
        assert np.array_equal(su_a, su_b) and np.array_equal(sv_a, sv_b)
        assert a.hyper_for_view(0) == b.hyper_for_view(0)
        assert a.beta == b.beta and a.gamma == b.gamma
    assert np.array_equal(chain.wall_clock, back.wall_clock)
    assert np.array_equal(chain.loglik, back.loglik)
    assert back.stats == chain.stats
    assert back.meta == chain.meta


def test_empty_chain_round_trip(tmp_path):
    lay = make_layout("epca", 2, 1, "gaussian")
    save_chain(Chain([], np.array([]), np.array([])), tmp_path / "e", lay)
    back = load_chain(tmp_path / "e")
    assert back.n_samples == 0


def test_hyper_chain_without_samples_round_trip(tmp_path):
    """An infer_hyper HMC chain with n_samples 0 keeps an empty hyper
    trace; saving it used to read the first hyper for beta and gamma."""
    lay, obs, spec = _ecca_problem()
    chain = _run_hmc(obs, lay, spec, n_samples=0, burn_in=3, seed=1)
    assert chain.hypers == []
    save_chain(chain, tmp_path / "h", lay)
    back = load_chain(tmp_path / "h")
    assert back.n_samples == 0 and back.hypers == []
    assert back.stats == chain.stats


def test_load_chain_rejects_unknown_format(tmp_path):
    lay = make_layout("epca", 2, 1, "gaussian")
    save_chain(Chain([], np.array([]), np.array([])), tmp_path / "f", lay)
    manifest = tmp_path / "f" / "manifest.json"
    text = manifest.read_text().replace('"format": 1', '"format": 99')
    manifest.write_text(text)
    with pytest.raises(ValueError):
        load_chain(tmp_path / "f")


@pytest.mark.parametrize("name", ["sample_000000.bin"])
@pytest.mark.parametrize("extra", [-5, 5])
def test_loaders_reject_a_file_of_the_wrong_length(tmp_path, name, extra):
    """A file with values cut off or appended fails naming the file."""
    lay = make_layout("epls", (1, 3), (1, 1), ("gaussian", "gaussian"))
    chain = _toy_chain(2, lay, seed=9, with_hypers=True, with_thetas=True)
    save_chain(chain, tmp_path, lay)
    path = tmp_path / name
    flat = np.fromfile(path, dtype="<f8")
    (np.r_[flat, np.ones(extra)] if extra > 0 else flat[:extra]).tofile(path)
    with pytest.raises(ValueError, match=name):
        load_chain(tmp_path)


def test_identical_seeds_give_identical_chains():
    lay = make_layout("epca", 2, 1, "bernoulli")
    rng = make_rng(13, 8)
    theta = rng.standard_normal((4, 2))
    obs = dense_observations(lay, theta, seed=138)
    spec = PriorSpec(beta=0.1, a_hyper=ConjugateHyper(0.1, 0.2))
    opts = HmcOptions(n_samples=20, burn_in=10, seed=4)
    c1 = run_hmc_chain(obs, lay, spec, opts)
    c2 = run_hmc_chain(obs, lay, spec, opts)
    assert c1.n_samples == c2.n_samples == 20
    for a, b in zip(c1.states, c2.states):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)
    assert np.array_equal(c1.loglik, c2.loglik)


def _run_hmc(obs, lay, spec, **schedule):
    return run_hmc_chain(obs, lay, spec, HmcOptions(
        step_size=0.05, n_leapfrog=5, infer_hyper=True,
        exchange=ExchangeOptions(inner_sweeps=20), **schedule))


def _run_gibecca(obs, lay, spec, **schedule):
    return run_gibecca(obs, lay, spec, GibeccaOptions(**schedule))


SAMPLERS = {"hmc": _run_hmc, "gibecca": _run_gibecca}


def _ecca_problem():
    lay = make_layout("ecca", (3, 3), (1, 1, 1), ("poisson", "bernoulli"))
    theta = 0.5 * make_rng(13, 9).standard_normal((10, 6))
    obs = dense_observations(lay, theta, seed=139)
    spec = PriorSpec(beta=0.1, a_hyper=ConjugateHyper(0.5, 1.0))
    return lay, obs, spec


@pytest.mark.parametrize("engine", sorted(SAMPLERS))
def test_thinning_keeps_the_sweeps_burn_in_plus_multiples_of_thin(engine):
    """A thin=3 chain holds exactly every third draw of a thin=1 chain
    that runs the same sweeps from the same seed."""
    lay, obs, spec = _ecca_problem()
    run = SAMPLERS[engine]
    every = run(obs, lay, spec, n_samples=15, burn_in=7, thin=1, seed=2)
    thinned = run(obs, lay, spec, n_samples=5, burn_in=7, thin=3, seed=2)
    assert thinned.n_samples == 5
    keep = slice(0, None, 3)
    for a, b in zip(thinned.states, every.states[keep]):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)
    assert np.array_equal(thinned.loglik, every.loglik[keep])
    if engine == "gibecca":
        for a, b in zip(thinned.thetas, every.thetas[keep]):
            assert np.array_equal(a, b)
    else:
        for a, b in zip(thinned.hypers, every.hypers[keep]):
            for x, y in zip(a.sigmas(lay), b.sigmas(lay)):
                assert np.array_equal(x, y)
            assert a.a_hyper == b.a_hyper


@pytest.mark.parametrize("engine", sorted(SAMPLERS))
def test_wall_clock_stays_strictly_increasing_on_a_stopped_clock(
        engine, monkeypatch):
    """With no time passing between stored samples, each one is stamped
    1e-9 s after the one before, so the chain still validates."""
    lay, obs, spec = _ecca_problem()
    monkeypatch.setattr(time, "perf_counter", lambda: 5.0)
    chain = SAMPLERS[engine](obs, lay, spec, n_samples=4, burn_in=2, seed=3)
    chain.validate()
    assert np.array_equal(chain.wall_clock, np.cumsum(np.full(4, 1e-9)))
