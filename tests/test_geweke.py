"""Geweke joint-distribution tests of one alternating-sampler sweep and
of one HMC transition.

A kernel that leaves p(params | x) invariant, alternated with a fresh
x ~ p(x | Theta), leaves the joint p(params, x) invariant (Geweke 2004,
"Getting it right").  So the chain's moments must match those of i.i.d.
joint draws, with no posterior needed; a kernel that targets the wrong
conditional drifts off the joint.

The sweep's joint is the Gaussian stage's model with the conjugate term on
Theta itself,

    p(U) p(V) N(Theta; U V, diag r) a(Theta)^beta p(x | Theta),

at fixed variances.  Its exact draws come from the Gaussian part by
rejection on a(Theta)^beta, bounded by the conjugate kernel's maximum.

The HMC transition's joint is the composite prior with the likelihood,

    a(U V)^beta b(U)^gamma c(V)^gamma p(x | U V),

whose exact draws come the same way: the Gaussian part at variances
sigma / gamma, rejection on a(U V)^beta, and no Theta noise.
"""

import numpy as np
import pytest

from expfamproj import (ConjugateHyper, FactorState, ObservationSet,
                        PriorSpec, gibbs_gaussian_stage, hmc_step,
                        make_layout, mh_accept_elements, propose_theta_rows)
from expfamproj.gibecca import GaussianStageState, stage_plan
from expfamproj.map_infer import FreeParams

from conftest import batch_means_se, make_rng

N_ROWS = 2
VAR_U, VAR_V, RESID = 4.0, 1.0, 0.5
N_SWEEPS = 20_000
STAT_NAMES = ("theta00^2", "theta04^2", "v00^2", "v11^2", "(uS vS)05^2",
              "x12 theta12")
HMC_STEP, HMC_LEAPFROG = 0.15, 8
HMC_STEPS = 30_000
HMC_STAT_NAMES = ("theta00^2", "theta13^2", "u00^2", "v11^2", "v23^2",
                  "x12 theta12")


def _statistics(u, v, theta, x):
    """The recorded statistics of one state or of a stack of states."""
    return np.stack([theta[..., 0, 0] ** 2, theta[..., 0, 4] ** 2,
                     v[..., 0, 0] ** 2, v[..., 1, 1] ** 2,
                     (u[..., 0, 0] * v[..., 0, 5]) ** 2,
                     x[..., 1, 2] * theta[..., 1, 2]], axis=-1)


def _hmc_statistics(u, v, theta, x):
    """The HMC test's statistics of one state or of a stack of states."""
    return np.stack([theta[..., 0, 0] ** 2, theta[..., 1, 3] ** 2,
                     u[..., 0, 0] ** 2, v[..., 1, 1] ** 2, v[..., 2, 3] ** 2,
                     x[..., 1, 2] * theta[..., 1, 2]], axis=-1)


def _draw_x(layout, theta, rng):
    x = np.empty_like(theta)
    for i, fam in enumerate(layout.families):
        cols = layout.cols_view[i]
        x[..., cols] = fam.sample(theta[..., cols], rng)
    return x


def _joint_draws(layout, spec, theta_max, n, rng, var_u=VAR_U, var_v=VAR_V,
                 resid=RESID):
    """n exact draws of (U, V, Theta, x), stacked on a leading axis.

    Proposals come from the Gaussian part, U and V at variances var_u and
    var_v and Theta = U V plus noise of variance resid (none at 0), in
    batches; each is kept with probability
    prod exp(beta * [k(theta) - k(theta_max)]), k the conjugate kernel,
    whose maximiser is theta_max.
    """
    k, d = layout.k_total, layout.d_total
    hyper = spec.a_hyper[0]
    kept = []
    while sum(len(b[0]) for b in kept) < n:
        m = 4 * n
        u = np.sqrt(var_u) * rng.standard_normal((m, N_ROWS, k))
        v = np.sqrt(var_v) * rng.standard_normal((m, k, d))
        v[:, layout.zero_mask] = 0.0
        theta = u @ v + np.sqrt(resid) * rng.standard_normal((m, N_ROWS, d))
        log_w = np.zeros(m)
        for i, fam in enumerate(layout.families):
            cols = theta[..., layout.cols_view[i]]
            gap = (fam.conj_log_kernel(cols, hyper)
                   - fam.conj_log_kernel(theta_max, hyper))
            log_w += spec.beta * gap.sum(axis=(1, 2))
        keep = np.log(rng.random(m)) < log_w
        kept.append((u[keep], v[keep], theta[keep]))
    u, v, theta = (np.concatenate(parts)[:n] for parts in zip(*kept))
    return u, v, theta, _draw_x(layout, theta, rng)


def _sweep_chain(layout, spec, start, n_sweeps, rng):
    """Statistics of n_sweeps steps: the Gaussian stage at fixed variances,
    the Theta proposal and element-wise acceptance given x, then a fresh
    x ~ p(x | Theta)."""
    u, v, theta, x = start
    k = layout.k_total
    stage = GaussianStageState(u, v, np.full(k, VAR_U), np.full(k, VAR_V),
                               np.full(layout.n_views, RESID))
    plan = stage_plan(layout)
    observed = np.ones(theta.shape, dtype=bool)
    stats = np.empty((n_sweeps, len(STAT_NAMES)))
    for t in range(n_sweeps):
        stage = gibbs_gaussian_stage(theta, layout, stage, rng,
                                     infer_variances=False, plan=plan)
        theta_star = propose_theta_rows(stage, layout, rng)
        obs = ObservationSet(x, observed, layout.view_widths,
                             layout.families)
        theta, _ = mh_accept_elements(obs, theta, theta_star, layout, spec,
                                      rng)
        x = _draw_x(layout, theta, rng)
        stats[t] = _statistics(stage.u, stage.v, theta, x)
    return stats


@pytest.mark.slow
@pytest.mark.parametrize("family, beta, theta_max", [
    ("gaussian", 0.0, 0.0),
    ("poisson", 0.3, np.log(0.5 / 1.0)),
])
def test_gibecca_sweep_keeps_the_joint(family, beta, theta_max):
    """2 x (3 + 3) ecca, ranks (1, 1, 1), (lam, nu) = (0.5, 1): every
    statistic's chain mean lies within 4 standard errors of the exact one."""
    layout = make_layout("ecca", (3, 3), (1, 1, 1), (family, family))
    spec = PriorSpec(beta=beta, a_hyper=ConjugateHyper(0.5, 1.0))
    rng = make_rng(16, 1)
    u, v, theta, x = _joint_draws(layout, spec, theta_max, N_SWEEPS + 1, rng)
    exact = _statistics(u[1:], v[1:], theta[1:], x[1:])
    chain = _sweep_chain(layout, spec, (u[0], v[0], theta[0], x[0]),
                         N_SWEEPS, rng)
    se = np.hypot([batch_means_se(c) for c in chain.T],
                  exact.std(axis=0, ddof=1) / np.sqrt(len(exact)))
    z = (chain.mean(axis=0) - exact.mean(axis=0)) / se
    print(f"[geweke] {family} beta={beta}: " + ", ".join(
        f"{name} z={val:+.2f}" for name, val in zip(STAT_NAMES, z)))
    assert np.all(np.abs(z) < 4.0), dict(zip(STAT_NAMES, z.round(2)))


def _hmc_chain(layout, spec, start, n_steps, rng):
    """Statistics of n_steps steps: one hmc_step given x, then a fresh
    x ~ p(x | U V)."""
    u, v, _, x = start
    state = FactorState(u, v)
    free = FreeParams(layout, state)
    observed = np.ones(x.shape, dtype=bool)
    stats = np.empty((n_steps, len(HMC_STAT_NAMES)))
    for t in range(n_steps):
        obs = ObservationSet(x, observed, layout.view_widths,
                             layout.families)
        state, _ = hmc_step(state, obs, layout, spec, HMC_STEP, HMC_LEAPFROG,
                            rng, free)
        theta = state.u @ state.v
        x = _draw_x(layout, theta, rng)
        stats[t] = _hmc_statistics(state.u, state.v, theta, x)
    return stats


@pytest.mark.slow
@pytest.mark.parametrize("family, theta_max", [
    ("poisson", np.log(0.5 / 1.0)),
    ("bernoulli", 0.0),
])
def test_hmc_step_keeps_the_joint(family, theta_max):
    """2 x (2 + 2) ecca, ranks (1, 1, 1), beta = 0.3, (lam, nu) = (0.5, 1),
    unit sigma: every statistic's chain mean lies within 4 standard errors
    of the exact one."""
    layout = make_layout("ecca", (2, 2), (1, 1, 1), (family, family))
    spec = PriorSpec(beta=0.3, a_hyper=ConjugateHyper(0.5, 1.0))
    var_u, var_v = (s[0] / spec.gamma for s in spec.sigmas(layout))
    rng = make_rng(16, 2)
    u, v, theta, x = _joint_draws(layout, spec, theta_max, HMC_STEPS + 1,
                                  rng, var_u, var_v, resid=0.0)
    exact = _hmc_statistics(u[1:], v[1:], theta[1:], x[1:])
    chain = _hmc_chain(layout, spec, (u[0], v[0], theta[0], x[0]),
                       HMC_STEPS, rng)
    se = np.hypot([batch_means_se(c) for c in chain.T],
                  exact.std(axis=0, ddof=1) / np.sqrt(len(exact)))
    z = (chain.mean(axis=0) - exact.mean(axis=0)) / se
    print(f"[geweke] hmc {family} beta={spec.beta}: " + ", ".join(
        f"{name} z={val:+.2f}" for name, val in zip(HMC_STAT_NAMES, z)))
    assert np.all(np.abs(z) < 4.0), dict(zip(HMC_STAT_NAMES, z.round(2)))
