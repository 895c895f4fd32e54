"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single `[acceptance] ... PASS/FAIL (margin)` line; run

    pytest tests/test_acceptance.py -v -s

to see the measured numbers.  These are slower than the unit suites and
deliberately fixed in configuration; together they cover gradient
correctness, the Gaussian/PCA correspondence, sampler exactness against
grid oracles, the exchange hyperparameter moves, the three headline
experiment trends, sampler efficiency, domain safety for the negative
half-line family, and end-to-end determinism of the command line.
"""

import json

import numpy as np
import pytest
import scipy.linalg

from expfamproj import (ConjugateHyper, FactorState, GibeccaOptions,
                        HmcOptions, MapOptions, ObservationSet, PriorSpec,
                        fit_map, make_layout, run_gibecca, run_hmc_chain)
from expfamproj.chains import load_chain
from expfamproj.cli import main
from expfamproj.experiments import (BetaSweepConfig, CcaKnnConfig,
                                    EplsVsSepcaConfig, SamplerBenchConfig,
                                    run_beta_sweep, run_cca_knn,
                                    run_epls_vs_sepca, run_sampler_bench)
from expfamproj.expfam import EXPONENTIAL, get_family
from expfamproj.hmc_infer import ExchangeOptions, hmc_step
from expfamproj.map_infer import FreeParams, posterior_logp_and_grad
from expfamproj.model import assemble_theta
from expfamproj.spect import load_or_fallback

from conftest import (batch_means_se, central_diff_grad, dense_observations,
                      grid_stats, make_rng)


pytestmark = pytest.mark.acceptance


def _verdict(label, ok, detail):
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# 1. analytic gradients against central differences, all layouts/families


def _random_layout(kind, fam, rng):
    if kind == "epca":
        return make_layout("epca", int(rng.integers(2, 7)),
                           int(rng.integers(1, 4)), fam)
    d1 = int(rng.integers(1, 3))
    d2 = int(rng.integers(1, 7 - d1))
    if kind == "sepca":
        return make_layout("sepca", (d1, d2), int(rng.integers(1, 4)), fam,
                           alpha=(1.0, 0.5))
    if kind == "epls":
        ks = int(rng.integers(1, 3))
        return make_layout("epls", (d1, d2), (ks, int(rng.integers(1, 4 - ks))),
                           fam)
    return make_layout("ecca", (d1, d2), (1, 1, 1), fam)


_HYPER = {"bernoulli": (0.3, 1.0), "poisson": (0.5, 1.0),
          "gaussian": (0.2, 1.0)}


def test_01_gradients_match_central_differences():
    rng = make_rng(2026, 1)
    worst, n_checked = 0.0, 0
    for kind in ("epca", "sepca", "epls", "ecca"):
        for fam in ("bernoulli", "poisson", "gaussian"):
            for beta in (0.0, 0.4, 1.0):
                for inst in range(20):
                    layout = _random_layout(kind, fam, rng)
                    n = int(rng.integers(2, 9))
                    u = 0.6 * rng.standard_normal((n, layout.k_total))
                    v = 0.6 * rng.standard_normal((layout.k_total,
                                                   layout.d_total))
                    v[layout.zero_mask] = 0.0
                    theta = u @ v
                    obs = dense_observations(layout, theta,
                                             seed=1000 + n_checked)
                    keep = rng.random(theta.shape) > 0.15
                    obs = obs.with_mask(obs.observed & keep)
                    spec = PriorSpec(beta=beta,
                                     a_hyper=ConjugateHyper(*_HYPER[fam]),
                                     sigma_u=float(rng.uniform(0.5, 2.0)),
                                     sigma_v=float(rng.uniform(0.5, 2.0)))
                    state = FactorState(u, v, None)
                    free = FreeParams(layout, state)
                    x0 = free.pack(state)

                    def neg_logp(x, free=free, obs=obs, layout=layout,
                                 spec=spec):
                        return -posterior_logp_and_grad(
                            free.unpack(x), obs, layout, spec,
                            want_grad=False)[0]

                    _, gu, gv, gm = posterior_logp_and_grad(
                        state, obs, layout, spec)
                    grad = -free.pack_grad(
                        gu, gv, gm if gm is not None
                        else np.zeros(layout.d_total))
                    fd = central_diff_grad(neg_logp, x0, eps=1e-6)
                    rel = (np.linalg.norm(fd - grad)
                           / max(np.linalg.norm(grad), 1e-10))
                    worst = max(worst, rel)
                    n_checked += 1
    _verdict("01 gradient vs central differences", worst < 1e-5,
             f"max rel err {worst:.2e} over {n_checked} instances")


# --------------------------------------------------------------------------
# 2. Gaussian identity-link fit reduces to truncated SVD


def test_02_gaussian_fit_matches_truncated_svd():
    rng = make_rng(2026, 2)
    x = rng.standard_normal((20, 10))
    layout = make_layout("epca", 10, 2, "gaussian")
    obs = ObservationSet(x, np.ones_like(x, dtype=bool), (10, 0),
                         ("gaussian",))
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=1e8, sigma_v=1e8)
    fit = fit_map(obs, layout, spec,
                  MapOptions(max_iter=6000, grad_tol=1e-9, restarts=3,
                             seed=2))
    sse_fit = float(np.sum((x - fit.state.u @ fit.state.v) ** 2))
    svd_u, svals, _ = np.linalg.svd(x, full_matrices=False)
    sse_svd = float(np.sum(svals[2:] ** 2))
    rel = abs(sse_fit - sse_svd) / sse_svd
    angle = float(np.max(scipy.linalg.subspace_angles(fit.state.u,
                                                      svd_u[:, :2])))
    _verdict("02 rank-2 Gaussian fit vs truncated SVD",
             rel < 1e-6 and angle < 1e-3,
             f"objective rel diff {rel:.2e}, subspace angle {angle:.2e} rad")


# --------------------------------------------------------------------------
# 3. scalar-model sampler exactness against grid integration


def _scalar_obs(fam_name, x_val):
    layout = make_layout("epca", 1, 1, fam_name)
    obs = ObservationSet(np.array([[float(x_val)]]),
                         np.ones((1, 1), dtype=bool), (1, 0), (fam_name,))
    return layout, obs


def _check_scalar_chain(tag, trace, log_post, lo, hi, results):
    ref_mean, _ = grid_stats(log_post, lo, hi, n=40_001)
    mean = float(np.mean(trace))
    se = batch_means_se(trace)
    results.append((tag, abs(mean - ref_mean), 3.0 * se))


def test_03_scalar_samplers_match_grid_oracle():
    results = []

    # shared prior pieces: conj weight 0.4 with (lam, nu), Gaussian row term
    for fam_name, x_val, lam, nu, lo, hi in (
            ("bernoulli", 1.0, 0.1, 0.2, -12.0, 12.0),
            ("poisson", 3.0, 0.5, 0.5, -12.0, 6.0)):
        layout, obs = _scalar_obs(fam_name, x_val)
        fam = get_family(fam_name)
        g = fam._g

        spec_h = PriorSpec(beta=0.4, a_hyper=ConjugateHyper(lam, nu),
                           sigma_u=1.0, sigma_v=1.0, gamma=0.6)
        chain = run_hmc_chain(obs, layout, spec_h,
                              HmcOptions(n_samples=10_000, burn_in=1_000,
                                         step_size=0.3,
                                         fix_v=np.array([[1.0]]),
                                         seed=33))
        trace = np.array([t[0, 0] for t in chain.theta_samples(layout)])

        def log_post_h(t, g=g, x=x_val, lam=lam, nu=nu):
            return (x * t - g(t) + 0.4 * (lam * t - nu * g(t))
                    - 0.6 * t * t / 2.0)

        _check_scalar_chain(f"hmc-{fam_name}", trace, log_post_h, lo, hi,
                            results)

        # alternating sampler: the latent row is integrated out by its own
        # Gibbs stage, leaving a Gaussian with variance sigma_u/gamma + resid
        spec_g = PriorSpec(beta=0.4, a_hyper=ConjugateHyper(lam, nu),
                           sigma_u=1.0, sigma_v=1.0, gamma=0.5)
        chain_g = run_gibecca(obs, layout, spec_g,
                              GibeccaOptions(n_samples=10_000, burn_in=500,
                                             infer_hypers=False,
                                             resid_init=0.5,
                                             fix_v=np.array([[1.0]]),
                                             seed=34))
        trace_g = np.array([t[0, 0] for t in chain_g.thetas])
        prior_var = 1.0 / 0.5 + 0.5

        def log_post_g(t, g=g, x=x_val, lam=lam, nu=nu, pv=prior_var):
            return (x * t - g(t) + 0.4 * (lam * t - nu * g(t))
                    - t * t / (2.0 * pv))

        _check_scalar_chain(f"gibecca-{fam_name}", trace_g, log_post_g,
                            lo, hi, results)

    ok = all(err < tol for _, err, tol in results)
    detail = "; ".join(f"{tag} |err|={err:.4f} vs 3se={tol:.4f}"
                       for tag, err, tol in results)
    _verdict("03 scalar chains vs grid oracle", ok, detail)


# --------------------------------------------------------------------------
# 4. exchange moves against an exact-normalizer reference chain


@pytest.mark.slow
def test_04_exchange_matches_exact_normalizer_mh():
    rng = np.random.default_rng(3)
    v0 = rng.standard_normal((2, 2))
    u_true = 0.8 * rng.standard_normal((12, 2))
    x = u_true @ v0 + 0.5 * rng.standard_normal((12, 2))
    layout = make_layout("epca", 2, 2, "gaussian")
    obs = ObservationSet(x, np.ones_like(x, dtype=bool), (2, 0),
                         ("gaussian",))
    spec = PriorSpec(beta=0.0, a_hyper=ConjugateHyper(0.0, 1.0),
                     sigma_u=1.0, sigma_v=1.0)

    n_keep, n_burn = 20_000, 2_000
    chain = run_hmc_chain(obs, layout, spec,
                          HmcOptions(n_samples=n_keep, burn_in=n_burn,
                                     step_size=0.1, infer_hyper=True,
                                     fix_v=v0, seed=21,
                                     exchange=ExchangeOptions(
                                         inner_sweeps=40, prop_scale=0.5)))
    ex_trace = np.array([float(h.sigma_u) for h in chain.hypers])

    # reference: same U moves, sigma_u by MH with the closed-form Gaussian
    # normalizer in the ratio (flat-in-log hyperprior, log-normal proposal)
    rng2 = make_rng(77)
    state = FactorState(0.01 * rng2.standard_normal((12, 2)), v0.copy(), None)
    free = FreeParams(layout, state, fix_v=True)
    sigma, direct = 1.0, []
    for sweep in range(n_keep + n_burn):
        state, _ = hmc_step(state, obs, layout, spec.replace(sigma_u=sigma),
                            0.1, 20, rng2, free)
        ssq = float(np.sum(state.u ** 2))
        nk = state.u.size
        prop = sigma * np.exp(0.5 * rng2.standard_normal())

        def log_target(s):
            return -0.5 * nk * np.log(s) - 0.5 * ssq / s

        if np.log(rng2.random()) < log_target(prop) - log_target(sigma):
            sigma = prop
        if sweep >= n_burn:
            direct.append(sigma)
    direct = np.asarray(direct)

    diff = abs(ex_trace.mean() - direct.mean())
    tol = 3.0 * float(np.hypot(batch_means_se(ex_trace),
                               batch_means_se(direct)))
    flagged = chain.stats["exchange"]["flagged"]
    _verdict("04 exchange vs exact-normalizer reference",
             diff < tol,
             f"means {ex_trace.mean():.4f} vs {direct.mean():.4f}, "
             f"|diff|={diff:.4f} vs 3se={tol:.4f}, "
             f"{flagged} flagged inner chains")


# --------------------------------------------------------------------------
# 5. supervised trend: shared-factor model vs weighted joint factorisation


@pytest.mark.slow
def test_05_shared_factor_prediction_beats_joint_fit():
    res = run_epls_vs_sepca(EplsVsSepcaConfig(alphas=(1.0,), seed=0))
    assert all(r["status"] == "ok" for r in res.rows)
    tests = {t["components"]: t for t in res.summary["paired_tests"]
             if t.get("alpha") == 1.0}

    checks, details = [], []
    for k in (1, 2, 3):
        t = tests[k]
        checks.append(t["mean_a"] <= t["mean_b"] and t["p_value"] < 0.05)
        details.append(f"k={k}: {t['mean_a']:.3f} vs {t['mean_b']:.3f} "
                       f"p={t['p_value']:.2e}")
    gap6 = abs(tests[6]["mean_b"] - tests[6]["mean_a"])
    checks.append(gap6 <= 0.02)
    details.append(f"k=6 gap {gap6:.4f}")
    _verdict("05 shared-factor error ordering", all(checks),
             "; ".join(details))


# --------------------------------------------------------------------------
# 6. shrinkage sweep: interior prior weight beats both endpoints


@pytest.mark.slow
def test_06_interior_prior_weight_maximises_heldout_loglik():
    obs, _ = load_or_fallback(None)
    res = run_beta_sweep(BetaSweepConfig(n_points=11, seed=0), obs)
    per = {round(p["beta"], 6): p for p in res.summary["per_beta"]}
    argmax = res.summary["beta_argmax"]
    margin = res.summary["margin_vs_endpoints"]
    spread = max(per[round(b, 6)]["std"] for b in (argmax, 0.0, 1.0))
    ok = res.summary["interior_maximum"] and margin > spread
    _verdict("06 interior shrinkage optimum",
             ok,
             f"argmax beta={argmax:.1f}, margin {margin:.4f} vs restart "
             f"std {spread:.4f}")


# --------------------------------------------------------------------------
# 7. latent-space classification orderings


@pytest.mark.slow
def test_07_count_aware_sampler_improves_knn_error():
    res = run_cca_knn(CcaKnnConfig(seed=0))
    assert all(r["status"] == "ok" for r in res.rows)
    med = res.summary["median_knn_error"]
    ok = (med["gibecca-poisson"] < med["bcca-poisson"]
          and med["gibecca-poisson"] < med["cca-poisson"]
          and med["gibecca-bernoulli"] <= med["bcca-bernoulli"])
    _verdict("07 knn error ordering", ok,
             "; ".join(f"{k}={v:.3f}" for k, v in sorted(med.items())))


# --------------------------------------------------------------------------
# 8. sampler efficiency ordering


@pytest.mark.slow
def test_08_alternating_sampler_decorrelates_faster():
    res = run_sampler_bench(SamplerBenchConfig(seed=0, save_chains=False))
    per = res.summary["per_method"]
    gib, hmc = per["gibecca"]["mean_seconds"], per["hmc"]["mean_seconds"]
    _verdict("08 time between uncorrelated draws", gib < hmc,
             f"gibecca {gib:.4f}s vs hmc {hmc:.4f}s per uncorrelated draw")


# --------------------------------------------------------------------------
# 9. negative-half-line domain safety across stored samples and fits


def test_09_exponential_domain_never_violated():
    rng = make_rng(2026, 9)
    ops, violations = 0, 0

    def tally(theta):
        nonlocal ops, violations
        ops += theta.size
        violations += int(np.count_nonzero(theta >= 0.0))

    spec = PriorSpec(beta=0.4, a_hyper=ConjugateHyper(1.0, 1.0),
                     sigma_u=1.0, sigma_v=1.0)

    layout_g = make_layout("epca", 6, 2, "exponential")
    for run in range(3):
        theta_true = -np.exp(0.4 * rng.standard_normal((10, 6))) - 0.1
        obs = dense_observations(layout_g, theta_true, seed=90 + run)
        chain = run_gibecca(obs, layout_g, spec,
                            GibeccaOptions(n_samples=120, burn_in=60,
                                           seed=run))
        # the domain contract binds the Theta samples; the factor pair
        # belongs to the unconstrained Gaussian stage of this sampler
        for theta in chain.thetas:
            tally(theta)

    layout_h = make_layout("epca", 3, 1, "exponential")
    for run in range(2):
        theta_true = -np.exp(0.4 * rng.standard_normal((4, 3))) - 0.1
        obs = dense_observations(layout_h, theta_true, seed=95 + run)
        # sign-definite product keeps the start strictly inside the domain
        init = FactorState(0.2 + 0.3 * rng.random((4, 1)),
                           -(0.2 + 0.3 * rng.random((1, 3))), None)
        chain = run_hmc_chain(obs, layout_h, spec,
                              HmcOptions(n_samples=2_000, burn_in=300,
                                         step_size=0.05, seed=run,
                                         initial_state=init))
        for state in chain.states:
            tally(assemble_theta(state, layout_h))

    for run in range(30):
        n, d, k = (int(rng.integers(3, 8)), int(rng.integers(2, 6)),
                   int(rng.integers(1, 3)))
        # the mean row carries the moment-matched in-domain offset
        layout = make_layout("epca", d, k, "exponential",
                             use_mean_row=True)
        theta_true = -np.exp(0.4 * rng.standard_normal((n, d))) - 0.1
        obs = dense_observations(layout, theta_true, seed=500 + run)
        fit = fit_map(obs, layout, spec,
                      MapOptions(max_iter=150, seed=run))
        tally(assemble_theta(fit.state, layout))
        assert np.isfinite(fit.objective)

    assert EXPONENTIAL.in_domain(np.array(-1.0))
    _verdict("09 negative-half-line domain safety",
             ops >= 10_000 and violations == 0,
             f"{violations} violations over {ops} stored entries")


# --------------------------------------------------------------------------
# 10. rerunning every experiment recipe through the CLI is deterministic


def _run_recipe_twice(tmp_path, name, overrides):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps({"recipe": name, "overrides": overrides}))
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{name}-{tag}"
        assert main(["experiment", "--config", str(cfg_path),
                     "--out", str(out), "--seed", "12"]) == 0
        outs.append(out)
    return outs


def _max_metric_diff(out_a, out_b, name):
    import csv as _csv
    with open(out_a / f"{name}.csv") as fa, open(out_b / f"{name}.csv") as fb:
        rows_a, rows_b = list(_csv.DictReader(fa)), list(_csv.DictReader(fb))
    assert len(rows_a) == len(rows_b)
    worst = 0.0
    for ra, rb in zip(rows_a, rows_b):
        assert ra["method"] == rb["method"]
        assert ra["metric"] == rb["metric"]
        assert ra["status"] == "ok" and rb["status"] == "ok"
        if ra["metric"].endswith("seconds"):
            continue                       # wall clock is not reproducible
        worst = max(worst, abs(float(ra["value"]) - float(rb["value"])))
    return worst


def _chains_identical(out_a, out_b):
    dir_a, dir_b = out_a / "chains", out_b / "chains"
    if not dir_a.is_dir():
        return True
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for sub in names:
        bins = sorted(p.name for p in (dir_a / sub).iterdir()
                      if p.suffix == ".bin")
        assert bins, f"no samples under {dir_a / sub}"
        for b in bins:
            if (dir_a / sub / b).read_bytes() != (dir_b / sub / b).read_bytes():
                return False
        man_a = json.loads((dir_a / sub / "manifest.json").read_text())
        man_b = json.loads((dir_b / sub / "manifest.json").read_text())
        man_a.pop("wall_clock"), man_b.pop("wall_clock")
        if man_a != man_b:
            return False
    return True


def test_10_cli_recipes_rerun_deterministically(tmp_path):
    recipes = {
        "epls-vs-sepca": {"n_replicates": 2, "n_train": 14, "n_test": 20,
                          "d_features": 5, "k_specific": 1,
                          "sepca_components": [1], "alphas": [1.0],
                          "max_iter": 60, "restarts": 1},
        "beta-sweep": {"n_points": 3, "restarts": 2, "cv_folds": 3,
                       "cv_max_iter": 100, "max_iter": 200},
        "cca-knn": {"n_replicates": 1, "n_rows": 14, "d1": 6, "d2": 6,
                    "k_specific": 1, "n_samples": 60, "burn_in": 40,
                    "knn_k": 3, "knn_folds": 4,
                    "data_families": ["poisson"]},
        "sampler-bench": {"n_replicates": 1, "n_rows": 10, "d1": 4, "d2": 4,
                          "k_specific": 1, "gib_samples": 120, "gib_burn": 60,
                          "hmc_samples": 120, "hmc_burn": 60},
    }
    details = []
    ok = True
    for name, overrides in recipes.items():
        out_a, out_b = _run_recipe_twice(tmp_path, name, overrides)
        worst = _max_metric_diff(out_a, out_b, name)
        same_chains = _chains_identical(out_a, out_b)
        ok = ok and worst <= 1e-12 and same_chains
        details.append(f"{name}: metric diff {worst:.1e}"
                       + ("" if same_chains else ", CHAINS DIFFER"))
    _verdict("10 deterministic recipe reruns", ok, "; ".join(details))
