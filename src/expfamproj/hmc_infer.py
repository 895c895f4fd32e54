"""Hybrid Monte Carlo over the factor state, with exchange moves for the
prior hyperparameters.

The chain targets exp(log_likelihood + log_prior_unnorm) over the free
coordinates (U, the unmasked entries of V, the mean row if present).
Because the composite prior's normaliser Z(psi) is intractable in the
hyperparameters, psi moves use the exchange algorithm: propose psi', draw
auxiliary factors (U*, V*) approximately from the prior at psi' with an
inner chain, and correct the MH ratio by f(U*, V* | psi) / f(U*, V* | psi'),
which cancels the unknown normalisers in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import Chain, ChainOptions, ChainRecorder
from .expfam import ConjugateHyper
from .model import (BlockLayout, ConfigError, FactorState, ObservationSet,
                    assemble_theta)
from .map_infer import FreeParams, _check_obs_layout, init_state
from .prior import GaussianBlocks, PriorSpec, log_prior_unnorm

TARGET_ACCEPT = 0.75
ADAPT_RATE = 0.05
# Theta entries scored per batched kernel pass of an inner prior chain:
# enough candidates to amortise the per-call overhead at small shapes, few
# enough that each array of a chunk stays near half a megabyte
_CHUNK_ENTRIES = 2 ** 16


class ChainError(RuntimeError):
    """The sampler collapsed (acceptance rate effectively zero)."""


@dataclass
class ExchangeOptions:
    inner_sweeps: int = 200
    prop_scale: float = 0.25


@dataclass
class HmcOptions(ChainOptions):
    step_size: float = 0.05
    n_leapfrog: int = 20
    infer_hyper: bool = False
    fix_v: np.ndarray = None          # pin V (excluded from sampling)
    initial_state: FactorState = None
    exchange: ExchangeOptions = field(default_factory=ExchangeOptions)


# ---------------------------------------------------------------------------
# one HMC transition

def _leapfrog(x, p, grad, fn, step_size, n_steps):
    """Standard leapfrog; returns (x, p, logp, grad) or None on a non-finite
    gradient or log-density anywhere along the trajectory."""
    x = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        p = p + 0.5 * step_size * grad
        for i in range(n_steps):
            x = x + step_size * p
            if not np.all(np.isfinite(x)):
                return None
            logp, grad = fn(x)
            if grad is None or not np.all(np.isfinite(grad)):
                return None
            p = p + (0.5 if i == n_steps - 1 else 1.0) * step_size * grad
    return x, p, logp, grad


def _hmc_transition(x, logp, grad, fn, step_size, n_leapfrog, rng):
    p0 = rng.standard_normal(x.size)
    h0 = -logp + 0.5 * float(p0 @ p0)
    out = _leapfrog(x, p0, grad, fn, step_size, n_leapfrog)
    if out is None:
        return x, logp, grad, False, True
    x1, p1, logp1, grad1 = out
    with np.errstate(over="ignore"):
        h1 = -logp1 + 0.5 * float(p1 @ p1)
    if np.log(rng.random()) < h0 - h1:
        return x1, logp1, grad1, True, False
    return x, logp, grad, False, False


def hmc_step(state: FactorState, obs: ObservationSet, layout: BlockLayout,
             spec: PriorSpec, step_size, n_leapfrog,
             rng: np.random.Generator, free: FreeParams = None):
    """One HMC transition from `state`; returns (state', accepted).

    Gaussian momenta with identity mass, n_leapfrog leapfrog steps.  A
    non-finite gradient or log density anywhere along the trajectory
    rejects the trajectory.  Pass a FreeParams with fix_v to sample U only.
    """
    free = free or FreeParams(layout, state)
    fn = free.log_density(obs, spec)
    x = free.pack(state)
    logp, grad = fn(x)
    if grad is None:
        raise ValueError("hmc_step started at a state with -inf density")
    x1, logp1, grad1, accepted, _ = _hmc_transition(
        x, logp, grad, fn, step_size, n_leapfrog, rng)
    return free.unpack(x1), accepted


# ---------------------------------------------------------------------------
# exchange moves on the prior hyperparameters

def _hyper_blocks(spec: PriorSpec, layout: BlockLayout):
    """Round-robin block names: sigma_u, each sigma_v component, (lam, nu)."""
    blocks = ["sigma_u"]
    if np.ndim(spec.sigma_v) == 0:
        blocks.append("sigma_v")
    else:
        blocks += [f"sigma_v:{k}" for k in range(layout.k_total)]
    blocks += [f"conj:{i}" for i in range(len(spec.a_hyper))]
    return blocks


def _propose_block(spec: PriorSpec, layout: BlockLayout, block: str,
                   rng: np.random.Generator, scale: float):
    """Log-normal random-walk proposal on one hyperparameter block.

    Returns the proposed spec, or None when the proposal leaves the
    support (e.g. a Bernoulli view needs 0 < lam < nu).  The log-normal
    walk is reversible against the flat-in-log hyperprior, so the
    Hastings and prior factors cancel exactly in the acceptance ratio.
    """
    if block in ("sigma_u", "sigma_v"):
        cur = np.asarray(getattr(spec, block), dtype=float)
        prop = cur * np.exp(scale * rng.standard_normal(cur.shape))
        return spec.replace(**{block: prop if cur.ndim else float(prop)})
    if block.startswith("sigma_v:"):
        k = int(block.split(":")[1])
        sv = spec.sigmas(layout)[1]
        sv[k] *= np.exp(scale * rng.standard_normal())
        return spec.replace(sigma_v=sv)
    if block.startswith("conj:"):
        i = int(block.split(":")[1])
        hyps = list(spec.a_hyper)
        h = hyps[i]
        lam = h.lam * np.exp(scale * rng.standard_normal())
        nu = h.nu * np.exp(scale * rng.standard_normal())
        hyps[i] = ConjugateHyper(float(lam), float(nu))
        prop = spec.replace(a_hyper=tuple(hyps))
        try:
            prop.validate_for(layout)
        except ValueError:
            return None
        return prop
    raise ValueError(f"unknown hyperparameter block {block!r}")


def sample_prior_approx(spec: PriorSpec, layout: BlockLayout, n_rows: int,
                        rng: np.random.Generator,
                        opts: ExchangeOptions = None, mean_row=None):
    """Approximate draw of (U*, V*) from the composite prior at spec.

    Independence MH: proposals come from the Gaussian part b^gamma c^gamma
    (exact, so the acceptance ratio reduces to the conjugate term's ratio;
    with beta = 0 every sweep is an exact independent draw).  A fixed-lag
    stationarity heuristic compares the means of the first and second half
    of the log f trace; returns (state, flagged) with flagged = True when
    the halves disagree beyond three combined standard errors or no
    proposal was ever accepted.

    Each sweep draws U's normals, then V's, then one uniform, whatever
    its outcome.  The sweeps run in chunks: a chunk's random numbers are
    drawn in that order, its candidates' Theta come from one batched
    product and are scored by one pass of the entrywise kernel, and the
    accept/reject decisions then run in sweep order.  The Gaussian terms
    of log f are computed once per state the chain holds, not once per
    sweep, from constants computed once per call.
    """
    opts = opts or ExchangeOptions()
    if spec.gamma <= 0:
        raise ConfigError("exchange sampling needs gamma > 0 proposals")
    blocks = GaussianBlocks(spec, layout, n_rows)
    su, sv = blocks.sigmas
    sd_u = np.sqrt(su / spec.gamma)
    sd_v = np.sqrt(sv / spec.gamma)
    k, d = layout.k_total, layout.d_total
    kernel = spec.entry_terms(layout)

    def draw(m, log_unif=None):
        """m candidates (us, vs) with the beta-weighted conjugate part of
        each one's log prior, -inf out of domain; fills log_unif with one
        log uniform per candidate when given."""
        us, vs = np.empty((m, n_rows, k)), np.empty((m, k, d))
        for j in range(m):
            rng.standard_normal(out=us[j])
            rng.standard_normal(out=vs[j])
            if log_unif is not None:
                log_unif[j] = np.log(rng.random())
        us *= sd_u
        vs *= sd_v[:, None]
        vs[:, layout.zero_mask] = 0.0
        theta = assemble_theta(FactorState(us, vs, mean_row), layout)
        return us, vs, kernel.value(theta)

    def draw_one():
        us, vs, conj = draw(1)
        return FactorState(us[0], vs[0], mean_row), conj[0]

    state, conj = draw_one()
    for _ in range(50):
        if np.isfinite(conj):
            break
        state, conj = draw_one()
    else:
        return state, True

    trace = np.empty(opts.inner_sweeps)
    n_accept = 0
    gauss = None     # gamma * (log b + log c) at state, once a trace needs it
    chunk = max(1, _CHUNK_ENTRIES // max(1, n_rows * d))
    for start in range(0, opts.inner_sweeps, chunk):
        log_unif = np.empty(min(chunk, opts.inner_sweeps - start))
        us, vs, conj_c = draw(len(log_unif), log_unif)
        for j, log_u in enumerate(log_unif):
            if log_u < conj_c[j] - conj:
                state, conj = FactorState(us[j], vs[j], mean_row), conj_c[j]
                n_accept += 1
                gauss = None
            if gauss is None:
                log_b, log_c = blocks.terms(state.u, state.v)
                gauss = spec.gamma * (log_b + log_c)
            trace[start + j] = conj + gauss

    half = opts.inner_sweeps // 2
    first, second = trace[:half], trace[half:]
    se = np.sqrt(first.var() / max(len(first), 1)
                 + second.var() / max(len(second), 1))
    flagged = (n_accept == 0) or \
        (abs(first.mean() - second.mean()) > 3.0 * se + 1e-12)
    return state, flagged


def exchange_update_hyper(spec: PriorSpec, state: FactorState,
                          layout: BlockLayout, block: str,
                          rng: np.random.Generator,
                          opts: ExchangeOptions = None):
    """One exchange move on a hyperparameter block.

    Acceptance ratio: f(state | psi') / f(state | psi) times the exchange
    correction f(aux | psi) / f(aux | psi'), with aux drawn approximately
    from the prior at psi'.  Returns (spec', info); spec' is the input
    spec on rejection.  A failed inner-chain convergence check rejects the
    move and sets info['flagged'].
    """
    opts = opts or ExchangeOptions()
    prop = _propose_block(spec, layout, block, rng, opts.prop_scale)
    info = {"block": block, "accepted": False, "flagged": False}
    if prop is None:
        return spec, info
    aux, flagged = sample_prior_approx(prop, layout, state.u.shape[0], rng,
                                       opts, mean_row=state.mean_row)
    if flagged:
        info["flagged"] = True
        return spec, info
    log_r = (log_prior_unnorm(state, prop, layout)
             - log_prior_unnorm(state, spec, layout)
             + log_prior_unnorm(aux, spec, layout)
             - log_prior_unnorm(aux, prop, layout))
    if np.log(rng.random()) < log_r:
        info["accepted"] = True
        return prop, info
    return spec, info


# ---------------------------------------------------------------------------
# the full chain

def run_hmc_chain(obs: ObservationSet, layout: BlockLayout, spec: PriorSpec,
                  opts: HmcOptions = None) -> Chain:
    """HMC chain with burn-in-only step-size adaptation.

    The step size multiplies up on acceptance and down on rejection so its
    equilibrium acceptance rate sits at 75%, inside the 65-85% band;
    adaptation freezes after burn-in.  With infer_hyper, one exchange move
    on one hyperparameter block (round-robin) runs after every HMC sweep.
    Raises ChainError when the post-adaptation acceptance rate drops below
    1% (the step size survived adaptation too large).
    """
    opts = opts or HmcOptions()
    spec.validate_for(layout)
    _check_obs_layout(obs, layout)
    if opts.infer_hyper and spec.gamma <= 0:
        raise ConfigError("hyperparameter inference needs gamma > 0")
    rng = np.random.default_rng(np.random.SeedSequence([opts.seed, 7]))

    if opts.initial_state is not None:
        state = opts.initial_state.copy()
    else:
        state = init_state(obs, layout, rng)
    if opts.fix_v is not None:
        state.v = np.asarray(opts.fix_v, dtype=float).copy()
    state.validate(layout)
    free = FreeParams(layout, state, fix_v=opts.fix_v is not None)
    fn = free.log_density(obs, spec)
    x = free.pack(state)
    logp, grad = fn(x)
    if grad is None:
        raise ChainError("initial state has -inf posterior density")

    blocks = _hyper_blocks(spec, layout) if opts.infer_hyper else []
    step_size = float(opts.step_size)
    n_acc_sample = n_acc_burn = 0
    n_divergent = 0
    exch_stats = {"accepted": 0, "flagged": 0, "proposed": 0}
    rec = ChainRecorder(obs, layout, opts, "hmc", hypers=opts.infer_hyper,
                        n_leapfrog=opts.n_leapfrog,
                        infer_hyper=opts.infer_hyper)

    for sweep, kept in rec.sweeps():
        in_burn = sweep < opts.burn_in
        x, logp, grad, accepted, divergent = _hmc_transition(
            x, logp, grad, fn, step_size, opts.n_leapfrog, rng)
        n_divergent += divergent
        if in_burn:
            n_acc_burn += accepted
            if accepted:
                step_size *= np.exp(ADAPT_RATE * (1.0 - TARGET_ACCEPT))
            else:
                step_size *= np.exp(-ADAPT_RATE * TARGET_ACCEPT)
        else:
            n_acc_sample += accepted

        if blocks:
            block = blocks[sweep % len(blocks)]
            spec, info = exchange_update_hyper(
                spec, free.unpack(x), layout, block, rng, opts.exchange)
            exch_stats["proposed"] += 1
            exch_stats["accepted"] += info["accepted"]
            exch_stats["flagged"] += info["flagged"]
            if info["accepted"]:
                fn = free.log_density(obs, spec)
                logp, grad = fn(x)

        if kept:
            rec.record(free.unpack(x), hyper=spec)

    n_kept = opts.n_samples * opts.thin
    if n_kept > 0 and n_acc_sample / n_kept < 0.01:
        raise ChainError(
            f"post-adaptation acceptance rate {n_acc_sample / n_kept:.4f} "
            f"below 1%; try a smaller step_size")

    return rec.finish({
        "accept_rate": (n_acc_sample / n_kept) if n_kept else None,
        "accept_rate_burnin": (n_acc_burn / opts.burn_in) if opts.burn_in else None,
        "step_size_final": float(step_size),
        "divergent": n_divergent,
        "exchange": exch_stats if blocks else None,
    })
