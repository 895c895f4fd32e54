"""Sample containers, chain recording and on-disk persistence.

A Chain stores post-burn-in samples of the factor state (and, when the
sampler infers them, the prior hyperparameters), together with a wall
clock and a scalar log-likelihood trace.  A MAP fit is the one-sample
case.  Persistence writes one flat little-endian float64 binary file per
sample plus a JSON manifest, so reruns with the same seed can be
compared byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .expfam import ConjugateHyper
from .model import (BlockLayout, FactorState, assemble_theta,
                    likelihood_terms, log_likelihood_theta)
from .prior import PriorSpec

FORMAT_VERSION = 1


@dataclass
class Chain:
    states: list
    wall_clock: np.ndarray          # seconds since chain start, per sample
    loglik: np.ndarray              # data log-likelihood per sample
    hypers: list = None             # PriorSpec per sample, when inferred
    thetas: list = None             # Theta per sample, when Theta is sampled
    stats: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self):
        return len(self.states)

    def validate(self):
        n = self.n_samples
        if len(self.wall_clock) != n or len(self.loglik) != n:
            raise ValueError("trace lengths do not match the sample count")
        if self.hypers is not None and len(self.hypers) != n:
            raise ValueError("hyper trace length does not match samples")
        if self.thetas is not None and len(self.thetas) != n:
            raise ValueError("theta trace length does not match samples")
        if n and np.any(np.diff(self.wall_clock) <= 0):
            raise ValueError("wall clock must be strictly increasing")

    def theta_samples(self, layout: BlockLayout):
        """Per-sample natural parameter matrices.

        Samplers that draw Theta directly store it; otherwise Theta is
        assembled from the factor samples.
        """
        if self.thetas is not None:
            return [np.asarray(t) for t in self.thetas]
        return [assemble_theta(s, layout) for s in self.states]


@dataclass
class ChainOptions:
    """Schedule and seed shared by the samplers' options."""
    n_samples: int = 500
    burn_in: int = 500
    thin: int = 1
    seed: int = 0


class ChainRecorder:
    """Sweep schedule and stored samples of one sampler chain.

    sweeps() yields (sweep, kept): kept marks every thin-th sweep after
    burn_in.  record() stores a kept sweep's state with a strictly
    increasing wall-clock time and its data log-likelihood, scored from
    the given Theta or else from the state; finish() builds the Chain.
    """

    def __init__(self, obs, layout: BlockLayout, opts: ChainOptions, engine,
                 thetas=False, hypers=False, **meta):
        self._obs, self._layout, self._opts = obs, layout, opts
        self._kernel = likelihood_terms(obs, layout)
        self._states, self._wall, self._loglik = [], [], []
        self._thetas = [] if thetas else None
        self._hypers = [] if hypers else None
        self._meta = dict(engine=engine, seed=opts.seed,
                          n_samples=opts.n_samples, burn_in=opts.burn_in,
                          thin=opts.thin, **meta)

    def sweeps(self):
        o = self._opts
        self._t0 = time.perf_counter()
        for sweep in range(o.burn_in + o.n_samples * o.thin):
            yield sweep, (sweep >= o.burn_in
                          and (sweep - o.burn_in) % o.thin == 0)

    def record(self, state: FactorState, theta=None, hyper=None):
        prev = self._wall[-1] if self._wall else 0.0
        self._wall.append(max(time.perf_counter() - self._t0, prev + 1e-9))
        self._states.append(state)
        if self._thetas is not None:
            self._thetas.append(theta)
        if self._hypers is not None:
            self._hypers.append(hyper)
        if theta is None:
            theta = assemble_theta(state, self._layout)
        self._loglik.append(log_likelihood_theta(
            self._obs, theta, self._layout, kernel=self._kernel))

    def finish(self, stats: dict) -> Chain:
        chain = Chain(self._states, np.asarray(self._wall),
                      np.asarray(self._loglik), self._hypers, self._thetas,
                      stats, self._meta)
        chain.validate()
        return chain


def shared_latent_mean(chain: Chain, layout: BlockLayout) -> np.ndarray:
    """Posterior mean of the shared factor rows with sign alignment.

    Each shared component's sign is free to flip between samples (U_k and
    V_k can be negated together), which would wash the plain mean out to
    zero.  Every sample's components are therefore aligned to the first
    sample by the sign of their inner product before averaging.
    """
    if chain.n_samples == 0:
        raise ValueError("empty chain")
    k_s = layout.ranks[0]
    ref = chain.states[0].u[:, :k_s]
    acc = np.zeros_like(ref)
    for s in chain.states:
        block = s.u[:, :k_s]
        signs = np.sign(np.sum(block * ref, axis=0))
        signs[signs == 0] = 1.0
        acc += block * signs
    return acc / chain.n_samples


# ---------------------------------------------------------------------------
# persistence

def _fields(man):
    """(name, shape) of each array of one .bin file, in file order, as
    described by its manifest."""
    n, k, d = man["n_rows"], man["k_total"], man["d_total"]
    fields = [("u", (n, k)), ("v", (k, d))]
    if man["has_mean"]:
        fields.append(("mean_row", (d,)))
    if man["has_theta"]:
        fields.append(("theta", (n, d)))
    if man["has_hyper"]:
        r = man["n_views"]
        fields += [("sigma_u", (k,)), ("sigma_v", (k,)), ("lam", (r,)),
                   ("nu", (r,))]
    return fields


def _read_manifest(path) -> dict:
    with open(path) as fh:
        man = json.load(fh)
    if man.get("format") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format {man.get('format')!r}")
    return man


def _write_fields(path, fields, values):
    with open(path, "wb") as fh:
        fh.write(b"".join(
            np.ascontiguousarray(values[name], dtype="<f8").reshape(shape)
            .tobytes() for name, shape in fields))


def _read_fields(path, fields) -> dict:
    """name -> array; raises ValueError naming the file when its length
    does not match the fields."""
    flat = np.fromfile(path, dtype="<f8")
    sizes = [math.prod(shape) for _, shape in fields]
    if flat.size != sum(sizes):
        raise ValueError(f"{path}: holds {flat.size} float64 values, "
                         f"its manifest describes {sum(sizes)}")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return {name: part.reshape(shape)
            for (name, shape), part in zip(fields, parts)}


def save_chain(chain: Chain, dirpath, layout: BlockLayout):
    """Write one .bin per sample plus manifest.json into dirpath."""
    chain.validate()
    os.makedirs(dirpath, exist_ok=True)
    has_hyper = chain.hypers is not None
    has_theta = chain.thetas is not None
    first = chain.states[0] if chain.n_samples else None
    first_hyper = chain.hypers[0] if chain.hypers else None
    manifest = {
        "format": FORMAT_VERSION,
        "n_samples": chain.n_samples,
        "n_rows": int(first.u.shape[0]) if first is not None else 0,
        "k_total": int(layout.k_total),
        "d_total": int(layout.d_total),
        "n_views": layout.n_views,
        "has_mean": first is not None and first.mean_row is not None,
        "has_hyper": has_hyper,
        "has_theta": has_theta,
        "beta": None if first_hyper is None else first_hyper.beta,
        "gamma": None if first_hyper is None else first_hyper.gamma,
        "wall_clock": [float(t) for t in chain.wall_clock],
        "loglik": [float(v) for v in chain.loglik],
        "stats": chain.stats,
        "meta": chain.meta,
    }
    fields = _fields(manifest)
    for i, state in enumerate(chain.states):
        values = {"u": state.u, "v": state.v, "mean_row": state.mean_row}
        if has_theta:
            values["theta"] = chain.thetas[i]
        if has_hyper:
            hyper = chain.hypers[i]
            values["sigma_u"], values["sigma_v"] = hyper.sigmas(layout)
            views = [hyper.hyper_for_view(j) for j in range(layout.n_views)]
            values["lam"] = [h.lam for h in views]
            values["nu"] = [h.nu for h in views]
        _write_fields(os.path.join(dirpath, f"sample_{i:06d}.bin"), fields,
                      values)
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def load_chain(dirpath) -> Chain:
    man = _read_manifest(os.path.join(dirpath, "manifest.json"))
    fields = _fields(man)
    states = []
    hypers = [] if man["has_hyper"] else None
    thetas = [] if man["has_theta"] else None
    for i in range(man["n_samples"]):
        f = _read_fields(os.path.join(dirpath, f"sample_{i:06d}.bin"),
                         fields)
        states.append(FactorState(f["u"], f["v"], f.get("mean_row")))
        if thetas is not None:
            thetas.append(f["theta"])
        if hypers is not None:
            hyp = tuple(ConjugateHyper(float(l), float(m))
                        for l, m in zip(f["lam"], f["nu"]))
            hypers.append(PriorSpec(beta=man["beta"], a_hyper=hyp,
                                    sigma_u=f["sigma_u"],
                                    sigma_v=f["sigma_v"],
                                    gamma=man["gamma"]))
    chain = Chain(states, np.asarray(man["wall_clock"]),
                  np.asarray(man["loglik"]), hypers, thetas,
                  man["stats"], man["meta"])
    chain.validate()
    return chain

