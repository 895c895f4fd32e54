"""Natural exponential families on the natural-parameter scale.

Each family is the one-dimensional density

    p(x | theta) = exp(x * theta + h(x) - g(theta)),

where g is the log-cumulant (log-partition) function and h the log base
measure.  Everything downstream works with theta directly, never with the
mean parametrisation, so the only things a family has to provide are g,
its first two derivatives (the mean and the variance) and a sampler; h,
the domain of theta and the support of x default to 0, every finite
theta and every finite x.  Family derives the conjugate-prior kernel

    log k(theta; lam, nu) = lam * theta - nu * g(theta),

which is the log density (up to normalisation) of the standard conjugate
prior with hyperparameters (lam, nu).

The engines call the unchecked _g, _gprime, _gsecond and _h through
model.EntryTerms, tested against the checked log_pdf and conj_log_kernel.

All functions broadcast over numpy arrays and accept scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

LOG_2PI = math.log(2.0 * math.pi)


class DomainError(ValueError):
    """A natural parameter lies outside the family's domain."""


class SupportError(ValueError):
    """An observation lies outside the family's support."""


@dataclass(frozen=True)
class ConjugateHyper:
    """Hyperparameters of the conjugate kernel exp(lam*theta - nu*g(theta)).

    nu acts as a prior pseudo-count and must be positive; lam is the prior
    pseudo-sum of observations.  Families put extra constraints on lam
    (checked by Family.validate_hyper): for Bernoulli the implied Beta
    parameters lam+1 and nu-lam+1 must be positive, so 0 < lam < nu is
    required there.
    """

    lam: float
    nu: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and np.isfinite(self.nu)):
            raise ValueError("conjugate hyperparameters must be finite")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")


class Family:
    """Base class; concrete families are stateless singletons."""

    name = "base"

    # domain / support ----------------------------------------------------

    def in_domain(self, theta):
        """Elementwise check that theta is a valid natural parameter: any
        finite value here."""
        return np.isfinite(theta)

    def in_support(self, x):
        """Elementwise check that x is a possible observation: any finite
        value here."""
        return np.isfinite(x)

    def _require_domain(self, theta):
        ok = self.in_domain(theta)
        if not np.all(ok):
            raise DomainError(f"{self.name}: natural parameter outside domain")

    def _require_support(self, x):
        ok = self.in_support(x)
        if not np.all(ok):
            raise SupportError(f"{self.name}: observation outside support")

    # checked densities ----------------------------------------------------

    def log_pdf(self, x, theta):
        """log p(x | theta) = x*theta + h(x) - g(theta)."""
        self._require_support(x)
        self._require_domain(theta)
        return np.asarray(x) * np.asarray(theta) + self._h(x) - self._g(theta)

    def conj_log_kernel(self, theta, hyper: ConjugateHyper):
        """lam*theta - nu*g(theta), elementwise."""
        self._require_domain(theta)
        return hyper.lam * np.asarray(theta, dtype=float) - hyper.nu * self._g(theta)

    def sample(self, theta, rng: np.random.Generator):
        """Draw x ~ p(. | theta) elementwise."""
        self._require_domain(theta)
        return self._sample(theta, rng)

    def validate_hyper(self, hyper: ConjugateHyper):
        """Raise ValueError if (lam, nu) is not admissible for this family."""
        # nu > 0 is already enforced by ConjugateHyper

    # starting points ------------------------------------------------------

    def moment_match(self, xbar, n_obs):
        """In-domain natural parameter matched to a mean of n_obs draws."""
        return xbar

    def start_entries(self, theta, x, observed, rng: np.random.Generator):
        """Refine a moment-matched starting Theta block entry by entry."""
        return theta

    def to_domain(self, theta):
        """Map an unconstrained draw into the domain (identity here)."""
        return theta

    def prediction_error(self, means, x_true):
        """Error of predicted means against observations: the mean
        squared error here."""
        return float(np.mean((means - x_true) ** 2))

    # internals ------------------------------------------------------------

    def _g(self, theta):
        raise NotImplementedError

    def _gprime(self, theta):
        raise NotImplementedError

    def _gprime_at(self, theta, g):
        """g'(theta) for g = g(theta) already computed.  A family whose
        g' can reuse g overrides this."""
        return self._gprime(theta)

    def _gsecond(self, theta):
        """g''(theta), the variance of x under theta."""
        raise NotImplementedError

    def _gsecond_at(self, theta, g):
        """g''(theta) for g = g(theta) already computed.  A family whose
        g'' can reuse g overrides this."""
        return self._gsecond(theta)

    def _h(self, x):
        """h(x), zero here (a unit base measure)."""
        return np.zeros_like(np.asarray(x, dtype=float))

    def _sample(self, theta, rng):
        raise NotImplementedError

    def __repr__(self):
        return f"<family {self.name}>"


class BernoulliLogit(Family):
    """x in {0, 1}, theta the log-odds, g(theta) = log(1 + e^theta).

    The conjugate prior with kernel exp(lam*theta - nu*g(theta)) is a
    Beta(lam + 1, nu - lam + 1) on the mean scale.
    """

    name = "bernoulli"

    def in_support(self, x):
        x = np.asarray(x)
        return (x == 0) | (x == 1)

    def _g(self, theta):
        # overflow-safe log(1 + e^theta): logaddexp branches at theta = 0
        return np.logaddexp(0.0, theta)

    def _gprime(self, theta):
        return special.expit(theta)

    def _gsecond(self, theta):
        # sigma(theta) (1 - sigma(theta)), without cancellation in 1 - sigma
        return special.expit(theta) * special.expit(-np.asarray(theta))

    def _sample(self, theta, rng):
        p = special.expit(theta)
        return (rng.random(size=np.shape(theta)) < p).astype(float)

    def moment_match(self, xbar, n_obs):
        p = (xbar * n_obs + 1.0) / (n_obs + 2.0)  # add-one smoothing
        return special.logit(p)

    def start_entries(self, theta, x, observed, rng):
        # small noise so identical columns do not start perfectly tied
        return theta + 0.1 * rng.standard_normal(x.shape)

    def prediction_error(self, means, x_true):
        # misclassification rate, thresholding the mean parameter at 0.5
        return float(np.mean((means > 0.5) != (x_true > 0.5)))

    def validate_hyper(self, hyper):
        if not (0.0 < hyper.lam < hyper.nu):
            raise ValueError(
                f"bernoulli needs 0 < lam < nu for a proper Beta prior, "
                f"got lam={hyper.lam}, nu={hyper.nu}"
            )


class PoissonLog(Family):
    """x in {0, 1, 2, ...}, theta the log-rate, g(theta) = e^theta."""

    name = "poisson"

    def in_support(self, x):
        x = np.asarray(x)
        return np.isfinite(x) & (x >= 0) & (x == np.floor(x))

    def _g(self, theta):
        with np.errstate(over="ignore"):
            return np.exp(theta)

    def _gprime(self, theta):
        with np.errstate(over="ignore"):
            return np.exp(theta)

    def _gprime_at(self, theta, g):
        # g' = g = e^theta
        return g

    def _gsecond(self, theta):
        with np.errstate(over="ignore"):
            return np.exp(theta)

    def _gsecond_at(self, theta, g):
        # g'' = g = e^theta
        return g

    def _h(self, x):
        return -special.gammaln(np.asarray(x, dtype=float) + 1.0)

    def _sample(self, theta, rng):
        rate = np.exp(theta)
        if np.any(rate > 1e15):
            raise ValueError("poisson rate too large to sample")
        return rng.poisson(rate, size=np.shape(theta)).astype(float)

    def moment_match(self, xbar, n_obs):
        return np.log(xbar + 0.5)

    def start_entries(self, theta, x, observed, rng):
        return np.where(observed, np.log(x + 0.5), theta)


class GaussianUnitVariance(Family):
    """x real with unit variance, theta the mean, g(theta) = theta^2 / 2."""

    name = "gaussian"

    def _g(self, theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * theta * theta

    def _gprime(self, theta):
        return np.asarray(theta, dtype=float)

    def _gsecond(self, theta):
        return np.ones_like(np.asarray(theta, dtype=float))

    def _h(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x * x - 0.5 * LOG_2PI

    def _sample(self, theta, rng):
        return np.asarray(theta, dtype=float) + rng.standard_normal(np.shape(theta))

    def start_entries(self, theta, x, observed, rng):
        return np.where(observed, x, theta)


class ExponentialRate(Family):
    """x >= 0 with rate -theta, theta < 0, g(theta) = -log(-theta).

    The domain is the open half-line; the rest of the code must keep
    iterates strictly negative, which the prior does via its -inf region.
    """

    name = "exponential"

    def in_domain(self, theta):
        theta = np.asarray(theta)
        return np.isfinite(theta) & (theta < 0)

    def in_support(self, x):
        x = np.asarray(x)
        return np.isfinite(x) & (x >= 0)

    def _g(self, theta):
        return -np.log(-np.asarray(theta, dtype=float))

    def _gprime(self, theta):
        return -1.0 / np.asarray(theta, dtype=float)

    def _gsecond(self, theta):
        theta = np.asarray(theta, dtype=float)
        return 1.0 / (theta * theta)

    def _sample(self, theta, rng):
        scale = -1.0 / np.asarray(theta, dtype=float)
        return rng.exponential(scale, size=np.shape(theta))

    def moment_match(self, xbar, n_obs):
        return np.maximum(-1.0 / (xbar + 1e-8), -1e6)

    def start_entries(self, theta, x, observed, rng):
        return np.minimum(theta, -1e-6)

    def to_domain(self, theta):
        # reflect onto the half-line; the magnitude still carries the factors
        return -np.abs(theta) - 0.1


BERNOULLI = BernoulliLogit()
POISSON = PoissonLog()
GAUSSIAN_UNIT = GaussianUnitVariance()
EXPONENTIAL = ExponentialRate()

FAMILIES = {f.name: f for f in (BERNOULLI, POISSON, GAUSSIAN_UNIT,
                                 EXPONENTIAL)}


def get_family(name) -> Family:
    """Look up a family by name; passes Family instances through."""
    if isinstance(name, Family):
        return name
    try:
        return FAMILIES[str(name).lower()]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; known: "
                         f"{', '.join(FAMILIES)}") from None
