"""Block-structured low-rank models for natural-parameter matrices.

A model is a factorisation Theta = U V (optionally plus a shared mean row)
of the N x D natural-parameter matrix of an exponential-family observation
matrix X.  Columns are split into up to two views and the K factor rows
into a shared block and per-view specific blocks:

    epca    single view, all K components shared
    sepca   two views stacked, all components shared, view-2 likelihood
            weighted by alpha
    epls    shared block loads on both views, a specific block on view 2
            only (its view-1 loadings are structural zeros)
    ecca    shared block on both views plus one specific block per view

The structural zeros live in a K x D boolean mask on V; entries under the
mask are pinned to exactly 0.  EntryTerms scores every entry of Theta,
for every engine, as one conjugate kernel a theta - b g(theta) + c whose
coefficients carry the data.  Views of one family score as one span of
columns, so the usual same-family layout passes over Theta once.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .expfam import DomainError, Family, get_family

MODEL_KINDS = ("epca", "sepca", "epls", "ecca")


class LayoutError(ValueError):
    """Inconsistent block layout."""


class ConfigError(ValueError):
    """Invalid configuration value (shared by CV, metrics and the CLI)."""


class ShapeError(ValueError):
    """Array shape does not match the layout."""


def as_int(value) -> int:
    """value as an int: an integer, a whole float or an integer string.

    A fractional number or a bool is refused rather than truncated.
    """
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, (float, np.floating)) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def as_float(value) -> float:
    """value as a float; a bool is refused rather than read as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


@dataclass
class BlockLayout:
    """Static description of the factorisation blocks.

    ranks = (k_shared, k_view1, k_view2); view_widths = (d1, d2) with
    d2 = 0 for single-view epca.  families and alpha have one entry per
    active view.  zero_mask is K x D, True where V is pinned to zero.
    """

    model_kind: str
    view_widths: tuple
    ranks: tuple
    families: tuple
    alpha: tuple
    use_mean_row: bool = False
    zero_mask: np.ndarray = field(repr=False, default=None)

    @property
    def n_views(self):
        return len(self.families)

    @property
    def k_total(self):
        return int(sum(self.ranks))

    @property
    def d_total(self):
        return int(sum(self.view_widths))

    @property
    def rows_view(self):
        k_s, k_1, k_2 = self.ranks
        return (slice(k_s, k_s + k_1), slice(k_s + k_1, k_s + k_1 + k_2))

    @property
    def cols_view(self):
        d1, d2 = self.view_widths
        return (slice(0, d1), slice(d1, d1 + d2))


def make_layout(model_kind, view_widths, ranks, families, alpha=None,
                use_mean_row=False) -> BlockLayout:
    """Validate a block description and materialise its zero mask.

    ranks may be given as a single int for epca/sepca (all shared) or as
    the full (k_shared, k_1, k_2) triple.
    """
    model_kind = str(model_kind).lower()
    if model_kind not in MODEL_KINDS:
        raise LayoutError(f"unknown model kind {model_kind!r}")

    if np.isscalar(view_widths):
        view_widths = (view_widths, 0)
    d1, d2 = (as_int(v) for v in view_widths)
    if d1 < 0 or d2 < 0:
        raise LayoutError("view widths must be non-negative")

    if np.isscalar(ranks):
        ranks = (ranks, 0, 0)
    if len(ranks) == 2:
        # (k_shared, k_2) shorthand for epls
        ranks = (ranks[0], 0, ranks[1])
    k_s, k_1, k_2 = (as_int(r) for r in ranks)
    if min(k_s, k_1, k_2) < 0 or k_s + k_1 + k_2 == 0:
        raise LayoutError("ranks must be non-negative with at least one component")

    if model_kind == "epca":
        if d2 != 0:
            raise LayoutError("epca is single-view; got a second view width")
        if k_1 or k_2:
            raise LayoutError("epca has no view-specific components")
    else:
        if d1 < 1 or d2 < 1:
            raise LayoutError(f"{model_kind} needs two non-empty views")
    if model_kind == "sepca" and (k_1 or k_2):
        raise LayoutError("sepca has no view-specific components")
    if model_kind == "epls" and k_1:
        raise LayoutError("epls has no view-1 specific block")
    if k_s == 0 and model_kind in ("epls", "ecca"):
        raise LayoutError(f"{model_kind} needs at least one shared component")

    n_views = 1 if d2 == 0 else 2
    if isinstance(families, (str, Family)):
        families = (families,) * n_views
    families = tuple(get_family(f) for f in families)
    if len(families) != n_views:
        raise LayoutError(f"expected {n_views} families, got {len(families)}")

    if alpha is None:
        alpha = (1.0,) * n_views
    if np.isscalar(alpha):
        alpha = (1.0, alpha) if n_views == 2 else (alpha,)
    alpha = tuple(as_float(a) for a in alpha)
    if len(alpha) != n_views or any(a <= 0 for a in alpha):
        raise LayoutError("alpha needs one positive weight per view")
    if model_kind != "sepca" and any(a != 1.0 for a in alpha):
        raise LayoutError("alpha weighting is only meaningful for sepca")

    k = k_s + k_1 + k_2
    d = d1 + d2
    mask = np.zeros((k, d), dtype=bool)
    # specific blocks load only on their own view
    mask[k_s:k_s + k_1, d1:] = True
    mask[k_s + k_1:, :d1] = True

    return BlockLayout(model_kind, (d1, d2), (k_s, k_1, k_2), families,
                       alpha, bool(use_mean_row), mask)


@dataclass
class FactorState:
    """A point (U, V [, mean_row]) in the factor parameter space."""

    u: np.ndarray
    v: np.ndarray
    mean_row: np.ndarray = None

    def copy(self):
        return FactorState(
            self.u.copy(), self.v.copy(),
            None if self.mean_row is None else self.mean_row.copy())

    def validate(self, layout: BlockLayout):
        k, d = layout.k_total, layout.d_total
        if self.u.ndim != 2 or self.u.shape[1] != k:
            raise ShapeError(f"U must be N x {k}, got {self.u.shape}")
        if self.v.shape != (k, d):
            raise ShapeError(f"V must be {k} x {d}, got {self.v.shape}")
        if layout.use_mean_row:
            if self.mean_row is None or self.mean_row.shape != (d,):
                raise ShapeError(f"mean_row must have shape ({d},)")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("factor state contains non-finite entries")
        if self.mean_row is not None and not np.all(np.isfinite(self.mean_row)):
            raise ValueError("mean_row contains non-finite entries")
        if np.any(self.v[layout.zero_mask] != 0.0):
            raise ValueError("structural zeros of V are not exactly zero")


def assemble_theta(state: FactorState, layout: BlockLayout) -> np.ndarray:
    """Theta = U V (+ mean_row broadcast over rows when the layout has one).

    U and V may be stacks (..., N, K) and (..., K, D); Theta is then the
    stack of their products.
    """
    if (state.u.shape[-1] != state.v.shape[-2]
            or state.v.shape[-1] != layout.d_total):
        raise ShapeError(
            f"cannot assemble: U is {state.u.shape}, V is {state.v.shape}, "
            f"layout D = {layout.d_total}")
    theta = state.u @ state.v
    if layout.use_mean_row and state.mean_row is not None:
        theta = theta + state.mean_row
    return theta


@dataclass
class ObservationSet:
    """Data matrix plus its observation mask and view metadata.

    x must be finite everywhere; unobserved entries carry an arbitrary
    in-support filler (the loader writes 0) and are never touched by the
    likelihood.  Likelihood weights (sepca's alpha) belong to the layout.
    """

    x: np.ndarray
    observed: np.ndarray
    view_widths: tuple
    families: tuple

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.observed = np.asarray(self.observed, dtype=bool)
        if self.x.ndim != 2 or self.observed.shape != self.x.shape:
            raise ShapeError("x and observed must be matching 2-d arrays")
        d1, d2 = (int(w) for w in self.view_widths)
        if d1 + d2 != self.x.shape[1]:
            raise ShapeError(f"view widths {d1}+{d2} != {self.x.shape[1]} columns")
        self.view_widths = (d1, d2)
        n_views = 1 if d2 == 0 else 2
        self.families = tuple(get_family(f) for f in self.families)
        if len(self.families) != n_views:
            raise ShapeError(f"expected {n_views} families")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("x must be finite; mark missing entries in the mask")
        for i, fam in enumerate(self.families):
            cols = self.view_cols(i)
            block, obs = self.x[:, cols], self.observed[:, cols]
            if np.any(obs) and not np.all(fam.in_support(block[obs])):
                raise ValueError(f"view {i + 1} has observed entries outside the "
                                 f"support of {fam.name}")

    @property
    def n_rows(self):
        return self.x.shape[0]

    def view_cols(self, i):
        d1, d2 = self.view_widths
        return (slice(0, d1), slice(d1, d1 + d2))[i]

    def subset_rows(self, idx):
        return ObservationSet(self.x[idx], self.observed[idx],
                              self.view_widths, self.families)

    def with_mask(self, observed):
        return ObservationSet(self.x, observed, self.view_widths,
                              self.families)


class EntryTerms:
    """The per-entry log terms every engine scores, span by span.

    Entry (n, d) of view i contributes its weighted log-likelihood plus
    the beta-weighted conjugate kernel, itself a conjugate kernel:

        w_i [obs] (x theta + h(x) - g(theta))
            + beta (lam_i theta - nu_i g(theta))  =  a theta - b g(theta) + c

    with a = w_i [obs] x + beta lam_i, b = w_i [obs] + beta nu_i and c =
    w_i [obs] h(x).  Adjacent views of one family form one span, a
    single column slice that every method passes over once, so a layout
    whose views share a family scores Theta in one piece.  Each span's
    coefficients are computed once, as N x D arrays where there is data,
    else as a scalar where the span's views agree and a row of
    per-column values where they differ (sepca's alpha, per-view
    hyperparameters); b is a scalar or row where the span is fully
    observed, c None where it is zero throughout (Bernoulli and
    exponential data), so never added.  An entry with b = 0 (unobserved
    at beta = 0) adds exactly 0 to every term, even where g overflows.
    With neither data nor beta > 0 nothing is scored (no domain check
    either).  The column slices cols partition the columns of theta,
    view by view.  rows(idx) gives the kernel of rows idx alone, for a
    caller that scores only some rows of theta.
    """

    def __init__(self, families, cols, x=None, mask=None, weights=None,
                 beta=0.0, hypers=None):
        self.spans = []
        if x is None and not beta > 0:
            return
        runs = []                    # [family, first view, last view]
        for i, (fam, view) in enumerate(zip(families, cols)):
            if runs and fam is runs[-1][0] and cols[i - 1].stop == view.start:
                runs[-1][2] = i
            else:
                runs.append([fam, i, i])
        for fam, first, last in runs:
            views = range(first, last + 1)
            span = slice(cols[first].start, cols[last].stop)
            widths = [cols[i].stop - cols[i].start for i in views]
            lam_nu = [(hypers[i].lam, hypers[i].nu) if beta > 0 else (0, 0)
                      for i in views]
            a = _per_column([beta * lam for lam, _ in lam_nu], widths)
            b = _per_column([beta * nu for _, nu in lam_nu], widths)
            c = None
            if x is not None:
                m = mask[:, span]
                w = _per_column([1.0 if weights is None else weights[i]
                                 for i in views], widths)
                # each array is formed in place, one at a time
                c = fam._h(x[:, span])
                c[~m] = 0.0
                c *= w
                beta_lam, a = a, np.where(m, x[:, span], 0.0)
                a *= w
                a += beta_lam
                b = w + b if m.all() else np.where(m, w + b, b)
            self.spans.append((fam, span, a, b, _nonzero_or_none(c),
                               _nonzero_or_none(b == 0)))

    def rows(self, idx):
        """The same kernel on rows idx of the data: each span's N-row
        coefficients and unscored mask sliced to those rows, scalars,
        per-column rows and None kept.  Its terms at theta[idx] equal
        rows idx of this kernel's terms at theta."""
        sub = copy.copy(self)
        sub.spans = [(fam, cols, *(arr[idx] if np.ndim(arr) == 2 else arr
                                   for arr in coefs))
                     for fam, cols, *coefs in self.spans]
        return sub

    def _alloc(self, theta):
        """An array shaped like theta for per-entry output: the spans
        cover every column, so only an empty kernel needs zeros."""
        return (np.empty_like if self.spans else np.zeros_like)(theta)

    def in_domain(self, theta):
        """Per slice of theta (..., N, D): True where every scored entry
        lies in its view family's domain."""
        ok = np.ones(np.shape(theta)[:-2], dtype=bool)
        for fam, cols, *_ in self.spans:
            ok &= np.all(fam.in_domain(theta[..., cols]), axis=(-2, -1))
        return ok

    def score(self, theta):
        """(values, gs): the entry values shaped like theta (..., N, D)
        and, per span, g of its columns of theta, for slopes to reuse.
        None when any entry leaves the domain of its view's family."""
        return self._score(theta, check=True)

    def _score(self, theta, check):
        vals = self._alloc(theta)
        gs = []
        for fam, cols, a, b, c, unscored in self.spans:
            t = theta[..., cols]
            if check and not np.all(fam.in_domain(t)):
                return None
            g = fam._g(t)
            val = vals[..., cols]
            np.multiply(a, t, out=val)
            if unscored is not None:
                # g is fresh and val this kernel's own, so both are
                # zeroed in place (a = 0 there: a theta was +-0)
                np.copyto(g, 0.0, where=unscored)
                np.copyto(val, 0.0, where=unscored)
            _subtract_product(val, b, g)
            if c is not None:
                val += c
            gs.append(g)
        return vals, gs

    def slopes(self, theta, gs):
        """d values / d theta, shaped like theta, from theta and the
        per-span g(theta) that score returned for it: a - b g'(theta)."""
        grad = self._alloc(theta)
        for (fam, cols, a, b, c, unscored), g in zip(self.spans, gs):
            mu = fam._gprime_at(theta[..., cols], g)
            out = grad[..., cols]
            np.multiply(b, _zero_at(mu, unscored), out=out)
            np.subtract(a, out, out=out)
        return grad

    def curvature(self, theta, gs, out=None):
        """Minus the second derivative of the entry terms wrt theta,
        shaped like theta, from theta and the per-span g(theta) that
        score returned for it: b g''(theta).  Every entry of theta must
        lie in the domain.  out, when given, receives the result and may
        be theta itself: each span reads its own columns of theta before
        it writes them."""
        if out is None:
            out = self._alloc(theta)
        elif not self.spans:
            out[...] = 0.0
        for (fam, cols, a, b, c, unscored), g in zip(self.spans, gs):
            g2 = fam._gsecond_at(theta[..., cols], g)
            np.multiply(b, _zero_at(g2, unscored), out=out[..., cols])
        return out

    def value(self, theta):
        """Sum of the entry terms over the last two axes: a float for one
        N x D theta, an array of per-slice sums for a stack (..., N, D).
        A slice with an entry outside the domain gives -inf and is not
        evaluated."""
        ok = self.in_domain(theta)
        if ok.all():
            sums = np.sum(self._score(theta, check=False)[0], axis=(-2, -1))
        else:
            sums = np.full(ok.shape, -np.inf)
            if ok.any():
                sums[ok] = np.sum(self._score(theta[ok], check=False)[0],
                                  axis=(-2, -1))
        return float(sums) if sums.ndim == 0 else sums

    def log_ratio(self, old, star):
        """Per-entry log ratio of the terms at star over those at old,
        a (star - old) - b (g(star) - g(old)), shaped like old (..., N,
        D); -inf where star leaves the domain."""
        out = self._alloc(old)
        for fam, cols, a, b, c, unscored in self.spans:
            o, s = old[..., cols], star[..., cols]
            dom = fam.in_domain(s)
            s = np.where(dom, s, o)
            dg = _zero_at(fam._g(s), unscored) - _zero_at(fam._g(o), unscored)
            r = a * (s - o) - b * dg
            out[..., cols] = np.where(dom, r, -np.inf)
        return out


def _per_column(values, widths):
    """One value per view of a span as a scalar when the views agree,
    else as a row that repeats each view's value across its columns."""
    if all(v == values[0] for v in values):
        return values[0]
    return np.repeat(np.array(values, dtype=float), widths)


# a block of rows formed at once fills about 256 KiB, which stays in a
# core's L2 cache while it is used
_BLOCK_BYTES = 1 << 18


def _subtract_product(out, b, g):
    """out -= b g a block of rows at a time, so that the product's
    temporary stays small; b is a scalar, a row or N x D like out's
    last two axes."""
    n = out.shape[-2]
    step = max(1, n * _BLOCK_BYTES // max(out.nbytes, 1))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        b_rows = b[rows] if np.ndim(b) == 2 else b
        out[..., rows, :] -= b_rows * g[..., rows, :]


def _nonzero_or_none(arr):
    """arr, or None when it has no nonzero entry: adding its zeros
    changes no value, at most the sign of a zero result."""
    return arr if np.any(arr) else None


def _zero_at(arr, unscored):
    """arr, or a copy that is 0 at the unscored entries: every term is +0
    there, even where arr overflowed."""
    return arr if unscored is None else np.where(unscored, 0.0, arr)


def likelihood_terms(obs: ObservationSet, layout: BlockLayout) -> EntryTerms:
    """The masked, alpha-weighted log-likelihood of obs entry by entry."""
    return EntryTerms(layout.families, layout.cols_view, obs.x, obs.observed,
                      layout.alpha)


def log_likelihood_theta(obs: ObservationSet, theta: np.ndarray,
                         layout: BlockLayout, *, kernel=None) -> float:
    """Masked, alpha-weighted log-likelihood at a given Theta matrix.

    The per-view alpha weights multiply whole columns of the elementwise
    log-pdf matrix and the result is reduced by a single sum over the
    full matrix, so that weighting with alpha = (1, 1) is bit-identical
    to the unweighted single-view computation.  Raises DomainError when
    Theta leaves a family's domain.  kernel, when given, is summed in
    place of likelihood_terms(obs, layout): that kernel built once for
    many Theta matrices, or one on another mask (held-out scoring).
    """
    if kernel is None:
        kernel = likelihood_terms(obs, layout)
    out = kernel.score(theta)
    if out is None:
        raise DomainError("natural parameter outside the family domain")
    return float(np.sum(out[0]))


def log_likelihood(obs: ObservationSet, state: FactorState,
                   layout: BlockLayout) -> float:
    """Masked, alpha-weighted log-likelihood of the observed entries."""
    return log_likelihood_theta(obs, assemble_theta(state, layout), layout)


# ---------------------------------------------------------------------------
# observation loading

def load_observations(csv_path, descriptor_path) -> ObservationSet:
    """Read a dense data matrix with an NA convention plus a JSON descriptor.

    The CSV holds one row per observation row; the token NA (case
    insensitive, or an empty field) marks a missing entry.  A header line
    is allowed and detected by its non-numeric fields.  The descriptor is
    a JSON object with keys view_widths and families.
    """
    with open(descriptor_path) as fh:
        desc = json.load(fh)
    for key in ("view_widths", "families"):
        if key not in desc:
            raise ValueError(f"descriptor {descriptor_path} is missing {key!r}")
    if "alpha" in desc:
        raise ValueError(f"descriptor {descriptor_path}: 'alpha' is not a "
                         "data property; set the sepca weights with "
                         "layout.alpha")
    view_widths = tuple(as_int(w) for w in desc["view_widths"])
    families = desc["families"]
    if isinstance(families, str):
        families = [families]

    rows, mask_rows = [], []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, fields in enumerate(reader, start=1):
            if not fields or (len(fields) == 1 and not fields[0].strip()):
                continue
            parsed, observed = [], []
            bad = False
            for tok in fields:
                tok = tok.strip()
                if tok == "" or tok.upper() == "NA":
                    parsed.append(0.0)
                    observed.append(False)
                    continue
                try:
                    parsed.append(float(tok))
                    observed.append(True)
                except ValueError:
                    bad = True
                    break
            if bad:
                if lineno == 1:
                    continue  # header line
                raise ValueError(f"{csv_path}:{lineno}: unparseable field")
            rows.append(parsed)
            mask_rows.append(observed)
    if not rows:
        raise ValueError(f"{csv_path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{csv_path}: ragged rows with widths {sorted(widths)}")

    x = np.asarray(rows, dtype=float)
    observed = np.asarray(mask_rows, dtype=bool)
    return ObservationSet(x, observed, view_widths, families)
