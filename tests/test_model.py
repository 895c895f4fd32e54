"""Layout construction, Theta assembly, masked likelihoods, data loading."""

import json
import warnings

import numpy as np
import pytest

from expfamproj import (ConfigError, ConjugateHyper, FactorState,
                        LayoutError, ObservationSet, ShapeError,
                        assemble_theta, get_family,
                        load_observations, log_likelihood,
                        log_likelihood_theta, make_layout)
from expfamproj.model import (EntryTerms, as_int, likelihood_terms,
                              log_pdf_sums_at)

from conftest import dense_observations, make_rng

LOG2 = np.log(2.0)


# ------------------------------------------------------------------ layout

def test_epca_layout_scalars_expand():
    lay = make_layout("epca", 6, 2, "poisson")
    assert lay.view_widths == (6, 0)
    assert lay.ranks == (2, 0, 0)
    assert lay.k_total == 2 and lay.d_total == 6
    assert not lay.zero_mask.any()


def test_epls_layout_zero_block():
    # one shared component, five target-specific ones; the cross block
    # (specific rows x view-1 cols) is structurally zero
    lay = make_layout("epls", (1, 20), (1, 5), ("gaussian", "gaussian"))
    assert lay.ranks == (1, 0, 5)
    assert lay.k_total == 6 and lay.d_total == 21
    mask = lay.zero_mask
    assert mask.shape == (6, 21)
    assert mask[1:, :1].all()
    assert not mask[:1, :].any()
    assert not mask[:, 1:].any()
    assert mask.sum() == 5


def test_ecca_layout_opposite_corners():
    lay = make_layout("ecca", (20, 20), (1, 2, 2),
                      ("poisson", "bernoulli"))
    mask = lay.zero_mask
    assert mask.shape == (5, 40)
    # view-1-specific rows are zero on view 2 and vice versa
    assert mask[1:3, 20:].all()
    assert mask[3:5, :20].all()
    assert not mask[0].any()
    assert mask.sum() == 2 * 20 + 2 * 20


def test_sepca_layout_has_no_zeros_and_alpha():
    lay = make_layout("sepca", (3, 4), 2, ("gaussian", "bernoulli"),
                      alpha=1e-3)
    assert not lay.zero_mask.any()
    assert lay.alpha == (1.0, 1e-3)


def test_layout_slices_partition_columns():
    lay = make_layout("ecca", (3, 4), (1, 2, 2), ("gaussian", "poisson"))
    cols = np.zeros(lay.d_total, dtype=int)
    for i in range(lay.n_views):
        cols[lay.cols_view[i]] += 1
    assert np.all(cols == 1)
    assert lay.cols_view[:lay.n_views] == (slice(0, 3), slice(3, 7))
    assert [f.name for f in lay.families] == ["gaussian", "poisson"]


def test_make_layout_rejections():
    with pytest.raises(LayoutError):
        make_layout("epca", (3, 4), 2, ("gaussian", "gaussian"))
    with pytest.raises(LayoutError):
        make_layout("sepca", (3, 4), (1, 2, 2), ("gaussian", "gaussian"))
    with pytest.raises(LayoutError):
        make_layout("epls", (3, 4), (1, 2, 2), ("gaussian", "gaussian"))
    with pytest.raises(LayoutError):
        make_layout("ecca", (3, 4), (0, 2, 2), ("gaussian", "gaussian"))
    with pytest.raises(LayoutError):
        make_layout("epca", 3, 2, "gaussian", alpha=0.5)
    with pytest.raises(LayoutError):
        make_layout("ecca", (3, 0), (1, 1, 1), ("gaussian", "gaussian"))
    with pytest.raises(LayoutError):
        make_layout("pls", (3, 4), (1, 0, 2), ("gaussian", "gaussian"))


def test_as_int_accepts_whole_values_only():
    """Integer fields used to go through int(), which truncates 2.7 to 2
    and reads True as 1."""
    assert as_int(2**64 + 1) == 2**64 + 1   # never rounded through float
    assert as_int(3.0) == 3 and type(as_int(3.0)) is int
    assert as_int("4") == 4
    assert as_int(np.int64(5)) == 5
    for bad in (2.7, "2.5", True, np.bool_(False), float("inf"), None, [3]):
        with pytest.raises((TypeError, ValueError)):
            as_int(bad)
    with pytest.raises(ValueError):
        make_layout("epca", 5.5, 2, "gaussian")
    with pytest.raises(ValueError):
        make_layout("epls", (1, 8), (2, 3.5), ("gaussian", "poisson"))


def test_epls_rank_shorthand():
    full = make_layout("epls", (1, 8), (2, 0, 3), ("gaussian", "poisson"))
    short = make_layout("epls", (1, 8), (2, 3), ("gaussian", "poisson"))
    assert full.ranks == short.ranks == (2, 0, 3)


# ---------------------------------------------------------------- assembly

def test_epls_worked_example():
    """U_S=[[1]], V_S=[2 | 3], U_2=[[1]], V_2=[0 | 4] gives Theta=[2, 7]."""
    lay = make_layout("epls", (1, 1), (1, 1), ("gaussian", "gaussian"))
    u = np.array([[1.0, 1.0]])
    v = np.array([[2.0, 3.0],
                  [0.0, 4.0]])
    state = FactorState(u, v)
    state.validate(lay)
    theta = assemble_theta(state, lay)
    assert np.allclose(theta, [[2.0, 7.0]])


def test_view_specific_rows_do_not_touch_other_view():
    lay = make_layout("epls", (2, 3), (1, 2), ("gaussian", "gaussian"))
    rng = make_rng(8, 1)
    u = rng.standard_normal((5, lay.k_total))
    v = rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    base = assemble_theta(FactorState(u, v), lay)
    u2 = u.copy()
    u2[:, 1:] += rng.standard_normal((5, 2))
    bumped = assemble_theta(FactorState(u2, v), lay)
    cols1 = lay.cols_view[0]
    assert np.array_equal(base[:, cols1], bumped[:, cols1])
    assert not np.allclose(base[:, lay.cols_view[1]],
                           bumped[:, lay.cols_view[1]])


def test_ecca_blockwise_equals_full_product():
    lay = make_layout("ecca", (3, 4), (1, 2, 2), ("gaussian", "gaussian"))
    rng = make_rng(8, 2)
    u = rng.standard_normal((6, lay.k_total))
    v = rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    theta = assemble_theta(FactorState(u, v), lay)
    # block arithmetic: each view sees shared rows plus its own rows only
    c1, c2 = lay.cols_view
    t1 = u[:, :1] @ v[:1, c1] + u[:, 1:3] @ v[1:3, c1]
    t2 = u[:, :1] @ v[:1, c2] + u[:, 3:5] @ v[3:5, c2]
    assert np.allclose(theta[:, c1], t1, atol=1e-12)
    assert np.allclose(theta[:, c2], t2, atol=1e-12)


def test_mean_row_broadcasts():
    lay = make_layout("epca", 3, 1, "gaussian", use_mean_row=True)
    state = FactorState(np.zeros((4, 1)), np.zeros((1, 3)),
                        mean_row=np.array([1.0, -2.0, 0.5]))
    theta = assemble_theta(state, lay)
    assert np.allclose(theta, np.tile([1.0, -2.0, 0.5], (4, 1)))


def test_validate_rejects_nonzero_structural_zeros():
    lay = make_layout("epls", (1, 2), (1, 1), ("gaussian", "gaussian"))
    v = np.ones((2, 3))
    with pytest.raises(ValueError):
        FactorState(np.ones((2, 2)), v).validate(lay)


# -------------------------------------------------------------- likelihood

def test_single_bernoulli_loglik():
    lay = make_layout("epca", 1, 1, "bernoulli")
    obs = ObservationSet(np.array([[1.0]]), np.array([[True]]),
                         lay.view_widths, lay.families)
    assert log_likelihood_theta(obs, np.array([[0.0]]), lay) == \
        pytest.approx(-LOG2, rel=1e-12)


def test_unobserved_entries_do_not_count():
    lay = make_layout("epca", 2, 1, "poisson")
    x = np.array([[1.0, 3.0]])
    all_on = ObservationSet(x, np.array([[True, True]]),
                            lay.view_widths, lay.families)
    one_off = ObservationSet(x, np.array([[True, False]]),
                             lay.view_widths, lay.families)
    theta = np.array([[0.2, 0.9]])
    fam = get_family("poisson")
    diff = log_likelihood_theta(all_on, theta, lay) \
        - log_likelihood_theta(one_off, theta, lay)
    assert diff == pytest.approx(float(fam.log_pdf(3.0, 0.9)), rel=1e-10)


def test_empty_mask_gives_zero():
    lay = make_layout("epca", 2, 1, "gaussian")
    obs = ObservationSet(np.zeros((3, 2)), np.zeros((3, 2), dtype=bool),
                         lay.view_widths, lay.families)
    assert log_likelihood_theta(obs, np.ones((3, 2)), lay) == 0.0


def test_alpha_weights_view_two():
    lay = make_layout("sepca", (2, 3), 1, ("gaussian", "gaussian"),
                      alpha=1e-3)
    rng = make_rng(8, 3)
    theta = rng.standard_normal((4, 5))
    obs = dense_observations(lay, theta, seed=81)
    total = log_likelihood_theta(obs, theta, lay)
    lay1 = make_layout("epca", 2, 1, "gaussian")
    lay2 = make_layout("epca", 3, 1, "gaussian")
    obs1 = ObservationSet(obs.x[:, :2], obs.observed[:, :2],
                          lay1.view_widths, lay1.families)
    obs2 = ObservationSet(obs.x[:, 2:], obs.observed[:, 2:],
                          lay2.view_widths, lay2.families)
    part = log_likelihood_theta(obs1, theta[:, :2], lay1) \
        + 1e-3 * log_likelihood_theta(obs2, theta[:, 2:], lay2)
    assert total == pytest.approx(part, rel=1e-12)


def test_log_likelihood_theta_kernel_matches_a_fresh_one():
    """One likelihood kernel reused across Theta matrices scores each
    exactly as log_likelihood_theta does when it builds its own."""
    lay = make_layout("sepca", (2, 3), 1, ("poisson", "poisson"),
                      alpha=0.3)
    rng = make_rng(8, 9)
    obs = dense_observations(lay, 0.5 * rng.standard_normal((6, 5)),
                             seed=89)
    obs = obs.with_mask(rng.random(obs.x.shape) < 0.7)
    kernel = likelihood_terms(obs, lay)
    for _ in range(4):
        theta = 0.5 * rng.standard_normal((6, 5))
        got = log_likelihood_theta(obs, theta, lay, kernel=kernel)
        want = log_likelihood_theta(obs, theta, lay)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_log_likelihood_state_matches_theta_path():
    lay = make_layout("epls", (1, 3), (1, 1), ("bernoulli", "poisson"))
    rng = make_rng(8, 4)
    u = 0.3 * rng.standard_normal((5, lay.k_total))
    v = 0.3 * rng.standard_normal((lay.k_total, lay.d_total))
    v[lay.zero_mask] = 0.0
    state = FactorState(u, v)
    theta = assemble_theta(state, lay)
    obs = dense_observations(lay, theta, seed=82)
    assert log_likelihood(obs, state, lay) == pytest.approx(
        log_likelihood_theta(obs, theta, lay), rel=1e-12)


def test_log_pdf_sum_at_masked_subset():
    lay = make_layout("epca", 2, 1, "bernoulli")
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    obs = ObservationSet(x, np.ones_like(x, dtype=bool),
                         lay.view_widths, lay.families)
    theta = np.zeros((2, 2))
    mask = np.array([[True, False], [False, False]])
    assert log_pdf_sums_at(obs, [theta], lay, mask)[0] == pytest.approx(
        -LOG2, rel=1e-12)
    empty = np.zeros((2, 2), dtype=bool)
    assert log_pdf_sums_at(obs, [theta], lay, empty)[0] == 0.0
    with pytest.raises(ShapeError):
        log_pdf_sums_at(obs, [theta], lay, np.ones((3, 2), dtype=bool))


# ------------------------------------------------------------ entry terms

def _entry_case(families, seed):
    """Two-view data with a partial mask at an in-domain Theta."""
    rng = make_rng(seed, 6)
    fams = tuple(get_family(f) for f in families)
    cols = (slice(0, 3), slice(3, 7))
    theta = 0.6 * rng.standard_normal((5, 7))
    x = np.empty_like(theta)
    for fam, c in zip(fams, cols):
        theta[:, c] = fam.to_domain(theta[:, c])
        x[:, c] = fam.sample(theta[:, c], rng)
    mask = rng.random(theta.shape) < 0.7
    return fams, cols, x, mask, theta


def _entry_reference(fams, cols, x, mask, weights, beta, hypers, theta):
    ref = np.zeros_like(theta)
    for i, (fam, c) in enumerate(zip(fams, cols)):
        ll = np.where(mask[:, c], fam.log_pdf(x[:, c], theta[:, c]), 0.0)
        ref[:, c] = weights[i] * ll + beta * fam.conj_log_kernel(theta[:, c],
                                                                 hypers[i])
    return ref


@pytest.mark.parametrize("families", [("bernoulli", "poisson"),
                                      ("gaussian", "exponential")])
def test_entry_terms_match_reference_entrywise(families):
    fams, cols, x, mask, theta = _entry_case(families, 1)
    weights, beta = (1.0, 0.3), 0.4
    hypers = (ConjugateHyper(0.5, 1.0), ConjugateHyper(0.2, 1.5))
    terms = EntryTerms(fams, cols, x, mask, weights, beta, hypers)
    vals, gs = terms.score(theta)
    grad = terms.slopes(theta, gs)
    ref = _entry_reference(fams, cols, x, mask, weights, beta, hypers, theta)
    assert np.allclose(vals, ref, rtol=1e-12, atol=1e-12)
    assert terms.value(theta) == pytest.approx(ref.sum(), rel=1e-12)
    eps = 1e-6
    fd = (_entry_reference(fams, cols, x, mask, weights, beta, hypers,
                           theta + eps)
          - _entry_reference(fams, cols, x, mask, weights, beta, hypers,
                             theta - eps)) / (2 * eps)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-6)
    # likelihood only, and conjugate kernel only
    lik = EntryTerms(fams, cols, x, mask, weights).score(theta)[0]
    assert np.allclose(lik, _entry_reference(fams, cols, x, mask, weights,
                                             0.0, hypers, theta), atol=1e-12)
    conj = EntryTerms(fams, cols, beta=beta, hypers=hypers).score(theta)[0]
    no_data = np.zeros_like(mask)
    assert np.allclose(conj, _entry_reference(fams, cols, x, no_data,
                                              weights, beta, hypers, theta),
                       atol=1e-12)


@pytest.mark.parametrize("families", [("bernoulli", "poisson"),
                                      ("gaussian", "exponential")])
def test_entry_terms_log_ratio_and_domain(families):
    fams, cols, x, mask, theta = _entry_case(families, 2)
    weights, beta = (0.5, 2.0), 0.3
    hypers = (ConjugateHyper(0.5, 1.0), ConjugateHyper(0.2, 1.5))
    terms = EntryTerms(fams, cols, x, mask, weights, beta, hypers)
    star = theta + 0.1 * make_rng(2, 7).standard_normal(theta.shape)
    for fam, c in zip(fams, cols):
        if fam.name == "exponential":
            star[:, c] = np.minimum(star[:, c], -1e-3)
    star[0, 5] = 4.0              # out of the exponential view's domain
    in_dom = np.ones(theta.shape, dtype=bool)
    for fam, c in zip(fams, cols):
        in_dom[:, c] = fam.in_domain(star[:, c])
    r = terms.log_ratio(theta, star)
    safe = np.where(in_dom, star, theta)
    ref = (_entry_reference(fams, cols, x, mask, weights, beta, hypers, safe)
           - _entry_reference(fams, cols, x, mask, weights, beta, hypers,
                              theta))
    assert np.allclose(r[in_dom], ref[in_dom], rtol=1e-10, atol=1e-10)
    assert np.all(r[~in_dom] == -np.inf)
    assert (~in_dom).any() == (families[1] == "exponential")
    if (~in_dom).any():
        assert terms.score(star) is None
        assert terms.value(star) == -np.inf


@pytest.mark.parametrize("families", [("bernoulli", "poisson"),
                                      ("gaussian", "exponential")])
def test_entry_terms_skip_zero_base_measure_bit_for_bit(families):
    """Bernoulli and exponential h(x) is zero throughout: the kernel keeps
    no array for it, and its terms, derivatives and log ratios equal, bit
    for bit, those of a kernel that stores the zeros and adds them."""
    fams, cols, x, mask, theta = _entry_case(families, 4)
    hypers = (ConjugateHyper(0.5, 1.0), ConjugateHyper(0.2, 1.5))
    for beta in (0.0, 0.3):
        terms = EntryTerms(fams, cols, x, mask, (1.0, 0.7), beta, hypers)
        kept = EntryTerms(fams, cols, x, mask, (1.0, 0.7), beta, hypers)
        kept.views = [(fam, c, a, b, np.zeros(x[:, c].shape)
                       if base is None else base, unscored)
                      for fam, c, a, b, base, unscored in kept.views]
        assert [view[4] is None for view in terms.views] == [
            fam.name in ("bernoulli", "exponential") for fam in fams]
        star = theta + 0.1 * make_rng(4, 7).standard_normal(theta.shape)
        star[:, 3:] = fams[1].to_domain(star[:, 3:])
        vals, gs = terms.score(theta)
        kept_vals, kept_gs = kept.score(theta)
        assert vals.tobytes() == kept_vals.tobytes()
        assert (terms.slopes(theta, gs).tobytes()
                == kept.slopes(theta, kept_gs).tobytes())
        assert (terms.log_ratio(theta, star).tobytes()
                == kept.log_ratio(theta, star).tobytes())


def test_entry_terms_curvature_matches_difference_of_derivative():
    fams, cols, x, mask, theta = _entry_case(("bernoulli", "exponential"), 5)
    hypers = (ConjugateHyper(0.5, 1.0), ConjugateHyper(0.2, 1.5))
    terms = EntryTerms(fams, cols, x, mask, (1.0, 0.7), 0.3, hypers)
    eps = 1e-6 * np.minimum(1.0, np.abs(theta))
    lo, hi = theta - eps, theta + eps
    fd = (terms.slopes(lo, terms.score(lo)[1])
          - terms.slopes(hi, terms.score(hi)[1])) / (2 * eps)
    assert np.allclose(terms.curvature(theta, terms.score(theta)[1]), fd,
                       rtol=1e-6, atol=1e-9)


def test_entry_terms_value_scores_each_slice_of_a_stack():
    """A stack (..., N, D) gives one sum per slice, equal to the value of
    that slice alone; only the slice with an out-of-domain entry is -inf,
    and it raises no RuntimeWarning."""
    fams, cols, x, mask, theta = _entry_case(("gaussian", "exponential"), 3)
    hypers = (ConjugateHyper(0.5, 1.0), ConjugateHyper(0.2, 1.5))
    terms = EntryTerms(fams, cols, x, mask, (1.0, 1.0), 0.3, hypers)
    rng = make_rng(3, 7)
    stack = theta + 0.05 * rng.standard_normal((2, 3) + theta.shape)
    stack[..., 3:] = np.minimum(stack[..., 3:], -1e-3)
    stack[1, 2, 4, 6] = 0.5           # out of the exponential view's domain
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sums = terms.value(stack)
        singles = [[terms.value(s) for s in row] for row in stack]
    assert sums.shape == (2, 3)
    assert all(type(v) is float for row in singles for v in row)
    assert np.all(sums == np.array(singles))
    assert sums[1, 2] == -np.inf
    assert np.sum(np.isfinite(sums)) == 5


def test_entry_terms_without_data_or_beta_score_nothing():
    fams = (get_family("exponential"),)
    theta = np.ones((2, 3))      # outside the domain, but nothing is scored
    terms = EntryTerms(fams, (slice(0, 3),), beta=0.0)
    assert terms.value(theta) == 0.0
    assert np.all(terms.log_ratio(theta, theta) == 0.0)
    # an unobserved entry at beta = 0 adds exactly 0 to the value, slope
    # and curvature, with no warning even where g(theta) = e^800 overflows
    terms = EntryTerms((get_family("poisson"),), (slice(0, 2),),
                       np.array([[1.0, 3.0]]), np.array([[True, False]]))
    theta = np.array([[0.2, 800.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, gs = terms.score(theta)
        grad = terms.slopes(theta, gs)
        curv = terms.curvature(theta, gs)
        total = terms.value(theta)
    assert total == pytest.approx(0.2 - np.exp(0.2), rel=1e-12)
    assert vals[0, 1] == grad[0, 1] == curv[0, 1] == 0.0
    assert np.isfinite(vals[0, 0] + grad[0, 0] + curv[0, 0])


# ------------------------------------------------------------ observations

def test_observation_set_validates():
    with pytest.raises(ShapeError):
        ObservationSet(np.zeros((2, 3)), np.ones((2, 2), dtype=bool),
                       (3, 0), ("gaussian",))
    with pytest.raises(ShapeError):
        ObservationSet(np.zeros((2, 3)), np.ones((2, 3), dtype=bool),
                       (2, 0), ("gaussian",))
    with pytest.raises(ValueError):
        ObservationSet(np.array([[0.5]]), np.array([[True]]),
                       (1, 0), ("bernoulli",))
    # out-of-support values are fine when masked out
    ObservationSet(np.array([[0.5]]), np.array([[False]]),
                   (1, 0), ("bernoulli",))
    with pytest.raises(ValueError):
        ObservationSet(np.array([[np.nan]]), np.array([[True]]),
                       (1, 0), ("gaussian",))


def test_subset_rows_and_view_cols():
    obs = ObservationSet(np.arange(12.0).reshape(3, 4),
                         np.ones((3, 4), dtype=bool),
                         (1, 3), ("gaussian", "gaussian"))
    sub = obs.subset_rows(np.array([0, 2]))
    assert np.array_equal(sub.x, obs.x[[0, 2]])
    assert obs.view_cols(0) == slice(0, 1)
    assert obs.view_cols(1) == slice(1, 4)


def test_load_observations_round_trip(tmp_path):
    x = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, np.nan]])
    csv = tmp_path / "data.csv"
    with open(csv, "w") as fh:
        fh.write("t,f1,f2\n1,0,2\n0,1,NA\n")
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps({
        "view_widths": [1, 2],
        "families": ["bernoulli", "poisson"],
    }))
    obs = load_observations(csv, desc)
    assert obs.x.shape == (2, 3)
    assert obs.observed[1, 2] == False  # noqa: E712
    assert obs.observed.sum() == 5
    assert np.array_equal(obs.x[0], x[0])
    assert obs.families[0].name == "bernoulli"
    assert obs.families[1].name == "poisson"
