"""Binary table loader, synthetic fallback and holdout splitting."""

import warnings

import numpy as np
import pytest

from expfamproj import MaskError
from expfamproj.model import ConfigError, ObservationSet
from expfamproj.spect import (EXPECTED_ROWS, N_FEATURES, ParseError,
                              load_or_fallback, load_spect, make_holdout,
                              synthetic_binary)

from conftest import make_rng


def _write_table(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def _full_table(seed=0, n_rows=EXPECTED_ROWS, n_cols=N_FEATURES + 1):
    return make_rng(seed, 31).integers(0, 2, size=(n_rows, n_cols))


# ------------------------------------------------------------------ loading

def test_load_drops_diagnosis_column(tmp_path):
    table = _full_table()
    path = tmp_path / "t.csv"
    _write_table(path, table)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # 267 rows: no row-count warning
        obs = load_spect(path)
    assert obs.x.shape == (EXPECTED_ROWS, N_FEATURES)
    assert np.array_equal(obs.x, table[:, 1:])
    assert obs.observed.all()
    assert obs.families[0].name == "bernoulli"


def test_load_accepts_bare_feature_rows(tmp_path):
    table = _full_table(seed=1, n_rows=10, n_cols=N_FEATURES)
    path = tmp_path / "t.csv"
    _write_table(path, table)
    with pytest.warns(UserWarning, match="267"):
        obs = load_spect(path)
    assert np.array_equal(obs.x, table)


def test_load_skips_blank_lines(tmp_path):
    table = _full_table(seed=2, n_rows=3, n_cols=N_FEATURES)
    path = tmp_path / "t.csv"
    with open(path, "w") as fh:
        fh.write("\n")
        for row in table:
            fh.write(",".join(str(int(v)) for v in row) + "\n\n")
    with pytest.warns(UserWarning):
        obs = load_spect(path)
    assert obs.x.shape == (3, N_FEATURES)


@pytest.mark.parametrize("bad_line, message", [
    ("0,1,x" + ",0" * (N_FEATURES - 2), "non-integer"),
    ("0,1,2" + ",0" * (N_FEATURES - 2), "0 or 1"),
    ("0,1,1", "columns"),
])
def test_load_rejects_malformed_rows(tmp_path, bad_line, message):
    path = tmp_path / "t.csv"
    with open(path, "w") as fh:
        fh.write(",".join("1" * (N_FEATURES + 1)) + "\n")
        fh.write(bad_line + "\n")
    with pytest.raises(ParseError, match=message):
        load_spect(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\n\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_spect(path)


# ----------------------------------------------------------------- fallback

def test_synthetic_shape_support_and_determinism():
    obs = synthetic_binary(seed=4)
    assert obs.x.shape == (EXPECTED_ROWS, N_FEATURES)
    assert np.isin(obs.x, (0.0, 1.0)).all()
    assert obs.observed.all()
    again = synthetic_binary(seed=4)
    assert np.array_equal(obs.x, again.x)
    other = synthetic_binary(seed=5)
    assert not np.array_equal(obs.x, other.x)


def test_synthetic_has_rank_structure():
    # column means should spread well away from 0.5 (biases + low rank),
    # unlike iid coin flips
    obs = synthetic_binary(seed=6)
    spread = np.std(obs.x.mean(axis=0))
    assert spread > 0.08


def test_load_or_fallback_notice(tmp_path):
    obs, notice = load_or_fallback(None)
    assert notice is not None
    assert obs.x.shape == (EXPECTED_ROWS, N_FEATURES)

    table = _full_table(seed=7)
    path = tmp_path / "t.csv"
    _write_table(path, table)
    obs2, notice2 = load_or_fallback(path)
    assert notice2 is None
    assert np.array_equal(obs2.x, table[:, 1:])


# ----------------------------------------------------------------- holdouts

def test_holdout_partitions_observed_entries():
    obs = synthetic_binary(seed=8)
    train, held = make_holdout(obs, frac=0.2, seed=3)
    assert not np.any(train.observed & held)
    assert np.array_equal(train.observed | held, obs.observed)
    assert held.sum() <= round(0.2 * obs.observed.sum())
    assert held.sum() > 0
    assert np.shares_memory(train.x, obs.x)


def test_holdout_keeps_row_and_column_coverage():
    # aggressive fraction on a small table forces the repair path
    rng = make_rng(9, 31)
    x = rng.integers(0, 2, size=(8, 5)).astype(float)
    obs = ObservationSet(x, np.ones_like(x, dtype=bool), (5, 0),
                         ("bernoulli",))
    for seed in range(30):
        train, held = make_holdout(obs, frac=0.6, seed=seed)
        assert train.observed.sum(axis=1).min() >= 1
        assert train.observed.sum(axis=0).min() >= 1
        assert np.array_equal(train.observed | held, np.ones_like(held))


def test_holdout_seed_reproducible():
    obs = synthetic_binary(seed=10)
    _, held_a = make_holdout(obs, frac=0.1, seed=21)
    _, held_b = make_holdout(obs, frac=0.1, seed=21)
    _, held_c = make_holdout(obs, frac=0.1, seed=22)
    assert np.array_equal(held_a, held_b)
    assert not np.array_equal(held_a, held_c)


def test_holdout_tiny_fraction_is_empty():
    obs = synthetic_binary(seed=11)
    train, held = make_holdout(obs, frac=1e-6, seed=0)
    assert held.sum() == 0
    assert np.array_equal(train.observed, obs.observed)


@pytest.mark.parametrize("frac", [0.0, 1.0, -0.1, 1.5])
def test_holdout_rejects_bad_fraction(frac):
    obs = synthetic_binary(seed=12)
    with pytest.raises(ConfigError):
        make_holdout(obs, frac=frac)


def test_holdout_rejects_unobservable_rows_and_columns():
    obs = synthetic_binary(seed=13)
    no_row = obs.with_mask(obs.observed & (np.arange(obs.n_rows) != 4)[:, None])
    with pytest.raises(MaskError, match="row"):
        make_holdout(no_row, frac=0.2)
    no_col = obs.with_mask(obs.observed
                           & (np.arange(obs.x.shape[1]) != 3)[None, :])
    with pytest.raises(MaskError, match="column"):
        make_holdout(no_col, frac=0.2)
