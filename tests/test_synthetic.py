import numpy as np
import pytest
from conftest import residuals, value_at

from hlcast.backtest import (
    HLC,
    HOUSE_PRICE,
    INCOME,
    INTEREST_ONLY_SHARE,
    INTEREST_RATE,
    LTV,
    build_features,
)
from hlcast.regress import design_matrix, ols_fit
from hlcast.synthetic import (
    REGIME_CHANGE, START, GeneratedData, ScenarioConfig, _uniform_blocks, generate
)
from hlcast.timeseries import parse_quarter, write_frame_csv


class TestDeterminism:
    def test_same_seed_same_frame(self):
        a = generate(ScenarioConfig(seed=123))
        b = generate(ScenarioConfig(seed=123))
        assert a.frame == b.frame
        assert a.truth() == b.truth()

    def test_same_seed_same_bytes(self, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_frame_csv(generate(ScenarioConfig(seed=9)).frame, pa)
        write_frame_csv(generate(ScenarioConfig(seed=9)).frame, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        assert generate(ScenarioConfig(seed=1)).frame != generate(ScenarioConfig(seed=2)).frame


class TestStream:
    """The draws are numpy's ``default_rng(seed).uniform(-1.0, 1.0, n)``, bit for bit."""

    @pytest.mark.parametrize("n", [40, 92, 400, 2000])
    @pytest.mark.parametrize("seed", [*range(32), 2**32, 2**70 + 3, 2**160 + 7])
    def test_blocks_are_numpys_stream(self, seed, n):
        rng = np.random.default_rng(seed)
        expected = np.array([rng.uniform(-1.0, 1.0, n) for _ in range(5)])
        drawn = _uniform_blocks(seed, 5, n)
        assert drawn.dtype == np.float64 and drawn.shape == (5, n)
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    def test_numpy_integer_seed_keeps_its_stream(self):
        config = ScenarioConfig(seed=np.int64(7))
        assert type(config.seed) is int
        assert generate(config).frame == generate(ScenarioConfig(seed=7)).frame

    @pytest.mark.parametrize("seed", [7.0, True])
    def test_float_or_bool_seed_is_refused(self, seed):
        with pytest.raises(TypeError, match="seed"):
            ScenarioConfig(seed=seed)

    def test_the_last_quarter_may_be_9999q4(self):
        # 32020 quarters from 1995Q1 end in 9999Q4, the last labelled quarter
        assert ScenarioConfig(n_quarters=32020).n_quarters == 32020
        with pytest.raises(ValueError, match="^year must be in 0..9999, got 10000$"):
            ScenarioConfig(n_quarters=32021)


class TestShapes:
    def test_dimensions_and_units(self):
        data = generate(ScenarioConfig(seed=0))
        f = data.frame
        assert len(f) == 92
        assert f.start_index == START == parse_quarter("1995Q1")
        assert set(f.names()) == {HOUSE_PRICE, INCOME, INTEREST_RATE, LTV, INTEREST_ONLY_SHARE}
        assert f.column(HOUSE_PRICE).unit == "eur"
        assert f.column(INCOME).unit == "eur"
        assert f.column(INTEREST_RATE).unit == "fraction"
        assert all(v is not None for v in f.column(HOUSE_PRICE).values)

    @pytest.mark.parametrize("seed", range(100))
    def test_ranges_across_seeds(self, seed):
        f = generate(ScenarioConfig(seed=seed)).frame
        rate = f.column(INTEREST_RATE).to_array()
        assert rate.min() >= 0.02 and rate.max() <= 0.09
        share = f.column(INTEREST_ONLY_SHARE).to_array()
        assert share.min() >= 0.0 and share.max() <= 0.5
        ltv = f.column(LTV).to_array()
        assert ltv.min() >= 0.96 and ltv.max() <= 1.04
        assert f.column(INCOME).to_array().min() > 0.0
        assert f.column(HOUSE_PRICE).to_array().min() > 0.0

    def test_share_regimes(self):
        cfg = ScenarioConfig(seed=4)
        share = generate(cfg).frame.column(INTEREST_ONLY_SHARE)
        # flat zero before adoption, a real ramp in between, zero after the
        # regulatory shutdown
        head = [value_at(share, START + i) for i in range(8)]
        assert all(v == 0.0 for v in head)
        assert max(v for v in share.values if v is not None) > 0.3
        assert REGIME_CHANGE == parse_quarter("2011Q1")
        rc = REGIME_CHANGE - share.start_index
        assert rc < len(share) and all(v == 0.0 for v in share.values[rc:])
        assert value_at(share, REGIME_CHANGE - 1) > 0.0

    def test_boom_bust_in_prices(self):
        cfg = ScenarioConfig(seed=0)
        data = generate(cfg)
        price = data.frame.column(HOUSE_PRICE).to_array()
        # The shutdown hits capacity at the regime change and reaches prices
        # with the capacity lag: a pre-dip peak, a drop of at least 5%, then
        # recovery.
        hit = (REGIME_CHANGE - START) + data.hlc_lag
        peak = price[:hit].max()
        trough = price[hit : hit + 4].min()
        assert trough < 0.95 * peak
        assert price[-1] > peak


class TestIdentification:
    def test_noiseless_run_recovers_truth(self):
        data = generate(ScenarioConfig(seed=11, noise_scale=0.0))
        feats = build_features(data.frame, data.params)
        fit = ols_fit(design_matrix(feats, HOUSE_PRICE, [(HLC, data.hlc_lag)]))
        assert fit.coefficients[f"{HLC}_lag{data.hlc_lag}"] == pytest.approx(
            data.price_slope, rel=1e-8
        )
        assert fit.coefficients["intercept"] == pytest.approx(data.price_intercept, rel=1e-8)
        assert max(abs(v) for v in residuals(fit)) < 1e-6

    def test_noisy_run_close_to_truth(self):
        data = generate(ScenarioConfig(seed=11, noise_scale=0.01))
        feats = build_features(data.frame, data.params)
        fit = ols_fit(design_matrix(feats, HOUSE_PRICE, [(HLC, data.hlc_lag)]))
        assert fit.coefficients[f"{HLC}_lag{data.hlc_lag}"] == pytest.approx(
            data.price_slope, rel=0.05
        )
        assert fit.r_squared > 0.95


class TestConfigValidation:
    def test_minimum_span(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_quarters=64)

    def test_noise_scale_bounds(self):
        with pytest.raises(ValueError):
            ScenarioConfig(noise_scale=0.5)
        with pytest.raises(ValueError):
            ScenarioConfig(noise_scale=-0.01)

    def test_custom_length(self):
        data = generate(ScenarioConfig(seed=2, n_quarters=65))
        assert len(data.frame) == 65
