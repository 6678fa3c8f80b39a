import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import hlcast
from hlcast.cli import main
from hlcast.config import load_config


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def make_workspace(runner, tmp_path, seed=0) -> Path:
    run_ok(runner, ["synth", "--out", str(tmp_path / "data"), "--seed", str(seed)])
    return tmp_path / "data" / "config.yaml"


class TestSynth:
    def test_writes_series_truth_and_config(self, runner, tmp_path):
        out = tmp_path / "data"
        result = run_ok(runner, ["synth", "--out", str(out), "--seed", "3"])
        assert "config.yaml" in result.output
        for name in ("house_price", "income", "interest_rate", "ltv", "interest_only_share"):
            assert (out / f"{name}.csv").is_file()
        truth = json.loads((out / "truth.json").read_text())
        assert set(truth) == {"price_intercept", "price_slope", "hlc_lag"}
        cfg = load_config(out / "config.yaml")
        assert cfg.hlc_lag == truth["hlc_lag"]

    def test_rejects_too_few_quarters(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--out", str(tmp_path), "--quarters", "10"])
        assert result.exit_code == 3


class TestPipeline:
    def test_full_chain(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        out = run_ok(runner, ["ingest", "--config", str(config)]).output
        assert "92 quarters" in out and "house_price" in out
        run_ok(runner, ["features", "--config", str(config)])
        scan = run_ok(runner, ["lagscan", "--config", str(config)]).output
        assert "best lag: 6" in scan
        bt = run_ok(runner, ["backtest", "--config", str(config)]).output
        assert "12/12 variants fitted" in bt
        rep = run_ok(runner, ["report", "--config", str(config)]).output
        assert "Benchmark model" in rep
        assert "Lending capacity model" in rep
        assert "up to 2008Q2" in rep

        run_dir = load_config(config).run_dir()
        for name in ("frame.csv", "features.csv", "lag_scan.csv", "report.json"):
            assert (run_dir / name).is_file()
        assert (run_dir / "plots" / "summary.csv").is_file()
        assert len(list((run_dir / "plots").glob("*.csv"))) == 13

    def test_stage_commands_self_sufficient(self, runner, tmp_path):
        # backtest on a virgin config must compute ingest+features itself
        config = make_workspace(runner, tmp_path)
        run_ok(runner, ["backtest", "--config", str(config)])
        run_dir = load_config(config).run_dir()
        assert (run_dir / "frame.csv").is_file()
        assert (run_dir / "report.json").is_file()

    def test_end_to_end_deterministic(self, runner, tmp_path):
        reports = []
        for child in ("one", "two"):
            root = tmp_path / child
            config = make_workspace(runner, root, seed=42)
            run_ok(runner, ["backtest", "--config", str(config)])
            reports.append((load_config(config).run_dir() / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_rerun_idempotent(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        run_ok(runner, ["ingest", "--config", str(config)])
        frame_path = load_config(config).run_dir() / "frame.csv"
        first = frame_path.read_bytes()
        run_ok(runner, ["ingest", "--config", str(config)])
        assert frame_path.read_bytes() == first
        run_ok(runner, ["backtest", "--config", str(config)])
        report_path = load_config(config).run_dir() / "report.json"
        first_report = report_path.read_bytes()
        run_ok(runner, ["backtest", "--config", str(config)])
        assert report_path.read_bytes() == first_report

    def test_cutoff_override_changes_run_dir(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        base_dir = load_config(config).run_dir()
        moved_dir = load_config(config, cutoff="2006Q4").run_dir()
        assert base_dir != moved_dir
        run_ok(runner, ["backtest", "--config", str(config), "--cutoff", "2006Q4"])
        doc = json.loads((moved_dir / "report.json").read_text())
        assert doc["cutoff"] == "2006Q4"

    def test_lags_override(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        out = run_ok(runner, ["lagscan", "--config", str(config), "--lags", "0..8"]).output
        assert out.count("\n") >= 10  # 9 lag rows plus headers

    def test_holdout_window_report(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        doc = yaml.safe_load(config.read_text())
        doc["split"] = {"cutoff": "2008Q2", "evaluation_window": "holdout_only"}
        config.write_text(yaml.safe_dump(doc))
        out = run_ok(runner, ["report", "--config", str(config)]).output
        assert "evaluation window: holdout_only" in out
        assert "Benchmark model" in out


class TestErrors:
    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["ingest", "--config", str(tmp_path / "nope.yaml")])
        assert result.exit_code == 2

    def test_unknown_config_key(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        doc = yaml.safe_load(config.read_text())
        doc["surprise"] = 1
        config.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["ingest", "--config", str(config)])
        assert result.exit_code == 2
        assert "surprise" in result.output

    def test_missing_required_series(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        doc = yaml.safe_load(config.read_text())
        del doc["data"]["ltv"]
        config.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["ingest", "--config", str(config)])
        assert result.exit_code == 2
        assert "ltv" in result.output

    def test_malformed_csv_is_data_error(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        bad = tmp_path / "data" / "ltv.csv"
        bad.write_text("quarter,value\n1995Q1,not_a_number\n")
        result = runner.invoke(main, ["ingest", "--config", str(config)])
        assert result.exit_code == 3
        assert "ltv.csv:2" in result.output

    def test_bad_lags_flag(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        result = runner.invoke(main, ["lagscan", "--config", str(config), "--lags", "abc"])
        assert result.exit_code == 2

    def test_bad_cutoff_flag(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        result = runner.invoke(main, ["backtest", "--config", str(config), "--cutoff", "never"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "section,key",
        [
            ("features", "smoothing_window"),
            ("features", "hlc_lag"),
            ("lag_scan", "min"),
            ("lag_scan", "max"),
            ("lti", "woonquote"),
            ("lti", "deduction_rate"),
            ("lti", "cost_rate"),
            ("lti", "term_months"),
        ],
    )
    def test_non_numeric_config_value(self, runner, tmp_path, section, key):
        config = make_workspace(runner, tmp_path)
        doc = yaml.safe_load(config.read_text())
        doc.setdefault(section, {})[key] = "four"
        config.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["ingest", "--config", str(config)])
        assert result.exit_code == 2
        assert f"error: {section}.{key} must be" in result.output
        assert "'four'" in result.output

    def test_bom_prefixed_csv_is_read(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        income = tmp_path / "data" / "income.csv"
        income.write_bytes(b"\xef\xbb\xbf" + income.read_bytes())
        out = run_ok(runner, ["ingest", "--config", str(config)]).output
        assert "92 quarters" in out


class TestSummaryStats:
    def test_constant_series_stats(self):
        from hlcast.cli import _summary_table
        from hlcast.timeseries import Quarter, QuarterlySeries, align

        frame = align(
            [QuarterlySeries("flat", Quarter(2000, 1), tuple([7.0] * 10))]
        )
        row = _summary_table(frame)[1]
        fields = row.split()
        assert fields[0] == "flat"
        assert float(fields[2]) == 7.0  # mean
        assert float(fields[3]) == 0.0  # sd
        assert fields[4] == fields[7]  # min == max

    def test_quartiles_match_numpy_percentile(self):
        import numpy as np

        from hlcast.cli import _summary_table
        from hlcast.timeseries import Quarter, QuarterlySeries, align

        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 10, 93):
            values = rng.normal(size=n) * 1e3
            frame = align([QuarterlySeries("x", Quarter(2000, 1), tuple(values))])
            fields = _summary_table(frame)[1].split()
            p25, p75 = np.percentile(values, [25, 75])
            assert fields[5:7] == [f"{p25:,.3f}", f"{p75:,.3f}"]

    def test_ingest_prints_table_header(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        out = run_ok(runner, ["ingest", "--config", str(config)]).output
        assert "series" in out and "p25" in out and "p75" in out


class TestConfigRoundTrip:
    def test_save_load_is_lossless(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        cfg = load_config(config)
        resaved = tmp_path / "resaved.yaml"
        cfg.save(resaved)
        again = load_config(resaved)
        assert again.to_canonical() == cfg.to_canonical()
        assert again.run_hash() == cfg.run_hash()

    def test_unit_override_scales_values(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        doc = yaml.safe_load(config.read_text())
        # declare the rate file as percent: ingested values shrink 100x
        doc["data"]["interest_rate"]["unit"] = "percent"
        config.write_text(yaml.safe_dump(doc))
        run_ok(runner, ["ingest", "--config", str(config)])
        frame_path = load_config(config).run_dir() / "frame.csv"
        header = frame_path.read_text().splitlines()
        idx = header[0].split(",").index("interest_rate")
        value = float(header[1].split(",")[idx])
        assert value < 0.001  # the synthetic fractions divided by 100


def test_import_leaves_scipy_out():
    env = {**os.environ, "PYTHONPATH": str(Path(hlcast.__file__).parents[1])}
    code = "import hlcast.cli, sys; assert 'scipy' not in sys.modules, 'scipy imported'"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
