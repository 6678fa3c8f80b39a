import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import hlcast
import hlcast.cli
import hlcast.config
import hlcast.regress
from hlcast.cli import main
from hlcast.config import load_config
from hlcast.timeseries import (
    align,
    read_frame_csv,
    read_series_csv,
    write_frame_csv,
    write_series_csv,
)


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


class TestStaleArtifacts:
    """A run directory never holds results of inputs that have since changed."""

    def test_edited_input_gets_new_run_dir_and_report(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        run_ok(runner, ["backtest", "--config", str(config)])
        old_dir = load_config(config).run_dir()
        old_report = (old_dir / "report.json").read_bytes()
        old_tables = run_ok(runner, ["report", "--config", str(config)]).output

        prices = tmp_path / "data" / "house_price.csv"
        write_series_csv(read_series_csv(prices).scale(2.0), prices)
        new_dir = load_config(config).run_dir()
        assert new_dir != old_dir

        new_tables = run_ok(runner, ["report", "--config", str(config)]).output
        assert new_tables != old_tables
        new_report = (new_dir / "report.json").read_bytes()
        assert new_report != old_report
        run_ok(runner, ["backtest", "--config", str(config)])
        assert (new_dir / "report.json").read_bytes() == new_report
        assert (old_dir / "report.json").read_bytes() == old_report

    def test_tampered_features_are_not_read_back(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        run_ok(runner, ["backtest", "--config", str(config)])
        run_dir = load_config(config).run_dir()
        clean = (run_dir / "report.json").read_bytes()

        feats = read_frame_csv(run_dir / "features.csv")
        zeroed = [feats.column(n).scale(0.0 if n == "hlc" else 1.0) for n in feats.names()]
        write_frame_csv(align(zeroed), run_dir / "features.csv")
        run_ok(runner, ["backtest", "--config", str(config)])
        assert (run_dir / "report.json").read_bytes() == clean

    def test_version_is_part_of_the_run_hash(self, runner, tmp_path, monkeypatch):
        cfg = load_config(make_workspace(runner, tmp_path))
        before = cfg.run_hash()
        monkeypatch.setattr(hlcast.config, "__version__", hlcast.__version__ + ".post1")
        assert cfg.run_hash() != before


class TestErrors:
    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["ingest", "--config", str(tmp_path / "nope.yaml")])
        assert result.exit_code == 2

    def test_malformed_yaml(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        config.write_text("data: [unclosed\n")
        result = runner.invoke(main, ["backtest", "--config", str(config)])
        assert result.exit_code == 2
        assert f"error: config {config} is not valid YAML" in result.output

    def test_unreadable_input_is_data_error(self, runner, tmp_path, monkeypatch):
        config = make_workspace(runner, tmp_path)

        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_bytes", denied)
        result = runner.invoke(main, ["ingest", "--config", str(config)])
        assert result.exit_code == 3
        assert "error: cannot read" in result.output and "Permission denied" in result.output

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

    def test_non_finite_csv_cell_is_data_error(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        bad = tmp_path / "data" / "ltv.csv"
        lines = bad.read_text().splitlines()
        lines[1] = lines[1].split(",")[0] + ",inf"
        bad.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["backtest", "--config", str(config)])
        assert result.exit_code == 3
        assert "ltv.csv:2: not a finite number: 'inf'" in result.output

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_feature_is_data_error(self, runner, tmp_path):
        # four incomes of 1e308 overflow the trailing mean to inf, which
        # features.csv could not be read back with
        config = make_workspace(runner, tmp_path)
        path = tmp_path / "data" / "income.csv"
        lines = path.read_text().splitlines()
        lines[1:5] = [line.split(",")[0] + ",1e308" for line in lines[1:5]]
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["features", "--config", str(config)])
        assert result.exit_code == 3
        assert (
            "features.csv: column 'income' at 1995Q4 is not a finite number: inf"
            in result.output
        )
        assert not list((tmp_path / "data" / "runs").glob("*/features.csv"))

    @pytest.mark.parametrize(
        "args,edit",
        [
            ([], lambda doc: doc["lag_scan"].update(max=1_000_000_000)),
            (["--lags", "0..1000000000"], lambda doc: None),
            ([], lambda doc: doc["lag_scan"].update(max=92)),
        ],
        ids=["config-max", "lags-flag", "max-at-sample-length"],
    )
    def test_lag_range_beyond_sample_is_data_error(
        self, runner, tmp_path, monkeypatch, args, edit
    ):
        def no_scan(*_, **__):
            raise AssertionError("lag_scan called with a lag range beyond the sample")

        monkeypatch.setattr(hlcast.regress, "lag_scan", no_scan)
        monkeypatch.setattr(hlcast.cli, "lag_scan", no_scan)
        config = make_workspace(runner, tmp_path)
        doc = yaml.safe_load(config.read_text())
        edit(doc)
        config.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["lagscan", "--config", str(config), *args])
        assert result.exit_code == 3, result.output
        assert "error: lag_scan.max must be below the sample length of 92 quarters" in result.output

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda doc: doc["lag_scan"].update(max="four"), "lag_scan.max"),
            (lambda doc: doc["lag_scan"].update(min=5, max=3), "lag_scan must satisfy"),
            (lambda doc: doc["split"].update(cutoff="never"), "split.cutoff"),
            (lambda doc: doc.update(output_dir=5), "output_dir"),
        ],
        ids=["lag_scan-max", "lag_scan-min-above-max", "split-cutoff", "output_dir"],
    )
    def test_flags_do_not_hide_bad_file_values(self, runner, tmp_path, edit, key):
        config = make_workspace(runner, tmp_path)
        doc = yaml.safe_load(config.read_text())
        edit(doc)
        config.write_text(yaml.safe_dump(doc))
        flags = ["--lags", "0..3", "--cutoff", "2008Q2", "--out", "o"]
        result = runner.invoke(main, ["ingest", "--config", str(config), *flags])
        assert result.exit_code == 2, result.output
        assert f"error: {key}" in result.output

    def test_bad_lags_flag(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        result = runner.invoke(main, ["lagscan", "--config", str(config), "--lags", "abc"])
        assert result.exit_code == 2

    def test_bad_cutoff_flag(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        result = runner.invoke(main, ["backtest", "--config", str(config), "--cutoff", "never"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "section,key,value",
        [
            pytest.param(section, key, value, id=f"{section}-{key}{suffix}")
            for section, key, integer in [
                ("features", "smoothing_window", True),
                ("features", "hlc_lag", True),
                ("lag_scan", "min", True),
                ("lag_scan", "max", True),
                ("lti", "woonquote", False),
                ("lti", "deduction_rate", False),
                ("lti", "cost_rate", False),
                ("lti", "term_months", True),
            ]
            # a bool is no number, and an integer key takes no fraction
            for value, suffix in [("four", ""), (True, "-bool")] + [(4.7, "-fraction")] * integer
        ],
    )
    def test_non_numeric_config_value(self, runner, tmp_path, section, key, value):
        config = make_workspace(runner, tmp_path)
        doc = yaml.safe_load(config.read_text())
        doc.setdefault(section, {})[key] = value
        config.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["ingest", "--config", str(config)])
        assert result.exit_code == 2
        assert f"error: {section}.{key} must be" in result.output
        assert repr(value) in result.output

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda doc: doc["backtest"].update(models=5), "backtest.models"),
            (lambda doc: doc["backtest"].update(models=[["hlc"]]), "backtest.models"),
            (lambda doc: doc.update(output_dir=5), "output_dir"),
            (lambda doc: doc["data"]["ltv"].update(unit=["eur"]), "data.ltv.unit"),
            (lambda doc: doc["data"]["ltv"].update(path=5), "data.ltv.path"),
        ],
        ids=["models-int", "models-nested-list", "output_dir-int", "unit-list", "path-int"],
    )
    def test_config_value_of_wrong_type(self, runner, tmp_path, edit, key):
        config = make_workspace(runner, tmp_path)
        doc = yaml.safe_load(config.read_text())
        edit(doc)
        config.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["ingest", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert f"error: {key} must be" in result.output

    @pytest.mark.parametrize(
        "name,row,value",
        [("interest_only_share", 10, "1.5"), ("interest_rate", 20, "-1.0")],
        ids=["share-above-one", "negative-rate"],
    )
    def test_out_of_domain_value_is_data_error(self, runner, tmp_path, name, row, value):
        config = make_workspace(runner, tmp_path)
        path = tmp_path / "data" / f"{name}.csv"
        lines = path.read_text().splitlines()
        lines[row] = lines[row].split(",")[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["features", "--config", str(config)])
        assert result.exit_code == 3, result.output
        assert f"error: column {name!r} at " in result.output

    def test_bom_prefixed_csv_is_read(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        income = tmp_path / "data" / "income.csv"
        income.write_bytes(b"\xef\xbb\xbf" + income.read_bytes())
        out = run_ok(runner, ["ingest", "--config", str(config)]).output
        assert "92 quarters" in out


class TestReportFile:
    """``report`` reads the run's report.json back; a file that is not one is bad data."""

    @pytest.mark.parametrize(
        "text",
        [
            '{"variants": [',
            "{}",
            '{"cutoff": "2008Q2", "variants": [{"name": "hlc", "regime": "full"}]}',
        ],
        ids=["truncated-json", "empty-object", "variant-without-approach"],
    )
    def test_unreadable_report_is_data_error(self, runner, tmp_path, text):
        config = make_workspace(runner, tmp_path)
        run_ok(runner, ["backtest", "--config", str(config)])
        path = load_config(config).run_dir() / "report.json"
        path.write_text(text + "\n")
        result = runner.invoke(main, ["report", "--config", str(config)])
        assert result.exit_code == 3, result.output
        assert f"error: {path} is not a readable hlcast report" in result.output

    def test_null_metric_prints_na(self, runner, tmp_path):
        # a non-finite metric is written as null
        config = make_workspace(runner, tmp_path)
        run_ok(runner, ["backtest", "--config", str(config)])
        path = load_config(config).run_dir() / "report.json"
        doc = json.loads(path.read_text())
        for v in doc["variants"]:
            if v["name"] == "hlc" and v["regime"] == "truncated":
                v["metrics_all"].update(rmse=None, mae=None)
        path.write_text(json.dumps(doc))
        out = run_ok(runner, ["report", "--config", str(config)]).output
        na = [line.split() for line in out.splitlines() if "n/a" in line]
        assert na == [[a, "up", "to", "2008Q2", "n/a", "n/a"] for a in ("OLS", "ECM")]


class TestOverflowingPrice:
    """A price of 1e308 fails every variant; no stage prints a numpy warning."""

    @pytest.fixture()
    def config(self, runner, tmp_path):
        config = make_workspace(runner, tmp_path)
        path = tmp_path / "data" / "house_price.csv"
        lines = path.read_text().splitlines()
        assert lines[21].startswith("2000Q1,")
        lines[21] = "2000Q1,1e308"
        path.write_text("\n".join(lines) + "\n")
        return config

    def test_ingest_prints_na_for_an_overflowing_statistic(self, runner, config):
        out = run_ok(runner, ["ingest", "--config", str(config)]).output
        (row,) = [line.split() for line in out.splitlines() if line.startswith("house_price ")]
        # the sd; the mean, 1e308 / 92, is finite
        assert row.count("n/a") == 1
        assert "Warning" not in out

    def test_lagscan_names_the_overflowing_response(self, runner, config):
        result = runner.invoke(main, ["lagscan", "--config", str(config)])
        assert result.exit_code == 4, result.output
        assert "error: squares of response 'house_price' overflow at lag 0" in result.output
        assert "Warning" not in result.output

    def test_backtest_and_report_exit_4_after_writing(self, runner, config):
        result = runner.invoke(main, ["backtest", "--config", str(config)])
        assert result.exit_code == 4, result.output
        assert "Warning" not in result.output
        run_dir = load_config(config).run_dir()
        assert (run_dir / "report.json").is_file()
        assert list((run_dir / "plots").iterdir())
        (error,) = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert error.startswith(
            "error: 12 of 12 variants failed; first: benchmark/ecm/full: NumericalError: "
            "squares of column(s) house_price_lag1 overflow"
        ), error
        result = runner.invoke(main, ["report", "--config", str(config)])
        assert result.exit_code == 4, result.output
        assert "evaluation window" in result.output
        assert error in result.output.splitlines()

    @pytest.mark.parametrize(
        "errors,code",
        [
            (["InsufficientDataError: too few"] * 12, 3),
            (["SingularDesignError: rank 2"] + ["DataError: no overlap"] * 11, 4),
            (["Unknown: x"] * 12, 3),
            ([None] + ["NumericalError: x"] * 11, 0),
        ],
        ids=["data", "numerical-first", "unknown-class", "one-fitted"],
    )
    def test_report_exit_code_follows_the_first_failure(self, runner, tmp_path, errors, code):
        config = make_workspace(runner, tmp_path)
        run_ok(runner, ["backtest", "--config", str(config)])
        path = load_config(config).run_dir() / "report.json"
        doc = json.loads(path.read_text())
        for v, error in zip(doc["variants"], errors, strict=True):
            v["error"] = error
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["report", "--config", str(config)])
        assert result.exit_code == code, result.output
        assert ("error: 12 of 12 variants failed" in result.output) == (code != 0)


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

    def test_pure_python_loader_agrees(self, runner, tmp_path, monkeypatch):
        config = make_workspace(runner, tmp_path)
        fast = load_config(config)
        monkeypatch.setattr(hlcast.config, "_YAML_LOADER", yaml.SafeLoader)
        assert load_config(config) == fast

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
