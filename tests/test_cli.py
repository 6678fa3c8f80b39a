import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import hlcast
import hlcast.backtest
import hlcast.cli
import hlcast.config
import hlcast.regress
from hlcast.cli import main
from hlcast.config import load_config
from hlcast.errors import quote
from hlcast.lti import derive_interest_only_share
from hlcast.timeseries import (
    QuarterlySeries,
    align,
    parse_quarter,
    read_frame_csv,
    read_series_csv,
    write_frame_csv,
    write_series_csv,
)


def run_ok(cli, args) -> str:
    code, out, err = cli(args)
    assert code == 0, out + err
    return out


def make_workspace(cli, tmp_path, seed=0) -> Path:
    run_ok(cli, ["synth", "--out", str(tmp_path / "data"), "--seed", str(seed)])
    return tmp_path / "data" / "config.yaml"


def run_every_stage(cli, config: Path) -> list[str]:
    """Run the five pipeline stages on ``config``; returns each stage's stdout."""
    stages = ("ingest", "features", "lagscan", "backtest", "report")
    return [run_ok(cli, [stage, "--config", str(config)]) for stage in stages]


def sidecar(config: Path) -> Path:
    """Where ``load_config`` stores the parsed document of ``config``."""
    return config.with_name(f".{config.name}.hlcast.json")


def spy_on(monkeypatch) -> list:
    """The ``Loader`` of each later call of ``yaml.load``: one per parse."""
    loaders, original = [], yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return original(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    return loaders


class TestSynth:
    def test_writes_series_truth_and_config(self, cli, tmp_path):
        out = tmp_path / "data"
        assert "config.yaml" in run_ok(cli, ["synth", "--out", str(out), "--seed", "3"])
        for name in ("house_price", "income", "interest_rate", "ltv", "interest_only_share"):
            assert (out / f"{name}.csv").is_file()
        truth = json.loads((out / "truth.json").read_text())
        assert set(truth) == {"price_intercept", "price_slope", "hlc_lag"}
        cfg = load_config(out / "config.yaml")
        assert cfg.hlc_lag == truth["hlc_lag"]

    def test_rejects_too_few_quarters(self, cli, tmp_path):
        code, out, err = cli(["synth", "--out", str(tmp_path / "ws"), "--quarters", "10"])
        assert code == 3
        assert not (tmp_path / "ws").exists()

    def test_the_shortest_scenario_runs_every_stage(self, cli, tmp_path):
        # 65 quarters from 1995Q1 reach 2011Q1, the interest-only cut, past the
        # default cutoff 2008Q2; one quarter fewer is refused before anything is written
        ws = tmp_path / "ws"
        code, out, err = cli(["synth", "--out", str(ws), "--quarters", "64"])
        assert (code, out) == (3, "")
        assert err == (
            "error: n_quarters must be >= 65 to reach the interest-only cut in 2011Q1, got 64\n"
        )
        assert not ws.exists()
        run_ok(cli, ["synth", "--out", str(ws), "--quarters", "65"])
        outs = run_every_stage(cli, ws / "config.yaml")
        assert outs[0].startswith("frame: 65 quarters (1995Q1..2011Q1), ")
        assert outs[3].startswith("backtest: 12/12 variants fitted (cutoff 2008Q2) -> ")

    def test_rejects_negative_seed(self, cli, tmp_path):
        code, out, err = cli(["synth", "--out", str(tmp_path / "ws"), "--seed", "-1"])
        assert code == 3
        assert "seed must be >= 0, got -1" in err
        assert not (tmp_path / "ws").exists()

    def test_rejects_quarters_past_year_9999(self, cli, tmp_path):
        # 32021 quarters from 1995Q1 end in 10000Q1, which no CSV file can hold;
        # 10**12 is rejected before the generator allocates for it
        for quarters, year in [(32021, 10000), (10**12, (1995 * 4 + 10**12 - 1) // 4)]:
            args = ["synth", "--out", str(tmp_path / "ws"), "--quarters", str(quarters)]
            code, out, err = cli(args)
            assert code == 3
            assert err == f"error: year must be in 0..9999, got {year}\n"
            assert not (tmp_path / "ws").exists()


class TestPipeline:
    def test_full_chain(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        run_dir = load_config(config).run_dir()
        out = run_ok(cli, ["ingest", "--config", str(config)]).splitlines()
        frame = run_dir / "frame.csv"
        assert out[0] == f"frame: 92 quarters (1995Q1..2017Q4), 5 columns -> {frame}"
        assert "house_price" in "\n".join(out)
        out = run_ok(cli, ["features", "--config", str(config)]).splitlines()
        assert out[1:] == [
            f"rows 1995Q1..2017Q4 -> {run_dir / 'features.csv'}", "complete sample: 1997Q2..2017Q4"
        ]
        scan = run_ok(cli, ["lagscan", "--config", str(config)])
        assert "best lag: 6" in scan
        bt = run_ok(cli, ["backtest", "--config", str(config)])
        report = run_dir / "report.json"
        assert bt == f"backtest: 12/12 variants fitted (cutoff 2008Q2) -> {report}\n"
        rep = run_ok(cli, ["report", "--config", str(config)])
        assert "Benchmark model" in rep
        assert "Lending capacity model" in rep
        assert "up to 2008Q2" in rep
        rerun = load_config(config, cutoff="2006Q4").run_dir() / "report.json"
        bt = run_ok(cli, ["backtest", "--config", str(config), "--cutoff", "2006Q4"])
        assert bt == f"backtest: 12/12 variants fitted (cutoff 2006Q4) -> {rerun}\n"
        assert json.loads(rerun.read_text())["cutoff"] == "2006Q4"

        for name in ("frame.csv", "features.csv", "lag_scan.csv", "report.json"):
            assert (run_dir / name).is_file()
        assert (run_dir / "plots" / "summary.csv").is_file()
        assert len(list((run_dir / "plots").glob("*.csv"))) == 13

    def test_year_end_loan_to_value_runs_every_stage(self, cli, tmp_path):
        # loan-to-value reported once a year, at year end: the quarters before
        # the first Q4 stay missing, and the designs that read it drop them
        config = make_workspace(cli, tmp_path)
        ltv = config.with_name("ltv.csv")
        header, *rows = ltv.read_text().splitlines()
        rows = [row if row[4:6] == "Q4" else row[:7] for row in rows]
        assert [row[7:] != "" for row in rows[:8]] == [False, False, False, True] * 2
        ltv.write_text("\n".join([header, *rows]) + "\n")
        outs = run_every_stage(cli, config)
        assert outs[3].startswith("backtest: 12/12 variants fitted (cutoff 2008Q2) -> ")

    def test_late_loan_to_value_leaves_the_capacity_models_unchanged(self, cli, tmp_path):
        # the hlc models never read loan-to-value; the benchmark's samples
        # start where it does
        config = make_workspace(cli, tmp_path)
        late = make_workspace(cli, tmp_path / "late")
        ltv = late.with_name("ltv.csv")
        header, *rows = ltv.read_text().splitlines()
        assert rows[4].startswith("1996Q1,")
        ltv.write_text("\n".join([header, *rows[4:]]) + "\n")
        variants = []
        for c in (config, late):
            run_ok(cli, ["backtest", "--config", str(c)])
            report = json.loads((load_config(c).run_dir() / "report.json").read_text())
            variants.append({(v["name"], v["approach"], v["regime"]): v for v in report["variants"]})
        full, short = variants
        capacity = [key for key in full if key[0] in ("hlc", "benchmark_hlc")]
        assert len(capacity) == 8
        for key in capacity:
            assert json.dumps(short[key]) == json.dumps(full[key])
        starts = {
            key[1]: (full[key]["train"]["start"], short[key]["train"]["start"])
            for key in full if key[0] == "benchmark"
        }
        assert starts == {"ols": ("1995Q4", "1996Q1"), "ecm": ("1996Q1", "1996Q2")}

    def test_stock_derived_interest_only_share(self, cli, tmp_path):
        # the paper derives the new-mortgage interest-only share from the
        # share of the mortgage stock, transactions and households
        config = make_workspace(cli, tmp_path)
        start = parse_quarter("1995Q1")
        stock = [0.1 + 0.004 * min(k, 60) - 0.003 * max(k - 60, 0) for k in range(92)]
        inputs = {
            "interest_only_stock_share": ("fraction", stock),
            "transactions": ("count", [50_000.0] * 92),
            "households": ("count", [1_000_000.0] * 92),
        }
        doc = yaml.safe_load(config.read_text())
        del doc["data"]["interest_only_share"]
        for name, (unit, values) in inputs.items():
            path = config.with_name(f"{name}.csv")
            write_series_csv(QuarterlySeries._from_array(name, start, np.array(values)), path)
            doc["data"][name] = {"path": path.name, "unit": unit}
        doc["features"]["interest_only_zero_from"] = "2011Q1"
        config.write_text(yaml.safe_dump(doc, sort_keys=False))
        outs = run_every_stage(cli, config)
        assert outs[3].startswith("backtest: 12/12 variants fitted (cutoff 2008Q2) -> ")
        share = read_frame_csv(load_config(config).run_dir() / "features.csv").column(
            "interest_only_share"
        )
        cut = parse_quarter("2011Q1") - share.start_index
        expected = derive_interest_only_share(
            *(read_series_csv(config.with_name(f"{name}.csv")) for name in inputs)
        )
        assert share.start_index == expected.start_index == start
        assert share.values[:cut] == expected.values[:cut]
        assert share.values[cut:] == (0.0,) * (92 - cut)

    def test_stage_commands_self_sufficient(self, cli, tmp_path):
        # backtest on a virgin config must compute ingest+features itself
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["backtest", "--config", str(config)])
        run_dir = load_config(config).run_dir()
        assert (run_dir / "frame.csv").is_file()
        assert (run_dir / "report.json").is_file()

    def test_end_to_end_deterministic(self, cli, tmp_path):
        reports = []
        for child in ("one", "two"):
            root = tmp_path / child
            config = make_workspace(cli, root, seed=42)
            run_ok(cli, ["backtest", "--config", str(config)])
            reports.append((load_config(config).run_dir() / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_rerun_idempotent(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["ingest", "--config", str(config)])
        frame_path = load_config(config).run_dir() / "frame.csv"
        first = frame_path.read_bytes()
        run_ok(cli, ["ingest", "--config", str(config)])
        assert frame_path.read_bytes() == first
        run_ok(cli, ["backtest", "--config", str(config)])
        report_path = load_config(config).run_dir() / "report.json"
        first_report = report_path.read_bytes()
        run_ok(cli, ["backtest", "--config", str(config)])
        assert report_path.read_bytes() == first_report

    def test_cutoff_override_changes_run_dir(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        base_dir = load_config(config).run_dir()
        moved_dir = load_config(config, cutoff="2006Q4").run_dir()
        assert base_dir != moved_dir
        run_ok(cli, ["backtest", "--config", str(config), "--cutoff", "2006Q4"])
        doc = json.loads((moved_dir / "report.json").read_text())
        assert doc["cutoff"] == "2006Q4"

    def test_run_dir_does_not_depend_on_the_config_path_spelling(
        self, cli, tmp_path, monkeypatch
    ):
        config = make_workspace(cli, tmp_path)
        monkeypatch.chdir(tmp_path)
        relative = load_config("data/config.yaml").run_dir()
        run_ok(cli, ["backtest", "--config", "data/config.yaml"])
        run_ok(cli, ["backtest", "--config", str(config.resolve())])
        monkeypatch.chdir(tmp_path / "data")
        inside = load_config("config.yaml").run_dir()
        run_ok(cli, ["backtest", "--config", "config.yaml"])
        absolute = load_config(config.resolve()).run_dir()
        assert relative.name == inside.name == absolute.name
        assert [p.name for p in (tmp_path / "data" / "runs").iterdir()] == [relative.name]

    def test_lags_override(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        out = run_ok(cli, ["lagscan", "--config", str(config), "--lags", "0..8"])
        assert out.count("\n") >= 10  # 9 lag rows plus headers

    def test_holdout_window_report(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        doc["split"] = {"cutoff": "2008Q2", "evaluation_window": "holdout_only"}
        config.write_text(yaml.safe_dump(doc))
        out = run_ok(cli, ["report", "--config", str(config)])
        assert "evaluation window: holdout_only" in out
        assert "Benchmark model" in out


class TestStaleArtifacts:
    """A run directory never holds results of inputs that have since changed,
    and ``report`` never shows a report that other code wrote."""

    def test_edited_input_gets_new_run_dir_and_report(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["backtest", "--config", str(config)])
        old_dir = load_config(config).run_dir()
        old_report = (old_dir / "report.json").read_bytes()
        old_tables = run_ok(cli, ["report", "--config", str(config)])

        prices = tmp_path / "data" / "house_price.csv"
        write_series_csv(read_series_csv(prices).scale(2.0), prices)
        new_dir = load_config(config).run_dir()
        assert new_dir != old_dir

        new_tables = run_ok(cli, ["report", "--config", str(config)])
        assert new_tables != old_tables
        new_report = (new_dir / "report.json").read_bytes()
        assert new_report != old_report
        run_ok(cli, ["backtest", "--config", str(config)])
        assert (new_dir / "report.json").read_bytes() == new_report
        assert (old_dir / "report.json").read_bytes() == old_report

    def test_tampered_features_are_not_read_back(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["backtest", "--config", str(config)])
        run_dir = load_config(config).run_dir()
        clean = (run_dir / "report.json").read_bytes()

        feats = read_frame_csv(run_dir / "features.csv")
        zeroed = [feats.column(n).scale(0.0 if n == "hlc" else 1.0) for n in feats.names()]
        write_frame_csv(align(zeroed), run_dir / "features.csv")
        run_ok(cli, ["backtest", "--config", str(config)])
        assert (run_dir / "report.json").read_bytes() == clean

    @staticmethod
    def edited_run(cli, tmp_path) -> tuple[Path, Path, str, bytes]:
        """A backtested workspace whose report.json then had every RMSE set to 0.

        Returns the config, the run directory, and the tables and report.json
        of the clean run.
        """
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["backtest", "--config", str(config)])
        tables = run_ok(cli, ["report", "--config", str(config)])
        run_dir = load_config(config).run_dir()
        clean = (run_dir / "report.json").read_bytes()
        doc = json.loads(clean)
        for v in doc["variants"]:
            v["metrics_all"]["rmse"] = 0.0
        (run_dir / "report.json").write_text(json.dumps(doc))
        assert run_ok(cli, ["report", "--config", str(config)]) != tables
        return config, run_dir, tables, clean

    def test_report_under_another_code_digest_is_recomputed(self, cli, tmp_path):
        config, run_dir, tables, clean = self.edited_run(cli, tmp_path)
        manifest = run_dir / "manifest.json"
        written = manifest.read_bytes()
        doc = json.loads(written)
        doc["code_sha256"] = "0" * 64
        manifest.write_text(json.dumps(doc, indent=2) + "\n")
        assert run_ok(cli, ["report", "--config", str(config)]) == tables
        assert (run_dir / "report.json").read_bytes() == clean
        assert manifest.read_bytes() == written

    def test_report_without_a_manifest_is_recomputed(self, cli, tmp_path):
        # a run directory that an older hlcast wrote
        config, run_dir, tables, clean = self.edited_run(cli, tmp_path)
        (run_dir / "manifest.json").unlink()
        assert run_ok(cli, ["report", "--config", str(config)]) == tables
        assert (run_dir / "report.json").read_bytes() == clean
        assert (run_dir / "manifest.json").is_file()

    def test_report_that_a_failed_backtest_wrote_is_recomputed(self, cli, tmp_path, monkeypatch):
        # other code (another ECM level lag) writes report.json, then fails on
        # the plots: the running code's report must not print its numbers
        config = make_workspace(cli, tmp_path)
        tables = run_ok(cli, ["report", "--config", str(config)])
        run_dir = load_config(config).run_dir()
        clean = (run_dir / "report.json").read_bytes()
        summary = run_dir / "plots" / "summary.csv"
        summary.unlink()
        summary.mkdir()
        with monkeypatch.context() as patched:
            patched.setattr(hlcast.backtest, "ECM_LEVEL_LAG", 3)
            code, out, err = cli(["backtest", "--config", str(config)])
        assert code == 3 and "summary.csv" in err, err
        assert (run_dir / "report.json").read_bytes() != clean
        assert not (run_dir / "manifest.json").exists()
        summary.rmdir()
        assert run_ok(cli, ["report", "--config", str(config)]) == tables
        assert (run_dir / "report.json").read_bytes() == clean

    def test_backtest_writes_the_code_digest(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["backtest", "--config", str(config)])
        digest = hashlib.sha256()
        for path in sorted(Path(hlcast.__file__).parent.glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        manifest = load_config(config).run_dir() / "manifest.json"
        assert json.loads(manifest.read_text()) == {
            "schema_version": 1, "code_sha256": digest.hexdigest()
        }

    def test_run_hash_follows_its_recipe(self, cli, tmp_path):
        # the settings without output_dir plus each input's unit, as sorted
        # JSON, then each input's sha256 in name order, then the version
        config = make_workspace(cli, tmp_path)
        settings = yaml.safe_load(config.read_text())
        data = settings.pop("data")
        del settings["output_dir"]
        units = {name: entry["unit"] for name, entry in data.items()}
        digest = hashlib.sha256(json.dumps({"data": units, **settings}, sort_keys=True).encode())
        for name in sorted(data):
            source = config.parent / data[name]["path"]
            digest.update(hashlib.sha256(source.read_bytes()).digest())
        digest.update(hlcast.__version__.encode())
        assert load_config(config).run_hash() == digest.hexdigest()[:12]

    def test_hashlib_fallback_gives_the_same_digests(self, cli, tmp_path):
        # an interpreter built without its own SHA-256 modules hashes through
        # hashlib: the run directory and the code digest stay the same
        config = make_workspace(cli, tmp_path)
        code = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
import hlcast.cli, hlcast.config
assert hlcast.config.sha256 is hashlib.sha256
print(hlcast.config.load_config(sys.argv[1]).run_hash())
print(hlcast.cli._manifest(), end="")
"""
        env = {**os.environ, "PYTHONPATH": str(Path(hlcast.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code, str(config)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        run_hash, manifest = done.stdout.split("\n", 1)
        assert run_hash == load_config(config).run_hash()
        assert manifest == hlcast.cli._manifest()

    def test_version_is_part_of_the_run_hash(self, cli, tmp_path, monkeypatch):
        cfg = load_config(make_workspace(cli, tmp_path))
        before = cfg.run_hash()
        monkeypatch.setattr(hlcast.config, "__version__", hlcast.__version__ + ".post1")
        assert cfg.run_hash() != before


class TestErrors:
    def test_missing_config_file(self, cli, tmp_path):
        for path in (tmp_path / "nope.yaml", tmp_path):  # no file, and a directory
            code, out, err = cli(["ingest", "--config", str(path)])
            assert code == 2, out + err

    def test_malformed_yaml(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        config.write_text("data: [unclosed\n")
        code, out, err = cli(["backtest", "--config", str(config)])
        assert code == 2
        assert f"error: config {config} is not valid YAML" in err

    def test_unreadable_input_is_data_error(self, cli, tmp_path, monkeypatch):
        config = make_workspace(cli, tmp_path)

        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_bytes", denied)
        code, out, err = cli(["ingest", "--config", str(config)])
        assert code == 3
        assert "error: cannot read" in err and "Permission denied" in err

    def test_unknown_config_key(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        doc["surprise"] = 1
        config.write_text(yaml.safe_dump(doc))
        code, out, err = cli(["ingest", "--config", str(config)])
        assert code == 2
        assert "surprise" in err

    def test_missing_required_series(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        del doc["data"]["ltv"]
        config.write_text(yaml.safe_dump(doc))
        code, out, err = cli(["ingest", "--config", str(config)])
        assert code == 2
        assert "ltv" in err

    def test_malformed_csv_is_data_error(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        bad = tmp_path / "data" / "ltv.csv"
        bad.write_text("quarter,value\n1995Q1,not_a_number\n")
        code, out, err = cli(["ingest", "--config", str(config)])
        assert code == 3
        assert "ltv.csv:2" in err

    def test_non_finite_csv_cell_is_data_error(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        bad = tmp_path / "data" / "ltv.csv"
        lines = bad.read_text().splitlines()
        lines[1] = lines[1].split(",")[0] + ",inf"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = cli(["backtest", "--config", str(config)])
        assert code == 3
        assert "ltv.csv:2: not a finite number: 'inf'" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_feature_is_data_error(self, cli, tmp_path):
        # four incomes of 1e308 overflow the trailing mean to inf, which
        # features.csv could not be read back with
        config = make_workspace(cli, tmp_path)
        path = tmp_path / "data" / "income.csv"
        lines = path.read_text().splitlines()
        lines[1:5] = [line.split(",")[0] + ",1e308" for line in lines[1:5]]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = cli(["features", "--config", str(config)])
        assert code == 3
        assert (
            "features.csv: column 'income' at 1995Q4 is not a finite number: inf"
            in err
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
        self, cli, tmp_path, monkeypatch, args, edit
    ):
        def no_scan(*_, **__):
            raise AssertionError("lag_scan called with a lag range beyond the sample")

        monkeypatch.setattr(hlcast.regress, "lag_scan", no_scan)
        monkeypatch.setattr(hlcast.cli, "lag_scan", no_scan)
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        edit(doc)
        config.write_text(yaml.safe_dump(doc))
        code, out, err = cli(["lagscan", "--config", str(config), *args])
        assert code == 3, out + err
        assert "error: lag_scan.max must be below the sample length of 92 quarters" in err

    def test_lag_scan_without_a_usable_lag_is_data_error(self, cli, tmp_path):
        # no quarter has 200 quarters behind it, so capacity is missing everywhere
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        doc["features"]["smoothing_window"] = 200
        config.write_text(yaml.safe_dump(doc))
        code, out, err = cli(["lagscan", "--config", str(config)])
        assert code == 3, out + err
        assert err.splitlines() == ["error: no lag in 0..6 has a usable R^2"]
        (scan,) = (tmp_path / "data" / "runs").glob("*/lag_scan.csv")
        assert scan.read_text().splitlines() == ["lag,r_squared,n_obs"] + [
            f"{lag},,0" for lag in range(7)
        ]
        assert out.splitlines()[1:] == [f"{lag:>4}{'':>10}{0:>6}" for lag in range(7)]

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
    def test_flags_do_not_hide_bad_file_values(self, cli, tmp_path, edit, key):
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        edit(doc)
        config.write_text(yaml.safe_dump(doc))
        flags = ["--lags", "0..3", "--cutoff", "2008Q2", "--out", "o"]
        code, out, err = cli(["ingest", "--config", str(config), *flags])
        assert code == 2, out + err
        assert f"error: {key}" in err

    def test_bad_lags_flag(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        code, out, err = cli(["lagscan", "--config", str(config), "--lags", "abc"])
        assert code == 2

    def test_bad_cutoff_flag(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        code, out, err = cli(["backtest", "--config", str(config), "--cutoff", "never"])
        assert code == 2

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
            # a bool is no number, a string of digits is no number, and an
            # integer key takes no fraction
            for value, suffix in [
                ("four", ""),
                (True, "-bool"),
                (" 4_0 ", "-spaced-digits"),
                ("\u0664", "-arabic-indic-digit"),
                ("1e2", "-exponent-string"),
                ("nan", "-nan-string"),
            ] + [(4.7, "-fraction")] * integer
        ],
    )
    def test_non_numeric_config_value(self, cli, tmp_path, section, key, value):
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        doc.setdefault(section, {})[key] = value
        config.write_text(yaml.safe_dump(doc))
        code, out, err = cli(["ingest", "--config", str(config)])
        assert code == 2
        assert f"error: {section}.{key} must be" in err
        assert repr(value) in err

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
    def test_config_value_of_wrong_type(self, cli, tmp_path, edit, key):
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        edit(doc)
        config.write_text(yaml.safe_dump(doc))
        code, out, err = cli(["ingest", "--config", str(config)])
        assert code == 2, out + err
        assert f"error: {key} must be" in err

    def test_duplicate_model_exits_2(self, cli, tmp_path):
        # a repeated model would print its table twice under its own run hash
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        doc["backtest"]["models"] = ["benchmark", "hlc", "hlc", "benchmark_hlc"]
        config.write_text(yaml.safe_dump(doc))
        code, out, err = cli(["report", "--config", str(config)])
        assert (code, out) == (2, ""), err
        assert err == "error: backtest.models names hlc more than once\n"

    @pytest.mark.parametrize(
        "edit,args,message",
        [
            (lambda doc: doc.update(lti=5), [], "lti must be a mapping, got int"),
            (lambda doc: doc["lti"].update({1: 2}), [], "unknown key(s) under lti: 1"),
            (
                lambda doc: doc["lti"].update(woonquote=1.5),
                [],
                "invalid lti parameters: woonquote must be in (0, 1), got 1.5",
            ),
            (
                lambda doc: doc["lti"].update(term_months=10**400),
                [],
                f"invalid lti parameters: term_months must be in 1..1200, got {10**400}",
            ),
            (
                lambda doc: doc["features"].update(smoothing_window=0),
                [],
                "smoothing_window must be >= 1 and hlc_lag >= 0",
            ),
            (
                lambda doc: doc["split"].update(evaluation_window="x"),
                [],
                "evaluation_window must be 'all_quarters' or 'holdout_only', got 'x'",
            ),
            (
                lambda doc: doc["backtest"].update(forecast_mode="static"),
                [],
                "backtest.forecast_mode must be 'dynamic', got 'static'; "
                "the static path is reported as alt_forecast",
            ),
            (
                lambda doc: doc["backtest"].update(models=["foo"]),
                [],
                "unknown model(s) in backtest.models: 'foo' "
                "(known: benchmark, hlc, benchmark_hlc, benchmark_debt)",
            ),
            (
                lambda doc: doc["backtest"].update(models=[]),
                [],
                "backtest.models must not be empty",
            ),
            (
                lambda doc: doc["backtest"].update(models=["benchmark_debt"]),
                [],
                "model 'benchmark_debt' needs a data.debt_to_gdp series",
            ),
            (lambda doc: doc.update(data={}), [], "config must declare input series under 'data'"),
            (lambda doc: doc["data"]["ltv"].pop("path"), [], "data.ltv has no path"),
            (
                lambda doc: doc["data"]["ltv"].update(unit="furlong"),
                [],
                "data.ltv: unknown unit 'furlong' "
                "(expected one of count, dimensionless, eur, euros, fraction, percent)",
            ),
            (
                lambda doc: doc["data"].pop("interest_only_share"),
                [],
                "config must provide data.interest_only_share or all of "
                "interest_only_stock_share, transactions, households",
            ),
            (
                lambda doc: doc["data"]["ltv"].update(path="nope.csv"),
                [],
                "data file(s) not found: {nope}",
            ),
            (
                lambda doc: doc["data"]["ltv"].update(path="a" * 300),
                [],
                "data.ltv: cannot read its file: File name too long",
            ),
            (
                lambda doc: None,
                ["--lags", "5..3"],
                "lag range must satisfy 0 <= min <= max, got '5..3'",
            ),
            (lambda doc: None, ["--lags", "0..1_0"], "lag range must look like '0..6', got '0..1_0'"),
            (
                lambda doc: None,
                ["--lags", "\u0660..\u0663"],
                "lag range must look like '0..6', got '\u0660..\u0663'",
            ),
        ],
        ids=[
            "lti-not-a-mapping",
            "key-not-a-string",
            "woonquote-above-one",
            "term_months-past-100-years",
            "smoothing_window-zero",
            "evaluation_window",
            "forecast_mode",
            "unknown-model",
            "no-models",
            "debt-model-without-series",
            "empty-data",
            "data-entry-without-path",
            "unknown-unit",
            "no-interest-only-share",
            "missing-data-file",
            "data-path-too-long",
            "lags-flag-min-above-max",
            "lags-flag-underscore",
            "lags-flag-arabic-indic-digits",
        ],
    )
    def test_config_rule_exits_2_with_one_error_line(self, cli, tmp_path, edit, args, message):
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        edit(doc)
        config.write_text(yaml.safe_dump(doc))
        code, out, err = cli(["ingest", "--config", str(config), *args])
        assert (code, out) == (2, ""), err
        nope = quote(str(config.parent / "nope.csv"))
        assert err == f"error: {message.format(nope=nope)}\n"
        # only a file that passed every check is stored, before a flag is checked
        assert sidecar(config).exists() == bool(args)

    @pytest.mark.parametrize(
        "name,row,value",
        [("interest_only_share", 10, "1.5"), ("interest_rate", 20, "-1.0")],
        ids=["share-above-one", "negative-rate"],
    )
    def test_out_of_domain_value_is_data_error(self, cli, tmp_path, name, row, value):
        config = make_workspace(cli, tmp_path)
        path = tmp_path / "data" / f"{name}.csv"
        lines = path.read_text().splitlines()
        lines[row] = lines[row].split(",")[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        code, out, err = cli(["features", "--config", str(config)])
        assert code == 3, out + err
        assert f"error: column {name!r} at " in err

    def test_bom_prefixed_csv_is_read(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        income = tmp_path / "data" / "income.csv"
        income.write_bytes(b"\xef\xbb\xbf" + income.read_bytes())
        out = run_ok(cli, ["ingest", "--config", str(config)])
        assert "92 quarters" in out


    @pytest.mark.parametrize(
        "args",
        [
            ["synth", "--out", "afile/sub"],
            ["ingest", "--config", "ws/config.yaml", "--out", "{tmp}/afile"],
            ["synth", "--out", "afile"],
        ],
        ids=["synth-under-a-file", "run-dir-under-a-file", "synth-onto-a-file"],
    )
    def test_output_directory_that_cannot_be_made(self, cli, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        run_ok(cli, ["synth", "--out", "ws"])
        Path("afile").write_text("")
        code, out, err = cli([a.format(tmp=tmp_path) for a in args])
        assert code == 2, out + err
        assert err.startswith("error: cannot create output directory "), err
        assert "afile" in err

    @pytest.mark.parametrize(
        "edit,start",
        [
            (lambda doc: doc["lti"].update({"k" * 200_000: 1}), "unknown key(s) under lti: "),
            (
                lambda doc: doc["backtest"].update(models=["m" * 200_000]),
                "unknown model(s) in backtest.models: ",
            ),
            (
                lambda doc: doc["data"]["ltv"].update(path="/".join(["a" * 200] * 20)[:4005]),
                "data file(s) not found: ",
            ),
            (
                lambda doc: doc.update(output_dir="afile/" + "d" * 199_994),
                "cannot create output directory ",
            ),
            (
                lambda doc: doc["data"].update({"n" * 200_000: {}}),
                "a data series name must be at most 64 printable characters, got ",
            ),
            (
                lambda doc: doc["data"].update({"n" * 200_000: {"path": "ltv.csv"}}),
                "a data series name must be at most 64 printable characters, got ",
            ),
            (
                lambda doc: doc["data"].update({"lt\nv": {"path": "ltv.csv"}}),
                "a data series name must be at most 64 printable characters, got ",
            ),
        ],
        ids=[
            "lti-key", "model-name", "missing-data-path", "output-dir-under-a-file",
            "data-name-without-path", "data-name-with-path", "unprintable-data-name",
        ],
    )
    def test_a_long_name_or_path_is_quoted_bounded(self, cli, tmp_path, edit, start):
        # the error line quotes the name or path through errors.quote, whatever its length
        config = make_workspace(cli, tmp_path)
        (config.parent / "afile").write_text("")
        doc = yaml.safe_load(config.read_text())
        edit(doc)
        config.write_text(yaml.safe_dump(doc))
        code, out, err = cli(["ingest", "--config", str(config)])
        assert (code, out) == (2, ""), err[:1000]
        assert err.startswith(f"error: {start}'") and err.count("\n") == 1, err[:1000]
        assert len(err.encode()) <= 512, err[:1000]


class TestCommandLine:
    """Usage errors exit 2; every run of ``main`` ends in SystemExit."""

    def test_no_command_prints_usage(self, cli):
        code, out, err = cli([])
        assert code == 2
        assert err.lower().startswith("usage: hlcast ")

    def test_help_lists_every_command(self, cli):
        code, out, err = cli(["--help"])
        assert code == 0, err
        assert {"synth", "ingest", "features", "lagscan", "backtest", "report"} <= set(out.split())

    @pytest.mark.parametrize(
        "args",
        [["ingest", "--conf", "config.yaml"], ["synth", "--out", "ws", "--seed", "x"]],
        ids=["abbreviated-option", "non-integer-seed"],
    )
    def test_usage_error_exits_2(self, cli, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        code, out, err = cli(args)
        assert code == 2
        assert "usage: hlcast " in err.lower()

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("stage", ["ingest", "lagscan", "report"])
    def test_closed_stdout_exits_1_without_a_traceback(self, cli, tmp_path, stage, unbuffered):
        config = make_workspace(cli, tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(hlcast.__file__).parents[1])}
        env["PYTHONUNBUFFERED"] = unbuffered  # empty: stdout is a buffered pipe
        command = [sys.executable, "-m", "hlcast.cli", stage, "--config", str(config)]
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before the command prints
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == ""
        # a stage writes its files before it prints
        written = {"ingest": "frame.csv", "lagscan": "lag_scan.csv", "report": "report.json"}
        assert (load_config(config).run_dir() / written[stage]).is_file()

    def test_main_raises_system_exit_on_every_path(self, tmp_path):
        synth = ["synth", "--out", str(tmp_path / "ws")]
        with pytest.raises(SystemExit) as done:
            main(args=synth, prog_name="hlcast")
        assert done.value.code == 0
        with pytest.raises(SystemExit) as done:  # a DataError
            main(args=[*synth, "--quarters", "10"], prog_name="hlcast")
        assert done.value.code == 3


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
    def test_unreadable_report_is_data_error(self, cli, tmp_path, text):
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["backtest", "--config", str(config)])
        path = load_config(config).run_dir() / "report.json"
        path.write_text(text + "\n")
        code, out, err = cli(["report", "--config", str(config)])
        assert code == 3, out + err
        assert f"error: {path} is not a readable hlcast report" in err

    def test_null_metric_prints_na(self, cli, tmp_path):
        # a non-finite metric is written as null
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["backtest", "--config", str(config)])
        path = load_config(config).run_dir() / "report.json"
        doc = json.loads(path.read_text())
        for v in doc["variants"]:
            if v["name"] == "hlc" and v["regime"] == "truncated":
                v["metrics_all"].update(rmse=None, mae=None)
        path.write_text(json.dumps(doc))
        out = run_ok(cli, ["report", "--config", str(config)])
        na = [line.split() for line in out.splitlines() if "n/a" in line]
        assert na == [[a, "up", "to", "2008Q2", "n/a", "n/a"] for a in ("OLS", "ECM")]

    def test_metric_wider_than_its_cell_stays_a_separate_cell(self, cli, tmp_path):
        # 520,000,000.000 is wider than its 14-character cell and ran into the next one
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["backtest", "--config", str(config)])
        path = load_config(config).run_dir() / "report.json"
        doc = json.loads(path.read_text())
        for v in doc["variants"]:
            if v["name"] == "hlc" and v["approach"] == "ols" and v["regime"] == "full":
                v["metrics_all"].update(rmse=5.2e11, mae=3.1e11)
        path.write_text(json.dumps(doc))
        out = run_ok(cli, ["report", "--config", str(config)])
        rows = [line for line in out.splitlines() if line.startswith("  OLS   all quarters")]
        assert rows[1] == f"  {'OLS':<6}{'all quarters':<22}{'5.200e+08':>14}{'3.100e+08':>14}"


class TestOverflowingPrice:
    """A price of 1e308 fails every variant; no stage prints a numpy warning."""

    @pytest.fixture()
    def config(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        path = tmp_path / "data" / "house_price.csv"
        lines = path.read_text().splitlines()
        assert lines[21].startswith("2000Q1,")
        lines[21] = "2000Q1,1e308"
        path.write_text("\n".join(lines) + "\n")
        return config

    def test_ingest_prints_na_for_an_overflowing_statistic(self, cli, config):
        code, out, err = cli(["ingest", "--config", str(config)])
        assert code == 0, out + err
        (row,) = [line.split() for line in out.splitlines() if line.startswith("house_price ")]
        # the sd; the mean, 1e308 / 92, is finite
        assert row.count("n/a") == 1
        assert len(row) == 8
        assert "Warning" not in out + err

    def test_lagscan_names_the_overflowing_response(self, cli, config):
        code, out, err = cli(["lagscan", "--config", str(config)])
        assert code == 4, out + err
        assert "error: squares of response 'house_price' overflow at lag 0" in err
        assert "Warning" not in out + err

    def test_backtest_and_report_exit_4_after_writing(self, cli, config):
        code, out, err = cli(["backtest", "--config", str(config)])
        assert code == 4, out + err
        assert "Warning" not in out + err
        run_dir = load_config(config).run_dir()
        assert (run_dir / "report.json").is_file()
        assert list((run_dir / "plots").iterdir())
        (error,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert error.startswith(
            "error: 12 of 12 variants failed; first: benchmark/ecm/full: NumericalError: "
            "squares of column(s) house_price_lag1 overflow"
        ), error
        code, out, err = cli(["report", "--config", str(config)])
        assert code == 4, out + err
        assert "evaluation window" in out
        assert error in err.splitlines()

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
    def test_report_exit_code_follows_the_first_failure(self, cli, tmp_path, errors, code):
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["backtest", "--config", str(config)])
        path = load_config(config).run_dir() / "report.json"
        doc = json.loads(path.read_text())
        for v, error in zip(doc["variants"], errors, strict=True):
            v["error"] = error
        path.write_text(json.dumps(doc))
        status, out, err = cli(["report", "--config", str(config)])
        assert status == code, out + err
        assert ("error: 12 of 12 variants failed" in err) == (code != 0)


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

    def test_ingest_prints_table_header(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        out = run_ok(cli, ["ingest", "--config", str(config)])
        assert "series" in out and "p25" in out and "p75" in out


class TestConfigRoundTrip:
    def test_save_load_is_lossless(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        cfg = load_config(config)
        resaved = tmp_path / "resaved.yaml"
        cfg.save(resaved)
        again = load_config(resaved)
        assert again.to_canonical() == cfg.to_canonical()
        assert again.run_hash() == cfg.run_hash()

    def test_unit_override_scales_values(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        # declare the rate file as percent: ingested values shrink 100x
        doc["data"]["interest_rate"]["unit"] = "percent"
        config.write_text(yaml.safe_dump(doc))
        run_ok(cli, ["ingest", "--config", str(config)])
        frame_path = load_config(config).run_dir() / "frame.csv"
        header = frame_path.read_text().splitlines()
        idx = header[0].split(",").index("interest_rate")
        value = float(header[1].split(",")[idx])
        assert value < 0.001  # the synthetic fractions divided by 100


class TestConfigCache:
    """``load_config`` keeps the document it parses from a config that passes
    every check in a hidden sidecar beside it, keyed by the text; a later
    command on the same text reads the document from there and parses nothing,
    with the same output."""

    def test_the_second_command_parses_nothing(self, cli, tmp_path, monkeypatch):
        config = make_workspace(cli, tmp_path)
        loads = spy_on(monkeypatch)
        args = ["report", "--config", str(config)]
        first = cli(args)
        assert first[0] == 0 and len(loads) == 1 and sidecar(config).is_file()
        assert cli(args) == first
        assert len(loads) == 1

    def test_a_moved_workspace_still_hits(self, cli, tmp_path, monkeypatch):
        config = make_workspace(cli, tmp_path)
        run_dir = load_config(config).run_dir()
        moved = tmp_path / "moved"
        shutil.copytree(config.parent, moved)
        loads = spy_on(monkeypatch)
        assert load_config(moved / "config.yaml").run_dir().name == run_dir.name
        assert loads == []

    def test_an_edit_in_place_is_read(self, cli, tmp_path):
        config = make_workspace(cli, tmp_path)
        assert "evaluation window: all_quarters" in run_ok(cli, ["report", "--config", str(config)])
        text = config.read_text()
        assert "  evaluation_window: all_quarters\n" in text
        config.write_text(text.replace("all_quarters", "holdout_only"))
        assert "evaluation window: holdout_only" in run_ok(cli, ["report", "--config", str(config)])

    @pytest.mark.parametrize(
        "damage",
        ["corrupt", "wrong_shape", "too_deep", "other_key", "read_only_dir", "unwritable"],
    )
    def test_a_sidecar_that_cannot_serve_is_a_miss(self, cli, tmp_path, monkeypatch, damage):
        config = make_workspace(cli, tmp_path)
        args = ["ingest", "--config", str(config)]
        want = cli(args)
        assert want[0] == 0 and sidecar(config).is_file()
        if damage == "corrupt":
            sidecar(config).write_bytes(b'{"key": "\xff')
        elif damage == "wrong_shape":
            sidecar(config).write_text('["key", "document"]')
        elif damage == "too_deep":  # json.loads meets the recursion limit
            sidecar(config).write_text("[" * 100_000)
        elif damage == "other_key":
            # the document of a config whose run directory differs
            other = config.with_name("other.yaml")
            other.write_text(config.read_text().replace("hlc_lag: 6", "hlc_lag: 5"))
            assert load_config(other).run_dir() != load_config(config).run_dir()
            shutil.copy(sidecar(other), sidecar(config))
        else:
            sidecar(config).unlink()
            if damage == "unwritable":  # even for root
                (sidecar(config) / "taken").mkdir(parents=True)
        loads = spy_on(monkeypatch)
        if damage == "read_only_dir":
            config.parent.chmod(0o555)
        try:
            assert cli(args) == want
        finally:
            config.parent.chmod(0o755)
        assert len(loads) == 1

    @pytest.mark.parametrize(
        "value",
        [".nan", "2020-01-01", "[&a [x], *a]", "0x" + "f" * 4000, "1"],
        ids=["nan", "date", "alias", "int_past_4300_digits", "int"],
    )
    def test_a_document_json_cannot_hold_is_not_stored(self, cli, tmp_path, monkeypatch, value):
        # a config that fails its checks is parsed on every command and never
        # stored, whether or not JSON could write its document (a plain int can;
        # the hex integer has 4,817 decimal digits, which JSON cannot write)
        config = make_workspace(cli, tmp_path)
        config.write_text(config.read_text() + f"extra: {value}\n")
        loads = spy_on(monkeypatch)
        args = ["ingest", "--config", str(config)]
        first = cli(args)
        assert first[0] == 2 and "unknown key(s)" in first[2], first
        assert not sidecar(config).exists()
        assert cli(args) == first
        assert len(loads) == 2

    @pytest.mark.parametrize(
        "old,new",
        [
            (
                "  interest_rate:\n    path: interest_rate.csv\n    unit: fraction\n"
                "  ltv:\n    path: ltv.csv\n    unit: fraction\n",
                "  interest_rate: &f\n    path: interest_rate.csv\n    unit: fraction\n"
                "  ltv: *f\n",
            ),
            ("  smoothing_window: 4\n", "  smoothing_window: 1" + "0" * 3999 + "\n"),
            (
                "  cost_rate: 0.025\n  term_months: 360\n",
                "  cost_rate: 0\n  term_months: 360.0\n",
            ),
            (
                "features:\n  smoothing_window: 4\n  hlc_lag: 6\n  interest_only_zero_from: null\n",
                "features:\n",
            ),
        ],
        ids=["shared_alias", "4000_digits", "int_and_float_keys_swapped", "empty_section"],
    )
    def test_an_accepted_config_reads_back_as_itself(self, cli, tmp_path, monkeypatch, old, new):
        # only the checks keep these documents to what JSON writes back as itself
        config = make_workspace(cli, tmp_path)
        text = config.read_text()
        assert old in text
        config.write_text(text.replace(old, new))
        loads = spy_on(monkeypatch)
        first = load_config(config)
        assert len(loads) == 1 and sidecar(config).is_file()
        second = load_config(config)
        assert len(loads) == 1
        assert second == first and second.run_dir() == first.run_dir()

    def test_a_hit_still_runs_every_check(self, cli, tmp_path, monkeypatch):
        config = make_workspace(cli, tmp_path)
        run_ok(cli, ["ingest", "--config", str(config)])
        assert sidecar(config).is_file()
        (config.parent / "ltv.csv").unlink()
        loads = spy_on(monkeypatch)
        code, out, err = cli(["ingest", "--config", str(config)])
        assert (code, out) == (2, ""), err
        assert err == f"error: data file(s) not found: {quote(str(config.parent / 'ltv.csv'))}\n"
        assert loads == []


class TestConfigText:
    """Config text that YAML itself cannot turn into values exits 2 with one
    ``error:`` line naming the file."""

    def test_deep_nesting_exits_2(self, tmp_path):
        # a subprocess: a composer that recursed through all 50,000 levels
        # could overflow the C stack and take the test process down with it
        config = tmp_path / "deep.yaml"
        config.write_text("[" * 50_000 + "]" * 50_000 + "\n")
        env = {**os.environ, "PYTHONPATH": str(Path(hlcast.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "hlcast.cli", "ingest", "--config", str(config)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2, done.stderr[-500:]
        assert done.stderr == f"error: config {config} nests deeper than 32 levels\n"

    @staticmethod
    def nested(kind: str, levels: int) -> str:
        """A YAML value of ``kind`` that opens ``levels`` collections. The alias
        value opens a collection of ``levels - 1`` levels and names it again at
        the innermost level, so it reaches nearly twice as deep once expanded."""
        inner = levels - 1
        return {
            "flow_sequence": "[" * levels + "]" * levels,
            "flow_mapping": "{a: " * levels + "x" + "}" * levels,
            "block_sequence": "\n" + "- " * levels + "x",
            "block_mapping": "".join("\n" + "  " * (i + 1) + "a:" for i in range(levels)) + " x",
            "alias": f"[&a {'[' * inner}{']' * inner}, {'[' * inner}*a{']' * inner}]",
        }[kind]

    @pytest.mark.parametrize(
        "kind", ["flow_sequence", "flow_mapping", "block_sequence", "block_mapping", "alias"]
    )
    def test_depth_bound(self, cli, tmp_path, monkeypatch, kind):
        config = make_workspace(cli, tmp_path)
        text = config.read_text()
        assert text.endswith("\noutput_dir: runs\n")
        depth = hlcast.config.MAX_DEPTH
        loads = spy_on(monkeypatch)
        args = ["ingest", "--config", str(config)]
        # output_dir's value sits one level below the document's mapping
        for levels, want in ((depth - 1, "error: output_dir must be a string, got "),
                             (depth, f"error: config {config} nests deeper than {depth} levels\n")):
            config.write_text(text.replace(" runs\n", f" {self.nested(kind, levels)}\n"))
            sidecar(config).unlink(missing_ok=True)
            loads.clear()
            code, out, err = cli(args)
            assert code == 2 and err.startswith(want) and err.count("\n") == 1, err
            assert len(loads) == 1 and issubclass(loads[0], yaml.SafeLoader)
            # a config that fails its checks is not stored, so the next command parses again
            assert not sidecar(config).exists()
            assert cli(args) == (code, out, err)
            assert len(loads) == 2

    @pytest.mark.parametrize(
        "value,message",
        [
            ("1" + "0" * 5000, "Exceeds the limit (4300 digits)"),
            ("2020-13-45", "month must be in 1..12"),
        ],
        ids=["5001_digits", "month_13"],
    )
    def test_value_yaml_cannot_construct_exits_2(self, cli, tmp_path, value, message):
        config = make_workspace(cli, tmp_path)
        text = config.read_text()
        assert "  term_months: 360\n" in text
        config.write_text(text.replace("  term_months: 360\n", f"  term_months: {value}\n"))
        code, out, err = cli(["ingest", "--config", str(config)])
        assert code == 2, err
        assert err.startswith(f"error: config {config} holds a value that cannot be read: ")
        assert message in err and err.count("\n") == 1

    def test_key_too_long_to_print_is_quoted_bounded(self, cli, tmp_path):
        # a 16,000-bit hex int, which repr refuses (4,817 digits), as an explicit key
        config = make_workspace(cli, tmp_path)
        config.write_text(config.read_text() + f"? 0x{'f' * 4000}\n: 1\n")
        code, out, err = cli(["ingest", "--config", str(config)])
        assert (code, err) == (2, f"error: unknown key(s) under {config}: <int of 16000 bits>\n")

    @pytest.mark.parametrize(
        "key", ["output_dir", "split.cutoff", "lti.term_months", "backtest.forecast_mode"]
    )
    def test_alias_fan_out_is_quoted_bounded(self, cli, tmp_path, key):
        # three levels of aliases, each ten times the last: the full repr of
        # the value is ~5.8 kB, and grows tenfold per level
        levels = ", ".join(f"&a{i} [{', '.join([f'*a{i - 1}'] * 10)}]" for i in range(1, 4))
        config = make_workspace(cli, tmp_path)
        doc = yaml.safe_load(config.read_text())
        section, _, name = key.partition(".")
        node = doc[section] if name else doc
        node[name or section] = "FAN"
        config.write_text(yaml.safe_dump(doc).replace("FAN", f"[&a0 x, {levels}]"))
        code, out, err = cli(["ingest", "--config", str(config)])
        assert code == 2 and err.startswith(f"error: {key}") and err.count("\n") == 1, err
        assert len(err.encode()) <= 300, err

    @pytest.mark.parametrize(
        "where,code",
        [
            ("header", 3),
            ("quarter-cell", 3),
            ("value-cell", 3),
            ("split.cutoff", 2),
            ("split.evaluation_window", 2),
            ("--cutoff", 2),
            ("--lags", 2),
        ],
    )
    def test_long_outside_text_is_quoted_bounded(self, cli, tmp_path, where, code):
        config = make_workspace(cli, tmp_path)
        ltv = config.parent / "ltv.csv"
        rows, long, args = ltv.read_text().splitlines(), "7" * 200_000, []
        if where == "header":
            rows[0] = ",".join(["h" * 100_000] * 20)
        elif where == "quarter-cell":
            rows[1] = f"{long[:131_000]},0.5"
        elif where == "value-cell":
            rows[1] = f"1995Q1,{long[:131_000]}"
        elif where.startswith("--"):
            args = [where, long]
        else:
            doc = yaml.safe_load(config.read_text())
            section, key = where.split(".")
            doc[section][key] = long
            config.write_text(yaml.safe_dump(doc))
        ltv.write_text("\n".join(rows) + "\n")
        got, out, err = cli(["ingest", "--config", str(config), *args])
        assert got == code and err.startswith("error: ") and err.count("\n") == 1, err[:500]
        assert len(err.encode()) <= 512, err[:500]
        assert "..." in err

    def test_text_that_is_not_utf8_exits_2(self, cli, tmp_path):
        config = tmp_path / "latin1.yaml"
        config.write_bytes("output_dir: caf\u00e9\n".encode("latin-1"))
        code, out, err = cli(["ingest", "--config", str(config)])
        assert code == 2
        assert err.startswith(f"error: cannot read config {config}: ") and err.count("\n") == 1


class TestWarnings:
    @pytest.fixture()
    def config(self, cli, tmp_path):
        """A workspace whose 2017Q4 price of 0 fits an ECM with gamma >= 0."""
        config = make_workspace(cli, tmp_path)
        path = tmp_path / "data" / "house_price.csv"
        lines = path.read_text().splitlines()
        (i,) = [i for i, line in enumerate(lines) if line.startswith("2017Q4,")]
        lines[i] = "2017Q4,0"
        path.write_text("\n".join(lines) + "\n")
        return config

    @pytest.mark.filterwarnings("default::UserWarning")  # the CLI must print it
    def test_a_warning_is_one_line(self, cli, config):
        code, out, err = cli(["backtest", "--config", str(config)])
        assert code == 0, err
        lines = err.splitlines()
        assert lines and all(line.startswith("warning: ") for line in lines), err
        assert any(line.startswith("warning: adjustment coefficient") for line in lines)
        assert "UserWarning" not in err and ".py:" not in err

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_the_warning_filters_still_apply(self, cli, config):
        with pytest.raises(UserWarning, match="adjustment coefficient"):
            cli(["backtest", "--config", str(config)])


def test_import_leaves_scipy_out():
    # of third-party packages, importing the CLI loads only numpy's package;
    # PyYAML waits for a config that must be parsed
    env = {**os.environ, "PYTHONPATH": str(Path(hlcast.__file__).parents[1])}
    code = (
        "import sys; before = set(sys.modules); import hlcast.cli; "
        "print(*{m.split('.')[0] for m in set(sys.modules) - before})"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split()) - set(sys.stdlib_module_names)
    assert loaded <= {"hlcast", "numpy"}, loaded
