import argparse
import json
import math
import re
from pathlib import Path

import pytest

from anhcrystal import config as config_module
from anhcrystal import sampler
from anhcrystal.cli import main, make_parser, parse_observable
from anhcrystal.config import (KEYS, ConfigError, load_config, parse_config_text,
                               write_manifest)

PACKAGE = Path(config_module.__file__).parent


BASE_CONFIG = """
# desk-scale defaults
m = 1.0
a = 1.0
b = 1.0
delta = 1.0
J = 0.25
beta = 2.0
h = 0,0,0,0,0,0,0,0
d = 8
nu = 1
dims = 8
c = 0.0
samples = 5000
seed = 3
slices_per_unit = 8
"""


def write_config(tmp_path, text=BASE_CONFIG, **extra):
    if "d" in extra and "h" not in extra:
        extra["h"] = (0.0,) * extra["d"]
    lines = [text]
    for key, value in extra.items():
        if isinstance(value, (tuple, list)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines))
    return path


def _json_error(capsys) -> str:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


class TestConfig:
    def test_parse_roundtrip(self):
        cfg = parse_config_text("m = 0.5\ndims = 4, 4\nh = 0.1\nbeta = inf\n")
        assert cfg["m"] == 0.5
        assert cfg["dims"] == (4, 4)
        assert cfg["h"] == (0.1,)
        assert math.isinf(cfg["beta"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("nonsense = 3\n")

    @pytest.mark.parametrize("key", ["threads", "rho", "rho_prop", "c_offset", "n_max",
                                     "bc"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config_text(f"{key} = 1\n")

    def test_every_key_is_read(self):
        # a key that parses but that no code reads is an option that does nothing
        source = "".join((PACKAGE / name).read_text()
                         for name in ("cli.py", "config.py", "verify.py"))
        read = set(re.findall(r'cfg(?:\["|\.get\(")(\w+)', source))
        keys = (config_module._FLOAT_KEYS | config_module._INT_KEYS
                | config_module._LIST_KEYS | config_module._STR_KEYS)
        assert keys - read == set()

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        missing = tmp_path / "missing.cfg"
        assert main(["--config", str(missing), "--out", str(out), "thresholds"]) == 2
        assert str(missing) in _json_error(capsys)
        assert not out.exists()

    def test_overrides_beat_file(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, {"seed": 42})
        assert cfg["seed"] == 42

    def test_manifest_written(self, tmp_path):
        cfg = load_config(None)
        path = write_manifest(tmp_path, "thresholds", cfg, "0.1.0")
        data = json.loads(path.read_text())
        assert data["subcommand"] == "thresholds"
        assert data["config"]["samples"] == cfg["samples"]

    @pytest.mark.parametrize("text, bad", [("mode = hight", "hight"), ("backend = foo", "foo"),
                                           ("check = nope", "nope"), ("sites = 3", "3")])
    def test_choice_keys_checked_in_files(self, text, bad):
        with pytest.raises(ConfigError, match=f"must be one of .*got '{bad}'"):
            parse_config_text(text + "\n")

    def test_readme_table_lists_every_key(self):
        readme = (PACKAGE.parents[1] / "README.md").read_text()
        section = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
        cells = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
        listed = [key.strip() for cell in cells for key in cell.split(",")]
        assert sorted(listed) == sorted(KEYS)


class TestObservableGrammar:
    def test_single_factor(self):
        assert parse_observable("phi[0,0.5,0]") == [(0, 0.5, 0)]

    def test_product(self):
        text = "phi[1,0.25,0]*phi[3,1.5,1]"
        assert parse_observable(text) == [(1, 0.25, 0), (3, 1.5, 1)]

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_observable("psi[0,0,0]")
        with pytest.raises(ConfigError):
            parse_observable("phi[0,0]")


class TestThresholdsCommand:
    def test_reference_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                   "thresholds"])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "thresholds.json").read_text())
        # b = 1, a = 1, C_G = 1, c = 0, d = 8: threshold is 1/64
        assert payload["m_star"] == pytest.approx(0.015625, rel=1e-12)
        assert payload["beta_star"] == pytest.approx(0.015625 ** 0.25, rel=1e-12)
        assert payload["C_G"] == 1.0
        assert (tmp_path / "out" / "thresholds.manifest.json").exists()

    def test_odd_box_rejected_with_evenness_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dims=(7,))
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                   "thresholds"])
        assert rc == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert "even" in payload["error"]


class TestSampleCommand:
    def test_deterministic_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, b=0.5, d=1, observable="phi[0,0.5,0]*phi[0,0.5,0]",
                           dims=(2,))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--config", str(cfg), "--out", str(out1), "sample"]) == 0
        assert main(["--config", str(cfg), "--out", str(out2), "sample"]) == 0
        b1 = (out1 / "sample.json").read_bytes()
        b2 = (out2 / "sample.json").read_bytes()
        assert b1 == b2
        payload = json.loads(b1)
        assert set(payload) == {"mean", "stderr", "n", "ess", "seed"}

    def test_seed_changes_result(self, tmp_path):
        cfg = write_config(tmp_path, b=0.5, d=1, observable="phi[0,0.5,0]*phi[0,0.5,0]",
                           dims=(2,))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["--config", str(cfg), "--out", str(out1), "sample"])
        main(["--config", str(cfg), "--out", str(out2), "--seed", "99", "sample"])
        m1 = json.loads((out1 / "sample.json").read_text())["mean"]
        m2 = json.loads((out2 / "sample.json").read_text())["mean"]
        assert m1 != m2

    def test_flag_values_parse_like_file_values(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "out"), "sample", "--samples", "abc"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "samples" in payload["error"] and "abc" in payload["error"]
        assert not (tmp_path / "out").exists()


class TestParserErrors:
    FLAGS = {
        "thresholds": set(),
        "covariance": {"--n-max", "--tau-grid", "--nu", "--dims", "--boundary"},
        "sample": {"--samples", "--slices-per-unit", "--backend", "--observable", "--boundary",
                   "--nu", "--dims"},
        "cluster": {"--order", "--mode", "--observable", "--check", "--samples"},
        "oracle": {"--sites", "--grid", "--extent", "--tau-grid"},
        "uniqueness": {"--sizes", "--samples"},
        "order-param": {"--h-values", "--sizes", "--samples"},
        "verify": set(),
    }

    def test_flags_of_every_subcommand(self):
        parser = make_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.FLAGS)
        for name, command in sub.choices.items():
            assert set(command._option_string_actions) - {"-h", "--help"} == self.FLAGS[name]
            # every flag sets a configuration key
            assert {a.dest for a in command._actions if a.dest != "help"} <= KEYS

    @pytest.mark.parametrize("argv, bad", [(["oracle", "--grid", "abc"], "abc"),
                                           (["sample", "--backend", "foo"], "foo"),
                                           (["cluster", "--check", "nope"], "nope")],
                             ids=["oracle-grid", "sample-backend", "cluster-check"])
    def test_bad_flag_exits_2_with_json_error(self, tmp_path, capsys, argv, bad):
        assert main(["--out", str(tmp_path / "out"), *argv]) == 2
        assert bad in _json_error(capsys)
        assert not (tmp_path / "out").exists()


class TestCovarianceCommand:
    def test_csv_written(self, tmp_path):
        cfg = write_config(tmp_path, d=1)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "covariance",
                   "--n-max", "2000", "--tau-grid", "0.25,0.5"])
        assert rc == 0
        rows = (out / "covariance.csv").read_text().strip().splitlines()
        assert rows[0] == "j,tau,G_matsubara,G_closed,abs_diff"
        assert len(rows) == 1 + 8 * 2
        j, tau, mats, closed, diff = rows[1].split(",")
        assert abs(float(mats) - float(closed)) == pytest.approx(float(diff))
        assert float(diff) < 1e-3

    def test_bc_key_sets_the_box_boundary(self, tmp_path):
        # boundary = zero and --boundary dirichlet name the same box, and the
        # flag beats the file; the periodic table differs, since only it has
        # Matsubara sums to compare
        tables = {}
        for name, extra, flags, boundary in (
                ("zero", {"boundary": "zero"}, [], "zero"),
                ("dirichlet", {}, ["--boundary", "dirichlet"], "dirichlet"),
                ("flag", {"boundary": "periodic"}, ["--boundary", "dirichlet"], "dirichlet"),
                ("periodic", {}, [], "periodic")):
            cfg = write_config(tmp_path, d=1, dims=(4,), **extra)
            out = tmp_path / name
            assert main(["--config", str(cfg), "--out", str(out), "covariance",
                         "--n-max", "100", *flags]) == 0
            tables[name] = (out / "covariance.csv").read_text()
            manifest = json.loads((out / "covariance.manifest.json").read_text())["config"]
            assert manifest["matsubara_cutoff"] == 100 and "n_max" not in manifest
            assert manifest["boundary"] == boundary
        assert tables["zero"] == tables["dirichlet"] == tables["flag"] != tables["periodic"]
        for row in tables["zero"].strip().splitlines()[1:]:
            assert float(row.split(",")[-1]) == 0.0

    def test_tau_beyond_the_period_leaves_no_result(self, tmp_path, capsys):
        # the series form is defined for |tau| <= beta_hat = 2; every row is
        # computed before the table is written
        out = tmp_path / "out"
        rc = main(["--out", str(out), "covariance", "--n-max", "200", "--tau-grid", "0.5,5"])
        assert rc == 2
        assert "|tau| must not exceed beta_hat" in _json_error(capsys)
        assert not (out / "covariance.csv").exists()

    def test_unknown_boundary_rejected(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "out"), "covariance", "--boundary", "open"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "open" in payload["error"]


class TestClusterCommand:
    def test_tree_check(self, tmp_path):
        cfg = write_config(tmp_path, d=1)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "cluster",
                   "--check", "trees"])
        assert rc == 0
        payload = json.loads((out / "cluster_trees.json").read_text())
        assert payload["ok"]
        assert payload["orders"]["5"]["count"] == 24

    def test_bf_check(self, tmp_path):
        cfg = write_config(tmp_path, d=1)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "cluster",
                   "--check", "bf"])
        assert rc == 0
        payload = json.loads((out / "cluster_bf.json").read_text())
        assert payload["ok"]
        assert payload["orders"]["3"]["sum"] == "2"

    def test_residuals_check_is_error_aware(self, tmp_path, capsys):
        cfg = write_config(tmp_path, d=1, dims=(2,))
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "cluster",
                   "--check", "residuals", "--order", "2", "--samples", "10000"])
        payload = json.loads((out / "cluster_residuals.json").read_text())
        assert rc == 0 and payload["ok"]
        # one progress line per order on stderr: the empty sequence, then 3 rods
        progress = capsys.readouterr().err.strip().splitlines()
        assert [line.split(",")[:2] for line in progress] == [
            ["cluster residuals: order 1 done", " 1 rod sequences"],
            ["cluster residuals: order 2 done", " 3 rod sequences"]]
        residuals = payload["residuals"]
        assert len(residuals) == 2
        for value, stderr in residuals:
            assert math.isfinite(value) and stderr > 0
        (hi, dhi), (lo, dlo) = residuals
        assert hi - lo >= 3.0 * math.hypot(dhi, dlo)

    def test_newton_leibniz_check_runs_at_the_default_config(self, tmp_path):
        # 8 sites x 32 slices: X_1 is one of 16 rods, cut from the other 15 at once
        out = tmp_path / "out"
        rc = main(["--out", str(out), "cluster", "--check", "newton-leibniz",
                   "--samples", "5000"])
        payload = json.loads((out / "cluster_newton_leibniz.json").read_text())
        assert rc == 0 and payload["ok"], payload
        assert {"direct", "term_one", "remainder", "remainder_ibp",
                "sigma_gap"} <= payload.keys()
        assert payload["sigma_gap"] < 4.0

    def test_unknown_mode_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, d=1, dims=(2,), mode="hight")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "cluster",
                   "--check", "newton-leibniz", "--samples", "1000"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "hight" in payload["error"]
        assert not out.exists()


    @pytest.mark.parametrize("check, samples, rule", [("residuals", "1050", "multiple of 100"),
                                                     ("newton-leibniz", "1010", "multiple of 20")])
    def test_samples_checked_before_any_order_runs(self, tmp_path, capsys, check, samples, rule):
        # R1 and the IBP remainder draw 20 scrambles, and the F ratios of later
        # orders 50 plain batches too, so residuals need a multiple of 100
        out = tmp_path / "out"
        rc = main(["--out", str(out), "cluster", "--check", check, "--samples", samples])
        err = capsys.readouterr().err
        assert rc == 2 and "order 1 done" not in err
        assert rule in json.loads(err.strip().splitlines()[-1])["error"]
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())

    @pytest.mark.parametrize("flags", [["--order", "1"], ["--order", "0", "--samples", "50"]],
                             ids=["order-1", "order-0"])
    def test_residuals_need_two_orders(self, tmp_path, capsys, flags):
        # one order gives no drop to resolve, so there is nothing to check
        out = tmp_path / "out"
        rc = main(["--out", str(out), "cluster", "--check", "residuals", *flags])
        err = capsys.readouterr().err
        assert rc == 2 and "order 1 done" not in err
        assert "needs order >= 2" in json.loads(err.strip().splitlines()[-1])["error"]
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())

    def test_observable_off_the_box_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "cluster", "--check", "newton-leibniz", "--samples", "1000",
                   "--observable", "phi[9,0.5,0]*phi[9,0.5,0]"])
        assert rc == 2
        assert "site 9 is outside the 8-site box" in _json_error(capsys)
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())


class TestScanCommands:
    SMALL = ["--samples", "2000"]

    def test_uniqueness_rows_rerun_and_field(self, tmp_path):
        results = {}
        for name, h in (("first", 0.0), ("second", 0.0), ("field", 0.3)):
            cfg = write_config(tmp_path, d=1, h=(h,))
            out = tmp_path / name
            assert main(["--config", str(cfg), "--out", str(out), "uniqueness",
                         "--sizes", "4,6", *self.SMALL]) == 0
            results[name] = (out / "uniqueness.json").read_bytes()
        assert results["first"] == results["second"]
        rows = json.loads(results["first"])["rows"]
        assert [row["n"] for row in rows] == [4, 6]
        # the configured field is part of the measure whose uniqueness is scanned
        assert results["field"] != results["first"]

    def test_order_param_runs_n_by_n_boxes(self, tmp_path, monkeypatch):
        boxes = []
        scan = sampler.order_parameter

        def recording_scan(make_ensemble, *rest):
            def make(n, h):
                ens = make_ensemble(n, h)
                boxes.append((ens.lattice.dims, ens.h_hat))
                return ens
            return scan(make, *rest)

        monkeypatch.setattr(sampler, "order_parameter", recording_scan)
        cfg = write_config(tmp_path, d=2, nu=2, dims=(4, 4))
        tables = []
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(["--config", str(cfg), "--out", str(out), "order-param",
                         "--sizes", "2,4", "--h-values", "0.1,0", *self.SMALL]) == 0
            tables.append((out / "order_param.json").read_bytes())
        assert tables[0] == tables[1]
        rows = json.loads(tables[0])["rows"]
        assert [(row["n"], row["h"]) for row in rows] == [(2, 0.1), (2, 0.0),
                                                          (4, 0.1), (4, 0.0)]
        assert [dims for dims, _ in boxes[:4]] == [(2, 2), (2, 2), (4, 4), (4, 4)]
        # the field points along the first displacement component
        assert boxes[0][1][0] > 0.0 and boxes[0][1][1] == 0.0 and not any(boxes[1][1])

    @pytest.mark.parametrize("command", ["uniqueness", "order-param"])
    def test_infinite_beta_rejected(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, d=1, beta="inf")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), command, *self.SMALL])
        assert rc == 2
        assert "finite beta" in _json_error(capsys)
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())

    @pytest.mark.parametrize("command", ["uniqueness", "order-param"])
    def test_odd_scan_size_rejected(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, d=1)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), command,
                   "--sizes", "4,7", *self.SMALL])
        assert rc == 2
        assert "even" in _json_error(capsys)
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())

    def test_uniqueness_manifest_records_the_zero_boundary(self, tmp_path):
        cfg = write_config(tmp_path, d=1, boundary="periodic")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "uniqueness",
                     "--sizes", "4", "--samples", "500"]) == 0
        manifest = json.loads((out / "uniqueness.manifest.json").read_text())
        assert manifest["config"]["boundary"] == "zero"

    def test_uniqueness_needs_a_chain(self, tmp_path, capsys):
        cfg = write_config(tmp_path, d=1, nu=2, dims=(4, 4))
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "uniqueness",
                   "--sizes", "4", *self.SMALL])
        assert rc == 2
        assert "nu = 1" in _json_error(capsys)
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())


class TestSobolLedBudgets:
    # the importance-sampling estimators split their draws into 20 equal
    # scrambles; 1,050 draws made 50 plain batches but cannot make 20
    @pytest.mark.parametrize("command", ["sample", "uniqueness", "order-param"])
    def test_samples_must_fill_whole_scrambles(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, d=1)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), command, "--samples", "1050"])
        assert rc == 2
        assert "multiple of 20" in _json_error(capsys)
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())

    def test_a_multiple_of_20_samples(self, tmp_path):
        cfg = write_config(tmp_path, d=1)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "sample",
                     "--samples", "1020"]) == 0
        assert json.loads((out / "sample.json").read_text())["n"] == 1020


class TestSampleInputs:
    # the default box is an 8-site chain with 32 slices and one component
    @pytest.mark.parametrize("observable, message", [
        ("phi[9,0,0]", "site 9 is outside the 8-site box"),
        ("phi[-1,0,0]", "site -1 is outside the 8-site box"),
        ("phi[0,0,1]", "component 1 is not one of the field's 1"),
    ])
    def test_observable_off_the_box_rejected(self, tmp_path, capsys, observable, message):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "sample", "--samples", "1000", "--observable", observable])
        assert rc == 2
        assert message in _json_error(capsys)
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())

    @pytest.mark.parametrize("rows, line, message", [
        ("-1,0,0,1.0\n8,40,0,1.0\n", 2, "slice 40"),
        ("8,-1,0,1.0\n", 1, "slice -1"),
        ("# site,slice,component,value\n3,0,0,1.0\n", 2, "site 3 is not in the box's outside layer"),
        ("8,0,0\n", 1, "expected site, slice, component, value"),
    ])
    def test_bad_tempered_row_rejected_with_file_and_line(self, tmp_path, capsys, rows, line,
                                                          message):
        path = tmp_path / "xi.csv"
        path.write_text(rows)
        out = tmp_path / "out"
        rc = main(["--out", str(out), "sample", "--samples", "1000",
                   "--boundary", f"tempered:{path}"])
        assert rc == 2
        error = _json_error(capsys)
        assert f"{path}, line {line}" in error and message in error, error
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())

    def test_missing_tempered_file_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "absent.csv"
        rc = main(["--out", str(out), "sample", "--samples", "1000",
                   "--boundary", f"tempered:{path}"])
        assert rc == 2
        assert f"cannot read tempered boundary file {path}" in _json_error(capsys)
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())

    def test_tempered_file_fills_the_two_ends(self, tmp_path):
        path = tmp_path / "xi.csv"
        path.write_text("# site,slice,component,value\n-1,0,0,1.0\n8,31,0,2.0\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "sample", "--samples", "1000",
                     "--boundary", f"tempered:{path}"]) == 0
        assert json.loads((out / "sample.json").read_text())["n"] == 1000


class TestPeriodicOnlyCommands:
    @pytest.mark.parametrize("argv", [["cluster", "--check", "newton-leibniz"],
                                      ["cluster", "--check", "residuals"],
                                      ["order-param"]],
                             ids=["newton-leibniz", "residuals", "order-param"])
    def test_periodic_only_commands_reject_other_boundaries(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, d=1, dims=(2,), boundary="zero")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), *argv, "--samples", "1000"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "periodic" in payload["error"]
        assert all(p.name.endswith(".manifest.json") for p in out.iterdir())


class TestVerifyCommand:
    def test_timings_on_stdout_and_byte_identical_results(self, tmp_path, capsys):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--out", str(out1), "verify"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[:-1]
        assert main(["--out", str(out2), "verify"]) == 0
        b1 = (out1 / "verify.json").read_bytes()
        assert b1 == (out2 / "verify.json").read_bytes()
        checks = json.loads(b1)["checks"]
        # one stdout row per check with its wall time, which the file leaves out
        assert len(rows) == len(checks)
        for row, check in zip(rows, checks):
            name, verdict, seconds, unit = row.split()[:4]
            assert name == check["name"] and verdict == "PASS"
            assert float(seconds) >= 0.0 and unit == "s"
            assert set(check) == {"name", "ok", "detail"}


class TestOracleCommand:
    def test_csv(self, tmp_path):
        cfg = write_config(tmp_path, d=1, b=0.0)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "oracle",
                   "--sites", "1", "--grid", "256", "--tau-grid", "0.5,1.0"])
        assert rc == 0
        rows = (out / "oracle.csv").read_text().strip().splitlines()
        assert rows[0] == "tau,correlation"
        assert len(rows) == 3

    def test_two_sites_byte_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, d=1)
        tables = []
        for run in ("first", "second"):
            out = tmp_path / run
            rc = main(["--config", str(cfg), "--out", str(out), "oracle", "--sites", "2"])
            assert rc == 0
            tables.append((out / "oracle.csv").read_bytes())
        assert tables[0] == tables[1]
        assert len(tables[0].decode().strip().splitlines()) == 4

    def test_tau_outside_period_leaves_no_result(self, tmp_path, capsys):
        cfg = write_config(tmp_path, d=1)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "oracle", "--sites", "1",
                   "--tau-grid", "0.5,5"])
        assert rc == 2
        assert "tau must lie in" in _json_error(capsys)
        assert not (out / "oracle.csv").exists()

    def test_infinite_beta_rejected(self, tmp_path):
        cfg = write_config(tmp_path, d=1, beta="inf")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                   "oracle", "--sites", "1"])
        assert rc == 2

    @pytest.mark.parametrize("extra, message", [({"d": 1, "h": (0.3,)}, "need h = 0"),
                                                ({"d": 2}, "needs d = 1")],
                             ids=["field", "vector"])
    def test_field_and_vector_displacements_rejected(self, tmp_path, capsys, extra, message):
        # the grid Hamiltonian has no field term and one scalar coordinate per site
        cfg = write_config(tmp_path, **extra)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "oracle", "--grid", "64"])
        assert rc == 2
        assert message in _json_error(capsys)
        assert not (out / "oracle.csv").exists()


class TestManifestRoundTrip:
    # each run sets inputs away from their defaults; a rerun configured from its
    # manifest alone must write the same files, the manifest included
    RUNS = {
        "thresholds": [],
        "covariance": ["--n-max", "100", "--tau-grid", "0.5", "--dims", "4"],
        "sample": ["--samples", "1000", "--dims", "2", "--observable", "phi[1,0.5,0]"],
        "cluster": ["--check", "bf"],
        "oracle": ["--grid", "64", "--extent", "6", "--tau-grid", "0.25"],
        "uniqueness": ["--sizes", "4", "--samples", "500"],
        "order-param": ["--sizes", "2", "--h-values", "0.1,0", "--samples", "500"],
        "verify": [],
    }

    @staticmethod
    def config_text(config: dict) -> str:
        return "".join(f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}\n"
                       for key, value in config.items())

    @pytest.mark.parametrize("command", list(RUNS))
    def test_manifest_reproduces_the_run(self, tmp_path, command):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["--out", str(first), command, *self.RUNS[command]]) in (0, 1)
        manifest = json.loads((first / f"{command}.manifest.json").read_text())
        cfg = tmp_path / "from_manifest.cfg"
        cfg.write_text(self.config_text(manifest["config"]))
        assert main(["--config", str(cfg), "--out", str(second), command]) in (0, 1)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir()) and len(names) == 2
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
