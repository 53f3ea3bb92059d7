import json
import math

import pytest

from anhcrystal.cli import main, parse_observable
from anhcrystal.config import (ConfigError, load_config, parse_config_text,
                               write_manifest)


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

    @pytest.mark.parametrize("key", ["threads", "rho", "rho_prop", "c_offset"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config_text(f"{key} = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

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
        cfg = write_config(tmp_path, d=1, dims=(2,), n_max=2)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "cluster",
                   "--check", "residuals", "--samples", "10000"])
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

    def test_infinite_beta_rejected(self, tmp_path):
        cfg = write_config(tmp_path, d=1, beta="inf")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                   "oracle", "--sites", "1"])
        assert rc == 2
