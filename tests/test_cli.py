import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cesaro_lab
from cesaro_lab import cli
from cesaro_lab.convergence import BoundParams
from cesaro_lab.lattice import MultiIndex, dyadic_square_schedule


def write_spec(tmp_path, family, name="spec.json", dim_D=1, **params):
    payload = {"family": family, "params": params, "dim_D": dim_D}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


class TestParsers:
    def test_horizon(self):
        assert cli.parse_horizon("10000") == MultiIndex((10000,))
        assert cli.parse_horizon("64x64") == MultiIndex((64, 64))
        with pytest.raises(ValueError):
            cli.parse_horizon("64xbanana")
        with pytest.raises(ValueError):
            cli.parse_horizon("")

    def test_a_grid(self):
        assert cli.parse_a_grid("1,2,4") == (1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            cli.parse_a_grid("1,two")

    def test_schedule(self):
        assert cli.parse_schedule("dyadic:2,4096") == list(
            dyadic_square_schedule(2, 4096)
        )
        assert cli.parse_schedule("2;4x4") == [MultiIndex((2,)), MultiIndex((4, 4))]
        with pytest.raises(ValueError):
            cli.parse_schedule("dyadic:nope")

    def test_bound(self):
        assert cli.parse_bound("0.1,4") == BoundParams(0.1, 4.0, None)
        assert cli.parse_bound("0,1,2.2") == BoundParams(0.0, 1.0, 2.2)
        with pytest.raises(ValueError):
            cli.parse_bound("0.1")
        with pytest.raises(ValueError):
            cli.parse_bound("1,2,3,4")

    def test_eps_list(self):
        assert cli.parse_eps_list("0.5,0.1") == [0.5, 0.1]
        with pytest.raises(ValueError):
            cli.parse_eps_list("0.5,x")


class TestUsageErrors:
    def test_no_command(self):
        assert cli.main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "check-cui" in capsys.readouterr().out

    def test_missing_spec_flag(self, tmp_path):
        assert cli.main(["check-cui", "--out", str(tmp_path / "o")]) == 2

    def test_spec_file_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(
            ["check-cui", "--spec", str(bad), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_spec_file_missing(self, tmp_path):
        code = cli.main(
            ["check-cui", "--spec", str(tmp_path / "nope.json"), "--out",
             str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        ['{"family": "pareto_radial", "params": {"alpha": "3"}, "dim_D": 1}',
         '{"family": "pareto_radial", "params": {"alpha": 3.0}, "dim_D": null}',
         '{"family": "pareto_radial", "params": {"alpha": 3.0}, "dim_D": 2.5}',
         "5"],
        ids=["string_param", "null_dim", "fractional_dim", "not_an_object"],
    )
    def test_spec_file_with_bad_values_is_a_usage_error(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code = cli.main(["check-cui", "--spec", str(bad), "--horizon", "8", "--reps", "2",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path):
        spec = write_spec(tmp_path, "cauchy_surprise")
        assert cli.main(["check-cui", "--spec", spec, "--out",
                         str(tmp_path / "o")]) == 2


class TestCheckCui:
    def run(self, tmp_path, spec, out="out", **flags):
        argv = ["check-cui", "--spec", spec, "--out", str(tmp_path / out)]
        for k, v in flags.items():
            argv += [f"--{k.replace('_', '-')}", str(v)]
        return cli.main(argv), tmp_path / out

    def test_constant_tail_vanishes_on_grid(self, tmp_path):
        spec = write_spec(tmp_path, "constant", c=1.0)
        code, out = self.run(tmp_path, spec, a_grid="1,2,4", horizon="64", reps="2")
        assert code == 0
        header, rows = read_csv(out / "cui_report.csv")
        assert header == "a,tail_sup,stderr"
        assert [r[0] for r in rows] == ["1.0", "2.0", "4.0"]
        assert all(float(r[1]) == 0.0 for r in rows)  # strict tail at a >= c

    def test_ge_flag_keeps_boundary_mass(self, tmp_path):
        spec = write_spec(tmp_path, "constant", c=1.0)
        code, out = self.run(tmp_path, spec, a_grid="1", horizon="64", reps="2")
        assert code == 0
        argv = ["check-cui", "--spec", spec, "--a-grid", "1", "--horizon", "64",
                "--reps", "2", "--ge", "--out", str(tmp_path / "ge")]
        assert cli.main(argv) == 0
        _, strict_rows = read_csv(out / "cui_report.csv")
        _, ge_rows = read_csv(tmp_path / "ge" / "cui_report.csv")
        assert float(strict_rows[0][1]) == 0.0
        assert float(ge_rows[0][1]) == 1.0

    @pytest.mark.parametrize("grid", ["nan", "1,nan", "inf"])
    def test_non_finite_a_grid_is_a_usage_error(self, tmp_path, grid):
        spec = write_spec(tmp_path, "constant", c=1.0)
        code, _ = self.run(tmp_path, spec, a_grid=grid, horizon="8", reps="2")
        assert code == 2

    def test_growing_tail_rises_with_horizon(self, tmp_path):
        spec = write_spec(tmp_path, "growing_non_cui", exponent=0.5)
        sups = []
        for h in ("64", "256", "1024"):
            code, out = self.run(tmp_path, spec, out=f"h{h}", a_grid="5",
                                 horizon=h, reps="1")
            assert code == 0
            payload = json.loads((out / "cui_report.json").read_text())
            assert payload["mode"] == "analytic"
            sups.append(payload["tail_sup"][0])
        assert sups[0] < sups[1] < sups[2]

    def test_manifest_contents(self, tmp_path):
        spec = write_spec(tmp_path, "constant", c=1.0)
        code, out = self.run(tmp_path, spec, a_grid="1,2", horizon="64", reps="2")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "check-cui"
        assert manifest["outputs"] == ["cui_report.csv", "cui_report.json"]
        assert manifest["config"]["a_grid"] == [1.0, 2.0]
        assert manifest["config"]["spec"]["family"] == "constant"
        assert manifest["duration_seconds"] >= 0.0
        from cesaro_lab import __version__

        assert manifest["version"] == __version__


CHECK_CUI_RSS = """
import resource, sys
from cesaro_lab import cli
reps, spec, horizon, out = sys.argv[1:]
argv = ["check-cui", "--spec", spec, "--p", "0.5", "--horizon", horizon, "--reps", reps,
        "--out", out]
assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.parametrize("horizon", ["128x128", "16384"])
def test_check_cui_memory_grows_with_the_norms_only(tmp_path, horizon):
    # the norms themselves grow by 300 reps x 16384 cells x 8 B; drawing them
    # at once and building each tail query's full table cost about 4x that in
    # d = 2, and holding g of the norms and its cumsum about 3x that in d = 1
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "pareto_radial", "params": {"alpha": 3.0},
                                "dim_D": 1, "moment_mode": "empirical"}))
    src = str(Path(cesaro_lab.__file__).resolve().parents[1])
    peaks_kb = []
    for reps in (100, 400):
        out = subprocess.run(
            [sys.executable, "-c", CHECK_CUI_RSS, str(reps), str(spec), horizon,
             str(tmp_path / f"r{reps}")],
            capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        peaks_kb.append(int(out.stdout.strip()))
    norms_growth_kb = 300 * 128 * 128 * 8 / 1024
    assert peaks_kb[1] - peaks_kb[0] <= 1.5 * norms_growth_kb, peaks_kb


class TestConverge:
    def test_constant_lp_moments(self, tmp_path):
        spec = write_spec(tmp_path, "constant", c=1.0)
        out = tmp_path / "out"
        code = cli.main(
            ["converge", "--mode", "lp", "--spec", spec, "--p", "0.5",
             "--schedule", "2;4;8;16", "--reps", "2", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out / "series.csv")
        got = [float(r[3]) for r in rows]
        assert got == pytest.approx([k ** -0.5 for k in (2, 4, 8, 16)], rel=1e-12)

    def test_centered_deterministic_field_is_zero(self, tmp_path):
        spec = write_spec(tmp_path, "constant", c=2.0)
        out = tmp_path / "out"
        code = cli.main(
            ["converge", "--mode", "l1", "--spec", spec,
             "--schedule", "2;4;8;16", "--reps", "2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "series.json").read_text())
        assert all(pt["moment"] == 0.0 for pt in payload["series"]["points"])
        assert payload["trend"]["passed"] is False  # zero moments defeat the fit

    def test_trend_and_bound_blocks_present(self, tmp_path):
        spec = write_spec(tmp_path, "pareto_radial", alpha=3.0)
        out = tmp_path / "out"
        code = cli.main(
            ["converge", "--mode", "lp", "--spec", spec, "--p", "0.5",
             "--schedule", "2;8;32;128;512", "--reps", "60",
             "--bound", "0.1,4", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "series.json").read_text())
        assert payload["trend"]["passed"] is True
        assert payload["bound_domination"]["all_pass"] is True

    def test_l1_rejects_other_p(self, tmp_path):
        spec = write_spec(tmp_path, "iid_rademacher")
        code = cli.main(
            ["converge", "--mode", "l1", "--spec", spec, "--p", "0.5",
             "--schedule", "2;4", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_lp_rejects_p_above_one(self, tmp_path):
        spec = write_spec(tmp_path, "constant", c=1.0)
        code = cli.main(
            ["converge", "--mode", "lp", "--spec", spec, "--p", "1.5",
             "--schedule", "2;4", "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestPoussin:
    def test_constant_round_trip(self, tmp_path):
        spec = write_spec(tmp_path, "constant", c=1.0)
        out = tmp_path / "out"
        code = cli.main(
            ["poussin", "--spec", spec, "--j-max", "16", "--reps", "20",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "poussin_report.json").read_text())
        assert report["thresholds"] == [j + 1 for j in range(1, 17)]
        assert report["phi_properties"]["all_pass"] is True
        assert report["moment_check"]["value"] <= 1.0 + 1e-9
        assert all(c["passed"] for c in report["forward_checks"])
        assert [c["eps"] for c in report["forward_checks"]] == [0.5, 0.1]
        phi = json.loads((out / "phi.json").read_text())
        assert phi["u"][: report["thresholds"][0]] == [0] * report["thresholds"][0]
        header, rows = read_csv(out / "phi.csv")
        assert header == "t,phi,ratio"
        assert rows[0] == ["0", "0", ""]  # phi values are exact integers
        # csv ratio column reproduces phi(t)/t
        t5 = rows[5]
        assert float(t5[2]) == pytest.approx(float(t5[1]) / 5.0)

    def test_zero_field_has_zero_moment(self, tmp_path):
        spec = write_spec(tmp_path, "constant", c=0.0)
        out = tmp_path / "out"
        code = cli.main(
            ["poussin", "--spec", spec, "--j-max", "16", "--reps", "5",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "poussin_report.json").read_text())
        assert report["moment_check"]["value"] == 0.0

    def test_non_integrable_profile_exits_three(self, tmp_path):
        spec = write_spec(tmp_path, "growing_non_cui", exponent=0.5)
        code = cli.main(
            ["poussin", "--spec", spec, "--horizon", "10000",
             "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_shallow_gauge_exits_three(self, tmp_path):
        # two slope levels cannot reach the ratio demanded by eps = 0.01
        spec = write_spec(tmp_path, "constant", c=1.0)
        code = cli.main(
            ["poussin", "--spec", spec, "--j-max", "2", "--eps", "0.01",
             "--reps", "5", "--out", str(tmp_path / "o")]
        )
        assert code == 3


class TestOracleCheck:
    def test_passes_by_default(self, capsys):
        assert cli.main(["oracle-check", "--trials", "8", "--seed", "0"]) == 0
        assert "8 trials passed" in capsys.readouterr().out

    def test_report_written_when_out_given(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            ["oracle-check", "--trials", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report == {
            "trials": 5, "seed": 1, "passed": True, "counterexample": None
        }
        assert (out / "manifest.json").exists()

    def test_injected_fault_is_caught(self, capsys, monkeypatch):
        real = cli.prefix_table

        def faulty(*args, **kwargs):
            table = real(*args, **kwargs)
            table.flat[0] += 1.0
            return table

        monkeypatch.setattr(cli, "prefix_table", faulty)
        assert cli.main(["oracle-check", "--trials", "3"]) == 1
        err = capsys.readouterr().err.strip()
        counterexample = json.loads(err)
        assert counterexample["kind"] == "prefix"
        assert counterexample["trial"] == 0

    def test_broken_schedule_averages_are_caught(self, capsys, monkeypatch):
        real = cli.schedule_averages
        monkeypatch.setattr(
            cli, "schedule_averages", lambda *args, **kwargs: real(*args, **kwargs) * (1 + 1e-6)
        )
        assert cli.main(["oracle-check", "--trials", "3"]) == 1
        counterexample = json.loads(capsys.readouterr().err.strip())
        assert counterexample["kind"] == "schedule_average"
        assert counterexample["trial"] == 0

    def test_raising_schedule_averages_fail_the_check(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("cannot reshape array")

        monkeypatch.setattr(cli, "schedule_averages", broken)
        assert cli.main(["oracle-check", "--trials", "3"]) == 1
        counterexample = json.loads(capsys.readouterr().err.strip())
        assert counterexample == {
            "kind": "schedule_average", "trial": 0,
            "error": "ValueError('cannot reshape array')",
        }

    def test_zero_trials_rejected(self):
        assert cli.main(["oracle-check", "--trials", "0"]) == 2


class TestReplay:
    def replay(self, manifest_path, out):
        return cli.main(["replay", "--manifest", str(manifest_path),
                         "--out", str(out)])

    def assert_identical_modulo_duration(self, dir_a, dir_b, data_files):
        for name in data_files:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        ma = json.loads((dir_a / "manifest.json").read_text())
        mb = json.loads((dir_b / "manifest.json").read_text())
        ma.pop("duration_seconds")
        mb.pop("duration_seconds")
        assert ma == mb

    def test_converge_replay_is_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path, "pareto_radial", alpha=3.0)
        first = tmp_path / "first"
        code = cli.main(
            ["converge", "--mode", "lp", "--spec", spec, "--p", "0.5",
             "--schedule", "2;4;8", "--reps", "20", "--seed", "7",
             "--bound", "0.1,4", "--out", str(first)]
        )
        assert code == 0
        second = tmp_path / "second"
        assert self.replay(first / "manifest.json", second) == 0
        self.assert_identical_modulo_duration(
            first, second, ["series.csv", "series.json"]
        )

    def test_old_manifest_with_threads_key_replays(self, tmp_path):
        # manifests written while converge had a thread count carry a
        # "threads" config key; replay ignores it
        spec = write_spec(tmp_path, "pareto_radial", dim_D=8, alpha=3.0)
        first = tmp_path / "first"
        code = cli.main(
            ["converge", "--mode", "lp", "--spec", spec, "--p", "0.5",
             "--schedule", "4x4;8x8;16x16", "--reps", "20", "--seed", "7",
             "--out", str(first)]
        )
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"]["threads"] = 2
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        second = tmp_path / "second"
        assert self.replay(old, second) == 0
        for name in ["series.csv", "series.json"]:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missing_config_key_names_key_and_manifest(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "pareto_radial", alpha=3.0)
        first = tmp_path / "first"
        code = cli.main(
            ["converge", "--mode", "lp", "--spec", spec, "--p", "0.5",
             "--schedule", "2;4", "--reps", "5", "--out", str(first)]
        )
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        del manifest["config"]["reps"]
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert self.replay(old, tmp_path / "second") == 2
        err = capsys.readouterr().err
        assert "'reps'" in err and str(old) in err

    def test_check_cui_replay(self, tmp_path):
        spec = write_spec(tmp_path, "iid_gaussian", sigma=1.0, dim_D=2)
        first = tmp_path / "first"
        code = cli.main(
            ["check-cui", "--spec", spec, "--a-grid", "1,2", "--horizon", "128",
             "--reps", "30", "--seed", "4", "--out", str(first)]
        )
        assert code == 0
        second = tmp_path / "second"
        assert self.replay(first / "manifest.json", second) == 0
        self.assert_identical_modulo_duration(
            first, second, ["cui_report.csv", "cui_report.json"]
        )

    def test_oracle_check_replay(self, tmp_path):
        first = tmp_path / "first"
        code = cli.main(
            ["oracle-check", "--trials", "5", "--seed", "3", "--out", str(first)]
        )
        assert code == 0
        second = tmp_path / "second"
        assert self.replay(first / "manifest.json", second) == 0
        self.assert_identical_modulo_duration(first, second, ["oracle_report.json"])

    def test_bad_manifest_json(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{broken")
        assert self.replay(bad, tmp_path / "o") == 2

    def test_manifest_without_config(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"command": "check-cui"}))
        assert self.replay(bad, tmp_path / "o") == 2

    def test_unreplayable_command(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"command": "replay", "config": {}}))
        assert self.replay(bad, tmp_path / "o") == 2


# --- every replayable command: named files, byte-identical replay, file shape


def key_paths(payload, prefix=""):
    """Every key of a JSON payload as a dotted path; list items add "[]"."""
    if isinstance(payload, dict):
        paths = set()
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            paths |= {path} | key_paths(value, path)
        return paths
    if isinstance(payload, list):
        return set().union(*(key_paths(v, prefix + "[]") for v in payload))
    return set()


SERIES_KEYS = {"series", "trend", "bound_domination"} | {
    f"series.{k}"
    for k in ("mode", "p", "reps", "seed", "center", "centering", "pairwise_warning",
              "low_reps", "spec", "spec.family", "spec.params", "spec.params.alpha",
              "spec.dim_D", "spec.moment_mode", "points")
} | {f"series.points[].{k}" for k in ("n", "size", "moment", "stderr", "bound", "bound_pass")} | {
    f"trend.{k}"
    for k in ("passed", "halving_ok", "slope_ok", "slope", "first_moment", "last_moment")
} | {"bound_domination.all_pass", "bound_domination.margins"}
SERIES_FILES = {"series.csv": "d,n_coords,size,moment,stderr,bound,pass", "series.json": SERIES_KEYS}

# argv (SPEC stands for an empirical pareto spec file) -> {data file: CSV header or JSON
# key paths}, in manifest order
REPLAYABLE = {
    "check-cui": (
        ["check-cui", "--spec", "SPEC", "--p", "0.5", "--horizon", "16x16", "--reps", "20"],
        {
            "cui_report.csv": "a,tail_sup,stderr",
            "cui_report.json": {"p", "a_grid", "tail_sup", "stderr", "mean_sup", "mean_stderr",
                                "horizon", "schedule", "mode", "low_reps"},
        },
    ),
    "poussin": (
        ["poussin", "--spec", "SPEC", "--horizon", "256", "--j-max", "4",
         "--search-cap", "64", "--reps", "20", "--eps", "1.0,0.5"],
        {
            "poussin_report.json": {"thresholds", "n_max", "calibration_max_norm",
                                    "phi_properties", "moment_check", "forward_checks"}
            | {f"phi_properties.{k}"
               for k in ("zero_at_zero", "slopes_nondecreasing", "ratio_nondecreasing",
                         "growth_attained", "end_ratio", "growth_floor", "all_pass")}
            # exactly these four: no low_reps
            | {f"moment_check.{k}" for k in ("value", "stderr", "mode", "argmax_box")}
            | {f"forward_checks[].{k}"
               for k in ("eps", "K", "level", "ratio", "tail_sup", "tail_stderr", "passed")},
            "phi.json": {"u"},
            "phi.csv": "t,phi,ratio",
        },
    ),
    "converge-lp": (
        ["converge", "--mode", "lp", "--spec", "SPEC", "--p", "0.5",
         "--schedule", "dyadic:2,256", "--reps", "10", "--bound", "0.5,2"],
        SERIES_FILES,
    ),
    "converge-l1": (
        ["converge", "--mode", "l1", "--spec", "SPEC", "--schedule", "2;4;8;16",
         "--reps", "10", "--bound", "0.5,2,1"],
        SERIES_FILES,
    ),
    "oracle-check": (
        ["oracle-check", "--trials", "3", "--seed", "2"],
        {"oracle_report.json": {"trials", "seed", "passed", "counterexample"}},
    ),
}


@pytest.mark.parametrize("argv, files", REPLAYABLE.values(), ids=REPLAYABLE.keys())
def test_every_command_replays_its_named_files(tmp_path, argv, files):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"family": "pareto_radial", "params": {"alpha": 3.0}, "moment_mode": "empirical"}
    ))
    first, second = tmp_path / "first", tmp_path / "second"
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    assert cli.main([*argv, "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["outputs"] == list(files)
    assert sorted(p.name for p in first.iterdir()) == sorted([*files, "manifest.json"])
    code = cli.main(["replay", "--manifest", str(first / "manifest.json"), "--out", str(second)])
    assert code == 0
    for name, shape in files.items():
        data = (first / name).read_text()
        assert (second / name).read_text() == data
        if isinstance(shape, str):
            assert data.split("\n")[0] == shape
        else:
            assert key_paths(json.loads(data)) == shape
