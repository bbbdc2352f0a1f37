import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cesaro_lab
from cesaro_lab import cli, convergence, cui
from cesaro_lab import distributions as dist
from cesaro_lab.convergence import BoundParams
from cesaro_lab.errors import HorizonTooSmallError
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

    @pytest.mark.parametrize("command", ["check-cui", "poussin"])
    @pytest.mark.parametrize("reps", ["0", "-5"])
    def test_closed_form_run_rejects_reps_below_one(self, tmp_path, capsys, command, reps):
        # pareto_radial in analytic mode answers every tail query in closed
        # form, so nothing is drawn that would catch the count
        spec = write_spec(tmp_path, "pareto_radial", alpha=3.0)
        out = tmp_path / "o"
        code = cli.main([command, "--spec", spec, "--horizon", "64", "--reps", reps,
                         "--out", str(out)])
        assert code == 2
        assert "reps" in capsys.readouterr().err
        assert not out.exists()

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
        # one digest per data file, and the platform that computed them
        assert sorted(manifest["outputs_sha256"]) == sorted(manifest["outputs"])
        for name, digest in manifest["outputs_sha256"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        platform = manifest["platform"]
        assert platform["numpy"] == np.__version__
        assert {"python", "machine", "cpu_features"} <= set(platform)
        assert ("NPY_DISABLE_CPU_FEATURES" in platform) == ("NPY_DISABLE_CPU_FEATURES" in os.environ)


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

    def test_l1_rejects_other_p(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "iid_rademacher")
        code = cli.main(
            ["converge", "--mode", "l1", "--spec", spec, "--p", "0.5",
             "--schedule", "2;4", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "l1 mode fixes p = 1; drop --p or pass --p 1" in capsys.readouterr().err

    def test_lp_rejects_p_above_one(self, tmp_path):
        spec = write_spec(tmp_path, "constant", c=1.0)
        code = cli.main(
            ["converge", "--mode", "lp", "--spec", spec, "--p", "1.5",
             "--schedule", "2;4", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [(["--mode", "l1", "--spec", "HEAVY"], "no finite mean; use --mode lp"),
         (["--mode", "lp", "--p", "0.5", "--spec", "PARETO", "--bound", "nan,4"],
          "bound eps must be finite and > 0")],
        ids=["l1-infinite-mean", "lp-nan-bound"],
    )
    def test_rejected_before_drawing(self, tmp_path, capsys, monkeypatch, argv, message):
        # pareto alpha 0.8 has an infinite mean, so there is nothing to center
        # with; a NaN eps would fail every verdict. Neither draws or writes.
        specs = {"HEAVY": write_spec(tmp_path, "pareto_radial", "heavy.json", alpha=0.8),
                 "PARETO": write_spec(tmp_path, "pareto_radial", alpha=3.0)}

        def no_draw(*args, **kwargs):
            raise AssertionError("sample_batch was called")

        monkeypatch.setattr(dist, "sample_batch", no_draw)
        out = tmp_path / "out"
        argv = ["converge", *(specs.get(a, a) for a in argv), "--schedule", "2;4;8;16",
                "--out", str(out)]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_inf_maximum_prints_no_warning(self, tmp_path):
        # pareto alpha 0.02 draws |s| > 1e154, whose square overflows to inf:
        # the documented maximum, with nothing on stderr. At 64x64 all 20 reps
        # read inf, so the point reads inf with stderr 0, as a tail sup does
        spec = write_spec(tmp_path, "pareto_radial", alpha=0.02)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["converge", "--mode", "lp", "--p", "0.5", "--spec", spec,
                             "--schedule", "8x8;64x64", "--reps", "20", "--out", str(out)])
        assert code == 0
        assert (out / "series.csv").read_text() == (
            "d,n_coords,size,moment,stderr,bound,pass\n"
            "2,8x8,64,1.8453829674875047e+71,1.8443205339522248e+71,,\n"
            "2,64x64,4096,inf,0.0,,\n"
        )

    def test_draws_past_the_largest_float_print_no_warning(self, tmp_path, capsys):
        # pareto alpha 0.01 draws u ** -100, inf (correctly rounded) for u
        # below about 1e-3.08: tail averages of inf and their NaN stderr, as
        # the reports write them, with nothing on stderr
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "pareto_radial", "params": {"alpha": 0.01},
                                    "dim_D": 1, "moment_mode": "empirical"}))
        spec = str(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check-cui", "--spec", spec, "--horizon", "64x64", "--reps", "20",
                             "--out", str(tmp_path / "cui")]) == 0
            assert cli.main(["converge", "--mode", "lp", "--p", "0.5", "--spec", spec,
                             "--schedule", "8x8;64x64", "--reps", "20",
                             "--out", str(tmp_path / "lp")]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(tmp_path / "cui" / "cui_report.csv")
        assert [row[1:] for row in rows] == [["inf", "nan"]] * 7
        # the JSON files write each non-finite value as a string
        report = strict_json(tmp_path / "cui" / "cui_report.json")
        assert report["mean_sup"] == "Infinity" and report["mean_stderr"] == "NaN"
        assert report["tail_sup"] == ["Infinity"] * 7
        points = strict_json(tmp_path / "lp" / "series.json")["series"]["points"]
        assert [pt["moment"] for pt in points] == ["Infinity", "Infinity"]
        for out in tmp_path.glob("*/*.json"):
            strict_json(out)

    def test_nan_slope_is_a_json_string(self, tmp_path):
        # the centered series of a deterministic family is 0 at every box, so
        # the trend's slope is NaN
        spec = write_spec(tmp_path, "growing_non_cui", exponent=0.5)
        out = tmp_path / "out"
        assert cli.main(["converge", "--mode", "l1", "--spec", spec, "--reps", "20",
                         "--out", str(out)]) == 0
        assert strict_json(out / "series.json")["trend"]["slope"] == "NaN"


def strict_json(path):
    """The JSON in path, read by a parser that rejects NaN, Infinity and -Infinity."""

    def reject(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_write_json_names_non_finite_floats(tmp_path):
    path = tmp_path / "out.json"
    cli.write_json(path, {"x": [math.nan, math.inf, -math.inf, 1.5],
                          "y": (np.float32(-np.inf), np.float64(np.nan), np.array([np.inf]))})
    assert strict_json(path) == {"x": ["NaN", "Infinity", "-Infinity", 1.5],
                                 "y": ["-Infinity", "NaN", ["Infinity"]]}


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

    @pytest.mark.parametrize(
        "j_max, n_max, eps",
        [pytest.param("4", None, "1.0,0.25", id="4-None"),
         pytest.param("4", "100000", "1.0,0.25", id="4-100000"),
         pytest.param("8", None, "1.0,0.5", id="8-None")],
    )
    def test_forward_check_names_the_slope_it_cannot_pass(self, tmp_path, capsys, j_max, n_max, eps):
        # analytic pareto alpha 3: at eps 0.25, (K+1)/eps >= 4 whatever the
        # drawn K >= 0, and with 4 thresholds phi(t)/t stays below phi's
        # largest slope, 4, on any domain; 8 thresholds reach (K+1)/0.5 (about
        # 6 on this draw)
        spec = write_spec(tmp_path, "pareto_radial", alpha=3.0)
        out = tmp_path / "o"
        argv = ["poussin", "--spec", spec, "--horizon", "256", "--j-max", j_max,
                "--search-cap", "64", "--reps", "20", "--eps", eps, "--out", str(out)]
        code = cli.main(argv + ([] if n_max is None else ["--n-max", n_max]))
        err = capsys.readouterr().err
        if j_max == "8":
            assert code == 0
            return
        assert code == 3
        assert "largest slope 4" in err and "raise j_max" in err
        assert "enlarge n_max" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--eps", "0.5,-1"], "eps must be > 0"), (["--eps", "0.5,nan"], "eps must be > 0"),
         (["--eps", "0"], "eps must be > 0"), (["--n-max", "0"], "n_max must be >= 1"),
         (["--n-max", "-3"], "n_max must be >= 1")],
        ids=["negative-eps", "nan-eps", "zero-eps", "zero-n-max", "negative-n-max"],
    )
    def test_bad_eps_or_n_max_is_rejected_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                          flags, message):
        # an empirical spec, so the threshold search would draw
        spec = {"family": "pareto_radial", "params": {"alpha": 3.0}, "dim_D": 1,
                "moment_mode": "empirical"}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        flag, value = flags
        config = {"spec": spec, "horizon": "256", "j_max": 8, "search_cap": 64, "reps": 20,
                  "seed": 0, "n_max": int(value) if flag == "--n-max" else None,
                  "eps": [float(v) for v in value.split(",")] if flag == "--eps" else [0.5]}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "poussin", "config": config}))
        calls = []
        real = dist.norm_batch

        def counting_norm_batch(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dist, "norm_batch", counting_norm_batch)
        run = ["poussin", "--spec", str(spec_path), "--horizon", "256", "--reps", "20", *flags,
               "--out", str(tmp_path / "run")]
        replay = ["replay", "--manifest", str(manifest), "--out", str(tmp_path / "replay")]
        for argv, out in ((run, "run"), (replay, "replay")):
            assert cli.main(argv) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / out).exists()
        assert calls == []


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

    def converge_manifest(self, tmp_path, mode, alpha):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "converge",
            "config": {"bound": None, "mode": mode, "p": 1.0, "reps": 200,
                       "schedule": ["2", "4", "8", "16"], "seed": 0,
                       "spec": {"dim_D": 1, "family": "pareto_radial",
                                "moment_mode": "analytic", "params": {"alpha": alpha}}},
            "duration_seconds": 0.04, "outputs": ["series.csv", "series.json"],
            "seed": 0, "version": "0.1.0",
        }))
        return manifest

    def test_plugin_centered_manifest_is_rejected_on_replay(self, tmp_path, capsys):
        # l1 on pareto alpha 0.8 once ran, centered by the per-cell mean over
        # reps; a manifest written then replays to the usage error, not a crash
        out = tmp_path / "second"
        assert self.replay(self.converge_manifest(tmp_path, "l1", 0.8), out) == 2
        err = capsys.readouterr().err
        assert "no finite mean; use --mode lp" in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_mode_is_rejected_on_replay(self, tmp_path, capsys):
        # a hand-edited manifest can name any mode: neither lp nor l1 is a
        # usage error, and nothing is written
        out = tmp_path / "second"
        assert self.replay(self.converge_manifest(tmp_path, "l2", 3.0), out) == 2
        err = capsys.readouterr().err
        assert "unknown mode 'l2': expected lp or l1" in err and "Traceback" not in err
        assert not out.exists()

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

    def recorded_run(self, tmp_path):
        """A converge run's directory and its manifest, loaded."""
        spec = write_spec(tmp_path, "pareto_radial", dim_D=8, alpha=3.0)
        first = tmp_path / "first"
        code = cli.main(["converge", "--mode", "lp", "--spec", spec, "--p", "0.5",
                         "--schedule", "4x4;8x8;16x16", "--reps", "20", "--out", str(first)])
        assert code == 0
        return first, json.loads((first / "manifest.json").read_text())

    def replay_of(self, tmp_path, manifest):
        path = tmp_path / "changed_manifest.json"
        path.write_text(json.dumps(manifest))
        return self.replay(path, tmp_path / "second")

    def test_replay_says_its_files_are_byte_identical(self, tmp_path, capsys):
        first, _ = self.recorded_run(tmp_path)
        capsys.readouterr()
        assert self.replay(first / "manifest.json", tmp_path / "second") == 0
        assert "byte-identical: 2 data files" in capsys.readouterr().out

    def test_tampered_digest_exits_one_and_names_the_file(self, tmp_path, capsys):
        first, manifest = self.recorded_run(tmp_path)
        manifest["outputs_sha256"]["series.json"] = "0" * 64
        capsys.readouterr()
        assert self.replay_of(tmp_path, manifest) == 1
        err = capsys.readouterr().err
        assert "series.json" in err and "series.csv" not in err
        assert "on the platform that recorded it" in err

    @pytest.mark.parametrize("key", ["numpy", "cpu_features", "NPY_DISABLE_CPU_FEATURES"])
    def test_tampered_platform_turns_the_difference_into_a_report(self, tmp_path, capsys, key):
        first, manifest = self.recorded_run(tmp_path)
        manifest["outputs_sha256"]["series.csv"] = "0" * 64
        manifest["platform"][key] = "another"
        capsys.readouterr()
        assert self.replay_of(tmp_path, manifest) == 0
        out = capsys.readouterr().out
        assert "differ from the manifest: series.csv;" in out
        assert out.rstrip().endswith(f"the platform differs in {key}")

    def test_manifest_without_digests_cannot_be_verified(self, tmp_path, capsys):
        # manifests written before digests were recorded replay, and say why
        # their files are not checked
        first, manifest = self.recorded_run(tmp_path)
        del manifest["outputs_sha256"], manifest["platform"]
        capsys.readouterr()
        assert self.replay_of(tmp_path, manifest) == 0
        assert "cannot verify" in capsys.readouterr().out

    def test_replay_with_other_vector_kernels_is_never_a_silent_change(self, tmp_path):
        # numpy's AVX-512 kernels switched off for the replay's process only:
        # its files either match, or the report names the dispatch difference
        first, _ = self.recorded_run(tmp_path)
        disabled = "X86_V4 AVX512F AVX512CD AVX512_SKX"
        if os.environ.get("NPY_DISABLE_CPU_FEATURES") == disabled:
            disabled += " AVX512_CLX"
        src = str(Path(cesaro_lab.__file__).resolve().parents[1])
        script = "import sys; from cesaro_lab import cli; sys.exit(cli.main(sys.argv[1:]))"
        result = subprocess.run(
            [sys.executable, "-c", script, "replay", "--manifest", str(first / "manifest.json"),
             "--out", str(tmp_path / "second")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": disabled},
        )
        assert result.returncode == 0, result.stderr
        assert "byte-identical" in result.stdout or (
            "the platform differs in" in result.stdout and "NPY_DISABLE_CPU_FEATURES" in result.stdout
        ), result.stdout

    def test_bad_manifest_json(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{broken")
        assert self.replay(bad, tmp_path / "o") == 2

    def test_manifest_without_config(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"command": "check-cui"}))
        assert self.replay(bad, tmp_path / "o") == 2

    def test_unreplayable_command(self, tmp_path, capsys):
        # replay itself, and oracle-check, a command of older versions
        for command, config in (("replay", {}), ("oracle-check", {"seed": 0, "trials": 5})):
            bad = tmp_path / "manifest.json"
            bad.write_text(json.dumps({"command": command, "config": config}))
            assert self.replay(bad, tmp_path / "o") == 2
            assert "not replayable" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_command_that_is_not_a_string(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"command": ["check-cui"], "config": {}}))
        assert self.replay(bad, tmp_path / "o") == 2
        assert str(bad) in capsys.readouterr().err

    def test_manifest_that_is_not_an_object(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps([{"command": "check-cui", "config": {}}]))
        assert self.replay(bad, tmp_path / "o") == 2
        assert str(bad) in capsys.readouterr().err

    def check_cui_manifest(self, tmp_path, **changes):
        """A check-cui manifest of an empirical spec with config keys changed."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "pareto_radial", "params": {"alpha": 3.0},
                                    "dim_D": 1, "moment_mode": "empirical"}))
        first = tmp_path / "first"
        code = cli.main(["check-cui", "--spec", str(spec), "--horizon", "16", "--reps", "5",
                         "--out", str(first)])
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"].update(changes)
        path = tmp_path / "changed_manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    @pytest.mark.parametrize(
        "key, value", [("horizon", 256), ("reps", "5"), ("seed", "0"), ("ge", 1), ("a_grid", "1,2")]
    )
    def test_config_value_of_the_wrong_type_names_key_and_manifest(self, tmp_path, capsys, key,
                                                                   value):
        path = self.check_cui_manifest(tmp_path, **{key: value})
        capsys.readouterr()
        assert self.replay(path, tmp_path / "second") == 2
        err = capsys.readouterr().err
        assert repr(key) in err and str(path) in err

    def test_bound_member_of_the_wrong_type(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "pareto_radial", alpha=3.0)
        first = tmp_path / "first"
        code = cli.main(["converge", "--mode", "lp", "--spec", spec, "--p", "0.5",
                         "--schedule", "2;4", "--reps", "5", "--bound", "0.1,4",
                         "--out", str(first)])
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"]["bound"]["a"] = "4"
        path = tmp_path / "changed_manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert self.replay(path, tmp_path / "second") == 2
        err = capsys.readouterr().err
        assert "'bound.a'" in err and str(path) in err


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
    for k in ("mode", "p", "reps", "seed", "pairwise_warning",
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


# --- the one command path: the config is the parsed arguments, and a rejected
# run writes nothing

EMPIRICAL = {"family": "pareto_radial", "params": {"alpha": 3.0}, "dim_D": 1,
             "moment_mode": "empirical"}
ANALYTIC = {**EMPIRICAL, "moment_mode": "analytic"}
SPECS = {"SPEC": EMPIRICAL, "ANALYTIC": ANALYTIC,
         "GROWING": {"family": "growing_non_cui", "params": {"exponent": 0.5}, "dim_D": 1},
         "SPIKED": {"family": "spiked_cui", "params": {}, "dim_D": 1}}


def spec_argv(tmp_path, argv):
    """argv with each SPECS name replaced by the path of a file holding it."""
    out = []
    for arg in argv:
        if arg in SPECS:
            path = tmp_path / f"{arg.lower()}.json"
            path.write_text(json.dumps(SPECS[arg]))
            arg = str(path)
        out.append(arg)
    return out


# argv -> the manifest config that the per-command config builders wrote
# before every command ran through run_command
MANIFEST_CONFIGS = {
    "check-cui": (
        ["check-cui", "--spec", "SPEC", "--p", "0.5", "--horizon", "64x64", "--reps", "20"],
        {"a_grid": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0], "ge": False, "horizon": "64x64",
         "p": 0.5, "reps": 20, "seed": 0, "spec": EMPIRICAL},
    ),
    "check-cui-ge": (
        ["check-cui", "--spec", "SPEC", "--ge", "--a-grid", "1,2", "--horizon", "256",
         "--reps", "5", "--seed", "3"],
        {"a_grid": [1.0, 2.0], "ge": True, "horizon": "256", "p": 1.0, "reps": 5, "seed": 3,
         "spec": EMPIRICAL},
    ),
    "poussin": (
        ["poussin", "--spec", "SPEC", "--horizon", "256", "--j-max", "4", "--search-cap", "64",
         "--reps", "20", "--eps", "1.0,0.5", "--n-max", "200"],
        {"eps": [1.0, 0.5], "horizon": "256", "j_max": 4, "n_max": 200, "reps": 20,
         "search_cap": 64, "seed": 0, "spec": EMPIRICAL},
    ),
    "converge-lp": (
        ["converge", "--mode", "lp", "--p", "0.5", "--schedule", "dyadic:2,64", "--spec",
         "ANALYTIC", "--reps", "5"],
        {"bound": None, "mode": "lp", "p": 0.5, "reps": 5, "schedule": ["2x2", "4x4", "8x8"],
         "seed": 0, "spec": ANALYTIC},
    ),
    "converge-lp-bound": (
        ["converge", "--mode", "lp", "--p", "0.5", "--schedule", "2;4;8", "--spec", "ANALYTIC",
         "--reps", "20", "--bound", "0.1,4"],
        {"bound": {"C": None, "a": 4.0, "eps": 0.1}, "mode": "lp", "p": 0.5, "reps": 20,
         "schedule": ["2", "4", "8"], "seed": 0, "spec": ANALYTIC},
    ),
    "converge-l1-bound": (
        ["converge", "--mode", "l1", "--schedule", "2;4;8;16", "--spec", "ANALYTIC",
         "--reps", "20", "--bound", "0.5,2,1"],
        {"bound": {"C": 1.0, "a": 2.0, "eps": 0.5}, "mode": "l1", "p": 1.0, "reps": 20,
         "schedule": ["2", "4", "8", "16"], "seed": 0, "spec": ANALYTIC},
    ),
}


@pytest.mark.parametrize("argv, config", MANIFEST_CONFIGS.values(), ids=MANIFEST_CONFIGS.keys())
def test_manifest_config_is_the_parsed_arguments(tmp_path, argv, config):
    out = tmp_path / "out"
    assert cli.main([*spec_argv(tmp_path, argv), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"] == config


def raise_horizon_error(*args, **kwargs):
    raise HorizonTooSmallError("injected")


# argv, exit code, the library function an injected domain error replaces. A
# run writes into a fresh "out" unless its argv names --out; AFILE is a regular
# file and MANIFEST a check-cui manifest of the empirical spec.
REJECTED_RUNS = {
    "check-cui-a-grid": (["check-cui", "--spec", "SPEC", "--a-grid", "1,inf", "--horizon", "64",
                          "--reps", "5"], 2, None),
    "check-cui-negative-level": (["check-cui", "--spec", "SPEC", "--a-grid=-1,2", "--horizon",
                                  "64", "--reps", "5"], 2, None),
    "check-cui-spiked-2d": (["check-cui", "--spec", "SPIKED", "--horizon", "8x8", "--reps", "5"],
                            2, None),
    "check-cui-domain": (["check-cui", "--spec", "SPEC", "--horizon", "64", "--reps", "5"], 3,
                         (cui, "build_cui_report")),
    "poussin-eps": (["poussin", "--spec", "SPEC", "--horizon", "256", "--reps", "5",
                     "--eps", "0.5,-1"], 2, None),
    "poussin-n-max": (["poussin", "--spec", "SPEC", "--horizon", "256", "--j-max", "4",
                       "--search-cap", "64", "--reps", "20", "--n-max", "3"], 2, None),
    "poussin-search-cap-0": (["poussin", "--spec", "SPEC", "--horizon", "256",
                              "--search-cap", "0", "--reps", "5"], 2, None),
    "poussin-search-cap": (["poussin", "--spec", "GROWING", "--horizon", "4096",
                            "--search-cap", "8", "--reps", "5"], 3, None),
    "converge-duplicate-box": (["converge", "--mode", "lp", "--p", "0.5", "--spec", "ANALYTIC",
                                "--schedule", "2;2;4", "--reps", "5"], 2, None),
    "converge-bound": (["converge", "--mode", "lp", "--p", "0.5", "--spec", "ANALYTIC",
                        "--schedule", "2;4", "--reps", "5", "--bound", "inf,1"], 2, None),
    # every field that --bound gives, also one the mode does not read
    "converge-l1-nan-eps": (["converge", "--mode", "l1", "--spec", "ANALYTIC", "--schedule",
                             "2;4", "--reps", "5", "--bound", "nan,1,1"], 2, None),
    "converge-lp-nan-C": (["converge", "--mode", "lp", "--p", "0.5", "--spec", "ANALYTIC",
                           "--schedule", "2;4", "--reps", "5", "--bound", "0.1,1,nan"], 2, None),
    "converge-bound-not-numbers": (["converge", "--mode", "lp", "--p", "0.5", "--spec",
                                    "ANALYTIC", "--schedule", "2;4", "--reps", "5", "--bound",
                                    "a,b"], 2, None),
    "converge-no-boxes": (["converge", "--mode", "lp", "--p", "0.5", "--spec", "ANALYTIC",
                           "--schedule", ";", "--reps", "5"], 2, None),
    "converge-lp-at-p-1": (["converge", "--mode", "lp", "--p", "1", "--spec", "ANALYTIC",
                            "--schedule", "2;4", "--reps", "5"], 2, None),
    "converge-domain": (["converge", "--mode", "lp", "--p", "0.5", "--spec", "ANALYTIC",
                         "--schedule", "2;4", "--reps", "5"], 3,
                        (convergence, "run_lp_experiment")),
    "poussin-eps-inf": (["poussin", "--spec", "SPEC", "--horizon", "256", "--reps", "5",
                         "--eps", "0.5,inf"], 2, None),
    # an --out that cannot be created, on a run and on a replay
    "out-under-a-file": (["check-cui", "--spec", "SPEC", "--horizon", "64", "--reps", "5",
                          "--out", "AFILE/x"], 2, None),
    "out-is-a-file": (["check-cui", "--spec", "SPEC", "--horizon", "64", "--reps", "5",
                       "--out", "AFILE"], 2, None),
    "replay-out-under-a-file": (["replay", "--manifest", "MANIFEST", "--out", "AFILE/x"], 2,
                                None),
}


@pytest.mark.parametrize("argv, code, injected", REJECTED_RUNS.values(),
                         ids=REJECTED_RUNS.keys())
def test_rejected_run_writes_nothing(tmp_path, capsys, monkeypatch, argv, code, injected):
    # check-cui and converge raise no domain error of their own, so exit 3 is
    # injected into the library function each command calls
    if injected is not None:
        monkeypatch.setattr(*injected, raise_horizon_error)
    calls = []
    real = dist.norm_batch

    def counting_norm_batch(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dist, "norm_batch", counting_norm_batch)
    afile = tmp_path / "afile"
    afile.write_text("")
    manifest = tmp_path / "manifest.json"
    config = {"a_grid": [1.0, 2.0], "ge": False, "horizon": "64", "p": 1.0, "reps": 5,
              "seed": 0, "spec": EMPIRICAL}
    manifest.write_text(json.dumps({"command": "check-cui", "config": config}))
    args = [str(manifest) if arg == "MANIFEST" else arg.replace("AFILE", str(afile))
            for arg in spec_argv(tmp_path, argv)]
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(args) == code
    assert "error:" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert afile.read_text() == ""
    if "--out" in argv:
        # an --out that cannot be created is rejected before the first draw
        assert calls == []


def test_rejected_replay_writes_nothing(tmp_path, capsys):
    # exit 3: tails that do not decay within the search cap; the exit-2
    # replays are TestReplay's no-finite-mean and unknown-mode manifests,
    # TestPoussin's bad eps and REJECTED_RUNS's --out under a file
    config = {"eps": [0.5], "horizon": "4096", "j_max": 8, "n_max": None, "reps": 5,
              "search_cap": 8, "seed": 0, "spec": SPECS["GROWING"]}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "poussin", "config": config}))
    out = tmp_path / "out"
    assert cli.main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 3
    assert "do not decay within the disclosed cap" in capsys.readouterr().err
    assert not out.exists()
