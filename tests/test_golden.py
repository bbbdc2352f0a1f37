"""Golden digests: the sha256 of every data file of small seed-0 runs.

Each run takes only integer operations and correctly rounded arithmetic
(sign families, deterministic norms, analytic pareto), so its bytes do not
depend on the vector kernels numpy dispatches: the digests hold with and
without AVX-512, and a change that moves a bit of any of these files fails
here. lp_growing's envelope fails at its last seven points and its trend
fails, so the failing side of each verdict is pinned too.
"""

import json

import pytest

from cesaro_lab import cli

SPECS = {
    "rademacher": {"family": "iid_rademacher", "dim_D": 1},
    "spiked": {"family": "spiked_cui", "params": {"gap_base": 3}, "dim_D": 1, "moment_mode": "empirical"},
    "pairwise": {"family": "pairwise_rademacher", "dim_D": 1},
    "pareto": {"family": "pareto_radial", "params": {"alpha": 3.0}, "dim_D": 1},
    "growing": {"family": "growing_non_cui", "params": {"exponent": 2.0}, "dim_D": 1},
}

# run -> (spec, argv, {data file: sha256})
RUNS = {
    "cui_rademacher": (
        "rademacher",
        ["check-cui", "--horizon", "64x64", "--p", "0.5", "--reps", "20"],
        {
            "cui_report.csv": "2cf3d9cb905c61971bdf366d30ebb91ef129bfcfc36b0c8d682a030d5d857477",
            "cui_report.json": "3bcc046a036e9dd0f0c9098bf3fe29f418bb1a390996fdce6ca6abd7f80e8ac3",
        },
    ),
    "cui_spiked": (
        "spiked",
        ["check-cui", "--horizon", "729", "--reps", "5"],
        {
            "cui_report.csv": "535d865b3b78f5b62f8d58238de177a968ac196b15762e20e4fae8deb4953267",
            "cui_report.json": "b4379b4d6885be4e04eef86e3fba6797c8430244112c548408b16348abedf86c",
        },
    ),
    "lp_rademacher": (
        "rademacher",
        ["converge", "--mode", "lp", "--p", "0.5", "--bound", "0.5,2", "--schedule", "dyadic:2,1024"],
        {
            "series.csv": "7070b1704dc37b48acef0f1d8d1dc7e4ac18b96c28c78ce014542be703fd6b25",
            "series.json": "650d99fa5e88756b87f09f1e8039297ab93320c52cf81226a4dc3a5844f0332e",
        },
    ),
    "l1_pairwise": (
        "pairwise",
        ["converge", "--mode", "l1", "--bound", "1,1,1", "--schedule", "dyadic:1,4096"],
        {
            "series.csv": "91e9ac55abcc3fa746363d3bb766e4649954801c67eccd58038d1219ba875587",
            "series.json": "317dcaaab2e6cd61751a35d3403c363b32fbeaef6f7666f3127d67fc0df1beb7",
        },
    ),
    "poussin_pareto": (
        "pareto",
        ["poussin", "--horizon", "256", "--j-max", "4", "--search-cap", "64", "--eps", "2.0,1.0"],
        {
            "phi.csv": "268a0814aad98eee35f53284fc5c55a25518a4b3e614a3131f8e5c92a9e6e082",
            "phi.json": "18827ce2edeea0d8571b5741d72174f160ad7a243d7d7c188ab5901fb2ea5183",
            "poussin_report.json": "b2261e27d0d6d633e49e7d1865af0365315f224b962cb197dfba5f7de1850866",
        },
    ),
    "lp_growing": (
        "growing",
        ["converge", "--mode", "lp", "--p", "0.5", "--bound", "4,4", "--schedule", "dyadic:1,4096", "--reps", "5"],
        {
            "series.csv": "218f146c107769318bd574bb02f04500566c585ebe2ac63dda359763ae76758c",
            "series.json": "f3d8e5816bddad14cb46bba58029999c0a661c789167dfecef481ca60fb6ef20",
        },
    ),
}


@pytest.mark.parametrize("run", RUNS)
def test_data_files_keep_their_digests(tmp_path, run):
    name, argv, digests = RUNS[run]
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(SPECS[name]))
    out = tmp_path / run
    assert cli.main(argv + ["--spec", str(spec), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs_sha256"] == digests


def test_lp_growing_pins_failing_verdicts(tmp_path):
    """The failing run fails where its docstring says: the envelope at the
    last seven of its twelve points, and the trend."""
    name, argv, _ = RUNS["lp_growing"]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[name]))
    assert cli.main(argv + ["--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "series.json").read_text())
    assert [pt["bound_pass"] for pt in payload["series"]["points"]] == [True] * 5 + [False] * 7
    assert payload["bound_domination"]["all_pass"] is False
    assert payload["trend"]["passed"] is False
