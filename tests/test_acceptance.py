"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package and prints a single
PASS/FAIL line (bypassing capture) so a full run reads as a scorecard. The
numbered order follows the project acceptance list; tolerances and runtime
budgets are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np

from cesaro_lab import cli
from cesaro_lab.convergence import (
    BoundParams,
    ExperimentConfig,
    bound_eq27,
    bound_domination_check,
    moricz_ratio,
    run_l1_experiment,
    run_lp_experiment,
    trend_test,
)
from cesaro_lab.cui import (
    cesaro_tail_sup,
    cui_certificate,
    verify_criterion_equivalence,
)
from cesaro_lab.distributions import DistributionSpec, NormSample
from cesaro_lab.lattice import (
    MultiIndex,
    box_maxima,
    dyadic_boxes,
    dyadic_square_schedule,
    prefix_table,
)
from cesaro_lab.poussin import (
    PhiFunction,
    build_phi_from_cui,
    phi_eval_many,
    poussin_forward_check,
    poussin_moment_check,
    u_from_thresholds,
    verify_phi_properties,
)
from oracles import prefix_sums_bruteforce

CONSTANT = DistributionSpec("constant", {"c": 1.0}, dim_D=1)
PARETO = DistributionSpec("pareto_radial", {"alpha": 3.0}, dim_D=1)
SPIKED = DistributionSpec("spiked_cui", {"gap_base": 2}, dim_D=1)
PAIRWISE = DistributionSpec("pairwise_rademacher", {"m": 4}, dim_D=1)
SIGNS = DistributionSpec("iid_rademacher", {}, dim_D=1)


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_1_prefix_sum_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    gen = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(200):
        d = int(gen.integers(1, 4))
        sides = tuple(int(gen.integers(1, 5)) for _ in range(d))
        D = 1 if gen.integers(0, 2) == 0 else 4
        values = gen.standard_normal(sides + (D,))
        fast = prefix_table(values.copy(), range(d))
        brute = prefix_sums_bruteforce(values)
        scale = max(1.0, float(np.abs(brute).max()))
        worst = max(worst, float(np.abs(fast - brute).max()) / scale)
        # M_k of every box [1, k], incomparable boxes among them, against
        # the block max of the brute-force norms
        norms = np.sqrt((brute * brute).sum(axis=-1))
        boxes = [MultiIndex(tuple(c + 1 for c in idx)) for idx in np.ndindex(*sides)]
        m_brute = np.array([norms[tuple(slice(0, c) for c in k.coords)].max() for k in boxes])
        q = np.sum(np.square(fast), axis=-1)
        m_fast = np.sqrt(box_maxima(q[None], boxes))[:, 0]
        worst = max(worst, float(np.abs(m_fast - m_brute).max()) / max(1.0, float(m_brute.max())))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert announce(
        capsys, 1, "prefix-sum oracle", ok,
        f"200 cases, worst rel err {worst:.2e}, {elapsed:.2f}s < 5s",
    )


def test_2_heavy_tail_lp_convergence_with_certificate_bound(capsys):
    t0 = time.perf_counter()
    cert_a = cui_certificate(NormSample(PARETO, MultiIndex((4096,))), p=0.5, eps=0.1)
    ok = cert_a is not None
    detail = [f"certificate a={cert_a}"]
    if ok:
        bound = BoundParams(eps=0.1, a=cert_a)
        for d in (1, 2):
            cfg = ExperimentConfig(
                PARETO, 0.5, dyadic_square_schedule(d, 4096),
                reps=200, seed=2, bound_params=bound,
            )
            series = run_lp_experiment(cfg)
            trend = trend_test(series)
            dom = bound_domination_check(series)
            ok = ok and trend.passed and dom.all_pass
            detail.append(f"d={d} slope {trend.slope:.2f} dom={dom.all_pass}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    detail.append(f"{elapsed:.1f}s < 60s")
    assert announce(capsys, 2, "heavy-tail lp decay + envelope", ok, ", ".join(detail))


def test_3_pairwise_centered_l1_decay_under_log_envelope(capsys):
    t0 = time.perf_counter()
    sched = dyadic_square_schedule(1, 4096)
    ratios = moricz_ratio(PAIRWISE, sched, reps=200, seed=3)
    C = max(pt.ratio for pt in ratios)
    cfg = ExperimentConfig(PAIRWISE, 1.0, sched, reps=200, seed=3)
    series = run_l1_experiment(cfg)
    trend = trend_test(series)
    last = series.points[-1]
    envelope = bound_eq27(1.0, C, last.n)
    elapsed = time.perf_counter() - t0
    ok = trend.passed and last.moment < envelope and elapsed < 60.0
    assert announce(
        capsys, 3, "pairwise centered l1 decay", ok,
        f"C={C:.4f}, last moment {last.moment:.4f} < {envelope:.4f}, "
        f"slope {trend.slope:.2f}, {elapsed:.1f}s < 60s",
    )


def test_4_growing_profile_negative_control(capsys):
    horizon = MultiIndex((10000,))
    cert = cui_certificate(
        NormSample(DistributionSpec("growing_non_cui", {"exponent": 0.5}, dim_D=1), horizon),
        p=1.0, eps=0.5,
    )
    est = cesaro_tail_sup(
        NormSample(DistributionSpec("growing_non_cui", {"exponent": 0.5}, dim_D=1), horizon),
        1.0, 5.0,
    )
    # independent confirmation by direct partial summation over the schedule
    norms = np.sqrt(np.arange(1, 10001, dtype=np.float64))
    direct = max(
        float(norms[:b.coords[0]][norms[:b.coords[0]] > 5.0].sum()) / b.size
        for b in dyadic_boxes(horizon)
    )
    linear = DistributionSpec("growing_non_cui", {"exponent": 1.0}, dim_D=1)
    series = run_lp_experiment(
        ExperimentConfig(
            linear, 0.5, dyadic_square_schedule(1, 4096), reps=2, seed=0
        )
    )
    trend = trend_test(series)
    ok = (
        cert is None
        and est.value > 10.0
        and direct > 10.0
        and math.isclose(est.value, direct, rel_tol=1e-9)
        and not trend.passed
    )
    assert announce(
        capsys, 4, "non-integrable negative control", ok,
        f"certificate {cert}, tail sup {est.value:.2f} (direct {direct:.2f}) > 10, "
        f"linear-profile trend passed={trend.passed}",
    )


def test_5_tail_criterion_equivalence_with_adversarial_events(capsys):
    t0 = time.perf_counter()
    ok = True
    details = []
    for spec in (CONSTANT, PARETO, SPIKED):
        report = verify_criterion_equivalence(
            NormSample(spec, MultiIndex((1024,)), seed=3, reps=100), [0.5, 0.1]
        )
        adversarial = [c for c in report.checks if "adversarial" in c.name]
        ok = ok and report.passed and all(c.passed for c in report.checks)
        ok = ok and len(adversarial) == 2
        details.append(f"{spec.family}:{report.passed}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert announce(
        capsys, 5, "tail criterion equivalence", ok,
        ", ".join(details) + f", {elapsed:.1f}s < 30s",
    )


def test_6_convex_gauge_round_trip(capsys):
    horizon = MultiIndex((4096,))
    cases = [
        (CONSTANT, 0, dict(j_max=16)),
        (PARETO, 3, dict(j_max=24, search_cap=8192)),
        (SPIKED, 0, dict(j_max=20, search_cap=256, n_max=512)),
    ]
    ok = True
    details = []
    for spec, seed, kw in cases:
        sample = NormSample(spec, horizon, seed, reps=200)
        built = build_phi_from_cui(sample, **kw)
        props = verify_phi_properties(built.phi)
        mom = poussin_moment_check(sample, built.phi)
        slack = 0.0 if mom.mode == "analytic" else 2.0 * mom.stderr
        forward = poussin_forward_check(sample, built.phi, [0.5, 0.1], mom)
        case_ok = (
            props.all_pass
            and mom.value <= 1.0 + slack
            and all(c.passed for c in forward)
        )
        ok = ok and case_ok
        details.append(f"{spec.family}: moment {mom.value:.3f} ({mom.mode})")
    # hand-checked anchors for the threshold-to-gauge construction
    u = u_from_thresholds((2, 4, 8, 16), 9)
    anchors = list(u) == [0, 0, 1, 1, 2, 2, 2, 2, 3] and bool(
        phi_eval_many(PhiFunction(u), 4.5) == 3.0
    )
    ok = ok and anchors
    assert announce(
        capsys, 6, "convex gauge round trip", ok,
        ", ".join(details) + f", anchors={anchors}",
    )


def test_7_maximal_inequality_ratio_boundedness(capsys):
    sched1 = [MultiIndex((1,))] + list(dyadic_square_schedule(1, 4096))
    pts1 = moricz_ratio(SIGNS, sched1, reps=500, seed=7)
    pts2 = moricz_ratio(SIGNS, dyadic_square_schedule(2, 4096), reps=500, seed=7)
    worst = max(pt.ratio for pt in pts1 + pts2)
    one = pts1[0]
    two = pts1[1]
    exact_one = 1.0 / math.log(2.0) ** 2  # max |S| is identically 1
    exact_two = 2.5 / (2.0 * math.log(4.0) ** 2)  # exhaustive over sign pairs
    anchor_one = one.num_stderr == 0.0 and math.isclose(
        one.ratio, exact_one, rel_tol=1e-12
    )
    se_two = 3.0 * two.num_stderr / two.denominator
    anchor_two = abs(two.ratio - exact_two) <= se_two
    ok = worst <= 10.0 and anchor_one and anchor_two
    assert announce(
        capsys, 7, "maximal-inequality ratios", ok,
        f"max ratio {worst:.4f} <= 10, anchors {one.ratio:.4f}/{two.ratio:.4f} "
        f"vs {exact_one:.4f}/{exact_two:.4f}",
    )


def test_8_cli_reruns_are_byte_identical(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(PARETO.to_json()))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(
            ["converge", "--mode", "lp", "--spec", str(spec_path), "--p", "0.5",
             "--schedule", "2;8;32;128", "--reps", "50", "--seed", "5",
             "--bound", "0.1,4", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    data_equal = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("series.csv", "series.json")
    )
    manifests = []
    for out in outs:
        payload = json.loads((out / "manifest.json").read_text())
        payload.pop("duration_seconds")
        manifests.append(payload)
    ok = data_equal and manifests[0] == manifests[1]
    assert announce(
        capsys, 8, "deterministic reruns", ok,
        f"data files identical={data_equal}",
    )
