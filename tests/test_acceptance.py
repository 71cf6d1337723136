"""Acceptance suite.

Each test below implements one acceptance criterion at its stated tolerance
and prints a pass/fail line (run with ``pytest -s`` to see them stream).
Population-panel numbers are checked against the embedded reference tables
by ``reference.check``, on the tables of one ``quantshift run --panel
population`` run; sample panels are checked distributionally (exact
stratified counts, acceptance rates, Kolmogorov-Smirnov fidelity, and
5-standard-error agreement with the population values), since sample digits
depend on a random draw that the reference tables do not pin down.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import quantshift as qs
from quantshift import cli, reference
from quantshift.experiment import _scenario_base_stream, emit_table, tables_from_json
from quantshift.models import NormalSampler, normal_pdf
from quantshift.quantify import PopulationEvaluator, SampleEvaluator
from quantshift.sampling import RejectionSampler
from quantshift.shift import ShiftKind

GRID = reference.PREVALENCE_GRID
SEED = 42
N = 10_000
INTERIOR = [j for j, q in enumerate(GRID) if 0.1 <= q <= 0.9]

# SHA-256 of the '<f8' feature bytes and the class-0 count of every seed-42,
# N=10,000 dataset behind the sample panels: the training sample first, then
# one dataset per grid prevalence.  Recorded with the scalar sampler; any change
# to the stream format or the sampling order changes them.
GOLDEN_DATASETS = {
    "prior_shift": (
        ("3c70836e943e9ad05152a0055b8a6e337ed218e61a94e066de9440c48221dee3", 5000),
        ("357ed039dc9275c1ff574ab0f792eb4a29b518e4886e4580bee2c011865aed5b", 100),
        ("4ef39d89fc1db35c7e4602746b82b2a256f3396da7cc1e4824e0054afbf0e21d", 500),
        ("fbe7ab90aa4e4ec45399cf36862d5288102ba8e3872a58ebcf5f52f853ee3474", 1000),
        ("a562c0f773c5d0a656f39034bceff291f9cc71d8b787f666d580425f0dca5e29", 3000),
        ("265cb7a460116d60fe9c37f35efde018c359dd4a56dcc582a138b6ec880e8671", 5000),
        ("e02ca25e735bbc39c238d2c2157994cf017016e74eec90a300984912173a4bd4", 7000),
        ("f54bc37d2587cf62787c7ba1255ee913dc66bf7e68afbfa672889ef90adebacf", 9000),
        ("05e732dfb4a1a26259ba19ffb91ce0e1c57b9132247010c95afd3a22e54c4144", 9500),
        ("1193d4dda1fc9172d18e9bbc3206dad169c0c074ca246ee88057b152244de5eb", 9900),
    ),
    "invariant_ratio": (
        ("05138f46d888f44963049c0a0443a288bc4b482843d548f32728bb2109de85b4", 5000),
        ("7df06ff0c434975200bea7ea9cc8348814301eb6aba06c842b1f5807e8e28b0e", 100),
        ("c41fb89e1c31e01c9dfd5dddb203965e9f18fca8c4695b56710d807f73c435bb", 500),
        ("fde79168e57af8b9a4752b3e6655d27926e0038e98f4459c327894c4a4e63f92", 1000),
        ("49282c1af694953f9260dd465ff58d8c869ce913be7bda49bfbf134a9ee94386", 3000),
        ("fff7c515e09c50784e1a8802a6b84db30cf9c6659d5c384f92c3a2c2a2d7bc57", 5000),
        ("8f7c5601bacb7dfbec8ab2a73fa8e848acd53c8bc2567197c64e7121eb8d27db", 7000),
        ("77cdbe75eebde246cd90c9182aa6f35dccf62c9b14387488ecdab0949d0c4154", 9000),
        ("0ed31a7f4d2417dee94b3ca2d7af89f41d7b2db8cba53697215c3c52435471c7", 9500),
        ("75c85af41146bae5a909c12072395409f57022ddad7980c5df1678e9a9205a2e", 9900),
    ),
    "sqrt_ratio": (
        ("2faf711593483fbe6d155ee710658028a7985fecfaa4d5ae97e30099dcc8db8f", 5000),
        ("c1053d32746fd1c6d57d7cf2a359bf4c2695bb70811f3fa430d39012ae38210f", 100),
        ("99c4763b5e8e88a6da94bfcaebab51e082b8077b41b67abc22cfbcd84f2a8d61", 500),
        ("c656f6a79f276b8230789639c7e202fd5da9432a6556313b5847e5ee1b190030", 1000),
        ("66212cb487121a4bf30a8755df962094d349e2f4d7ad3993a23a47dcdfb32812", 3000),
        ("49441f134b56f1bd5f6c0b540f55fe43cc18515b4b0bd0ae611c8abdf5f680d1", 5000),
        ("3e3bd5cdb61fbb748ab04175f3d9c4803414fb61325f48247a8e8a8b32693e69", 7000),
        ("50d9da88034b06c00c740348ca4d141b6993f15e1cd77474783ee2045433b79c", 9000),
        ("aa08a9d4f233494b41b36f3311b32c81d947ec685994a26572d100562c152cf9", 9500),
        ("d0e9beaed9f28b0a25e1b74c41feea2b0c83468fb98a2565f2ae1726e07d04f9", 9900),
    ),
}
# First words and gaussians of RngStream(42, 0), each from a fresh stream.
GOLDEN_WORDS = (
    0x018eacd0d7271d43,
    0x49c2fa96c80aec6a,
    0xf8755861cd7197cf,
    0x51e4e952ad0cc62e,
    0x044d7a7438449c25,
    0xd038951e068906dc,
    0x1f4dada947d8eeae,
    0x1d60dee85969bf76,
)
GOLDEN_GAUSSIANS = ("-0.7580428410519306", "3.10318987857567", "-0.1039836674575383", "0.2213404478286941")
# SHA-256 of every file that `quantshift run --panel population --format both`
# writes, and of the 17-digit CSV of each seed-42 sample prevalence table.
# The four-decimal CSVs and the markdown are never re-recorded; the 17-digit
# files (*_full.csv, *_results.json, *_densities.csv, the sample tables) may
# be, by a change that lists the largest absolute change per file.
GOLDEN_OUTPUTS = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def populations(train):
    """Test conditionals of every scenario, and the seconds each took to build."""
    models, seconds = {}, {}
    for kind in ShiftKind:
        start = time.perf_counter()
        models[kind.value] = qs.make_test_population(qs.ShiftScenario(kind, train, 0.5))
        seconds[kind.value] = time.perf_counter() - start
    return {"models": models, "seconds": seconds}


@pytest.fixture(scope="module")
def population_run(tmp_path_factory, populations):
    """One `quantshift run --panel population --format both`: its exit code,
    output directory and duration, its tables (read back from the results
    files) and their reference checks, by name."""
    outdir = tmp_path_factory.mktemp("population_run")
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--panel", "population", "--format", "both", "--outdir", str(outdir)])
    duration = time.perf_counter() - start
    tables = [t for path in sorted(outdir.glob("*_results.json")) for t in tables_from_json(path.read_text())]
    # class-0 draws accept one proposal in M = 1/q* from the envelope
    weights = {
        name: 1.0 / populations["models"][name].sampler0.envelope_constant for name in reference.MIXTURE_WEIGHTS
    }
    return {
        "code": code,
        "outdir": outdir,
        "duration": duration,
        "tables": {(t.scenario, t.metric): t for t in tables},
        "checks": {c.name: c for c in reference.check(tables, weights)},
    }


def checks_pass(run, names) -> tuple[bool, str]:
    """Whether the named reference checks pass, and their details."""
    checks = [run["checks"][name] for name in names]
    return all(c.ok for c in checks), "; ".join(f"{c.name}: {c.detail}" for c in checks)


@pytest.fixture(scope="module")
def sample_run(train, populations):
    """Seed-42 sample panel for all scenarios, plus the generating datasets.

    Prior shift also gets the accuracy and F-measure tables of the adapted
    classifiers."""
    start = time.perf_counter()
    data = {}
    clf = qs.bayes_classifier(train)
    for kind in ShiftKind:
        outputs = ("prevalence", "accuracy", "f_measure") if kind is ShiftKind.PRIOR_SHIFT else ("prevalence",)
        config = qs.ExperimentConfig(scenario=kind, seed=SEED, sample_size=N, panels=("sample",), outputs=outputs)
        tables = {t.metric: t for t in qs.run_experiment(config)}
        base = _scenario_base_stream(config, 0)
        test = populations["models"][kind.value]
        train_sample = qs.stratified_sample(train, N, qs.RngStream(SEED, base))
        streams = [qs.RngStream(SEED, base + 1 + j) for j in range(len(GRID))]
        datasets = [
            qs.stratified_sample(test.with_prevalence(q), N, stream) for q, stream in zip(GRID, streams)
        ]
        # the regenerated datasets must be the ones behind the table
        for j, dataset in enumerate(datasets):
            cc = SampleEvaluator(dataset).predict_positive_rate(clf)
            assert cc == tables["prevalence"].row("CDE1")[j]
        data[kind.value] = {
            "tables": tables,
            "test": test,
            "train_sample": train_sample,
            "datasets": datasets,
            "words_drawn": [stream.words_drawn for stream in streams],
        }
    return {"data": data, "duration": time.perf_counter() - start}


def _dataset_digest(dataset) -> tuple[str, int]:
    features = np.ascontiguousarray(dataset.features, dtype="<f8")
    return hashlib.sha256(features.tobytes()).hexdigest(), int(np.sum(dataset.labels == 0))


def test_sampled_datasets_match_golden_digests(sample_run):
    mismatched = []
    total = sum(len(golden) for golden in GOLDEN_DATASETS.values())
    for scenario, golden in GOLDEN_DATASETS.items():
        data = sample_run["data"][scenario]
        got = [_dataset_digest(d) for d in (data["train_sample"], *data["datasets"])]
        labels = ("train", *(f"q={q:g}" for q in GRID))
        mismatched += [f"{scenario} {label}" for label, g, w in zip(labels, got, golden) if g != w]
    detail = f"{total - len(mismatched)} of {total} match"
    if mismatched:
        detail += f"; differ: {', '.join(mismatched)}"
    report("golden digests of the seed-42 sample datasets", not mismatched, detail)


def test_accept_reject_proposal_count_is_pinned(sample_run):
    # Accept-reject uses two words per proposal (a Box-Muller pair serves two
    # proposals, each with its accept word), so floor(words / 2) counts the
    # proposals of a derived-scenario dataset.  Recorded with the scalar sampler.
    data = sample_run["data"]
    proposals = sum(words // 2 for kind in ("invariant_ratio", "sqrt_ratio") for words in data[kind]["words_drawn"])
    report("accept-reject proposals of the 18 seed-42 derived datasets", proposals == 522_912, f"{proposals}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_output_bytes_match_golden_digests(population_run, sample_run):
    outdir = population_run["outdir"]
    got = {path.name: _sha256(path.read_bytes()) for path in sorted(outdir.iterdir())}
    want = GOLDEN_OUTPUTS["population_run"]
    differ = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
    sample_tables = [(s, "prevalence", d) for s, d in GOLDEN_OUTPUTS["sample_prevalence_17g"].items()]
    sample_tables += [("prior_shift", m, d) for m, d in GOLDEN_OUTPUTS["prior_shift_sample_17g"].items()]
    for scenario, metric, digest in sample_tables:
        table = sample_run["data"][scenario]["tables"][metric]
        if _sha256(emit_table(table, "csv", full_precision=True).encode()) != digest:
            differ.append(f"{scenario} seed-42 sample {metric} (17 digits)")
    total = len(want) + len(sample_tables)
    detail = f"{total - len(differ)} of {total} match"
    if differ:
        detail += f"; differ: {', '.join(differ)}"
    report(
        "golden digests of the population run outputs and the sample tables",
        population_run["code"] == 0 and not differ,
        detail,
    )


def test_rng_stream_prefix_is_pinned():
    words = qs.RngStream(SEED, 0)
    gaussians = qs.RngStream(SEED, 0)
    assert tuple(words.next_uint64() for _ in GOLDEN_WORDS) == GOLDEN_WORDS
    assert tuple(repr(gaussians.next_gaussian()) for _ in GOLDEN_GAUSSIANS) == GOLDEN_GAUSSIANS


def test_criterion_1_mixture_decomposition(population_run, populations):
    names = [f"mixture weight ({scenario})" for scenario in reference.MIXTURE_WEIGHTS]
    ok, detail = checks_pass(population_run, names)
    seconds = [populations["seconds"][scenario] for scenario in reference.MIXTURE_WEIGHTS]
    ok &= all(t < 1.0 for t in seconds)
    report(
        "criterion 1: mixture decomposition constants",
        ok,
        f"{detail}; built in {', '.join(f'{t:.2f}s' for t in seconds)}",
    )


def population_row(population_run, scenario: str, label: str) -> tuple[float, ...]:
    return population_run["tables"][scenario, "prevalence"].row(label)


def test_criterion_2_prior_shift_prevalence_table(population_run):
    ok, detail = checks_pass(population_run, ["prevalence table (prior_shift)"])
    consistency = max(
        abs(v - q)
        for label in ("ACC", "EM")
        for v, q in zip(population_row(population_run, "prior_shift", label), GRID)
    )
    ok &= consistency <= 1e-8 and population_run["duration"] < 10.0
    report(
        "criterion 2: prior-shift population table",
        ok,
        f"{detail}, ACC/EM consistency gap {consistency:.2e}, whole run {population_run['duration']:.1f}s",
    )


def test_criterion_3_invariant_ratio_prevalence_table(population_run):
    ok, detail = checks_pass(population_run, ["prevalence table (invariant_ratio)"])
    em_gap = max(abs(v - q) for v, q in zip(population_row(population_run, "invariant_ratio", "EM"), GRID))
    acc_witness = population_row(population_run, "invariant_ratio", "ACC")[GRID.index(0.5)]
    ok &= em_gap <= 1e-6 and abs(acc_witness - 0.4859) <= 1e-3 and population_run["duration"] < 60.0
    report(
        "criterion 3: invariant-ratio population table",
        ok,
        f"{detail}, EM gap {em_gap:.2e}, ACC witness {acc_witness:.4f}, whole run {population_run['duration']:.1f}s",
    )


def test_criterion_4_sqrt_ratio_prevalence_table(population_run):
    ok, detail = checks_pass(population_run, ["prevalence table (sqrt_ratio)"])
    em_witness = population_row(population_run, "sqrt_ratio", "EM")[GRID.index(0.3)]
    ok &= abs(em_witness - 0.3500) <= 1e-3 and abs(em_witness - 0.3) > 0.005
    report("criterion 4: sqrt-ratio population table", ok, f"{detail}, EM witness {em_witness:.4f}")


def test_criterion_5_accuracy_and_f_measure_tables(population_run):
    names = ["accuracy table (prior_shift)", "f-measure table (prior_shift)", "f-measure NaN pattern (prior_shift)"]
    ok, detail = checks_pass(population_run, names)
    report("criterion 5: accuracy / F-measure tables", ok, detail)


def test_criterion_6_relative_error_tables(population_run):
    names = [f"relative error table ({scenario})" for scenario in reference.RELATIVE_ERROR_TABLES]
    ok, detail = checks_pass(population_run, names)
    spot_gaps = [
        abs(population_run["tables"][scenario, "relative_error"].row(label)[j] - value)
        for scenario, label, j, value in reference.RELATIVE_ERROR_SPOT_CELLS
    ]
    ok &= all(gap <= 2e-3 for gap in spot_gaps)
    report("criterion 6: relative-error tables", ok, f"{detail}; spot gaps {[f'{g:.1e}' for g in spot_gaps]}")


def test_criterion_7_cde_iterate_properties(train, populations):
    monotone = True
    converged = True
    residual_worst = 0.0
    for scenario, test in populations["models"].items():
        for q in GRID:
            evaluator = PopulationEvaluator(test.with_prevalence(q))
            cde = qs.cde_iterate(train, evaluator)
            if (scenario, q) == ("prior_shift", 0.01):
                prefix = cde.trace[:2]
            converged &= cde.status is qs.EstimateStatus.CONVERGED
            tail = np.diff(cde.trace[1:])
            monotone &= bool(np.all(tail >= 0.0) or np.all(tail <= 0.0))
            if 1e-6 < cde.value < 1.0 - 1e-6:
                residual_worst = max(residual_worst, abs(qs.fixed_point_residual(train, evaluator, cde.value)))
    prefix_ok = abs(prefix[0] - 0.1655) <= 1e-3 and abs(prefix[1] - 0.0406) <= 1e-3
    ok = monotone and converged and residual_worst < 1e-6 and prefix_ok
    report(
        "criterion 7: CDE-Iterate convergence properties",
        ok,
        f"monotone={monotone}, all converged={converged}, max |residual| {residual_worst:.2e}, "
        f"prefix {tuple(round(v, 4) for v in prefix)}",
    )


def _binomial_se(value: float, n: int) -> float:
    return math.sqrt(max(value * (1.0 - value), 0.0) / n)


def _estimate_se(train, method, j, pop_rows, test, sample_value, tpr, fpr):
    """CLT standard error of a sample-panel estimate around its population value."""
    q = GRID[j]
    evaluator = PopulationEvaluator(test.with_prevalence(q))

    def step(v):
        return evaluator.predict_positive_rate(qs.weighted_bayes_classifier(train, v, 1.0 - v))

    def slope(v, h=1e-5):
        return (step(min(v + h, 1 - 1e-9)) - step(max(v - h, 1e-9))) / (2 * h)

    if method == "CDE1":
        return _binomial_se(pop_rows["CDE1"][j], N)
    if method == "CDE2":
        cc = pop_rows["CDE1"][j]
        return _binomial_se(pop_rows["CDE2"][j], N) + abs(slope(cc)) * _binomial_se(cc, N)
    if method == "CDEinf":
        limit = pop_rows["CDEinf"][j]
        if 1e-6 < limit < 1.0 - 1e-6:
            amplification = 1.0 / max(abs(1.0 - slope(limit)), 0.02)
            return _binomial_se(limit, N) * amplification + 1.0 / N
        return _binomial_se(sample_value, N) + 1.0 / N
    if method == "ACC":
        m0 = round(N * train.prevalence0)
        m1 = N - m0
        var = (
            _binomial_se(pop_rows["CDE1"][j], N) ** 2
            + q**2 * tpr * (1 - tpr) / m0
            + (1 - q) ** 2 * fpr * (1 - fpr) / m1
        )
        return math.sqrt(var) / abs(tpr - fpr)
    if method == "EM":
        root = pop_rows["EM"][j]
        ratio = train.ratio
        second_moment = evaluator.expect(
            lambda x: ((ratio(x) - 1.0) / (1.0 + root * (ratio(x) - 1.0))) ** 2
        )
        return 1.0 / math.sqrt(N * second_moment)
    raise ValueError(method)


def test_criterion_8_sample_panels(train, population_run, sample_run):
    clf = qs.bayes_classifier(train)
    tpr, fpr = qs.training_rates(train, clf)

    # (a) every interior sample estimate within 5 CLT standard errors
    agreement_ok = True
    worst_pull = 0.0
    for scenario, data in sample_run["data"].items():
        pop_table = population_run["tables"][scenario, "prevalence"]
        pop_rows = {label: pop_table.row(label) for label in pop_table.row_labels}
        for method in reference.ROW_LABELS:
            for j in INTERIOR:
                sample_value = data["tables"]["prevalence"].row(method)[j]
                se = _estimate_se(
                    train, method, j, pop_rows, data["test"], sample_value, tpr, fpr
                )
                pull = abs(sample_value - pop_rows[method][j]) / max(se, 1e-9)
                worst_pull = max(worst_pull, pull)
                agreement_ok &= pull <= 5.0

    # (b) stratified class counts are exact
    counts_ok = True
    for data in sample_run["data"].values():
        counts_ok &= int(np.sum(data["train_sample"].labels == 0)) == round(N * 0.5)
        for q, dataset in zip(GRID, data["datasets"]):
            counts_ok &= int(np.sum(dataset.labels == 0)) == round(N * q)

    # (c) accept-reject acceptance rates within 0.02 of 1/M; a proposal takes
    # two words (a Box-Muller pair serves two, each with its accept word)
    rates_ok = True
    h_star = lambda x: normal_pdf(x, 0.5, 1.4)
    for scenario, weight in reference.MIXTURE_WEIGHTS.items():
        test = sample_run["data"][scenario]["test"]
        for target, rate in ((test.f0, weight), (test.f1, 1.0 - weight)):
            accepted = 25_000
            stream = qs.RngStream(SEED, 999)
            RejectionSampler(target, NormalSampler(0.5, 1.4), h_star, 1.0 / rate).draw(stream, accepted)
            rates_ok &= abs(accepted / (stream.words_drawn // 2) - rate) <= 0.02

    # (d) per-class KS statistics beat the 1% critical value.  54 cells are
    # tested simultaneously, so the 1% level is taken family-wise (Bonferroni
    # per-test level 0.01/54); the median single-test ratio must also stay
    # well inside the null, which a systematically biased sampler cannot do.
    ks_ratios = []
    n_tests = sum(2 * len(data["datasets"]) for data in sample_run["data"].values())
    family_c = math.sqrt(-0.5 * math.log(0.01 / n_tests / 2.0))
    for data in sample_run["data"].values():
        test = data["test"]
        for dataset in data["datasets"]:
            for cls, cdf in ((0, test.cdf0), (1, test.cdf1)):
                values = np.sort(dataset.features[dataset.labels == cls])
                n = len(values)
                if n == 0:
                    continue
                cdf_values = np.array([cdf(float(x)) for x in values])
                stat = max(
                    float(np.max(np.arange(1, n + 1) / n - cdf_values)),
                    float(np.max(cdf_values - np.arange(0, n) / n)),
                )
                single_critical = 1.628 / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
                family_critical = single_critical * family_c / 1.628
                ks_ratios.append((stat / family_critical, stat / single_critical))
    ks_ok = all(fam <= 1.0 for fam, _ in ks_ratios)
    median_ratio = float(np.median([single for _, single in ks_ratios]))
    ks_ok &= median_ratio <= 0.75

    duration_ok = sample_run["duration"] < 120.0
    ok = agreement_ok and counts_ok and rates_ok and ks_ok and duration_ok
    report(
        "criterion 8: sample-panel properties",
        ok,
        f"max |pull| {worst_pull:.2f} of 5, counts exact={counts_ok}, rates ok={rates_ok}, "
        f"max family-wise KS ratio {max(f for f, _ in ks_ratios):.2f} of 1 "
        f"(median single-test ratio {median_ratio:.2f}), {sample_run['duration']:.0f}s",
    )


def test_criterion_9_bayes_optimality_oracle(train):
    rng = np.random.default_rng(2718)
    worst_margin = 0.0
    for _ in range(20):
        costs = qs.CostPair(float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 3.0)))
        model = train.with_prevalence(float(rng.uniform(0.05, 0.95)))
        clf = qs.bayes_classifier(model, costs)
        best = qs.cost_weighted_error(model, clf, costs)
        for cut in np.linspace(-6.0, 8.0, 200):
            alternative = qs.ThresholdClassifier(cut=float(cut))
            worst_margin = min(
                worst_margin, qs.cost_weighted_error(model, alternative, costs) - best
            )
    ok = worst_margin >= -1e-12
    report("criterion 9: Bayes-optimality oracle", ok, f"worst margin {worst_margin:.2e}")


def test_criterion_10_covariate_shift_coincidence(train, populations):
    test = populations["models"]["invariant_ratio"]
    matched = qs.covariate_shift_identity_check(train, test.with_prevalence(0.5))
    shifted = qs.covariate_shift_identity_check(train, test.with_prevalence(0.3))
    ok = matched <= 1e-10 and shifted > 1e-3
    report(
        "criterion 10: covariate-shift coincidence",
        ok,
        f"matched prevalence gap {matched:.2e}, shifted prevalence gap {shifted:.2e}",
    )
