"""Mutation check: small deliberate bugs that named tests must catch.

Each mutant replaces one exact text in one file of ``src/`` and names the
test node ids that should fail on it.  Run from anywhere:

    python tests/mutants.py

The script copies ``src/``, ``tests/`` and ``pyproject.toml`` (for the
pytest settings) to a temporary directory and applies one mutant at a time
there.  For each mutant it runs the mutant's node ids with ``pytest -x -q``
in one subprocess and prints whether a test failed (killed) or all passed
(survived).  It exits 1 if any mutant survives or its run ends otherwise
than in failing tests.  A mutant counts as killed only by a failing test:
a test's own deadline counts, the ``TIMEOUT`` of this script does not.

Pytest does not collect this file; ``tests/test_mutants.py`` checks that
every mutant's old text still occurs exactly once, so a refactor that moves
mutated code must move its mutant too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300.0  # seconds per mutant


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "contiguous numpy log",
        "src/quantshift/numerics.py",
        "    return np.log(u[::-1])[::-1]\n",
        "    return np.log(u)\n",
        ("tests/test_numerics.py::TestBlockLog::test_equals_math_log_where_numpy_log_does_not",),
    ),
    Mutant(
        "reversed input and reversed out",
        "src/quantshift/numerics.py",
        "    return np.log(u[::-1])[::-1]\n",
        "    out = np.empty_like(u)\n    np.log(u[::-1], out=out[::-1])\n    return out\n",
        ("tests/test_numerics.py::TestBlockLog::test_equals_math_log_where_numpy_log_does_not",),
    ),
    Mutant(
        "unscaled g^2 in the Newton slope",
        "src/quantshift/numerics.py",
        "            np.multiply(g, g, out=g)\n            slope += _weighted_sum(g, w)\n",
        "            np.divide(g, x, out=g)\n            np.multiply(g, g, out=g)\n            slope += _weighted_sum(g, w) * x * x\n",
        ("tests/test_numerics.py::TestPriorEquationSolver::test_roots_far_below_any_floor",),
    ),
    Mutant(
        "arithmetic bisection",
        "src/quantshift/numerics.py",
        "nxt = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else max(hi * hi, math.ulp(0.0))",
        "nxt = 0.5 * (lo + hi)",
        ("tests/test_numerics.py::TestPriorEquationSolver::test_roots_far_below_any_floor",),
    ),
    Mutant(
        "complement as 1 - value",
        "src/quantshift/numerics.py",
        "    value, complement = (1.0 - x, x) if upper else (x, 1.0 - x)\n",
        "    value = 1.0 - x if upper else x\n    complement = 1.0 - value\n",
        (
            "tests/test_numerics.py::TestPriorEquationSolver::test_roots_far_below_any_floor",
            "tests/test_shift.py::TestMixtureWeightOracle::test_edge_weights",
        ),
    ),
    Mutant(
        "no negation of log R above 1/2",
        "src/quantshift/numerics.py",
        "            if upper:\n                np.negative(log_r, out=log_r)\n",
        "            if upper:\n                pass\n",
        (
            "tests/test_numerics.py::TestPriorEquationSolver::test_agrees_with_bisection",
            "tests/test_shift.py::TestMixtureWeightOracle::test_default_weights",
        ),
    ),
    Mutant(
        "no convergence exit",
        "src/quantshift/numerics.py",
        "        if abs(last_step) <= tol * x:\n            break\n",
        "        if False:\n            break\n",
        ("tests/test_numerics.py::TestPriorEquationSolver::test_roots_far_below_any_floor",),
    ),
    Mutant(
        "a log-sum-exp over log R alone",
        "src/quantshift/numerics.py",
        "        moment_r.append(_peak_and_sum(np.add(log_w, log_r, out=g)))\n",
        "        moment_r.append(_peak_and_sum(log_r.copy()))\n",
        ("tests/test_numerics.py::TestPriorEquationSolver::test_zero_weights_at_the_peak_do_not_decide_the_moments",),
    ),
    Mutant(
        "last partial block skipped",
        "src/quantshift/numerics.py",
        "        for start in range(0, points.size, _SOLVE_BLOCK):\n",
        "        for start in range(0, points.size - points.size % _SOLVE_BLOCK or points.size, _SOLVE_BLOCK):\n",
        ("tests/test_numerics.py::TestBlockedSolve::test_blocks_agree_with_the_full_array_solve",),
    ),
    Mutant(
        "a block's moments use that block's own peak",
        "src/quantshift/numerics.py",
        "    return peak + math.log(sum(s * math.exp(p - peak) for p, s in parts))\n",
        "    return peak + math.log(sum(s for p, s in parts))\n",
        ("tests/test_numerics.py::TestBlockedSolve::test_blocks_agree_with_the_full_array_solve",),
    ),
    Mutant(
        "no bisection safeguard",
        "src/quantshift/numerics.py",
        "        if abs(step) > tol * x and (not lo < nxt < hi or abs(step) > 0.5 * abs(last_step)):\n",
        "        if False:\n",
        ("tests/test_numerics.py::TestPriorEquationSolver::test_roots_far_below_any_floor",),
    ),
    Mutant(
        "sampler 1's constant from 1 - q*",
        "src/quantshift/shift.py",
        "proposal, 1.0 / q_complement),",
        "proposal, 1.0 / (1.0 - q_star)),",
        ("tests/test_shift.py::TestMixtureWeightOracle::test_edge_weights",),
    ),
    Mutant(
        "class-0 proposals kept with the class-1 posterior",
        "src/quantshift/shift.py",
        "sampler0=RejectionSampler(lambda x: _logistic(z(x)),",
        "sampler0=RejectionSampler(lambda x: _logistic(-z(x)),",
        ("tests/test_sampling.py::TestAcceptReject::test_accept_is_the_envelope_posterior[invariant]",),
    ),
    Mutant(
        "no proposal bound",
        "src/quantshift/sampling.py",
        "        if expected > _MAX_EXPECTED_PROPOSALS:\n",
        "        if False:\n",
        # without the bound the draw runs on; each test's 5 s deadline fails it
        (
            "tests/test_sampling.py::TestAcceptReject::test_proposal_budget_raises_before_drawing",
            "tests/test_experiment.py::TestBoundedTime::test_invariant_ratio_edge_envelope[3.5-both-2]",
        ),
    ),
    Mutant(
        "no zero-u1 stop in the block sampler",
        "src/quantshift/sampling.py",
        "        if zeros.size:\n",
        "        if False:\n",
        ("tests/test_sampling.py::TestRejectionSamplerBlocks::test_zero_u1_falls_back_to_scalar_loop",),
    ),
    Mutant(
        "no spare kept by the block sampler",
        "src/quantshift/sampling.py",
        "stream._spare_gaussian = None if odd else float(normals[pair, 1])",
        "stream._spare_gaussian = None",
        (
            "tests/test_sampling.py::TestRejectionSamplerBlocks::test_blocks_without_acceptances",
            "tests/test_sampling.py::TestRejectionSamplerBlocks::test_blocks_equal_scalar_loop",
        ),
    ),
    Mutant(
        "wrong accept-word count",
        "src/quantshift/sampling.py",
        "stream._advance(4 * pair + 3 + odd - drawn)",
        "stream._advance(4 * pair + 2 + odd - drawn)",
        ("tests/test_sampling.py::TestRejectionSamplerBlocks::test_blocks_without_acceptances",),
    ),
    Mutant(
        "a label read in the label-blind path",
        "src/quantshift/quantify.py",
        "        return clf.count_class0(self._features) / len(self._features)\n",
        "        return clf.count_class0(self._features) / (self.dataset.n0 + len(self._features[self.dataset.n0 :]))\n",
        ("tests/test_quantify.py::TestSampleEvaluator::test_quantifiers_never_read_labels",),
    ),
    Mutant(
        "class-1 slice starts one early",
        "src/quantshift/quantify.py",
        "decided0[n0:]",
        "decided0[n0 - 1 :]",
        ("tests/test_quantify.py::TestSampleEvaluator::test_rates_equal_the_mean_of_predictions",),
    ),
    Mutant(
        "accuracy counts class-1 decisions as correct",
        "src/quantshift/metrics.py",
        "    return q * rate0 + (1.0 - q) * (1.0 - rate1)\n",
        "    return q * rate0 + (1.0 - q) * rate1\n",
        ("tests/test_metrics.py::TestAccuracy::test_min_error_classifier_at_half",),
    ),
    Mutant(
        "CDE-Iterate starts at prevalence 1/2",
        "src/quantshift/quantify.py",
        "    q_k = train.prevalence0\n",
        "    q_k = 0.5\n",
        ("tests/test_quantify.py::TestFisherConsistencyUnderPriorShift::test_em_acc_and_cde_residual",),
    ),
    Mutant(
        "adapt_threshold with swapped weights",
        "src/quantshift/classify.py",
        "    return weighted_bayes_classifier(train, q, 1.0 - q)\n",
        "    return weighted_bayes_classifier(train, 1.0 - q, q)\n",
        ("tests/test_classify.py::TestAdaptThreshold::test_example_threshold",),
    ),
    Mutant(
        "numerical failures exit 1",
        "src/quantshift/errors.py",
        "    exit_code = 2\n",
        "    exit_code = 1\n",
        (
            "tests/test_experiment.py::TestCli::test_numerical_failure_exit_code",
            "tests/test_experiment.py::TestCli::test_numerical_failures_print_one_line",
        ),
    ),
)


def run_mutant(work: Path, mutant: Mutant, env: dict[str, str]) -> str:
    """Apply ``mutant`` in ``work``, run its tests and restore the file.

    Returns 'killed by' and pytest's summary line of the failing test,
    'survived', or 'error:' and a description of any other outcome."""
    path = work / mutant.path
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return "error: the old text does not occur exactly once"
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return f"error: no test failed within {TIMEOUT:.0f} s"
    finally:
        path.write_text(original)
    # pytest exits 1 when tests ran and some failed, 0 when all passed
    if result.returncode == 1:
        failed = [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
        return f"killed by {failed[0] if failed else 'a failing test'}"
    if result.returncode == 0:
        return "survived"
    return f"error: pytest exit code {result.returncode}\n{result.stdout[-2000:]}"


def main() -> int:
    started = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="quantshift-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for mutant in MUTANTS:
            began = time.perf_counter()
            outcome = run_mutant(work, mutant, env)
            failures += not outcome.startswith("killed")
            print(f"{mutant.name} ({time.perf_counter() - began:.1f} s): {outcome}")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed in {time.perf_counter() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
