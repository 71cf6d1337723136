"""Set-up probe: import quantshift and build the scenario set-up of every
config a workload runs, i.e. everything before its first grid cell.

Run as a fresh process; run.py times it from spawn to exit.

    python3 perfbench/child_setup.py WORKLOAD [--self-check]
"""

import sys

from workloads import BENCH_DIR, SELF_CHECK_WORKLOADS, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

from quantshift import experiment  # noqa: E402


def configs(workload):
    if workload.config is not None:
        return [experiment.parse_config((BENCH_DIR / workload.config).read_text())]
    panels = ("population",) if workload.command == "verify" else experiment.PANELS
    return [experiment.ExperimentConfig(scenario=s, panels=panels) for s in workload.setup_scenarios]


if __name__ == "__main__":
    table = SELF_CHECK_WORKLOADS if sys.argv[2:] == ["--self-check"] else WORKLOADS
    for config in configs(table[sys.argv[1]]):
        experiment.build_setup(config)
