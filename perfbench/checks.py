"""Correctness checks on campaign summaries (see ``perfbench.campaign``).

Every run checks each unit's logical-error count.  At the reference seed
the counts must equal the pinned ones bit for bit (the SeedSequence
determinism contract).  At any other seed each unit's rate must lie
within a 5 sigma binomial bound of the pinned rate: a two-sample test
with the pooled rate, since the pinned rate is itself an estimate from
the same number of shots.  Each problem string names its unit.
"""

from __future__ import annotations

import math

from perfbench.manifest import REFERENCE_SEED

SIGMAS = 5.0


def within_sigmas(errors: int, shots: int, ref_errors: int, ref_shots: int,
                  sigmas: float = SIGMAS) -> bool:
    """Two-sample binomial test of ``errors/shots`` against the pinned rate."""
    pooled = (errors + ref_errors) / (shots + ref_shots)
    sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / shots + 1.0 / ref_shots))
    return abs(errors / shots - ref_errors / ref_shots) <= sigmas * sigma


def check_summary(summary: dict, pinned: dict) -> list[str]:
    """Problems with one campaign summary; an empty list means correct."""
    problems = []
    ref_units = pinned["workloads"][summary["workload"]]["units"]
    units = summary["units"]
    for name in sorted(set(ref_units) - set(units)):
        problems.append(f"unit {name}: missing from the result")
    for name in sorted(set(units) - set(ref_units)):
        problems.append(f"unit {name}: not in the pinned unit list")
    setup = summary["mode"] == "setup"
    for name in sorted(set(units) & set(ref_units)):
        errors, shots = units[name]
        ref_errors, ref_shots = ref_units[name]
        expected_shots = 1 if setup else ref_shots
        if shots != expected_shots:
            problems.append(
                f"unit {name}: {shots} shots completed, expected {expected_shots}"
            )
        elif setup:
            continue
        elif summary["seed"] == REFERENCE_SEED:
            if errors != ref_errors:
                problems.append(
                    f"unit {name}: {errors} logical errors at the reference "
                    f"seed {REFERENCE_SEED}, pinned {ref_errors}"
                )
        elif not within_sigmas(errors, shots, ref_errors, ref_shots):
            problems.append(
                f"unit {name}: rate {errors}/{shots} is outside {SIGMAS:g} sigma "
                f"of the pinned {ref_errors}/{ref_shots}"
            )
    stats = summary["decode_stats"]
    if summary["tier_sum"] != stats["unique"]:
        problems.append(
            f"decode tiers sum to {summary['tier_sum']}, not to the "
            f"{stats['unique']} unique syndromes"
        )
    if not summary["blocks"]["reconciled"]:
        problems.append("a unit's completed + quarantined blocks != scheduled")
    return problems


def check_same_counts(first: dict, second: dict) -> list[str]:
    """Units whose counts differ between two runs of the same seed."""
    return [
        f"unit {name}: {second['units'].get(name)} in one run, "
        f"{counts} in the other at the same seed"
        for name, counts in sorted(first["units"].items())
        if second["units"].get(name) != counts
    ]
