"""Static-analysis passes over circuits, schedules and decoder graphs.

``symbolic`` proves detector/observable determinism with the backward
sensitivity sweep that also extracts the fault mechanisms
(:mod:`repro.dem.sensitivity`) and holds the tableau oracle that
cross-checks it, ``schedule`` lints compiled schedules, ``graph``
validates decoding graphs and the flat union-find mirrors, and ``lint``
drives all three over the preset matrix for the ``repro lint`` CLI
subcommand.
"""

from repro.analyze.diagnostics import CODES, SEVERITIES, Diagnostic, LintReport
from repro.analyze.graph import lint_graph, lint_unionfind
from repro.analyze.lint import lint_instruments, lint_matrix
from repro.analyze.schedule import lint_schedule, static_refresh_violations
from repro.analyze.symbolic import (
    SymbolicCertificationError,
    certify_deterministic,
    oracle_firings,
    verify_circuit,
)

__all__ = [
    "CODES",
    "SEVERITIES",
    "Diagnostic",
    "LintReport",
    "SymbolicCertificationError",
    "certify_deterministic",
    "lint_graph",
    "lint_instruments",
    "lint_matrix",
    "lint_schedule",
    "lint_unionfind",
    "oracle_firings",
    "static_refresh_violations",
    "verify_circuit",
]
