"""Whole-matrix lint driver behind the ``repro lint`` CLI subcommand.

One call sweeps every registered program preset over the requested
embeddings × distances × refresh policies, and for each point:

* statically lints the compiled schedule (:mod:`repro.analyze.schedule`);
* lowers every *distinct* timeline shape (single-qubit memory circuits
  and, under the surgery CNOT policy, merged-patch joint circuits) and
  proves its detectors/observables deterministic with the backward
  sweep (:mod:`repro.analyze.symbolic`), in strict-init mode so a
  dropped reset also surfaces;
* builds the DEM/matching-graph/union-find stack for each distinct
  shape and validates it (:mod:`repro.analyze.graph`).

Shapes are deduplicated across the whole sweep, mirroring the campaign
BuildCaches, so the driver stays fast enough for CI.  With
``oracle=True`` every certified circuit is re-certified by the
stabilizer-tableau oracle and any disagreement is reported as an
internal SYM002 finding (the two must agree; a pinned test asserts it).
"""

from __future__ import annotations

from repro.analyze.diagnostics import Diagnostic, LintReport
from repro.analyze.graph import lint_graph
from repro.analyze.schedule import lint_schedule
from repro.analyze.symbolic import oracle_firings, verify_circuit
from repro.core.addresses import Machine
from repro.core.compiler import compile_program
from repro.decoders import MatchingGraph, UnionFindDecoder
from repro.dem import DetectorErrorModel
from repro.noise import MEMORY_HARDWARE, REFERENCE_PHYSICAL_ERROR, ErrorModel
from repro.vlq.campaign import PROGRAMS, build_program
from repro.vlq.lowering import LoweringSpec, lower_timeline, timeline_shape
from repro.vlq.surgery import (
    JointLoweringSpec,
    joint_shape,
    lower_joint_timelines,
    partition_surgery,
)

__all__ = ["lint_instruments", "lint_matrix"]


def lint_instruments(specs=None) -> LintReport:
    """OBS001: validate the obs instrument catalog (static, no execution).

    Every registered instrument must match the
    ``repro_<layer>_<name>_<unit>`` naming convention, carry a non-empty
    help string, and (for histograms) declare strictly-increasing fixed
    bucket edges — the properties exposition and deterministic snapshot
    merging rely on.  ``specs`` defaults to the full catalog; tests pass
    synthetic specs to pin that violations actually surface.
    """
    from repro.obs.catalog import CATALOG, check_spec

    report = LintReport()
    for spec in CATALOG if specs is None else specs:
        report.count("instruments")
        for problem in check_spec(spec):
            report.extend(
                [
                    Diagnostic(
                        "OBS001",
                        "error",
                        f"obs.catalog/{spec.name}",
                        problem,
                    )
                ]
            )
    return report


def _oracle_check(circuit, location: str) -> list[Diagnostic]:
    """Cross-check the determinism proof against the tableau oracle."""
    return [
        Diagnostic(
            "SYM002",
            "error",
            f"{location}:oracle",
            f"tableau oracle (seed {seed}) fires {kind} {index} "
            "on a circuit the determinism proof passed",
        )
        for seed, kind, index in oracle_firings(circuit)
    ]


def lint_matrix(
    programs: tuple[str, ...] = tuple(sorted(PROGRAMS)),
    qubits: int = 4,
    distances: tuple[int, ...] = (3,),
    embeddings: tuple[str, ...] = ("natural", "compact"),
    refresh_policies: tuple[str, ...] = ("dram",),
    policies: tuple[str, ...] = ("auto", "surgery_only"),
    basis: str = "Z",
    cavity_modes: int = 10,
    stack_grid: tuple[int, int] = (2, 2),
    oracle: bool = False,
    strict_init: bool = True,
) -> LintReport:
    """Lint the full preset matrix; returns the aggregated report."""
    report = LintReport()
    # The instrument catalog is global and static — lint it once per
    # matrix run alongside the schedule/circuit/graph passes.
    report.merge(lint_instruments())
    error_model = ErrorModel(
        hardware=MEMORY_HARDWARE, p=REFERENCE_PHYSICAL_ERROR, scale_coherence=False
    )
    seen_circuit_shapes: set = set()
    seen_graph_shapes: set = set()

    def check_circuit(circuit, shape, location: str, counter: str) -> None:
        if ("circ", counter, shape) not in seen_circuit_shapes:
            seen_circuit_shapes.add(("circ", counter, shape))
            report.count(counter)
            findings = verify_circuit(
                circuit, strict_init=strict_init, location=location
            )
            report.extend(findings)
            if oracle and not findings:
                report.extend(_oracle_check(circuit, location))
        if ("graph", counter, shape) not in seen_graph_shapes:
            seen_graph_shapes.add(("graph", counter, shape))
            report.count("graphs")
            dem = DetectorErrorModel(circuit)
            graph = MatchingGraph.from_dem(dem, basis)
            decoder = UnionFindDecoder(graph)
            report.extend(lint_graph(graph, dem, basis, decoder, location=location))

    for name in programs:
        program = build_program(name, qubits)
        for embedding in embeddings:
            for distance in distances:
                for refresh in refresh_policies:
                    for policy in policies:
                        machine = Machine(
                            stack_grid=stack_grid,
                            cavity_modes=cavity_modes,
                            distance=distance,
                            embedding=embedding,
                        )
                        point = (
                            f"{name}/{embedding}/d={distance}/"
                            f"{refresh}/{policy}"
                        )
                        schedule = compile_program(
                            program,
                            machine,
                            policy=policy,
                            insert_refresh=(refresh == "dram"),
                        )
                        report.count("schedules")
                        report.extend(lint_schedule(schedule, location=point))

                        spec = LoweringSpec(
                            distance=distance,
                            embedding=embedding,
                            basis=basis,
                            refresh=(refresh == "dram"),
                        )
                        for qubit in sorted(schedule.residences):
                            timeline = schedule.qubit_timeline(qubit)
                            shape = timeline_shape(timeline, spec)
                            if ("circ", "circuit_shapes", shape) in seen_circuit_shapes:
                                continue
                            lowered = lower_timeline(timeline, error_model, spec)
                            check_circuit(
                                lowered.circuit,
                                shape,
                                f"{point}/q{qubit}",
                                "circuit_shapes",
                            )

                        jspec = JointLoweringSpec(
                            distance=distance,
                            embedding=embedding,
                            basis=basis,
                            refresh=(refresh == "dram"),
                        )
                        partition = partition_surgery(schedule)
                        for (qa, qb), spans in partition.pairs:
                            ta = schedule.qubit_timeline(qa)
                            tb = schedule.qubit_timeline(qb)
                            shape = joint_shape(ta, tb, spans, jspec)
                            if ("circ", "joint_shapes", shape) in seen_circuit_shapes:
                                continue
                            lowered = lower_joint_timelines(
                                ta, tb, spans, error_model, jspec
                            )
                            check_circuit(
                                lowered.circuit,
                                shape,
                                f"{point}/joint({qa},{qb})",
                                "joint_shapes",
                            )
    return report
