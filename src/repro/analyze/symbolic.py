"""Determinism proofs of detectors and observables, and the tableau oracle.

A detector or observable is *deterministic* when it comes out the same on
every run of the noiseless circuit; decoding assumes it comes out 0.  The
proof is the backward sweep of :mod:`repro.dem.sensitivity`, the same
pass that extracts the fault mechanisms: it carries every detector's and
observable's propagated Pauli (with its sign) back to the circuit start
and reports, per bit, one of three findings:

* ``SYM001`` — the Pauli has an X component at an ``M``, at an ``R`` or
  at the circuit start, so the value is random; the diagnostic names the
  latest such instruction (index, name, qubit) or the circuit start;
* ``SYM003`` — under ``strict_init`` only: the Pauli keeps a Z component
  at the start, so the value depends on a qubit the circuit uses before
  resetting it (the diagnostic names the qubit);
* ``SYM002`` — the value is deterministic but 1 (the sign bit is set).

The check is exact for every measurement-randomness outcome at once and
costs one sweep over the noiseless skeleton.  :func:`oracle_firings` is
the independent cross-check: it runs the noiseless circuit on the
stabilizer tableau simulator for a few seeds and reports what fired.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analyze.diagnostics import Diagnostic
from repro.circuits import Circuit, GateKind
from repro.dem.sensitivity import backward_sweep

__all__ = [
    "SymbolicCertificationError",
    "certify_deterministic",
    "oracle_firings",
    "verify_circuit",
]


class SymbolicCertificationError(Exception):
    """A circuit failed the determinism proof."""

    def __init__(self, message: str, diagnostics: list[Diagnostic]):
        super().__init__(message)
        self.diagnostics = diagnostics


def verify_circuit(
    circuit: Circuit, strict_init: bool = False, location: str = "circuit"
) -> list[Diagnostic]:
    """Prove every detector/observable deterministic; return the failures.

    The circuit may carry noise channels — the sweep runs on the noiseless
    skeleton, and culprit indices refer to ``circuit`` as given.  An empty
    list is a *proof* that every detector and observable is 0 for every
    measurement-randomness outcome (and, with ``strict_init``, for every
    computational-basis input state).
    """
    noisy = (GateKind.NOISE1, GateKind.NOISE2)
    kept = [i for i, ins in enumerate(circuit.instructions) if ins.kind not in noisy]
    sweep = backward_sweep(circuit.without_noise())
    subjects = [
        (f"detector {i} (basis {det.basis})", f"{location}:detector[{i}]@{det.coord}")
        for i, det in enumerate(circuit.detectors)
    ] + [
        (f"observable {obs.name} (basis {obs.basis})",
         f"{location}:observable[{obs.name}]")
        for obs in circuit.observables
    ]
    diagnostics = []
    for bit, (what, where) in enumerate(subjects):
        if bit in sweep.random:
            index, name, qubit = sweep.random[bit]
            at = (
                f"the circuit start (qubit {qubit})"
                if index is None
                else f"instruction #{kept[index]} ({name} of qubit {qubit})"
            )
            diagnostics.append(Diagnostic(
                "SYM001", "error", where,
                f"{what} is not deterministic: its Pauli has an X component at {at}",
            ))
        elif strict_init and bit in sweep.initial:
            diagnostics.append(Diagnostic(
                "SYM003", "error", where,
                f"{what} depends on the initial state of qubit "
                f"{sweep.initial[bit]} (not reset before use)",
            ))
        elif sweep.sign >> bit & 1:
            diagnostics.append(Diagnostic(
                "SYM002", "error", where,
                f"{what} has deterministic value 1 on the noiseless circuit",
            ))
    return diagnostics


def certify_deterministic(
    circuit: Circuit, name: str = "circuit", strict_init: bool = False
) -> None:
    """Raise :class:`SymbolicCertificationError` unless the proof passes."""
    diagnostics = verify_circuit(circuit, strict_init=strict_init, location=name)
    if diagnostics:
        raise SymbolicCertificationError(
            f"{name}: determinism proof failed "
            f"({len(diagnostics)} finding(s)); first: {diagnostics[0]}",
            diagnostics,
        )


def oracle_firings(
    circuit: Circuit, seeds: Sequence[int] = (0, 1)
) -> list[tuple[int, str, int]]:
    """What the tableau oracle sees fire on the noiseless circuit.

    Runs ``circuit.without_noise()`` on the stabilizer tableau simulator
    once per seed and returns ``(seed, kind, index)`` for every detector
    (``kind="detector"``) and observable (``kind="observable"``) that
    came out 1.  An empty list is the sampled certificate; callers format
    their own messages.
    """
    from repro.stabilizer import TableauSimulator

    clean = circuit.without_noise()
    fired = []
    for seed in seeds:
        record = TableauSimulator(max(clean.num_qubits, 1), seed=seed).run(clean)
        for kind, annotations in (
            ("detector", clean.detectors),
            ("observable", clean.observables),
        ):
            for index, annotation in enumerate(annotations):
                if sum(record[m] for m in annotation.measurements) & 1:
                    fired.append((seed, kind, index))
    return fired
