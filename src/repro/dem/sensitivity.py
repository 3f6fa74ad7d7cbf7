"""Backward sensitivity sweep: fault mechanisms and determinism in one pass.

A Pauli fault inserted at a circuit location flips a deterministic set of
detectors/observables.  Computing that set fault-by-fault with forward
propagation costs O(circuit²); instead we sweep the circuit *backwards*
once, carrying every detector's and observable's propagated Pauli as two
bitmasks per qubit:

* ``sens_x[q]`` — the detectors/observables an X inserted *here* would flip
  (those whose Pauli has a Z component on ``q``),
* ``sens_z[q]`` — ditto for a Z (those whose Pauli has an X component);
  a Y flips ``sens_x[q] ^ sens_z[q]``.

Walking backwards over a Clifford gate G updates the masks by conjugation
(inserting P before G equals inserting G·P·G† after it); a measurement adds
its detector/observable mask to the X sensitivity of the measured qubit; a
reset clears both masks.  When the sweep crosses a noise instruction, the
current masks give every elementary fault's symptom set in O(1).

The same sweep proves the noiseless circuit deterministic — Stim's
detector analysis (Gidney, arXiv:2103.02202).  A ``sign`` mask carries
the phase of every propagated Pauli through the Clifford gates, and each
bit is classified when its Pauli meets a collapse:

* an X component at an ``M`` or ``R`` (anticommuting with the Z the
  instruction projects onto) or at the circuit start (all qubits begin in
  |0⟩) makes the bit random — :attr:`Sweep.random` names where;
* a Z component reaching the start makes the bit depend on the input
  state, which matters only if the circuit must work for every
  computational-basis input — :attr:`Sweep.initial`;
* otherwise the bit is deterministic, with value :attr:`Sweep.sign`.

Bit layout of masks: bit ``i`` (0 ≤ i < num_detectors) is detector ``i``;
bit ``num_detectors + j`` is observable ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.circuits import Circuit, GateKind

__all__ = ["Sweep", "backward_sweep", "extract_fault_mechanisms", "set_bits"]

#: (probability, symptom-mask) pairs, merged by identical mask.
RawFaults = dict[int, float]

#: Where a bit's Pauli met a collapse: ``(instruction index, name, qubit)``,
#: with index ``None`` and name ``"start"`` for the circuit start.
Culprit = tuple[int | None, str, int]


@dataclass
class Sweep:
    """Everything one backward sweep learns about a circuit."""

    #: symptom mask -> probability of every elementary fault mechanism.
    faults: RawFaults = field(default_factory=dict)
    #: bit -> the latest collapse its Pauli has an X component at.
    random: dict[int, Culprit] = field(default_factory=dict)
    #: bit -> the first qubit its Pauli keeps a Z component on at the start.
    initial: dict[int, int] = field(default_factory=dict)
    #: bits whose propagated Pauli carries a −1 phase.
    sign: int = 0


def set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _note(table: dict, mask: int, culprit) -> None:
    """Record ``culprit`` for every bit of ``mask`` not yet in ``table``."""
    for bit in set_bits(mask):
        table.setdefault(bit, culprit)


def _measurement_masks(circuit: Circuit) -> list[int]:
    """For each measurement index, the mask of annotations it feeds."""
    masks = [0] * circuit.num_measurements
    for i, det in enumerate(circuit.detectors):
        for m in det.measurements:
            masks[m] ^= 1 << i
    base = circuit.num_detectors
    for j, obs in enumerate(circuit.observables):
        for m in obs.measurements:
            masks[m] ^= 1 << (base + j)
    return masks


def _combine(faults: RawFaults, mask: int, probability: float) -> None:
    """Accumulate a mechanism, XOR-combining with an existing identical one.

    Two independent events that flip the same symptom set are equivalent to
    one event with probability ``p(1−q) + q(1−p)``.
    """
    if mask == 0 or probability == 0.0:
        return
    existing = faults.get(mask, 0.0)
    faults[mask] = existing + probability - 2.0 * existing * probability


def backward_sweep(circuit: Circuit) -> Sweep:
    """Sweep ``circuit`` backwards once: fault mechanisms and determinism.

    Mechanisms with empty symptoms are dropped; a mechanism that flips only
    observables (an *undetectable* logical error) is kept — callers should
    surface it, since no decoder can fix it.
    """
    meas_masks = _measurement_masks(circuit)
    n = circuit.num_qubits
    sens_x = [0] * n
    sens_z = [0] * n
    sign = 0
    sweep = Sweep()
    faults = sweep.faults
    next_meas = circuit.num_measurements

    for index in range(len(circuit.instructions) - 1, -1, -1):
        ins = circuit.instructions[index]
        kind = ins.kind
        if kind is GateKind.UNITARY1:
            name = ins.name
            for q in ins.targets:
                zc, xc = sens_x[q], sens_z[q]  # Z and X components on q
                if name == "H":
                    sign ^= xc & zc
                    sens_x[q], sens_z[q] = xc, zc
                elif name == "S":  # S†·X·S = −Y, S†·Y·S = X
                    sign ^= xc & ~zc
                    sens_x[q] = zc ^ xc
                elif name == "S_DAG":  # S·X·S† = Y, S·Y·S† = −X
                    sign ^= xc & zc
                    sens_x[q] = zc ^ xc
                elif name == "X":
                    sign ^= zc
                elif name == "Y":
                    sign ^= zc ^ xc
                elif name == "Z":
                    sign ^= xc
        elif kind is GateKind.UNITARY2:
            if ins.name == "CX":
                for c, t in ins.target_groups():
                    sign ^= sens_z[c] & sens_x[t] & ~(sens_z[t] ^ sens_x[c])
                    sens_x[c] ^= sens_x[t]
                    sens_z[t] ^= sens_z[c]
            elif ins.name == "CZ":
                for c, t in ins.target_groups():
                    sign ^= sens_z[c] & sens_z[t] & (sens_x[c] ^ sens_x[t])
                    sens_x[c] ^= sens_z[t]
                    sens_x[t] ^= sens_z[c]
            elif ins.name == "SWAP":
                for a, b in ins.target_groups():
                    sens_x[a], sens_x[b] = sens_x[b], sens_x[a]
                    sens_z[a], sens_z[b] = sens_z[b], sens_z[a]
        elif kind is GateKind.MEASURE:
            flip = ins.args[0] if ins.args else 0.0
            next_meas -= len(ins.targets)
            for offset, q in enumerate(ins.targets):
                m_mask = meas_masks[next_meas + offset]
                if flip:
                    # Classical record flip: symptom is the annotation mask
                    # itself, independent of the quantum state.
                    _combine(faults, m_mask, flip)
                if sens_z[q]:
                    _note(sweep.random, sens_z[q], (index, ins.name, q))
                sens_x[q] ^= m_mask
        elif kind is GateKind.RESET:
            for q in ins.targets:
                if sens_z[q]:
                    _note(sweep.random, sens_z[q], (index, ins.name, q))
                sens_x[q] = 0
                sens_z[q] = 0
        elif kind is GateKind.NOISE1:
            p = ins.args[0]
            for q in ins.targets:
                if ins.name == "DEPOLARIZE1":
                    _combine(faults, sens_x[q], p / 3.0)
                    _combine(faults, sens_x[q] ^ sens_z[q], p / 3.0)
                    _combine(faults, sens_z[q], p / 3.0)
                elif ins.name == "X_ERROR":
                    _combine(faults, sens_x[q], p)
                elif ins.name == "Y_ERROR":
                    _combine(faults, sens_x[q] ^ sens_z[q], p)
                elif ins.name == "Z_ERROR":
                    _combine(faults, sens_z[q], p)
        elif kind is GateKind.NOISE2:
            p = ins.args[0] / 15.0
            for a, b in ins.target_groups():
                effects_a = (0, sens_x[a], sens_x[a] ^ sens_z[a], sens_z[a])
                effects_b = (0, sens_x[b], sens_x[b] ^ sens_z[b], sens_z[b])
                for ia in range(4):
                    for ib in range(4):
                        if ia == 0 and ib == 0:
                            continue
                        _combine(faults, effects_a[ia] ^ effects_b[ib], p)
        else:  # pragma: no cover
            raise NotImplementedError(ins.name)

    for q in range(n):
        _note(sweep.random, sens_z[q], (None, "start", q))
        _note(sweep.initial, sens_x[q], q)
    sweep.sign = sign
    return sweep


def extract_fault_mechanisms(circuit: Circuit) -> RawFaults:
    """All elementary fault mechanisms of ``circuit``.

    Returns a mapping ``symptom mask -> probability`` (see module docstring
    for the bit layout).
    """
    return backward_sweep(circuit).faults
