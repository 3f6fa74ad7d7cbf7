"""Precompiled bit-packed frame simulation.

:class:`CompiledCircuit` lowers a :class:`~repro.circuits.Circuit` **once**
into a form the hot sampling loop can execute without re-interpreting the
Python instruction list:

1. **Fused vectorized ops.**  Consecutive instructions of the same kind
   (and same probability argument) are merged into a single op holding
   flat target-index arrays, so executing a circuit is a short list of
   numpy dispatches instead of one Python branch per instruction.  Fusing
   unitaries is only legal when the merged targets are disjoint (gates on
   disjoint qubits commute); the lowering pass splits at collisions, so
   e.g. ``CX 0 1`` followed by ``CX 1 2`` stays sequential.  Noise and
   measurement ops are duplicate-safe (they scatter with unbuffered
   ``bitwise_xor.at`` / gather read-only rows) and fuse unconditionally.

2. **uint64 bit-planes.**  Error frames are stored 64 shots per word:
   ``x`` and ``z`` have shape ``(num_qubits, words)``; H/S/CX/CZ/SWAP/reset
   become whole-row bitwise ops.  Noise channels exploit sparsity: instead
   of drawing one float per (target, shot) cell, hit *positions* are drawn
   directly via geometric inter-arrival gaps — exactly iid Bernoulli(p),
   but O(n·p) random numbers instead of O(n) — and XOR-scattered into the
   planes.

3. **GF(2) transfer matrices.**  Measurement→detector and
   measurement→observable reduction is a sparse scipy CSR multiply
   (``@`` then ``& 1``) over the unpacked measurement record, replacing
   the per-detector Python XOR loops.

RNG contract (the packed canonical stream)
------------------------------------------
A sample is a pure function of ``(circuit, seed, shots)``.  The stream
differs from the reference bool-array simulator's (which draws one float
array per target per instruction): the packed backend consumes, in
compiled-op order, one geometric-gap batch per noise/flip op plus one
``integers`` draw for Pauli-kind selection.  Both backends are individually
deterministic and worker/chunk-invariant; matched seeds across backends
give statistically identical — not bitwise identical — noise.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix

from repro.circuits import Circuit, GateKind
from repro.sim.frame import DetectionData

__all__ = ["CompiledCircuit", "compile_circuit"]


# Opcodes of the lowered instruction set.
_OP_H = 0
_OP_S = 1
_OP_CX = 2
_OP_CZ = 3
_OP_SWAP = 4
_OP_RESET = 5
_OP_MEASURE = 6
_OP_DEP1 = 7
_OP_DEP2 = 8
_OP_XERR = 9
_OP_YERR = 10
_OP_ZERR = 11

_UNITARY_OPS = {
    "H": _OP_H,
    "S": _OP_S,
    "S_DAG": _OP_S,  # same frame action as S (phases don't move frames)
    "CX": _OP_CX,
    "CZ": _OP_CZ,
    "SWAP": _OP_SWAP,
}
_NOISE1_OPS = {
    "DEPOLARIZE1": _OP_DEP1,
    "X_ERROR": _OP_XERR,
    "Y_ERROR": _OP_YERR,
    "Z_ERROR": _OP_ZERR,
}


def _bernoulli_positions(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Strictly increasing positions of iid Bernoulli(p) hits in ``[0, n)``.

    Uses geometric inter-arrival gaps, so the cost is O(n·p) random draws
    — the sparse-noise trick that makes packed noise channels cheap.  The
    distribution over hit sets is exactly that of n independent coins.
    """
    if n <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n, dtype=np.int64)
    chunks = []
    last = -1
    while last < n:
        mean = (n - last) * p
        size = int(mean + 10.0 * math.sqrt(mean + 1.0)) + 16
        positions = last + np.cumsum(rng.geometric(p, size))
        chunks.append(positions)
        last = int(positions[-1])
    positions = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return positions[: int(np.searchsorted(positions, n, side="left"))]


def _scatter_xor(
    plane: np.ndarray, rows: np.ndarray, positions: np.ndarray, shots: int
) -> None:
    """XOR hit bits into ``plane`` (``(num_qubits, words)`` uint64).

    ``positions`` are flat indices into the C-order ``(len(rows), shots)``
    grid.  ``bitwise_xor.at`` is unbuffered, so duplicate qubit rows (a
    fused op hitting the same qubit twice) accumulate correctly.
    """
    if positions.size == 0:
        return
    r, s = np.divmod(positions, shots)
    flat_index = rows[r] * plane.shape[1] + (s >> 6)
    bits = np.left_shift(np.uint64(1), (s & 63).astype(np.uint64))
    np.bitwise_xor.at(plane.reshape(-1), flat_index, bits)


def _transfer_matrix(groups, num_measurements: int) -> csr_matrix:
    """Sparse GF(2) measurement→annotation matrix (one row per annotation).

    Duplicate measurement references sum to an even entry and vanish under
    the final ``& 1`` — i.e. CSR construction already implements XOR.
    """
    rows, cols = [], []
    for i, group in enumerate(groups):
        for m in group.measurements:
            rows.append(i)
            cols.append(m)
    # uint8 keeps the multiply against the uint8 bit matrix in one byte per
    # cell; parity sums can only reach the widest row's reference count, so
    # fall back to int64 in the (pathological) >255-measurement case.
    widest = int(np.bincount(rows).max()) if rows else 0
    dtype = np.uint8 if widest < 256 else np.int64
    data = np.ones(len(rows), dtype=dtype)
    return csr_matrix(
        (data, (rows, cols)), shape=(len(groups), num_measurements), dtype=dtype
    )


def _lower(circuit: Circuit) -> list[tuple]:
    """Lower the instruction stream into fused ``(opcode, columns, param)`` ops.

    ``columns`` is a tuple of intp index arrays whose meaning depends on the
    opcode: ``(qubits,)`` for H/S/reset/1-qubit noise, ``(a, b)`` for
    2-qubit ops, ``(qubits, record_slots)`` for measurements.
    """
    ops: list[tuple] = []
    # pending op accumulator: [code, param, columns-as-lists, touched, disjoint]
    pending: list | None = None

    def flush() -> None:
        nonlocal pending
        if pending is None:
            return
        code, param, cols = pending[0], pending[1], pending[2]
        ops.append((code, tuple(np.asarray(c, dtype=np.intp) for c in cols), param))
        pending = None

    def emit(
        code: int, param, cols: list[list[int]], touched: set[int], need_disjoint: bool
    ) -> None:
        nonlocal pending
        if (
            pending is not None
            and pending[0] == code
            and pending[1] == param
            and (not need_disjoint or pending[3].isdisjoint(touched))
        ):
            for acc, new in zip(pending[2], cols):
                acc.extend(new)
            pending[3] |= touched
            return
        flush()
        pending = [code, param, [list(c) for c in cols], set(touched), need_disjoint]

    def emit_unitary(code: int, groups: list[tuple[int, ...]]) -> None:
        # Split at target collisions: within one fused op every touched
        # qubit must be unique or fancy-index writes would silently drop
        # the second application.
        atom: list[tuple[int, ...]] = []
        touched: set[int] = set()
        for group in groups:
            if not touched.isdisjoint(group):
                _emit_atom(code, atom)
                atom, touched = [], set()
            atom.append(group)
            touched.update(group)
        _emit_atom(code, atom)

    def _emit_atom(code: int, atom: list[tuple[int, ...]]) -> None:
        if not atom:
            return
        width = len(atom[0])
        cols = [[g[i] for g in atom] for i in range(width)]
        touched = {q for g in atom for q in g}
        emit(code, None, cols, touched, need_disjoint=True)

    next_measurement = 0
    for ins in circuit.instructions:
        kind = ins.kind
        if kind is GateKind.UNITARY1:
            code = _UNITARY_OPS.get(ins.name)
            if code is None:
                continue  # Pauli gates and I do not move error frames
            emit_unitary(code, [(t,) for t in ins.targets])
        elif kind is GateKind.UNITARY2:
            emit_unitary(_UNITARY_OPS[ins.name], ins.target_groups())
        elif kind is GateKind.RESET:
            emit_unitary(_OP_RESET, [(t,) for t in ins.targets])
        elif kind is GateKind.MEASURE:
            flip = ins.args[0] if ins.args else 0.0
            slots = list(range(next_measurement, next_measurement + len(ins.targets)))
            next_measurement += len(ins.targets)
            emit(_OP_MEASURE, flip, [list(ins.targets), slots], set(), need_disjoint=False)
        elif kind is GateKind.NOISE1:
            p = ins.args[0]
            if p > 0.0:
                emit(
                    _NOISE1_OPS[ins.name], p, [list(ins.targets)], set(), need_disjoint=False
                )
        elif kind is GateKind.NOISE2:
            p = ins.args[0]
            if p > 0.0:
                emit(
                    _OP_DEP2,
                    p,
                    [list(ins.targets[::2]), list(ins.targets[1::2])],
                    set(),
                    need_disjoint=False,
                )
        else:  # pragma: no cover
            raise NotImplementedError(ins.name)
    flush()
    return ops


class CompiledCircuit:
    """A circuit lowered once for bit-packed frame sampling.

    Instances are cheap to pickle (index arrays + CSR matrices), which is
    how the engine ships them once per worker when it arms its fleet.
    """

    def __init__(self, circuit: Circuit):
        self.num_qubits = circuit.num_qubits
        self.num_measurements = circuit.num_measurements
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        self.ops = _lower(circuit)
        self.detector_matrix = _transfer_matrix(
            circuit.detectors, circuit.num_measurements
        )
        self.observable_matrix = _transfer_matrix(
            circuit.observables, circuit.num_measurements
        )

    # ------------------------------------------------------------------
    def run(
        self, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Execute the compiled ops; returns the packed measurement record.

        The record has shape ``(num_measurements, words)`` uint64 with shot
        ``s`` at word ``s >> 6``, bit ``s & 63``.  Padding bits past
        ``shots`` in the last word stay zero throughout.
        """
        words = (shots + 63) >> 6
        x = np.zeros((max(self.num_qubits, 1), words), dtype=np.uint64)
        z = np.zeros_like(x)
        record = np.zeros((self.num_measurements, words), dtype=np.uint64)
        for code, cols, param in self.ops:
            if code == _OP_DEP1:
                (q,) = cols
                pos = _bernoulli_positions(rng, len(q) * shots, param)
                if pos.size:
                    which = rng.integers(0, 3, pos.size)
                    _scatter_xor(x, q, pos[which != 2], shots)  # X or Y
                    _scatter_xor(z, q, pos[which != 0], shots)  # Y or Z
            elif code == _OP_DEP2:
                a, b = cols
                pos = _bernoulli_positions(rng, len(a) * shots, param)
                if pos.size:
                    which = rng.integers(1, 16, pos.size)  # skip I⊗I
                    pa, pb = which >> 2, which & 3
                    _scatter_xor(x, a, pos[(pa == 1) | (pa == 2)], shots)
                    _scatter_xor(z, a, pos[(pa == 2) | (pa == 3)], shots)
                    _scatter_xor(x, b, pos[(pb == 1) | (pb == 2)], shots)
                    _scatter_xor(z, b, pos[(pb == 2) | (pb == 3)], shots)
            elif code == _OP_CX:
                c, t = cols
                x[t] ^= x[c]
                z[c] ^= z[t]
            elif code == _OP_MEASURE:
                q, slots = cols
                outcome = x[q]  # fancy index -> fresh copy
                if param:
                    pos = _bernoulli_positions(rng, len(q) * shots, param)
                    _scatter_xor(outcome, np.arange(len(q)), pos, shots)
                record[slots] = outcome
            elif code == _OP_H:
                (q,) = cols
                swapped = x[q]
                x[q] = z[q]
                z[q] = swapped
            elif code == _OP_S:
                (q,) = cols
                z[q] ^= x[q]
            elif code == _OP_CZ:
                a, b = cols
                z[b] ^= x[a]
                z[a] ^= x[b]
            elif code == _OP_SWAP:
                a, b = cols
                swapped = x[a]
                x[a] = x[b]
                x[b] = swapped
                swapped = z[a]
                z[a] = z[b]
                z[b] = swapped
            elif code == _OP_RESET:
                (q,) = cols
                x[q] = 0
                z[q] = 0
            elif code == _OP_XERR:
                (q,) = cols
                _scatter_xor(x, q, _bernoulli_positions(rng, len(q) * shots, param), shots)
            elif code == _OP_YERR:
                (q,) = cols
                pos = _bernoulli_positions(rng, len(q) * shots, param)
                _scatter_xor(x, q, pos, shots)
                _scatter_xor(z, q, pos, shots)
            elif code == _OP_ZERR:
                (q,) = cols
                _scatter_xor(z, q, _bernoulli_positions(rng, len(q) * shots, param), shots)
            else:  # pragma: no cover
                raise NotImplementedError(code)
        return record

    # ------------------------------------------------------------------
    def sample(
        self, shots: int, seed: int | np.random.SeedSequence | np.random.Generator | None = None
    ) -> DetectionData:
        """Sample detector/observable values for ``shots`` Monte-Carlo shots.

        Same return type as :func:`repro.sim.frame.sample_detection_data`;
        see the module docstring for the RNG contract.
        """
        if shots < 1:
            raise ValueError("need at least one shot")
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        record = self.run(shots, rng)
        # Packing used arithmetic shifts (shot s -> bit s & 63 of its
        # word), so the byte view must be little-endian; on big-endian
        # hosts astype('<u8') byteswaps (a no-op view elsewhere).
        bits = np.unpackbits(
            record.astype("<u8", copy=False).view(np.uint8),
            axis=1,
            bitorder="little",
            count=shots,
        )
        detectors = np.asarray((self.detector_matrix @ bits) & 1, dtype=bool)
        observables = np.asarray((self.observable_matrix @ bits) & 1, dtype=bool)
        return DetectionData(
            np.ascontiguousarray(detectors.T), np.ascontiguousarray(observables.T)
        )


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Lower ``circuit`` once for repeated bit-packed sampling."""
    return CompiledCircuit(circuit)
