"""Canonical campaign specs shared by the CLI and the service.

The durability layer identifies a campaign by ``run_key(spec)`` — the
SHA-256 of the canonical JSON spec — so the CLI and the service MUST
build byte-identical spec dicts for the same campaign, or a job
submitted over HTTP could never resume a ledger the CLI started (and
the bit-identity acceptance gate, which diffs a service ledger against
a CLI ledger, would trivially fail).  These builders are that single
source of truth: ``__main__.py`` calls them for ``memory``/``compare``
and the service calls them for every submitted payload.

``execute_spec`` is the matching single source of execution truth: it
reconstructs the campaign from nothing but the spec (plus
non-result-affecting knobs like worker count and shared caches), so a
job runs the same computation no matter which front-end accepted it.
"""

from __future__ import annotations

__all__ = [
    "SpecError",
    "build_compare_spec",
    "build_memory_spec",
    "execute_spec",
    "memory_circuit",
    "spec_from_payload",
]

#: Single-patch schemes (mirrors ``repro.threshold.SCHEMES``).
SCHEMES = (
    "baseline",
    "natural_all_at_once",
    "natural_interleaved",
    "compact_all_at_once",
    "compact_interleaved",
)
PROGRAMS = ("pairs", "ghz", "t")
POLICIES = ("auto", "surgery_only", "transversal_preferred")
BACKENDS = ("packed", "reference")
DECODERS = ("unionfind", "mwpm")


class SpecError(ValueError):
    """A submitted campaign spec is invalid (HTTP 400 at the server)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    return value


def _positive_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value > 0, f"{name} must be a positive integer, got {value!r}")
    return value


def _odd_distance(value, name: str = "distance") -> int:
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value >= 3 and value % 2 == 1,
             f"{name} must be an odd integer >= 3, got {value!r}")
    return value


def _probability(value, name: str = "p") -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and 0.0 < float(value) < 1.0,
             f"{name} must be a probability in (0, 1), got {value!r}")
    return float(value)


def _choice(value, choices, name: str):
    _require(value in choices, f"{name} must be one of {choices}, got {value!r}")
    return value


def build_memory_spec(
    *,
    scheme: str = "baseline",
    distance: int = 3,
    p: float = 2e-3,
    rounds: int | None = None,
    basis: str = "Z",
    shots: int = 2000,
    seed: int = 0,
    decoder: str = "unionfind",
    backend: str = "packed",
) -> dict:
    """The ``memory`` campaign spec — field-identical to the CLI's."""
    from repro.sim import SHOT_BLOCK

    return {
        "command": "memory",
        "scheme": _choice(scheme, SCHEMES, "scheme"),
        "distance": _odd_distance(distance),
        "p": _probability(p),
        "rounds": rounds if rounds is None else _positive_int(rounds, "rounds"),
        "basis": _choice(basis, ("Z", "X"), "basis"),
        "shots": _positive_int(shots, "shots"),
        "seed": _int(seed, "seed"),
        "decoder": _choice(decoder, DECODERS, "decoder"),
        "backend": _choice(backend, BACKENDS, "backend"),
        "shot_block": SHOT_BLOCK,
        "version": 1,
    }


def build_compare_spec(
    *,
    program: str = "pairs",
    qubits: int = 4,
    correlated: bool = False,
    policy: str | None = None,
    distances=(3,),
    p: float = 2e-3,
    shots: int = 2000,
    grid: int = 2,
    embeddings=("compact", "natural"),
    refresh_policies=("dram", "none"),
    rounds_per_timestep: int = 1,
    seed: int = 0,
    decoder: str = "unionfind",
    backend: str = "packed",
) -> dict:
    """The ``compare`` campaign spec — field-identical to the CLI's.

    ``policy=None`` resolves exactly as the CLI does: ``surgery_only``
    when correlated (so there is a joint error surface to measure),
    ``auto`` otherwise.
    """
    from repro.sim import SHOT_BLOCK

    _require(isinstance(correlated, bool), "correlated must be a boolean")
    if policy is None:
        policy = "surgery_only" if correlated else "auto"
    distances = [_odd_distance(d) for d in _as_list(distances, "distances")]
    _require(len(distances) > 0, "distances must be non-empty")
    embeddings = [
        _choice(e, ("compact", "natural"), "embedding")
        for e in _as_list(embeddings, "embeddings")
    ]
    _require(len(embeddings) > 0, "embeddings must be non-empty")
    refresh_policies = [
        _choice(r, ("dram", "none"), "refresh policy")
        for r in _as_list(refresh_policies, "refresh_policies")
    ]
    _require(len(refresh_policies) > 0, "refresh_policies must be non-empty")
    return {
        "command": "compare",
        "program": _choice(program, PROGRAMS, "program"),
        "qubits": _positive_int(qubits, "qubits"),
        "correlated": correlated,
        "policy": _choice(policy, POLICIES, "policy"),
        "distances": distances,
        "p": _probability(p),
        "shots": _positive_int(shots, "shots"),
        "grid": _positive_int(grid, "grid"),
        "embeddings": embeddings,
        "refresh_policies": refresh_policies,
        "rounds_per_timestep": _positive_int(
            rounds_per_timestep, "rounds_per_timestep"
        ),
        "seed": _int(seed, "seed"),
        "decoder": _choice(decoder, DECODERS, "decoder"),
        "backend": _choice(backend, BACKENDS, "backend"),
        "shot_block": SHOT_BLOCK,
        "version": 1,
    }


def _as_list(value, name: str) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    raise SpecError(f"{name} must be a list, got {value!r}")


_BUILDERS = {"memory": build_memory_spec, "compare": build_compare_spec}


def spec_from_payload(payload: dict) -> dict:
    """Validate and canonicalize a submitted job payload into a spec.

    The payload is the spec's own vocabulary (``command`` plus builder
    keyword fields); unknown fields are rejected rather than ignored, so
    a typo cannot silently submit a different campaign than intended.
    """
    _require(isinstance(payload, dict), "job payload must be a JSON object")
    command = payload.get("command")
    _require(command in _BUILDERS,
             f"command must be one of {sorted(_BUILDERS)}, got {command!r}")
    builder = _BUILDERS[command]
    kwargs = {k: v for k, v in payload.items() if k != "command"}
    # Fields the builder stamps itself are accepted back verbatim only
    # when they agree (idempotent round-trip of a previous spec).
    for stamped in ("shot_block", "version"):
        kwargs.pop(stamped, None)
    import inspect

    allowed = set(inspect.signature(builder).parameters)
    unknown = sorted(set(kwargs) - allowed)
    _require(not unknown, f"unknown spec field(s) for {command!r}: {unknown}")
    spec = builder(**kwargs)
    for stamped in ("shot_block", "version"):
        if stamped in payload:
            _require(
                payload[stamped] == spec[stamped],
                f"{stamped}={payload[stamped]!r} does not match this engine "
                f"({spec[stamped]!r})",
            )
    return spec


def execute_spec(
    spec: dict,
    executor,
    *,
    workers: int = 1,
    lowering_cache=None,
    graph_cache=None,
    joint_cache=None,
    joint_graph_cache=None,
) -> dict:
    """Run the campaign a spec describes; returns a JSON-able summary.

    Only the spec affects results — ``workers`` and the shared caches
    change wall-clock, never block records (the engine's
    worker/chunk-invariance contract).  The summary reports per-unit
    errors/shots/CI plus decode-tier totals, and is what a job's
    ``result`` field holds once it completes.
    """
    command = spec["command"]
    if command == "memory":
        return _execute_memory(spec, executor, workers=workers)
    if command == "compare":
        return _execute_compare(
            spec, executor, workers=workers,
            lowering_cache=lowering_cache, graph_cache=graph_cache,
            joint_cache=joint_cache, joint_graph_cache=joint_graph_cache,
        )
    raise SpecError(f"unknown spec command {command!r}")


def _ci(result) -> list[float]:
    """Wilson interval as a JSON pair; vacuous [0, 1] when every block
    of the unit was quarantined (zero durable shots)."""
    if result.shots <= 0:
        return [0.0, 1.0]
    lo, hi = result.confidence_interval
    return [lo, hi]


def _rate(result) -> float:
    """Error rate; 0.0 rather than 0/0 for an all-quarantined unit."""
    return result.logical_error_rate if result.shots > 0 else 0.0


def memory_circuit(spec: dict):
    """The memory circuit a ``memory`` spec describes."""
    from repro.noise import ErrorModel
    from repro.threshold import build_memory_circuit
    from repro.threshold.estimator import default_hardware_for

    model = ErrorModel(
        hardware=default_hardware_for(spec["scheme"]),
        p=spec["p"],
        scale_coherence=False,
    )
    return build_memory_circuit(
        spec["scheme"], spec["distance"], model,
        basis=spec["basis"], rounds=spec["rounds"],
    )


def _execute_memory(spec, executor, *, workers) -> dict:
    from repro.sim import run_memory_experiment

    result = run_memory_experiment(
        memory_circuit(spec),
        shots=spec["shots"],
        decoder=spec["decoder"],
        seed=spec["seed"],
        workers=workers,
        backend=spec["backend"],
        executor=executor,
    )
    return {
        "command": "memory",
        "units": [
            {
                "unit": "memory",
                "errors": result.logical_errors,
                "shots": result.shots,
                "rate": _rate(result),
                "ci": _ci(result),
            }
        ],
        "decode_stats": dict(result.decode_stats),
    }


def _execute_compare(
    spec, executor, *, workers,
    lowering_cache, graph_cache, joint_cache, joint_graph_cache,
) -> dict:
    from repro.vlq import build_program, compare_architectures

    program = build_program(spec["program"], spec["qubits"])
    comparison = compare_architectures(
        program,
        distances=tuple(spec["distances"]),
        embeddings=tuple(spec["embeddings"]),
        refresh_policies=tuple(spec["refresh_policies"]),
        p=spec["p"],
        shots=spec["shots"],
        stack_grid=(spec["grid"], spec["grid"]),
        policy=spec["policy"],
        rounds_per_timestep=spec["rounds_per_timestep"],
        decoder=spec["decoder"],
        seed=spec["seed"],
        workers=workers,
        backend=spec["backend"],
        program_name=spec["program"],
        correlated=spec["correlated"],
        executor=executor,
        lowering_cache=lowering_cache,
        graph_cache=graph_cache,
        joint_cache=joint_cache,
        joint_graph_cache=joint_graph_cache,
    )
    units = []
    for row in comparison.rows:
        for qubit in row.per_qubit:
            units.append(
                {
                    "unit": f"{row.embedding}/{row.refresh}/d{row.distance}"
                            f"/q{qubit.qubit}",
                    "errors": qubit.result.logical_errors,
                    "shots": qubit.result.shots,
                    "rate": _rate(qubit.result),
                    "ci": _ci(qubit.result),
                }
            )
        if row.pieces is not None:
            for i, piece in enumerate(row.pieces):
                label = "+".join(f"q{q}" for q in piece.qubits)
                units.append(
                    {
                        "unit": f"{row.embedding}/{row.refresh}"
                                f"/d{row.distance}/pair{i}:{label}",
                        "errors": piece.result.logical_errors,
                        "shots": piece.result.shots,
                        "rate": _rate(piece.result),
                        "ci": _ci(piece.result),
                    }
                )
    return {
        "command": "compare",
        "units": units,
        "decode_stats": dict(comparison.decode_totals()),
        "caches": {
            "lowering": comparison.lowering_cache.stats(),
            "decoder_graph": comparison.graph_cache.stats(),
        },
    }
