"""Divergence artifacts: persist a failing case, replay it later.

When the fuzzer finds (and shrinks) a divergence it writes two files:

* ``divergence-<seed>-<n>.json`` — everything needed to reproduce the
  case: the (shrunken) MiniC source, the input pokes, the fault
  descriptor recipe, the pair of disagreeing configurations, both sides
  of the mismatch and the shrink statistics;
* ``divergence-<seed>-<n>.py`` — a standalone script that loads the
  sibling JSON and re-runs the comparison (``PYTHONPATH=src python
  divergence-....py``), exiting 1 while the divergence persists.

``repro verify replay <artifact.json>`` goes through the same
:func:`replay_artifact` entry point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .generator import GenProgram
from .sampler import MachineFaultRecipe
from ..swifi.campaign import InputCase

#: Bump when the artifact layout changes incompatibly.
ARTIFACT_SCHEMA = 1

_REPRO_SCRIPT = '''\
#!/usr/bin/env python
"""Standalone replay for one repro.verify divergence artifact.

Run from the repository root with ``PYTHONPATH=src python {script_name}``.
Exits 1 while the divergence reproduces, 0 once it is fixed.
"""

import pathlib
import sys

from repro.verify.artifacts import replay_artifact

ARTIFACT = pathlib.Path(__file__).with_name({artifact_name!r})

if __name__ == "__main__":
    divergence = replay_artifact(ARTIFACT)
    if divergence is None:
        print("divergence no longer reproduces")
        sys.exit(0)
    print(divergence.summary())
    sys.exit(1)
'''


def _serialize_case(case: InputCase) -> dict:
    return {
        "case_id": case.case_id,
        "pokes": {name: value for name, value in case.pokes.items()},
    }


def write_artifact(directory: Path, *, ordinal: int, divergence, program: GenProgram,
                   descriptor: MachineFaultRecipe | None, case: InputCase,
                   shrink=None) -> list[Path]:
    """Persist one divergence; returns the written paths (json first)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"divergence-{program.seed}-{ordinal:03d}"
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "program": program.name,
        "seed": program.seed,
        "index": program.index,
        "source": program.render(),
        "statement_count": program.statement_count(),
        "case": _serialize_case(case),
        "descriptor": descriptor.to_dict() if descriptor is not None else None,
        "divergence": divergence.to_dict(),
        "shrink": shrink.to_dict() if shrink is not None else None,
    }
    json_path = directory / f"{stem}.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    script_path = directory / f"{stem}.py"
    script_path.write_text(
        _REPRO_SCRIPT.format(script_name=script_path.name,
                             artifact_name=json_path.name)
    )
    return [json_path, script_path]


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass
class LoadedArtifact:
    """A parsed divergence artifact, ready to re-run."""

    payload: dict
    source: str
    case: InputCase
    descriptor: MachineFaultRecipe | None
    config_a: "MatrixConfig"
    config_b: "MatrixConfig"
    tier: str


def load_artifact(path: str | Path) -> LoadedArtifact:
    from .oracle import MatrixConfig

    payload = json.loads(Path(path).read_text())
    schema = payload.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(f"unsupported artifact schema {schema!r} "
                         f"(expected {ARTIFACT_SCHEMA})")
    raw_case = payload["case"]
    case = InputCase(raw_case["case_id"], raw_case["pokes"], b"")
    raw_descriptor = payload.get("descriptor")
    descriptor = (MachineFaultRecipe.from_dict(raw_descriptor)
                  if raw_descriptor is not None else None)
    divergence = payload["divergence"]
    return LoadedArtifact(
        payload=payload,
        source=payload["source"],
        case=case,
        descriptor=descriptor,
        config_a=MatrixConfig(**divergence["config_a"]),
        config_b=MatrixConfig(**divergence["config_b"]),
        tier=divergence["tier"],
    )


def replay_artifact(path: str | Path):
    """Re-run an artifact's comparison; the live Divergence, or None.

    Returns ``None`` when the recorded configurations now agree (the bug
    is fixed), and the fresh :class:`repro.verify.oracle.Divergence` when
    they still disagree.  Raises :class:`SamplerError` if the recorded
    fault descriptor no longer realizes against the recorded source.
    """
    from .fuzzer import (
        GOLDEN_BUDGET,
        _binary_fingerprint,
        _golden_console,
        _observable_state,
        _opt_divergence_fields,
        state_budget,
    )
    from .oracle import DifferentialOracle, Divergence, default_budget, run_state
    from ..lang import compile_source
    from ..machine.machine import ENGINE_SIMPLE

    artifact = load_artifact(path)
    compiled = compile_source(artifact.source, artifact.payload["program"])
    golden = run_state(compiled.executable, None, artifact.case,
                       budget=GOLDEN_BUDGET, engine=ENGINE_SIMPLE)
    if artifact.tier == "opt":
        # The two sides ran different binaries of the same source; the
        # replay recompiles both and re-compares the observable contract.
        level = artifact.config_b.opt
        budget = default_budget(golden.instructions)
        try:
            recompiled = compile_source(
                artifact.source, artifact.payload["program"], opt_level=level
            )
        except Exception as error:
            return Divergence(
                tier="opt", program=artifact.payload["program"],
                fault_id="golden", case_id=artifact.case.case_id,
                config_a=artifact.config_a, config_b=artifact.config_b,
                detail_a=_binary_fingerprint(compiled),
                detail_b={"opt_level": level, "compile_error": str(error)},
                fields=["compile"],
            )
        engine = artifact.config_b.engine
        base = _observable_state(compiled, artifact.case, budget=budget,
                                 engine=engine)
        other = _observable_state(recompiled, artifact.case, budget=budget,
                                  engine=engine)
        fields = _opt_divergence_fields(base, other)
        if not fields:
            return None
        return Divergence(
            tier="opt", program=artifact.payload["program"],
            fault_id="golden", case_id=artifact.case.case_id,
            config_a=artifact.config_a, config_b=artifact.config_b,
            detail_a={**base, **_binary_fingerprint(compiled)},
            detail_b={**other, **_binary_fingerprint(recompiled)},
            fields=fields,
        )
    if artifact.config_b.opt != 0:
        compiled = compile_source(artifact.source, artifact.payload["program"],
                                  opt_level=artifact.config_b.opt)
        golden = run_state(compiled.executable, None, artifact.case,
                           budget=GOLDEN_BUDGET, engine=ENGINE_SIMPLE)
    spec = None
    if artifact.descriptor is not None:
        spec = artifact.descriptor.realize(compiled, golden.instructions)
    case = InputCase(artifact.case.case_id, artifact.case.pokes,
                     _golden_console(compiled, artifact.case.pokes))
    budget = default_budget(golden.instructions)
    if artifact.tier == "state":
        oracle = DifferentialOracle(
            compiled, [case], matrix=[],
            state_engines=(artifact.config_a.engine, artifact.config_b.engine),
        )
        divergence, _ = oracle.check_state(
            spec, case,
            budget=state_budget(compiled, case, artifact.config_b,
                                golden.instructions),
            num_cores=artifact.config_b.cores,
            quantum=artifact.config_b.quantum,
        )
        return divergence
    oracle = DifferentialOracle(compiled, [case],
                                matrix=[artifact.config_a, artifact.config_b])
    divergences = oracle.check_records([spec] if spec is not None else [])
    return divergences[0] if divergences else None
