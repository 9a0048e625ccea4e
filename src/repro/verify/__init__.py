"""repro.verify — the differential verification subsystem.

A seeded random-program generator over the MiniC subset, a randomized
fault sampler over the Table-3 error classes and raw SWIFI corruptions,
and a differential oracle that runs every (program, input, fault) case
across the {engine} x {snapshot} x {jobs} configuration matrix asserting
bit-identical results.  Divergences are minimized automatically and
persisted as replayable artifacts.  ``repro verify fuzz`` is the CLI
entry point; :func:`run_fuzz` the programmatic one.
"""

from .artifacts import ARTIFACT_SCHEMA, load_artifact, replay_artifact, write_artifact
from .fuzzer import FuzzConfig, FuzzReport, run_fuzz
from .generator import GenProgram, generate_pokes, generate_program
from .oracle import (
    DifferentialOracle,
    Divergence,
    MatrixConfig,
    StateDigest,
    full_matrix,
    run_state,
)
from .sampler import (
    MachineFaultRecipe,
    SamplerError,
    sample_descriptors,
)
from .shrinker import ShrinkResult, shrink_case

__all__ = [
    "ARTIFACT_SCHEMA",
    "DifferentialOracle",
    "Divergence",
    "FuzzConfig",
    "FuzzReport",
    "GenProgram",
    "MachineFaultRecipe",
    "MatrixConfig",
    "SamplerError",
    "ShrinkResult",
    "StateDigest",
    "full_matrix",
    "generate_pokes",
    "generate_program",
    "load_artifact",
    "replay_artifact",
    "run_fuzz",
    "run_state",
    "sample_descriptors",
    "shrink_case",
    "write_artifact",
]
