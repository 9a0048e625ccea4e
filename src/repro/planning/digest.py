"""State digests and fingerprints shared by verification and planning.

:class:`StateDigest` and :func:`machine_digest` started life in
``repro.verify.oracle`` as the differential oracle's full-state
comparison unit.  The campaign planner needs the same hashing to key its
outcome memo, so both live here and ``repro.verify`` re-exports them —
existing imports and persisted artifacts keep working unchanged.

On top of the digest the planner adds three fingerprint helpers:

* :func:`state_fingerprint` — one hex string over a machine's complete
  architectural state (cores, the non-zero memory pages, heap allocator,
  console); hashing a freshly booted machine yields a *case fingerprint*
  that covers the executable image and every input poke;
* :func:`behavior_fingerprint` — a stable hash of everything that shapes
  a fault's runtime behaviour (trigger, actions, when-policy, mode) while
  excluding its identity (``fault_id``, metadata), so two faults that
  *act* identically share a fingerprint;
* :func:`memo_key` — the outcome-memo cache key: case fingerprint +
  behaviour fingerprint + every execution parameter that could change
  the outcome (budget, quantum, core count) + the oracle's expected
  output (the failure-mode classification depends on it).  Records are
  engine-independent by contract, so the key names the reference
  engine whichever engine executed the run.

Keying on the *pre-injection* boot state plus the behaviour fingerprint
— rather than on a mid-run post-injection digest alone — is what makes
the memo sound for ``when=every()`` faults: after the first injection
the fault is still armed, so two runs in identical machine states but
with different residual fault behaviour may still diverge.  The
behaviour fingerprint captures exactly that residue.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..machine.machine import ENGINE_SIMPLE
from ..machine.memory import PAGE_SIZE
from ..swifi.faults import MachineFault


@dataclass(frozen=True)
class StateDigest:
    """Everything observable about one finished run, hashed where bulky."""

    status: str
    exit_code: int | None
    trap_kind: str | None
    instructions: int
    activations: int
    injections: int
    console_sha: str
    state_sha: str

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "exit_code": self.exit_code,
            "trap_kind": self.trap_kind,
            "instructions": self.instructions,
            "activations": self.activations,
            "injections": self.injections,
            "console_sha": self.console_sha,
            "state_sha": self.state_sha,
        }


def _hash_cores(hasher, machine) -> None:
    for core in machine.cores:
        hasher.update(
            b"%d|%d|%d|%d|%d|" % (core.core_id, core.pc, core.lr, core.cr,
                                  1 if core.halted else 0)
        )
        hasher.update(b",".join(b"%d" % reg for reg in core.regs))
        hasher.update(b";")


def _hash_heap(hasher, machine) -> None:
    cursor, allocated, free_by_size = machine.heap.capture()
    hasher.update(repr((cursor, sorted(allocated), sorted(free_by_size))).encode())


def _hash_machine_state(machine) -> "hashlib._Hash":
    """SHA-256 over registers, memory image and heap allocator state.

    The exact byte layout predates this module (it came from the
    differential oracle) and is kept bit-identical so digests recorded in
    old fuzzer artifacts still match.
    """
    hasher = hashlib.sha256()
    _hash_cores(hasher, machine)
    hasher.update(machine.memory.data)
    _hash_heap(hasher, machine)
    return hasher


def machine_digest(machine, result, session, fault_id: str) -> StateDigest:
    """Digest a finished machine: registers, memory image, heap, console."""
    hasher = _hash_machine_state(machine)
    return StateDigest(
        status=result.status,
        exit_code=result.exit_code,
        trap_kind=result.trap.kind if result.trap is not None else None,
        instructions=result.instructions,
        activations=session.activation_count(fault_id) if session else 0,
        injections=session.injection_count(fault_id) if session else 0,
        console_sha=hashlib.sha256(bytes(machine.console)).hexdigest(),
        state_sha=hasher.hexdigest(),
    )


def state_fingerprint(machine) -> str:
    """One hex string over a machine's complete architectural state.

    Memory enters sparsely: its size, then ``(offset, bytes)`` for each
    page holding a non-zero byte.  All-zero pages are implied by their
    absence, so the encoding stays injective while a freshly booted
    machine hashes only the few pages it wrote.  Memo keys derive from
    this encoding: a memo directory written under an earlier one simply
    misses, and its runs execute again.

    Only pages that can hold a non-zero byte are read
    (:meth:`~repro.machine.memory.Memory.nonzero_pages`): those the
    debug port or a restore wrote and, once the machine has retired an
    instruction, those of its writable segments.  A fresh boot has
    retired none, so its fingerprint reads just the pages the loader
    wrote.  ``machine.instret`` counts what an engine retired once
    control is back from ``Machine.run``, so fingerprint between runs,
    not from a debug hook.
    """
    hasher = hashlib.sha256()
    _hash_cores(hasher, machine)
    memory = machine.memory
    hasher.update(b"#memory:%d" % memory.size)
    for page, image in memory.nonzero_pages(machine.instret > 0):
        hasher.update(b"@%d:" % (page * PAGE_SIZE))
        hasher.update(image)
    hasher.update(b"#heap:")
    _hash_heap(hasher, machine)
    hasher.update(b"#console:")
    hasher.update(bytes(machine.console))
    return hasher.hexdigest()


def behavior_fingerprint(spec: MachineFault) -> str:
    """Hash of a fault's runtime behaviour, independent of its identity.

    Trigger, actions, when-policy and mode are all frozen dataclasses
    with stable value-based reprs, so the repr is a canonical encoding.
    ``fault_id`` and metadata deliberately stay out: they label the fault
    but never change what it does to the machine.
    """
    payload = repr((spec.trigger, spec.actions, spec.when, spec.mode))
    return hashlib.sha256(payload.encode()).hexdigest()


def memo_key(case_fingerprint: str, expected: bytes, spec: MachineFault, *,
             budget: int, quantum: int, num_cores: int,
             behavior: str | None = None) -> str:
    """The outcome-memo key for one (case, fault, execution-config) run.

    Every engine produces the same record, so an entry written by a run
    on any engine serves a run on any other.  The key names the
    reference engine, ``simple``, so memo dirs filled by interpreter
    campaigns stay valid.  *behavior*, when given, is
    ``behavior_fingerprint(spec)`` computed once by the caller.
    """
    if behavior is None:
        behavior = behavior_fingerprint(spec)
    hasher = hashlib.sha256()
    hasher.update(case_fingerprint.encode())
    hasher.update(b"|expected:")
    hasher.update(hashlib.sha256(expected).digest())
    hasher.update(b"|behavior:")
    hasher.update(behavior.encode())
    hasher.update(
        b"|budget=%d|quantum=%d|cores=%d|engine=" % (budget, quantum, num_cores)
    )
    hasher.update(ENGINE_SIMPLE.encode())
    return hasher.hexdigest()


__all__ = [
    "StateDigest",
    "behavior_fingerprint",
    "machine_digest",
    "memo_key",
    "state_fingerprint",
]
