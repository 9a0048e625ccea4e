"""The RX32 debug unit — the hardware the fault injector rides on.

Xception's defining idea is that faults are injected through the
*debugging and performance-monitoring features* of the processor rather
than by modifying the target program.  We model the two mechanisms the
paper contrasts:

* **Breakpoint registers.**  The PowerPC 601 has *two* instruction-address
  breakpoint registers, a limit the paper explicitly runs into when a
  fault needs more trigger addresses ("the fault trigger used ... is
  implemented by using the processor breakpoint registers, which are only
  two in the PowerPC").  :meth:`DebugUnit.set_iabr` enforces the same
  limit and raises :class:`DebugResourceError` beyond it.  Data-address
  breakpoints (DABRs) are similarly capped.

* **Trap insertion.**  The "traditional SWIFI approach of inserting trap
  instructions", which the paper calls *very intrusive* because it rewrites
  the program in memory.  :meth:`DebugUnit.insert_trap` overwrites the
  target word with a ``trap`` instruction and arranges for the handler to
  run and the original word to execute when the trap is fetched.  There is
  no count limit, but the unit tracks intrusiveness so experiments can
  report it.

Handlers receive ``(core, address, word)`` and may return a substitute
word (data-bus corruption of the fetch) or ``None`` to execute whatever is
now in memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .cpu import Core
    from .machine import Machine

FetchHandler = Callable[["Core", int, int], Optional[int]]
DataHandler = Callable[["Core", int, int], int]

NUM_IABR = 2
NUM_DABR = 2


class DebugResourceError(RuntimeError):
    """Raised when a fault definition needs more hardware breakpoints than exist."""


class DebugUnit:
    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._iabr: dict[int, FetchHandler] = {}
        self._dabr: dict[int, DataHandler] = {}
        self._software_breakpoints: dict[int, tuple[int, FetchHandler]] = {}
        self.intrusive = False  # True once trap insertion has modified the program
        # Bumped on every arm/disarm; the trace engine keys its compiled-
        # block cache on it (watched PCs are block boundaries).
        self.generation = 0

    # -- hardware breakpoints ------------------------------------------------

    def set_iabr(self, address: int, handler: FetchHandler) -> None:
        """Arm an instruction-address breakpoint (at most ``NUM_IABR``)."""
        if address not in self._iabr and len(self._iabr) >= NUM_IABR:
            raise DebugResourceError(
                f"all {NUM_IABR} instruction-address breakpoint registers are in use"
            )
        self._iabr[address] = handler
        self.machine._fetch_watch[address] = handler
        self.generation += 1

    def clear_iabr(self, address: int) -> None:
        self._iabr.pop(address, None)
        if address not in self._software_breakpoints:
            self.machine._fetch_watch.pop(address, None)
        self.generation += 1

    def set_dabr(
        self,
        address: int,
        handler: DataHandler,
        *,
        on_load: bool = True,
        on_store: bool = False,
    ) -> None:
        """Arm a data-address breakpoint (at most ``NUM_DABR`` addresses)."""
        if address not in self._dabr and len(self._dabr) >= NUM_DABR:
            raise DebugResourceError(
                f"all {NUM_DABR} data-address breakpoint registers are in use"
            )
        self._dabr[address] = handler
        if on_load:
            self.machine._load_watch[address] = handler
        if on_store:
            self.machine._store_watch[address] = handler
        self.generation += 1

    def clear_dabr(self, address: int) -> None:
        self._dabr.pop(address, None)
        self.machine._load_watch.pop(address, None)
        self.machine._store_watch.pop(address, None)
        self.generation += 1

    @property
    def iabr_in_use(self) -> int:
        return len(self._iabr)

    @property
    def dabr_in_use(self) -> int:
        return len(self._dabr)

    # -- trap insertion (intrusive) -------------------------------------------

    def insert_trap(self, address: int, handler: FetchHandler) -> None:
        """Replace the word at *address* with a trap; run *handler* on fetch.

        The original word executes after the handler unless the handler
        returns a substitute.  Unlimited in number but marks the session
        intrusive — the program image is modified, which the paper flags
        as the main drawback of this technique.
        """
        from ..isa import ins  # local import to avoid a cycle at module load

        machine = self.machine
        if address in self._software_breakpoints:
            raise DebugResourceError(f"trap already inserted at {address:#010x}")
        original = machine.memory.debug_read_word(address)
        trap_word = ins.trap(len(self._software_breakpoints) & 0xFFFF).encode()
        machine.debug_write_code(address, trap_word)
        self._software_breakpoints[address] = (original, handler)
        self.intrusive = True

        def on_fetch(core: "Core", pc: int, word: int) -> int | None:
            saved, user_handler = self._software_breakpoints[pc]
            substitute = user_handler(core, pc, saved)
            return saved if substitute is None else substitute

        machine._fetch_watch[address] = on_fetch
        self.generation += 1

    def remove_trap(self, address: int) -> None:
        entry = self._software_breakpoints.pop(address, None)
        if entry is None:
            return
        original, _ = entry
        self.machine.debug_write_code(address, original)
        self.machine._fetch_watch.pop(address, None)
        if address in self._iabr:  # pragma: no cover - defensive
            self.machine._fetch_watch[address] = self._iabr[address]
        self.generation += 1

    # -- lifecycle -------------------------------------------------------------

    def clear(self) -> None:
        """Disarm everything and restore any trap-patched words."""
        for address in list(self._software_breakpoints):
            self.remove_trap(address)
        self._iabr.clear()
        self._dabr.clear()
        self.machine._fetch_watch.clear()
        self.machine._load_watch.clear()
        self.machine._store_watch.clear()
        self.generation += 1
