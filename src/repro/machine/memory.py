"""Segmented flat memory for the RX32 machine.

The address space is one flat byte array carved into segments (code, data,
heap, one stack per core), backed by a private anonymous mapping whose
pages materialize on first write.  Program-initiated accesses are checked
against segment bounds and permissions — an access outside any segment, a
store to read-only code, or a misaligned word access raises a trap, which
is how the "Program crash" failure mode of the paper arises from corrupted
pointers.

The *debug port* (:meth:`Memory.debug_read` / :meth:`Memory.debug_write`)
bypasses protection.  It models the processor debug facilities Xception
uses: the loader and the fault injector write through it, including into
the read-only code segment.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Iterator

from .traps import AlignmentTrap, MemoryTrap

#: Granularity of snapshot/restore (see :mod:`repro.machine.snapshot`).
#: 64 KiB keeps the page count of the 5.25 MiB address space small enough
#: that a restore is a handful of slice compares, while one dirtied byte
#: never drags more than 64 KiB of copying with it.
PAGE_SIZE = 1 << 16

#: Content of a never-written page.
ZERO_PAGE = bytes(PAGE_SIZE)


@dataclass(frozen=True)
class Segment:
    name: str
    start: int
    size: int
    writable: bool

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, address: int, size: int = 1) -> bool:
        return self.start <= address and address + size <= self.end


class Memory:
    """Byte-addressable memory with segment protection.

    Words are big-endian (matching the PowerPC ancestry of the ISA).

    State lives only in pages something wrote: the debug port and
    snapshot restores, which the memory records, and program stores,
    which reach writable segments only (anywhere else they trap).
    :meth:`nonzero_pages` reads just those pages.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        # A private anonymous mapping reads as zeros and materializes a
        # page only on its first write, so a boot pays for the code,
        # data and stack pages it writes, not for the whole address
        # space.  MAP_PRIVATE (not the default MAP_SHARED) keeps a
        # forked pool worker's writes out of the parent's machines.
        self.data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self.segments: list[Segment] = []
        # Segment-layout version; consumers caching derived views of the
        # segment list (Machine.access_ranges, the trace engine) key on it.
        self._ranges_gen = 0
        # Pages touched through the debug port since the last snapshot
        # baseline.  Debug writes may land outside any segment (e.g. a
        # MemoryWord corruption aimed at a gap), so segment-derived page
        # sets alone cannot tell a restore which pages to reset.
        self._debug_dirty_pages: set[int] = set()
        # Every page written other than by a program store (the debug
        # port and snapshot restores), for the mapping's lifetime; see
        # nonzero_pages.
        self._port_pages: set[int] = set()

    # -- segment management -------------------------------------------------

    def add_segment(self, name: str, start: int, size: int, *, writable: bool) -> Segment:
        if start < 0 or start + size > self.size:
            raise ValueError(f"segment {name!r} outside physical memory")
        if start % 4 or size % 4:
            # An aligned word then never straddles a segment boundary,
            # which the CPU fast paths' one range test relies on.
            raise ValueError(f"segment {name!r} must start and end on a word boundary")
        for existing in self.segments:
            if start < existing.end and existing.start < start + size:
                raise ValueError(f"segment {name!r} overlaps {existing.name!r}")
        segment = Segment(name, start, size, writable)
        self.segments.append(segment)
        self._ranges_gen += 1
        return segment

    def segment_for(self, address: int, size: int = 1) -> Segment | None:
        for segment in self.segments:
            if segment.contains(address, size):
                return segment
        return None

    def _check(self, address: int, size: int, write: bool, pc: int | None) -> None:
        segment = self.segment_for(address, size)
        if segment is None:
            raise MemoryTrap(
                f"access to unmapped address {address:#010x}", address=address, pc=pc
            )
        if write and not segment.writable:
            raise MemoryTrap(
                f"write to read-only segment {segment.name!r} at {address:#010x}",
                address=address,
                pc=pc,
            )

    # -- program-initiated accesses (checked) --------------------------------

    def read_word(self, address: int, pc: int | None = None) -> int:
        if address & 3:
            raise AlignmentTrap(
                f"misaligned word read at {address:#010x}", address=address, pc=pc
            )
        self._check(address, 4, False, pc)
        data = self.data
        return (data[address] << 24) | (data[address + 1] << 16) | (data[address + 2] << 8) | data[address + 3]

    def write_word(self, address: int, value: int, pc: int | None = None) -> None:
        if address & 3:
            raise AlignmentTrap(
                f"misaligned word write at {address:#010x}", address=address, pc=pc
            )
        self._check(address, 4, True, pc)
        value &= 0xFFFFFFFF
        data = self.data
        data[address] = value >> 24
        data[address + 1] = (value >> 16) & 0xFF
        data[address + 2] = (value >> 8) & 0xFF
        data[address + 3] = value & 0xFF

    def read_byte(self, address: int, pc: int | None = None) -> int:
        self._check(address, 1, False, pc)
        return self.data[address]

    def write_byte(self, address: int, value: int, pc: int | None = None) -> None:
        self._check(address, 1, True, pc)
        self.data[address] = value & 0xFF

    # -- debug port (unchecked; models Xception's use of debug facilities) --

    def debug_read(self, address: int, size: int) -> bytes:
        if address < 0 or address + size > self.size:
            raise ValueError(f"debug read outside physical memory: {address:#x}+{size}")
        return self.data[address : address + size]

    def debug_write(self, address: int, payload: bytes) -> None:
        if address < 0 or address + len(payload) > self.size:
            raise ValueError(f"debug write outside physical memory: {address:#x}")
        if payload:
            pages = range(address // PAGE_SIZE, (address + len(payload) - 1) // PAGE_SIZE + 1)
            self._debug_dirty_pages.update(pages)
            self._port_pages.update(pages)
        self.data[address : address + len(payload)] = payload

    def debug_read_word(self, address: int) -> int:
        return int.from_bytes(self.debug_read(address, 4), "big")

    def debug_write_word(self, address: int, value: int) -> None:
        self.debug_write(address, (value & 0xFFFFFFFF).to_bytes(4, "big"))

    # -- snapshot support (page granularity) ---------------------------------

    def segment_pages(self, writable: bool = False) -> list[int]:
        """Page numbers overlapping any segment (any writable one), ascending."""
        pages: set[int] = set()
        for segment in self.segments:
            if segment.size and (segment.writable or not writable):
                pages.update(
                    range(segment.start // PAGE_SIZE, (segment.end - 1) // PAGE_SIZE + 1)
                )
        return sorted(pages)

    def capture_pages(self, pages: list[int]) -> dict[int, bytes]:
        """Immutable copies of the given pages (page number → bytes)."""
        data = self.data
        out: dict[int, bytes] = {}
        for page in pages:
            start = page * PAGE_SIZE
            out[page] = data[start : start + PAGE_SIZE]
        return out

    def nonzero_pages(self, executed: bool = True) -> Iterator[tuple[int, bytes]]:
        """(page number, bytes) of every page holding a non-zero byte, ascending.

        The mapping reads as zeros until written, and only two kinds of
        page can have been written: one the debug port (the loader,
        ``install_code``, injector actions) or a snapshot restore wrote,
        which ``_port_pages`` records for the mapping's lifetime, and,
        once the machine has retired an instruction (*executed*), one of
        a writable segment, since a program store anywhere else traps.
        Only those pages are sliced: on a freshly booted machine the 2-3
        its loader wrote, where slicing all 80 would fault in every
        never-written one.  ``executed=False`` is for a machine that has
        retired no instruction; the default holds for any machine.
        """
        pages = self._port_pages
        if executed:
            pages = pages.union(self.segment_pages(writable=True))
        data = self.data
        for page in sorted(pages):
            start = page * PAGE_SIZE
            chunk = data[start : start + PAGE_SIZE]
            if chunk != ZERO_PAGE[: len(chunk)]:  # a full-length slice is no copy
                yield page, chunk

    def restore_pages(self, pages: dict[int, bytes]) -> int:
        """Write back captured pages, skipping those already identical.

        The compare-before-copy is what makes restore copy-on-write in
        practice: a run that dirtied two pages costs two page copies, not
        a full image copy.  Returns the number of pages rewritten.  Every
        given page joins the port-written pages :meth:`nonzero_pages`
        reads, rewritten or not: the restore sets its content either way.
        """
        # NB: slice the mapping rather than a memoryview — memoryview's
        # rich-compare walks element-by-element (~25x slower than the
        # memcmp path a bytes/bytearray compare takes).
        data = self.data
        self._port_pages.update(pages)
        rewritten = 0
        for page, image in pages.items():
            start = page * PAGE_SIZE
            if data[start : start + PAGE_SIZE] != image:
                data[start : start + PAGE_SIZE] = image
                rewritten += 1
        return rewritten

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Checked read of a NUL-terminated string (for syscalls/tests).

        Every byte goes through the segment check: a corrupted pointer —
        negative, unmapped, or running off the end of a segment before
        the NUL — raises :class:`MemoryTrap` like any other bad program
        access, instead of wrapping around or crashing the tool.
        """
        out = bytearray()
        for offset in range(limit):
            byte = self.read_byte(address + offset)
            if byte == 0:
                break
            out.append(byte)
        return bytes(out)
