"""Sparse word-addressed data memory for the functional VM.

Words hold either signed 32-bit integers or Python floats (the VM does not
reinterpret float bit patterns, so storing floats natively is both simpler
and faster).  Byte accesses are supported on integer-valued words only.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.errors import VmError
from repro.utils import sign_extend, to_signed32

Word = Union[int, float]


class SparseMemory:
    """A dictionary-backed flat memory, zero-initialised."""

    __slots__ = ("_words",)

    def __init__(self) -> None:
        self._words: Dict[int, Word] = {}

    def load_word(self, addr: int) -> Word:
        """Read the aligned word containing *addr*."""
        if addr < 0:
            raise VmError(f"negative address {addr:#x}")
        if addr & 3:
            raise VmError(f"unaligned word load at {addr:#x}")
        return self._words.get(addr, 0)

    def store_word(self, addr: int, value: Word) -> None:
        """Write a word; integers are wrapped to signed 32-bit."""
        if addr < 0:
            raise VmError(f"negative address {addr:#x}")
        if addr & 3:
            raise VmError(f"unaligned word store at {addr:#x}")
        if isinstance(value, float):
            self._words[addr] = value
        else:
            self._words[addr] = to_signed32(value)

    def load_byte(self, addr: int) -> int:
        """Read one byte, sign-extended to an int."""
        word = self._words.get(addr & ~3, 0)
        if isinstance(word, float):
            raise VmError(f"byte load from float-valued word at {addr:#x}")
        shift = (addr & 3) * 8
        return sign_extend((word >> shift) & 0xFF, 8)

    def store_byte(self, addr: int, value: int) -> None:
        """Write one byte into its containing word."""
        base = addr & ~3
        word = self._words.get(base, 0)
        if isinstance(word, float):
            raise VmError(f"byte store into float-valued word at {addr:#x}")
        shift = (addr & 3) * 8
        mask = 0xFF << shift
        raw = (word & 0xFFFFFFFF) & ~mask | ((value & 0xFF) << shift)
        self._words[base] = to_signed32(raw)

    def words(self) -> Dict[int, Word]:
        """A copy of every word ever written, by address."""
        return dict(self._words)

    def footprint_words(self) -> int:
        """Number of distinct words ever written."""
        return len(self._words)

    def clear(self) -> None:
        """Reset every word to zero."""
        self._words.clear()
