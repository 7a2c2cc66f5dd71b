"""Length-preserving black-box functions on n-bit words.

A word of width n is stored as its integer encoding; the first bit of the
word is the most significant bit of the integer, so the word "110" encodes
as 6.  An oracle is a total table mapping every one of the 2**n words to a
word of the same width.  Oracles are immutable; mutation returns a fresh
table.  `iterate` and `orbit` read one walk, cut at the first repeated word.
A set of words, such as `diff_set`'s, is a read-only bool mask over the 2**n words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError, LengthMismatchError, WidthMismatchError
from .rng import as_generator


@dataclass(frozen=True, order=True)
class BitWord:
    """A fixed-width bit string, canonically encoded as an integer."""

    width: int
    value: int

    def __post_init__(self):
        if self.width < 1:
            raise WidthMismatchError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise WidthMismatchError(
                f"value {self.value} out of range for width {self.width}")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitWord":
        bits = list(bits)
        value = 0
        for b in bits:
            value = (value << 1) | (b & 1)
        return cls(len(bits), value)

    @classmethod
    def from_string(cls, s: str) -> "BitWord":
        if not s or any(c not in "01" for c in s):
            raise WidthMismatchError(f"not a bit string: {s!r}")
        return cls(len(s), int(s, 2))

    @classmethod
    def zero(cls, width: int) -> "BitWord":
        return cls(width, 0)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.width - 1 - i)) & 1 for i in range(self.width))

    def __xor__(self, other: "BitWord") -> "BitWord":
        if self.width != other.width:
            raise WidthMismatchError("xor of words with different widths")
        return BitWord(self.width, self.value ^ other.value)

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b")


@dataclass(frozen=True)
class OracleTable:
    """A total length-preserving function on words of one width.  The
    constructor copies `values`, so the caller's array is left as it was."""

    width: int
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.int64)
        if v.shape != (1 << self.width,):
            raise LengthMismatchError(
                f"table must have {1 << self.width} entries, got {v.shape}")
        if np.bitwise_or.reduce(v) >> self.width:  # a bit at width or above: < 0 or too big
            raise WidthMismatchError("table entry out of range for width")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __call__(self, x: BitWord) -> BitWord:
        if x.width != self.width:
            raise WidthMismatchError(f"word width {x.width} != oracle width {self.width}")
        return BitWord(self.width, int(self.values[x.value]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, OracleTable)
                and self.width == other.width
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.width, self.values.tobytes()))


def make_oracle(n: int, entries: list[BitWord]) -> OracleTable:
    """Build a table from an explicit list of 2**n output words."""
    if len(entries) != 1 << n:
        raise LengthMismatchError(f"need {1 << n} entries for width {n}, got {len(entries)}")
    for e in entries:
        if e.width != n:
            raise WidthMismatchError(f"entry width {e.width} != {n}")
    return OracleTable(n, np.array([e.value for e in entries], dtype=np.int64))


def sample_uniform_oracle(n: int, seed) -> OracleTable:
    """Draw each of the 2**n table entries independently and uniformly."""
    rng = as_generator(seed)
    return OracleTable(n, rng.integers(0, 1 << n, size=1 << n, dtype=np.int64))


def _walk(f: OracleTable, x: BitWord, length: int) -> tuple[list[int], int | None]:
    """The values x, f(x), ..., at most `length` of them and none twice, and,
    when a repeat ended the walk, the step of its first visit: a cycle from there."""
    if x.width != f.width:
        raise WidthMismatchError(f"word width {x.width} != oracle width {f.width}")
    walk, first, v = [], {}, x.value  # first: the step of each word walked
    while len(walk) < length and v not in first:
        first[v] = len(walk)
        walk.append(v)
        v = int(f.values[v])
    return walk, first.get(v)


def iterate(f: OracleTable, x: BitWord, k: int) -> BitWord:
    """k-fold application f(f(...f(x))); k = 0 returns x unchanged.

    The walk enters a cycle within 2**n steps, so it stops at the first
    word it has seen before and reads f^k(x) off the cycle: O(min(k, 2**n))
    steps for any k."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    walk, start = _walk(f, x, k + 1)
    if k >= len(walk):  # the cycle has len(walk) - start words
        k = start + (k - start) % (len(walk) - start)
    return BitWord(f.width, walk[k])


def orbit(f: OracleTable, x: BitWord, length: int) -> list[BitWord]:
    """The chain x, f(x), ..., f^(length-1)(x) as a list; like `iterate`, it walks
    to the first repeated word, then repeats the cycle's `BitWord` objects."""
    walk, start = _walk(f, x, length)
    out = [BitWord(f.width, v) for v in walk]
    if len(out) < length:
        out.extend(itertools.islice(itertools.cycle(out[start:]), length - len(out)))
    return out


def mutate(f: OracleTable, x: BitWord, y: BitWord) -> OracleTable:
    """Fresh table equal to f except that x now maps to y."""
    if x.width != f.width or y.width != f.width:
        raise WidthMismatchError("mutation words must match oracle width")
    values = f.values.copy()
    values[x.value] = y.value
    return OracleTable(f.width, values)


def diff_set(f: OracleTable, g: OracleTable) -> np.ndarray:
    """Exactly the words on which the two tables disagree, as a read-only bool mask."""
    if f.width != g.width:
        raise WidthMismatchError("oracles have different widths")
    mask = f.values != g.values
    mask.flags.writeable = False
    return mask


def all_oracles(n: int) -> Iterator[OracleTable]:
    """Every table of width n, in lexicographic table order (2**(n*2**n) of them)."""
    for values in itertools.product(range(1 << n), repeat=1 << n):
        yield OracleTable(n, values)


def oracle_to_text(f: OracleTable) -> str:
    """Text form: "n=<width>" then one "<x> <f(x)>" line per word, ascending x."""
    w = f"0{f.width}b"
    return f"n={f.width}\n" + "".join(f"{x:{w}} {int(y):{w}}\n" for x, y in enumerate(f.values))


def oracle_from_text(text: str) -> OracleTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0][2:].strip() if lines and lines[0].startswith("n=") else ""
    if not header.isdigit() or int(header) < 1:
        raise InputError("oracle file must start with 'n=<width>', width >= 1")
    n = int(header)
    if len(lines) != 1 + (1 << n):
        raise LengthMismatchError(f"expected {1 << n} table lines, got {len(lines) - 1}")
    values = np.zeros(1 << n, dtype=np.int64)
    for i, ln in enumerate(lines[1:]):
        words = ln.split()
        if len(words) != 2 or any(len(s) != n or s.strip("01") for s in words):
            raise InputError(f"line {i + 2}: expected two width-{n} bit words, got {ln!r}")
        if int(words[0], 2) != i:
            raise InputError(f"line {i + 2}: rows must be in ascending x order")
        values[i] = int(words[1], 2)
    return OracleTable(n, values)


def save_oracle(f: OracleTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(oracle_to_text(f))


def load_oracle(path) -> OracleTable:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: oracle file is not UTF-8 text: {e}") from None
    return oracle_from_text(text)
