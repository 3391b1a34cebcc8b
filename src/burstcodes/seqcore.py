"""Sequences, syndromes, derivative mappings, burst channels and deletion balls.

Sequences are plain tuples of small non-negative integers.  Binary sequences
are tuples of 0/1.  All positions in public APIs are 1-based.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, count
from operator import lt, mul, ne, xor
from struct import Struct
from typing import Iterable, Optional, Sequence as Seq

MAX_Q = 1 << 16
BALL_MAX_N = 32


class NotDecodableError(Exception):
    """Raised when a decoder cannot identify a unique consistent codeword."""


@dataclass(frozen=True)
class Burst:
    """A burst of consecutive deletions: 1-based start, length >= 1."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 1 or self.length < 1:
            raise ValueError("burst start and length must be >= 1")


@dataclass(frozen=True)
class Interval:
    """1-based inclusive interval of positions."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.lo <= self.hi):
            raise ValueError("require 1 <= lo <= hi")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def check_symbols(u: Seq[int], q: int) -> None:
    if not (2 <= q <= MAX_Q):
        raise ValueError(f"alphabet size q must be in [2, {MAX_Q}]")
    for s in u:
        if not (0 <= s < q):
            raise ValueError(f"symbol {s} out of range for q={q}")


def check_binary(x: Seq[int]) -> None:
    if x.count(0) + x.count(1) != len(x):
        raise ValueError("sequence is not binary")


def apply_burst(u: tuple, b: Burst) -> tuple:
    """Delete symbols at positions [b.start, b.start+b.length-1] (1-based)."""
    if b.start + b.length - 1 > len(u):
        raise ValueError("burst exceeds sequence")
    return u[: b.start - 1] + u[b.start - 1 + b.length :]


def bursts(n: int, t: int, upto: bool = False) -> Iterable[Burst]:
    """All bursts of length t (or of every length in [1, t] when upto)."""
    lengths = range(1, t + 1) if upto else (t,)
    for length in lengths:
        for start in range(1, n - length + 2):
            yield Burst(start, length)


def _common_ends(a: Seq, b: Seq) -> tuple:
    """Lengths of the longest common prefix and suffix of a and b."""
    m = min(len(a), len(b))
    return (
        next(compress(count(), map(ne, a, b)), m),
        next(compress(count(), map(ne, reversed(a), reversed(b))), m),
    )


def burst_starts(x: tuple, xp: tuple, t: int) -> range:
    """Every 1-based start of a burst of d = |x| - |xp| deletions,
    1 <= d <= t, that turns x into xp; empty when d is out of range.

    A burst at s does so iff x and xp agree on their first s - 1 symbols
    and on their last |xp| - s + 1."""
    if not 1 <= len(x) - len(xp) <= t:
        return range(0)
    head, tail = _common_ends(x, xp)
    return range(len(xp) - tail + 1, head + 2)


def deletion_ball(u: tuple, t: int, upto: bool = False) -> set:
    """Exact D_t(u) (or D_{<=t}(u) when upto), as a set of tuples."""
    n = len(u)
    if n > BALL_MAX_N:
        raise ValueError(f"deletion_ball refuses n > {BALL_MAX_N}")
    if not (1 <= t <= n):
        raise ValueError("require 1 <= t <= |u|")
    lengths = range(1, t + 1) if upto else (t,)
    return {u[:s] + u[s + d :] for d in lengths for s in range(n - d + 1)}


def burst_ball_size(u: tuple, t: int) -> int:
    """|D_t(u)| via the run-count formula over the t x (n/t) array.

    Row j of the array is (u_j, u_{j+t}, u_{j+2t}, ...); the ball size is
    (sum of run counts over rows) - t + 1.
    """
    n = len(u)
    if t < 1 or n % t != 0:
        raise ValueError("formula requires t >= 1 and t | n")
    total = 0
    for j in range(t):
        row = u[j::t]
        runs = 1 + sum(1 for a, b in zip(row, row[1:]) if a != b)
        total += runs
    return total - t + 1


def vt_syndrome(w: Seq[int]) -> int:
    """VT(w) = sum of i * w_i with 1-based i; exact integer, no modulus."""
    return sum(map(mul, w, range(1, len(w) + 1)))


def run_syndrome(x: tuple) -> tuple:
    """Return (r, VTr): 0-based run indices of x and their sum."""
    check_binary(x)
    r = tuple(accumulate(map(ne, x, x[1:]), initial=0))[: len(x)]
    return r, sum(r)


def psi(x: tuple) -> tuple:
    """Derivative map: psi(x)_i = x_i xor x_{i+1} for i < n, psi(x)_n = x_n."""
    check_binary(x)
    return (*map(xor, x, x[1:]), *x[-1:])


def psi_inv(y: tuple) -> tuple:
    """Inverse of psi: suffix-xor from the right."""
    check_binary(y)
    return tuple(accumulate(reversed(y), xor))[::-1]


def phi(u: tuple) -> tuple:
    """Ascent indicator: first bit 1, bit i = 1 iff u_i > u_{i-1}."""
    if not u:
        raise ValueError("phi requires a nonempty sequence")
    return (1, *bytes(map(lt, u, u[1:])))


def longest_period2(x: tuple) -> int:
    """Length of the longest substring s of x with s_i = s_{i+2} throughout.

    Substrings of length <= 2 vacuously have period 2, so the result is
    min(|x|, 2) at least (and |x| itself for |x| <= 2).
    """
    return min(len(x), 2 + max(map(len, _period2_diffs(x).split(b"\1"))))


def _period2_diffs(x: Seq[int]) -> bytes:
    """Byte j is 1 iff x_{j+1} != x_{j+3} (1-based): x has a period-2
    window of length L from position i iff L - 2 zeros start at byte i - 1."""
    return bytes(map(ne, x, x[2:]))


def matrix_rows(q: int) -> int:
    """Number of rows of the bit matrix of a q-ary word: ceil(log2 q) >= 1."""
    return max(1, (q - 1).bit_length())


# The bit matrix as byte planes: a word packs into big-endian lanes of
# ceil(rows / 8) bytes, one per symbol, so that plane p (byte p of every lane
# from the low end) holds rows 8p .. 8p + 7, and row r reads bit r & 7 of its
# plane through a 256-entry table, as a 0/1 byte or as a b"01" digit.
_ROW_VALUES = [bytes(s >> (r & 7) & 1 for s in range(256)) for r in range(matrix_rows(MAX_Q))]
_ROW_DIGITS = [row.translate(bytes.maketrans(b"\0\1", b"01")) for row in _ROW_VALUES]


@lru_cache(maxsize=1 << 10)
def _lanes(n: int, q: int) -> tuple:
    """The lane width of a q-ary word's matrix, the struct of n lanes, and
    the slice of each row's plane in them; a code meets a few (n, q)."""
    nrows = matrix_rows(q)
    width = (nrows + 7) >> 3
    reads = [slice(width - 1 - (r >> 3), None, width) for r in range(nrows)]
    return width, Struct(f">{n}{' BH'[width]}"), reads


def _planes(u: Seq[int], q: int, tables: list) -> Iterable[bytes]:
    """Row r of u's bit matrix, one byte per symbol: tables[r] of its plane."""
    check_symbols(u, q)
    _, lanes, reads = _lanes(len(u), q)
    return map(bytes.translate, map(lanes.pack(*u).__getitem__, reads), tables)


def _join_planes(rows: Seq, n: int) -> tuple:
    """The n-symbol word whose bit-matrix row r is rows[r], n bits: each row
    fills the low byte of every lane, and the lanes add up as one int."""
    width, lanes, _ = _lanes(n, 1 << len(rows))
    buf, total = bytearray(n * width), 0
    for r, row in enumerate(rows):
        buf[width - 1 :: width] = row
        total += int.from_bytes(buf, "big") << r
    return lanes.unpack(total.to_bytes(n * width, "big"))


def to_matrix(u: tuple, q: int) -> tuple:
    """Rows of the bit matrix A(u): row 1 is the LSB of every symbol."""
    return tuple(map(tuple, _planes(u, q, _ROW_VALUES)))


def from_matrix(rows: Seq[tuple], q: int) -> tuple:
    """Inverse of to_matrix on rows of bits; errors if a column decodes to
    a value >= q."""
    if not rows:
        raise ValueError("empty matrix")
    if len(rows) > len(_ROW_VALUES):
        raise ValueError(f"more than {len(_ROW_VALUES)} rows")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    u = _join_planes(rows, n)
    if u and max(u) >= q:
        j, val = next((j, val) for j, val in enumerate(u) if val >= q)
        raise ValueError(f"column {j + 1} decodes to {val} >= q={q}")
    return u


def _reassemble(rows: list, q: int, up: tuple, t: int) -> tuple:
    """A decoder's last step: the word of its rows, refused unless a burst
    of at most t deletions turns it into the received word up."""
    try:
        u = from_matrix(rows, q)
    except ValueError as exc:  # a column decodes to a symbol >= q
        raise NotDecodableError(str(exc)) from None
    if not burst_starts(u, up, t):
        raise NotDecodableError("reassembled word is not burst-consistent")
    return u


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")
_BIT_DIGITS = b"01" + b"x" * 254


def _int_to_bits(value: int, width: int) -> tuple:
    """The low `width` bits of value, most significant first."""
    # a 1 above the width keeps the leading zeros in the binary text
    text = format(value & ((1 << width) - 1) | 1 << width, "b")
    return tuple(text[1:].encode().translate(_BIT_VALUES))


def _bits_to_int(bits) -> int:
    # any byte but 0 and 1 becomes a digit that int() refuses
    return int(bytes(bits).translate(_BIT_DIGITS) or b"0", 2)


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 1).bit_length()


def parse_sequence(text: str, q: Optional[int] = None) -> tuple:
    """Parse comma-separated decimals; plain 0/1 strings are accepted as
    binary shorthand.  Symbols are validated against q when given."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        u = tuple(int(part) for part in text.rstrip(",").split(","))
    elif set(text) <= {"0", "1"}:
        u = tuple(int(ch) for ch in text)
    else:
        u = (int(text),)
    if q is not None:
        check_symbols(u, q)
    return u


def format_sequence(u: Seq[int]) -> str:
    """Inverse of parse_sequence: 0/1 shorthand when possible, else commas."""
    if all(s in (0, 1) for s in u):
        return "".join(str(s) for s in u)
    out = ",".join(str(s) for s in u)
    # a lone multi-digit symbol would otherwise read back as binary shorthand
    if "," not in out:
        out += ","
    return out
