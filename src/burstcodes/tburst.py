"""Dense-pattern machinery for bursts of up to t deletions: indicator/gap
vectors, localization syndromes, pattern-free compression, dense encoding,
brute-force syndrome oracles, and the block-parity t-burst code.

Per-block protection does not rely on external systematic codes; a
brute-force syndrome oracle provides the same contract: any two blocks
confusable under the declared error model receive distinct labels.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product
from math import ceil, log, log1p
from operator import or_
from typing import Callable, Optional

from .seqcore import (
    Interval,
    NotDecodableError,
    _bits_to_int,
    _int_to_bits,
    burst_starts,
    ceil_log2,
    check_binary,
    check_symbols,
    from_matrix,
    matrix_rows,
    to_matrix,
    vt_syndrome,
)


def default_delta(n: int, t: int, perm: bool = False) -> int:
    """Window length delta: t * 2^(2t+1) * ceil(log n), one power of two more
    for the permutation variant."""
    return t * (1 << (2 * t + (2 if perm else 1))) * ceil_log2(n)


@dataclass(frozen=True)
class DensityParams:
    n: int
    t: int
    delta: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t must be at least 1")
        if self.delta < 2 * self.t:
            raise ValueError("delta must be at least |w| = 2t")

    @property
    def w(self) -> tuple:
        return (0,) * self.t + (1,) * self.t

    @property
    def out_len(self) -> int:
        return self.delta - ceil_log2(self.n) - 4 * self.t - 2


def indicator_alpha(x: tuple, dp: DensityParams) -> tuple:
    """Occurrence indicator of w in x and the gap vector of (1, 1_w, 1)."""
    t, w = dp.t, dp.w
    if len(x) < 2 * t:
        raise ValueError("sequence shorter than the pattern")
    ind = tuple(
        1 if x[i : i + 2 * t] == w else 0 for i in range(len(x) - 2 * t + 1)
    )
    padded = (1,) + ind + (1,)
    ones = [i for i, b in enumerate(padded) if b]
    alpha = tuple(b - a for a, b in zip(ones, ones[1:]))
    return ind, alpha


def is_dense(x: tuple, dp: DensityParams) -> bool:
    _, alpha = indicator_alpha(x, dp)
    return max(alpha) <= dp.delta


def loc_residues(x: tuple, dp: DensityParams) -> Optional[tuple]:
    """Localization residues (pattern count mod 4, VT of the gap vector
    mod 2n) of a dense x; None when x is not dense."""
    ind, alpha = indicator_alpha(x, dp)
    if max(alpha) > dp.delta:
        return None
    return sum(ind) % 4, vt_syndrome(alpha) % (2 * dp.n)


def loc_member(x: tuple, c0: int, c1: int, dp: DensityParams) -> bool:
    """Membership in the localization code: dense with residues (c0, c1)."""
    return len(x) == dp.n and loc_residues(x, dp) == (c0, c1)


def locate_burst(
    xp: tuple,
    c0: int,
    c1: int,
    dp: DensityParams,
    extra_check: Optional[Callable[[tuple], bool]] = None,
) -> Interval:
    """Interval covering every burst position consistent with the syndromes.

    A start s is consistent when reinserting some tprime bits at s gives a
    member of the localization code (that also passes extra_check); the code
    design keeps all consistent starts within a window of length delta.

    The pattern occurrences of xp are found once.  A reinsertion at s keeps
    the windows of xp that end before s - 1 and shifts those from s on by
    tprime, so only the windows across the inserted bits are recomputed;
    the residues and the largest gap then come from prefix sums and from
    prefix and suffix maxima of the gaps of xp.
    """
    check_binary(xp)
    n, t = dp.n, dp.t
    tprime = n - len(xp)
    if tprime == 0:
        if not loc_member(xp, c0, c1, dp):
            raise NotDecodableError("input is not a codeword")
        return Interval(1, 1)
    if not 1 <= tprime <= t:
        raise ValueError("burst longer than t")
    if n < 2 * t:
        raise ValueError("sequence shorter than the pattern")
    wb, span = bytes(dp.w), 2 * t
    xb = bytes(xp)
    end = n - span + 2  # position of the closing 1 of the padded indicator
    # padded positions (window start + 1) of the occurrences of w in xp, their
    # prefix sums, and the largest gap of each prefix (from 0) and of each
    # suffix (to the closing 1 of xp, end - tprime)
    occ = [i + 1 for i in range(len(xb) - span + 1) if xb.startswith(wb, i)]
    pre, head, prev = [0], [0], 0
    for o in occ:
        pre.append(pre[-1] + o)
        head.append(max(head[-1], o - prev))
        prev = o
    tail, nxt = [0] * (len(occ) + 1), end - tprime
    for j in range(len(occ) - 1, -1, -1):
        tail[j] = max(tail[j + 1], nxt - occ[j])
        nxt = occ[j]
    total = len(occ)
    fills = [(bits, bytes(bits)) for bits in product((0, 1), repeat=tprime)]
    starts = []
    for s in range(1, len(xp) + 2):
        # seg is the inserted bits with up to 2t - 1 bits of xp either side:
        # its windows, from i0 (0-based start) on, are those that overlap the
        # inserted bits, and xp's occurrences a..b-1 the ones they replace
        i0 = max(0, s - span)
        a, b = bisect_right(occ, s - span), bisect_left(occ, s)
        left, right = xb[i0 : s - 1], xb[s - 1 : s + span - 2]
        kept = a + total - b
        kept_sum = pre[a] + pre[total] - pre[b] + tprime * (total - b)
        kept_gap = max(head[a], tail[b])
        before = occ[a - 1] if a else 0
        after = occ[b] + tprime if b < total else end
        for bits, fill in fills:
            seg = left + fill + right
            # w = 0^t 1^t cannot overlap itself, so count finds every one
            count = kept + seg.count(wb)
            if count % 4 != c0:
                continue
            new = [
                i0 + k + 1
                for k in range(len(seg) - span + 1)
                if seg.startswith(wb, k)
            ]
            # VT of the gap vector: (count + 1) * end - sum of the positions
            if ((count + 1) * end - kept_sum - sum(new)) % (2 * n) != c1:
                continue
            gap, prev = kept_gap, before
            for o in new:
                gap = max(gap, o - prev)
                prev = o
            if max(gap, after - prev) > dp.delta:
                continue
            if extra_check is None or extra_check(xp[: s - 1] + bits + xp[s - 1 :]):
                starts.append(s)
                break
    if not starts:
        raise NotDecodableError("localization syndromes inconsistent")
    return Interval(starts[0], starts[-1] + tprime - 1)


# ---------------------------------------------------------------------------
# pattern-free compression (base 2^{2t}-1 re-encoding of 2t-bit chunks)


def _check_capacity(dp: DensityParams) -> None:
    t = dp.t
    if dp.delta % (2 * t) != 0:
        raise ValueError("delta must be a multiple of 2t for compression")
    if dp.out_len <= 0:
        raise ValueError("compressed length would be non-positive")
    chunks = dp.delta // (2 * t)
    if ((1 << (2 * t)) - 1) ** chunks > (1 << dp.out_len):
        raise ValueError(
            "parameters violate the compression capacity precondition"
        )


def capacity_delta(n: int, t: int) -> int:
    """The least multiple of 2t that is at least default_delta(n, t) and
    meets the compression capacity.  The paper's delta can fall short of
    it (n = 1024, t = 2: 640 against 860).

    delta = 2t * m meets it when (2^2t - 1)^m <= 2^(2tm - c), c = ceil(log n)
    + 4t + 2, that is from m >= c / -log2(1 - 2^-2t) on: the float estimate
    of that bound, less one, is where the exact check starts."""
    if t < 1:
        raise ValueError("t must be at least 1")
    step = 2 * t
    bound = (ceil_log2(n) + 4 * t + 2) * log(2) / -log1p(-(2.0**-step))
    m = max(default_delta(n, t) // step, ceil(bound) - 1)
    while True:
        try:
            _check_capacity(DensityParams(n, t, m * step))
            return m * step
        except ValueError:
            m += 1


def contains_pattern(s: tuple, w: tuple) -> bool:
    return any(s[i : i + len(w)] == w for i in range(len(s) - len(w) + 1))


def compress_g(s: tuple, dp: DensityParams) -> tuple:
    """Compress a pattern-free string of length delta to out_len bits by
    treating each 2t-bit chunk as a digit in base 2^{2t}-1 (w excluded)."""
    _check_capacity(dp)
    t = dp.t
    if len(s) != dp.delta:
        raise ValueError("compress_g expects length delta")
    if contains_pattern(s, dp.w):
        raise ValueError("input contains the pattern w")
    w_val = (1 << t) - 1  # value of the excluded chunk 0^t 1^t
    base = (1 << (2 * t)) - 1
    value = 0
    for i in range(0, dp.delta, 2 * t):
        chunk = _bits_to_int(s[i : i + 2 * t])
        digit = chunk if chunk < w_val else chunk - 1
        value = value * base + digit
    return _int_to_bits(value, dp.out_len)


def decompress_g(bits: tuple, dp: DensityParams) -> tuple:
    """Inverse of compress_g."""
    _check_capacity(dp)
    t = dp.t
    if len(bits) != dp.out_len:
        raise ValueError("decompress_g expects out_len bits")
    w_val = (1 << t) - 1
    base = (1 << (2 * t)) - 1
    value = _bits_to_int(bits)
    chunks = dp.delta // (2 * t)
    digits = []
    for _ in range(chunks):
        value, digit = divmod(value, base)
        digits.append(digit)
    if value:
        raise NotDecodableError("compressed value out of range")
    out = []
    for digit in reversed(digits):
        chunk = digit if digit < w_val else digit + 1
        out.extend(_int_to_bits(chunk, 2 * t))
    return tuple(out)


# ---------------------------------------------------------------------------
# dense encoding (cut pattern-free windows, log them in trailer records)


def _closing(e: int, t: int) -> tuple:
    """Closing half-pattern of a trailer record padded by e zeros: when 2t-e
    is odd the two halves are left unbalanced by one (deviation from the
    half/half split, which is fractional for odd e)."""
    a = (2 * t - e) // 2
    b = (2 * t - e) - a
    return (0,) * a + (1,) * b


def _record_tail(e: int, dp: DensityParams) -> tuple:
    return (1,) + dp.w + _closing(e, dp.t) + (0,)


def _pattern_free_start(E: list, nn: int, delta: int, w: tuple) -> Optional[int]:
    """The least i <= nn (1-based) such that no occurrence of w in E starts
    in [i, i + delta - |w|], or None.  Past an occurrence at p (or from 1)
    the first such i is p + 1, so only the gaps between occurrences count."""
    b, wb = bytes(E), bytes(w)
    span = delta - len(w)
    prev = 0  # 1-based start of the previous occurrence
    j = b.find(wb)
    while prev < nn:
        if j < 0 or j + 1 > prev + 1 + span:
            return prev + 1
        prev = j + 1
        j = b.find(wb, j + 1)
    return None


def dense_encode(x: tuple, dp: DensityParams) -> tuple:
    """Make every delta-window of x contain w = 0^t 1^t; output length n+4t.

    Repeatedly finds the leftmost pattern-free window of the working core,
    deletes it and appends a fixed-length record (position, compressed
    window, separator, closing pattern, 0); initialization appends w w."""
    check_binary(x)
    _check_capacity(dp)
    n, t, delta = dp.n, dp.t, dp.delta
    if len(x) != n:
        raise ValueError("dense_encode expects length n")
    clog = ceil_log2(n)
    E = list(x) + list(dp.w + dp.w)
    nn = n
    while True:
        i = _pattern_free_start(E, nn, delta, dp.w)
        if i is None:
            break
        # a window running e bits past the core is cut short and padded
        e = max(0, i + delta - nn - 1)
        assert e <= 2 * t - 1
        s = tuple(E[i - 1 : i - 1 + delta - e]) + (0,) * e
        del E[i - 1 : i - 1 + delta - e]
        E.extend(_int_to_bits(i, clog) + compress_g(s, dp) + _record_tail(e, dp))
        nn -= delta - e
    out = tuple(E)
    assert len(out) == n + 4 * t
    return out


def dense_decode(y: tuple, dp: DensityParams) -> tuple:
    """Invert dense_encode: walk trailer records keyed on the last bit
    (0 = record, 1 = the initialization marker w w).  The record tails are
    suffix-free, so at most one pad amount fits each record.  A walk ends in
    the word whose encoding is y; any other y is refused."""
    check_binary(y)
    _check_capacity(dp)
    n, t, delta = dp.n, dp.t, dp.delta
    if len(y) != n + 4 * t:
        raise ValueError("dense_decode expects length n+4t")
    clog = ceil_log2(n)
    # a record is delta - e bits long; one longer than the word is not in it
    tails = [(e, _record_tail(e, dp)) for e in range(2 * t) if delta - e <= len(y)]
    cur = y
    for _ in range(n + 1):
        if cur[-1] == 1:
            break
        e = next((e for e, tail in tails if cur[-len(tail) :] == tail), None)
        if e is None:
            break
        rec_len = delta - e
        rec = cur[-rec_len:]
        rest = cur[:-rec_len]
        i = _bits_to_int(rec[:clog])
        try:
            s = decompress_g(rec[clog : clog + dp.out_len], dp)
        except NotDecodableError:
            break
        cur = rest[: i - 1] + s[: delta - e] + rest[i - 1 :]
    # a walk can undo records the encoder would not have made
    x = cur[:n]
    if dense_encode(x, dp) != y:
        raise NotDecodableError("malformed trailer")
    return x


# ---------------------------------------------------------------------------
# brute-force syndrome oracles

# A binary block of length k is held as an int, its first bit the most
# significant, so range(2**k) runs in the order of product((0, 1), repeat=k).
# A descendant, whose length varies, is held as the length-tagged int
# (1 << len) | bits.


@dataclass
class SyndromeOracle:
    """Exchangeable labeling of binary blocks of a fixed length: confusable
    blocks (their error balls intersect) always receive distinct labels.
    labels[v] is the label of the block whose bits spell the int v."""

    k: int
    t: int
    model: str  # "burst" (<= t consecutive deletions) or "edit"
    labels: array = field(repr=False)
    label_space: int = 0


def _ball(k: int, t: int, model: str) -> list:
    """The error ball of a k-bit block as substring replacements (s, l1, l2):
    the l1 bits after the first s give way to any string of l2 bits."""
    if model == "burst":
        if not 1 <= t <= k:
            raise ValueError("require 1 <= t <= k")
        # delete d <= t consecutive bits
        return [(s, d, 0) for d in range(1, t + 1) for s in range(k - d + 1)]
    if model != "edit":
        raise ValueError(f"unknown error model {model!r}")
    # replace a substring of length l1 <= 2t by any string of length
    # l2 <= 2t (identity included).  Widened by a neighbouring bit of v,
    # which a fill one bit longer can put back, a replacement yields all it
    # did: only those that cannot widen (l1 or l2 = 2t, or l1 = k) count
    return [
        (s, l1, l2)
        for l1 in range(2 * t + 1)
        for l2 in range(2 * t + 1)
        for s in range(k - l1 + 1)
        if 2 * t in (l1, l2) or l1 == k
    ]


ORACLE_MAX_K = 20


@lru_cache(maxsize=None)
def oracle_build_brute(k: int, t: int, model: str) -> SyndromeOracle:
    """Greedy coloring of the confusability graph over all binary blocks of
    length k, in lexicographic vertex order (deterministic)."""
    if k > ORACLE_MAX_K:
        raise ValueError(f"oracle build limited to k <= {ORACLE_MAX_K}")
    shapes = _ball(k, t, model)
    longest = max(k - l1 + l2 for _, l1, l2 in shapes)
    # descendant -> bit mask of the labels of blocks reaching it
    used = [0] * (2 << longest)
    # a descendant is the top s bits of v, tagged, then the fill, then the
    # low bits v & keep: a deletion makes one, a fill of l2 bits a range of
    # 2^l2 ints `step` apart
    deletions = [
        (k - s, 1 << s, k - s - l1, (1 << (k - s - l1)) - 1)
        for s, l1, l2 in shapes
        if not l2
    ]
    fills = [
        (k - s, 1 << s, k - s - l1 + l2, (1 << (k - s - l1)) - 1, 1 << (k - s - l1))
        for s, l1, l2 in shapes
        if l2
    ]
    labels = array("I", [0]) * (1 << k)
    for v in range(1 << k):
        descs = {
            (((v >> a) | tag) << low) | (v & keep) for a, tag, low, keep in deletions
        }
        for a, tag, width, keep, step in fills:
            base = (((v >> a) | tag) << width) | (v & keep)
            descs.update(range(base, base + (1 << width), step))
        forbidden = reduce(or_, map(used.__getitem__, descs), 0)
        # the lowest clear bit of forbidden
        label = (~forbidden & (forbidden + 1)).bit_length() - 1
        labels[v] = label
        bit = 1 << label
        for d in descs:
            used[d] |= bit
    return SyndromeOracle(
        k=k, t=t, model=model, labels=labels, label_space=max(labels) + 1
    )


class QaryBlockLabeler:
    """Per-row composition: a q-ary block is labeled by the tuple of labels
    of its bit-matrix rows, packed into one integer, row 1 most significant.
    A substring edit of the block is a same-window substring edit of every
    row, so confusable q-ary blocks differ in some row and receive distinct
    labels.

    Words reach `label` and `solve` as their rows (see `rows`), so a block's
    rows are taken from a word's by shift and mask."""

    def __init__(self, q: int, oracles: dict, alphabet: tuple):
        self.nrows = matrix_rows(q)
        self.oracles = oracles
        self.modulus = max(
            o.label_space ** self.nrows for o in oracles.values()
        )
        self.alphabet = alphabet

    def rows(self, u: tuple) -> tuple:
        """The rows of u's bit matrix, each as an int whose most significant
        bit is that of u's first symbol."""
        check_symbols(u, 1 << self.nrows)
        rows = []
        for r in range(self.nrows):
            row = 0
            for s in u:
                row = (row << 1) | ((s >> r) & 1)
            rows.append(row)
        return tuple(rows)

    def word(self, rows: tuple, k: int) -> tuple:
        """Inverse of `rows` for a word of k symbols."""
        u = _int_to_bits(rows[0], k)
        for r in range(1, len(rows)):
            u = tuple(s | (b << r) for s, b in zip(u, _int_to_bits(rows[r], k)))
        return u

    def label(self, rows: tuple, shift: int, k: int) -> int:
        """Label of the k-symbol block whose last symbol sits `shift` bits
        above the lowest bit of every row of a word."""
        oracle = self.oracles[k]
        mask = (1 << k) - 1
        lab = 0
        for row in rows:
            lab = lab * oracle.label_space + oracle.labels[(row >> shift) & mask]
        return lab

    def solve(self, zrows: tuple, zlen: int, k: int, slots, target: int) -> set:
        """Every k-symbol block, as its rows, with label `target` that a
        slot fill makes from the zlen-symbol word z given by `zrows`.  A slot
        (a, l1, l2) puts l1 symbols of the alphabet in place of the l2
        symbols of z from its a-th (1-based).

        Solved row by row: target splits into one label digit per row, each
        row keeps its l1-bit fills whose row label is its digit, and the
        rows are joined column by column into fills of alphabet symbols."""
        oracle = self.oracles[k]
        space, labels = oracle.label_space, oracle.labels
        if target >= space ** self.nrows:
            return set()
        digits = []
        for _ in range(self.nrows):
            target, digit = divmod(target, space)
            digits.append(digit)
        digits.reverse()
        found = set()
        for a, l1, l2 in slots:
            low = zlen - a + 1 - l2  # bits of z after the replaced ones
            step = 1 << low
            fills = []
            for z, digit in zip(zrows, digits):
                base = ((z >> (low + l2)) << (l1 + low)) | (z & (step - 1))
                row = [
                    v for v in range(base, base + (step << l1), step)
                    if labels[v] == digit
                ]
                if not row:
                    break
                fills.append(row)
            else:
                blocks = product(*fills)
                if len(self.alphabet) < 1 << self.nrows:
                    blocks = (
                        block for block in blocks
                        if all(
                            sum(((v >> j) & 1) << r for r, v in enumerate(block))
                            in self.alphabet
                            for j in range(low, low + l1)
                        )
                    )
                found.update(blocks)
        return found


class BlockLabeler(QaryBlockLabeler):
    """Label lookup for binary blocks of the lengths appearing in a split:
    the one-row labeler, whose fills are all bit strings.

    `rows` and `label` are the one-row case written out: they run for every
    block of every decode, where the general loops over rows made a ctb
    decode about 5% slower."""

    def __init__(self, oracles: dict):
        super().__init__(2, oracles, (0, 1))

    def rows(self, x: tuple) -> tuple:
        check_binary(x)
        return (_bits_to_int(x),)

    def label(self, rows: tuple, shift: int, k: int) -> int:
        return self.oracles[k].labels[(rows[0] >> shift) & ((1 << k) - 1)]


# ---------------------------------------------------------------------------
# block split and the window-bounded block code


@lru_cache(maxsize=None)
def block_layout(length: int, P: int) -> tuple:
    """Even and odd block spans (1-based, inclusive) over the padded length.

    Even blocks partition [1, 2sP] into length-2P pieces; odd blocks are the
    two boundary pieces of length P plus the shifted interior pieces, so any
    interval of length <= P lies inside at least one block."""
    if length % (2 * P) != 0:
        raise ValueError("length must be padded to a multiple of 2P")
    s = length // (2 * P)
    even = tuple(Interval(2 * i * P + 1, 2 * (i + 1) * P) for i in range(s))
    odd = (
        (Interval(1, P),)
        + tuple(
            Interval((2 * i - 3) * P + 1, (2 * i - 1) * P) for i in range(2, s + 1)
        )
        + (Interval(length - P + 1, length),)
    )
    return even, odd


def padded_length(n: int, P: int) -> int:
    blocks = -(-n // (2 * P))
    return 2 * P * blocks


def block_syndromes(x: tuple, P: int, labeler) -> tuple:
    """((d1, e1), (d2, e2)): sums of block labels and of their squares, taken
    mod the labeler modulus, over the even and the odd blocks."""
    L = padded_length(len(x), P)
    rows = labeler.rows(x + (0,) * (L - len(x)))
    even, odd = block_layout(L, P)
    M = labeler.modulus
    sums = []
    for spans in (even, odd):
        labs = [labeler.label(rows, L - sp.hi, len(sp)) for sp in spans]
        sums.append((sum(labs) % M, sum(l * l for l in labs) % M))
    return tuple(sums)


def _edit_candidates(zlen, rel_lo, rel_hi, tprime, t):
    """Slots of the inverse substring edits: re-insert a replaced substring
    of length l1 = l2 + tprime (l1 <= 2t) inside the window."""
    for a in range(rel_lo, rel_hi + 1):
        for l1 in range(tprime, 2 * t + 1):
            l2 = l1 - tprime
            if a + l1 - 1 > rel_hi or a - 1 + l2 > zlen:
                continue
            yield a, l1, l2


def _burst_candidates(zlen, rel_lo, rel_hi, tprime):
    """Slots of the inverse bursts: re-insert tprime consecutive symbols
    with the burst kept inside the window."""
    for a in range(rel_lo, min(rel_hi - tprime + 1, zlen + 1) + 1):
        yield a, tprime, 0


def cpb_decode(
    xp: tuple,
    n: int,
    window: Interval,
    sums: tuple,
    labeler,
    P: int,
) -> tuple:
    """Correct a burst (or one substring edit) confined to `window` using the
    stored block-label sums: every block outside the window is intact, the
    damaged block's label is solved from the residue equations and inverted
    through the oracle, whose error model and t set the candidates."""
    tprime = n - len(xp)
    if tprime == 0:
        if block_syndromes(xp, P, labeler) != sums:
            raise NotDecodableError("stored sums do not match")
        return xp
    if len(window) > P:
        raise NotDecodableError("window exceeds the block cover length")
    L = padded_length(n, P)
    xpad = xp + (0,) * (L - n)
    rows = labeler.rows(xpad)
    even, odd = block_layout(L, P)
    for parity, spans in ((0, even), (1, odd)):
        hit = [j for j, sp in enumerate(spans) if sp.contains(window)]
        if hit:
            damaged = hit[0]
            break
    else:
        raise NotDecodableError("window not covered by any block")
    d_sum, e_sum = sums[parity]
    M = labeler.modulus
    sp = spans[damaged]
    # xpad is tprime short, so a block ends L - hi bits above the end of
    # xpad once the burst lies before it, tprime bits fewer otherwise
    intact_labels = [
        labeler.label(rows, L - b.hi - (tprime if b.hi <= sp.lo else 0), len(b))
        for j, b in enumerate(spans)
        if j != damaged
    ]
    missing = (d_sum - sum(intact_labels)) % M
    if (e_sum - sum(l * l for l in intact_labels)) % M != (missing * missing) % M:
        raise NotDecodableError("block syndromes inconsistent")
    block_len = len(sp)
    zlen = block_len - tprime
    zrows = tuple((r >> (L - sp.hi)) & ((1 << zlen) - 1) for r in rows)
    rel_lo = max(1, window.lo - sp.lo + 1)
    rel_hi = min(block_len, window.hi - sp.lo + 1)
    oracle = labeler.oracles[block_len]
    if oracle.model == "burst":
        slots = _burst_candidates(zlen, rel_lo, rel_hi, tprime)
    else:
        slots = _edit_candidates(zlen, rel_lo, rel_hi, tprime, oracle.t)
    found = labeler.solve(zrows, zlen, block_len, slots, missing)
    if len(found) != 1:
        raise NotDecodableError("no unique block consistent with the sums")
    block = labeler.word(found.pop(), block_len)
    xrec = xpad[: sp.lo - 1] + block + xpad[sp.hi - tprime :]
    x = xrec[:n]
    if block_syndromes(x, P, labeler) != sums:
        raise NotDecodableError("reconstruction fails the stored sums")
    return x


# ---------------------------------------------------------------------------
# overall q-ary <= t burst code


@dataclass(frozen=True)
class CtbParams:
    """Row 1 of the bit matrix lies in the localization code; every row
    carries block-label sums for window-bounded correction."""

    n: int
    q: int
    t: int
    delta: int
    P: int
    c0: int
    c1: int
    row_sums: tuple  # one ((d1,e1),(d2,e2)) entry per matrix row

    def __post_init__(self) -> None:
        if self.q % 2 != 0:
            raise ValueError("require q even")
        if self.delta + self.t - 1 > self.P:
            raise ValueError(
                "require delta + t - 1 <= P so located windows fit a block"
            )

    @property
    def density(self) -> DensityParams:
        return DensityParams(self.n, self.t, self.delta)


def ctb_oracles(params: CtbParams) -> dict:
    lengths = {2 * params.P, params.P}
    return {k: oracle_build_brute(k, params.t, "burst") for k in lengths}


def ctb_member(u: tuple, params: CtbParams, labeler: BlockLabeler) -> bool:
    if len(u) != params.n:
        return False
    check_symbols(u, params.q)
    rows = to_matrix(u, params.q)
    if len(rows) != len(params.row_sums):
        return False
    if not loc_member(rows[0], params.c0, params.c1, params.density):
        return False
    return all(
        block_syndromes(rows[i], params.P, labeler) == params.row_sums[i]
        for i in range(len(rows))
    )


def ctb_decode(up: tuple, params: CtbParams, labeler: BlockLabeler) -> tuple:
    """Localize the burst from row 1 of the bit matrix, then block-decode
    every row with the shared window and reassemble."""
    check_symbols(up, params.q)
    n = params.n
    tprime = n - len(up)
    if tprime == 0:
        if not ctb_member(up, params, labeler):
            raise NotDecodableError("input is not a codeword")
        return up
    if not 1 <= tprime <= params.t:
        raise ValueError("burst longer than t")
    rows_rx = to_matrix(up, params.q)
    window = locate_burst(rows_rx[0], params.c0, params.c1, params.density)
    rows = [
        cpb_decode(
            rows_rx[i], n, window, params.row_sums[i], labeler, params.P
        )
        for i in range(len(rows_rx))
    ]
    try:
        u = from_matrix(tuple(rows), params.q)
    except ValueError as exc:  # a column decodes to a symbol >= q
        raise NotDecodableError(str(exc)) from None
    if not any(burst_starts(u, up, params.t)):
        raise NotDecodableError("reassembled word is not burst-consistent")
    return u
