"""Dense-pattern machinery for bursts of up to t deletions: indicator/gap
vectors, localization syndromes, pattern-free compression, dense encoding,
brute-force syndrome oracles, and the block-parity t-burst code.

Per-block protection does not rely on external systematic codes; a
brute-force syndrome oracle provides the same contract: any two blocks
confusable under the declared error model receive distinct labels.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, product
from operator import itemgetter, or_, sub
from typing import Callable, Optional

from .seqcore import (
    _ROW_DIGITS,
    Interval,
    NotDecodableError,
    _bits_to_int,
    _int_to_bits,
    _join_planes,
    _planes,
    _reassemble,
    ceil_log2,
    check_binary,
    matrix_rows,
    to_matrix,
)


def default_delta(n: int, t: int) -> int:
    """Window length delta: t * 2^(2t+1) * ceil(log n)."""
    if t < 1:
        raise ValueError("t must be at least 1")
    return t * (1 << (2 * t + 1)) * ceil_log2(n)


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


def _occurrences(xb: bytes, wb: bytes) -> list:
    """Positions in the padded indicator (window start + 1) of wb = 0^t 1^t
    in xb.  wb does not overlap itself (its proper prefixes are 0s, its
    suffixes 1s), so the next occurrence starts len(wb) on at least."""
    occ, i = [], xb.find(wb)
    while i >= 0:
        occ.append(i + 1)
        i = xb.find(wb, i + len(wb))
    return occ


def is_dense(x: tuple, dp: DensityParams) -> bool:
    return loc_residues(x, dp) is not None


def loc_residues(x: tuple, dp: DensityParams) -> Optional[tuple]:
    """Localization residues (pattern count mod 4, VT of the gap vector
    mod 2n) of a dense x; None when x is not dense.  With the occurrences
    p_1..p_c of w padded by p_0 = 0 and end = len(x) - 2t + 2, that VT is
    (c + 1) * end - sum(p_i).  locate_burst's per-fill arithmetic uses the
    same closed form: a change to the residue changes both."""
    if len(x) < 2 * dp.t:
        raise ValueError("sequence shorter than the pattern")
    occ = _occurrences(bytes(x), bytes(dp.w))
    end = len(x) - 2 * dp.t + 2
    if max(map(sub, [*occ, end], [0, *occ])) > dp.delta:
        return None
    return len(occ) % 4, ((len(occ) + 1) * end - sum(occ)) % (2 * dp.n)


def loc_member(x: tuple, c0: int, c1: int, dp: DensityParams) -> bool:
    """Membership in the localization code: dense with residues (c0, c1)."""
    return len(x) == dp.n and loc_residues(x, dp) == (c0, c1)


def locate_burst(
    xp: tuple,
    c0: int,
    c1: int,
    dp: DensityParams,
    ones: Optional[int] = None,
) -> Interval:
    """Interval covering every burst position consistent with the syndromes.

    A start s is consistent when reinserting some tprime bits at s gives a
    member of the localization code (with `ones` ones, when given); the
    code design keeps all consistent starts within a window of length delta.

    The pattern occurrences of xp are found once.  A reinsertion at s keeps
    the windows of xp that end before s - 1 and shifts those from s on by
    tprime, so only the windows across the inserted bits are recomputed;
    the residues and the largest gap then come from prefix sums and from
    prefix and suffix maxima of the gaps of xp.  No reinsertion is built:
    each fill enters only through its summary in _seg_table.
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
    wb, span, xb = bytes(dp.w), 2 * t, bytes(xp)
    end = n - span + 2  # position of the closing 1 of the padded indicator
    # the occurrences of w in xp, their prefix sums, and the largest gap of
    # each prefix (from 0) and suffix (to xp's closing 1, end - tprime)
    occ = _occurrences(xb, wb)
    pre = [0, *accumulate(occ)]
    head = [0, *accumulate(map(sub, occ, [0, *occ]), max)]
    tail = [*accumulate(map(sub, [end - tprime, *occ[:0:-1]], occ[::-1]), max)][::-1] + [0]
    total = len(occ)
    # fills[(c0 - kept) % 4] would wrap c0 into 0..3, and the VT test c1 into 0..2n-1
    if c0 not in range(4) or c1 not in range(2 * n):
        raise NotDecodableError("localization syndromes inconsistent")
    # the ones a fill must hold (None: any fill)
    need = None if ones is None else ones - sum(xp)
    starts, a, b = [], 0, 0
    occ.append(n + 1)  # past every start: the pointers below stop at it
    for s in range(1, len(xp) + 2):
        # seg is the inserted bits with up to 2t - 1 bits of xp either side:
        # its windows, from i0 (0-based start) on, are those that overlap the
        # inserted bits, and xp's occurrences a..b-1 the ones they replace.
        # Each step of s passes at most one occurrence for each pointer
        i0 = s - span if s > span else 0
        a += occ[a] <= s - span
        b += occ[b] < s
        kept = a + total - b
        # only the fills whose count makes the pattern count c0 mod 4
        fills = _seg_table(wb, tprime, xb[i0 : s - 1], xb[s - 1 : s + span - 2])[(c0 - kept) % 4]
        if not fills:
            continue
        # loc_residues' VT, (count + 1) * end - sum of the positions, less c1,
        # without the fill's count and positions (the two change together)
        vt = (kept + 1) * end - pre[a] - pre[total] + pre[b] - tprime * (total - b) - c1
        for weight, cnt, cnt_sum, first, last, inner in fills:
            if (vt + cnt * (end - i0) - cnt_sum) % (2 * n):
                continue
            kept_gap = max(head[a], tail[b])
            before = occ[a - 1] if a else 0
            after = occ[b] + tprime if b < total else end
            if cnt:
                gap = max(kept_gap, i0 + first - before, inner, after - i0 - last)
            else:
                gap = max(kept_gap, after - before)
            if gap > dp.delta:
                continue
            if need is None or weight == need:
                starts.append(s)
                break
    if not starts:
        raise NotDecodableError("localization syndromes inconsistent")
    return Interval(starts[0], starts[-1] + tprime - 1)


@lru_cache(maxsize=1 << 14)
def _seg_table(wb: bytes, tprime: int, left: bytes, right: bytes) -> tuple:
    """The distinct summaries of the tprime-bit fills, grouped by their
    count of wb mod 4: per fill, its ones and the count, position sum,
    first and last position (1-based in seg = left + fill + right) and
    largest gap between neighbours of the occurrences of wb in seg.  Fills
    with equal summaries share one entry.  left and right hold fewer than
    2t bits each, so there are about 2^(4t) * t keys at most: 512 at t = 2,
    12,288 at t = 3."""
    out = ({}, {}, {}, {})
    for bits in product((0, 1), repeat=tprime):
        new = _occurrences(left + bytes(bits) + right, wb)
        ends = (new[0], new[-1]) if new else (0, 0)
        inner = max(map(sub, new[1:], new), default=0)
        out[len(new) % 4][(sum(bits), len(new), sum(new), *ends, inner)] = None
    return tuple(map(tuple, out))


# ---------------------------------------------------------------------------
# pattern-free compression (the rank of a window among the w-free strings)


@lru_cache(maxsize=64)
def _check_capacity(dp: DensityParams) -> None:
    if dp.out_len <= 0:
        raise ValueError("compressed length would be non-positive")
    if _rank_table(dp.delta, dp.t)[0][dp.delta][0] > 1 << dp.out_len:  # N(delta)
        raise ValueError(
            "parameters violate the compression capacity precondition"
        )


@lru_cache(maxsize=4)
def _rank_table(delta: int, t: int) -> tuple:
    """(rows, step) of the automaton that reads w = 0^t 1^t.  w does not
    overlap itself, so it has 2t states: k < t has read 0^k and k >= t has
    read 0^t 1^(k-t); step[b][k] is the state after bit b, and 2t means w
    was read.  rows[r][k] is the number of w-free completions of r bits
    from state k."""
    zero = [k + 1 if k < t else t if k == t else 1 for k in range(2 * t)]
    one = [0 if k < t else k + 1 for k in range(2 * t)]
    rows = [[1] * (2 * t) + [0]]
    for _ in range(delta):
        rows.append([rows[-1][a] + rows[-1][b] for a, b in zip(zero, one)] + [0])
    return rows, (zero, one)


def compress_g(s: tuple, dp: DensityParams) -> tuple:
    """Compress a pattern-free string of length delta to out_len bits: its
    rank in lexicographic order among the w-free strings of that length."""
    _check_capacity(dp)
    if len(s) != dp.delta:
        raise ValueError("compress_g expects length delta")
    if bytes(dp.w) in bytes(s):
        raise ValueError("input contains the pattern w")
    rows, step = _rank_table(dp.delta, dp.t)
    value = k = 0
    for r, bit in zip(range(dp.delta - 1, -1, -1), s):
        if bit:  # pass over the strings that have a 0 here
            value += rows[r][step[0][k]]
        k = step[bit][k]
    return _int_to_bits(value, dp.out_len)


def decompress_g(bits: tuple, dp: DensityParams) -> tuple:
    """Inverse of compress_g; a value of N(delta) or more is refused."""
    _check_capacity(dp)
    if len(bits) != dp.out_len:
        raise ValueError("decompress_g expects out_len bits")
    rows, step = _rank_table(dp.delta, dp.t)
    value = _bits_to_int(bits)
    if value >= rows[dp.delta][0]:
        raise NotDecodableError("compressed value out of range")
    out, k = [], 0
    for r in range(dp.delta - 1, -1, -1):
        below = rows[r][step[0][k]]
        bit = int(value >= below)
        value -= below * bit
        out.append(bit)
        k = step[bit][k]
    return tuple(out)


# ---------------------------------------------------------------------------
# dense encoding (cut pattern-free windows, log them in trailer records)


def _record_tail(e: int, dp: DensityParams) -> tuple:
    """Separator, w, closing half-pattern and 0 of a record padded by e
    zeros.  The closing half-pattern is 0^a 1^b with a + b = 2t - e and
    a = b or b = a + 1 when 2t - e is odd."""
    a = (2 * dp.t - e) // 2
    return (1,) + dp.w + (0,) * a + (1,) * (2 * dp.t - e - a) + (0,)


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

    @cached_property
    def by_label(self) -> tuple:
        """The blocks sorted by label, and the offset of each label's blocks in them."""
        key, space = self.labels.__getitem__, range(self.label_space + 1)
        order = array("I", sorted(range(len(self.labels)), key=key))
        return order, array("I", [bisect_left(order, i, key=key) for i in space])


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
    if t < 1:
        raise ValueError("require t >= 1")
    # replace a substring of length l1 <= 2t by any string of length
    # l2 <= 2t (identity included).  Widened by a neighbouring bit of v,
    # which a fill one bit longer can put back, a replacement yields all it
    # did: only those that cannot widen (l1 or l2 = 2t) count.  A whole
    # block of k < 2t bits cannot widen either, but such an oracle is the
    # identity (k <= 4t) and is built without the shapes
    return [
        (s, l1, l2)
        for l1 in range(2 * t + 1)
        for l2 in range(2 * t + 1)
        for s in range(k - l1 + 1)
        if 2 * t in (l1, l2)
    ]


ORACLE_MAX_K = 20
# log2 of the run length of oracle_build_brute, per model: the lengths that
# built fastest.  An edit block reads the labels of nearly every earlier
# block of its run, so edit runs are kept shorter
_RUN_BITS = {"burst": 7, "edit": 6}


def _gather(idx: list) -> Callable:
    """The items of a sequence at the indices idx, as a tuple (itemgetter
    of one index returns the item itself)."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple(seq[i] for i in idx)


_ors = partial(map, or_)  # elementwise OR of two sequences


def _layers(owners: list, zero: int) -> list:
    """Gathers whose elementwise OR holds, for each list of indices in
    owners, the OR of the items at them: gather i takes each list's i-th
    index, or `zero`, the index of a 0, past its end."""
    depth = max(map(len, owners))
    return [_gather([o[i] if i < len(o) else zero for o in owners]) for i in range(depth)]


def _run_plan(k: int, shapes: list, r: int) -> tuple:
    """The fixed part of oracle_build_brute's runs of 2^r blocks: the
    windows inside T, each chunk with its fill writers and, when deletions
    reach it, its place in a run's work list, the folds, what each x reads
    and marks, and where a run's label bits start in the work list."""
    R = 1 << r
    # a descendant is the top s bits of v, tagged, then the fill, then the
    # low bits v & keep
    top = []  # windows inside T: (a, tag, width, keep, fill offsets)
    chunks = {}  # (shift, tag, width) of a chunk's base -> its fill writers
    marked = set()  # chunks that deletions reach
    folds = []  # per fill window, its chunk and its class offsets per fill
    deleted = [[] for _ in range(R)]  # per x, (chunk, offset) of its deletions
    folded = [[] for _ in range(R)]  # per x, (fold, class) of its fill windows
    near = [0] * R  # bit y of near[x]: x and y share a descendant
    # descendants of two lengths never meet, so they are matched one
    # length at a time
    lengths = {}
    for shape in shapes:
        lengths.setdefault(shape[2] - shape[1], []).append(shape)
    for same_length in lengths.values():
        shared = {}  # descendant in the run T = 0 -> bit mask of its x
        for s, l1, l2 in same_length:
            a, tag, low = k - s, 1 << s, k - s - l1
            width, keep = low + l2, (1 << low) - 1
            fills = [f << low for f in range(1 << l2)]
            desc = [(((x >> a) | tag) << width) | (x & keep) for x in range(R)]
            for x, d in enumerate(desc):
                for f in fills:
                    shared[d + f] = shared.get(d + f, 0) | 1 << x
            if low >= r:
                top.append((a, tag, width, keep, fills))
                continue
            # the chunk of the run T starts at ((T >> shift) | tag) << width
            key = (0, 1 << (k - r), r - l1 + l2) if a <= r else (a - r, tag, width)
            writers = chunks.setdefault(key, [])
            desc = [d - (key[1] << key[2]) for d in desc]
            if not l2:
                marked.add(key)
                for x, d in enumerate(desc):
                    deleted[x].append((key, d))
                continue
            # the x of one class differ only inside the window: they read
            # the OR over the fills once, and their OR goes to all the fills
            classes = sorted(set(desc))
            cls = list(map(classes.index, desc))
            for x, j in enumerate(cls):
                folded[x].append((len(folds), j))
            folds.append((key, [[d + f for d in classes] for f in fills]))
            members = [[x for x in range(R) if cls[x] == j] for j in range(len(classes))]
            where = {d + f: j for j, d in enumerate(classes) for f in fills}
            expand = _gather([where[o] for o in range(1 << key[2])])
            writers.append((_layers(members, R), expand))
        for xs in set(shared.values()):
            for x in range(R):
                if xs >> x & 1:
                    near[x] |= xs
    # a run's work list holds its chunks, its folds, then its label bits
    at, F = {}, 0
    for key in chunks:
        at[key] = F
        F += 1 << key[2]
    fold_at = []
    for _, per_fill in folds:
        fold_at.append(F)
        F += len(per_fill[0])
    fold_gets = [[_gather([at[c] + o for o in idx]) for idx in per_fill] for c, per_fill in folds]
    # x marks its label bit in the chunk descendants it deletes into, where
    # the later x of its run read it; it reads those, its folds, and the
    # label bits of its earlier neighbours that share no such descendant
    marks = [{at[c] + d for c, d in deleted[x]} for x in range(R)]
    gets = [
        _gather(
            sorted(marks[x] | {fold_at[i] + j for i, j in folded[x]})
            + [F + y for y in range(x) if near[x] >> y & 1 and marks[x].isdisjoint(marks[y])]
        )
        for x in range(R)
    ]
    places = [(key, writers, at[key] if key in marked else None) for key, writers in chunks.items()]
    return top, places, fold_gets, gets, list(map(sorted, marks)), F


@lru_cache(maxsize=None)
def oracle_build_brute(k: int, t: int, model: str) -> SyndromeOracle:
    """Greedy coloring of the confusability graph over all binary blocks of
    length k, in lexicographic vertex order (deterministic): each block
    takes the least label of no earlier block it shares a descendant with.

    The blocks are labeled a run at a time, a run being the R = 2^r blocks
    v = T 2^r + x that share their top k - r bits T.  Under one window and
    fill, the descendant of v is that of T 2^r plus a part set by x alone:
    - a window inside T takes the run to R consecutive descendants;
    - windows inside x keep T in front, so all those of one output length
      reach one chunk of descendants, the same fixed gathers for every T;
      a window across the boundary has a chunk of its own.
    Two blocks of a run share a descendant exactly when their low parts do
    (the common prefix cancels), so the neighbours within a run are found
    once, in the run T = 0.  A block's label is the least one absent from
    its descendants as they stood before its run, from the chunk
    descendants that earlier blocks of the run marked with their labels,
    and from the labels of its other earlier neighbours; the run's labels
    are written back after.

    An edit block of k <= 4t bits needs no build: split two blocks as
    x1x2 and y1y2, halves of at most 2t bits, and both reach y1x2 by one
    edit, so every two blocks are confusable and the labels are the blocks.
    """
    if k > ORACLE_MAX_K:
        raise ValueError(f"oracle build limited to k <= {ORACLE_MAX_K}")
    shapes = _ball(k, t, model)
    if model == "edit" and k <= 4 * t:
        return SyndromeOracle(k, t, model, array("I", range(1 << k)), 1 << k)
    longest = max(k - l1 + l2 for _, l1, l2 in shapes)
    # descendant -> bit mask of the labels of blocks reaching it
    used = [0] * (2 << longest)
    r = min(k, _RUN_BITS[model])
    R = 1 << r
    top, chunks, fold_gets, gets, marks, F = _run_plan(k, shapes, r)
    labels = array("I")
    zero = [0] * R
    for T in range(1 << (k - r)):
        v = T << r
        bases = {
            (((v >> a) | tag) << width) | (v & keep) | f
            for a, tag, width, keep, fills in top
            for f in fills
        }
        before = reduce(_ors, (used[b : b + R] for b in bases), zero)
        work = []
        for (sh, tg, w), _, _ in chunks:
            b = ((T >> sh) | tg) << w
            work += used[b : b + (1 << w)]
        for per_fill in fold_gets:
            work += reduce(_ors, [g(work) for g in per_fill])
        work += zero
        work.append(0)  # the 0 the writers' gathers take past a list's end
        for i, f, get, mark in zip(range(F, F + R), before, gets, marks):
            f = reduce(or_, get(work), f)
            label = (~f & (f + 1)).bit_length() - 1
            labels.append(label)
            work[i] = bit = 1 << label
            for d in mark:
                work[d] |= bit
        bits = work[F:]
        # the chunks that deletions reach, with this run's bits marked in
        regions = [work[o : o + (1 << w)] if o is not None else () for (_, _, w), _, o in chunks]
        # both hold descendants as they were; drop them before they change
        del work, before
        for b in bases:
            used[b : b + R] = map(or_, used[b : b + R], bits)
        for ((sh, tg, w), writers, _), region in zip(chunks, regions):
            b = ((T >> sh) | tg) << w
            parts = [used[b : b + (1 << w)]]
            if region:
                parts.append(region)
            for layers, expand in writers:
                parts.append(expand(list(reduce(_ors, [g(bits) for g in layers]))))
            used[b : b + (1 << w)] = reduce(_ors, parts)
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
        (self.kind,) = {(o.model, o.t) for o in oracles.values()}  # one for all: cpb_decode's slots
        self.modulus = max(o.label_space**self.nrows for o in oracles.values())
        self.alphabet = alphabet
        self.allowed = frozenset(alphabet)

    def rows(self, u: tuple) -> tuple:
        """The rows of u's bit matrix, each as an int whose most significant
        bit is that of u's first symbol."""
        return tuple([int(row or b"0", 2) for row in _planes(u, 1 << self.nrows, _ROW_DIGITS)])

    def word(self, rows: tuple, k: int) -> tuple:
        """Inverse of `rows` for a word of k symbols."""
        return _join_planes([_int_to_bits(r, k) for r in rows], k)

    def label(self, rows: tuple, shift: int, k: int) -> int:
        """Label of the k-symbol block whose last symbol sits `shift` bits
        above the lowest bit of every row of a word."""
        oracle = self.oracles[k]
        mask = (1 << k) - 1
        lab = 0
        for row in rows:
            lab = lab * oracle.label_space + oracle.labels[(row >> shift) & mask]
        return lab

    def solve(self, zrows: list, zlen: int, k: int, slots, target: int) -> set:
        """Every k-symbol block, as its rows, with label `target` that a
        slot fill makes from the zlen-symbol word z given by `zrows`.  A slot
        (a, l1, l2) puts l1 symbols of the alphabet in place of the l2
        symbols of z from its a-th (1-based).

        Solved row by row from the oracle's label index: target splits into
        one label digit per row, and each row keeps the blocks of its digit
        that some slot makes from z's row.  Slot (a, l1, l2) makes v from z's
        row exactly when a - 1 <= pre and low <= suf, the lengths of their
        common prefix and suffix; the rows join into blocks whose filled
        columns are alphabet symbols."""
        oracle = self.oracles[k]
        space = oracle.label_space
        if target >= space ** self.nrows:
            return set()
        digits = [0] * self.nrows
        for r in reversed(range(self.nrows)):
            target, digits[r] = divmod(target, space)
        order, starts = oracle.by_label
        shapes = [(a - 1, l1, zlen - a + 1 - l2) for a, l1, l2 in slots]
        # need[p]: the least low of a slot that keeps at most p top bits
        need = [zlen + 1] * (zlen + 1)
        for head, _, low in shapes:
            need[head] = min(need[head], low)
        need = list(accumulate(need, min))
        fills = []
        for z, digit in zip(zrows, digits):
            row = []
            for v in order[starts[digit] : starts[digit + 1]]:
                pre = zlen - ((v >> (k - zlen)) ^ z).bit_length()
                diff = v ^ z | 1 << zlen  # the bit past z's caps suf at zlen
                suf = (diff & -diff).bit_length() - 1
                if need[pre] <= suf:
                    row.append((v, pre, suf))
            if not row:
                return set()
            fills.append(row)
        found = set()
        for joined in product(*fills):
            block, pres, sufs = zip(*joined)
            pre, suf = min(pres), min(sufs)
            if any(h <= pre and lo <= suf and self._fits(block, lo, l1) for h, l1, lo in shapes):
                found.add(block)
        return found

    def _fits(self, block: tuple, low: int, l1: int) -> bool:
        """Whether the block's columns low .. low + l1 - 1, from its end, hold alphabet symbols."""
        cols = (sum((v >> j & 1) << r for r, v in enumerate(block)) for j in range(low, low + l1))
        return self.allowed.issuperset(cols)


class BlockLabeler(QaryBlockLabeler):
    """Label lookup for binary blocks of the lengths appearing in a split:
    the one-row labeler, whose fills are all bit strings.

    `rows`, `word`, `label` and `solve` are the one-row case written out,
    because ctb runs them for every block of every decode, where the
    general loops over rows made a ctb decode about 5% slower."""

    def __init__(self, oracles: dict):
        super().__init__(2, oracles, (0, 1))

    def rows(self, x: tuple) -> tuple:
        check_binary(x)
        return (_bits_to_int(x),)

    def word(self, rows: tuple, k: int) -> tuple:
        return _int_to_bits(rows[0], k)

    def label(self, rows: tuple, shift: int, k: int) -> int:
        return self.oracles[k].labels[(rows[0] >> shift) & ((1 << k) - 1)]

    def solve(self, zrows: list, zlen: int, k: int, slots, target: int) -> set:
        """The blocks with label `target` among each slot's fills of z: every
        bit string is a fill, so none is joined or filtered."""
        labels = self.oracles[k].labels
        (z,) = zrows
        found = set()
        for a, l1, l2 in slots:
            low = zlen - a + 1 - l2  # bits of z after the replaced ones
            step = 1 << low
            base = ((z >> (low + l2)) << (l1 + low)) | (z & (step - 1))
            found.update((v,) for v in range(base, base + (step << l1), step) if labels[v] == target)
        return found


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
    rows = [r << (L - len(x)) for r in labeler.rows(x)]
    M = labeler.modulus
    sums = []
    for spans in block_layout(L, P):
        labs = [labeler.label(rows, L - sp.hi, len(sp)) for sp in spans]
        sums.append((sum(labs) % M, sum(l * l for l in labs) % M))
    return tuple(sums)


SUMS_SHAPE = ((0, 0), (0, 0))  # the shape of block_syndromes ((d1, e1), (d2, e2))


def shape(v):
    """v with each int as 0 and any other non-tuple as its type name."""
    if isinstance(v, tuple):
        return tuple(map(shape, v))
    return 0 if type(v) is int else type(v).__name__


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


@lru_cache(maxsize=1 << 12)
def _plan(n: int, P: int, lo: int, hi: int, tprime: int, model: str, t: int) -> Optional[tuple]:
    """cpb_decode's fixed work for the window [lo, hi] of an n-symbol word
    received tprime symbols short, or None when no block covers it: the
    damaged block's parity and length, the (shift, length) of the intact
    blocks of that parity in the received word padded with zeros, zlen and
    tail (that word's bits in the damaged block and below it), the solve's
    slots, and the (shift, length) of the other parity's blocks in the
    padded word.  A decode's window lies in [1, n], at most P long: n * P * t
    keys at most per (n, P, model, t)."""
    L = padded_length(n, P)
    layout = block_layout(L, P)
    hits = [(p, b) for p, spans in enumerate(layout) for b in spans if b.lo <= lo and hi <= b.hi]
    if not hits:
        return None
    parity, sp = hits[0]
    # the padded word is tprime short, so a block ends L - hi bits above its
    # end once the burst lies before it, tprime bits fewer otherwise
    intact = tuple(
        (L - b.hi - (tprime if b.hi <= sp.lo else 0), len(b)) for b in layout[parity] if b is not sp
    )
    k = len(sp)
    args = k - tprime, max(1, lo - sp.lo + 1), min(k, hi - sp.lo + 1), tprime  # zlen, window in sp
    slots = _burst_candidates(*args) if model == "burst" else _edit_candidates(*args, t)
    other = tuple((L - b.hi, len(b)) for b in layout[1 - parity])
    return parity, k, intact, k - tprime, L - sp.hi, tuple(slots), other


def cpb_decode(xp: tuple, n: int, window: Interval, sums: tuple, labeler, P: int) -> tuple:
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
    cut = padded_length(n, P) - n
    rows = [r << cut for r in labeler.rows(xp)]  # the rows of xp padded with zeros
    plan = _plan(n, P, window.lo, window.hi, tprime, *labeler.kind)
    if plan is None:
        raise NotDecodableError("window not covered by any block")
    parity, k, intact, zlen, tail, slots, other = plan
    d_sum, e_sum = sums[parity]
    M = labeler.modulus
    labs = [labeler.label(rows, shift, b) for shift, b in intact]
    missing = (d_sum - sum(labs)) % M
    if (e_sum - sum(l * l for l in labs)) % M != (missing * missing) % M:
        raise NotDecodableError("block syndromes inconsistent")
    zrows = [(r >> tail) & ((1 << zlen) - 1) for r in rows]
    found = labeler.solve(zrows, zlen, k, slots, missing)
    if len(found) != 1:
        raise NotDecodableError("no unique block consistent with the sums")
    # the block's rows replace the zlen received bits; those past n drop
    x = [
        ((r >> (tail + zlen) << k | v) << tail | r & ((1 << tail) - 1)) >> cut << cut
        for r, v in zip(rows, found.pop())
    ]
    # the damaged block's parity sums to the stored sums mod M, as its intact
    # blocks keep their bits and it takes `missing`, so only the other parity
    # is relabelled.  A window past n lets the solve set bits past n, which
    # dropped: relabelling the block there keeps a wrong answer out
    labs = [labeler.label(x, shift, b) for shift, b in other]
    rebuilt = ((d_sum % M, e_sum % M), (sum(labs) % M, sum(l * l for l in labs) % M))
    if rebuilt[:: 1 - 2 * parity] != sums or tail < cut and labeler.label(x, tail, k) != missing:
        raise NotDecodableError("reconstruction fails the stored sums")
    return labeler.word([r >> cut for r in x], n)


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
        if shape(self.row_sums) != (SUMS_SHAPE,) * matrix_rows(self.q):
            raise ValueError("require one ((d1, e1), (d2, e2)) per matrix row")

    @property
    def density(self) -> DensityParams:
        return DensityParams(self.n, self.t, self.delta)


def ctb_oracles(params: CtbParams) -> dict:
    lengths = {2 * params.P, params.P}
    return {k: oracle_build_brute(k, params.t, "burst") for k in lengths}


def ctb_member(u: tuple, params: CtbParams, labeler: BlockLabeler) -> bool:
    if len(u) != params.n:
        return False
    rows = to_matrix(u, params.q)
    if not loc_member(rows[0], params.c0, params.c1, params.density):
        return False
    return all(
        block_syndromes(rows[i], params.P, labeler) == params.row_sums[i]
        for i in range(len(rows))
    )


def ctb_decode(up: tuple, params: CtbParams, labeler: BlockLabeler) -> tuple:
    """Localize the burst from row 1 of the bit matrix, then block-decode
    every row with the shared window and reassemble."""
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
        cpb_decode(row, n, window, sums, labeler, params.P)
        for row, sums in zip(rows_rx, params.row_sums)
    ]
    if not loc_member(rows[0], params.c0, params.c1, params.density):
        raise NotDecodableError("row 1 decodes outside the localization code")
    return _reassemble(rows, params.q, up, params.t)
