"""Period-2-limited encoding, window-bounded two-deletion decoding, and the
q-ary two-burst code built from them: row 1 of the bit matrix decodes on its
own, its burst starts (seqcore.burst_starts) give the window, and the other
rows reinsert their burst only inside that window.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classic import _reinsertions, levenshtein_decode, levenshtein_residues
from .seqcore import (
    NotDecodableError,
    _bits_to_int,
    _int_to_bits,
    _period2_diffs,
    _reassemble,
    burst_starts,
    ceil_log2,
    check_binary,
    longest_period2,
    matrix_rows,
    psi,
    psi_inv,
    to_matrix,
    vt_syndrome,
)

# smallest n with ceil(log n) + 5 < n, so a trailer record fits in the payload
PLL_MIN_N = 10


def pll_cap(n: int) -> int:
    """Maximum allowed period-2 substring length after encoding."""
    return ceil_log2(n) + 5


def pll_encode(x: tuple) -> tuple:
    """Append the marker 10, then repeatedly cut long period-2 substrings and
    log each cut as a trailer record 0 . ab . b(i) . 11; output length n+2."""
    check_binary(x)
    n = len(x)
    if n < PLL_MIN_N:
        raise ValueError(f"pll encoding requires n >= {PLL_MIN_N}")
    clog = ceil_log2(n)
    cap = pll_cap(n)
    run = bytes(cap - 1)  # the diffs of a period-2 window of cap + 1 bits
    y = list(x) + [1, 0]
    diffs = _period2_diffs(y)
    nn, start = n, 0
    # cut at the first start i <= nn - clog - 3 of such a window.  The
    # windows of cap + 1 bits ending before the cut (0-based starts below
    # i - 1 - cap) are unchanged and held none, so the search resumes there,
    # and only the diffs from there on are computed again
    while 1 <= (i := diffs.find(run, start) + 1) <= nn - clog - 3:
        a, b = y[i - 1], y[i]
        del y[i - 1 : i - 1 + cap]
        y += [0, a, b, *_int_to_bits(i, clog), 1, 1]
        nn -= cap
        start = max(0, i - 1 - cap)
        diffs = diffs[:start] + _period2_diffs(y[start:])
    assert len(y) == n + 2
    return tuple(y)


def pll_decode(y: tuple, n: int) -> tuple:
    """Invert pll_encode: pop trailer records (last bit pattern 11) last to
    first, reinserting the period-2 string abab... at the recorded position.
    Any y that is not the encoding of the word so found is refused."""
    check_binary(y)
    clog = ceil_log2(n)
    cap = pll_cap(n)
    if len(y) != n + 2:
        raise ValueError("pll_decode expects length n+2")
    # a pop swaps cap bits for cap, so work keeps n + 2 >= cap bits (smaller
    # n fails the re-encode); an encoding holds fewer than n records
    work = list(y)
    for _ in range(n):
        if work[-2:] != [1, 1]:
            break
        rec = work[-cap:]
        a, b = rec[1], rec[2]
        i = _bits_to_int(rec[3 : 3 + clog])
        del work[-cap:]
        work[i - 1 : i - 1] = [(a, b)[j % 2] for j in range(cap)]
    # the re-encode refuses a bad record or marker, and records the encoder
    # would not have made
    x = tuple(work[:-2])
    if pll_encode(x) != tuple(y):
        raise NotDecodableError("word is not an encoding")
    return x


@dataclass(frozen=True)
class PBoundedParams:
    n: int
    P: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if not 0 <= self.c < 2 * self.P:
            raise ValueError("require c in [0, 2P)")
        if not 0 <= self.d < 3:
            raise ValueError("require d in [0, 3)")


def pbounded_residues(x: tuple, P: int) -> tuple:
    """(c, d) of the window-bounded code holding x: VT(psi(x)) mod 2P and
    wt(psi(x)) mod 3."""
    y = psi(x)
    return vt_syndrome(y) % (2 * P), sum(y) % 3


def pll_lev_residues(x: tuple, n: int) -> Optional[tuple]:
    """(a,) of the period-limited two-burst code holding x: VT(psi(x)) mod
    2n; None when x has a period-2 run longer than pll_cap(n)."""
    if longest_period2(x) > pll_cap(n):
        return None
    return levenshtein_residues(x, n)


def pbounded_member(x: tuple, params: PBoundedParams) -> bool:
    if len(x) != params.n:
        return False
    return pbounded_residues(x, params.P) == (params.c, params.d)


def pbounded_decode(xp: tuple, params: PBoundedParams, m: int) -> tuple:
    """Correct a burst of <= 2 deletions known to lie in [m, m+P-1].

    Candidates are every reinsertion of the burst into psi(xp), at a start
    that keeps it inside the window, whose VT change matches the residue
    mod 2P (classic._reinsertions); the weight residue mod 3 then pins down
    the unique codeword.
    """
    check_binary(xp)
    n, P = params.n, params.P
    t = n - len(xp)
    if t not in (0, 1, 2):
        raise ValueError("pbounded_decode expects a burst of <= 2 deletions")
    if t == 0:
        if not pbounded_member(xp, params):
            raise NotDecodableError("input is not a codeword")
        return xp
    yp = psi(xp)
    delta = (params.c - vt_syndrome(yp)) % (2 * P)
    # the burst must lie inside the window, not only start there: with only
    # the start constrained, two codewords can share a descendant via
    # bursts starting P-1 positions apart
    ys = _reinsertions(yp, t, delta, 2 * P, range(m, m + P - t + 1))
    found = {y for y in ys if sum(y) % 3 == params.d}
    if len(found) != 1:
        raise NotDecodableError("no unique window-consistent codeword")
    return psi_inv(found.pop())


@dataclass(frozen=True)
class C2BParams:
    """Two-burst q-ary code: row 1 period-limited + VT mod 2n, other rows
    window-bounded with P = cap."""

    n: int
    q: int
    a: int
    rows: tuple  # (c_i, d_i) for matrix rows 2..ceil(log q)

    def __post_init__(self) -> None:
        if self.q % 2 != 0:
            raise ValueError("require q even")
        if not 0 <= self.a < 2 * self.n:
            raise ValueError("require a in [0, 2n)")
        if len(self.rows) != matrix_rows(self.q) - 1:
            raise ValueError("need residues for every row but the first")

    @property
    def cap(self) -> int:
        return pll_cap(self.n)

    def row_params(self, idx: int) -> PBoundedParams:
        c, d = self.rows[idx]
        return PBoundedParams(self.n, self.cap, c, d)


def c2b_member(u: tuple, params: C2BParams) -> bool:
    if len(u) != params.n:
        return False
    rows = to_matrix(u, params.q)
    if pll_lev_residues(rows[0], params.n) != (params.a,):
        return False
    return all(
        pbounded_member(rows[i], params.row_params(i - 1))
        for i in range(1, len(rows))
    )


def c2b_decode(up: tuple, params: C2BParams) -> tuple:
    """Decode row 1, localize the burst from it, then window-decode the
    remaining rows of the bit matrix and reassemble."""
    n = params.n
    t = n - len(up)
    if t not in (0, 1, 2):
        raise ValueError("c2b_decode expects a burst of <= 2 deletions")
    if t == 0:
        if not c2b_member(up, params):
            raise NotDecodableError("input is not a codeword")
        return up
    rows_rx = to_matrix(up, params.q)
    row1 = levenshtein_decode(rows_rx[0], params.a, n)
    if longest_period2(row1) > params.cap:
        raise NotDecodableError("row 1 decodes outside the period limit")
    # two starts s < s' of the burst leave row1[s .. s' + t - 1] t-periodic,
    # so the starts span a period-2 run of row 1: at most cap long.  Row 1
    # is a burst parent of the received row by construction
    m = burst_starts(row1, rows_rx[0], t)[0]
    rows = [row1]
    for i in range(1, len(rows_rx)):
        rows.append(pbounded_decode(rows_rx[i], params.row_params(i - 1), m))
    return _reassemble(rows, params.q, up, 2)
