"""Period-2-limited encoding, burst localization from a decoded row, window-
bounded two-deletion decoding, and the q-ary two-burst code built from them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classic import (
    _one_deletion_candidates,
    _two_deletion_candidates,
    levenshtein_decode,
    levenshtein_residues,
)
from .seqcore import (
    Interval,
    NotDecodableError,
    _bits_to_int,
    _int_to_bits,
    _period2_diffs,
    burst_starts,
    ceil_log2,
    check_binary,
    check_symbols,
    from_matrix,
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
    work = list(y)
    steps = 0
    while work[-2:] == [1, 1]:
        steps += 1
        if steps > n or len(work) < cap + 2:
            raise NotDecodableError("malformed trailer")
        rec = work[-cap:]
        if rec[0] != 0:
            raise NotDecodableError("malformed trailer record")
        a, b = rec[1], rec[2]
        i = _bits_to_int(rec[3 : 3 + clog])
        del work[-cap:]
        if not 1 <= i <= len(work) + 1:
            raise NotDecodableError("trailer position out of range")
        pattern = [(a, b)[j % 2] for j in range(cap)]
        work[i - 1 : i - 1] = pattern
    if work[-2:] != [1, 0]:
        raise NotDecodableError("malformed trailer terminator")
    # a walk can undo records the encoder would not have made
    x = tuple(work[:-2])
    if pll_encode(x) != tuple(y):
        raise NotDecodableError("word is not an encoding")
    return x


def locate_from_row1(x_decoded: tuple, x_received: tuple) -> Interval:
    """Smallest interval containing every burst position consistent with the
    (decoded, received) pair; length <= cap when x_decoded is period-limited."""
    tlen = len(x_decoded) - len(x_received)
    if tlen < 1:
        raise ValueError("locate_from_row1 requires at least one deletion")
    starts = list(burst_starts(x_decoded, x_received, tlen))
    if not starts:
        raise NotDecodableError("received word is not in the burst ball")
    return Interval(min(starts), max(starts) + tlen - 1)


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
    """Correct a burst of <= 2 deletions known to start in [m, m+P-1].

    Candidates come from the one- and two-deletion case analysis with the VT
    residue taken mod 2P; the weight residue mod 3 and the window consistency
    check then pin down the unique codeword.
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
    if t == 1:
        ys = _one_deletion_candidates(yp, delta, 2 * P)
    else:
        ys = _two_deletion_candidates(yp, delta, 2 * P)
    found = set()
    for y in ys:
        if len(y) != n or sum(y) % 3 != params.d:
            continue
        x = psi_inv(y)
        # the burst must lie inside [m, m+P-1], not only start there: with
        # only the start constrained, two codewords can share a descendant
        # via bursts starting P-1 positions apart
        if any(burst_starts(x, xp, 2, m, m + P - 1)):
            found.add(x)
    if len(found) != 1:
        raise NotDecodableError("no unique window-consistent codeword")
    return found.pop()


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
    check_symbols(u, params.q)
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
    check_symbols(up, params.q)
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
    interval = locate_from_row1(row1, rows_rx[0])
    if len(interval) > params.cap:
        raise NotDecodableError("burst interval exceeds the window length")
    m = interval.lo
    rows = [row1]
    for i in range(1, len(rows_rx)):
        rows.append(pbounded_decode(rows_rx[i], params.row_params(i - 1), m))
    try:
        u = from_matrix(tuple(rows), params.q)
    except ValueError as exc:  # a column decodes to a symbol >= q
        raise NotDecodableError(str(exc)) from None
    if not any(burst_starts(u, up, 2)):
        raise NotDecodableError("reassembled word is not burst-consistent")
    return u
