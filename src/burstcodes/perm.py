"""Permutation burst-deletion codes: the balanced half-indicator map,
localization, overlapping ranking sequences, and the end-to-end decoder.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

from .seqcore import Interval, NotDecodableError, burst_starts
from .tburst import (
    SUMS_SHAPE,
    DensityParams,
    QaryBlockLabeler,
    block_syndromes,
    cpb_decode,
    loc_residues,
    locate_burst,
    oracle_build_brute,
    shape,
)


def check_permutation(pi: tuple) -> None:
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError("not a permutation of [n]")


def bp_map(pi: tuple) -> tuple:
    """Half indicator: bit i = 1 iff pi_i > n/2.  Balanced (one extra 1 for
    odd n)."""
    n = len(pi)
    return tuple(1 if v > n / 2 else 0 for v in pi)


def is_balanced(b: tuple, n: int) -> bool:
    return sum(b) == (n + 1) // 2


def perm_locate(bp: tuple, c0: int, c1: int, dp: DensityParams) -> Interval:
    """Localize a burst from the (possibly shortened) half-indicator string;
    candidate reinsertions must land in the balanced localization code."""
    return locate_burst(
        bp, c0, c1, dp, extra_check=lambda x: is_balanced(x, dp.n)
    )


def prj(u: tuple) -> tuple:
    """Relative-order pattern of a window of distinct values."""
    if len(set(u)) != len(u):
        raise ValueError("prj requires distinct entries")
    return tuple(sum(1 for x in u if x < v) + 1 for v in u)


def lex_rank(pi: tuple) -> int:
    """1-based lexicographic rank of a permutation of [k] (factorial number
    system)."""
    check_permutation(pi)
    return _rank(pi)


def _rank(u: tuple) -> int:
    """lex_rank(prj(u)) for distinct values: the Lehmer code of u (each
    entry's place among the entries not yet read), in the factorial base."""
    rank, rest = 0, sorted(u)
    for v in u:
        i = rest.index(v)
        rank = rank * len(rest) + i
        del rest[i]
    return rank + 1


def _ranks(pi: tuple, t: int) -> tuple:
    return tuple(_rank(pi[i : i + t + 1]) for i in range(len(pi) - t))


def lex_unrank(rank: int, k: int) -> tuple:
    if not 1 <= rank <= factorial(k):
        raise ValueError("rank out of range")
    rank -= 1
    avail = list(range(1, k + 1))
    out = []
    for i in range(k):
        f = factorial(k - 1 - i)
        idx, rank = divmod(rank, f)
        out.append(avail.pop(idx))
    return tuple(out)


def overlap_ranks(pi: tuple, t: int) -> tuple:
    """Ranks of all consecutive (t+1)-windows; length n - t."""
    n = len(pi)
    if n <= t:
        raise ValueError("need n > t")
    if len(set(pi)) != n:
        raise ValueError("overlap_ranks requires distinct entries")
    return _ranks(pi, t)


def reconstruct(pip: tuple, missing: tuple, p: tuple, t: int) -> tuple:
    """The unique permutation obtained by reinserting the missing symbols
    consecutively into pip whose ranking sequence equals p.

    A reinsertion at pos keeps the ranks of pip's windows before it and
    shifts those after it by len(missing), so only positions where p agrees
    with pip's ranks on both sides are tried, and there only the windows
    holding an inserted symbol are ranked."""
    tprime = len(missing)
    if tprime == 0:
        if overlap_ranks(pip, t) != p:
            raise NotDecodableError("ranking sequence mismatch")
        return pip
    n = len(pip) + tprime
    if n <= t:
        raise ValueError("need n > t")
    if len(set(pip) | set(missing)) != n:
        raise ValueError("reconstruct requires distinct entries")
    found = set()
    if len(p) == n - t:
        r = _ranks(pip, t)
        # p agrees with r on its first `head` windows and, shifted by
        # tprime, on its last `tail`
        head = next((i for i, v in enumerate(r) if p[i] != v), len(r))
        tail = next(
            (i for i in range(len(r)) if p[-1 - i] != r[-1 - i]), len(r)
        )
        for pos in range(
            max(1, len(pip) - t + 1 - tail), min(len(pip) + 1, head + t + 1) + 1
        ):
            # seg is the inserted symbols with up to t of pip either side: its
            # windows, from i0 (0-based) on, are those holding one of them
            i0 = max(0, pos - 1 - t)
            left, right = pip[i0 : pos - 1], pip[pos - 1 : pos + t - 1]
            want = p[i0 : i0 + len(left) + tprime + len(right) - t]
            for order in permutations(sorted(missing)):
                seg = left + order + right
                if all(_rank(seg[k : k + t + 1]) == v for k, v in enumerate(want)):
                    found.add(pip[: pos - 1] + order + pip[pos - 1 :])
    if len(found) != 1:
        raise NotDecodableError("no unique consecutive reinsertion matches")
    return found.pop()


@dataclass(frozen=True)
class PermCodeParams:
    n: int
    t: int
    delta: int
    P: int
    c0: int
    c1: int
    sums: tuple  # ((d1,e1),(d2,e2)) over the ranking sequence blocks

    def __post_init__(self) -> None:
        if min(self.n - self.t, self.delta + 2 * self.t - 1) > self.P:
            raise ValueError(
                "require P >= min(n - t, delta + 2t - 1) so the ranking "
                "window fits a block"
            )
        if shape(self.sums) != SUMS_SHAPE:
            raise ValueError("require sums ((d1, e1), (d2, e2))")

    @property
    def density(self) -> DensityParams:
        return DensityParams(self.n, self.t, self.delta)

    @property
    def rank_alphabet(self) -> tuple:
        return tuple(range(1, factorial(self.t + 1) + 1))


def perm_labeler(params: PermCodeParams) -> QaryBlockLabeler:
    """Substring-edit oracle over the ranking alphabet via per-row binary
    composition."""
    q = factorial(params.t + 1) + 1  # symbols 1..(t+1)!, 0 reserved for pad
    lengths = {2 * params.P, params.P}
    oracles = {
        k: oracle_build_brute(k, params.t, "edit") for k in lengths
    }
    return QaryBlockLabeler(q, oracles, params.rank_alphabet)


def perm_member(pi: tuple, params: PermCodeParams, labeler) -> bool:
    if len(pi) != params.n or sorted(pi) != list(range(1, params.n + 1)):
        return False
    if loc_residues(bp_map(pi), params.density) != (params.c0, params.c1):
        return False
    p = overlap_ranks(pi, params.t)
    return block_syndromes(p, params.P, labeler) == params.sums


def pleqt_decode(pip: tuple, params: PermCodeParams, labeler) -> tuple:
    """End-to-end decoder: identify missing symbols, localize on the half
    indicator, repair the ranking sequence, reinsert."""
    n, t = params.n, params.t
    tprime = n - len(pip)
    if tprime == 0:
        if not perm_member(pip, params, labeler):
            raise NotDecodableError("input is not a codeword")
        return pip
    if not 1 <= tprime <= t:
        raise ValueError("burst longer than t")
    missing = tuple(sorted(set(range(1, n + 1)) - set(pip)))
    if len(missing) != tprime:
        raise ValueError("received word is not a permutation minus a burst")
    b_rx = tuple(1 if v > n / 2 else 0 for v in pip)
    window = perm_locate(b_rx, params.c0, params.c1, params.density)
    # the substring edit on the ranking sequence spans [s - t, s + t' - 1]
    # for a burst starting at s
    p_window = Interval(
        max(1, window.lo - t), max(1, min(n - t, window.hi))
    )
    # one substring edit of length <= 2t inside the window repairs the
    # ranking sequence, by the block scheme of the binary block code
    pp = overlap_ranks(pip, t)
    p = cpb_decode(pp, n - t, p_window, params.sums, labeler, params.P)
    pi = reconstruct(pip, missing, p, t)
    if not any(burst_starts(pi, pip, t)):
        raise NotDecodableError("reconstruction is not burst-consistent")
    return pi
