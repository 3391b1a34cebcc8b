"""The incremental candidate scans of `tburst.locate_burst` and
`perm.reconstruct` against the plain enumerations they replace: rebuild
every reinsertion and recompute its whole-word statistic."""
import itertools
import random
from functools import lru_cache

import pytest

from burstcodes.perm import lex_rank, overlap_ranks, prj, reconstruct
from burstcodes.seqcore import (
    Interval,
    NotDecodableError,
    apply_burst,
    burst_starts,
    bursts,
)
from burstcodes.tburst import DensityParams, loc_residues, locate_burst

# the references meet the same words and windows many times over
residues = lru_cache(maxsize=None)(loc_residues)
window_rank = lru_cache(maxsize=None)(lambda u: lex_rank(prj(u)))


@lru_cache(maxsize=None)
def reinsertions(xp, tprime):
    return {
        xp[: s - 1] + bits + xp[s - 1 :]
        for s in range(1, len(xp) + 2)
        for bits in itertools.product((0, 1), repeat=tprime)
    }


def ref_locate_burst(xp, c0, c1, dp, extra_check=None):
    """Test each distinct reinsertion for membership in the localization
    code and take the starts of every member's bursts."""
    tprime = dp.n - len(xp)
    starts = [
        s
        for x in reinsertions(xp, tprime)
        if residues(x, dp) == (c0, c1) and (extra_check is None or extra_check(x))
        for s in burst_starts(x, xp, tprime)
    ]
    if not starts:
        raise NotDecodableError("localization syndromes inconsistent")
    return Interval(min(starts), max(starts) + tprime - 1)


def ref_reconstruct(pip, missing, p, t):
    """Re-rank every window of every consecutive reinsertion."""

    def ranks(pi):
        return tuple(window_rank(pi[i : i + t + 1]) for i in range(len(pi) - t))

    found = set()
    for pos in range(1, len(pip) + 2):
        for order in itertools.permutations(sorted(missing)):
            cand = pip[: pos - 1] + tuple(order) + pip[pos - 1 :]
            if ranks(cand) == p:
                found.add(cand)
    if len(found) != 1:
        raise NotDecodableError("no unique consecutive reinsertion matches")
    return found.pop()


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotDecodableError as exc:
        return str(exc)


def balanced(x):
    return sum(x) == (len(x) + 1) // 2


class TestLocateEquivalence:
    # every received word of length n - t' at n <= 12 is some burst of some
    # word, so the scan covers every input the decoder can see
    @pytest.mark.parametrize(
        "n,t,delta", [(6, 1, 2), (9, 1, 3), (10, 2, 5), (12, 1, 4), (12, 2, 6)]
    )
    def test_exhaustive(self, n, t, delta):
        dp = DensityParams(n, t, delta)
        # locate_burst takes the weight of a balanced word, the scan the predicate
        checks = [(None, None)]
        if n <= 10:
            checks.append(((n + 1) // 2, balanced))
        for tprime in range(1, t + 1):
            for xp in itertools.product((0, 1), repeat=n - tprime):
                for c0 in range(4):
                    for c1 in (1, n + 1):
                        for ones, check in checks:
                            assert outcome(
                                locate_burst, xp, c0, c1, dp, ones
                            ) == outcome(ref_locate_burst, xp, c0, c1, dp, check)

    def test_member_residues_long_rows(self):
        # residues of some dense reinsertion, so that most scans find
        # starts, on random rows long enough for many pattern occurrences
        rng = random.Random(11)
        for n, t, delta in ((24, 1, 6), (32, 2, 7), (40, 2, 12)):
            dp = DensityParams(n, t, delta)
            for _ in range(12):
                x = tuple(rng.randrange(2) for _ in range(n))
                for b in rng.sample(list(bursts(n, t, upto=True)), 8):
                    xp = apply_burst(x, b)
                    found = (residues(y, dp) for y in reinsertions(xp, b.length))
                    dense = [r for r in found if r is not None]
                    c0, c1 = rng.choice(dense) if dense else (0, 0)
                    for ones, check in ((None, None), ((n + 1) // 2, balanced)):
                        assert outcome(
                            locate_burst, xp, c0, c1, dp, ones
                        ) == outcome(ref_locate_burst, xp, c0, c1, dp, check)

    def test_errors_kept(self):
        with pytest.raises(ValueError, match="shorter than the pattern"):
            locate_burst((0, 1, 1), 0, 0, DensityParams(4, 3, 6))
        dp = DensityParams(6, 1, 2)
        with pytest.raises(ValueError, match="burst longer than t"):
            locate_burst((0, 1, 1, 0), 0, 0, dp)
        with pytest.raises(ValueError, match="not binary"):
            locate_burst((0, 2, 1, 0, 1), 0, 0, dp)


class TestReconstructEquivalence:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive(self, n):
        rng = random.Random(n)
        for t in range(1, min(3, n - 1) + 1):
            for pi in itertools.permutations(range(1, n + 1)):
                p = overlap_ranks(pi, t)
                # one rank changed, as a misdecoded ranking sequence would be
                j = rng.randrange(len(p))
                bent = p[:j] + (p[j] % 6 + 1,) + p[j + 1 :]
                for b in bursts(n, t, upto=True):
                    pip = apply_burst(pi, b)
                    missing = tuple(sorted(set(pi) - set(pip)))
                    for q in (p, bent):
                        assert outcome(
                            reconstruct, pip, missing, q, t
                        ) == outcome(ref_reconstruct, pip, missing, q, t)

    def test_wrong_length_sequence(self):
        pi = (3, 1, 4, 2, 5)
        p = overlap_ranks(pi, 2)
        for q in (p[1:], p + (1,)):
            with pytest.raises(NotDecodableError):
                reconstruct((3, 1, 5), (2, 4), q, 2)

    def test_short_received_word(self):
        # pip no longer than t has no window of its own
        assert reconstruct((2,), (1, 3), overlap_ranks((1, 3, 2), 2), 2) == (1, 3, 2)
        with pytest.raises(ValueError, match="need n > t"):
            reconstruct((2,), (1,), (1,), 2)
