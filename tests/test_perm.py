"""Tests for permutation burst-deletion codes: half-indicator localization,
ranking sequences, reconstruction, and the end-to-end pipeline."""
import itertools
import random

import pytest

from burstcodes.perm import (
    PermCodeParams,
    bp_map,
    lex_rank,
    overlap_ranks,
    perm_labeler,
    perm_member,
    pleqt_decode,
    prj,
    reconstruct,
)
from burstcodes.seqcore import Burst, NotDecodableError, apply_burst, bursts
from burstcodes import verify
from math import factorial


def lex_unrank(rank: int, k: int) -> tuple:
    """The permutation of [k] of 1-based lexicographic rank `rank`: the
    reference lex_rank must invert."""
    if not 1 <= rank <= factorial(k):
        raise ValueError("rank out of range")
    rank -= 1
    avail = list(range(1, k + 1))
    out = []
    for i in range(k):
        idx, rank = divmod(rank, factorial(k - 1 - i))
        out.append(avail.pop(idx))
    return tuple(out)


class TestBpMap:
    def test_example(self):
        # [DERIVED] values above n/2 map to 1
        assert bp_map((3, 1, 4, 2)) == (1, 0, 1, 0)
        assert bp_map((2, 5, 1, 3, 4)) == (0, 1, 0, 1, 1)

    def test_balanced_even(self):
        for pi in itertools.permutations(range(1, 5)):
            assert sum(bp_map(pi)) == 2

    def test_balanced_odd(self):
        for pi in itertools.permutations(range(1, 6)):
            assert sum(bp_map(pi)) == 3


class TestRanking:
    def test_prj_examples(self):
        # [DERIVED] relative-order patterns
        assert prj((5, 2, 9)) == (2, 1, 3)
        assert prj((7, 3)) == (2, 1)
        assert prj((1, 2, 3)) == (1, 2, 3)

    def test_prj_rejects_repeats(self):
        with pytest.raises(ValueError):
            prj((1, 1, 2))

    def test_lex_rank_identity_and_reverse(self):
        # [TRIVIAL] identity ranks first, reversal ranks last
        assert lex_rank((1, 2, 3)) == 1
        assert lex_rank((3, 2, 1)) == 6

    def test_rank_unrank_bijection(self):
        for k in (3, 4):
            seen = set()
            for pi in itertools.permutations(range(1, k + 1)):
                r = lex_rank(pi)
                assert 1 <= r <= factorial(k)
                assert lex_unrank(r, k) == pi
                seen.add(r)
            assert len(seen) == factorial(k)

    def test_overlap_ranks_example(self):
        # [DERIVED] windows (2,4,1),(4,1,3) -> patterns (2,3,1),(3,1,2)
        pi = (2, 4, 1, 3)
        assert overlap_ranks(pi, 2) == (
            lex_rank((2, 3, 1)),
            lex_rank((3, 1, 2)),
        )

    def test_overlap_ranks_length(self):
        for pi in itertools.permutations(range(1, 6)):
            assert len(overlap_ranks(pi, 2)) == 3


class TestReconstruct:
    @pytest.mark.parametrize("n,t", [(5, 2), (6, 2), (5, 3)])
    def test_exhaustive_uniqueness(self, n, t):
        # no two distinct consecutive reinsertions share a ranking sequence
        for pi in itertools.permutations(range(1, n + 1)):
            p = overlap_ranks(pi, t)
            for b in bursts(n, t, upto=True):
                pip = apply_burst(pi, b)
                missing = tuple(sorted(set(range(1, n + 1)) - set(pip)))
                assert reconstruct(pip, missing, p, t) == pi

    def test_zero_insertion(self):
        pi = (2, 4, 1, 3, 5)
        assert reconstruct(pi, (), overlap_ranks(pi, 2), 2) == pi

    def test_repeated_entries_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            reconstruct((1, 2, 2), (4,), (), 1)

    def test_mismatched_sequence_rejected(self):
        pi = (2, 4, 1, 3, 5)
        wrong = tuple(reversed(overlap_ranks(pi, 2)))
        if wrong != overlap_ranks(pi, 2):
            with pytest.raises(NotDecodableError):
                reconstruct(pi, (), wrong, 2)


@pytest.fixture(scope="module")
def perm_book():
    return verify.sieve("perm", 8, t=2, delta=8, P=6)


class TestPermPipeline:
    def make(self, book):
        p = book.spec.params
        params = PermCodeParams(
            book.spec.n, book.spec.t,
            p["delta"], p["P"], p["c0"], p["c1"], p["sums"],
        )
        return params, perm_labeler(params)

    def test_membership(self, perm_book):
        params, labeler = self.make(perm_book)
        for pi in perm_book.words:
            assert perm_member(pi, params, labeler)

    def test_wrong_length_or_not_a_permutation_is_no_member(self, perm_book):
        params, labeler = self.make(perm_book)
        pi = perm_book.words[0]
        assert not perm_member(pi[:-1], params, labeler)
        assert not perm_member((pi[0],) * len(pi), params, labeler)

    def test_all_bursts_roundtrip_subset(self, perm_book):
        # the full-codebook sweep runs in the acceptance suite
        params, labeler = self.make(perm_book)
        rng = random.Random(5)
        for pi in rng.sample(perm_book.words, 24):
            for b in bursts(len(pi), 2, upto=True):
                assert pleqt_decode(apply_burst(pi, b), params, labeler) == pi

    def test_zero_deletion_identity(self, perm_book):
        params, labeler = self.make(perm_book)
        pi = perm_book.words[0]
        assert pleqt_decode(pi, params, labeler) == pi

    def test_full_length_non_codeword_refused(self, perm_book):
        params, labeler = self.make(perm_book)
        pi = next(
            pi for pi in itertools.permutations(range(1, 9))
            if not perm_member(pi, params, labeler)
        )
        with pytest.raises(NotDecodableError, match="not a codeword"):
            pleqt_decode(pi, params, labeler)

    def test_non_permutation_rejected(self, perm_book):
        params, labeler = self.make(perm_book)
        with pytest.raises(ValueError):
            pleqt_decode((1, 1, 2, 3, 4, 5), params, labeler)

    def test_window_constraint_enforced(self):
        with pytest.raises(ValueError):
            PermCodeParams(20, 2, 40, 6, 0, 0, ((0, 0), (0, 0)))

    @pytest.mark.parametrize(
        "sums", [(), (((0, 0), (0, 0)),)], ids=["none", "nested"]
    )
    def test_malformed_sums_refused(self, sums):
        # they used to reach pleqt_decode, which raised IndexError on ()
        # and TypeError on the nested sums
        with pytest.raises(ValueError, match="require sums"):
            PermCodeParams(6, 1, 4, 5, 0, 0, sums)
