"""Single-deletion and two-deletion codes: membership and decoders.

Ground truth throughout is exhaustive enumeration: sieve a parameter class
over the whole ambient space, corrupt every codeword every admissible way,
and require exact recovery.
"""
from itertools import product

import pytest

from burstcodes import classic
from burstcodes.classic import (
    ClassicParams,
    induced_decode,
    induced_deletions,
    interleaved_psi,
    is_alternating,
    levenshtein_decode,
    member,
    tenengolts_decode,
    vt_decode,
)
from burstcodes.seqcore import (
    NotDecodableError,
    apply_burst,
    Burst,
    bursts,
    phi,
    psi,
    vt_syndrome,
)
from burstcodes.verify import sieve, book_decoder, roundtrip_sweep


class TestVT:
    def test_membership(self):
        p = ClassicParams("vt", 4, 2, 0)
        assert member(p, (0, 0, 0, 0))
        assert member(p, (1, 0, 0, 1))  # VT = 5 = 0 mod 5
        assert not member(p, (1, 0, 0, 0))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_single_deletion_exhaustive(self, n):
        for a in range(n + 1):
            p = ClassicParams("vt", n, 2, a)
            for x in product((0, 1), repeat=n):
                if not member(p, x):
                    continue
                for i in range(n):
                    xp = x[:i] + x[i + 1 :]
                    assert vt_decode(xp, a, n) == x

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            vt_decode((0, 0), 0, 5)


class TestTenengolts:
    @pytest.mark.parametrize("n,q", [(5, 3), (4, 4), (6, 3)])
    def test_single_deletion_exhaustive(self, n, q):
        book = sieve("tenengolts", n, q=q)
        a, b = book.spec.params["a"], book.spec.params["b"]
        for u in book.words:
            for i in range(n):
                up = u[:i] + u[i + 1 :]
                assert tenengolts_decode(up, a, b, n, q) == u

    def test_membership_uses_ascents_and_sum(self):
        p = ClassicParams("tenengolts", 3, 3, a=0, b=0)
        for u in product(range(3), repeat=3):
            expected = (
                vt_syndrome(classic.ascent_indicator(u)) % 3 == 0
                and sum(u) % 3 == 0
            )
            assert member(p, u) == expected


class TestLevenshtein:
    def test_membership_residue(self):
        p = ClassicParams("levenshtein", 8, 2, 0)
        for x in product((0, 1), repeat=8):
            assert member(p, x) == (vt_syndrome(psi(x)) % 16 == 0)

    @pytest.mark.parametrize("n", [8, 10])
    def test_burst_up_to_two_exhaustive(self, n):
        book = sieve("levenshtein", n)
        a = book.spec.params["a"]
        for x in book.words:
            for b in bursts(n, 2, upto=True):
                assert levenshtein_decode(apply_burst(x, b), a, n) == x

    def test_identity_word_is_fixed(self):
        book = sieve("levenshtein", 8)
        a = book.spec.params["a"]
        w = book.words[0]
        assert levenshtein_decode(w, a, 8) == w

    def test_non_codeword_rejected(self):
        book = sieve("levenshtein", 8)
        a = book.spec.params["a"]
        bad = next(
            x
            for x in product((0, 1), repeat=8)
            if vt_syndrome(psi(x)) % 16 != a
        )
        with pytest.raises(NotDecodableError):
            levenshtein_decode(bad, a, 8)


class TestInduced:
    def test_interleaving_example(self):
        u = (1, 0, 6, 7, 6, 2, 3, 5)
        assert interleaved_psi(u) == (0, 0, 0, 1, 0, 0, 1, 1)

    def test_worked_example(self):
        u = (1, 0, 6, 7, 6, 2, 3, 5)
        p = ClassicParams("induced", 8, 8, a=3, b=0, c=6)
        assert member(p, u)
        up = (1, 0, 6, 2, 3, 5)  # 4th and 5th symbols gone (aba -> a)
        assert (3, up) in [(pos, res) for pos, res in induced_deletions(u)]
        assert induced_decode(up, 3, 0, 6, 8, 8) == u

    def test_induced_deletion_positions(self):
        # aba patterns: u_i == u_{i+2} allows deleting positions i+1, i+2
        u = (0, 1, 0, 2, 0)
        spots = induced_deletions(u)
        assert ((1), (0, 2, 0)) in spots
        assert len(spots) == 2

    def test_alternating_required(self):
        p = ClassicParams("induced", 4, 4, 0, 0, 0)
        assert not member(p, (1, 1, 2, 3))

    @pytest.mark.parametrize("n,q", [(6, 3), (8, 4)])
    def test_all_induced_deletions_exhaustive(self, n, q):
        book = sieve("induced", n, q=q)
        a = book.spec.params["a"]
        b = book.spec.params["b"]
        c = book.spec.params["c"]
        count = 0
        for u in book.words:
            for _, up in induced_deletions(u):
                assert induced_decode(up, a, b, c, n, q) == u
                count += 1
        assert count > 0


class TestSweepHarness:
    def test_induced_channel_sweep(self):
        book = sieve("induced", 6, q=3)
        rep = roundtrip_sweep(book, book_decoder(book), 2)
        assert rep.ok and rep.total > 0

    def test_corrupted_parameter_produces_witness(self):
        book = sieve("vt", 6)
        wrong_a = (book.spec.params["a"] + 1) % 7
        bad = lambda w, rx, b: vt_decode(rx, wrong_a, 6)
        rep = roundtrip_sweep(book, bad, 1, upto=False)
        assert not rep.ok


def test_is_alternating():
    assert is_alternating((0, 1, 0, 2))
    assert not is_alternating((0, 1, 1))
