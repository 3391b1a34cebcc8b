"""Tests for period-2-limited encoding, window-bounded burst decoding, and
the q-ary two-burst code assembled from them."""
import hashlib
import itertools
import random

import pytest

from burstcodes.classic import levenshtein_residues
from burstcodes.pll2burst import (
    C2BParams,
    PBoundedParams,
    c2b_decode,
    c2b_member,
    pbounded_decode,
    pbounded_member,
    pbounded_residues,
    pll_cap,
    pll_decode,
    pll_encode,
)
from burstcodes.seqcore import (
    Burst,
    NotDecodableError,
    apply_burst,
    burst_starts,
    bursts,
    from_matrix,
    longest_period2,
)
from burstcodes import verify


def bits(s):
    return tuple(int(c) for c in s)


class TestPllEncode:
    def test_worked_trace(self):
        # [PAPER] worked 16-bit example, byte-exact
        x = bits("1101010101010101")
        y = pll_encode(x)
        assert y == bits("101010110010001011")

    def test_worked_trace_roundtrip(self):
        x = bits("1101010101010101")
        assert pll_decode(pll_encode(x), len(x)) == x

    def test_length_is_n_plus_2(self):
        # [TRIVIAL] output always has exactly two extra bits
        for x in itertools.product((0, 1), repeat=10):
            assert len(pll_encode(x)) == 12

    def test_unchanged_input_gets_marker(self):
        # [DERIVED] a word with no long period-2 run is passed through
        x = bits("1101001110") + bits("01")  # n=12, max period-2 run short
        assert longest_period2(x) <= pll_cap(len(x))
        assert pll_encode(x) == x + (1, 0)

    def test_exhaustive_n10(self):
        # every 10-bit input: round-trip and period cap on the payload prefix
        n = 10
        cap = pll_cap(n)
        for x in itertools.product((0, 1), repeat=n):
            y = pll_encode(x)
            assert len(y) == n + 2
            assert longest_period2(y) <= cap
            assert pll_decode(y, n) == x

    @pytest.mark.parametrize("n", [32, 64])
    def test_random_large(self, n):
        import random

        rng = random.Random(7)
        cap = pll_cap(n)
        for _ in range(300):
            x = tuple(rng.randint(0, 1) for _ in range(n))
            y = pll_encode(x)
            assert len(y) == n + 2
            assert longest_period2(y) <= cap
            assert pll_decode(y, n) == x

    def test_min_length_enforced(self):
        with pytest.raises(ValueError):
            pll_encode((0, 1) * 2)
        # the decoder's closing re-encode rejects such n whatever y holds
        for y in ((1,) * 6, (0, 1, 0, 1, 1, 0)):
            with pytest.raises(ValueError):
                pll_decode(y, 4)

    def test_outputs_pinned(self):
        # the encodings of _digest_inputs(), recorded from the per-start
        # window scan the diff-string search replaced
        words = _digest_inputs()
        ys = [pll_encode(x) for x in words]
        for x, y in zip(words, ys):
            assert pll_decode(y, len(x)) == x
        digest = hashlib.sha256(repr(ys).encode()).hexdigest()
        assert digest == PLL_DIGEST

    def test_decode_outcomes_pinned(self):
        # the outcome of each input of _decode_inputs() is the decoded word
        # or "refused"; the refusal messages are not pinned
        def outcome(y, n):
            try:
                return pll_decode(y, n)
            except NotDecodableError:
                return "refused"

        outs = [outcome(y, n) for y, n in _decode_inputs()]
        assert 0 < outs.count("refused") < len(outs)
        digest = hashlib.sha256(repr(outs).encode()).hexdigest()
        assert digest == PLL_DECODE_DIGEST

    def test_resume_matches_rescan(self):
        # after a cut the search resumes cap bits before it; words with
        # several planted period-2 runs make windows that span a cut
        rng = random.Random("pll-resume")
        for n in (16, 64, 128):
            cap = pll_cap(n)
            for _ in range(200):
                x = [rng.randint(0, 1) for _ in range(n)]
                for _ in range(rng.randint(2, 4)):
                    length = min(n, rng.randint(cap - 2, 3 * cap))
                    end = rng.randint(length, n)
                    a, b = rng.randint(0, 1), rng.randint(0, 1)
                    x[end - length : end] = ((a, b) * length)[:length]
                assert pll_encode(tuple(x)) == _rescan_encode(x)


def _rescan_encode(x):
    """pll_encode as it searches every window from position 1 after each
    cut."""
    n = len(x)
    clog, cap = (n - 1).bit_length(), pll_cap(n)
    y, nn = list(x) + [1, 0], n

    def first(y):
        # 1-based start of the first period-2 window of cap + 1 bits, or 0
        starts = range(1, len(y) - cap + 1)
        return next(
            (i for i in starts if all(y[j] == y[j + 2] for j in range(i - 1, i + cap - 2))),
            0,
        )

    while 1 <= (i := first(y)) <= nn - clog - 3:
        a, b = y[i - 1], y[i]
        del y[i - 1 : i - 1 + cap]
        y += [0, a, b, *((i >> j) & 1 for j in range(clog - 1, -1, -1)), 1, 1]
        nn -= cap
    return tuple(y)


PLL_DIGEST = "ad00c31618add8e37f596bf9b452660ee08fdf16cb05cbd9bf6f2da679a8d773"


PLL_DECODE_DIGEST = "7d23fd757324c5cc5c858a7a8d55e699f828d2a3ebf594e783a6670035111283"


def _decode_inputs():
    """Every y of n + 2 bits at n = 10, 11 and 12, then seeded y at n = 16
    and 64: half uniform, half encodings of words with one to three planted
    period-2 runs of cap - 1 to 2 cap + 4 bits, with one bit flipped."""
    inputs = [
        (y, n) for n in (10, 11, 12) for y in itertools.product((0, 1), repeat=n + 2)
    ]
    rng = random.Random("pll-decode")
    for n in (16, 64):
        cap = pll_cap(n)
        for _ in range(500):
            inputs.append((tuple(rng.randint(0, 1) for _ in range(n + 2)), n))
            x = [rng.randint(0, 1) for _ in range(n)]
            for _ in range(rng.randint(1, 3)):
                length = min(n, rng.randint(cap - 1, 2 * cap + 4))
                end = rng.randint(length, n)
                a, b = rng.randint(0, 1), rng.randint(0, 1)
                x[end - length : end] = ((a, b) * length)[:length]
            y = list(pll_encode(tuple(x)))
            y[rng.randrange(n + 2)] ^= 1
            inputs.append((tuple(y), n))
    return inputs


def _digest_inputs():
    """Seeded words at n = 10, 16, 64 and 128: uniform ones; ones with one
    to three planted period-2 runs of cap - 1 to 2 cap + 4 bits, some
    longer than 2 cap and some ending at one of the last four payload bits,
    where a window to cut reaches into the marker (the last start tried is
    n - ceil(log n) - 3); and ones whose every third bit breaks period 2,
    which the encoder leaves as they are."""
    rng = random.Random("pll-digest")
    words = []
    for n in (10, 16, 64, 128):
        cap = pll_cap(n)
        words += [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(150)]
        for k in range(300):
            x = [rng.randint(0, 1) for _ in range(n)]
            for _ in range(rng.randint(1, 3)):
                length = min(n, rng.randint(cap - 1, 2 * cap + 4))
                end = n - rng.randrange(4) if k % 3 == 0 else rng.randint(length, n)
                a, b = rng.randint(0, 1), rng.randint(0, 1)
                x[end - length : end] = ((a, b) * length)[:length]
            words.append(tuple(x))
        for _ in range(50):
            x = [rng.randint(0, 1) for _ in range(n)]
            for j in range(2, n, 3):
                x[j] = 1 - x[j - 2]
            words.append(tuple(x))
    return words


class TestLocate:
    def test_unique_burst(self):
        # [DERIVED] 1100110011 minus positions 3-4 leaves 11110011 only one way
        x = bits("1100110011")
        rx = apply_burst(x, Burst(3, 2))
        assert list(burst_starts(x, rx, 2)) == [3]

    def test_interval_covers_all_consistent_starts(self):
        # property: for every word and burst the true start is found
        for x in itertools.product((0, 1), repeat=8):
            for b in bursts(8, 2):
                assert b.start in burst_starts(x, apply_burst(x, b), 2)

    def test_rejects_non_descendant(self):
        assert not burst_starts(bits("0000"), bits("111"), 1)


class TestPBounded:
    def test_membership_formula(self):
        # [DERIVED] at n=12, P=4 the residue pair (c=2, d=1) keeps 174 words
        params = PBoundedParams(12, 4, 2, 1)
        words = [
            x
            for x in itertools.product((0, 1), repeat=12)
            if pbounded_member(x, params)
        ]
        assert len(words) == 174

    def test_wrong_length_is_no_member(self):
        assert not pbounded_member((0,) * 11, PBoundedParams(12, 4, 2, 1))

    def test_exhaustive_window_decoding(self):
        # every codeword, burst <= 2, covering window at n=10, P=4
        n, P = 10, 4
        book = verify.sieve("pbounded", n, P=P)
        c, d = book.spec.params["c"], book.spec.params["d"]
        params = PBoundedParams(n, P, c, d)
        for x in book.words:
            for b in bursts(n, 2, upto=True):
                rx = apply_burst(x, b)
                hi = b.start + b.length - 1
                for m in range(max(1, hi - P + 1), b.start + 1):
                    if m + P - 1 < hi:
                        continue
                    assert pbounded_decode(rx, params, m) == x

    def test_zero_deletion_identity(self):
        book = verify.sieve("pbounded", 10, P=4)
        params = PBoundedParams(10, 4, book.spec.params["c"], book.spec.params["d"])
        w = book.words[0]
        assert pbounded_decode(w, params, 1) == w

    def test_non_codeword_rejected(self):
        book = verify.sieve("pbounded", 10, P=4)
        c, d = book.spec.params["c"], book.spec.params["d"]
        params = PBoundedParams(10, 4, c, d)
        bad = next(
            x
            for x in itertools.product((0, 1), repeat=10)
            if not pbounded_member(x, params)
        )
        with pytest.raises(NotDecodableError):
            pbounded_decode(bad, params, 1)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PBoundedParams(10, 4, 8, 0)
        with pytest.raises(ValueError):
            PBoundedParams(10, 4, 0, 3)


@pytest.fixture(scope="module")
def book():
    return verify.sieve("c2b", 12, q=4, max_words=64)


class TestC2B:
    def make_params(self, book):
        p = book.spec.params
        return C2BParams(book.spec.n, book.spec.q, p["a"], p["rows"])

    def test_membership(self, book):
        params = self.make_params(book)
        for u in book.words:
            assert c2b_member(u, params)

    def test_all_bursts_roundtrip(self, book):
        params = self.make_params(book)
        for u in book.words[:24]:
            for b in bursts(len(u), 2, upto=True):
                assert c2b_decode(apply_burst(u, b), params) == u

    def test_zero_deletion_identity(self, book):
        params = self.make_params(book)
        u = book.words[0]
        assert c2b_decode(u, params) == u

    def test_long_word_roundtrip(self):
        # seeded codewords at n = 1,024, q = 4: row 1 drawn until its period-2
        # runs fit the cap, the code's residues read off the word itself
        rng = random.Random("c2b/1024")
        n = 1024
        for _ in range(4):
            row1 = ()
            while not row1 or longest_period2(row1) > pll_cap(n):
                row1 = tuple(rng.randint(0, 1) for _ in range(n))
            row2 = tuple(rng.randint(0, 1) for _ in range(n))
            (a,) = levenshtein_residues(row1, n)
            params = C2BParams(n, 4, a, (pbounded_residues(row2, pll_cap(n)),))
            u = from_matrix((row1, row2), 4)
            assert c2b_member(u, params)
            for _ in range(50):
                d = rng.randint(1, 2)
                rx = apply_burst(u, Burst(rng.randint(1, n - d + 1), d))
                assert c2b_decode(rx, params) == u

    def test_odd_alphabet_rejected(self):
        with pytest.raises(ValueError):
            C2BParams(12, 3, 0, ())

    def test_row_residues_for_every_row_but_the_first(self):
        with pytest.raises(ValueError, match="every row but the first"):
            C2BParams(12, 4, 0, ())

    def test_wrong_length_is_no_member(self, book):
        assert not c2b_member(book.words[0][:-1], self.make_params(book))

    def test_non_codeword_rejected(self, book):
        params = self.make_params(book)
        u = book.words[0]
        bad = (u[0] ^ 1,) + u[1:]
        if not c2b_member(bad, params):
            with pytest.raises(NotDecodableError):
                c2b_decode(bad, params)
