"""Tests for dense-pattern machinery: indicators, localization, pattern-free
compression, dense encoding, syndrome oracles, and the block-parity code."""
import hashlib
import itertools
import random

import pytest

from burstcodes.seqcore import (
    Burst,
    Interval,
    NotDecodableError,
    apply_burst,
    bursts,
)
from burstcodes.tburst import (
    BlockLabeler,
    CtbParams,
    DensityParams,
    block_layout,
    block_syndromes,
    compress_g,
    contains_pattern,
    cpb_decode,
    ctb_decode,
    ctb_member,
    ctb_oracles,
    decompress_g,
    default_delta,
    dense_decode,
    dense_encode,
    indicator_alpha,
    is_dense,
    locate_burst,
    oracle_build_brute,
    oracle_load,
    oracle_save,
    padded_length,
)
from burstcodes import verify

# admissible compression parameters: 3^41 < 2^66
DP1 = DensityParams(1024, 1, 82)


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


class TestIndicator:
    def test_worked_indicator(self):
        # [DERIVED] by hand: w = 01, occurrences at 1, 4, 7 (1-based windows)
        dp = DensityParams(8, 1, 4)
        ind, alpha = indicator_alpha((0, 1, 1, 0, 1, 0, 0, 1), dp)
        assert ind == (1, 0, 0, 1, 0, 0, 1)
        assert alpha == (1, 3, 3, 1)

    def test_alpha_sums_to_padded_length(self):
        dp = DensityParams(10, 2, 6)
        for _ in range(50):
            x = tuple(random.Random(_).randint(0, 1) for _ in range(10))
            ind, alpha = indicator_alpha(x, dp)
            assert sum(alpha) == len(ind) + 1

    def test_pattern_word(self):
        dp = DensityParams(4, 2, 4)
        ind, alpha = indicator_alpha((0, 0, 1, 1), dp)
        assert ind == (1,)
        assert alpha == (1, 1)
        assert is_dense((0, 0, 1, 1), dp)

    def test_all_zero_not_dense(self):
        dp = DensityParams(12, 2, 6)
        assert not is_dense((0,) * 12, dp)

    def test_default_delta(self):
        # [TRIVIAL] t * 2^(2t+1) * ceil(log n)
        assert default_delta(1024, 1) == 1 * 8 * 10
        assert default_delta(1024, 2) == 2 * 32 * 10
        assert default_delta(1024, 2, perm=True) == 2 * 64 * 10


@pytest.fixture(scope="module")
def loc_book():
    return verify.sieve("loc", 12, t=2, delta=6)


class TestLocate:
    def test_locate_covers_burst(self, loc_book):
        dp = DensityParams(12, 2, loc_book.spec.params["delta"])
        c0, c1 = loc_book.spec.params["c0"], loc_book.spec.params["c1"]
        for x in loc_book.words:
            for b in bursts(12, 2, upto=True):
                iv = locate_burst(apply_burst(x, b), c0, c1, dp)
                assert iv.lo <= b.start
                assert b.start + b.length - 1 <= iv.hi

    def test_interval_length_bounded(self, loc_book):
        dp = DensityParams(12, 2, loc_book.spec.params["delta"])
        c0, c1 = loc_book.spec.params["c0"], loc_book.spec.params["c1"]
        for x in loc_book.words:
            for b in bursts(12, 2, upto=True):
                iv = locate_burst(apply_burst(x, b), c0, c1, dp)
                assert len(iv) <= dp.delta + b.length - 1

    def test_zero_deletion(self, loc_book):
        dp = DensityParams(12, 2, loc_book.spec.params["delta"])
        c0, c1 = loc_book.spec.params["c0"], loc_book.spec.params["c1"]
        assert locate_burst(loc_book.words[0], c0, c1, dp) == Interval(1, 1)

    def test_intervals_match_recorded_digest(self, loc_book):
        # every burst of every word, one bit then flipped in about half of
        # the cases, located with and without a balance check; the digest
        # was recorded from the scan over every (start, bits) reinsertion
        dp = DensityParams(12, 2, loc_book.spec.params["delta"])
        c0, c1 = loc_book.spec.params["c0"], loc_book.spec.params["c1"]
        rng = random.Random(7)
        out = []
        for x in loc_book.words:
            for b in bursts(12, 2, upto=True):
                rx = list(apply_burst(x, b))
                if rng.random() < 0.5:
                    rx[rng.randrange(len(rx))] ^= 1
                for check in (None, lambda c: sum(c) == 6):
                    try:
                        iv = locate_burst(tuple(rx), c0, c1, dp, check)
                        out.append((iv.lo, iv.hi))
                    except NotDecodableError:
                        out.append(None)
        assert len(out) == 10350 and out.count(None) == 3129
        assert _digest(out) == (
            "84b6199502105a00654165a718ae069c2f294aa42d32026403024279c646ccc6"
        )


class TestCompression:
    def pattern_free_words(self, dp):
        # for t=1 pattern-free (no 01) means sorted 1...10...0
        for ones in range(dp.delta + 1):
            yield (1,) * ones + (0,) * (dp.delta - ones)

    def test_roundtrip_all_pattern_free_t1(self):
        for s in self.pattern_free_words(DP1):
            bits = compress_g(s, DP1)
            assert len(bits) == DP1.out_len
            assert decompress_g(bits, DP1) == s

    def test_roundtrip_random_t2(self):
        dp = DensityParams(1 << 28, 2, 1640)
        rng = random.Random(3)
        for _ in range(10):
            s = []
            while len(s) < dp.delta:
                s.append(rng.randint(0, 1))
                if tuple(s[-4:]) == (0, 0, 1, 1):
                    s[-1] = 0
            s = tuple(s)
            assert not contains_pattern(s, dp.w)
            assert decompress_g(compress_g(s, dp), dp) == s

    def test_rejects_pattern(self):
        s = (0, 1) + (0,) * (DP1.delta - 2)
        with pytest.raises(ValueError):
            compress_g(s, DP1)

    def test_capacity_precondition(self):
        # too little output room: 3^10 > 2^4
        with pytest.raises(ValueError):
            compress_g((0,) * 20, DensityParams(1024, 1, 20))

    def test_odd_delta_rejected(self):
        with pytest.raises(ValueError):
            compress_g((0,) * 21, DensityParams(1024, 2, 21))


class TestDenseEncoding:
    def test_roundtrip_random(self):
        rng = random.Random(11)
        n = DP1.n
        for _ in range(10):
            x = tuple(rng.randint(0, 1) for _ in range(n))
            y = dense_encode(x, DP1)
            assert len(y) == n + 4 * DP1.t
            assert dense_decode(y, DP1) == x

    @pytest.mark.parametrize(
        "x",
        [
            (0,) * 1024,
            (1,) * 1024,
            (1,) * 512 + (0,) * 512,
            ((0, 1) * 512),
        ],
        ids=["zeros", "ones", "step", "alternating"],
    )
    def test_roundtrip_adversarial(self, x):
        y = dense_encode(x, DP1)
        assert dense_decode(y, DP1) == x

    def test_output_is_dense(self):
        rng = random.Random(13)
        for _ in range(5):
            x = tuple(rng.randint(0, 1) for _ in range(DP1.n))
            y = dense_encode(x, DP1)
            # every delta-window of the output contains the pattern
            dp_out = DensityParams(len(y), DP1.t, DP1.delta)
            assert is_dense(y, dp_out)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            dense_encode((0,) * 10, DP1)

    def test_records_match_recorded_digest(self):
        # words of long runs cut pattern-free windows; a quarter end in
        # 0 1^a 0^(63-a), whose window runs one bit past the core and is cut
        # as a padded record; the digest was recorded from the two-branch
        # record code
        dp = DensityParams(128, 1, 64)
        rng = random.Random(9)
        outs = []
        for _ in range(300):
            longest = rng.choice((8, 32, 64, 128))
            x, bit = [], rng.randint(0, 1)
            while len(x) < 128:
                x.extend([bit] * rng.randint(1, longest))
                bit ^= 1
            x = x[:128]
            if rng.random() < 0.25:
                a = rng.randint(1, 63)
                x[64:] = [0] + [1] * a + [0] * (63 - a)
            outs.append(dense_encode(tuple(x), dp))
        assert _digest(outs) == (
            "2e6f481e33ab30571c2e9c12f934ade28399a4467d7a8a917c10b09cb4778036"
        )


# (model, k, t, label_space, SHA-256 of the label table in product order),
# recorded from the set-based greedy colouring
ORACLE_DIGESTS = [
    ("burst", 8, 1, 17, "3601a9c8c2f055a22c99d706ac2796495de10bee8aa9a59763415ebbd41032eb"),
    ("burst", 8, 2, 31, "925755c32549f0425a44b368c98272582ea4f3ac6a46f225b4e78b5f50ddbe24"),
    ("burst", 8, 3, 46, "ac982e9bf734ded4806abba1b499c1d65943f9151cc209cf66a288f7f9a22a49"),
    ("burst", 10, 1, 24, "76d10f5866893cc7ad2a6688234bee1a40813ac7ad6315a0799a1538096391f5"),
    ("burst", 10, 2, 40, "b27ac095b8d75a64b62396c2f25b9e83ffef96d63ad56024e07bcc9d8fc70cc4"),
    ("burst", 10, 3, 68, "7cc1a20db551ec76eb154a5725b23e574f8de175b2379e1fd0b6fd3be86ebe79"),
    ("burst", 12, 1, 32, "6151adaaa2f99e36752ba91380a8e297ec6c294e8e4ca7c8f0d5cee2caf094af"),
    ("burst", 12, 2, 54, "8acc0f61832aedfe7382cf9ed336b670f51f46ba2aa27c643c44f711a46f2785"),
    ("burst", 12, 3, 92, "31f49571640bc330339c81449dbf832207fe9ac762db03f809f4002b56ac2455"),
    ("burst", 14, 1, 38, "0db257e5f8f4a8d8f35e4a87bae75f8f2281d1b5763a6723637451045e82e7f6"),
    ("burst", 14, 2, 68, "f20a7b5baa5df94926810120fa7059df703d6d94955db74930b9c2368b4a3afa"),
    ("burst", 14, 3, 118, "eef28231108bab57bcddc9ed770be8316936ab111327e90b901ea114e4bbeed0"),
    ("edit", 6, 1, 33, "1177865bd0f7f52f3332ad3ebbbd62cf5cc31a71c75050e94d957fa9dd92573b"),
    ("edit", 6, 2, 64, "ccf91e2b960f51464b77d855d580f583fe4e1cf0472832315bad6d855cf732f6"),
    ("edit", 8, 1, 54, "f86e0007cbf58dbe4fb15d9125ca88e49ae945f305f578bb1645e1993842eebc"),
    ("edit", 8, 2, 256, "ce694d5c7d7c923baab12ec1d6802c1c51fd2b080f75601205f07d9129708f35"),
    ("edit", 10, 1, 81, "7571a6f6907a56a0dbf6a2ff21f4c3bf3ded5d405f1879165066a1eaf355dafd"),
    ("edit", 10, 2, 503, "d23bce5855e96b34a3aa09a320a2f2d75ff0082e2b6795fc24215acb515fb73a"),
]


class TestOracles:
    @pytest.mark.parametrize(
        "model, k, t, space, digest", ORACLE_DIGESTS,
        ids=[f"{m}-k{k}-t{t}" for m, k, t, _, _ in ORACLE_DIGESTS],
    )
    def test_label_table_matches_recorded_digest(self, model, k, t, space, digest):
        oracle = oracle_build_brute(k, t, model)
        assert oracle.label_space == space
        table = [oracle.labels[v] for v in itertools.product((0, 1), repeat=k)]
        assert _digest(table) == digest

    def test_confusable_blocks_distinct_labels(self):
        from burstcodes.tburst import _descendants

        oracle = oracle_build_brute(6, 2, "burst")
        blocks = list(itertools.product((0, 1), repeat=6))
        for u in blocks:
            du = _descendants(u, 2, "burst")
            for v in blocks:
                if u < v and du & _descendants(v, 2, "burst"):
                    assert oracle.labels[u] != oracle.labels[v]

    def test_edit_model_confusability(self):
        from burstcodes.tburst import _descendants

        oracle = oracle_build_brute(5, 1, "edit")
        blocks = list(itertools.product((0, 1), repeat=5))
        for u in blocks:
            du = _descendants(u, 1, "edit")
            for v in blocks:
                if u < v and du & _descendants(v, 1, "edit"):
                    assert oracle.labels[u] != oracle.labels[v]

    def test_save_load_roundtrip(self, tmp_path):
        oracle = oracle_build_brute(6, 2, "burst")
        path = str(tmp_path / "oracle.bin")
        oracle_save(oracle, path)
        loaded = oracle_load(path)
        assert loaded.k == oracle.k
        assert loaded.t == oracle.t
        assert loaded.model == oracle.model
        assert loaded.label_space == oracle.label_space
        assert loaded.labels == oracle.labels

    def test_size_cap(self):
        with pytest.raises(ValueError):
            oracle_build_brute(24, 2, "burst")

    def test_deterministic(self):
        a = oracle_build_brute.__wrapped__(6, 2, "burst")
        b = oracle_build_brute.__wrapped__(6, 2, "burst")
        assert a.labels == b.labels


class TestBlockLayout:
    @pytest.mark.parametrize("P,s", [(3, 2), (4, 3), (5, 4)])
    def test_even_blocks_partition(self, P, s):
        L = 2 * P * s
        even, _ = block_layout(L, P)
        covered = []
        for sp in even:
            covered.extend(range(sp.lo, sp.hi + 1))
        assert covered == list(range(1, L + 1))

    @pytest.mark.parametrize("P,s", [(3, 2), (4, 3), (5, 4)])
    def test_every_short_interval_fits_a_block(self, P, s):
        L = 2 * P * s
        even, odd = block_layout(L, P)
        blocks = list(even) + list(odd)
        for lo in range(1, L + 1):
            for length in range(1, P + 1):
                hi = lo + length - 1
                if hi > L:
                    continue
                iv = Interval(lo, hi)
                assert any(sp.contains(iv) for sp in blocks)

    def test_padded_length(self):
        assert padded_length(12, 4) == 16
        assert padded_length(16, 4) == 16
        assert padded_length(17, 4) == 24

    def test_unpadded_rejected(self):
        with pytest.raises(ValueError):
            block_layout(10, 4)


@pytest.fixture(scope="module")
def labeler():
    return BlockLabeler({k: oracle_build_brute(k, 2, "burst") for k in (4, 8)})


class TestBlockDecode:

    def test_exhaustive_small(self, labeler):
        n, P = 8, 4
        for x in itertools.product((0, 1), repeat=n):
            sums = block_syndromes(x, P, labeler)
            for b in bursts(n, 2, upto=True):
                rx = apply_burst(x, b)
                window = Interval(b.start, b.start + b.length - 1)
                assert cpb_decode(rx, n, window, sums, labeler, P) == x

    def test_window_slack(self, labeler):
        n, P = 8, 4
        x = (1, 0, 1, 1, 0, 0, 1, 0)
        sums = block_syndromes(x, P, labeler)
        b = Burst(2, 2)
        window = Interval(1, 4)  # covers the burst with slack, still <= P
        assert cpb_decode(apply_burst(x, b), n, window, sums, labeler, P) == x

    def test_oversized_window_rejected(self, labeler):
        n, P = 8, 4
        x = (1, 0, 1, 1, 0, 0, 1, 0)
        sums = block_syndromes(x, P, labeler)
        with pytest.raises(NotDecodableError):
            cpb_decode(x[:-1], n, Interval(1, 6), sums, labeler, P)


@pytest.fixture(scope="module")
def ctb_book():
    return verify.sieve("ctb", 12, q=4, t=2, delta=6, P=8)


class TestCtbPipeline:
    def make(self, book):
        p = book.spec.params
        params = CtbParams(
            book.spec.n, book.spec.q, book.spec.t,
            p["delta"], p["P"], p["c0"], p["c1"], p["row_sums"],
        )
        return params, BlockLabeler(ctb_oracles(params))

    def test_membership(self, ctb_book):
        params, labeler = self.make(ctb_book)
        for u in ctb_book.words:
            assert ctb_member(u, params, labeler)

    def test_all_bursts_roundtrip(self, ctb_book):
        params, labeler = self.make(ctb_book)
        for u in ctb_book.words:
            for b in bursts(len(u), 2, upto=True):
                assert ctb_decode(apply_burst(u, b), params, labeler) == u

    def test_zero_deletion_identity(self, ctb_book):
        params, labeler = self.make(ctb_book)
        u = ctb_book.words[0]
        assert ctb_decode(u, params, labeler) == u

    def test_window_constraint_enforced(self):
        with pytest.raises(ValueError):
            CtbParams(12, 4, 2, 10, 8, 0, 0, ((0, 0), (0, 0)))
