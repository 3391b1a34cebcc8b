"""Tests for dense-pattern machinery: indicators, localization, pattern-free
compression, dense encoding, syndrome oracles, and the block-parity code."""
import hashlib
import itertools
import math
import random
from dataclasses import astuple

import pytest

from burstcodes.perm import (
    PermCodeParams,
    bp_map,
    overlap_ranks,
    perm_labeler,
    pleqt_decode,
)
from burstcodes.seqcore import (
    Burst,
    Interval,
    NotDecodableError,
    _bits_to_int,
    _int_to_bits,
    apply_burst,
    bursts,
    deletion_ball,
    from_matrix,
    matrix_rows,
    to_matrix,
    vt_syndrome,
)
from burstcodes.tburst import (
    BlockLabeler,
    CtbParams,
    DensityParams,
    QaryBlockLabeler,
    _RUN_BITS,
    _ball,
    _burst_candidates,
    _edit_candidates,
    _occurrences,
    _plan,
    _record_tail,
    block_layout,
    block_syndromes,
    compress_g,
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
    loc_residues,
    locate_burst,
    oracle_build_brute,
    padded_length,
)
from burstcodes import verify

# admissible compression parameters: 83 pattern-free windows, 66 bits
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

    @pytest.mark.parametrize("t", [1, 2])
    def test_loc_residues_match_indicator_reference(self, t):
        # every binary word of length n <= 16 against the tuple indicator:
        # up to 14 at a delta that keeps almost no word, one that splits them
        # and one that keeps every word; at 15 and 16 at the splitting one
        wrong = []
        for n in range(2 * t, 17):
            deltas = {4 * t} if n > 14 else {2 * t, 4 * t, n}
            dps = [DensityParams(n, t, d) for d in sorted(deltas)]
            for x in itertools.product((0, 1), repeat=n):
                ind, alpha = indicator_alpha(x, dps[0])
                key = sum(ind) % 4, vt_syndrome(alpha) % (2 * n)
                for dp in dps:
                    want = key if max(alpha) <= dp.delta else None
                    if (loc_residues(x, dp), is_dense(x, dp)) != (want, want is not None):
                        wrong.append((x, dp.delta))
        assert wrong == []

    def test_loc_residues_refuse_short_word(self):
        dp = DensityParams(8, 2, 6)
        for f in (loc_residues, is_dense, indicator_alpha):
            with pytest.raises(ValueError, match="shorter than the pattern"):
                f((0, 0, 1), dp)

    def test_occurrence_scan_matches_every_position(self):
        # the scan steps 2t past each occurrence, which is sound only because
        # w = 0^t 1^t does not overlap itself
        for t in (1, 2, 3):
            wb = bytes(t) + b"\1" * t
            for n in range(15):
                for x in itertools.product((0, 1), repeat=n):
                    xb = bytes(x)
                    assert _occurrences(xb, wb) == [
                        k + 1 for k in range(n) if xb.startswith(wb, k)
                    ], (t, x)

    def test_default_delta(self):
        # [TRIVIAL] t * 2^(2t+1) * ceil(log n)
        assert default_delta(1024, 1) == 1 * 8 * 10
        assert default_delta(1024, 2) == 2 * 32 * 10


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
                for ones in (None, 6):
                    try:
                        iv = locate_burst(tuple(rx), c0, c1, dp, ones)
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
            assert bytes(dp.w) not in bytes(s)
            assert decompress_g(compress_g(s, dp), dp) == s

    def test_rank_is_a_bijection(self):
        # the pattern-free strings, in product order, compress to
        # 0..N(delta)-1 and back, and N(delta) is refused; out_len = delta
        # bits makes room for every window at these small deltas
        class Wide(DensityParams):
            out_len = property(lambda self: self.delta)

        for t in (1, 2, 3):
            for delta in range(2 * t, 17):
                dp = Wide(1, t, delta)
                free = [
                    s
                    for s in itertools.product((0, 1), repeat=delta)
                    if bytes(dp.w) not in bytes(s)
                ]
                for rank, s in enumerate(free):
                    bits = compress_g(s, dp)
                    assert _bits_to_int(bits) == rank
                    assert decompress_g(bits, dp) == s
                with pytest.raises(NotDecodableError):
                    decompress_g(_int_to_bits(len(free), delta), dp)

    def test_rejects_pattern(self):
        s = (0, 1) + (0,) * (DP1.delta - 2)
        with pytest.raises(ValueError):
            compress_g(s, DP1)

    def test_capacity_precondition(self):
        # too little output room: 21 pattern-free windows > 2^4
        with pytest.raises(ValueError):
            compress_g((0,) * 20, DensityParams(1024, 1, 20))

    def test_delta_off_a_multiple_of_2t(self):
        # 170 = 2 mod 4 is the least delta whose windows fit at (1024, 2)
        with pytest.raises(ValueError):
            compress_g((0,) * 169, DensityParams(1024, 2, 169))
        dp = DensityParams(1024, 2, 170)
        for s in ((0,) * 170, (1,) * 170, (0, 1) * 85, (1,) * 83 + (0,) * 87):
            assert decompress_g(compress_g(s, dp), dp) == s


def _cut_heavy(rng, n: int, delta: int) -> tuple:
    """Constant runs and alternating stretches of up to delta bits, which
    avoid w = 0^t 1^t for t >= 2, so the encoder cuts windows."""
    x = []
    while len(x) < n:
        bit, size = rng.randint(0, 1), rng.randint(1, delta)
        if rng.random() < 0.5:
            x.extend([bit] * size)
        else:
            x.extend([bit, 1 - bit] * (size // 2))
    return tuple(x[:n])


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

    @pytest.mark.parametrize(
        "n, t, delta", [(1024, 2, 640), (1024, 2, 170), (8192, 3, 4992)]
    )
    def test_roundtrip_cut_heavy(self, n, t, delta):
        # the paper's delta at (1024, 2) and (8192, 3), and the least delta
        # whose windows fit at (1024, 2); an encoding that ends in 0 ends
        # in a record, so a window was cut
        dp = DensityParams(n, t, delta)
        rng = random.Random(f"cut/{n}/{t}/{delta}")
        cut = 0
        for _ in range(4):
            x = _cut_heavy(rng, n, delta)
            y = dense_encode(x, dp)
            cut += y[-1] == 0
            assert dense_decode(y, dp) == x
        assert cut

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
        # as a padded record; the digest was recorded with each window coded
        # by its exact rank
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
            "ce7aadc1b78a3174c8e81b967bbe67c319e419d820fd218ff367dcc9d89fc8b1"
        )

    @pytest.mark.parametrize("t", range(1, 9))
    def test_record_tails_are_suffix_free(self, t):
        # no tail ends another, so at most one pad amount fits a record
        dp = DensityParams(16, t, 2 * t)
        tails = [_record_tail(e, dp) for e in range(2 * t)]
        for a, b in itertools.permutations(tails, 2):
            assert a[-len(b) :] != b

    def test_decode_outcomes_match_recorded_digest(self):
        # uniform words, encodings of long-run words and those encodings
        # with one bit flipped; at n = 16 every record is longer than the
        # word; the digest was recorded with each window coded by its exact
        # rank
        outs = []
        for n, t, delta in ((16, 1, 64), (128, 1, 64), (1024, 2, 864)):
            dp = DensityParams(n, t, delta)
            rng = random.Random(f"dense/{n}/{t}/{delta}")
            for _ in range(200):
                u = tuple(rng.randint(0, 1) for _ in range(n + 4 * t))
                longest = rng.choice((8, delta, n))
                x, bit = [], rng.randint(0, 1)
                while len(x) < n:
                    x.extend([bit] * rng.randint(1, longest))
                    bit ^= 1
                y = dense_encode(tuple(x[:n]), dp)
                i = rng.randrange(len(y))
                for z in (u, y, y[:i] + (1 - y[i],) + y[i + 1 :]):
                    try:
                        outs.append(dense_decode(z, dp))
                    except NotDecodableError as exc:
                        outs.append(str(exc))
        assert _digest(outs) == (
            "d81f29a4209e32c6b15bf96cbb4cfb62eb35db9f8ff25d1bb670dd8cd18b9ba6"
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
    ("burst", 16, 2, 85, "c6efbeb1b8985fe1c5a30ef0407bf0d030250e28cefef6591eb7d0707c2eed77"),
    # the k = 20 table of acceptance criterion 06, cached when that test ran
    # first in the same process
    ("burst", 20, 3, 218, "871b2e6ebae53ba6fe24940a15c05e941fa19c326f6c6b24c4208488c1657360"),
    # k <= 4t: the identity table, recorded from the brute build
    ("edit", 4, 1, 16, "be2af200787b297ae18de0235bf1aa1e93bc1a2a398a7a6ab592f8dd6fdf67a9"),
    ("edit", 10, 3, 1024, "2c29ea011b06b1c2f38af5aa2e4b80c3387d2e8dda64dbfbdbd691d75663be2b"),
    ("edit", 12, 3, 4096, "f99b96d3d2642b72c61fce708fcbfdff585e37b5330509c7887fe3af3a7f1848"),
    ("edit", 6, 1, 33, "1177865bd0f7f52f3332ad3ebbbd62cf5cc31a71c75050e94d957fa9dd92573b"),
    ("edit", 6, 2, 64, "ccf91e2b960f51464b77d855d580f583fe4e1cf0472832315bad6d855cf732f6"),
    ("edit", 8, 1, 54, "f86e0007cbf58dbe4fb15d9125ca88e49ae945f305f578bb1645e1993842eebc"),
    ("edit", 8, 2, 256, "ce694d5c7d7c923baab12ec1d6802c1c51fd2b080f75601205f07d9129708f35"),
    ("edit", 10, 1, 81, "7571a6f6907a56a0dbf6a2ff21f4c3bf3ded5d405f1879165066a1eaf355dafd"),
    ("edit", 10, 2, 503, "d23bce5855e96b34a3aa09a320a2f2d75ff0082e2b6795fc24215acb515fb73a"),
    ("edit", 12, 2, 751, "cd6b59a534b95991a36c0634c68b7868878a321f699a5c50dfd1d9eae0b7763e"),
]


def _edit_ball(u: tuple, t: int) -> set:
    """Every string made from u by replacing a substring of length <= 2t by
    a string of length <= 2t (identity included)."""
    fills = [m for l2 in range(2 * t + 1) for m in itertools.product((0, 1), repeat=l2)]
    return {
        u[:s] + m + u[s + l1 :]
        for l1 in range(2 * t + 1)
        for s in range(len(u) - l1 + 1)
        for m in fills
    }


def _assert_confusable_distinct(oracle, ball) -> None:
    """Blocks whose balls meet have distinct labels; labels[i] belongs to the
    i-th block in product order."""
    blocks = list(itertools.product((0, 1), repeat=oracle.k))
    balls = [ball(u) for u in blocks]
    for i, j in itertools.combinations(range(len(blocks)), 2):
        if balls[i] & balls[j]:
            assert oracle.labels[i] != oracle.labels[j]


class TestOracles:
    @pytest.mark.parametrize(
        "model, k, t, space, digest", ORACLE_DIGESTS,
        ids=[f"{m}-k{k}-t{t}" for m, k, t, _, _ in ORACLE_DIGESTS],
    )
    def test_label_table_matches_recorded_digest(self, model, k, t, space, digest):
        # labels[v] belongs to the block spelled by v's bits, first bit most
        # significant: range order is product order
        oracle = oracle_build_brute(k, t, model)
        assert oracle.label_space == space
        table = [oracle.labels[v] for v in range(1 << k)]
        assert _digest(table) == digest

    # (6, 2) and edit (5, 1) are built as one run; the others take several
    @pytest.mark.parametrize("k, t", [(6, 2), (9, 2), (10, 3)])
    def test_confusable_blocks_distinct_labels(self, k, t):
        # balls of tuples, apart from the oracle's own int descendants
        oracle = oracle_build_brute(k, t, "burst")
        _assert_confusable_distinct(oracle, lambda u: deletion_ball(u, t, upto=True))

    @pytest.mark.parametrize("k, t", [(5, 1), (8, 2)])
    def test_edit_model_confusability(self, k, t):
        oracle = oracle_build_brute(k, t, "edit")
        _assert_confusable_distinct(oracle, lambda u: _edit_ball(u, t))

    @pytest.mark.parametrize("t", [1, 2])
    def test_short_edit_blocks_all_confusable(self, t):
        # the identity table of an edit oracle of k <= 4t bits is sound only
        # if every two blocks' balls meet; one bit more and they need not
        for k in range(1, 4 * t + 1):
            balls = [_edit_ball(u, t) for u in itertools.product((0, 1), repeat=k)]
            assert all(a & b for a, b in itertools.combinations(balls, 2))
            assert oracle_build_brute(k, t, "edit").label_space == 1 << k
        assert oracle_build_brute(4 * t + 1, t, "edit").label_space < 2 << 4 * t

    def test_size_cap(self):
        with pytest.raises(ValueError):
            oracle_build_brute(24, 2, "burst")

    @pytest.mark.parametrize("t", [0, -1])
    def test_edit_ball_rejects_t_below_one(self, t):
        with pytest.raises(ValueError):
            _ball(8, t, "edit")
        with pytest.raises(ValueError):
            oracle_build_brute.__wrapped__(8, t, "edit")

    @pytest.mark.parametrize("model, kmax, tmax", [("burst", 9, 3), ("edit", 8, 2)])
    def test_common_prefix_cancels(self, model, kmax, tmax):
        # what the run-at-a-time build rests on: at every run length r it
        # uses, two blocks that share their top k - r bits are confusable
        # exactly when their low r bits are, whatever the shared bits
        def ball(u, t):
            if model == "edit":
                return _edit_ball(u, t)
            return deletion_ball(u, min(t, len(u)), upto=True)

        for t in range(1, tmax + 1):
            low = {
                r: [ball(x, t) for x in itertools.product((0, 1), repeat=r)]
                for r in range(1, _RUN_BITS[model] + 1)
            }
            for k in range(2, kmax + 1):
                blocks = [ball(u, t) for u in itertools.product((0, 1), repeat=k)]
                for r in range(1, min(k - 1, _RUN_BITS[model]) + 1):
                    for T in range(1 << (k - r)):
                        run = blocks[T << r : (T + 1) << r]
                        for x, y in itertools.combinations(range(1 << r), 2):
                            assert run[x].isdisjoint(run[y]) == low[r][x].isdisjoint(low[r][y])

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

    def test_oversized_window_refused_before_the_symbol_check(self, labeler):
        # the window is checked before the word becomes rows, so a word
        # the labeler cannot read is refused, not rejected with ValueError
        sums = ((0, 0), (0, 0))
        with pytest.raises(NotDecodableError, match="window exceeds the block cover length"):
            cpb_decode((2, 0, 1, 0, 1, 0, 1), 8, Interval(1, 6), sums, labeler, 4)


def ref_cpb_decode(xp, n, window, sums, labeler, P):
    """The cpb_decode that the window plan replaced: the window geometry
    found on every call, and the closing check relabelling every block of
    both parities."""
    tprime = n - len(xp)
    if tprime == 0:
        if block_syndromes(xp, P, labeler) != sums:
            raise NotDecodableError("stored sums do not match")
        return xp
    if len(window) > P:
        raise NotDecodableError("window exceeds the block cover length")
    L = padded_length(n, P)
    rows = [r << (L - n) for r in labeler.rows(xp)]
    for parity, spans in enumerate(block_layout(L, P)):
        hit = [j for j, sp in enumerate(spans) if sp.contains(window)]
        if hit:
            damaged = hit[0]
            break
    else:
        raise NotDecodableError("window not covered by any block")
    d_sum, e_sum = sums[parity]
    M = labeler.modulus
    sp = spans[damaged]
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
    tail = L - sp.hi
    zrows = [(r >> tail) & ((1 << zlen) - 1) for r in rows]
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
    x = [
        ((r >> (tail + zlen) << block_len | v) << tail | r & ((1 << tail) - 1)) >> (L - n)
        for r, v in zip(rows, found.pop())
    ]
    if block_syndromes(labeler.word(x, n), P, labeler) != sums:
        raise NotDecodableError("reconstruction fails the stored sums")
    return labeler.word(x, n)


def _either(decode, *args):
    """The decoded word, or the type and message of what decode raised."""
    try:
        return decode(*args)
    except (NotDecodableError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _dense_row(rng, dp):
    """Copies of w, each followed by at most delta - 2t random bits, cut to
    length n; drawn again until dense."""
    row = ()
    while len(row) != dp.n or not is_dense(row, dp):
        row = ()
        while len(row) < dp.n:
            fill = rng.randint(0, dp.delta - 2 * dp.t)
            row += dp.w + tuple(rng.randint(0, 1) for _ in range(fill))
        row = row[: dp.n]
    return row


def _cpb_cases(rng, labeler, n, P, count):
    """Seeded cpb_decode arguments for n-symbol words over the labeler's
    alphabet: a word less a burst or a substring edit of at most t symbols
    with the tightest window, the same with a redrawn symbol, a window moved
    or widened at random (past n as well, and past the padded length), and
    block sums drawn at random (all four, or one parity's), or raised by M."""
    model, t = labeler.kind
    M, L = labeler.modulus, padded_length(n, P)
    for _ in range(count):
        x = tuple(rng.choice(labeler.alphabet) for _ in range(n))
        sums = block_syndromes(x, P, labeler)
        tprime = rng.randint(1, t)
        s = rng.randint(1, n - tprime + 1)
        if model == "burst":
            xp = x[: s - 1] + x[s - 1 + tprime :]
            window = Interval(s, s + tprime - 1)
        else:  # l1 symbols give way to l1 - tprime others
            l1 = rng.randint(tprime, min(2 * t, n - s + 1))
            fill = tuple(rng.choice(labeler.alphabet) for _ in range(l1 - tprime))
            xp = x[: s - 1] + fill + x[s - 1 + l1 :]
            window = Interval(s, s + l1 - 1)
        redrawn = list(xp)
        redrawn[rng.randrange(len(xp))] = rng.choice(labeler.alphabet)
        lo = rng.randint(1, L + 2)
        moved = Interval(lo, lo + rng.randint(0, P))
        wide = Interval(max(1, window.lo - rng.randint(0, 3)), window.hi + rng.randint(0, 3))
        drawn = tuple((rng.randrange(2 * M), rng.randrange(2 * M)) for _ in range(2))
        # one parity's sums drawn, or one sum raised by M, the rest kept
        kept = (sums[0], drawn[1]) if rng.randrange(2) else (drawn[0], sums[1])
        flat = [v for pair in sums for v in pair]
        flat[rng.randrange(4)] += M
        raised = ((flat[0], flat[1]), (flat[2], flat[3]))
        for word, win, sm in (
            (xp, window, sums), (tuple(redrawn), window, sums), (xp, moved, sums),
            (xp, wide, sums), (xp, window, drawn), (xp, window, kept), (xp, window, raised),
            (x, window, sums), (x, window, drawn),
        ):
            yield word, n, win, sm, labeler, P


class TestDecodePlan:
    @pytest.mark.parametrize("kind", ["ctb", "perm"])
    @pytest.mark.parametrize("n", [32, 30])
    def test_cpb_decode_matches_full_relabel(self, kind, n):
        # the plan-driven decode gives the old decoder's word or refusal on
        # real and arbitrary input; at n = 30 the padded length is 32, so
        # the damaged block can reach the padding
        if kind == "ctb":
            labeler = BlockLabeler({k: oracle_build_brute(k, 2, "burst") for k in (8, 16)})
            P = 8
        else:
            labeler, P = _edit_labeler(), 6
        rng = random.Random(f"{kind}/{n}")
        seen = set()
        for args in _cpb_cases(rng, labeler, n, P, 150):
            want = _either(ref_cpb_decode, *args)
            assert _either(cpb_decode, *args) == want, args[:4]
            seen.add(want if isinstance(want[0], str) else "decoded")
        assert "decoded" in seen
        assert ("NotDecodableError", "reconstruction fails the stored sums") in seen

    def test_solved_bits_past_n_are_checked(self):
        # a 32-bit y with y_31 = 1 whose even sums lead the solve to y's last
        # block, bits past n = 30 included; they drop from the word, so its
        # even sums are no longer y's.  The odd sums are those of y with the
        # bit cleared, which the rebuilt word meets: only the check on the
        # damaged block refuses it
        labeler = BlockLabeler({k: oracle_build_brute(k, 2, "burst") for k in (8, 16)})
        rng = random.Random(30)
        for _ in range(20):
            y = tuple(rng.randint(0, 1) for _ in range(29)) + (0, 1, 0)
            cleared = y[:30] + (0, 0)
            sums = (block_syndromes(y, 8, labeler)[0], block_syndromes(cleared, 8, labeler)[1])
            args = (y[:29], 30, Interval(29, 31), sums, labeler, 8)
            want = ("NotDecodableError", "reconstruction fails the stored sums")
            assert _either(ref_cpb_decode, *args) == _either(cpb_decode, *args) == want

    def test_cpb_decode_on_ctb_rows(self):
        # seeded bursts of the rows of q-ary ctb words, each row decoded with
        # the window that locate_burst gives on row 1
        labeler = BlockLabeler({k: oracle_build_brute(k, 2, "burst") for k in (8, 16)})
        rng = random.Random(21)
        decoded = 0
        dp = DensityParams(32, 2, 7)
        for _ in range(60):
            rows = (_dense_row(rng, dp),) + tuple(
                tuple(rng.randint(0, 1) for _ in range(32)) for _ in range(3)
            )
            u = from_matrix(rows, 16)
            params = CtbParams(32, 16, 2, 7, 8, *loc_residues(rows[0], dp), tuple(
                block_syndromes(r, 8, labeler) for r in rows
            ))
            d = rng.randint(1, 2)
            rows = to_matrix(apply_burst(u, Burst(rng.randint(1, 33 - d), d)), 16)
            try:
                window = locate_burst(rows[0], params.c0, params.c1, params.density)
            except NotDecodableError:
                continue
            for row, sums in zip(rows, params.row_sums):
                args = (row, 32, window, sums, labeler, 8)
                got = _either(cpb_decode, *args)
                assert got == _either(ref_cpb_decode, *args)
                decoded += len(got) == 32
        assert decoded > 150

    def test_cpb_decode_on_ranking_sequences(self):
        # seeded bursts of permutations, their ranking sequences decoded with
        # pleqt_decode's window, and with that window moved by one
        labeler = _edit_labeler()
        rng = random.Random(22)
        decoded = 0
        for _ in range(150):
            pi = tuple(rng.sample(range(1, 9), 8))
            sums = block_syndromes(overlap_ranks(pi, 2), 6, labeler)
            d = rng.randint(1, 2)
            s = rng.randint(1, 9 - d)
            pp = overlap_ranks(apply_burst(pi, Burst(s, d)), 2)
            lo = max(1, s - 2)
            for window in (Interval(lo, min(6, s + d - 1)), Interval(lo + 1, min(7, s + d))):
                args = (pp, 6, window, sums, labeler, 6)
                got = _either(cpb_decode, *args)
                assert got == _either(ref_cpb_decode, *args)
                decoded += len(got) == 6
        assert decoded > 100

    def test_labeler_oracles_share_one_error_model(self):
        # cpb_decode takes the slots of every block length from one model and t
        assert _edit_labeler().kind == ("edit", 2)
        for mixed in ({4: (1, "burst"), 8: (2, "burst")}, {6: (2, "burst"), 12: (2, "edit")}):
            oracles = {k: oracle_build_brute(k, t, model) for k, (t, model) in mixed.items()}
            with pytest.raises(ValueError):
                QaryBlockLabeler(4, oracles, (1, 2, 3))

    @pytest.mark.parametrize("n,P", [(32, 8), (30, 8), (6, 6), (13, 4)])
    def test_plan_matches_block_layout(self, n, P):
        # the damaged block, intact shifts, slots and other-parity shifts,
        # against the inline computation of the decoder the plan replaced
        L = padded_length(n, P)
        layout = block_layout(L, P)
        for model, t in (("burst", 1), ("burst", 2), ("edit", 1), ("edit", 2)):
            for lo in range(1, n + 1):
                for hi in range(lo, min(n, lo + P - 1) + 1):
                    for tprime in range(1, t + 1):
                        for parity, spans in enumerate(layout):
                            hit = [j for j, sp in enumerate(spans) if sp.contains(Interval(lo, hi))]
                            if hit:
                                break
                        damaged = hit[0]
                        sp = spans[damaged]
                        k, zlen = len(sp), len(sp) - tprime
                        rel_lo, rel_hi = max(1, lo - sp.lo + 1), min(k, hi - sp.lo + 1)
                        if model == "burst":
                            slots = _burst_candidates(zlen, rel_lo, rel_hi, tprime)
                        else:
                            slots = _edit_candidates(zlen, rel_lo, rel_hi, tprime, t)
                        want = (
                            parity, k,
                            tuple(
                                (L - b.hi - (tprime if b.hi <= sp.lo else 0), len(b))
                                for j, b in enumerate(spans) if j != damaged
                            ),
                            zlen, L - sp.hi, tuple(slots),
                            tuple((L - b.hi, len(b)) for b in layout[1 - parity]),
                        )
                        assert _plan(n, P, lo, hi, tprime, model, t) == want
        # a window past the padded length lies in no block
        assert _plan(n, P, L, L + 1, 1, "burst", 1) is None


def _qary_filter(labeler, z: tuple, k: int, slots: list, target: int) -> set:
    """The candidate filter the row-wise solve replaced: every fill of every
    slot, labelled through to_matrix; matches as their rows."""
    oracle = labeler.oracles[k]
    found = set()
    for a, l1, l2 in slots:
        for m in itertools.product(labeler.alphabet, repeat=l1):
            rows = to_matrix(z[: a - 1] + m + z[a - 1 + l2 :], 1 << labeler.nrows)
            lab = 0
            for row in rows:
                lab = lab * oracle.label_space + oracle.labels[_bits_to_int(row)]
            if lab == target:
                found.add(tuple(_bits_to_int(row) for row in rows))
    return found


def _edit_labeler():
    return perm_labeler(PermCodeParams(8, 2, 8, 6, 0, 0, ((0, 0), (0, 0))))


def _ctb_codeword(rng, labeler, n, q, t, delta, P, row1=None):
    """A q-ary word with a dense row 1 (the given one, or uniform words
    drawn until one is dense) and the CtbParams of its residues."""
    dp = DensityParams(n, t, delta)
    row1 = row1 or tuple(rng.randint(0, 1) for _ in range(n))
    while not is_dense(row1, dp):
        row1 = tuple(rng.randint(0, 1) for _ in range(n))
    rows = (row1,) + tuple(
        tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(matrix_rows(q) - 1)
    )
    c0, c1 = loc_residues(row1, dp)
    row_sums = tuple(block_syndromes(r, P, labeler) for r in rows)
    return from_matrix(rows, q), CtbParams(n, q, t, delta, P, c0, c1, row_sums)


def _drawn_sums(rng, M: int) -> tuple:
    return tuple((rng.randrange(M), rng.randrange(M)) for _ in range(2))


def _decode_outcomes() -> list:
    """Seeded ctb_decode and pleqt_decode calls: each codeword less a burst,
    and arbitrary inputs (a redrawn symbol, shuffled entries, drawn block
    sums that leave cpb_decode a target no fill meets), plus cpb_decode
    calls on bursts longer than t.  The outcome is the decoded word or the
    refusal message."""
    def outcome(decode):
        try:
            return decode()
        except NotDecodableError as exc:
            return str(exc)

    rng = random.Random(2022)
    out = []
    labeler = BlockLabeler({k: oracle_build_brute(k, 2, "burst") for k in (8, 16)})
    for _ in range(100):
        u, params = _ctb_codeword(rng, labeler, 16, 4, 2, 6, 8)
        d = rng.randint(1, 2)
        rx = apply_burst(u, Burst(rng.randint(1, 17 - d), d))
        redrawn = list(rx)
        redrawn[rng.randrange(len(rx))] = rng.randrange(4)
        drawn = CtbParams(*astuple(params)[:-1], tuple(
            _drawn_sums(rng, labeler.modulus) for _ in params.row_sums
        ))
        for word, par in ((rx, params), (tuple(redrawn), params), (rx, drawn)):
            out.append(outcome(lambda: ctb_decode(word, par, labeler)))
        # a burst longer than the oracles' t, whose fills can meet the
        # target several times
        row = to_matrix(u, 4)[1]
        s0 = rng.randint(1, 14)
        out.append(outcome(lambda: cpb_decode(
            apply_burst(row, Burst(s0, 3)), 16, Interval(s0, s0 + 2),
            params.row_sums[1], labeler, 8,
        )))
    labeler = _edit_labeler()
    for _ in range(50):
        pi = tuple(rng.sample(range(1, 9), 8))
        dp = DensityParams(8, 2, 8)
        params = PermCodeParams(
            8, 2, 8, 6, *loc_residues(bp_map(pi), dp),
            block_syndromes(overlap_ranks(pi, 2), 6, labeler),
        )
        d = rng.randint(1, 2)
        rx = apply_burst(pi, Burst(rng.randint(1, 9 - d), d))
        shuffled = tuple(rng.sample(rx, len(rx)))
        drawn = PermCodeParams(
            *astuple(params)[:-1], _drawn_sums(rng, labeler.modulus)
        )
        for word, par in ((rx, params), (shuffled, params), (rx, drawn)):
            out.append(outcome(lambda: pleqt_decode(word, par, labeler)))
    return out


class TestBlockSolve:
    @pytest.mark.parametrize("kind", ["binary", "qary", "edit"])
    def test_solve_matches_qary_filter(self, kind):
        # the row-wise solve finds exactly the blocks the q-ary filter did.
        # Fills within the oracle's error model make blocks confusable with
        # each other, which the oracle labels apart; several fills meet a
        # target only for a burst longer than the oracle's t.  The binary
        # labeler scans each slot's fills, the q-ary ones read the label
        # index; the q-ary burst labeler leaves symbol 0 out of its alphabet
        if kind == "binary":
            labeler = BlockLabeler({k: oracle_build_brute(k, 2, "burst") for k in (8, 16)})
        elif kind == "qary":
            labeler = QaryBlockLabeler(
                4, {k: oracle_build_brute(k, 1, "burst") for k in (4, 8)}, (1, 2, 3)
            )
        else:
            labeler = _edit_labeler()
        rng = random.Random(kind)
        sizes = [0, 0, 0]
        for _ in range(400):
            k = rng.choice(sorted(labeler.oracles))
            oracle = labeler.oracles[k]
            tprime = rng.randint(1, oracle.t + (oracle.model == "burst"))
            zlen = k - tprime
            z = tuple(rng.choice(labeler.alphabet) for _ in range(zlen))
            rel_lo = rng.randint(1, k)
            rel_hi = rng.randint(rel_lo, min(k, rel_lo + 5))
            if oracle.model == "burst":
                slots = list(_burst_candidates(zlen, rel_lo, rel_hi, tprime))
            else:
                slots = list(_edit_candidates(zlen, rel_lo, rel_hi, tprime, oracle.t))
            # half of the targets are the label of a real fill
            target = rng.randrange(labeler.modulus)
            if slots and rng.random() < 0.5:
                a, l1, l2 = rng.choice(slots)
                m = tuple(rng.choice(labeler.alphabet) for _ in range(l1))
                block = z[: a - 1] + m + z[a - 1 + l2 :]
                target = labeler.label(labeler.rows(block), 0, k)
            want = _qary_filter(labeler, z, k, slots, target)
            assert labeler.solve(labeler.rows(z), zlen, k, slots, target) == want
            sizes[min(len(want), 2)] += 1
        assert sizes[0] and sizes[1], sizes
        assert sizes[2] or kind == "edit", sizes

    def test_label_index_is_built_once_per_oracle(self):
        # verify builds a labeler per call, so the index solve reads lives
        # on the shared oracle, not on a labeler
        first, second = _edit_labeler(), _edit_labeler()
        oracle = first.oracles[12]
        vars(oracle).pop("by_label", None)
        z = (1, 2, 3, 4, 5, 6, 1, 2, 3, 4)
        slots = list(_edit_candidates(10, 1, 12, 2, 2))
        first.solve(first.rows(z), 10, 12, slots, 0)
        index = vars(oracle)["by_label"]
        second.solve(second.rows(z), 10, 12, slots, 0)
        assert vars(second.oracles[12])["by_label"] is index

    @pytest.mark.parametrize("q", [2, 7, 256, 257, 1 << 16])
    def test_rows_match_the_bit_matrix(self, q):
        # wider than 8 rows, byte p of each symbol carries rows 8p .. 8p + 7
        labeler = QaryBlockLabeler(q, {4: oracle_build_brute(4, 1, "burst")}, (0, 1))
        rng = random.Random(q)
        for n in (0, 1, 12, 40):
            u = tuple(rng.randrange(q) for _ in range(n))
            rows = labeler.rows(u)
            assert rows == tuple(map(_bits_to_int, to_matrix(u, 1 << labeler.nrows)))
            assert labeler.word(rows, n) == u
        with pytest.raises(ValueError, match="out of range"):
            labeler.rows((0, 1 << labeler.nrows))

    def test_binary_word_matches_the_qary_view(self):
        # BlockLabeler writes out the one-row word; it is the codec's view
        oracles = {4: oracle_build_brute(4, 1, "burst")}
        binary, qary = BlockLabeler(oracles), QaryBlockLabeler(2, oracles, (0, 1))
        rng = random.Random("one-row word")
        for k in (0, 1, 2, 7, 8, 9, 40):
            for row in {0, (1 << k) - 1, rng.getrandbits(k), rng.getrandbits(k)}:
                assert binary.word((row,), k) == qary.word((row,), k)
                assert binary.rows(binary.word((row,), k)) == (row,)

    @pytest.mark.parametrize("q", [1 << 17, math.factorial(9) + 1])
    def test_rows_refuse_more_than_sixteen_rows(self, q):
        # the perm code's q = (t + 1)! + 1 passes 2^16 at t = 8; its words
        # are refused by check_symbols, as by the per-symbol loop before
        labeler = QaryBlockLabeler(q, {4: oracle_build_brute(4, 1, "burst")}, (0, 1))
        for u in ((), (1, 2, 70000)):
            with pytest.raises(ValueError, match=r"alphabet size q must be in \[2, 65536\]"):
                labeler.rows(u)

    def test_decode_outcomes_match_recorded_digest(self):
        # the digest was recorded from the q-ary candidate filter
        out = _decode_outcomes()
        assert len(out) == 550
        assert sum(isinstance(o, tuple) for o in out) > 100
        assert "no unique block consistent with the sums" in out
        assert _digest(out) == (
            "620e38098f4deada65465086d889427890564dedc5dfff35d6c5b51393dda671"
        )


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

    def test_full_length_non_codeword_refused(self, ctb_book):
        params, labeler = self.make(ctb_book)
        u = next(
            u for u in itertools.product(range(4), repeat=12)
            if not ctb_member(u, params, labeler)
        )
        with pytest.raises(NotDecodableError, match="not a codeword"):
            ctb_decode(u, params, labeler)

    def test_long_word_roundtrip(self):
        # seeded codewords at n = 512 (q = 16, t = 2, delta = 7, P = 8), each
        # with every sampled burst of at most t deletions
        rng = random.Random("ctb/512")
        n, dp = 512, DensityParams(512, 2, 7)
        labeler = BlockLabeler({k: oracle_build_brute(k, 2, "burst") for k in (8, 16)})
        for _ in range(4):
            u, params = _ctb_codeword(rng, labeler, n, 16, 2, 7, 8, _dense_row(rng, dp))
            for _ in range(50):
                d = rng.randint(1, 2)
                rx = apply_burst(u, Burst(rng.randint(1, n - d + 1), d))
                assert ctb_decode(rx, params, labeler) == u

    def test_window_constraint_enforced(self):
        row_sums = (((0, 0), (0, 0)),) * 2  # well formed for q = 4
        with pytest.raises(ValueError, match="delta"):
            CtbParams(12, 4, 2, 10, 8, 0, 0, row_sums)

    @pytest.mark.parametrize(
        "row_sums", [(), (((0, 0), (0, 0)),), ((0, 0), (0, 0))],
        ids=["none", "one-row", "flat"],
    )
    def test_malformed_row_sums_refused(self, row_sums):
        # they used to reach ctb_decode, which raised IndexError at
        # row_sums[i]; q = 4 has two matrix rows
        with pytest.raises(ValueError, match="per matrix row"):
            CtbParams(8, 4, 1, 2, 4, 0, 0, row_sums)
