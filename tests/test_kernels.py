"""The syndrome primitives and period-2 scans against per-position loops.

The package computes these maps with C-level iterators and bytes searches,
and locates a burst from cached summaries of the segment around each start.
The references below are the loops they replaced; every kernel must give the
same value, with the same types (book digests hash these tuples through
JSON, where a bool would print as true), and refuse the same inputs.
"""
import random
from bisect import bisect_left, bisect_right
from itertools import permutations, product

import pytest

from burstcodes import classic, perm, seqcore, tburst
from burstcodes.seqcore import Interval, NotDecodableError

BINARY = [x for n in range(13) for x in product((0, 1), repeat=n)]


def _qary_words():
    rng = random.Random("kernels")
    return [
        tuple(rng.randrange(q) for _ in range(n))
        for q in (3, 4, 7, 16)
        for n in range(9)
        for _ in range(40)
    ]


QARY = _qary_words()


def ref_check_binary(x):
    for s in x:
        if s not in (0, 1):
            raise ValueError("sequence is not binary")


def ref_vt_syndrome(w):
    return sum(i * s for i, s in enumerate(w, start=1))


def ref_run_syndrome(x):
    ref_check_binary(x)
    r = []
    idx = 0
    for i, s in enumerate(x):
        if i > 0 and s != x[i - 1]:
            idx += 1
        r.append(idx)
    return tuple(r), sum(r)


def ref_psi(x):
    ref_check_binary(x)
    n = len(x)
    return tuple(x[i] ^ x[i + 1] if i < n - 1 else x[i] for i in range(n))


def ref_psi_inv(y):
    ref_check_binary(y)
    out = []
    acc = 0
    for s in reversed(y):
        acc ^= s
        out.append(acc)
    return tuple(reversed(out))


def ref_phi(u):
    if not u:
        raise ValueError("phi requires a nonempty sequence")
    return (1,) + tuple(1 if b > a else 0 for a, b in zip(u, u[1:]))


def ref_longest_period2(x):
    n = len(x)
    if n <= 2:
        return n
    best = 2
    run = 2
    for i in range(2, n):
        if x[i] == x[i - 2]:
            run += 1
        else:
            run = 2
        if run > best:
            best = run
    return best


def ref_ascent_indicator(u):
    return tuple(1 if b >= a else 0 for a, b in zip(u, u[1:]))


def ref_interleave(uo, ue):
    out = []
    for i in range(len(uo) + len(ue)):
        out.append(uo[i // 2] if i % 2 == 0 else ue[i // 2])
    return tuple(out)


def ref_to_matrix(u, q):
    seqcore.check_symbols(u, q)
    return tuple(
        tuple((s >> r) & 1 for s in u) for r in range(seqcore.matrix_rows(q))
    )


def ref_from_matrix(rows, q):
    if not rows:
        raise ValueError("empty matrix")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    u = []
    for j in range(n):
        val = sum(rows[r][j] << r for r in range(len(rows)))
        if val >= q:
            raise ValueError(f"column {j + 1} decodes to {val} >= q={q}")
        u.append(val)
    return tuple(u)


def ref_int_to_bits(value, width):
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def ref_bits_to_int(bits):
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def ref_overlap_ranks(pi, t):
    return tuple(perm.lex_rank(perm.prj(pi[i : i + t + 1])) for i in range(len(pi) - t))


def ref_burst_starts(x, xp, t):
    """The scan burst_starts replaced: x less a burst at every start,
    compared with xp."""
    d = len(x) - len(xp)
    if not 1 <= d <= t:
        return
    for s in range(1, len(x) - d + 2):
        if x[: s - 1] + x[s - 1 + d :] == xp:
            yield s


def ref_locate_burst(xp, c0, c1, dp, extra_check=None):
    """The scan locate_burst replaced: every fill at every start builds its
    segment and searches it for w."""
    seqcore.check_binary(xp)
    n, t = dp.n, dp.t
    tprime = n - len(xp)
    if tprime == 0:
        if not tburst.loc_member(xp, c0, c1, dp):
            raise NotDecodableError("input is not a codeword")
        return Interval(1, 1)
    if not 1 <= tprime <= t:
        raise ValueError("burst longer than t")
    if n < 2 * t:
        raise ValueError("sequence shorter than the pattern")
    wb, span = bytes(dp.w), 2 * t
    xb = bytes(xp)
    end = n - span + 2
    occ = [i + 1 for i in range(len(xb) - span + 1) if xb.startswith(wb, i)]
    pre, head, prev = [0], [0], 0
    for o in occ:
        pre.append(pre[-1] + o)
        head.append(max(head[-1], o - prev))
        prev = o
    tail, nxt = [0] * (len(occ) + 1), end - tprime
    for j in range(len(occ) - 1, -1, -1):
        tail[j] = max(tail[j + 1], nxt - occ[j])
        nxt = occ[j]
    total = len(occ)
    fills = [(bits, bytes(bits)) for bits in product((0, 1), repeat=tprime)]
    starts = []
    for s in range(1, len(xp) + 2):
        i0 = max(0, s - span)
        a, b = bisect_right(occ, s - span), bisect_left(occ, s)
        left, right = xb[i0 : s - 1], xb[s - 1 : s + span - 2]
        kept = a + total - b
        kept_sum = pre[a] + pre[total] - pre[b] + tprime * (total - b)
        kept_gap = max(head[a], tail[b])
        before = occ[a - 1] if a else 0
        after = occ[b] + tprime if b < total else end
        for bits, fill in fills:
            seg = left + fill + right
            count = kept + seg.count(wb)
            if count % 4 != c0:
                continue
            new = [
                i0 + k + 1
                for k in range(len(seg) - span + 1)
                if seg.startswith(wb, k)
            ]
            if ((count + 1) * end - kept_sum - sum(new)) % (2 * n) != c1:
                continue
            gap, prev = kept_gap, before
            for o in new:
                gap = max(gap, o - prev)
                prev = o
            if max(gap, after - prev) > dp.delta:
                continue
            if extra_check is None or extra_check(xp[: s - 1] + bits + xp[s - 1 :]):
                starts.append(s)
                break
    if not starts:
        raise NotDecodableError("localization syndromes inconsistent")
    return Interval(starts[0], starts[-1] + tprime - 1)


def _outcome(f, *args):
    """repr of the value, so that 1 and True or a tuple and a list differ,
    or the type and message of the ValueError or NotDecodableError raised."""
    try:
        return repr(f(*args))
    except (ValueError, NotDecodableError) as exc:
        return f"{type(exc).__name__}: {exc}"


KERNELS = [
    (seqcore.check_binary, ref_check_binary),
    (seqcore.vt_syndrome, ref_vt_syndrome),
    (seqcore.run_syndrome, ref_run_syndrome),
    (seqcore.psi, ref_psi),
    (seqcore.psi_inv, ref_psi_inv),
    (seqcore.phi, ref_phi),
    (seqcore.longest_period2, ref_longest_period2),
    (classic.ascent_indicator, ref_ascent_indicator),
]
EDGES = [(), (0,), (1,), (2,), (-1,), (0, 1), (1, 1), (0, 2), (-1, 1), (1, 0, 2)]


@pytest.mark.parametrize(
    "kernel, ref", KERNELS, ids=[k.__name__ for k, _ in KERNELS]
)
def test_kernel_matches_reference(kernel, ref):
    # every binary word with n <= 12, seeded q-ary words, the edge cases,
    # and lists as well as tuples
    for x in BINARY + QARY + EDGES:
        assert _outcome(kernel, x) == _outcome(ref, x), x
    for x in EDGES + QARY[::20]:
        assert _outcome(kernel, list(x)) == _outcome(ref, list(x)), x


def test_interleave_matches_reference():
    # equal halves or one more odd-position symbol; other lengths are refused
    for u in BINARY[:1024] + QARY:
        for uo, ue in ((u, u[::-1]), (u, u[1:]), (u, u + (0,)), (u, u[2:])):
            if len(uo) - len(ue) in (0, 1):
                got = classic._interleave(uo, ue)
                assert repr(got) == repr(ref_interleave(uo, ue))
            else:
                with pytest.raises((IndexError, ValueError)):
                    ref_interleave(uo, ue)
                with pytest.raises((IndexError, ValueError)):
                    classic._interleave(uo, ue)


def test_matrix_conversions_match_reference():
    # the seeded q-ary words at the least q they fit, at 16 and at 3, then
    # every matrix of up to three rows of n <= 4 bits (two rows at n = 4),
    # which also reaches the columns decoding to q or more, and ragged ones
    for u in QARY + [(), (0,), (5, 0, 2)]:
        for q in {max(u, default=0) + 1, 16, 3}:
            for x in (u, list(u)):
                assert _outcome(seqcore.to_matrix, x, q) == _outcome(
                    ref_to_matrix, x, q
                ), (x, q)
    for n in range(5):
        rows = list(product((0, 1), repeat=n))
        for m in (m for k in (1, 2, 3)[: 5 - n] for m in product(rows, repeat=k)):
            for q in (2, 3, 5, 8):
                for x in (m, list(m), [list(r) for r in m]):
                    assert _outcome(seqcore.from_matrix, x, q) == _outcome(
                        ref_from_matrix, x, q
                    ), (x, q)
    for m in ((), ((1, 0), (1,)), ((True, False), (True, True))):
        assert _outcome(seqcore.from_matrix, m, 4) == _outcome(ref_from_matrix, m, 4)
    with pytest.raises(ValueError, match=r"^column 2 decodes to 5 >= q=5$"):
        seqcore.from_matrix(((0, 1, 1), (1, 0, 1), (0, 1, 1)), 5)
    # seeded words past QARY's q = 16: 8 rows (q = 256, one byte a symbol),
    # 9 rows (q = 257, two bytes) and 16 rows (q = 2^16); a symbol q is
    # refused, and from_matrix is also asked at smaller q, so that wide
    # columns decode to q or more
    for q, n in product((256, 257, 1 << 16), (0, 1, 2, 12, 40, 333)):
        rng = random.Random(q * n)
        u = tuple(rng.randrange(q) for _ in range(n))
        for x in (u, list(u), u + (q,)):
            assert _outcome(seqcore.to_matrix, x, q) == _outcome(ref_to_matrix, x, q), (x, q)
        m = ref_to_matrix(u, q)
        for x in (m, [list(r) for r in m], m[:-1], m[:1]):
            for p in (q, q - 1, q // 2 + 1):
                assert _outcome(seqcore.from_matrix, x, p) == _outcome(ref_from_matrix, x, p), (x, p)


def test_bit_conversions_match_reference():
    rng = random.Random("bits")
    for width in range(131):
        for _ in range(20):
            bits = tuple(rng.randrange(2) for _ in range(width))
            for x in (bits, list(bits)):
                assert _outcome(seqcore._bits_to_int, x) == _outcome(
                    ref_bits_to_int, x
                )
            # negative values and values wider than the width as well
            for v in (rng.getrandbits(width + 3), -rng.getrandbits(width + 3)):
                assert _outcome(seqcore._int_to_bits, v, width) == _outcome(
                    ref_int_to_bits, v, width
                ), (v, width)
    assert seqcore._bits_to_int(()) == 0
    # a symbol other than 0 and 1 is refused, not folded into the value
    for bits in ((1, 2), (0, 48), [1, 256], (-1,)):
        with pytest.raises(ValueError):
            seqcore._bits_to_int(bits)
    assert seqcore._int_to_bits(5, 0) == ()
    assert seqcore._int_to_bits(-1, 3) == (1, 1, 1)


def test_check_symbols_names_first_offender():
    seqcore.check_symbols((), 2)
    seqcore.check_symbols([3, 0, 2], 4)
    for u, bad in (((1, 5, -1, 9), 5), ([0, -2, 7], -2), ((3, 3, 4), 4)):
        with pytest.raises(ValueError, match=rf"^symbol {bad} out of range for q=4$"):
            seqcore.check_symbols(u, 4)
    # q is checked before any symbol
    for q in (1, seqcore.MAX_Q + 1):
        with pytest.raises(ValueError, match=r"^alphabet size q must be in"):
            seqcore.check_symbols((q + 5,), q)


def test_window_ranks_match_reference():
    assert perm.lex_rank([2, 3, 1]) == perm.lex_rank((2, 3, 1)) == 4
    for pi in permutations(range(1, 7)):
        for t in (1, 2, 3):
            assert perm.overlap_ranks(pi, t) == ref_overlap_ranks(pi, t)
    assert perm.overlap_ranks([3, 1, 2, 4], 2) == ref_overlap_ranks((3, 1, 2, 4), 2)


def test_burst_starts_matches_scan_exhaustively():
    # every pair (x, xp), non-descendants included, with |x| <= 8 over q = 2
    # and |x| <= 5 over q = 3, |x| - |xp| in 0..4 and t in 1..3
    for q, top in ((2, 8), (3, 5)):
        for n in range(top + 1):
            for d in range(min(n, 4) + 1):
                for x, xp in product(
                    product(range(q), repeat=n), product(range(q), repeat=n - d)
                ):
                    want = list(ref_burst_starts(x, xp, 3))
                    for t in (1, 2, 3):
                        got = list(seqcore.burst_starts(x, xp, t))
                        assert got == (want if d <= t else []), (x, xp, t)


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_burst_starts_matches_scan_seeded(n):
    # words of long runs (many starts) and uniform words, less a burst or
    # with one symbol of the shortened word then redrawn
    rng = random.Random(f"starts/{n}")
    for _ in range(40 if n < 1024 else 8):
        q = rng.choice((2, 4))
        x = []
        while len(x) < n:
            x += [rng.randrange(q)] * rng.choice((1, 1, 5, 40))
        x = tuple(x[:n])
        d = rng.randint(1, 3)
        s = rng.randint(1, n - d + 1)
        xp = list(x[: s - 1] + x[s - 1 + d :])
        if rng.random() < 0.3:
            xp[rng.randrange(len(xp))] = rng.randrange(q)
        xp = tuple(xp)
        for t in (1, 2, 3):
            assert list(seqcore.burst_starts(x, xp, t)) == list(
                ref_burst_starts(x, xp, t)
            ), (x, xp, t)


def _balanced(x):
    return sum(x) == (len(x) + 1) // 2


def test_locate_burst_matches_scan_exhaustively():
    # every received word at n = 8 against every residue pair, with and
    # without a balance check: locate_burst takes the weight (8 + 1) // 2
    # of a balanced word, the scan the predicate
    for t, delta in ((1, 4), (2, 6)):
        dp = tburst.DensityParams(8, t, delta)
        for tprime in range(1, t + 1):
            for xp in product((0, 1), repeat=8 - tprime):
                for c0, c1 in product(range(4), range(16)):
                    for ones, check in ((None, None), (4, _balanced)):
                        args = (xp, c0, c1, dp)
                        assert _outcome(tburst.locate_burst, *args, ones) == _outcome(
                            ref_locate_burst, *args, check
                        ), (args, check)
    # from t = 3 on, two new occurrences can lie more than delta apart:
    # 00011 + 1?0 + 00111 has w at 1 and 8, a gap of 7 > 6, and no other
    # reinsertion passes residues (2, 18) and the gaps, so it is refused
    dp, xp = tburst.DensityParams(13, 3, 6), (0, 0, 0, 1, 1, 0, 0, 1, 1, 1)
    for c0, c1 in product(range(4), range(26)):
        args = (xp, c0, c1, dp)
        assert _outcome(tburst.locate_burst, *args) == _outcome(
            ref_locate_burst, *args
        ), args
    with pytest.raises(NotDecodableError):
        tburst.locate_burst(xp, 2, 18, dp)


def _dense_word(rng, dp):
    """A seeded dense word: copies of w, each followed by at most
    delta - 2t random bits, cut to length n; drawn again until dense."""
    while True:
        x = ()
        while len(x) < dp.n:
            run = rng.randrange(dp.delta - 2 * dp.t + 1)
            x += dp.w + tuple(rng.randrange(2) for _ in range(run))
        x = x[: dp.n]
        if tburst.loc_residues(x, dp) is not None:
            return x


@pytest.mark.parametrize("n, t, delta", [(32, 2, 7), (64, 3, 20)])
def test_locate_burst_matches_scan_seeded(n, t, delta):
    # bursts of dense words located with their own residues and with a
    # random pair, c0 out of range included (a book may hold any integer),
    # and the codeword and overlong-burst cases
    rng = random.Random(f"locate/{n}")
    dp = tburst.DensityParams(n, t, delta)
    for _ in range(150):
        x = _dense_word(rng, dp)
        c0, c1 = tburst.loc_residues(x, dp)
        d = rng.randrange(t + 2)
        s = rng.randrange(n - d + 1)
        xp = x[:s] + x[s + d :]
        other = (rng.randrange(-2, 7), rng.randrange(2 * n))
        for args in ((xp, c0, c1, dp), (xp, *other, dp)):
            assert _outcome(tburst.locate_burst, *args) == _outcome(
                ref_locate_burst, *args
            ), args


def test_locate_burst_refuses_c1_out_of_range():
    # the scan compares the VT residue with c1, so a c1 outside 0..2n-1
    # matches no start; the fill loop tests vt - c1 against 0 mod 2n, which
    # c1 - 2n and c1 + 2n would pass wherever c1 does
    dp = tburst.DensityParams(8, 2, 6)
    for tprime in (1, 2):
        for xp in product((0, 1), repeat=8 - tprime):
            for c0, c1 in product(range(4), (*range(-16, 0), *range(16, 32))):
                args = (xp, c0, c1, dp)
                assert _outcome(tburst.locate_burst, *args) == _outcome(
                    ref_locate_burst, *args
                ), args
