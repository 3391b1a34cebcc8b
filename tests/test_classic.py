"""Single-deletion and two-deletion codes: membership and decoders.

Ground truth throughout is exhaustive enumeration: sieve a parameter class
over the whole ambient space, corrupt every codeword every admissible way,
and require exact recovery.
"""
import hashlib
import random
from functools import lru_cache
from itertools import product

import pytest

from burstcodes import classic
from burstcodes.classic import (
    induced_decode,
    induced_deletions,
    induced_residues,
    interleaved_psi,
    is_alternating,
    levenshtein_decode,
    levenshtein_residues,
    tenengolts_decode,
    tenengolts_residues,
    vt_decode,
    vt_residues,
)
from burstcodes.perm import PermCodeParams, perm_labeler, perm_member
from burstcodes.pll2burst import (
    C2BParams,
    PBoundedParams,
    c2b_member,
    pbounded_decode,
    pbounded_residues,
    pll_cap,
    pll_decode,
    pll_encode,
)
from burstcodes.seqcore import (
    NotDecodableError,
    apply_burst,
    Burst,
    burst_starts,
    bursts,
    deletion_ball,
    phi,
    psi,
    psi_inv,
    vt_syndrome,
)
from burstcodes.tburst import (
    BlockLabeler,
    CtbParams,
    DensityParams,
    ctb_member,
    ctb_oracles,
    dense_decode,
    dense_encode,
)
from burstcodes.verify import sieve, book_decoder, roundtrip_sweep


class TestVT:
    def test_membership(self):
        assert vt_residues((0, 0, 0, 0), 4) == (0,)
        assert vt_residues((1, 0, 0, 1), 4) == (0,)  # VT = 5 = 0 mod 5
        assert vt_residues((1, 0, 0, 0), 4) != (0,)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_single_deletion_exhaustive(self, n):
        for a in range(n + 1):
            for x in product((0, 1), repeat=n):
                if vt_residues(x, n) != (a,):
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
        for u in product(range(3), repeat=3):
            expected = (
                vt_syndrome(classic.ascent_indicator(u)) % 3 == 0
                and sum(u) % 3 == 0
            )
            assert (tenengolts_residues(u, 3, 3) == (0, 0)) == expected


class TestLevenshtein:
    def test_membership_residue(self):
        for x in product((0, 1), repeat=8):
            expected = vt_syndrome(psi(x)) % 16 == 0
            assert (levenshtein_residues(x, 8) == (0,)) == expected

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


def _burst_parents(yp, tp):
    """(VT(y) - VT(yp), y, starts) for every y of length |yp| + tp such that
    a burst of tp deletions turns psi_inv(y) into psi_inv(yp), with the set
    of 1-based starts of those bursts."""
    xp = psi_inv(yp)
    out = []
    for y in product((0, 1), repeat=len(yp) + tp):
        x = psi_inv(y)
        starts = {s for s in range(1, len(xp) + 2) if x[: s - 1] + x[s - 1 + tp :] == xp}
        if starts:
            out.append((vt_syndrome(y) - vt_syndrome(yp), y, starts))
    return out


@pytest.mark.parametrize("tp", [1, 2])
def test_reinsertions_match_burst_parents(tp):
    # the generator against its definition, on every yp of length <= 7, with
    # the moduli of levenshtein and induced (2n) and of pbounded (2P); and
    # on every window of starts range(lo, hi), -1 <= lo <= hi <= |yp| + 3
    # (empty ones included), for yp of length <= 5
    for length in range(8):
        for yp in product((0, 1), repeat=length):
            parents = _burst_parents(yp, tp)
            for modulus in (2 * (length + tp), 4, 6):
                for delta in range(modulus):
                    expected = {y for d, y, _ in parents if d % modulus == delta}
                    assert classic._reinsertions(yp, tp, delta, modulus) == expected
            if length > 5:
                continue
            for lo in range(-1, length + 4):
                for hi in range(lo, length + 4):
                    window = range(lo, hi)
                    for delta in range(4):
                        expected = {
                            y for d, y, starts in parents
                            if d % 4 == delta and starts.intersection(window)
                        }
                        got = classic._reinsertions(yp, tp, delta, 4, window)
                        assert got == expected, (yp, window, delta)


class TestInduced:
    def test_interleaving_example(self):
        u = (1, 0, 6, 7, 6, 2, 3, 5)
        assert interleaved_psi(u) == (0, 0, 0, 1, 0, 0, 1, 1)

    def test_worked_example(self):
        u = (1, 0, 6, 7, 6, 2, 3, 5)
        assert is_alternating(u)
        assert induced_residues(u, 8, 8) == (3, 0, 6)
        up = (1, 0, 6, 2, 3, 5)  # 4th and 5th symbols gone (aba -> a)
        assert (3, up) in [(pos, res) for pos, res in induced_deletions(u)]
        assert induced_decode(up, 3, 0, 6, 8, 8) == u
        # residues out of range are no word's, though they agree mod 2n and q
        for a, b, c in ((3 + 16, 0, 6), (3, 0 + 8, 6), (3, 0, 6 - 8)):
            with pytest.raises(NotDecodableError, match="no unique codeword"):
                induced_decode(up, a, b, c, 8, 8)

    def test_induced_deletion_positions(self):
        # aba patterns: u_i == u_{i+2} allows deleting positions i+1, i+2
        u = (0, 1, 0, 2, 0)
        spots = induced_deletions(u)
        assert ((1), (0, 2, 0)) in spots
        assert len(spots) == 2

    def test_alternating_required(self):
        # the sieve enumerates alternating words only, and the decoder never
        # returns a non-alternating word, even one with matching residues
        assert all(is_alternating(u) for u in sieve("induced", 6, q=3).words)
        n, q = 6, 3
        for u in product(range(q), repeat=n):
            if is_alternating(u):
                continue
            a, b, c = induced_residues(u, n, q)
            for _, up in induced_deletions(u):
                try:
                    got = induced_decode(up, a, b, c, n, q)
                except NotDecodableError:
                    continue
                assert is_alternating(got)

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
        rep = roundtrip_sweep(book, bad, 1)
        assert not rep.ok


def test_is_alternating():
    assert is_alternating((0, 1, 0, 2))
    assert not is_alternating((0, 1, 1))


def _bits(rng, length):
    return tuple(rng.randint(0, 1) for _ in range(length))


def _alternating(rng, length, q):
    u = [rng.randrange(q)]
    while len(u) < length:
        u.append(rng.choice([s for s in range(q) if s != u[-1]]))
    return tuple(u)


# sieved books of the contract test: (family, n, sieve options, inputs);
# in the q = 6 books the decoded rows can reassemble into a symbol >= q
CONTRACT_BOOKS = {
    "c2b-q4": ("c2b", 12, {"q": 4}, 3000),
    "c2b-q6": ("c2b", 10, {"q": 6, "max_words": 4000}, 3000),
    "ctb-q4": ("ctb", 12, {"q": 4, "t": 2, "delta": 6, "P": 8}, 2000),
    "ctb-q6": ("ctb", 12, {"q": 6, "t": 1, "delta": 4, "P": 4}, 4000),
    # t = 3: an exhaustive book, located through fills of up to 3 bits
    "ctb-t3": ("ctb", 16, {"q": 4, "t": 3, "delta": 6, "P": 8}, 2000),
    "perm": ("perm", 8, {"t": 2, "delta": 8, "P": 6}, 1000),
    # t = 3: both edit oracles (k = 6 and 12 <= 4t) are identities
    "perm-t3": ("perm", 9, {"t": 3, "delta": 8, "P": 6}, 1000),
}


@lru_cache(maxsize=None)
def _contract_book(label):
    """(book, decoder, membership test) of a sieved book of the contract
    test."""
    family, n, kw, _ = CONTRACT_BOOKS[label]
    book = sieve(family, n, **kw)
    spec, decode = book.spec, book_decoder(book)
    if family == "c2b":
        params = C2BParams(n, spec.q, **spec.params)
        return book, decode, lambda u: c2b_member(u, params)
    if family == "ctb":
        params = CtbParams(n, spec.q, spec.t, **spec.params)
        labeler = BlockLabeler(ctb_oracles(params))
        return book, decode, lambda u: ctb_member(u, params, labeler)
    params = PermCodeParams(n, spec.t, **spec.params)
    labeler = perm_labeler(params)
    return book, decode, lambda pi: perm_member(pi, params, labeler)


def _book_case(rng, label):
    """A codeword or a uniform word (for perm: permutation) less a burst,
    with one symbol redrawn (for perm: two entries swapped) half of the
    time.  The check holds iff the output is a codeword whose burst ball
    contains the input."""
    book, decode, member = _contract_book(label)
    n, q, t = book.spec.n, book.spec.q, book.spec.t
    if rng.random() < 0.5:
        w = rng.choice(book.words)
    elif book.spec.family == "perm":
        w = tuple(rng.sample(range(1, n + 1), n))
    else:
        w = tuple(rng.randrange(q) for _ in range(n))
    d = rng.randint(1, t)
    rx = list(apply_burst(w, Burst(rng.randint(1, n - d + 1), d)))
    if rng.random() < 0.5:
        i, j = rng.randrange(len(rx)), rng.randrange(len(rx))
        if book.spec.family == "perm":
            rx[i], rx[j] = rx[j], rx[i]
        else:
            rx[i] = rng.randrange(q)
    rx = tuple(rx)
    return (lambda: decode(None, rx, None)), lambda u: (
        member(u) and any(burst_starts(u, rx, t))
    )


def _contract_case(rng, family, n):
    """One arbitrary input: (decode thunk, check of its output).  The check
    holds iff the output has the drawn residues and its ball (for pbounded:
    a burst inside the window [m, m+P-1]) contains the input.  The sieved
    books of CONTRACT_BOOKS draw their inputs in _book_case."""
    if family in CONTRACT_BOOKS:
        return _book_case(rng, family)
    q, P = 4, n // 2
    if family == "vt":
        a, rx = rng.randrange(n + 1), _bits(rng, n - 1)
        return (lambda: vt_decode(rx, a, n)), lambda x: (
            vt_residues(x, n) == (a,) and rx in deletion_ball(x, 1)
        )
    if family == "tenengolts":
        a, b = rng.randrange(n), rng.randrange(q)
        rx = tuple(rng.randrange(q) for _ in range(n - 1))
        return (lambda: tenengolts_decode(rx, a, b, n, q)), lambda u: (
            tenengolts_residues(u, n, q) == (a, b)
            and rx in deletion_ball(u, 1)
        )
    if family == "levenshtein":
        a, rx = rng.randrange(2 * n), _bits(rng, n - rng.randint(1, 2))
        return (lambda: levenshtein_decode(rx, a, n)), lambda x: (
            levenshtein_residues(x, n) == (a,)
            and rx in deletion_ball(x, 2, upto=True)
        )
    if family == "induced":
        a, b, c = rng.randrange(2 * n), rng.randrange(q), rng.randrange(q)
        # alternating inputs reach the reinsertion step; others rarely do
        if rng.random() < 0.5:
            rx = _alternating(rng, n - 2, q)
        else:
            rx = tuple(rng.randrange(q) for _ in range(n - 2))
        return (lambda: induced_decode(rx, a, b, c, n, q)), lambda u: (
            is_alternating(u)
            and induced_residues(u, n, q) == (a, b, c)
            and rx in [res for _, res in induced_deletions(u)]
        )
    if (family, n) in CONTRACT_DENSE:
        # a uniform word, or the encoding of a word of long runs (whose
        # pattern-free windows become trailer records) with one bit flipped
        t, delta, _ = CONTRACT_DENSE[family, n]
        dp = DensityParams(n, t, delta)
        if rng.random() < 0.5:
            y = _bits(rng, n + 4 * t)
        else:
            x, bit = [], rng.randint(0, 1)
            while len(x) < n:
                x.extend([bit] * rng.randint(1, rng.choice((8, delta))))
                bit ^= 1
            y = list(dense_encode(tuple(x[:n]), dp))
            y[rng.randrange(len(y))] ^= 1
            y = tuple(y)
        return (lambda: dense_decode(y, dp)), lambda x: dense_encode(x, dp) == y
    if family == "pll":
        # a uniform word, or the encoding of a word of period-2 runs of up
        # to 2 cap bits (so it has records to undo) with one bit flipped
        if rng.random() < 0.5:
            y = _bits(rng, n + 2)
        else:
            x = []
            while len(x) < n:
                a, b = rng.randint(0, 1), rng.randint(0, 1)
                x.extend((a, b) * rng.randint(1, pll_cap(n)))
            y = list(pll_encode(tuple(x[:n])))
            y[rng.randrange(len(y))] ^= 1
            y = tuple(y)
        return (lambda: pll_decode(y, n)), lambda x: pll_encode(x) == y
    c, d, m = rng.randrange(2 * P), rng.randrange(3), rng.randint(1, n)
    rx = _bits(rng, n - rng.randint(1, 2))
    params = PBoundedParams(n, P, c, d)
    return (lambda: pbounded_decode(rx, params, m)), lambda x: (
        pbounded_residues(x, P) == (c, d)
        and any(m <= s <= m + P - n + len(rx) for s in burst_starts(x, rx, 2))
    )


# dense-encoding cases of the contract test: (label, n) -> (t, delta,
# inputs); dense-paper takes the paper's delta t * 2^(2t+1) * ceil(log n)
CONTRACT_DENSE = {
    ("dense", 128): (1, 64, 5000),
    ("dense", 1024): (2, 864, 1000),
    ("dense-paper", 1024): (2, 640, 1000),
}

CONTRACT_CASES = [
    (family, n)
    for family in ("vt", "tenengolts", "levenshtein", "induced", "pbounded")
    for n in (8, 12)
] + [(label, CONTRACT_BOOKS[label][1]) for label in CONTRACT_BOOKS] + list(
    CONTRACT_DENSE
) + [("pll", n) for n in (16, 64)]


@pytest.mark.parametrize(
    "family, n", CONTRACT_CASES, ids=[f"{f}-{n}" for f, n in CONTRACT_CASES]
)
def test_decoder_contract_on_arbitrary_input(family, n):
    # a decoder either refuses or returns a word of its code whose ball
    # contains the input, never a wrong answer; both outcomes must occur
    rng = random.Random(f"{family}/{n}")
    outcomes = {"refused": 0, "decoded": 0}
    if family in CONTRACT_BOOKS:
        inputs = CONTRACT_BOOKS[family][3]
    elif (family, n) in CONTRACT_DENSE:
        inputs = CONTRACT_DENSE[family, n][2]
    else:
        inputs = 5000
    for _ in range(inputs):
        decode, holds = _contract_case(rng, family, n)
        try:
            got = decode()
        except NotDecodableError:
            outcomes["refused"] += 1
            continue
        assert holds(got)
        outcomes["decoded"] += 1
    assert outcomes["decoded"] > 0


def _psi_decode_outcomes():
    """Outcome (decoded word, or refusal message) of the psi-domain decoders
    on: every levenshtein input of length n, n - 1, n - 2 at n = 3..11 and
    a = -1..2n; every pbounded input of length n - 1, n - 2 at n = 4..8
    with every (c, d), P in {2, 3, n // 2, n} and m in {1, n // 2, n};
    every induced input over q = 3 at n = 6 with every (a, b, c); and
    seeded inputs at larger n, half of them a codeword less a burst."""
    def outcome(decode, *args):
        try:
            return decode(*args)
        except NotDecodableError as exc:
            return str(exc)

    outs = []
    for n in range(3, 12):
        for tp in (0, 1, 2):
            for xp in product((0, 1), repeat=n - tp):
                for a in range(-1, 2 * n + 1):
                    outs.append(outcome(levenshtein_decode, xp, a, n))
    for n in range(4, 9):
        for P in sorted({2, 3, n // 2, n}):
            for tp in (1, 2):
                for xp in product((0, 1), repeat=n - tp):
                    for c, d, m in product(range(2 * P), range(3), (1, n // 2, n)):
                        params = PBoundedParams(n, P, c, d)
                        outs.append(outcome(pbounded_decode, xp, params, m))
    for up in product(range(3), repeat=4):
        for a, b, c in product(range(12), range(3), range(3)):
            outs.append(outcome(induced_decode, up, a, b, c, 6, 3))
    rng = random.Random("psi-decode-outcomes")
    for n in (12, 16):
        for _ in range(1500):
            tp = rng.randint(1, 2)
            x = _bits(rng, n)
            s = rng.randint(1, n - tp + 1)
            if rng.random() < 0.5:
                xp = x[: s - 1] + x[s - 1 + tp :]
                (a,) = levenshtein_residues(x, n)
            else:
                xp, a = _bits(rng, n - tp), rng.randrange(2 * n)
            outs.append(outcome(levenshtein_decode, xp, a, n))
            P = rng.choice((2, 3, n // 2, n))
            c, d = pbounded_residues(x, P)
            m = max(1, s - rng.randrange(P))
            if rng.random() < 0.5:
                c, d, m = rng.randrange(2 * P), rng.randrange(3), rng.randint(1, n)
            params = PBoundedParams(n, P, c, d)
            outs.append(outcome(pbounded_decode, xp, params, m))
    for n, q in ((8, 4), (10, 4)):
        for _ in range(1500):
            u = _alternating(rng, n, q)
            a, b, c = induced_residues(u, n, q)
            spots = induced_deletions(u)
            if spots and rng.random() < 0.5:
                up = rng.choice(spots)[1]
            else:
                up = _alternating(rng, n - 2, q)
                a, b, c = rng.randrange(2 * n), rng.randrange(q), rng.randrange(q)
            outs.append(outcome(induced_decode, up, a, b, c, n, q))
    return outs


PSI_DECODE_DIGEST = (
    "b1bcf708cde922b381136ebf83603168ceb0f852cc38997bb5494dd73ece79cb"
)


def test_psi_decode_outcomes_pinned():
    # the digest was recorded from the hand-written one- and two-deletion
    # case analyses that _reinsertions replaced, each decoder keeping its
    # closing checks
    outs = _psi_decode_outcomes()
    assert sum(isinstance(o, str) for o in outs) < len(outs)
    digest = hashlib.sha256(repr(outs).encode()).hexdigest()
    assert digest == PSI_DECODE_DIGEST


def _pbounded_edge_outcomes():
    """Outcome of pbounded_decode on every input of length n - 1, n - 2 at
    n = 4..8 with P in {1, 2, 3}, every (c, d), and windows at and past
    both ends, m in {-1, 0, 1, 2, n - 1, n, n + 1}: at P = 1 a burst of 2
    fits no window, and windows past the ends hold few starts or none."""
    outs = []
    for n in range(4, 9):
        for P, tp in product((1, 2, 3), (1, 2)):
            for xp in product((0, 1), repeat=n - tp):
                for c, d in product(range(2 * P), range(3)):
                    params = PBoundedParams(n, P, c, d)
                    for m in (-1, 0, 1, 2, n - 1, n, n + 1):
                        try:
                            outs.append(pbounded_decode(xp, params, m))
                        except NotDecodableError as exc:
                            outs.append(str(exc))
    return outs


PBOUNDED_EDGE_DIGEST = (
    "575b4fbdca99b1c4e7f4003a0c4d18b11607967997afa1536978e11da1efad5a"
)


def test_pbounded_edge_windows_pinned():
    # the digest was recorded from the decoder that reinserted over all of
    # psi(xp) and kept the candidates with a burst inside the window
    outs = _pbounded_edge_outcomes()
    assert len(outs) == 93744
    assert sum(not isinstance(o, str) for o in outs) == 13640
    digest = hashlib.sha256(repr(outs).encode()).hexdigest()
    assert digest == PBOUNDED_EDGE_DIGEST
