"""Tests for the family registry, sieving, confusability checking, exact
maximum codes, codebook serialization, and round-trip sweeps."""
import hashlib
import itertools
import time

import pytest

from burstcodes.classic import (
    induced_residues,
    is_alternating,
    levenshtein_residues,
    tenengolts_residues,
    vt_residues,
)
from burstcodes.perm import PermCodeParams, perm_labeler, perm_member
from burstcodes.pll2burst import (
    C2BParams,
    PBoundedParams,
    c2b_member,
    pbounded_member,
    pll_lev_residues,
)
from burstcodes.seqcore import Burst, apply_burst, vt_syndrome, psi
from burstcodes.tburst import (
    BlockLabeler,
    CtbParams,
    DensityParams,
    ctb_member,
    ctb_oracles,
    loc_member,
)
from burstcodes import verify
from burstcodes.cli import main
from burstcodes.verify import (
    FAMILIES,
    Codebook,
    CodeSpec,
    _adjacency,
    _max_independent_set,
    _packing_bound,
    book_decoder,
    confusability_check,
    exists_perm_code,
    max_code_exact,
    max_perm_code_exact,
    roundtrip_sweep,
    sieve,
)
from burstcodes.bounds import lp_bound, perm_bound


# SHA-256 of Codebook.to_json() of books whose row-1 pool is sampled: the
# loc book past a small budget, and ctb-stream's book at two seeds
SAMPLED_BOOKS = [
    ("loc", 16, {"t": 2, "delta": 8, "budget": 1 << 10}, "c0e6647ab4b9411491e4c8f7f85fa75d2ee7e27f9313058dcb625fa529c9f72b"),
    ("ctb", 32, {"q": 16, "t": 2, "delta": 7, "P": 8, "seed": 1}, "daf1034f6ddbcff94a77b243f59c4f77747177bb683608fe3c86b0fc93c4388f"),
    ("ctb", 32, {"q": 16, "t": 2, "delta": 7, "P": 8, "seed": 601}, "f0935ab6f5c39ce1b0d3069c11aed0593f5911d0d1112baebf3eea4b674da785"),
]


class TestSieve:
    def test_levenshtein_size_at_least_pigeonhole(self):
        # 2n residue classes partition 2^n words
        book = sieve("levenshtein", 8)
        assert len(book.words) >= 2**8 // 16

    def test_vt_trivial_n1(self):
        book = sieve("vt", 1)
        assert len(book.words) == 1

    def test_words_are_members(self):
        book = sieve("levenshtein", 8)
        a = book.spec.params["a"]
        for x in book.words:
            assert vt_syndrome(psi(x)) % 16 == a

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            sieve("vt", 30, budget=1 << 10)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sieve("nope", 8)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_n_below_one_rejected(self, family):
        # every option a family may require, and an even q for c2b
        with pytest.raises(ValueError, match="n >= 1"):
            sieve(family, 0, q=4, delta=4, P=4)

    def test_induced_n1_rejected(self):
        with pytest.raises(ValueError):
            sieve("induced", 1, q=3)

    def test_loc_sampled_above_budget(self):
        # 2^16 words exceed the budget, so the pool is drawn dense words:
        # the book says it sampled and claims no full class size
        book = sieve("loc", 16, t=2, delta=8, budget=1 << 10)
        assert book.sampled
        assert book.full_size is None
        assert book.words
        member = _loc_member_test(book.spec)
        assert all(member(x) for x in book.words)

    @pytest.mark.parametrize(
        "family, n, kw, digest", SAMPLED_BOOKS,
        ids=[f"{fam}-n{n}-seed{kw.get('seed', 0)}" for fam, n, kw, _ in SAMPLED_BOOKS],
    )
    def test_sampled_books_pinned(self, family, n, kw, digest):
        # a pool drawn past the budget is seeded, so the book is pinned too
        book = sieve(family, n, **kw)
        assert book.sampled
        assert hashlib.sha256(book.to_json().encode()).hexdigest() == digest

    def test_c2b_odd_alphabet_rejected(self):
        with pytest.raises(ValueError, match="q even"):
            sieve("c2b", 10, q=3)

    def test_deterministic(self):
        a = sieve("tenengolts", 5, q=3)
        b = sieve("tenengolts", 5, q=3)
        assert a.words == b.words
        assert a.spec == b.spec


# SHA-256 of Codebook.to_json() per family at small fixed params; the
# digests pin the sieve output byte for byte
REGISTRY_BOOKS = [
    ("vt", 10, {}, "b1a9ba340ad51b1c3ebcb6dea9265d054d78bec81585fe22e57b4ab13c5cd565"),
    ("tenengolts", 5, {"q": 3}, "84c284596bb189d2dd52109f6ecdbc41693968b6509ab5ba337c579cee2d08b0"),
    ("levenshtein", 10, {}, "2e44bbd0196de5e7c2c5b94eadabd673e7749d1dd2723c9b4120957bf407030a"),
    ("induced", 6, {"q": 3}, "994944b0f2afaa5b1dd2d16dde2ed91a9e15524ecbe9019f3104b189003e635e"),
    ("pbounded", 10, {"P": 4}, "ca46b6363e6c1dd9350991a97166ba65ed5e03fc35b3f457fe35b26f44245205"),
    ("pll_lev", 10, {}, "bd0d1fe4b5dbc9626515532c3e2e3800801f977d81b8b62d5624979118226b0d"),
    ("loc", 12, {"t": 1, "delta": 8}, "1e20d0a1d71e1ea665e1a522b78c4a959570aa0562d7e5490522f2c5e70f6eb0"),
    ("c2b", 12, {"q": 4}, "f79a7b3b5d92d6262891cfb9a283b1c4558bd5c513cfd9c31431d5111458a4b5"),
    ("c2b", 10, {"q": 16, "max_words": 64}, "45cdbf30335ab1d959f06dd5b84e85396122efacd672f0d815caedd3be401653"),
    ("ctb", 12, {"q": 4, "t": 1, "delta": 4, "P": 4}, "3cb1099e4addf004976d9ccb041a10d93aac54bae4404dfc107021d8d0287401"),
    ("perm", 6, {"t": 1, "delta": 4, "P": 5}, "15ad549dbb106766bbac23d73fd797ed04dcbec83cdf865e6795e0601f7acb49"),
    # perm-stream's book (168 words) and a t = 3 one (14 words), recorded
    # before the perm sieve grouped S_n by (half indicator, ranking sequence)
    ("perm", 8, {"t": 2, "delta": 8, "P": 6}, "a57a0a9889c10441a9879dec8de0ee9c09b546719d1cc2741a029b90eff84c62"),
    ("perm", 7, {"t": 3, "delta": 6, "P": 4}, "1d1fdef4b0a99a07c66737ff3389214a37ba33ecfda93700eb0d7c5773f7d937"),
    # q = 6: the row products are filtered to symbols < 6 (257 of 4,000
    # and 60 of 578 words), and full_size is None
    ("c2b", 10, {"q": 6, "max_words": 4000}, "d27be1aa8a7e19a60ffe9e855774c50937c6ad81ba9b6c31dd300fa439765053"),
    ("ctb", 12, {"q": 6, "t": 1, "delta": 4, "P": 4}, "c5d7a904829593e47cc2e5d851e88d9e79293cd9f48398e4fd82cdbdb4afe80b"),
]


def _book_id(family, n, kw):
    q = kw.get("q", 2)
    # a row-product book over a q that is not a power of two is named by q,
    # so its id differs from the pinned power-of-two ones
    tag = f"-q{q}" if family in ("c2b", "ctb") and q & (q - 1) else ""
    return f"{family}-n{n}-{len(kw)}{tag}"


def _ctb_member_test(spec):
    params = CtbParams(spec.n, spec.q, spec.t, **spec.params)
    labeler = BlockLabeler(ctb_oracles(params))
    return lambda u: ctb_member(u, params, labeler)


def _perm_member_test(spec):
    params = PermCodeParams(spec.n, spec.t, **spec.params)
    labeler = perm_labeler(params)
    return lambda pi: perm_member(pi, params, labeler)


def _loc_member_test(spec):
    p = spec.params
    dp = DensityParams(spec.n, spec.t, p["delta"])
    return lambda x: loc_member(x, p["c0"], p["c1"], dp)


# family -> spec -> membership test of the spec's code, through the residue
# maps and the member functions
MEMBER_TESTS = {
    "vt": lambda s: lambda x: vt_residues(x, s.n) == (s.params["a"],),
    "tenengolts": lambda s: lambda u: (
        tenengolts_residues(u, s.n, s.q) == (s.params["a"], s.params["b"])
    ),
    "levenshtein": lambda s: lambda x: (
        levenshtein_residues(x, s.n) == (s.params["a"],)
    ),
    "induced": lambda s: lambda u: is_alternating(u) and (
        induced_residues(u, s.n, s.q)
        == (s.params["a"], s.params["b"], s.params["c"])
    ),
    "pbounded": lambda s: lambda x: (
        pbounded_member(x, PBoundedParams(s.n, **s.params))
    ),
    "pll_lev": lambda s: lambda x: pll_lev_residues(x, s.n) == (s.params["a"],),
    "loc": _loc_member_test,
    "c2b": lambda s: lambda u: c2b_member(u, C2BParams(s.n, s.q, **s.params)),
    "ctb": _ctb_member_test,
    "perm": _perm_member_test,
}


class TestRegistry:
    @pytest.mark.parametrize(
        "family, n, kw, digest", REGISTRY_BOOKS,
        ids=[_book_id(fam, n, kw) for fam, n, kw, _ in REGISTRY_BOOKS],
    )
    def test_sieve_digest_and_sweep(self, family, n, kw, digest):
        book = sieve(family, n, **kw)
        assert hashlib.sha256(book.to_json().encode()).hexdigest() == digest
        is_member = MEMBER_TESTS[family](book.spec)
        assert all(is_member(w) for w in book.words)
        if FAMILIES[family].decoder is None:
            with pytest.raises(ValueError):
                book_decoder(book)
            return
        # an evenly spread sub-book of about 64 words keeps c2b n=12 (15,300
        # words) fast; pbounded decodes with the burst as its window
        words = book.words[:: max(1, len(book.words) // 64)]
        sub = Codebook(book.spec, words, book.redundancy_bits)
        report = roundtrip_sweep(sub, book_decoder(book), book.spec.t)
        assert report.ok and report.total > 0

    def test_every_family_is_pinned(self):
        assert {fam for fam, *_ in REGISTRY_BOOKS} == set(FAMILIES)
        assert set(MEMBER_TESTS) == set(FAMILIES)

    def test_cli_choices_are_the_registry(self, capsys):
        assert main(["sieve", "--help"]) == 0
        assert "--family {" + ",".join(FAMILIES) + "}" in capsys.readouterr().out


class TestConfusability:
    def test_codebook_passes(self):
        book = sieve("levenshtein", 8)
        assert confusability_check(book.words, 2) is None

    def test_witness_found(self):
        # two words sharing a burst descendant yield a concrete witness
        words = [(0, 0, 0, 0), (0, 0, 0, 1)]
        witness = confusability_check(words, 1)
        assert witness is not None
        u, v, d = witness
        assert {u, v} == set(words)
        assert d == (0, 0, 0)

    def test_single_word_passes(self):
        assert confusability_check([(0, 1, 0, 1)], 2) is None


class TestExactMax:
    def test_single_deletion_n2(self):
        # [DERIVED] {00, 11} is optimal
        assert max_code_exact(2, 2, 1) == 2

    def test_two_burst_n4(self):
        # [DERIVED] exhaustive search gives 3, below the bound of 4
        got = max_code_exact(4, 2, 2)
        assert got == 3
        assert got <= lp_bound(4, 2, 2).floor

    def test_perm_small(self):
        # [DERIVED] exhaustive: 12 of 120 permutations, bound 15
        got = max_perm_code_exact(5, 2)
        assert got == 12
        assert got <= perm_bound(5, 2).floor

    def test_perm_packing_bound_met(self):
        # [DERIVED] a burst of 3 deletions leaves 3 of the 20 ordered pairs
        # of S_5, so at most floor(20/3) = 6 codewords; the greedy set
        # meets that bound and ends the search
        words = list(itertools.permutations(range(1, 6)))
        assert _packing_bound(words, 3) == 6
        assert max_perm_code_exact(5, 3) == 6
        assert _max_independent_set(_adjacency(words, 3), len(words)) == 6

    def test_max_perm_code_s6_t3(self):
        # [DERIVED] the greedy set has 27 words; asking the cell search at
        # the packing bound settles the maximum at 30 in seconds
        start = time.perf_counter()
        assert max_perm_code_exact(6, 3) == 30
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("n,q,t", [(4, 2, 1), (4, 2, 2), (3, 3, 1), (4, 3, 2)])
    def test_packing_bound_keeps_the_answer(self, n, q, t):
        # [DERIVED] stopping at the packing bound gives the full search's answer
        words = list(itertools.product(range(q), repeat=n))
        full = _max_independent_set(_adjacency(words, t), len(words))
        assert full <= _packing_bound(words, t)
        assert max_code_exact(n, q, t) == full

    @pytest.mark.parametrize("n,t", [(n, t) for n in (4, 5) for t in range(1, n)])
    def test_anchored_perm_search_matches_full_graph(self, n, t):
        # [DERIVED] relabelling values acts transitively on S_n, so the
        # search anchored at the first permutation loses nothing
        words = list(itertools.permutations(range(1, n + 1)))
        full = _max_independent_set(_adjacency(words, t), len(words))
        assert max_perm_code_exact(n, t) == full

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            max_code_exact(20, 2, 2)
        with pytest.raises(ValueError):
            max_perm_code_exact(9, 2)

    # a 6-vertex graph whose greedy independent set (2 vertices) is below its
    # maximum (3), so the branch and bound runs
    GREEDY_SHORT = [18, 37, 42, 36, 33, 30]

    def test_search_stops_at_the_upper_bound(self):
        assert verify._greedy_independent(self.GREEDY_SHORT, 63) == 2
        assert _max_independent_set(self.GREEDY_SHORT, 3) == 3
        assert _max_independent_set(self.GREEDY_SHORT, 6) == 3

    def test_search_node_budget(self, monkeypatch):
        monkeypatch.setattr(verify, "NODE_BUDGET", 1)
        with pytest.raises(RuntimeError, match="node budget"):
            _max_independent_set(self.GREEDY_SHORT, 6)


class TestExistsPermCode:
    def test_matches_exact_max_n5(self):
        # [DERIVED] the decision procedure brackets max_perm_code_exact(5,2)=12
        assert exists_perm_code(5, 2, 12) is True
        assert exists_perm_code(5, 2, 13) is False

    def test_matches_exact_max_n4(self):
        # [DERIVED] max_perm_code_exact(4,2)=4, bound floor(24/6)=4
        got = max_perm_code_exact(4, 2)
        assert exists_perm_code(4, 2, got) is True
        assert exists_perm_code(4, 2, got + 1) is False

    # (4, 2) and (5, 2) are bracketed above
    @pytest.mark.parametrize(
        "n,t",
        [(n, t) for n in (3, 4, 5) for t in range(1, n) if (n, t) not in {(4, 2), (5, 2)}]
        + [(6, 4)],
    )
    def test_brackets_exact_max(self, n, t):
        # [DERIVED] the cell search and the independent-set search agree
        got = max_perm_code_exact(n, t)
        assert exists_perm_code(n, t, got) is True
        assert exists_perm_code(n, t, got + 1) is False

    def test_perfect_code_s6_t3(self):
        # [DERIVED] a code meeting the packing bound 6!/(3!*4) = 30 exists,
        # which the colouring search alone does not find in minutes
        assert exists_perm_code(6, 3, 30) is True
        assert exists_perm_code(6, 3, 31) is False

    def test_cells_with_many_candidates(self):
        # [DERIVED] every cell of S_5 under a 3-burst has 18 candidate rows,
        # of S_6 under a 4-burst 72: a count lane needs more than 4 bits
        assert exists_perm_code(5, 3, 6) is True
        assert exists_perm_code(6, 4, 10) is True

    def test_trivial_sizes(self):
        # [TRIVIAL] a single codeword is always a valid code
        assert exists_perm_code(5, 2, 1) is True
        assert exists_perm_code(5, 2, 0) is True

    def test_counting_shortcut(self):
        # [TRIVIAL] size*(n-t+1) exceeds the number of burst-t descendants
        assert exists_perm_code(5, 2, 16) is False

    def test_domain_and_budget(self, monkeypatch):
        with pytest.raises(ValueError):
            exists_perm_code(4, 0, 2)
        with pytest.raises(ValueError):
            exists_perm_code(9, 2, 5)
        monkeypatch.setattr(verify, "NODE_BUDGET", 10)
        with pytest.raises(RuntimeError):
            exists_perm_code(5, 2, 13)


class TestCodebookJson:
    def test_roundtrip(self):
        book = sieve("pbounded", 10, P=4)
        text = book.to_json()
        loaded = Codebook.from_json(text)
        assert loaded.spec == book.spec
        assert loaded.words == book.words
        assert loaded.redundancy_bits == book.redundancy_bits
        assert loaded.sampled == book.sampled

    def test_tuple_params_survive(self):
        book = sieve("c2b", 12, q=4, max_words=8)
        loaded = Codebook.from_json(book.to_json())
        assert loaded.spec.params["rows"] == book.spec.params["rows"]

    def test_schema_version_checked(self):
        book = sieve("vt", 4)
        import json

        raw = json.loads(book.to_json())
        raw["schema_version"] = 99
        with pytest.raises(ValueError):
            Codebook.from_json(json.dumps(raw))


class TestSweep:
    def test_vt_sweep_ok(self):
        book = sieve("vt", 8)
        report = roundtrip_sweep(book, book_decoder(book), 1)
        assert report.ok
        assert report.total == len(book.words) * 8

    def test_negative_control(self):
        # a deliberately wrong decoder is reported, not hidden
        book = sieve("vt", 6)

        def bad(w, rx, b):
            return (0,) * 6

        report = roundtrip_sweep(book, bad, 1)
        assert not report.ok
        assert len(report.failures) > 0

    def test_refusals_are_recorded(self):
        # 0000000011 has VT(psi) = 18 mod 20: the a = 0 decoder refuses 8 of
        # its 19 corruptions and decodes the others to other words
        w = (0,) * 8 + (1, 1)
        book = Codebook(CodeSpec("levenshtein", 10, 2, 2, {"a": 0}), [w], 0.0)
        report = roundtrip_sweep(book, book_decoder(book), 2)
        assert report.total == len(report.failures) == 19
        refusals = [got for _, _, got in report.failures if isinstance(got, str)]
        assert len(refusals) == 8
        assert all(got.startswith("not decodable: ") for got in refusals)

    def test_induced_channel(self):
        book = sieve("induced", 6, q=3)
        report = roundtrip_sweep(book, book_decoder(book), 2)
        assert report.ok
