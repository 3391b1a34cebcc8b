"""Tests for the prefix-automaton walks that sieve the exhaustive residue
families: every walk against the residue map it stands for, on every word
of its space, the budget errors, and books of benchmark size pinned byte
for byte."""
import hashlib
from itertools import product

import pytest

from burstcodes import verify
from burstcodes.classic import (
    induced_residues,
    levenshtein_residues,
    tenengolts_residues,
    vt_residues,
)
from burstcodes.pll2burst import pbounded_residues, pll_cap, pll_lev_residues
from burstcodes.seqcore import longest_period2


def per_word(walk):
    """The keys of a keyed walk (ids, keys), one per word of its space."""
    ids, keys = walk
    return [keys[i] for i in ids]


def binary(n):
    return list(product((0, 1), repeat=n))


BINARY_N = range(1, 13)


@pytest.mark.parametrize("n", BINARY_N)
def test_vt_walk(n):
    assert per_word(verify._vt_walk(n)) == [vt_residues(x, n) for x in binary(n)]


@pytest.mark.parametrize("n", BINARY_N)
def test_psi_walk_levenshtein(n):
    ids, states = verify._psi_walk(n, 2 * n)
    got = per_word((ids, verify._levenshtein_keys(n, states)))
    assert got == [levenshtein_residues(x, n) for x in binary(n)]


@pytest.mark.parametrize("n", BINARY_N)
# 5 to 9 are the pll_cap(n) of n <= 12: the P of c2b's other rows
@pytest.mark.parametrize("P", [1, 2, 3, 5, 6, 7, 8, 9])
def test_psi_walk_pbounded(n, P):
    ids, states = verify._psi_walk(n, 2 * P)
    got = per_word((ids, verify._pbounded_keys(n, P, states)))
    assert got == [pbounded_residues(x, P) for x in binary(n)]


@pytest.mark.parametrize("n", BINARY_N)
def test_pll_lev_walk(n):
    got = per_word(verify._pll_lev_walk(n))
    assert got == [pll_lev_residues(x, n) for x in binary(n)]


@pytest.mark.parametrize("n", BINARY_N)
def test_period2_walk(n):
    # the pll_lev walk drops (keys None) exactly the words whose longest
    # period-2 run exceeds pll_cap(n)
    got = [k is not None for k in per_word(verify._pll_lev_walk(n))]
    assert got == [longest_period2(x) <= pll_cap(n) for x in binary(n)]


@pytest.mark.parametrize("n", BINARY_N)
def test_shared_psi_walk_c2b_rows(n):
    # c2b takes row 1 from the pll_lev walk and its other rows from the psi
    # walk keyed as the pbounded code with P = pll_cap(n)
    cap = pll_cap(n)
    words = binary(n)
    assert per_word(verify._pll_lev_walk(n)) == [
        pll_lev_residues(x, n) for x in words
    ]
    ids, states = verify._psi_walk(n, 2 * cap)
    assert per_word((ids, verify._pbounded_keys(n, cap, states))) == [
        pbounded_residues(x, cap) for x in words
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", range(1, 7))
def test_tenengolts_walk(n, q):
    got = per_word(verify._tenengolts_walk(n, q))
    assert got == [
        tenengolts_residues(u, n, q) for u in product(range(q), repeat=n)
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", range(2, 9))
def test_induced_walk(n, q):
    # the walk skips the words that are not alternating, as the space does
    words = list(verify._alternating_space(n, q, 1 << 20))
    got = per_word(verify._induced_walk(n, q))
    assert got == [induced_residues(u, n, q) for u in words]


BUDGET_CASES = [
    ("vt", 12, {}),
    ("levenshtein", 12, {}),
    ("tenengolts", 6, {"q": 4}),
    ("induced", 8, {"q": 4}),
    ("pbounded", 12, {"P": 4}),
    ("pll_lev", 12, {}),
    ("c2b", 12, {"q": 4}),
]


@pytest.mark.parametrize(
    "family, n, kw", BUDGET_CASES, ids=[c[0] for c in BUDGET_CASES]
)
def test_budget_error_before_any_walk(monkeypatch, family, n, kw):
    def no_walk(*args):
        raise AssertionError("walked a space beyond the budget")

    monkeypatch.setattr(verify, "_walk", no_walk)
    with pytest.raises(ValueError, match="exceeds budget"):
        verify.sieve(family, n, budget=100, **kw)


# SHA-256 of Codebook.to_json() of the benchmark's sieves, recorded from the
# per-word sieve that the walks replaced
BENCH_BOOKS = [
    ("vt", 16, {}, "30d6a64a2d5b3e1fa3be7d0925d8abd5a83fb6a9a9afc289b5c59efeaa79a9d4"),
    ("levenshtein", 16, {}, "883840581e68bbef5abc7ff2be5af3ad4eacfd13c563a565e739824b65c4573a"),
    ("tenengolts", 8, {"q": 4}, "4ad522f4f7d0b9cd6f0d902b87031d227957ed354feb19af7198667baa82434d"),
    ("c2b", 16, {"q": 4, "max_words": 256}, "69baa41e11fe89dc5f76b3b3531b957aa102f8272160059ee357738615e2cc92"),
    ("induced", 10, {"q": 4}, "4684bc96aa4a83cd4140ca85f420aa66256f74f06efd049479d17cfd440b6d0a"),
    ("pbounded", 16, {"P": 6}, "45711138015827142138801b2ba98094bbd1ef093e8c6120756102c9cb6b1e29"),
    ("perm", 8, {"t": 2, "delta": 8, "P": 6}, "a57a0a9889c10441a9879dec8de0ee9c09b546719d1cc2741a029b90eff84c62"),
]


@pytest.mark.parametrize(
    "family, n, kw, digest", BENCH_BOOKS,
    ids=[f"{fam}-n{n}" for fam, n, _, _ in BENCH_BOOKS],
)
def test_benchmark_books_pinned(family, n, kw, digest):
    book = verify.sieve(family, n, **kw)
    assert hashlib.sha256(book.to_json().encode()).hexdigest() == digest
