"""Tests for the prefix automata that sieve the exhaustive residue
families: every automaton against the residue map it stands for, on every
word of its space, the class sizes counted per state and the class built
from them against the per-word keys, the largest-class counts that the
redundancy table reads against the sieved books, the budget errors, and
books of benchmark size pinned byte for byte."""
import hashlib
from collections import Counter
from itertools import product

import pytest

from burstcodes import verify
from burstcodes.bounds import measured_redundancy
from burstcodes.classic import (
    induced_residues,
    is_alternating,
    levenshtein_residues,
    tenengolts_residues,
    vt_residues,
)
from burstcodes.pll2burst import pbounded_residues, pll_cap, pll_lev_residues
from burstcodes.seqcore import longest_period2


def end(walk, word):
    """The state an automaton (start, step, key) is in after word, or None
    when a step drops the word."""
    start, step, _ = walk
    st = start
    for j, s in enumerate(word, start=1):
        st = step(st, s, j)
        if st is None:
            return None
    return st


def run(walk, word):
    """The key of the state the automaton ends in after word, or None."""
    st = end(walk, word)
    return None if st is None else walk[2](st)


def per_word(walk, words):
    return [run(walk, x) for x in words]


def binary(n):
    return list(product((0, 1), repeat=n))


BINARY_N = range(1, 13)


@pytest.mark.parametrize("n", BINARY_N)
def test_vt_walk(n):
    words = binary(n)
    assert per_word(verify._vt_walk(n), words) == [vt_residues(x, n) for x in words]


@pytest.mark.parametrize("n", BINARY_N)
def test_psi_walk_levenshtein(n):
    words = binary(n)
    got = per_word(verify._levenshtein_walk(n), words)
    assert got == [levenshtein_residues(x, n) for x in words]


@pytest.mark.parametrize("n", BINARY_N)
# 5 to 9 are the pll_cap(n) of n <= 12: the P of c2b's other rows
@pytest.mark.parametrize("P", [1, 2, 3, 5, 6, 7, 8, 9])
def test_psi_walk_pbounded(n, P):
    words = binary(n)
    got = per_word(verify._pbounded_walk(n, P), words)
    assert got == [pbounded_residues(x, P) for x in words]


@pytest.mark.parametrize("n", BINARY_N)
def test_pll_lev_walk(n):
    words = binary(n)
    got = per_word(verify._pll_lev_walk(n), words)
    assert got == [pll_lev_residues(x, n) for x in words]


@pytest.mark.parametrize("n", BINARY_N)
def test_period2_walk(n):
    # the pll_lev key is None exactly on the words whose longest period-2
    # run exceeds pll_cap(n)
    words = binary(n)
    got = [k is not None for k in per_word(verify._pll_lev_walk(n), words)]
    assert got == [longest_period2(x) <= pll_cap(n) for x in words]


@pytest.mark.parametrize("n", BINARY_N)
def test_shared_psi_walk_c2b_rows(n):
    # c2b takes row 1 from the pll_lev automaton and its other rows from
    # the psi step keyed as the pbounded code with P = pll_cap(n)
    cap = pll_cap(n)
    words = binary(n)
    assert per_word(verify._pll_lev_walk(n), words) == [
        pll_lev_residues(x, n) for x in words
    ]
    assert per_word(verify._pbounded_walk(n, cap), words) == [
        pbounded_residues(x, cap) for x in words
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", range(1, 7))
def test_tenengolts_walk(n, q):
    words = list(product(range(q), repeat=n))
    got = per_word(verify._tenengolts_walk(n, q), words)
    assert got == [tenengolts_residues(u, n, q) for u in words]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", range(2, 9))
def test_induced_walk(n, q):
    # every q-ary word: the step drops exactly the words that are not
    # alternating
    words = list(product(range(q), repeat=n))
    got = per_word(verify._induced_walk(n, q), words)
    assert got == [
        induced_residues(u, n, q) if is_alternating(u) else None for u in words
    ]


# (id, family, n, q, options) of every walk family at small n
GRID = [
    *[(f"vt-n{n}", "vt", n, 2, {}) for n in (1, 5, 10)],
    *[(f"levenshtein-n{n}", "levenshtein", n, 2, {}) for n in (1, 5, 10)],
    *[
        (f"pbounded-n{n}-P{P}", "pbounded", n, 2, {"P": P})
        for n, P in ((4, 1), (9, 3), (10, 6))
    ],
    *[(f"pll_lev-n{n}", "pll_lev", n, 2, {}) for n in (1, 6, 11)],
    *[
        (f"tenengolts-n{n}-q{q}", "tenengolts", n, q, {})
        for n, q in ((1, 3), (4, 3), (5, 4))
    ],
    *[
        (f"induced-n{n}-q{q}", "induced", n, q, {})
        for n, q in ((2, 2), (5, 3), (6, 4))
    ],
]
WALK_IDS = [g[0] for g in GRID]
# (n, q, automaton) of the grid, from the registry's automaton factories
WALKS = [
    (n, q, verify.FAMILIES[family].automaton(n, q, **options)[0])
    for _, family, n, q, options in GRID
]


def kept(counts):
    """A Counter without the words a step drops or a key leaves out."""
    return {k: v for k, v in counts.items() if k is not None}


@pytest.mark.parametrize("n, q, walk", WALKS, ids=WALK_IDS)
def test_walk_counts_the_words_per_state_and_class(n, q, walk):
    start, step, key = walk
    levels = list(verify._walk(n, q, start, step))
    for j, level in enumerate(levels):
        prefixes = product(range(q), repeat=j)
        assert level == kept(Counter(end(walk, p) for p in prefixes)), j
    sizes = Counter()
    for st, count in levels[-1].items():
        sizes[key(st)] += count
    assert sizes == kept(Counter(per_word(walk, product(range(q), repeat=n))))


@pytest.mark.parametrize("n, q, walk", WALKS, ids=WALK_IDS)
def test_best_class_is_the_filtered_space(n, q, walk):
    # the largest class, ties to the smallest key, built in product order
    words = list(product(range(q), repeat=n))
    keys = per_word(walk, words)
    sizes = kept(Counter(keys))
    best = min(sizes, key=lambda k: (-sizes[k], k))
    assert verify._best_class(n, q, walk) == (
        best, [x for x, k in zip(words, keys) if k == best]
    )


# (family, n, q, options) over the grids of the per-word automaton tests
COUNT_GRID = [
    *[(f, n, 2, {}) for f in ("vt", "levenshtein", "pll_lev") for n in BINARY_N],
    *[
        ("pbounded", n, 2, {"P": P})
        for n in BINARY_N for P in (1, 2, 3, 5, 6, 7, 8, 9)
    ],
    *[("tenengolts", n, q, {}) for n in range(1, 7) for q in (2, 3, 4, 5)],
    *[("induced", n, q, {}) for n in range(2, 9) for q in (2, 3, 4, 5)],
]


@pytest.mark.parametrize(
    "family, n, q, options", COUNT_GRID,
    ids=[f"{f}-n{n}-q{q}" + "".join(f"-{k}{v}" for k, v in o.items())
         for f, n, q, o in COUNT_GRID],
)
def test_counted_largest_class_is_the_book(family, n, q, options):
    # the count the table reads, against the book the sieve builds
    ambient, size = verify._largest_count(verify.FAMILIES[family], n, q, **options)
    book = verify.sieve(family, n, q=q, **options)
    assert size == len(book.words)
    assert measured_redundancy(ambient, size) == book.redundancy_bits


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("n", BINARY_N)
def test_counted_c2b_product_is_the_book(n, q):
    book = verify.sieve("c2b", n, q=q)
    assert verify._c2b_count(n, q) == (q**n, book.full_size)


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
