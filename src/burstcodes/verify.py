"""Ground-truth machinery: the code-family registry, codebook sieving, the
redundancy comparison table, confusability checking, exact maximum-code
computation, and round-trip sweeps.

Each code family is declared once, as one `Family` record in `FAMILIES`,
which `sieve`, `book_decoder`, `roundtrip_sweep`, `redundancy_table` and
the CLI all read.

A sieve keeps the largest residue class of an ambient space, ties to the
lexicographically smallest residue tuple.  The walk families (vt,
tenengolts, levenshtein, induced, pbounded and pll_lev) each have one
prefix automaton whose states carry the partial residues, whose step drops
the prefixes outside the space, and whose final state alone gives a word's
residue key.  Counting the words per state, level by level, gives every
class size without listing the space: the table needs no more, and a sieve
builds only the words of the winning class, along the states from which it
can be reached.  c2b takes its rows from the pll_lev and pbounded sieves.
The tests hold every automaton to the residue map of `classic` or
`pll2burst` on every word of its space.  loc, ctb and perm group the words
of their space by residue tuple; beyond the budget, `_loc_pool` gives loc
and ctb a structured random sample of dense words, flagged as sampled.
"""
from __future__ import annotations

import json
import random
import sys
from collections import Counter, defaultdict, deque
from dataclasses import asdict, dataclass, field
from itertools import islice, permutations, product
from math import factorial, prod
from typing import Callable, Iterable, Optional

from . import classic, perm as perm_mod, pll2burst, tburst
from .bounds import measured_redundancy
from .seqcore import (
    Burst,
    NotDecodableError,
    apply_burst,
    bursts,
    deletion_ball,
    from_matrix,
    matrix_rows,
    psi,  # unused here: the benchmark's tracer test checks it is rebound
)

SCHEMA_VERSION = 1
DEFAULT_BUDGET = 1 << 24
SAMPLES = 3000  # pool size of a sampled sieve
NODE_BUDGET = 20_000_000  # nodes an exact search expands before it gives up
EXACT_BUDGET = 1 << 14  # the largest space an exact search enumerates


class EmptyBookError(Exception):
    """A sieve with valid options found no word: a failure, not misuse."""


@dataclass(frozen=True)
class CodeSpec:
    family: str
    n: int
    q: int
    t: int
    params: dict = field(default_factory=dict)


@dataclass
class Codebook:
    spec: CodeSpec
    words: list
    redundancy_bits: float
    sampled: bool = False
    full_size: Optional[int] = None

    def to_json(self) -> str:
        spec = asdict(self.spec)
        raw = {"schema_version": SCHEMA_VERSION, **vars(self), "spec": spec}
        return json.dumps(raw, indent=1)

    @staticmethod
    def from_json(text: str) -> "Codebook":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("codebook is not a JSON object")
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported codebook schema version")
        sp = raw.get("spec", {})
        if not isinstance(sp, dict):
            raise ValueError("codebook spec is not a JSON object")
        missing = [f"spec.{k}" for k in ("family", "n", "q", "t") if k not in sp]
        missing += [k for k in ("words", "redundancy_bits") if k not in raw]
        if missing:
            raise ValueError(f"codebook lacks {', '.join(missing)}")
        if not isinstance(sp["family"], str):
            raise ValueError("spec.family must be a string")
        for k in ("n", "q", "t"):
            if type(sp[k]) is not int:
                raise ValueError(f"spec.{k} must be an integer")
        params = sp.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("spec.params is not a JSON object")
        words = raw["words"]
        if not isinstance(words, list) or not all(
            isinstance(w, list) and all(type(s) is int for s in w) for w in words
        ):
            raise ValueError("words must be lists of integers")
        spec = CodeSpec(
            sp["family"], sp["n"], sp["q"], sp["t"],
            {k: _json_ints(v, f"spec.params.{k}") for k, v in params.items()},
        )
        return Codebook(
            spec=spec,
            words=[tuple(w) for w in words],
            redundancy_bits=raw["redundancy_bits"],
            sampled=raw.get("sampled", False),
            full_size=raw.get("full_size"),
        )


def _json_ints(v, where: str):
    """A JSON integer or a (nested) list of them, lists as tuples."""
    if isinstance(v, list):
        return tuple(_json_ints(x, where) for x in v)
    if type(v) is not int:
        raise ValueError(f"{where} must hold integers, not {v!r}")
    return v


# ---------------------------------------------------------------------------
# code families: ambient spaces, sieves, decoders and the registry


def _qary_space(n: int, q: int, budget: int) -> Iterable[tuple]:
    if q**n > budget:
        raise ValueError(f"ambient space {q}^{n} exceeds budget {budget}")
    return product(range(q), repeat=n)


def _perm_space(n: int, budget: int) -> Iterable[tuple]:
    if factorial(n) > budget:
        raise ValueError("permutation space exceeds budget")
    return permutations(range(1, n + 1))


def _largest(sizes: dict):
    """The key of the largest class of sizes (key -> class size), ties to
    the smallest key; the key None (words outside the family) never wins."""
    keys = [k for k in sizes if k is not None]
    if not keys:
        raise ValueError("no word of the ambient space passes the sieve")
    return min(keys, key=lambda k: (-sizes[k], k))


def _best_group(words: Iterable[tuple], key: Callable) -> tuple:
    """Group words by key(word); return the key and words of the largest
    group, chosen by _largest."""
    groups = defaultdict(list)
    for x in words:
        groups[key(x)].append(x)
    best = _largest({k: len(g) for k, g in groups.items()})
    return best, groups[best]


def _book(family, n, q, t, params, words, ambient, sampled=False, full=None):
    size = full if full is not None else len(words)
    return Codebook(
        spec=CodeSpec(family, n, q, t, params),
        words=sorted(words),
        redundancy_bits=measured_redundancy(ambient, size),
        sampled=sampled,
        full_size=full,
    )


def _walk(n: int, q: int, start, step: Callable) -> Iterable[dict]:
    """Count the words of length n over range(q) per state of a prefix
    automaton: yield, for j = 0..n, the level that maps each state reached
    after j symbols to the number of prefixes that reach it.  step(state,
    s, j) is the state after symbol s at 1-based position j, or None when
    the space holds no word with that prefix.  A level holds few states,
    each stepped once per symbol, whatever the size of the space."""
    level = {start: 1}
    yield level
    for j in range(1, n + 1):
        prev, level = level, defaultdict(int)
        for st, count in prev.items():
            for s in range(q):
                if (nxt := step(st, s, j)) is not None:
                    level[nxt] += count
        yield level


def _largest_class(last: dict, key: Callable) -> tuple:
    """The key and size of the largest class (see _largest) of the words
    that end in the states of last, the last level of _walk."""
    sizes = Counter()
    for st, count in last.items():
        sizes[key(st)] += count
    best = _largest(sizes)
    return best, sizes[best]


def _best_class(n: int, q: int, walk: tuple) -> tuple:
    """The key and the words, in the order of `product`, of the largest
    class (see _largest) of the words of length n over range(q) under the
    automaton walk = (start, step, key), key(state) being the residue tuple
    of the words that end in state.  The class sizes come from the last
    level of _walk, and only the winning words are built: going backward,
    each state from level n // 2 on keeps its suffixes into the class, and
    each prefix of length n // 2 is joined to those of its state."""
    start, step, key = walk
    levels = deque(_walk(n, q, start, step), maxlen=n - n // 2 + 1)  # levels n // 2 .. n
    best, _ = _largest_class(levels[-1], key)
    tails = {st: [()] for st in levels.pop() if key(st) == best}
    for j in range(n, n // 2, -1):
        back, tails = tails, {}
        for st in levels.pop():
            if ws := [(s,) + w for s in range(q) if (x := step(st, s, j)) in back for w in back[x]]:
                tails[st] = ws
    heads = [((), start)]  # a dead prefix's state is None, dropped a level later
    for j in range(1, n // 2 + 1):
        heads = [(p + (s,), step(st, s, j)) for p, st in heads if st is not None for s in range(q)]
    return best, [p + w for p, st in heads if st in tails for w in tails[st]]


def _walk_sieve(fam: "Family", n: int, q: int, budget: int, **options) -> Codebook:
    """Sieve of a walk family: the largest class of its automaton, whose
    residues are the params fam.residues after the options it requires."""
    walk, q, ambient = fam.automaton(n, q, **options)
    if ambient > budget:
        raise ValueError(f"ambient space of size {ambient} exceeds budget {budget}")
    best, words = _best_class(n, q, walk)
    params = {**options, **dict(zip(fam.residues, best))}
    return _book(fam.name, n, q, fam.t, params, words, ambient)


def _largest_count(fam: "Family", n: int, q: int, **options) -> tuple:
    """(ambient size, size of the largest class) of a walk family, counted
    by its automaton one level at a time, with no word built."""
    (start, step, key), q, ambient = fam.automaton(n, q, **options)
    last = deque(_walk(n, q, start, step), maxlen=1)[0]
    return ambient, _largest_class(last, key)[1]


# automata (start, step, key): per family, the prefix automaton whose final
# state determines the residue map of `classic` or `pll2burst`; tests hold
# each to its map


def _vt_walk(n: int) -> tuple:
    """VT(x) mod n+1: position j adds j * x_j."""
    m = n + 1
    return 0, lambda v, s, j: (v + j * s) % m, lambda v: (v,)


def _tenengolts_walk(n: int, q: int) -> tuple:
    """(VT of the ascent indicator mod n, symbol sum mod q): position j > 1
    adds (j - 1) * [u_j >= u_{j-1}]."""

    def step(st, s, j):
        last, vt, total = st
        return s, (vt + (j - 1) * (s >= last)) % n, (total + s) % q

    return (0, 0, 0), step, lambda st: st[1:]


def _pbounded_walk(n: int, P: int) -> tuple:
    """(VT(psi(x)) mod 2P, wt(psi(x)) mod 3).  States (x_j, VT mod 2P and
    weight mod 3 of psi(x) without its last bit): position j > 1 adds
    (j - 1) * (x_{j-1} ^ x_j), and the key adds the last bit x_n."""
    m = 2 * P

    def step(st, b, j):
        x, vt, wt = st
        d = x ^ b if j > 1 else 0
        return b, (vt + (j - 1) * d) % m, (wt + d) % 3

    def key(st):
        x, vt, wt = st
        return (vt + n * x) % m, (wt + x) % 3

    return (0, 0, 0), step, key


def _levenshtein_walk(n: int) -> tuple:
    """(VT(psi(x)) mod 2n,): the psi step of the pbounded walk with P = n,
    keyed without the weight."""
    start, step, key = _pbounded_walk(n, n)
    return start, step, lambda st: key(st)[:1]


def _pll_lev_walk(n: int) -> tuple:
    """(VT(psi(x)) mod 2n,) of the words whose period-2 runs fit
    pll_cap(n); the step drops every other prefix.  States (x_{j-1}, x_j,
    zero diffs x_{j-2} == x_j in a row, and VT mod 2n of psi(x) without its
    last bit)."""
    m, full = 2 * n, pll2burst.pll_cap(n) - 1

    def step(st, b, j):
        x0, x1, run, vt = st
        if j > 2:
            run = run + 1 if b == x0 else 0
            if run == full:
                return None
        d = x1 ^ b if j > 1 else 0
        return x1, b, run, (vt + (j - 1) * d) % m

    return (0, 0, 0, 0), step, lambda st: ((st[3] + n * st[1]) % m,)


def _induced_walk(n: int, q: int) -> tuple:
    """(VT of the interleaved psi image mod 2n, odd sum mod q, even sum mod
    q) of the alternating words; the step drops every other prefix.  The
    interleaved phi image is y_1 = y_2 = 1 and y_j = [u_j > u_{j-2}], so
    position j adds (j - 1) * (y_{j-1} ^ y_j), and the key adds n * y_n."""
    if n < 2:
        raise ValueError("induced requires n >= 2")
    m = 2 * n

    def step(st, s, j):
        prev, last, y, vt, odd, even = st
        if s == last:
            return None
        z = 1 if j <= 2 else int(s > prev)
        vt = (vt + (j - 1) * (y ^ z)) % m
        if j % 2:
            return last, s, z, vt, (odd + s) % q, even
        return last, s, z, vt, odd, (even + s) % q

    def key(st):
        _, _, y, vt, odd, even = st
        return (vt + n * y) % m, odd, even

    return (-1, -1, 1, 0, 0, 0), step, key


def _row_product(rows: list, q: int, max_words: int) -> tuple:
    """(words, full size) of the book whose bit-matrix row r is taken from
    the book rows[r]: the first max_words words of the row product, in
    product order, less those with a symbol >= q.  The full size is the
    size of the row product, or None when q is not a power of two and the
    product overcounts.  EmptyBookError when no word is left."""
    words = []
    for combo in islice(product(*rows), max_words):
        try:
            words.append(from_matrix(combo, q))
        except ValueError:  # a column decodes to a symbol >= q
            pass
    if not words:
        raise EmptyBookError(
            f"empty row product: no word has every symbol below q = {q}"
        )
    return words, prod(map(len, rows)) if q & (q - 1) == 0 else None


def _c2b_rows(n: int, q: int, row: Callable) -> list:
    """row(family, n, 2, **options) of each row of c2b's bit matrix: row 1
    over the period-limited two-deletion code (pll_lev), the others over
    the window-bounded code (pbounded) with P = pll_cap(n)."""
    if q % 2 != 0:
        raise ValueError("c2b requires q even")
    rows = [row(FAMILIES["pll_lev"], n, 2)]
    if q > 2:
        other = row(FAMILIES["pbounded"], n, 2, P=pll2burst.pll_cap(n))
        rows += [other] * (matrix_rows(q) - 1)
    return rows


def _sieve_c2b(n, q, budget, max_words, **_) -> Codebook:
    """Row-separable sieve: the product of the row books (materialized up
    to max_words)."""
    books = _c2b_rows(n, q, lambda fam, n, q, **o: _walk_sieve(fam, n, q, budget, **o))
    params = {
        "a": books[0].spec.params["a"],
        "rows": tuple((bk.spec.params["c"], bk.spec.params["d"]) for bk in books[1:]),
    }
    words, full = _row_product([bk.words for bk in books], q, max_words)
    return _book("c2b", n, q, 2, params, words, q**n, full=full)


def _c2b_count(n: int, q: int) -> Optional[tuple]:
    """(ambient size, size) of the c2b row product of the counted classes;
    None unless q is a power of two, so that no product word is >= q."""
    if q & (q - 1):
        return None
    return q**n, prod(size for _, size in _c2b_rows(n, q, _largest_count))


def _dense_sample(n: int, dp: tburst.DensityParams, rng, count: int) -> list:
    """Structured sampler for dense strings: drop pattern occurrences with
    admissible gaps, fill the remaining bits randomly, keep actual members."""
    t, delta, w = dp.t, dp.delta, dp.w
    out = set()
    for _ in range(count * 60):  # a short word may have fewer dense strings
        if len(out) == count:
            break
        x = [None] * n
        pos = rng.randint(1, max(1, delta - 2 * t + 1))
        while pos + 2 * t - 1 <= n:
            x[pos - 1 : pos + 2 * t - 1] = w
            pos += rng.randint(2 * t, delta)
        cand = tuple(rng.randint(0, 1) if b is None else b for b in x)
        if tburst.is_dense(cand, dp):
            out.add(cand)
    return sorted(out)


def _loc_pool(n: int, dp: tburst.DensityParams, budget: int, rng) -> tuple:
    """(pool, sampled): all 2^n binary words within budget, else a dense sample."""
    if 2**n > budget:
        return _dense_sample(n, dp, rng, SAMPLES), True
    return _qary_space(n, 2, budget), False


def _sieve_loc(n, t, delta, budget, seed, **_) -> Codebook:
    dp = tburst.DensityParams(n, t, delta)
    pool, sampled = _loc_pool(n, dp, budget, random.Random(seed))
    (c0, c1), words = _best_group(pool, lambda x: tburst.loc_residues(x, dp))
    return _book(
        "loc", n, 2, t, {"delta": delta, "c0": c0, "c1": c1}, words, 2**n,
        sampled=sampled,
    )


def _sieve_ctb(n, q, t, delta, P, budget, seed, max_words, **_):
    """Row-separable sieve, row 1 over _loc_pool's pool; parameters are the
    residues of the best (most frequent) tuple."""
    # CtbParams refuses what the decoder would, before any oracle is built
    sums = (tburst.SUMS_SHAPE,) * matrix_rows(q)
    dummy = tburst.CtbParams(n, q, t, delta, P, 0, 0, sums)
    dp, labeler = dummy.density, tburst.BlockLabeler(tburst.ctb_oracles(dummy))
    rng = random.Random(seed)
    pool, sampled = _loc_pool(n, dp, budget, rng)

    def row1_key(x):
        loc = tburst.loc_residues(x, dp)
        return None if loc is None else (*loc, tburst.block_syndromes(x, P, labeler))

    (c0, c1, sums1), row1 = _best_group(pool, row1_key)
    nrows = matrix_rows(q)
    rows, row_sums = [row1], [sums1]
    if nrows > 1:
        # every other row takes the same best block-sum class, of the space
        # or of a uniform sample
        uniform = (tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(SAMPLES))
        pool = sorted(set(uniform)) if sampled else _qary_space(n, 2, budget)
        sums, words = _best_group(pool, lambda x: tburst.block_syndromes(x, P, labeler))
        rows += [words] * (nrows - 1)
        row_sums += [sums] * (nrows - 1)
    params = {"delta": delta, "P": P, "c0": c0, "c1": c1, "row_sums": tuple(row_sums)}
    words, full = _row_product(rows, q, max_words)
    return _book("ctb", n, q, t, params, words, q**n, sampled=sampled, full=full)


def _sieve_perm(n, t, delta, P, budget, **_) -> Codebook:
    space = _perm_space(n, budget)
    dp = tburst.DensityParams(n, t, delta)
    dummy = perm_mod.PermCodeParams(n, t, delta, P, 0, 0, tburst.SUMS_SHAPE)
    labeler = perm_mod.perm_labeler(dummy)
    # the residues depend on pi only through its half indicator (from pi's
    # bytes by bp_map's own rule) and its ranking sequence (unchecked: pi's
    # entries are distinct); many permutations share each pair, so group by
    # the pair, then take the residues once per distinct part
    half = bytes(perm_mod.bp_map(range(256), n))
    pairs = defaultdict(list)
    for pi in space:
        pairs[bytes(pi).translate(half), perm_mod._ranks(pi, t)].append(pi)
    locs = {bp: tburst.loc_residues(bp, dp) for bp in {bp for bp, _ in pairs}}
    seqs = {p for bp, p in pairs if locs[bp]}
    sums_of = {p: tburst.block_syndromes(p, P, labeler) for p in seqs}
    classes = defaultdict(list)
    for (bp, p), group in pairs.items():
        if locs[bp]:
            classes[(*locs[bp], sums_of[p])] += group
    c0, c1, sums = _largest({k: len(g) for k, g in classes.items()})
    words = classes[c0, c1, sums]
    params = {"delta": delta, "P": P, "c0": c0, "c1": c1, "sums": sums}
    return _book("perm", n, 0, t, params, words, factorial(n))


# decoder factories: spec -> decoder(codeword, received, burst)


def _vt_decoder(spec):
    n, a = spec.n, spec.params["a"]
    return lambda w, rx, burst: classic.vt_decode(rx, a, n)


def _levenshtein_decoder(spec):
    n, a = spec.n, spec.params["a"]
    return lambda w, rx, burst: classic.levenshtein_decode(rx, a, n)


def _tenengolts_decoder(spec):
    n, q, a, b = spec.n, spec.q, spec.params["a"], spec.params["b"]
    return lambda w, rx, burst: classic.tenengolts_decode(rx, a, b, n, q)


def _induced_decoder(spec):
    p = spec.params
    n, q, a, b, c = spec.n, spec.q, p["a"], p["b"], p["c"]
    return lambda w, rx, burst: classic.induced_decode(rx, a, b, c, n, q)


# the sieved params of these families are named as the fields of their
# params classes


def _pbounded_decoder(spec):
    params = pll2burst.PBoundedParams(spec.n, **spec.params)
    return lambda w, rx, burst: pll2burst.pbounded_decode(
        rx, params, burst.start
    )


def _c2b_decoder(spec):
    params = pll2burst.C2BParams(spec.n, spec.q, **spec.params)
    return lambda w, rx, burst: pll2burst.c2b_decode(rx, params)


def _ctb_decoder(spec):
    params = tburst.CtbParams(spec.n, spec.q, spec.t, **spec.params)
    labeler = tburst.BlockLabeler(tburst.ctb_oracles(params))
    return lambda w, rx, burst: tburst.ctb_decode(rx, params, labeler)


def _perm_decoder(spec):
    params = perm_mod.PermCodeParams(spec.n, spec.t, **spec.params)
    labeler = perm_mod.perm_labeler(params)
    return lambda w, rx, burst: perm_mod.pleqt_decode(rx, params, labeler)


@dataclass(frozen=True)
class Family:
    """One code family: how it is sieved and counted, its decoder, its
    channel, and its row of the comparison table.  A walk family holds its
    automaton, any other family its sieve and the shape of its params."""

    name: str
    # spec -> decoder(codeword, received, burst); None: no decoder
    decoder: Optional[Callable[[CodeSpec], Callable]]
    # (n, q, **options) -> (automaton (start, step, key), alphabet size,
    # ambient size); the params `residues` name the key, t is the books' t
    automaton: Optional[Callable[..., tuple]] = None
    residues: tuple = ()
    t: int = 1
    # (n, q, t, budget, max_words, seed, **options) -> Codebook
    sieve: Optional[Callable[..., Codebook]] = None
    # spec -> the tburst.shape of the params the decoder factory takes
    params: Optional[Callable[[CodeSpec], dict]] = None
    # (n, q) -> (ambient size, largest class size) or None
    count: Optional[Callable[[int, int], Optional[tuple]]] = None
    # (burst, formula redundancy) of the comparison table
    formula: tuple = ("?", "?")
    # "burst": a burst of deletions; "induced": a substring aba becomes a
    channel: str = "burst"
    # decoding needs the burst window as side information
    needs_window: bool = False
    # sieve options beyond n, q and t
    requires: tuple = ()

    def largest_class(self, n: int, q: int) -> Optional[tuple]:
        """(ambient size, largest class size), counted; None if uncounted."""
        if self.count is not None:
            return self.count(n, q)
        if self.automaton is None or self.requires:
            return None
        return _largest_count(self, n, q)


FAMILIES = {
    fam.name: fam
    for fam in (
        Family(
            "vt", _vt_decoder, lambda n, q: (_vt_walk(n), 2, 2**n), ("a",),
            formula=("1", "log(n+1)"),
        ),
        Family(
            "tenengolts", _tenengolts_decoder,
            lambda n, q: (_tenengolts_walk(n, q), q, q**n), ("a", "b"),
            formula=("1", "log n + log q"),
        ),
        Family(
            "levenshtein", _levenshtein_decoder,
            lambda n, q: (_levenshtein_walk(n), 2, 2**n), ("a",), t=2,
            formula=("<=2", "log n + 1"),
        ),
        Family(
            "induced", _induced_decoder,
            lambda n, q: (_induced_walk(n, q), q, q * (q - 1) ** (n - 1)),
            ("a", "b", "c"), t=2, formula=("induced", "log n + 2 log q + 1"),
            channel="induced",
        ),
        Family(
            "pbounded", _pbounded_decoder,
            lambda n, q, P: (_pbounded_walk(n, P), 2, 2**n), ("c", "d"), t=2,
            needs_window=True, requires=("P",),
        ),
        Family(
            "pll_lev", _levenshtein_decoder,
            lambda n, q: (_pll_lev_walk(n), 2, 2**n), ("a",), t=2,
        ),
        Family("loc", None, sieve=_sieve_loc, requires=("delta",)),
        Family(
            "c2b", _c2b_decoder, sieve=_sieve_c2b, count=_c2b_count,
            params=lambda s: {"a": 0, "rows": ((0, 0),) * (matrix_rows(s.q) - 1)},
            formula=("<=2", "log n + log q (log log n + O(1)) + 3"),
        ),
        Family(
            "ctb", _ctb_decoder, sieve=_sieve_ctb,
            params=lambda s: {
                "delta": 0, "P": 0, "c0": 0, "c1": 0,
                "row_sums": (tburst.SUMS_SHAPE,) * matrix_rows(s.q),
            },
            formula=("<=t", "log n + O(log q log log n)"), requires=("delta", "P"),
        ),
        Family(
            "perm", _perm_decoder, sieve=_sieve_perm,
            params=lambda s: {
                "delta": 0, "P": 0, "c0": 0, "c1": 0, "sums": tburst.SUMS_SHAPE
            },
            formula=("<=t", "log n + O(log log n)"), requires=("delta", "P"),
        ),
    )
}


def get_family(name: str) -> Family:
    """The registry record of a family name; ValueError when unknown."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


def sieve(
    family: str,
    n: int,
    q: int = 2,
    t: int = 1,
    budget: int = DEFAULT_BUDGET,
    max_words: int = 1 << 14,
    seed: int = 0,
    **extra,
) -> Codebook:
    """Build the largest codebook of the family at the given size by
    parameter sieving.  See module docstring for the strategy."""
    fam = get_family(family)
    missing = [opt for opt in fam.requires if opt not in extra]
    if missing:
        raise ValueError(f"family {family!r} requires {', '.join(missing)}")
    lows = (("n", n, 1), ("q", q, 2), ("t", t, 1), ("P", extra.get("P", 1), 1))
    for opt, value, low in lows:
        if value < low:
            raise ValueError(f"sieve requires {opt} >= {low}, not {value}")
    if fam.sieve is None:
        return _walk_sieve(fam, n, q, budget, **{k: extra[k] for k in fam.requires})
    return fam.sieve(
        n=n, q=q, t=t, budget=budget, max_words=max_words, seed=seed, **extra
    )


def redundancy_table(families: Iterable[str], ns: list, q: int = 2) -> list:
    """Rows: (family, burst, formula, then per n the exact redundancy
    log2(ambient / largest class) that the family's automata count, or
    blank where it counts none or has no code at that n)."""
    if q < 2 or min(ns, default=1) < 1:
        raise ValueError("table requires q >= 2 and every n >= 1")
    rows = [["family", "burst", "formula"] + [f"n={n}" for n in ns]]
    for name in families:
        fam = get_family(name)
        row = [fam.name, *fam.formula]
        for n in ns:
            try:
                got = fam.largest_class(n, q)
            except ValueError:  # e.g. induced below n = 2
                got = None
            row.append("" if got is None else f"{measured_redundancy(*got):.3f}")
        rows.append(row)
    return rows


def book_decoder(book: Codebook) -> Callable[[tuple, tuple, Burst], tuple]:
    """Decoder closure for a sieved codebook, from its family's record;
    ValueError when the book's params are not named and shaped as the
    family's decoder takes them."""
    spec = book.spec
    fam = get_family(spec.family)
    if fam.decoder is None:
        raise ValueError(f"no decoder for family {fam.name!r}")
    # a walk family's params are its required options and its residues
    want = fam.params(spec) if fam.params else {
        k: 0 for k in fam.requires + fam.residues
    }
    got = {k: tburst.shape(v) for k, v in spec.params.items()}
    if got != want:
        raise ValueError(
            f"{fam.name} book params must have the shape {want} (0 for an "
            f"integer), not {got}"
        )
    return fam.decoder(spec)


# ---------------------------------------------------------------------------
# confusability and exact maximum codes


def confusability_check(words, t: int):
    """None if all pairs of words have disjoint D_{<=t} balls, else a witness
    (word1, word2, common descendant)."""
    seen = {}
    for w in words:
        for d in deletion_ball(w, t, upto=True):
            other = seen.get(d)
            if other is not None and other != w:
                return (other, w, d)
            seen[d] = w
    return None


def _adjacency(words, t: int) -> list:
    """Confusability graph as bit masks: distinct words sharing a D_{<=t} descendant."""
    index = {w: i for i, w in enumerate(words)}
    groups = {}
    for w in words:
        for d in deletion_ball(w, t, upto=True):
            groups.setdefault(d, []).append(index[w])
    adj = [0] * len(words)
    for members in groups.values():
        mask = sum(1 << i for i in members)
        for i in members:
            adj[i] |= mask
    return [m & ~(1 << i) for i, m in enumerate(adj)]


def _greedy_independent(adj: list, cand: int) -> int:
    """Greedy minimum-degree independent set size (lower bound / seed)."""
    size = 0
    while cand:
        rem = cand
        pick, pick_deg = -1, None
        while rem:
            v = rem & -rem
            vi = v.bit_length() - 1
            deg = (adj[vi] & cand).bit_count()
            if pick_deg is None or deg < pick_deg:
                pick, pick_deg = vi, deg
            rem ^= v
        cand &= ~adj[pick] & ~(1 << pick)
        size += 1
    return size


def _max_independent_set(adj: list, upper: int, cand: Optional[int] = None) -> int:
    """Exact MIS among the vertices of the mask ``cand`` (default: all):
    branch and bound on the complement graph (max clique) with a
    greedy-coloring upper bound, seeded by a greedy lower bound.  The
    search stops as soon as it finds a set of size ``upper``, a known upper
    bound on the answer.

    Raises RuntimeError when the search exceeds NODE_BUDGET branch nodes,
    so intractable instances fail loudly instead of running unbounded.
    """
    n = len(adj)
    full = (1 << n) - 1
    if cand is None:
        cand = full
    comp = [~adj[i] & full & ~(1 << i) for i in range(n)]
    best = _greedy_independent(adj, cand)
    if best >= upper:
        return best
    nodes = 0

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10 * n + 100))

    def expand(size: int, cand: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise RuntimeError("independent-set search exceeded node budget")
        # color the candidates greedily; a clique can take at most one
        # vertex per color class, so the class index bounds the extension
        order = []
        bounds = []
        rest = cand
        color = 0
        while rest:
            color += 1
            cls = rest
            while cls:
                v = cls & -cls
                vi = v.bit_length() - 1
                order.append(vi)
                bounds.append(color)
                cls &= ~comp[vi]
                cls &= ~v
                rest ^= v
        for idx in range(len(order) - 1, -1, -1):
            if size + bounds[idx] <= best:
                return
            vi = order[idx]
            cand &= ~(1 << vi)
            nxt = cand & comp[vi]
            if nxt:
                expand(size + 1, nxt)
            elif size + 1 > best:
                best = size + 1
            if best >= upper:
                return

    try:
        expand(0, cand)
    finally:
        sys.setrecursionlimit(old_limit)
    return best


def _packing_bound(words: list, t: int) -> int:
    """Upper bound on a t-burst code within words: codewords have pairwise
    disjoint descendants under a burst of exactly t deletions, so the k
    smallest such sets must fit among the descendants of all the words."""
    balls = [deletion_ball(w, t) for w in words]
    room = len(set().union(*balls))
    size = 0
    for count in sorted(map(len, balls)):
        room -= count
        if room < 0:
            break
        size += 1
    return size


def max_code_exact(n: int, q: int, t: int) -> int:
    """Exact maximum size of a t-burst code in Sigma_q^n."""
    words = list(_qary_space(n, q, EXACT_BUDGET))
    return _max_independent_set(_adjacency(words, t), _packing_bound(words, t))


def max_perm_code_exact(n: int, t: int) -> int:
    """Exact maximum size of a t-burst permutation code on S_n.

    Relabelling values (pi -> sigma o pi) maps every D_{<=t} ball onto
    another and acts transitively on S_n, so some maximum code contains
    words[0]: unless the greedy set or the cell search meets the packing
    bound, the exact search runs on the words that do not conflict with
    words[0].  The cell search finds perfect codes the colouring bound
    cannot close (S_6, t = 3), but is slow to refute, so it is asked once."""
    words = list(_perm_space(n, EXACT_BUDGET))
    adj = _adjacency(words, t)
    upper = _packing_bound(words, t)
    full = (1 << len(words)) - 1
    best = _greedy_independent(adj, full)
    if best >= upper:
        return best
    if exists_perm_code(n, t, upper):
        return upper
    return 1 + _max_independent_set(adj, upper - 1, cand=full & ~adj[0] & ~1)


def exists_perm_code(n: int, t: int, size: int) -> bool:
    """Complete search deciding whether S_n contains ``size`` permutations
    whose D_{<=t} burst-deletion balls are pairwise disjoint.

    Every permutation owns exactly n-t+1 descendants under a burst of
    exactly t deletions, and no two codewords may share one, so a code of
    the target size must own size*(n-t+1) distinct such cells.  The search
    branches on the unresolved cell with the fewest remaining candidate
    words: either one of those words joins the code, or the cell is owned
    by nobody (counted as waste against the quota above).  This prunes far
    harder than vertex-by-vertex branching on the confusability graph and
    can refute sizes on instances whose exact maximum is out of reach.

    The state of a node is immutable: the candidate count of cell c sits
    in lane c of one int, and the open cells are the lane top bits of
    another, so a branch builds new ints and backtracking costs nothing.

    Raises RuntimeError when the search exceeds NODE_BUDGET nodes.
    """
    if t < 1 or t >= n:
        raise ValueError("need 1 <= t < n")
    space = _perm_space(n, EXACT_BUDGET)
    if size <= 1:
        return True

    words = list(space)
    nrows = len(words)
    per_word = n - t + 1

    # primary cells: descendants under a burst of exactly t deletions
    cell_id: dict = {}
    row_prim = [
        [cell_id.setdefault(d, len(cell_id)) for d in deletion_ball(w, t, upto=False)]
        for w in words
    ]
    ncells = len(cell_id)
    if size * per_word > ncells:
        return False
    cell_mask = [0] * ncells  # the rows holding each cell
    for r, ids in enumerate(row_prim):
        for c in ids:
            cell_mask[c] |= 1 << r

    # cnt packs the count of live rows holding each cell into a lane of
    # `width` bits whose top bit no count reaches, so adding `low` carries
    # into the top bit of exactly the nonzero lanes, and cnt ^ k*ones
    # zeroes exactly the lanes that hold k
    width = max(m.bit_count() for m in cell_mask).bit_length() + 1
    ones = sum(1 << width * c for c in range(ncells))
    top = ones << width - 1
    low = top - ones
    # per-row tables, indexed by the bit length of the row's bit so that a
    # loop over a row mask takes each row with one bit_length(): its bit,
    # its cells as lane units, the mask that closes them, and the rows that
    # share no descendant at any level 1..t with it
    bit = [0] + [1 << r for r in range(nrows)]
    unit = [0] + [sum(1 << width * c for c in ids) for ids in row_prim]
    uncover = [~(x << width - 1) for x in unit]
    adj = _adjacency(words, t)
    spare = [-1] + [~(a | b) for a, b in zip(adj, bit[1:])]
    nodes = 0

    def search(need: int, live: int, cnt: int, open_: int) -> bool:
        """Whether codewords that own `need` more cells can be taken from
        the live rows."""
        nonlocal nodes
        while True:  # one node a pass; the last child of a node is the next pass
            nodes += 1
            if nodes > NODE_BUDGET:
                raise RuntimeError("packing search exceeded node budget")
            if need <= 0:
                return True
            held = open_ & (cnt + low)  # the open cells some live row holds
            if held.bit_count() < need:
                return False
            # open cell with fewest candidates, the lowest such cell first
            pick = open_ ^ held
            if not pick:
                lane = ones
                pick = held & ~((cnt ^ lane) + low)
                while not pick:
                    lane += ones
                    pick = held & ~((cnt ^ lane) + low)
                rows = live & cell_mask[(pick & -pick).bit_length() // width - 1]
                while rows:
                    r = (rows & -rows).bit_length()
                    keep = live & spare[r]
                    gone = live - keep
                    c = cnt
                    while gone:
                        x = gone.bit_length()
                        c -= unit[x]
                        gone -= bit[x]
                    if search(need - per_word, keep, c, open_ & uncover[r]):
                        return True
                    rows -= bit[r]
            # nobody owns this cell
            open_ ^= pick & -pick

    # the conflict structure is invariant under relabelling values, which
    # acts transitively on S_n, so any code can be mapped to one containing
    # the identity: anchor it.
    live = (1 << nrows) - 1 & spare[1]
    cnt = sum(u for u, b in zip(unit, bit) if live & b)
    return search((size - 1) * per_word, live, cnt, top & uncover[1])


# ---------------------------------------------------------------------------
# round-trip sweeps


@dataclass
class SweepReport:
    total: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def roundtrip_sweep(
    book: Codebook,
    decoder: Callable[[tuple, tuple, Burst], tuple],
    t: int,
) -> SweepReport:
    """Apply every admissible corruption to every codeword and decode.

    decoder(codeword, corrupted, burst) may use the burst only as window
    side information.  The corruptions are those of the book family's
    channel: bursts of at most t deletions, or induced deletions aba -> a."""
    induced = get_family(book.spec.family).channel == "induced"
    total = 0
    failures = []
    for w in book.words:
        if induced:
            cases = [
                (res, Burst(pos, 2)) for pos, res in classic.induced_deletions(w)
            ]
        else:
            cases = [(apply_burst(w, b), b) for b in bursts(len(w), t, upto=True)]
        total += len(cases)
        for corrupted, b in cases:
            try:
                got = decoder(w, corrupted, b)
            except NotDecodableError as exc:
                failures.append((w, b, f"not decodable: {exc}"))
                continue
            if got != w:
                failures.append((w, b, got))
    return SweepReport(total=total, failures=failures)
