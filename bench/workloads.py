"""The benchmark workloads: set-up, timed operations and correctness gates.

A workload is a set-up function and a list of operations.  Set-up builds
what users build once (oracles, labelers) and the seeded inputs; each
operation is one repetition of a timed step and records its own samples in a
`Results`.  Every output is checked: a wrong answer marks the run invalid, a
refusal (NotDecodableError) is counted and never filtered out.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from burstcodes import bounds, cli, perm, pll2burst, tburst, verify
from burstcodes.seqcore import NotDecodableError

import gen

clock = time.perf_counter


@dataclass
class Results:
    """Samples and outcome counts of one run.

    `attempted`, `refused` and `wrong_decodes` count decodes only: the
    direct decoder calls and the corruptions of every CLI sweep.  Each
    distinct input counts once, however often the timed window repeats it,
    so the counts depend on the seed alone, not on how much a run got
    through; a repeat must give the same outcome as the first.  Round trips
    are counted apart and must all be exact.  `wrong` describes every
    failed correctness gate, decodes included."""

    # (op, item) -> [(start, seconds)] per repetition
    samples: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)  # (op, item) -> units done per repetition
    # direct decode input key -> [(start, seconds)] of each of its decodes
    latencies: dict = field(default_factory=dict)
    decodes: int = 0  # direct decoder calls, repeats included
    outcomes: dict = field(default_factory=dict)  # input key -> outcome of its first decode
    calls: dict = field(default_factory=dict)  # input key -> (decoder, sent), to decode it again
    attempted: int = 0
    refused: int = 0
    wrong_decodes: int = 0
    roundtrips: int = 0
    wrong: list = field(default_factory=list)  # descriptions of wrong outputs

    @property
    def correct(self) -> bool:
        return not self.wrong

    @property
    def failed(self) -> int:
        return self.refused + self.wrong_decodes

    def add(self, op: str, item: str, start: float, work: int = 1) -> None:
        """Record one repetition of an op that began at `start`."""
        self.samples.setdefault((op, item), []).append((start, clock() - start))
        self.work[op, item] = work

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)

    def wrong_decode(self, what: str) -> None:
        self.wrong_decodes += 1
        self.wrong.append(what)

    def first(self, key, outcome) -> bool:
        """True the first time `key` is decoded; after that, False, and a
        wrong output if `outcome` differs from the first one."""
        if key not in self.outcomes:
            self.outcomes[key] = outcome
            return True
        if self.outcomes[key] != outcome:
            self.wrong.append(f"{key}: {outcome!r} on a repeat, {self.outcomes[key]!r} first")
        return False

    def decode(self, key, decoder: Callable[[], tuple], sent: tuple) -> None:
        """Time one direct decoder call on the input `key` and check its
        answer."""
        t0 = clock()
        try:
            got = decoder()
        except NotDecodableError:
            got = None
        self.latencies.setdefault(key, []).append((t0, clock() - t0))
        self.calls.setdefault(key, (decoder, sent))
        self.decodes += 1
        outcome = "refused" if got is None else "ok" if got == sent else "wrong"
        if not self.first(key, outcome):
            return
        self.attempted += 1
        if got is None:
            self.refused += 1
        elif got != sent:
            self.wrong_decode(f"decoded {got} instead of {sent}")

    def redecode(self, key) -> None:
        """Decode the input `key` once more, as its first decode did."""
        self.decode(key, *self.calls[key])

    def roundtrip(self, item: str, encode, decode, words) -> None:
        """Take each word through encode then decode back, timed as one
        repetition of the encode op.  Anything but the word itself, a
        refusal included, is wrong."""
        t0 = clock()
        back = []
        for x in words:
            try:
                back.append(decode(encode(x)))
            except NotDecodableError:
                back.append(None)
        self.add("encode", item, t0, len(words))
        self.roundtrips += len(words)
        for x, got in zip(words, back):
            self.check(got == x, f"round trip of {x} gave {got}")


@dataclass
class Op:
    name: str  # sieve, sweep, search, encode or decode
    items: tuple  # one repetition runs one item, in turn
    run: Callable  # run(ctx, results, item)
    share: float  # target share of the timed window
    trace_reps: int  # passes over the items in the traced run
    # 0: repeat for its share of the window; n: run each item n times in the
    # untraced run, for ops whose repetition takes seconds
    reps: int = 0
    scaled: bool = True  # whether its times are scaled by the host speed


@dataclass
class Workload:
    name: str
    setup: Callable  # setup(seed, workdir) -> ctx
    ops: list  # in first-pass order; the sweep runs after the sieve
    decode_reps: int = 1  # times the window decodes every input of the stream at least
    setup_reps: int = 3  # set-ups of the untraced run; setup_s is their median


def _cycle(ctx, key: str, count: int) -> list:
    """The next `count` items of ctx[key], wrapping around."""
    items = ctx[key]
    pos = ctx.get(key + "_pos", 0)
    out = [items[(pos + i) % len(items)] for i in range(count)]
    ctx[key + "_pos"] = (pos + count) % len(items)
    return out


def _cli_sweep(ctx, res, item: str) -> None:
    """`burstcodes verify --book B --t T --sweep`, in-process through
    cli.main with default options, as users run it."""
    path, t, corruptions = ctx["sweep_books"][item]
    t0 = clock()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "--book", path, "--t", str(t), "--sweep"])
    res.add("sweep", item, t0, corruptions)
    if not res.first(("sweep", item), code):
        return
    res.attempted += corruptions
    if code != 0:
        _classify_sweep(res, path, t)


def _classify_sweep(res, path: str, t: int) -> None:
    """The CLI prints only the first failure: sweep again, untimed and
    serially, to count refusals apart from wrong answers."""
    with open(path) as fh:
        book = verify.Codebook.from_json(fh.read())
    if verify.confusability_check(book.words, t) is not None:
        res.wrong.append(f"{path}: confusability witness")
        return
    report = verify.roundtrip_sweep(book, verify.book_decoder(book), t)
    for w, b, got in report.failures:
        if isinstance(got, str) and got.startswith("not decodable"):
            res.refused += 1
        else:
            res.wrong_decode(f"sweep of {w} with {b} gave {got}")


def _sweep_book(ctx, name: str, book, words, t: int) -> None:
    """Write a (sub-)book for the CLI sweep and note its corruption count."""
    path = os.path.join(ctx["workdir"], f"{name}.json")
    sub = verify.Codebook(book.spec, sorted(words), book.redundancy_bits)
    with open(path, "w") as fh:
        fh.write(sub.to_json())
    n = book.spec.n
    corruptions = len(words) * sum(n - length + 1 for length in range(1, t + 1))
    ctx.setdefault("sweep_books", {})[name] = (path, t, corruptions)


def _sieve(ctx, res, item: str, family: str, n: int, **kw):
    """Time one sieve; return the book the first time, None after."""
    t0 = clock()
    book = verify.sieve(family, n, **kw)
    res.add("sieve", item, t0)
    books = ctx.setdefault("books", {})
    if item in books:
        return None
    books[item] = book
    res.check(bool(book.words), f"{item} sieve is empty")
    return book


def _confusable_free(res, book, t: int) -> None:
    res.check(verify.confusability_check(book.words, t) is None,
              f"{book.spec.family} book fails the confusability check")


# item -> (search, expected answer, closed-form bound check on the answer)
SEARCHES = {
    # no 72-word code on S_6: the maximum is below the bound floor 72
    "exists_perm_code(6,2,72)": (
        lambda: verify.exists_perm_code(6, 2, 72), False,
        lambda got: bounds.perm_bound(6, 2).floor == 72,
    ),
    "max_perm_code_exact(5,2)": (
        lambda: verify.max_perm_code_exact(5, 2), 12,
        lambda got: got <= bounds.perm_bound(5, 2).floor,
    ),
    "max_perm_code_exact(5,3)": (
        lambda: verify.max_perm_code_exact(5, 3), 6,
        lambda got: got <= bounds.perm_bound(5, 3).floor,
    ),
    # 12 is the exact maximum the seed computes; the LP bound floor is 16
    "max_code_exact(4,4,2)": (
        lambda: verify.max_code_exact(4, 4, 2), 12,
        lambda got: got <= bounds.lp_bound(4, 2, 4).floor,
    ),
}


def search(ctx, res, item: str) -> None:
    fn, expected, within_bound = SEARCHES[item]
    t0 = clock()
    got = fn()
    res.add("search", item, t0)
    res.check(got == expected and within_bound(got), f"{item} = {got}, expected {expected}")


def _stream_pairs(rng, codes, t: int, count: int) -> list:
    """`count` (index, (codeword, params, received)) drawn from every burst
    of <= t deletions of every code, in seeded random order: decode cost
    differs from codeword to codeword, so the stream samples all of them."""
    pairs = [(u, params, rx) for u, params in codes for rx, _ in gen.burst_corruptions(u, t)]
    rng.shuffle(pairs)
    return list(enumerate(pairs[:count]))


# ---------------------------------------------------------------------------
# syndrome-sweep

# family -> (n, sieve options, channel, t).  The first four are the plain
# burst codes that `verify --sweep` runs on.  induced and pbounded fail the
# plain burst confusability check by design, so they enter only the latency
# stream, through verify.book_decoder with their own channel and window.
SYNDROME_CODES = {
    "vt": (16, {}, "burst", 1),
    "levenshtein": (16, {}, "burst", 2),
    "tenengolts": (8, {"q": 4}, "burst", 1),
    "c2b": (16, {"q": 4, "max_words": 256}, "burst", 2),
    "induced": (10, {"q": 4}, "induced", 2),
    "pbounded": (16, {"P": 6}, "window", 2),
}
PLAIN_BURST = ("vt", "levenshtein", "tenengolts", "c2b")
# seeded sub-book per plain code for the CLI sweep: small enough that a
# run sweeps each several times, spread over its window
SWEEP_WORDS = 32
PLL_N = 64
BOOK_STREAM = 20_000


def syndrome_setup(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    return {
        "seed": seed,
        "workdir": workdir,
        "pll_msgs": gen.binary_words(rng, 2000, PLL_N),
    }


def syndrome_sieve(ctx, res, fam: str) -> None:
    n, kw, channel, t = SYNDROME_CODES[fam]
    book = _sieve(ctx, res, fam, fam, n, **kw)
    if book is None:
        return
    if fam in PLAIN_BURST:
        _confusable_free(res, book, t)
    books = ctx["books"]
    if len(books) < len(SYNDROME_CODES):
        return
    # every book is in: draw the latency stream and the sweep sub-books
    rng = random.Random(f"{ctx['seed']}/stream")
    ctx["decoders"] = {f: verify.book_decoder(b) for f, b in books.items()}
    ctx["stream"] = list(enumerate(gen.book_stream(
        rng, {f: (books[f], ch, t) for f, (_, _, ch, t) in SYNDROME_CODES.items()}, BOOK_STREAM
    )))
    for f in PLAIN_BURST:
        _sweep_book(ctx, f, books[f], rng.sample(books[f].words, SWEEP_WORDS), SYNDROME_CODES[f][3])


def syndrome_encode(ctx, res, item: str) -> None:
    res.roundtrip(
        item,
        pll2burst.pll_encode,
        lambda y: pll2burst.pll_decode(y, PLL_N),
        _cycle(ctx, "pll_msgs", 1000),
    )


def syndrome_decode(ctx, res, item: str) -> None:
    decoders = ctx["decoders"]
    for i, (fam, sent, received, burst) in _cycle(ctx, "stream", 2000):
        dec = decoders[fam]
        res.decode(i, partial(dec, sent, received, burst), sent)


# ---------------------------------------------------------------------------
# ctb-stream

CTB = {"n": 32, "q": 16, "t": 2, "delta": 7, "P": 8}
CTB_CODES = 200  # random codewords
CTB_STREAM = 4000  # decodes drawn from every burst of <= t deletions of each
CTB_SWEEP_WORDS = 3  # seeded sub-book of the sieved book
DENSE = tburst.DensityParams(128, 1, 64)


def ctb_setup(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    t, P = CTB["t"], CTB["P"]
    labeler = tburst.BlockLabeler(
        {k: tburst.oracle_build_brute(k, t, "burst") for k in (P, 2 * P)}
    )
    codes = [gen.ctb_codeword(rng, labeler, **CTB) for _ in range(CTB_CODES)]
    return {
        "seed": seed,
        "workdir": workdir,
        "labeler": labeler,
        "stream": _stream_pairs(rng, codes, t, CTB_STREAM),
        "dense_msgs": gen.binary_words(rng, 1000, DENSE.n),
    }


def ctb_sieve(ctx, res, item: str) -> None:
    kw = {k: CTB[k] for k in ("q", "t", "delta", "P")}
    book = _sieve(ctx, res, item, "ctb", CTB["n"], seed=ctx["seed"], **kw)
    if book is not None:
        _confusable_free(res, book, CTB["t"])
        rng = random.Random(f"{ctx['seed']}/sweep")
        words = rng.sample(book.words, min(CTB_SWEEP_WORDS, len(book.words)))
        _sweep_book(ctx, item, book, words, CTB["t"])


def ctb_encode(ctx, res, item: str) -> None:
    res.roundtrip(
        item,
        lambda x: tburst.dense_encode(x, DENSE),
        lambda y: tburst.dense_decode(y, DENSE),
        _cycle(ctx, "dense_msgs", 200),
    )


def ctb_decode(ctx, res, item: str) -> None:
    labeler = ctx["labeler"]
    for i, (u, params, rx) in _cycle(ctx, "stream", 50):
        res.decode(i, partial(tburst.ctb_decode, rx, params, labeler), u)


# ---------------------------------------------------------------------------
# perm-stream

PERM = {"n": 8, "t": 2, "delta": 8, "P": 6}
PERM_CODES = 200  # random permutations
PERM_STREAM = 1000  # decodes drawn from every burst of <= t deletions of each
# one seeded word each: a word's sweep time depends on the word (by about
# 15%), so four of them keep the seed from moving the sweep rate much
PERM_SWEEP_BOOKS = tuple(f"perm{i}" for i in range(4))


def perm_setup(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    n, t, delta, P = PERM["n"], PERM["t"], PERM["delta"], PERM["P"]
    labeler = perm.perm_labeler(perm.PermCodeParams(n, t, delta, P, 0, 0, ((0, 0), (0, 0))))
    perms = [gen.random_permutation(rng, n) for _ in range(PERM_CODES)]
    codes = [(pi, gen.perm_params(pi, labeler, t, delta, P)) for pi in perms]
    return {
        "seed": seed,
        "workdir": workdir,
        "labeler": labeler,
        "stream": _stream_pairs(rng, codes, t, PERM_STREAM),
        "perms": [gen.random_permutation(rng, n) for _ in range(2000)],
    }


def perm_sieve(ctx, res, item: str) -> None:
    kw = {k: PERM[k] for k in ("t", "delta", "P")}
    book = _sieve(ctx, res, item, "perm", PERM["n"], **kw)
    if book is not None:
        _confusable_free(res, book, PERM["t"])
        rng = random.Random(f"{ctx['seed']}/sweep")
        for name, word in zip(PERM_SWEEP_BOOKS, rng.sample(book.words, len(PERM_SWEEP_BOOKS))):
            _sweep_book(ctx, name, book, [word], PERM["t"])


def perm_encode(ctx, res, item: str) -> None:
    """Residues of each permutation, checked back through perm_member."""
    labeler = ctx["labeler"]
    t, delta, P = PERM["t"], PERM["delta"], PERM["P"]

    def encode(pi):
        return pi, gen.perm_params(pi, labeler, t, delta, P)

    def decode(coded):
        pi, params = coded
        return pi if perm.perm_member(pi, params, labeler) else None

    res.roundtrip(item, encode, decode, _cycle(ctx, "perms", 200))


def perm_decode(ctx, res, item: str) -> None:
    labeler = ctx["labeler"]
    for i, (pi, params, rx) in _cycle(ctx, "stream", 5):
        res.decode(i, partial(perm.pleqt_decode, rx, params, labeler), pi)


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "syndrome-sweep",
            # seqcore, classic, pll2burst, verify and cli do all the work;
            # tburst and perm do none.  The control for every oracle or
            # labelling change (no change expected here), and where the
            # family registry and the 2-thread `jobs` default would show.
            syndrome_setup,
            [
                Op("sieve", tuple(SYNDROME_CODES), syndrome_sieve, 0.3, 1, reps=2),
                Op("sweep", PLAIN_BURST, _cli_sweep, 0.15, 1),
                # the searches spend their time in large set and dict work
                # that hardly follows the host speed: 4.2-5.5 s raw while the
                # probe moved 1.7x, so scaling would only add that swing
                Op("search", ("exists_perm_code(6,2,72)", "max_perm_code_exact(5,2)"), search, 0.4, 1,
                   reps=1, scaled=False),
                Op("encode", ("pll64",), syndrome_encode, 0.05, 1),
                Op("decode", ("stream",), syndrome_decode, 0.1, 1),
            ],
        ),
        Workload(
            "ctb-stream",
            # the tburst burst model with the binary BlockLabeler does the
            # work: oracle build in set-up, then locate_burst, cpb_decode and
            # block_syndromes per decode.  perm does nothing.  Mirrors the
            # t-burst part of acceptance criterion 06 with k=16 oracles.
            ctb_setup,
            [
                Op("sieve", ("ctb",), ctb_sieve, 0.1, 1, reps=3),
                Op("sweep", ("ctb",), _cli_sweep, 0.1, 1, reps=3),
                Op("search", ("max_code_exact(4,4,2)",), search, 0.05, 3),
                Op("encode", ("dense128",), ctb_encode, 0.1, 1),
                Op("decode", ("stream",), ctb_decode, 0.65, 8),
            ],
            # a single ctb decode is short enough for host interruptions to
            # move p99: the fastest of two decodes of each input drops them
            decode_reps=2,
        ),
        Workload(
            "perm-stream",
            # QaryBlockLabeler (the edit model) labels thousands of
            # candidates per decode, each through to_matrix.  It shares
            # cpb_decode with ctb-stream but uses it very differently, so a
            # labelling change shows its size here and its side effects
            # there.  Mirrors acceptance criterion 10.
            perm_setup,
            # the long sieve runs after a few short steps, not right after
            # set-up: probes taken just after the 10 s oracle build misjudge
            # the host speed
            [
                Op("decode", ("stream",), perm_decode, 0.65, 6),
                Op("encode", ("residues",), perm_encode, 0.05, 1),
                Op("search", ("max_perm_code_exact(5,3)",), search, 0.05, 3),
                Op("sieve", ("perm",), perm_sieve, 0.1, 1, reps=2),
                Op("sweep", PERM_SWEEP_BOOKS, _cli_sweep, 0.15, 1, reps=3),
            ],
            # a set-up takes 10 s: two keep the run within its time budget
            setup_reps=2,
        ),
    )
}


def clear_caches() -> None:
    """Forget built oracles so the next set-up builds them again."""
    tburst.oracle_build_brute.cache_clear()
