"""Seeded input generators for the benchmark workloads.

Every generator draws only from the `random.Random` it is given, so the same
seed always gives the same inputs.  Codes are built from the residues of the
generated word itself, so every generated word is a codeword of the code its
residues define.
"""
from __future__ import annotations

from burstcodes import classic, perm, tburst
from burstcodes.seqcore import Burst, apply_burst, bursts, from_matrix, vt_syndrome


def dense_row(rng, n: int, t: int, delta: int) -> tuple:
    """A binary word of length n whose occurrences of w = 0^t 1^t leave no
    gap longer than delta (tburst.is_dense), built constructively.

    w is written at a first start <= delta - 1 and then at steps drawn from
    [2t, delta] until the tail gap is <= delta; the other bits come from the
    seed.  Extra occurrences made by the random bits only shorten gaps.
    Rejection sampling stalls instead: at t=3, delta=6 it found no dense row
    in 10 minutes.
    """
    if delta < 2 * t or n < 2 * t:
        raise ValueError("require delta >= 2t and n >= 2t")
    w = [0] * t + [1] * t
    x = [rng.randint(0, 1) for _ in range(n)]
    i = rng.randint(0, min(delta - 1, n - 2 * t))
    while True:
        x[i : i + 2 * t] = w
        if n - 2 * t + 1 - i <= delta:
            return tuple(x)
        i += rng.randint(2 * t, min(delta, n - 2 * t - i))


def loc_residues(row: tuple, dp: tburst.DensityParams) -> tuple:
    """(c0, c1) of the localization code that contains the dense row."""
    ind, alpha = tburst.indicator_alpha(row, dp)
    return sum(ind) % 4, vt_syndrome(alpha) % (2 * dp.n)


def ctb_codeword(rng, labeler, n: int, q: int, t: int, delta: int, P: int):
    """A random q-ary word with a dense row 1, and the CtbParams whose
    residues it satisfies."""
    dp = tburst.DensityParams(n, t, delta)
    nrows = max(1, (q - 1).bit_length())
    rows = [dense_row(rng, n, t, delta)] + [
        tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(nrows - 1)
    ]
    c0, c1 = loc_residues(rows[0], dp)
    row_sums = tuple(tburst.block_syndromes(r, P, labeler) for r in rows)
    params = tburst.CtbParams(n, q, t, delta, P, c0, c1, row_sums)
    return from_matrix(tuple(rows), q), params


def random_permutation(rng, n: int) -> tuple:
    pi = list(range(1, n + 1))
    rng.shuffle(pi)
    return tuple(pi)


def perm_params(pi: tuple, labeler, t: int, delta: int, P: int):
    """PermCodeParams from the residues of pi: half indicator, localization
    syndromes, overlapping ranks and their block sums."""
    n = len(pi)
    dp = tburst.DensityParams(n, t, delta)
    c0, c1 = loc_residues(perm.bp_map(pi), dp)
    sums = tburst.block_syndromes(perm.overlap_ranks(pi, t), P, labeler)
    return perm.PermCodeParams(n, t, delta, P, c0, c1, sums)


def burst_corruptions(word: tuple, t: int) -> list:
    """(received, burst) for every burst of 1..t deletions."""
    return [(apply_burst(word, b), b) for b in bursts(len(word), t, upto=True)]


def book_stream(rng, books: dict, count: int) -> list:
    """`count` (family, sent, received, burst) picks, round robin over the
    books: a seeded codeword and one of its admissible corruptions.

    books maps a family to (Codebook, channel, t); the induced channel
    replaces a substring aba by a, every other channel deletes a burst of
    at most t symbols."""
    families = sorted(books)
    pools = {}
    for fam in families:
        book, channel, t = books[fam]
        if channel == "induced":
            pools[fam] = [
                (w, [(res, Burst(pos, 2)) for pos, res in classic.induced_deletions(w)])
                for w in book.words
            ]
            pools[fam] = [entry for entry in pools[fam] if entry[1]]
        else:
            pools[fam] = [(w, None) for w in book.words]
        if not pools[fam]:
            raise ValueError(f"no admissible corruption in the {fam} book")
    out = []
    for i in range(count):
        fam = families[i % len(families)]
        word, choices = rng.choice(pools[fam])
        if choices is None:
            choices = burst_corruptions(word, books[fam][2])
        received, burst = rng.choice(choices)
        out.append((fam, word, received, burst))
    return out


def binary_words(rng, count: int, n: int) -> list:
    return [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(count)]
