"""The syndrome primitives and period-2 scans against per-position loops.

The package computes these maps with C-level iterators and bytes searches.
The references below are the loops they replaced; every kernel must give the
same value, with the same types (book digests hash these tuples through
JSON, where a bool would print as true), and refuse the same inputs.
"""
import random
from itertools import product

import pytest

from burstcodes import classic, seqcore

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


def _outcome(f, *args):
    """repr of the value, so that 1 and True or a tuple and a list differ,
    or the type and message of the ValueError raised."""
    try:
        return repr(f(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


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
