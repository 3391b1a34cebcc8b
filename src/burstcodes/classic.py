"""Classical single-burst codes: VT, Tenengol'ts, the psi-form two-deletion
code, and the induced-deletion code over alternating q-ary sequences.

Decoders raise NotDecodableError instead of ever returning a wrong answer.
Two psi-domain decoders (levenshtein here, the window-bounded one in
pll2burst) recover y = psi(x) from psi of the received word with one
generator, _reinsertions, that puts back every burst of t' deletions whose
VT change matches the residue: each y it yields has the residue and the
burst by construction.  induced_decode builds the one word an induced
deletion at each position can have left and keeps those with the VT
residue.  vt_decode validates its reconstruction against the residue and
the burst channel before returning it.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import le
from typing import Optional

from .seqcore import (
    NotDecodableError,
    burst_starts,
    check_binary,
    check_symbols,
    phi,
    psi,
    psi_inv,
    vt_syndrome,
)

def is_alternating(u: tuple) -> bool:
    return all(a != b for a, b in zip(u, u[1:]))


def ascent_indicator(u: tuple) -> tuple:
    """Non-strict adjacent ascent bits, length n-1: bit i = [u_{i+1} >= u_i].

    This is the indicator the q-ary single-deletion code is built on; the
    strict variant with a leading 1 (phi) does not yield a deletion-
    correcting residue."""
    return tuple(bytes(map(le, u, u[1:])))


def interleaved_psi(u: tuple) -> tuple:
    """psi of the interleaving of phi(u at odd positions) with phi(u at
    even positions)."""
    return psi(_interleave(phi(u[0::2]), phi(u[1::2])))


def vt_residues(x: tuple, n: int) -> tuple:
    """(a,) of the VT code VT_a(n) holding x: VT(x) mod (n+1)."""
    return (vt_syndrome(x) % (n + 1),)


def tenengolts_residues(u: tuple, n: int, q: int) -> tuple:
    """(a, b) of the q-ary single-deletion code holding u: VT of the ascent
    indicator mod n, and the symbol sum mod q."""
    return vt_syndrome(ascent_indicator(u)) % n, sum(u) % q


def levenshtein_residues(x: tuple, n: int) -> tuple:
    """(a,) of the two-burst code holding x: VT(psi(x)) mod 2n."""
    return (vt_syndrome(psi(x)) % (2 * n),)


def induced_residues(u: tuple, n: int, q: int) -> tuple:
    """(a, b, c) of the induced-deletion code holding an alternating u: VT
    of the interleaved psi image mod 2n, and the sums of the odd and the
    even positions mod q.  Alternation itself is not tested here."""
    return (
        vt_syndrome(interleaved_psi(u)) % (2 * n),
        sum(u[0::2]) % q,
        sum(u[1::2]) % q,
    )


def vt_decode(xp: tuple, a: int, n: int) -> tuple:
    """Recover the VT_a(n) codeword from which one bit was deleted."""
    check_binary(xp)
    if len(xp) != n - 1:
        raise ValueError("vt_decode expects length n-1")
    w = sum(xp)
    delta = (a - vt_syndrome(xp)) % (n + 1)
    if delta <= w:
        # a 0 was deleted with delta ones to its right: just before the
        # delta-th one from the end
        pos = [*(i for i, s in enumerate(xp) if s), len(xp)][w - delta]
        x = xp[:pos] + (0,) + xp[pos:]
    else:
        # a 1 was deleted with delta - w - 1 zeros to its left: just past
        # that many zeros (xp holds n - 1 - w >= delta - w - 1 of them)
        pos = [0, *(i + 1 for i, s in enumerate(xp) if not s)][delta - w - 1]
        x = xp[:pos] + (1,) + xp[pos:]
    # never fails (0 of 106,496 (xp, a) at n <= 13): it guards the contract
    if vt_syndrome(x) % (n + 1) != a or not burst_starts(x, xp, 1):
        raise NotDecodableError("no VT codeword consistent with input")
    return x


def tenengolts_decode(up: tuple, a: int, b: int, n: int, q: int) -> tuple:
    """Two-stage decoding: deleted value from the sum residue, position class
    from the VT residue of the ascent image."""
    check_symbols(up, q)
    if len(up) != n - 1:
        raise ValueError("tenengolts_decode expects length n-1")
    value = (b - sum(up)) % q
    matches = set()
    for pos in range(n):
        cand = up[:pos] + (value,) + up[pos:]
        if vt_syndrome(ascent_indicator(cand)) % n == a:
            matches.add(cand)
    if len(matches) != 1:
        raise NotDecodableError("syndromes identify no unique codeword")
    return matches.pop()


@lru_cache(maxsize=None)
def _z_table(tp: int) -> tuple:
    """The bits a t'-burst reinsertion puts back into y = psi(x): (VT(z), z)
    for every t'-bit prefix z, and per parity b, (wt(z) - b, VT(z) - wt(z),
    z) for every (t' + 1)-bit z of xor b."""
    prefix = tuple((vt_syndrome(z), z) for z in product((0, 1), repeat=tp))
    spans = ([], [])
    for z in product((0, 1), repeat=tp + 1):
        w = sum(z)
        spans[w % 2].append((w - w % 2, vt_syndrome(z) - w, z))
    return prefix, tuple(map(tuple, spans))


def _reinsertions(
    yp: tuple, tp: int, delta: int, modulus: int, starts: Optional[range] = None
) -> set:
    """Every y with VT(y) - VT(yp) = delta (mod modulus) such that a burst
    of tp deletions starting in `starts` (None: anywhere) turns psi_inv(y)
    into psi_inv(yp).

    A burst at s >= 2 of x replaces y_{s-1} .. y_{s+tp-1} of y = psi(x) by
    their xor, and one at s = 1 drops y_1 .. y_tp.  Putting z back at
    1-based position j of yp, in place of yp_j, adds j (wt(z) - yp_j) +
    VT(z) - wt(z) + tp R to VT, where R counts the ones of yp after j.
    """
    if starts is None:
        starts = range(1, len(yp) + 2)
    prefix, spans = _z_table(tp)
    # a burst at s >= 2 puts z back at j = s - 1
    js = range(max(starts.start - 1, 1), starts.stop - 1)
    r = sum(yp[js.start - 1 :])
    out = set()
    if 1 in starts:  # then js starts at 1, and r counts every one of yp
        out = {z + yp for vt, z in prefix if (vt + tp * r - delta) % modulus == 0}
    for j, b in zip(js, yp[js.start - 1 :]):
        r -= b
        rest = tp * r - delta
        for dw, vt, z in spans[b]:
            if (j * dw + vt + rest) % modulus == 0:
                out.add(yp[: j - 1] + z + yp[j:])
    return out


def levenshtein_decode(xp: tuple, a: int, n: int) -> tuple:
    """Recover x with VT(psi(x)) = a (mod 2n) after a burst of <= 2 deletions."""
    check_binary(xp)
    if len(xp) not in (n, n - 1, n - 2):
        raise ValueError("levenshtein_decode expects length in {n, n-1, n-2}")
    t = n - len(xp)
    if t == 0:
        if vt_syndrome(psi(xp)) % (2 * n) != a:
            raise NotDecodableError("input is not a codeword")
        return xp
    yp = psi(xp)
    delta = (a - vt_syndrome(yp)) % (2 * n)
    ys = _reinsertions(yp, t, delta, 2 * n)
    # each y has VT(y) = a (mod 2n) only when a lies in [0, 2n)
    if len(ys) != 1 or not 0 <= a < 2 * n:
        raise NotDecodableError("no unique codeword consistent with input")
    return psi_inv(ys.pop())


def induced_deletions(u: tuple) -> list:
    """All results of replacing a substring aba by a in u (positions kept)."""
    out = []
    for i in range(len(u) - 2):
        if u[i] == u[i + 2]:
            out.append((i + 1, u[: i + 1] + u[i + 3 :]))
    return out


def induced_decode(up: tuple, a: int, b: int, c: int, n: int, q: int) -> tuple:
    """Recover the alternating codeword after one induced deletion aba -> a.

    A deletion after position i of u (0-based) leaves up = u[:i+1] +
    u[i+3:], so u = up[:i+1] + (v, up[i]) + up[i+1:]: the sum residue of
    the half holding position i + 1 fixes v, the other half's residue must
    already hold with up[i] added, and the VT residue of interleaved_psi(u)
    picks the position.
    """
    check_symbols(up, q)
    if len(up) != n - 2:
        raise ValueError("induced_decode expects length n-2")
    # each candidate u has halves summing to b and c mod q and is kept only
    # when VT(interleaved_psi(u)) is a mod 2n: its residues are (a, b, c)
    # exactly when these lie in range.  u keeps every adjacent pair of up,
    # so it alternates only if up does.
    if not (0 <= a < 2 * n and 0 <= b < q and 0 <= c < q) or not is_alternating(up):
        raise NotDecodableError("no unique codeword consistent with input")
    gaps = ((b - sum(up[0::2])) % q, (c - sum(up[1::2])) % q)
    found = set()
    for i, w in enumerate(up):
        # v sits at i + 1 and w again at i + 2, in the other half; u then
        # alternates iff v != w
        v = gaps[(i + 1) % 2]
        if w != gaps[i % 2] or v == w:
            continue
        u = up[: i + 1] + (v, w) + up[i + 1 :]
        if vt_syndrome(interleaved_psi(u)) % (2 * n) == a:
            found.add(u)
    if len(found) != 1:
        raise NotDecodableError("no unique codeword consistent with input")
    return found.pop()


def _interleave(uo: tuple, ue: tuple) -> tuple:
    out = [0] * (len(uo) + len(ue))
    out[0::2] = uo
    out[1::2] = ue
    return tuple(out)
