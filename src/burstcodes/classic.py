"""Classical single-burst codes: VT, Tenengol'ts, the psi-form two-deletion
code, and the induced-deletion code over alternating q-ary sequences.

Decoders raise NotDecodableError instead of ever returning a wrong answer;
every reconstruction is validated against the residues and the burst channel
before being returned.
"""
from __future__ import annotations

from operator import le

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
        # a 0 was deleted with delta ones to its right
        x = _insert_zero_before_ones(xp, delta, (0,))
    else:
        # a 1 was deleted with delta - w - 1 zeros to its left: just past
        # that many zeros (xp holds n - 1 - w >= delta - w - 1 of them)
        pos = [0, *(i + 1 for i, s in enumerate(xp) if not s)][delta - w - 1]
        x = xp[:pos] + (1,) + xp[pos:]
    # never fails (0 of 106,496 (xp, a) at n <= 13): it guards the contract
    if vt_syndrome(x) % (n + 1) != a or not any(burst_starts(x, xp, 1)):
        raise NotDecodableError("no VT codeword consistent with input")
    return x


def _insert_zero_before_ones(xp: tuple, r1: int, bits: tuple) -> tuple:
    """Insert `bits` so exactly r1 ones of xp lie to their right."""
    # rightmost position with exactly r1 <= sum(xp) ones to its right
    seen = 0
    pos = len(xp)
    for i in range(len(xp) - 1, -1, -1):
        if seen == r1 and xp[i] == 1:
            break
        pos = i
        if xp[i] == 1:
            seen += 1
    return xp[:pos] + bits + xp[pos:]


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


def _one_deletion_candidates(yp: tuple, delta: int, modulus: int) -> list:
    """Reconstructions of y from y' after one deletion in the underlying x.

    One deletion in x replaces an adjacent pair of y by its xor (or drops
    y_1).  Dispatch on delta = VT(y) - VT(y') mod modulus vs w = wt(y'),
    comparing per candidate residue.
    """
    w = sum(yp)
    out = []

    def hit(value: int) -> bool:
        return value % modulus == delta

    # a 0 of y was deleted: delta = R1 (ones right of it)
    for r1 in range(w + 1):
        if hit(r1):
            out.append(_insert_zero_before_ones(yp, r1, (0,)))
    # first bit 1 of y deleted: delta = w + 1
    if hit(w + 1):
        out.append((1,) + yp)
    # a pair 11 of y collapsed to 0: delta = 2p + 1 + R1(p)
    r1 = 0
    for p in range(len(yp), 0, -1):
        if yp[p - 1] == 0:
            if hit(2 * p + 1 + r1):
                out.append(yp[: p - 1] + (1, 1) + yp[p:])
        else:
            r1 += 1
    return out


def _two_deletion_candidates(yp: tuple, delta: int, modulus: int) -> list:
    """Reconstructions of y from y' after two consecutive deletions in x.

    Two consecutive deletions replace an adjacent triple of y by its xor
    (or drop a length-2 prefix).  Cases keyed on parity of delta vs 2w.
    """
    w = sum(yp)
    out = []

    def hit(value: int) -> bool:
        return value % modulus == delta

    # 010 collapsed to 1: delta = 2*R1 + 1, replace a 1 by 010
    r1 = 0
    for p in range(len(yp), 0, -1):
        if yp[p - 1] == 1:
            if hit(2 * r1 + 1):
                out.append(yp[: p - 1] + (0, 1, 0) + yp[p:])
            r1 += 1
    # 00 deleted (covers 000->0, 001->1, 100->1): delta = 2*R1
    for r1 in range(w + 1):
        if hit(2 * r1):
            out.append(_insert_zero_before_ones(yp, r1, (0, 0)))
    # prefix 10 / 01 of y deleted
    if hit(2 * w + 1):
        out.append((1, 0) + yp)
    if hit(2 * w + 2):
        out.append((0, 1) + yp)
    # 11 inserted back (covers 011/110/111 collapses): delta = 2p + 1 + 2*R1(p)
    r1 = 0
    for p in range(len(yp) + 1, 0, -1):
        if hit(2 * p + 1 + 2 * r1):
            out.append(yp[: p - 1] + (1, 1) + yp[p - 1 :])
        if p >= 2 and yp[p - 2] == 1:
            r1 += 1
    # 101 collapsed to 0: delta = 2p + 2 + 2*R1(p), replace a 0 by 101
    r1 = 0
    for p in range(len(yp), 0, -1):
        if yp[p - 1] == 0:
            if hit(2 * p + 2 + 2 * r1):
                out.append(yp[: p - 1] + (1, 0, 1) + yp[p:])
        else:
            r1 += 1
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
    if t == 1:
        ys = _one_deletion_candidates(yp, delta, 2 * n)
    else:
        ys = _two_deletion_candidates(yp, delta, 2 * n)
    found = set()
    for y in ys:
        x = psi_inv(y)
        # never fails (0 of 47,103 candidates at n <= 11): it guards the contract
        if vt_syndrome(y) % (2 * n) == a and any(burst_starts(x, xp, 2)):
            found.add(x)
    if len(found) != 1:
        raise NotDecodableError("no unique codeword consistent with input")
    return found.pop()


def induced_deletions(u: tuple) -> list:
    """All results of replacing a substring aba by a in u (positions kept)."""
    out = []
    for i in range(len(u) - 2):
        if u[i] == u[i + 2]:
            out.append((i + 1, u[: i + 1] + u[i + 3 :]))
    return out


def induced_decode(up: tuple, a: int, b: int, c: int, n: int, q: int) -> tuple:
    """Recover the alternating codeword after one induced deletion aba -> a.

    Four-step procedure: repair psi of the interleaved ascent image (the
    change is one of: delete 11, delete 00, 010->1, 101->0), split into the
    odd/even ascent images, recover the two deleted values from the sum
    residues, then reinsert them Tenengol'ts-style in each half.
    """
    check_symbols(up, q)
    if len(up) != n - 2:
        raise ValueError("induced_decode expects length n-2")
    yp = interleaved_psi(up)
    delta = (a - vt_syndrome(yp)) % (2 * n)
    candidates = _two_deletion_candidates(yp, delta, 2 * n)
    v_odd = (b - sum(up[0::2])) % q
    v_even = (c - sum(up[1::2])) % q
    found = set()
    for y in candidates:
        x = psi_inv(y)
        half = _reinsert_by_phi(up[0::2], v_odd, x[0::2])
        other = _reinsert_by_phi(up[1::2], v_even, x[1::2])
        for uo in half:
            for ue in other:
                u = _interleave(uo, ue)
                if (
                    is_alternating(u)
                    and induced_residues(u, n, q) == (a, b, c)
                    and any(res == up for _, res in induced_deletions(u))
                ):
                    found.add(u)
    if len(found) != 1:
        raise NotDecodableError("no unique codeword consistent with input")
    return found.pop()


def _reinsert_by_phi(half: tuple, value: int, target_phi: tuple) -> set:
    """Insertions of value into half whose ascent image equals target_phi."""
    out = set()
    for pos in range(len(half) + 1):
        cand = half[:pos] + (value,) + half[pos:]
        if phi(cand) == target_phi:
            out.add(cand)
    return out


def _interleave(uo: tuple, ue: tuple) -> tuple:
    out = [0] * (len(uo) + len(ue))
    out[0::2] = uo
    out[1::2] = ue
    return tuple(out)
