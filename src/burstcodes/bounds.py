"""Counting formulas and size upper bounds, in exact rational arithmetic."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, log2


@dataclass(frozen=True)
class BoundReport:
    n: int
    q: int
    t: int
    value: Fraction
    tag: str

    @property
    def floor(self) -> int:
        return self.value.numerator // self.value.denominator


def ball_count(n: int, t: int, i: int, q: int = 2) -> int:
    """Number of u in Sigma_q^n whose t-burst ball has exactly i elements:
    q^t (q-1)^(i-1) C(n-t, i-1)."""
    if t < 1 or n % t != 0:
        raise ValueError("requires t >= 1 and t | n")
    if not 1 <= i <= n - t + 1:
        raise ValueError("requires 1 <= i <= n-t+1")
    return q**t * (q - 1) ** (i - 1) * comb(n - t, i - 1)


def lp_bound(n: int, t: int, q: int = 2) -> BoundReport:
    """Upper bound on a t-burst code: (q^(n-t+1) - q^t) / ((q-1)(n-2t+1))."""
    if t < 1 or q < 2:
        raise ValueError("requires t >= 1 and q >= 2")
    if n <= t or n % t != 0:
        raise ValueError("requires n > t and t | n")
    value = Fraction(q ** (n - t + 1) - q**t, (q - 1) * (n - 2 * t + 1))
    return BoundReport(n=n, q=q, t=t, value=value, tag="lp")


def lp_bound_direct(n: int, t: int, q: int = 2) -> Fraction:
    """The same bound computed as the direct sum over ball sizes:
    sum_i N(n-t, t, i) / i."""
    m = n - t
    return sum(
        Fraction(ball_count(m, t, i, q), i) for i in range(1, m - t + 2)
    )


def perm_bound(n: int, t: int) -> BoundReport:
    """Upper bound on a t-burst permutation code: n! / (t! (n-t+1))."""
    if not 1 <= t < n:
        raise ValueError("requires 1 <= t < n")
    value = Fraction(factorial(n), factorial(t) * (n - t + 1))
    return BoundReport(n=n, q=0, t=t, value=value, tag="perm")


def measured_redundancy(ambient_size: int, book_size: int) -> float:
    """log2(ambient / codebook size)."""
    if book_size < 1:
        raise ValueError("empty codebook")
    return log2(ambient_size) - log2(book_size)
