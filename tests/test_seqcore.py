"""Core sequence primitives, validated against independent enumeration."""
import random
from itertools import product

import pytest

from burstcodes.seqcore import (
    Burst,
    Interval,
    apply_burst,
    burst_ball_size,
    bursts,
    ceil_log2,
    deletion_ball,
    format_sequence,
    from_matrix,
    longest_period2,
    parse_sequence,
    phi,
    psi,
    psi_inv,
    run_syndrome,
    to_matrix,
    vt_syndrome,
)


def words(q, exhaustive, longest):
    """Every word over range(q) of length 1 .. exhaustive, then 50 seeded
    words of each length up to `longest`."""
    for n in range(1, exhaustive + 1):
        yield from product(range(q), repeat=n)
    rng = random.Random(f"{q}/{exhaustive}/{longest}")
    for n in range(exhaustive + 1, longest + 1):
        for _ in range(50):
            yield tuple(rng.randrange(q) for _ in range(n))


def brute_period2_longest(x: tuple) -> int:
    best = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x) + 1):
            s = x[i:j]
            if all(s[k] == s[k + 2] for k in range(len(s) - 2)):
                best = max(best, len(s))
    return best


class TestBurstBasics:
    def test_burst_validation(self):
        with pytest.raises(ValueError):
            Burst(0, 1)
        with pytest.raises(ValueError):
            Burst(1, 0)

    def test_interval(self):
        iv = Interval(3, 7)
        assert len(iv) == 5
        assert iv.contains(Interval(4, 6))
        assert not iv.contains(Interval(4, 8))
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_apply_burst(self):
        assert apply_burst((1, 2, 3, 4, 5), Burst(2, 2)) == (1, 4, 5)
        assert apply_burst((1, 2), Burst(1, 2)) == ()
        with pytest.raises(ValueError):
            apply_burst((1, 2), Burst(2, 2))

    def test_bursts_enumeration(self):
        assert [b.start for b in bursts(5, 2)] == [1, 2, 3, 4]
        upto = list(bursts(5, 2, upto=True))
        assert len(upto) == 5 + 4


class TestDeletionBall:
    def test_exact_values(self):
        assert deletion_ball((0, 1, 0, 1), 2) == {(0, 1)}
        assert deletion_ball((0, 1, 1, 0), 2) == {(1, 0), (0, 0), (0, 1)}

    def test_upto_includes_shorter_bursts(self):
        ball = deletion_ball((0, 1, 1, 0), 2, upto=True)
        assert (0, 1, 1) in ball and (0, 1) in ball

    def test_size_formula_matches_enumeration(self):
        for x in words(2, 12, 14):
            for t in (1, 2):
                if len(x) < t or len(x) % t != 0:
                    continue
                assert burst_ball_size(x, t) == len(deletion_ball(x, t))

    def test_ball_refuses_huge_inputs(self):
        with pytest.raises(ValueError):
            deletion_ball((0,) * 33, 1)

    @pytest.mark.parametrize("t", [0, 3])
    def test_ball_refuses_t_outside_the_length(self, t):
        with pytest.raises(ValueError, match="1 <= t"):
            deletion_ball((0, 1), t)


class TestSyndromes:
    def test_vt_weighted_sum(self):
        assert vt_syndrome((0, 0, 0)) == 0
        assert vt_syndrome((1, 1, 1)) == 6
        assert vt_syndrome((0, 1, 0, 1)) == 6

    def test_run_syndrome_example(self):
        r, total = run_syndrome((0, 1, 1, 1, 0, 1, 0, 0))
        assert r == (0, 1, 1, 1, 2, 3, 4, 4)
        assert total == 16

    def test_run_indices_nondecreasing(self):
        for x in words(2, 14, 14):
            r, total = run_syndrome(x)
            assert all(b - a in (0, 1) for a, b in zip(r, r[1:]))
            assert total == sum(r)


class TestPsiPhi:
    def test_psi_example(self):
        assert psi((0, 1, 1, 1, 0, 1, 0, 0)) == (1, 0, 0, 1, 1, 1, 0, 0)

    def test_psi_bijective(self):
        for x in words(2, 14, 14):
            assert psi_inv(psi(x)) == x
            assert psi(psi_inv(x)) == x

    def test_phi_strict_ascents(self):
        assert phi((1, 6, 6, 3)) == (1, 1, 0, 0)
        assert phi((0, 7, 2, 5)) == (1, 1, 0, 1)
        assert phi((5,)) == (1,)


class TestPeriod2:
    def test_known_values(self):
        assert longest_period2((1, 1, 0, 1, 0, 1, 0, 1, 1)) == 7
        assert longest_period2((0,)) == 1
        assert longest_period2((0, 0)) == 2
        assert longest_period2((0, 1, 1, 0)) == 2

    def test_matches_brute_force(self):
        for x in words(2, 11, 14):
            assert longest_period2(x) == brute_period2_longest(x)


class TestMatrix:
    def test_lsb_first_rows(self):
        rows = to_matrix((0, 1, 2, 3), 4)
        assert rows == ((0, 1, 0, 1), (0, 0, 1, 1))
        assert from_matrix(rows, 4) == (0, 1, 2, 3)

    def test_roundtrip_q8(self):
        for u in words(8, 5, 10):
            assert from_matrix(to_matrix(u, 8), 8) == u

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            to_matrix((4,), 4)


class TestParsing:
    def test_ceil_log2(self):
        assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [
            0, 1, 2, 2, 3, 3, 4,
        ]

    def test_binary_shorthand(self):
        assert parse_sequence("0110") == (0, 1, 1, 0)
        assert parse_sequence("10,2,0") == (10, 2, 0)
        assert format_sequence((0, 1, 1)) == "011"
        assert format_sequence((10, 2, 0)) == "10,2,0"

    def test_one_symbol_without_commas(self):
        # neither comma-separated nor binary shorthand: a single symbol
        assert parse_sequence("7") == (7,)
        assert parse_sequence("12") == (12,)

    def test_roundtrip(self):
        for u in [(), *words(2, 8, 8), *words(100, 2, 8)]:
            assert parse_sequence(format_sequence(u)) == u
