"""Tests for counting formulas and size bounds."""
import itertools
from fractions import Fraction
from math import factorial

import pytest

from burstcodes.bounds import (
    BoundReport,
    ball_count,
    lp_bound,
    lp_bound_direct,
    measured_redundancy,
    perm_bound,
)
from burstcodes.seqcore import deletion_ball
from burstcodes.verify import redundancy_table, sieve


class TestBallCount:
    @pytest.mark.parametrize(
        "n,t,q", [(4, 2, 2), (6, 2, 2), (6, 3, 2), (6, 2, 3)]
    )
    def test_matches_exhaustive_classification(self, n, t, q):
        # classify every word by its exact-burst ball size
        from collections import Counter

        sizes = Counter(
            len(deletion_ball(u, t))
            for u in itertools.product(range(q), repeat=n)
        )
        for i in range(1, n - t + 2):
            assert ball_count(n, t, i, q) == sizes.get(i, 0)

    @pytest.mark.parametrize(
        "n,t,q", [(4, 2, 2), (6, 2, 2), (6, 3, 2), (6, 2, 3)]
    )
    def test_total_is_whole_space(self, n, t, q):
        assert sum(
            ball_count(n, t, i, q) for i in range(1, n - t + 2)
        ) == q**n

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            ball_count(5, 2, 1)  # t does not divide n
        with pytest.raises(ValueError):
            ball_count(4, 2, 0)
        with pytest.raises(ValueError):
            ball_count(4, 2, 4)


class TestLpBound:
    def test_small_binary_value(self):
        # [DERIVED] (2^3 - 2^2) / (1 * 1) = 4
        rep = lp_bound(4, 2, 2)
        assert rep.value == Fraction(4)
        assert rep.floor == 4

    @pytest.mark.parametrize(
        "n,t,q", [(4, 2, 2), (6, 2, 2), (6, 3, 2), (6, 2, 3), (8, 2, 2)]
    )
    def test_closed_form_equals_direct_sum(self, n, t, q):
        assert lp_bound(n, t, q).value == lp_bound_direct(n, t, q)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            lp_bound(5, 2)
        with pytest.raises(ValueError):
            lp_bound(2, 2)


class TestPermBound:
    def test_values(self):
        # [DERIVED] n! / (t! (n-t+1))
        assert perm_bound(5, 2).value == Fraction(120, 8)
        assert perm_bound(6, 2).value == Fraction(720, 10)
        assert perm_bound(6, 2).floor == 72
        assert perm_bound(4, 3).value == Fraction(24, 12)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            perm_bound(2, 2)


class TestTable:
    def test_shape_and_header(self):
        rows = redundancy_table(["vt", "levenshtein"], [8, 10])
        assert rows[0] == ["family", "burst", "formula", "n=8", "n=10"]
        assert len(rows) == 3
        assert all(len(r) == 5 for r in rows)

    def test_computed_cells(self):
        # a walk family's cell is the redundancy of its exhaustive book;
        # perm counts no class, and pbounded needs a P the table lacks
        rows = redundancy_table(["vt", "levenshtein", "perm", "pbounded"], [8, 10])
        for row, family in zip(rows[1:3], ("vt", "levenshtein")):
            assert row[3:] == [
                f"{sieve(family, n).redundancy_bits:.3f}" for n in (8, 10)
            ]
        assert rows[3][3:] == rows[4][3:] == ["", ""]

    def test_c2b_blank_unless_q_is_a_power_of_two(self):
        # at q = 6 the row product overcounts the words with a symbol >= q
        rows = redundancy_table(["c2b"], [8, 10], q=6)
        assert rows[1][3:] == ["", ""]
        assert all(redundancy_table(["c2b"], [8, 10], q=4)[1][3:])

    def test_measured_redundancy(self):
        assert measured_redundancy(256, 16) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            measured_redundancy(256, 0)
