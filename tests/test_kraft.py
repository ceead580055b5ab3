"""Exact Kraft sums: examples, algebraic laws, corpus bounds."""

import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from codekraft import approx_str, concat, exact_str, is_ud, kraft_sum

from helpers import bcode, binary_codes, binary_words_up_to


def expand_square(code):
    """Oracle: expand all ordered pairs explicitly and deduplicate."""
    return set(map(concat, itertools.product(code.words, repeat=2)))


def oracle_kraft(words, r=2):
    return sum(Fraction(1, r ** len(w)) for w in words)


class TestKraftSum:
    def test_prefix_code_is_one(self):
        assert kraft_sum(bcode("0", "10", "11")) == Fraction(1)

    def test_empty_code_is_zero(self):
        assert kraft_sum(bcode()) == Fraction(0)

    def test_ambiguous_code_value(self):
        assert kraft_sum(bcode("0", "01", "10")) == Fraction(1)

    def test_square_of_suffix_code(self):
        # expand {0,10}^2 explicitly and sum term by term
        square = expand_square(bcode("0", "10"))
        assert {w.text for w in square} == {"00", "010", "100", "1010"}
        expected = oracle_kraft(square)
        assert expected == Fraction(9, 16)
        assert kraft_sum(bcode(*[w.text for w in square])) == expected

    def test_matches_term_by_term_oracle(self):
        for code in binary_codes(3, 3):
            assert kraft_sum(code) == oracle_kraft(code.words)

    def test_denominator_divides_r_to_maxlen(self):
        for code in binary_codes(3, 4):
            if len(code):
                assert (2 ** code.max_len()) % kraft_sum(code).denominator == 0


class TestAlgebraicLaws:
    words6 = binary_words_up_to(3)

    @given(st.sets(st.sampled_from(words6), max_size=4), st.sets(st.sampled_from(words6), max_size=4))
    def test_subadditive_and_additive_on_disjoint(self, left, right):
        union = kraft_sum(bcode(*[w.text for w in left | right]))
        total = kraft_sum(bcode(*[w.text for w in left])) + kraft_sum(bcode(*[w.text for w in right]))
        assert union <= total
        if not (left & right):
            assert union == total

    @given(st.sets(st.sampled_from(words6), max_size=5), st.sampled_from(words6))
    def test_strictly_monotone_under_proper_inclusion(self, base, extra):
        if extra in base:
            return
        smaller = bcode(*[w.text for w in base])
        larger = bcode(*[w.text for w in base | {extra}])
        assert kraft_sum(smaller) < kraft_sum(larger)

    def test_ud_corpus_bounded_by_one(self):
        for code in binary_codes(3, 3):
            if is_ud(code).is_ud:
                assert kraft_sum(code) <= 1


class TestRendering:
    def test_exact_str_keeps_denominator(self):
        assert exact_str(Fraction(1)) == "1/1"
        assert exact_str(Fraction(0)) == "0/1"
        assert exact_str(Fraction(9, 16)) == "9/16"

    def test_exact_str_past_the_digit_limit(self):
        # str refuses an int of more than 4,300 digits; 3^10000 has 4,772
        num, den = exact_str(Fraction(3**10_000, 2**15_000)).split("/")
        assert (int(Decimal(num)), int(Decimal(den))) == (3**10_000, 2**15_000)

    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(1), "1.00000000000"),
            (Fraction(3, 4), "0.750000000000"),
            (Fraction(9, 16), "0.562500000000"),
            (Fraction(81, 256), "0.316406250000"),
            (Fraction(7, 8), "0.875000000000"),
            (Fraction(0), "0"),
            (Fraction(1, 3), "0.333333333333"),
            (Fraction(25, 2), "12.5000000000"),
        ],
    )
    def test_approx_str_significant_digits(self, value, expected):
        assert approx_str(value) == expected

    def test_approx_str_tiny_value_scientific(self):
        assert approx_str(Fraction(1, 2**40)).startswith("9.09494701773e-13")
