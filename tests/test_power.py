"""Code powers and power chains."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from codekraft import (
    Alphabet,
    Code,
    EmptyCodeError,
    ResourceLimitError,
    code_power,
    concat,
    is_ud,
    kraft_sum,
    power_chain,
    refines,
)
from codekraft import power

from helpers import BINARY, bcode, binary_codes, code_over, refines_by_tuples

SMALL_CODES = list(binary_codes(4, 3))


class TestCodePower:
    def test_square_of_suffix_code(self):
        square = code_power(bcode("0", "10"), 2)
        assert [w.text for w in square] == ["00", "010", "100", "1010"]
        assert len(square) == 4

    def test_first_power_is_identity(self):
        for code in (bcode(), bcode("0"), bcode("0", "10", "11")):
            assert code_power(code, 1) is code

    def test_collision_shrinks_power(self):
        power = code_power(bcode("0", "01", "10"), 2)
        assert len(power) == 8  # 9 ordered pairs, 010 collides

    def test_empty_code_power(self):
        assert len(code_power(bcode(), 3)) == 0

    def test_cap_on_tuple_count(self):
        with pytest.raises(ResourceLimitError):
            code_power(bcode("0", "1"), 20, max_words=1000)

    def test_zeroth_power_rejected(self):
        with pytest.raises(ValueError, match="k must be a positive integer, got 0"):
            code_power(bcode("0", "10"), 0)

    def test_first_power_is_not_capped(self):
        code = bcode("0", "10", "11")
        assert code_power(code, 1, max_words=1) is code
        with pytest.raises(ResourceLimitError):
            code_power(code, 2, max_words=1)

    @seed(20261018)
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(SMALL_CODES), st.integers(min_value=1, max_value=3))
    def test_matches_naive_concatenations(self, code, k):
        naive = Code(BINARY, (concat(t) for t in itertools.product(code.words, repeat=k)))
        assert code_power(code, k) == naive

    def test_power_is_multiplicative(self):
        code = bcode("0", "10", "11")
        assert code_power(code, 4) == code_power(code_power(code, 2), 2)


def naive_power(code, k):
    """The keys of C^k from all |C|^k concatenations, by a set and one sort."""
    return tuple(sorted({"".join(t) for t in itertools.product(code.indices, repeat=k)}, key=lambda t: (len(t), t)))


def random_small_codes(seed, count):
    """Seeded binary and ternary codes of 1 to 6 words of length 1 to 4."""
    rng = random.Random(seed)
    for _ in range(count):
        symbols = rng.choice(("01", "012"))
        alphabet = Alphabet(symbols)
        texts = {"".join(rng.choices(symbols, k=rng.randint(1, 4))) for _ in range(rng.randint(1, 6))}
        yield Code(alphabet, [alphabet.word(t) for t in texts])


def random_prefix_trees(seed, count, max_words=12):
    """Seeded binary and ternary prefix codes: the leaves of random trees,
    grown by giving a random leaf children on a random nonempty set of
    symbols while the code stays within ``max_words`` words."""
    rng = random.Random(seed)
    for _ in range(count):
        symbols = rng.choice(("01", "012"))
        alphabet = Alphabet(symbols)
        leaves = [""]
        while True:
            children = rng.sample(symbols, rng.randint(1, len(symbols)))
            if leaves != [""] and (len(leaves) - 1 + len(children) > max_words or rng.random() < 0.15):
                break
            leaf = leaves.pop(rng.randrange(len(leaves)))
            leaves += [leaf + c for c in children]
        yield Code(alphabet, [alphabet.word(t) for t in leaves])


def reversed_code(code):
    """The code of the reversed words: a suffix code when ``code`` is prefix."""
    return Code(code.alphabet, [code.alphabet.word(w.text[::-1]) for w in code])


def within_cap(codes, k):
    return [code for code in codes if len(code) ** k <= power.DEFAULT_MAX_POWER_WORDS]


def is_prefix(code):
    return not any(u != v and v.indices.startswith(u.indices) for u in code for v in code)


# collisions between concatenations of different length splits
COLLIDING = [bcode("0", "01", "10"), bcode("0", "00"), bcode("0", "1", "001"), bcode("1", "01", "10", "010")]
EDGE_CODES = [bcode(), bcode("0"), bcode("0110"), *COLLIDING]
# prefix codes of one word length, and of mixed lengths
BLOCK_CODES = [bcode("0", "1"), bcode("00", "01", "10", "11"), code_over(Alphabet("012"), "0", "1", "2")]
MIXED_PREFIX = [
    bcode("0", "10", "110", "111"),
    code_over(Alphabet("012"), "0", "1", "20", "21", "22"),
    # shortlex and lexicographic orders differ
    bcode("1", "00", "01"),
    *(code for code in random_prefix_trees(20261022, 40) if code.min_len() < code.max_len()),
]
# UD but not prefix-free: suffix codes
SUFFIX_CODES = [
    bcode("0", "01", "11"),
    bcode("0", "01"),
    bcode("1", "10", "00"),
    *(c for c in map(reversed_code, random_prefix_trees(20261023, 80)) if not is_prefix(c)),
]


class TestCodePowerOracle:
    """code_power against all concatenations, deduplicated and sorted, on
    each kind of code the build tells apart: prefix codes of one length and
    of mixed lengths, UD codes that are not prefix-free, and codes that are
    not UD."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_edge_and_colliding_codes(self, k):
        for code in EDGE_CODES:
            assert code_power(code, k).indices == naive_power(code, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_codes(self, k):
        for code in random_small_codes(20261020 + k, 60):
            assert code_power(code, k).indices == naive_power(code, k), (str(code), k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_words_of_one_length(self, k):
        for code in BLOCK_CODES:
            assert code_power(code, k).indices == naive_power(code, k), (str(code), k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_prefix_codes_of_mixed_lengths(self, k):
        assert len(MIXED_PREFIX) > 30 and all(map(is_prefix, MIXED_PREFIX))
        for code in within_cap(MIXED_PREFIX, k):
            assert code_power(code, k).indices == naive_power(code, k), (str(code), k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_suffix_codes(self, k):
        assert len(SUFFIX_CODES) > 20 and all(is_ud(c).is_ud and not is_prefix(c) for c in SUFFIX_CODES)
        for code in within_cap(SUFFIX_CODES, k):
            assert code_power(code, k).indices == naive_power(code, k), (str(code), k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_codes_that_are_not_ud(self, k):
        for code in (bcode("0", "01", "10"), bcode("0", "00")):
            assert not is_ud(code).is_ud
            assert code_power(code, k).indices == naive_power(code, k), (str(code), k)

    def test_fourth_power_is_square_of_square(self):
        # codes that are not UD, of mixed lengths: repeats drop at every step
        codes = [*COLLIDING, *(c for c in random_small_codes(20261021, 200) if not is_ud(c).is_ud)]
        assert len(codes) > 20
        for code in codes:
            assert code_power(code, 4) == code_power(code_power(code, 2), 2), str(code)


class TestWordTuples:
    def test_surjectivity_onto_power(self):
        # every k-tuple of code words concatenates to a word of the power,
        # and every power word is such a concatenation, collisions included
        for code in (bcode("0", "01", "10"), bcode("0", "10", "11"), bcode("0", "00")):
            for k in (1, 2, 3):
                via_tuples = {concat(t) for t in itertools.product(code.words, repeat=k)}
                assert via_tuples == set(code_power(code, k).words)


class TestCardinalityAndKraftLaws:
    def test_cardinality_law_on_small_corpus(self):
        for code in binary_codes(2, 3):
            verdict = is_ud(code)
            if verdict.is_ud:
                for k in (2, 3):
                    assert len(code_power(code, k)) == len(code) ** k

    def test_kraft_product_law(self):
        for code in binary_codes(2, 3):
            value = kraft_sum(code)
            ud = is_ud(code).is_ud
            for k in (2, 3):
                power_value = kraft_sum(code_power(code, k))
                assert power_value <= value**k
                if ud:
                    assert power_value == value**k

    def test_ud_closure_of_powers(self):
        for code in (bcode("0", "10", "11"), bcode("1", "01"), bcode("00", "01")):
            assert is_ud(code).is_ud
            for k in (2, 3):
                assert is_ud(code_power(code, k)).is_ud


class TestPowerChain:
    def test_full_binary_chain(self):
        chain = power_chain(bcode("0", "1"), 2)
        assert [len(m) for m in chain.members] == [2, 4, 16]
        assert chain.kraft_values == (Fraction(1), Fraction(1), Fraction(1))
        assert chain.descending and chain.equal_kraft

    def test_suffix_code_chain_kraft_descends(self):
        chain = power_chain(bcode("0", "10"), 2)
        assert chain.kraft_values == (Fraction(3, 4), Fraction(9, 16), Fraction(81, 256))
        assert chain.descending and not chain.equal_kraft

    def test_singleton_chain(self):
        alphabet = Alphabet("012")
        base = Code(alphabet, [alphabet.word("01")])
        chain = power_chain(base, 1)
        assert [w.text for m in chain.members for w in m] == ["01", "0101"]
        assert chain.kraft_values == (Fraction(1, 9), Fraction(1, 81))

    def test_members_are_successive_squares(self):
        base = bcode("0", "10", "11")
        chain = power_chain(base, 2)
        assert chain.members[1] == code_power(base, 2)
        assert chain.members[2] == code_power(chain.members[1], 2)

    def test_descent_means_refinement(self):
        chain = power_chain(bcode("0", "10", "11"), 2)
        for previous, following in zip(chain.members, chain.members[1:]):
            assert refines_by_tuples(following, previous)

    def test_last_member_builds_no_factor_index(self):
        # only fine sides of the descent check are factored over
        chain = power_chain(bcode("00", "01", "10", "11"), 2)
        assert [len(m) for m in chain.members] == [4, 16, 256]
        assert all(hasattr(m, "_factor_index") for m in chain.members[:-1])
        assert not hasattr(chain.members[-1], "_factor_index")

    def test_last_member_builds_no_words(self):
        # the descent check and the Kraft sum read keys only
        chain = power_chain(bcode("00", "01", "10", "11"), 2)
        last = chain.members[-1]
        assert not hasattr(last, "_factor_index")
        assert kraft_sum(last) == 1
        assert refines(last, chain.members[-2])
        assert not hasattr(last, "_factor_index")
        assert [w.text for w in last][:2] == ["00000000", "00000001"]

    def test_descent_is_computed(self, monkeypatch):
        # a chain that would descend reads False once refinement is denied
        monkeypatch.setattr(power, "refines", lambda coarse, fine: False)
        assert not power_chain(bcode("00", "01", "10", "11"), 2).descending

    def test_empty_base_rejected(self):
        with pytest.raises(EmptyCodeError):
            power_chain(bcode(), 1)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            power_chain(bcode("0"), -1)

    def test_zero_depth(self):
        chain = power_chain(bcode("0", "10"), 0)
        assert chain.members == (bcode("0", "10"),)
        assert chain.descending and chain.equal_kraft
