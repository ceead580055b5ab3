"""Factorization, the refinement order, and irredundant refinements."""

import itertools
import operator
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from codekraft import (
    Alphabet,
    Code,
    MixedAlphabetsError,
    ResourceLimitError,
    Word,
    check_mcmillan,
    check_monotonicity,
    code_power,
    concat,
    first_factorization,
    irredundant_refinements,
    is_irredundant_refinement,
    is_ud,
    power_chain,
    refines,
)
from codekraft import cli, refine

from helpers import (
    BINARY,
    bcode,
    binary_codes,
    binary_words_up_to,
    code_over,
    composition_block_sets_by_mask,
    key_word,
    refines_by_tuples,
    splitter,
    without,
)

TERNARY = Alphabet("012")


def all_subsets(code):
    for size in range(len(code) + 1):
        for combo in itertools.combinations(code.words, size):
            yield Code(code.alphabet, combo)


def substring_closure(code):
    """Every nonempty substring of every word, as a Code."""
    seen = set()
    for w in code.words:
        n = len(w)
        for i in range(n):
            for j in range(i + 1, n + 1):
                seen.add(w.indices[i:j])
    return Code(code.alphabet, (key_word(code.alphabet, t) for t in seen))


def reference_factorizations(word, code):
    """Naive DP oracle: every factorization of each suffix of ``word``, built
    right to left from membership tests on freshly built words, in shortlex
    order of their compositions (factor count, then factor lengths)."""
    idx = word.indices
    n = len(idx)
    tails = [[] for _ in range(n)] + [[()]]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n + 1):
            head = key_word(word.alphabet, idx[i:j])
            if head in code:
                tails[i].extend((head,) + rest for rest in tails[j])
    return sorted(tails[0], key=lambda seq: (len(seq), tuple(len(w) for w in seq)))


def brute_force_irredundant(coarse):
    """Oracle: scan every subset of the substring closure for minimal refinements."""
    universe = substring_closure(coarse)
    refining = [s for s in all_subsets(universe) if refines_by_tuples(coarse, s)]
    out = []
    for d in refining:
        if not any(e != d and set(e.words) < set(d.words) for e in refining):
            out.append(d)
    return sorted(out, key=lambda c: c.sort_key)


class TestFactorizations:
    """The canonical factorization against ``splitter``, which lists them all."""

    def test_two_way_split(self):
        # 0·10 and 01·0 both have two factors; lengths (1, 2) come first
        assert str(first_factorization(BINARY.word("010"), bcode("0", "01", "10"))) == "0·10"

    def test_word_factors_as_itself(self):
        assert first_factorization(BINARY.word("0"), bcode("0")).factors == (BINARY.word("0"),)

    def test_wrong_symbol_has_no_factorization(self):
        assert first_factorization(BINARY.word("1"), bcode("0")) is None

    def test_soundness_and_completeness_against_splitter(self):
        codes = [
            bcode("0", "01", "10"),
            bcode("0", "00"),
            bcode("0", "1"),
            bcode("01", "10", "1"),
            bcode("0", "10", "11"),
            bcode("00", "11", "0110"),
        ]
        for code in codes:
            for word in binary_words_up_to(8):
                first = first_factorization(word, code)
                assert (first is None) == (not splitter(word, code))
                if first is not None:
                    assert first.concatenation == word
                    assert all(factor in code for factor in first.factors)

    def test_at_most_one_under_ud(self):
        # cross-checks is_ud: a UD code leaves no word two factorizations
        for code in binary_codes(3, 3):
            if not is_ud(code).is_ud:
                continue
            for word in binary_words_up_to(6):
                assert len(splitter(word, code)) <= 1

    def test_long_word_is_walked_without_recursion(self):
        # 1600 factors: deeper than the recursion limit
        word = BINARY.word("01" * 800)
        only = first_factorization(word, bcode("0", "1"))
        assert len(only) == 1600 and only.concatenation == word

    def test_first_matches_enumeration(self):
        codes = (
            bcode("0", "01", "10"),
            bcode("0", "00"),
            bcode("1", "10"),
            # many compositions with the same factor count
            bcode("0", "1", "01", "10", "010"),
            bcode("1", "01", "011", "0110"),
        )
        for code in codes:
            for word in binary_words_up_to(7):
                splits = splitter(word, code)
                first = first_factorization(word, code)
                if splits:
                    assert first.factors == splits[0]
                else:
                    assert first is None


SMALL_CODES = list(binary_codes(4, 3))
SHORT_WORDS = binary_words_up_to(3)


class TestFactorIndex:
    """Factoring reads one index per code and returns words of the code."""

    def test_witness_factors_are_the_fine_codes_words(self):
        fine = bcode("0", "10", "11")
        for word in code_power(fine, 3):
            factorization = first_factorization(word, fine)
            assert all(factor in fine for factor in factorization.factors)
            assert factorization.concatenation == word

    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(SMALL_CODES),
        st.lists(st.sampled_from(SHORT_WORDS), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_matches_reference_dp(self, code, pieces, drop):
        word = concat(pieces)
        derived = [code]
        if len(code):
            first_factorization(word, code)  # fills the parent's index first
            derived.append(without(code, code.words[drop % len(code)]))
        for c in derived:
            expected = reference_factorizations(word, c)
            first = first_factorization(word, c)
            if expected:
                assert first.factors == expected[0]
                assert all(factor in c for factor in first.factors)
                assert first.concatenation == word
            else:
                assert first is None


@st.composite
def refinement_pairs(draw):
    """A small binary fine code and a coarse code of concatenations of its
    words, sometimes with a stray word, so both verdicts occur; either code
    may be empty."""
    fine = draw(st.sampled_from(SMALL_CODES))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    pieces = fine.words or SHORT_WORDS
    coarse = [concat(rng.choices(pieces, k=rng.randint(1, 3))) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        coarse.append(rng.choice(SHORT_WORDS))
    return Code(BINARY, coarse), fine


@st.composite
def power_refinement_pairs(draw):
    """A power C^k of a random small binary or ternary code with at least as
    many words as the batched search's crossover, sometimes with planted
    words that do not factor, and a fine code: C, C^2, the unit code or a
    random code of short words."""
    alphabet = draw(st.sampled_from((BINARY, TERNARY)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))

    def words(count, max_len):
        return [
            Word(alphabet, tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(1, max_len))))
            for _ in range(count)
        ]

    base = Code(alphabet, words(rng.randint(2, 5), 3))
    while len(base) < 2:
        base = Code(alphabet, words(3, 3))
    k = 2
    while len(base) ** k < refine._BATCH_MIN:
        k += 1
    coarse = code_power(base, k + rng.randint(0, 1))
    fine = rng.choice(
        (base, code_power(base, 2), Code(alphabet, words(alphabet.size, 1)), Code(alphabet, words(4, 2)))
    )
    if rng.random() < 0.5:
        planted = [w for w in words(3, 8) if first_factorization(w, fine) is None]
        coarse = Code(alphabet, list(coarse) + planted)
    return coarse, fine


def per_word_verdicts(coarse, fine):
    """The reference: one canonical factoring search per coarse word."""
    return [first_factorization(w, fine) is not None for w in coarse]


@pytest.fixture
def batched_levels(monkeypatch):
    """The outcome of each first cut the batched search makes: True when it
    went on to the next level, False when it searched the level per word."""
    outcomes = []
    cut = refine._cut

    def recording(*args):
        tails = cut(*args)
        outcomes.append(tails is not None)
        return tails

    monkeypatch.setattr(refine, "_cut", recording)
    return outcomes


class TestRefines:
    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(refinement_pairs())
    def test_matches_tuple_reference(self, pair):
        coarse, fine = pair
        assert refines(coarse, fine) == refines_by_tuples(coarse, fine)
        assert refines(fine, coarse) == refines_by_tuples(fine, coarse)

    @seed(20261019)
    @settings(max_examples=150, deadline=None)
    @given(power_refinement_pairs(), st.data())
    def test_batched_search_matches_per_word_search(self, pair, data):
        coarse, fine = pair
        expected = per_word_verdicts(coarse, fine)
        assert refines(coarse, fine) == all(expected)
        factoring = list(itertools.compress(coarse, expected))
        assert refines(Code(coarse.alphabet, factoring), fine)
        failing = [w for w, holds in zip(coarse, expected) if not holds]
        if failing:
            extra = data.draw(st.sampled_from(failing))
            assert not refines(Code(coarse.alphabet, factoring + [extra]), fine)

    def test_longer_head_after_failing_remainder(self, batched_levels):
        # 0122 = 01·22, although the head 0 leaves 122, which does not factor
        fine = code_over(TERNARY, "0", "01", "21", "22")
        coarse = Code(TERNARY, list(code_power(code_over(TERNARY, "0", "21", "22"), 4)) + [TERNARY.word("0122")])
        assert refines(coarse, fine) and all(per_word_verdicts(coarse, fine))
        assert batched_levels[0]

    def test_only_last_word_fails(self, batched_levels):
        fine = bcode("0", "10", "11")
        factoring = code_power(fine, 3)
        coarse = Code(BINARY, list(factoring) + [BINARY.word("1111111")])
        assert per_word_verdicts(coarse, fine) == [True] * 27 + [False]
        assert not refines(coarse, fine)
        assert batched_levels[0]
        assert refines(factoring, fine)

    def test_word_without_head_ends_whole_verdict(self, batched_levels):
        # the words of C^3 that begin with 11 have no head over {0, 10}
        fine = bcode("0", "10")
        coarse = code_power(bcode("0", "10", "11"), 3)
        headed = [w for w in coarse if not w.text.startswith("11")]
        expected = per_word_verdicts(Code(BINARY, headed), fine)
        factoring = list(itertools.compress(headed, expected))
        assert len(headed) == 18 and len(factoring) == 8
        assert not refines(Code(BINARY, headed), fine)
        assert batched_levels
        batched_levels.clear()
        assert not refines(coarse, fine)
        assert batched_levels == []
        assert refines(Code(BINARY, factoring), fine)
        for extra in itertools.compress(headed, map(operator.not_, expected)):
            assert not refines(Code(BINARY, factoring + [extra]), fine)

    def test_small_set_stops_at_first_failing_word(self, monkeypatch):
        searched = []
        first_factors = refine._first_factors
        monkeypatch.setattr(refine, "_first_factors", lambda t, *args: searched.append(t) or first_factors(t, *args))
        assert not refines(bcode("1", "00", "01"), bcode("0"))
        assert searched == ["\x01"]

    def test_large_failing_refinement(self):
        block4 = code_power(bcode("0", "1"), 4)
        fine = code_power(block4, 2)
        coarse = code_power(fine, 2)
        assert refines(coarse, fine)
        for dropped in (fine.words[0], fine.words[-1]):
            assert not refines(coarse, without(fine, dropped))
        # every word has a head, but 0^8 1^8 leaves the dropped word 1^8
        fine = without(fine, BINARY.word("1" * 8))
        coarse = Code(BINARY, list(code_power(fine, 2)) + [BINARY.word("0" * 8 + "1" * 8)])
        assert not refines(coarse, fine)

    def test_span_sharing_end_tails_but_not_a_middle_one(self, batched_levels):
        # the spans of heads 00, 01 and 10 have equal sizes and equal first
        # and last tails, but one middle tail of the 10 span holds 11 at an
        # even offset, so it does not factor over {00, 01, 10}
        fine = bcode("00", "01", "10")
        m = 1
        while 3 ** (m + 1) < refine._SPAN_MIN:
            m += 1
        tails = [w.text for w in code_power(fine, m)]
        middle = tails[len(tails) // 2]
        assert middle.startswith("01")
        odd = "0111" + middle[4:]
        changed = sorted(set(tails) - {middle} | {odd})
        assert (changed[0], changed[-1], len(changed)) == (tails[0], tails[-1], len(tails))
        texts = [head + t for head in ("00", "01") for t in tails] + ["10" + t for t in changed]
        coarse = Code(BINARY, [BINARY.word(text) for text in texts])
        assert len(coarse) >= refine._SPAN_MIN
        expected = per_word_verdicts(coarse, fine)
        assert expected.count(False) == 1
        assert not refines(coarse, fine)
        assert batched_levels[0]
        assert refines(Code(BINARY, list(itertools.compress(coarse, expected))), fine)

    def test_key_in_spans_of_two_lengths(self, batched_levels):
        # 00 and 0011 are both heads of each word 0011t: the tail 11t after
        # 00 fails, the tail t after 0011 factors
        fine = bcode("00", "01", "10", "0011")
        base = bcode("00", "01", "10")
        k = 3
        while 10 * 3 ** (k - 2) < refine._SPAN_MIN:
            k += 1
        doubled = [BINARY.word("0011" + w.text) for w in code_power(base, k - 2)]
        coarse = Code(BINARY, [*code_power(base, k), *doubled])
        assert len(coarse) >= refine._SPAN_MIN
        assert first_factorization(BINARY.word(doubled[0].text[2:]), fine) is None
        assert refines(coarse, fine) and all(per_word_verdicts(coarse, fine))
        assert batched_levels[0]
        # both tails of 001111t fail
        extra = BINARY.word("0011" + "11" + doubled[0].text[6:])
        assert first_factorization(extra, fine) is None
        assert not refines(Code(BINARY, [*coarse, extra]), fine)

    @pytest.mark.parametrize("size", [300, 0xD801])
    def test_span_ends_on_large_alphabets(self, size, batched_levels):
        # the spans of a head must reach keys that continue with the last
        # symbol, whose index is 299, or 0xD800, a surrogate code point
        alphabet = Alphabet("".join(map(chr, range(0x20000, 0x20000 + size))))
        top = chr(size - 1)
        keys = [top, "\0" + top, "\0\0", "\1" + top, "\1\0"]
        base = Code(alphabet, [key_word(alphabet, t) for t in keys])
        square = code_power(base, 2)
        coarse = code_power(square, 2)
        assert len(coarse) >= refine._SPAN_MIN
        assert refines(coarse, square)
        assert batched_levels[0]
        assert not refines(coarse, without(square, key_word(alphabet, top + top)))
        assert not refines(square, coarse)

    @pytest.mark.parametrize("extra", [(), ("1",), ("00",), ("110",), ("0110",)])
    def test_irredundance_of_large_coarse_code(self, extra):
        fine = bcode("0", "10", "11", *extra)
        coarse = code_power(bcode("0", "10", "11"), 3)
        expected = all(per_word_verdicts(coarse, fine)) and not any(
            all(per_word_verdicts(coarse, without(fine, w))) for w in fine
        )
        assert is_irredundant_refinement(coarse, fine) == expected == (not extra)

    def test_verdict_readers_build_no_witness(self, monkeypatch):
        def no_witnesses(word, code):
            raise AssertionError("a witness was built where only the verdict is read")

        monkeypatch.setattr(refine, "first_factorization", no_witnesses)
        assert power_chain(bcode("00", "01", "10", "11"), 2).descending
        parsed = [
            cli.parse_code_file("alphabet 01\n" + "".join(w.text + "\n" for w in c))
            for c in (bcode("0011"), bcode("00", "11"), bcode("0", "1"))
        ]
        dot = cli.export_hasse(parsed)
        assert '"code0" -> "code1";' in dot and '"code1" -> "code2";' in dot


class TestIsRefinement:
    """The refinement relation: verdicts from ``refines``, one witness per
    coarse word from ``first_factorization``."""

    def test_unit_code_refines_everything(self):
        coarse, fine = bcode("010", "11"), bcode("0", "1")
        assert refines(coarse, fine)
        assert [str(first_factorization(w, fine)) for w in coarse] == ["1·1", "0·1·0"]

    def test_witnessed_split(self):
        assert refines(bcode("0011"), bcode("0", "011"))
        assert str(first_factorization(BINARY.word("0011"), bcode("0", "011"))) == "0·011"

    def test_negative_case(self):
        assert not refines(bcode("0011"), bcode("01", "1"))
        assert first_factorization(BINARY.word("0011"), bcode("01", "1")) is None

    def test_witnesses_are_sound(self):
        fine = bcode("0", "10", "11")
        coarse = bcode("1011", "00")
        assert refines(coarse, fine)
        for word in coarse:
            factorization = first_factorization(word, fine)
            assert factorization.concatenation == word
            assert all(f in fine for f in factorization.factors)

    def test_reflexive_and_transitive_on_corpus(self):
        corpus = list(binary_codes(2, 2))
        for c in corpus:
            assert refines(c, c)
        pairs = {(i, j) for i, c in enumerate(corpus) for j, d in enumerate(corpus) if refines(c, d)}
        for i, j in pairs:
            for k in range(len(corpus)):
                if (j, k) in pairs:
                    assert (i, k) in pairs

    def test_antisymmetric_on_ud_codes(self):
        corpus = [c for c in binary_codes(2, 3) if is_ud(c).is_ud]
        for c in corpus:
            for d in corpus:
                if c != d and refines(c, d) and refines(d, c):
                    pytest.fail(f"UD antisymmetry violated by {c} and {d}")


    def test_mixed_alphabets_rejected(self):
        other = Code(Alphabet("ab"), [Alphabet("ab").word("ab")])
        word = BINARY.word("01")
        for decide, args in (
            (refines, (bcode("01"), other)),
            (refines, (other, bcode("01"))),
            (first_factorization, (word, other)),
        ):
            with pytest.raises(MixedAlphabetsError, match="different alphabets"):
                decide(*args)


class TestIrredundance:
    def test_examples(self):
        assert is_irredundant_refinement(bcode("0011"), bcode("00", "11"))
        assert not is_irredundant_refinement(bcode("0011"), bcode("0", "01", "1"))

    def test_reflexive_for_ud_codes(self):
        for code in binary_codes(2, 3):
            if is_ud(code).is_ud and len(code):
                assert is_irredundant_refinement(code, code)

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(refinement_pairs())
    def test_matches_single_removal_reference(self, pair):
        coarse, fine = pair
        expected = refines_by_tuples(coarse, fine) and not any(
            refines_by_tuples(coarse, without(fine, w)) for w in fine.words
        )
        assert is_irredundant_refinement(coarse, fine) == expected

    def test_single_removal_matches_subset_enumeration(self):
        coarses = [bcode("0011"), bcode("0101"), bcode("00", "11"), bcode("010")]
        fines = [c for c in binary_codes(4, 2)] + [bcode("0", "011"), bcode("00", "11"), bcode("0", "01", "1")]
        for coarse in coarses:
            for fine in fines:
                if len(fine) > 4:
                    continue
                naive = refines_by_tuples(coarse, fine) and not any(
                    s != fine and refines_by_tuples(coarse, s) for s in all_subsets(fine)
                )
                assert is_irredundant_refinement(coarse, fine) == naive


@pytest.mark.parametrize("size", [1, 15, 16, 256])
class TestEmptyCode:
    """The empty code is refined by every code and refines only itself, on
    both sides of the batched search's crossover."""

    @staticmethod
    def nonempty(size):
        return Code(BINARY, code_power(bcode("0", "1"), 8).words[:size])

    def test_refines(self, size):
        code, empty = self.nonempty(size), bcode()
        assert not refines(code, empty)
        assert refines(empty, code)
        assert refines(empty, empty)

    def test_is_refinement(self, size):
        # the refines command names the first coarse word, or gives one
        # witness per coarse word: none for the empty code
        code, empty = cli.CodeFile(None, self.nonempty(size)), cli.CodeFile(None, bcode())
        verdict, _, witnesses, lines = cli._cmd_refines(None, code, empty)
        failing = code.code.words[0].text
        assert (verdict, witnesses(), lines) == (False, {"failing_word": failing}, [f"not a refinement: no factorization of {failing}"])
        verdict, _, witnesses, lines = cli._cmd_refines(None, empty, code)
        assert (verdict, witnesses(), lines) == (True, {}, [])

    def test_is_irredundant_refinement(self, size):
        code, empty = self.nonempty(size), bcode()
        assert not is_irredundant_refinement(code, empty)
        # the empty subset of the fine code already refines the empty code
        assert not is_irredundant_refinement(empty, code)
        assert is_irredundant_refinement(empty, empty)

    def test_first_factorization(self, size):
        code, empty = self.nonempty(size), bcode()
        assert all(first_factorization(w, empty) is None for w in code)
        assert all(first_factorization(w, code).factors == (w,) for w in code)


class TestIrredundantRefinements:
    def test_seven_refinements_of_0011(self):
        refs = irredundant_refinements(bcode("0011"))
        expected = [
            bcode("0", "1"),
            bcode("0", "11"),
            bcode("0", "011"),
            bcode("1", "00"),
            bcode("1", "001"),
            bcode("00", "11"),
            bcode("0011"),
        ]
        assert list(refs) == expected

    def test_single_letter_word(self):
        assert irredundant_refinements(bcode("0")) == (bcode("0"),)

    def test_unit_code(self):
        assert irredundant_refinements(bcode("0", "1")) == (bcode("0", "1"),)

    def test_empty_code(self):
        assert irredundant_refinements(bcode()) == (bcode(),)

    def test_minimal_unions_are_returned_untested(self, monkeypatch):
        def fail(coarse, fine):
            raise AssertionError("a minimal union was re-tested for irredundance")

        monkeypatch.setattr(refine, "is_irredundant_refinement", fail)
        assert len(irredundant_refinements(bcode("0011"))) == 7

    def test_every_result_is_irredundant(self):
        for coarse in (bcode("0011"), bcode("010", "11"), bcode("0", "01", "10")):
            for d in irredundant_refinements(coarse):
                assert is_irredundant_refinement(coarse, d)

    @pytest.mark.parametrize(
        "coarse",
        [
            bcode("0011"),
            bcode("000"),
            bcode("01", "10"),
            bcode("0101"),
            bcode("0", "1"),
            bcode("00", "1"),
            bcode("010", "101"),
            bcode("0", "01", "10"),
        ],
    )
    def test_matches_brute_force_subset_search(self, coarse):
        assert list(irredundant_refinements(coarse)) == brute_force_irredundant(coarse)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            irredundant_refinements(bcode("01010101010101010101010101"), max_candidates=100)

    def test_block_sets_match_bitmask_enumeration(self):
        words = ["".join(t) for n in range(1, 11) for t in itertools.product("\x00\x01", repeat=n)]
        words += ["".join(t) for n in range(1, 7) for t in itertools.product("\x00\x01\x02", repeat=n)]
        for t in words:
            assert refine._composition_block_sets(t, 1 << 10) == composition_block_sets_by_mask(t)

    def test_block_sets_cap_names_compositions(self):
        with pytest.raises(ResourceLimitError) as raised:
            refine._composition_block_sets("\x00\x01" * 4, 100)
        assert str(raised.value) == "word of length 8 has 128 compositions, more than the cap of 100"
        assert (raised.value.limit, raised.value.count) == (100, 128)

    def test_admissible_restricts_to_passing_refinements(self):
        def at_most_two_words(blocks):
            return len(blocks) <= 2

        for coarse in binary_codes(2, 3):
            expected = tuple(d for d in irredundant_refinements(coarse) if at_most_two_words(d))
            assert irredundant_refinements(coarse, admissible=at_most_two_words) == expected

    def test_admissible_tests_each_union_once(self):
        tested = []

        def ud(blocks):
            tested.append(blocks)
            return is_ud(Code(BINARY, (key_word(BINARY, t) for t in blocks))).is_ud

        irredundant_refinements(bcode("0", "10", "110", "111"), admissible=ud)
        assert tested and len(tested) == len(set(tested))


def cover_exponent(coarse, fine):
    """The m that the monotonicity check reports for a UD refining pair."""
    return check_monotonicity(coarse, fine, kmax=1).get("cover_exponent_m")


class TestCoverExponent:
    """The cover exponent m = maxlen(coarse) // minlen(fine)."""

    def test_examples(self):
        assert cover_exponent(bcode("0011"), bcode("0", "011")) == 4
        assert cover_exponent(bcode("0011"), bcode("00", "11")) == 2
        code = bcode("0", "10", "11")
        assert cover_exponent(code, code) == 2

    def test_empty_code_has_no_exponent(self):
        assert cover_exponent(bcode(), bcode("0")) is None
        assert cover_exponent(bcode(), bcode()) is None
        assert check_mcmillan(bcode()).get("cover_exponent_m") is None

    @pytest.mark.parametrize(
        "coarse,fine",
        [
            (bcode("0011"), bcode("0", "011")),
            (bcode("0011"), bcode("00", "11")),
            (bcode("010", "11"), bcode("0", "1")),
            (bcode("1011", "00"), bcode("0", "10", "11")),
        ],
    )
    def test_guarantee_verified_exhaustively(self, coarse, fine):
        assert refines_by_tuples(coarse, fine)
        m = cover_exponent(coarse, fine)
        assert m >= 1
        coarse_words = set(coarse.words)
        covered = set()
        for n in range(1, m + 3):
            power_words = set(code_power(fine, n, max_words=10**6).words)
            hits = coarse_words & power_words
            if n > m:
                assert not hits
            covered |= hits
        assert covered == coarse_words
