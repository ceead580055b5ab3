"""Unique-decipherability decisions and the bounded exhaustive oracle."""

import pytest

from codekraft import Alphabet, CertificateError, Code, ResourceLimitError, code_power, is_ud
from codekraft.decipher import _reconstruct

from helpers import bcode, binary_codes, brute_force_bound, is_ud_bruteforce, random_prefix_codes, splitter


def assert_valid_witness(code, verdict):
    """A witness must be two distinct code-word sequences with equal concatenation."""
    left, right = verdict.witness
    assert left.factors != right.factors
    assert left.concatenation == right.concatenation
    for side in (left, right):
        for factor in side.factors:
            assert factor in code


class TestIsUd:
    def test_prefix_code_is_ud(self):
        assert is_ud(bcode("0", "10", "11")).is_ud

    def test_ambiguous_code_witness(self):
        verdict = is_ud(bcode("0", "01", "10"))
        assert not verdict.is_ud
        left, right = verdict.witness
        assert str(left) == "0·10" and str(right) == "01·0"
        assert left.concatenation.text == "010"
        assert_valid_witness(bcode("0", "01", "10"), verdict)

    def test_singleton_is_ud(self):
        assert is_ud(bcode("0110")).is_ud

    def test_empty_is_ud(self):
        assert is_ud(bcode()).is_ud

    def test_doubling_collision(self):
        verdict = is_ud(bcode("0", "00"))
        assert not verdict.is_ud
        left, right = verdict.witness
        assert left.concatenation.text == "00"
        assert (str(left), str(right)) == ("0·0", "00")

    def test_state_guard(self):
        with pytest.raises(ResourceLimitError):
            is_ud(bcode("0", "01", "10"), max_states=0)

    def test_witness_factors_are_the_codes_words(self):
        # one code built from words, one whose words are built on first read
        for code in (bcode("0", "01", "10"), code_power(bcode("0", "01", "10"), 2)):
            left, right = is_ud(code).witness
            assert all(f in code for f in left.factors + right.factors)
            assert left.concatenation == right.concatenation

    def test_corrupted_parent_map_raises_certificate_error(self):
        code = bcode("0", "01", "11")
        # true record for suffix 1 is ("init", 0, 01); 11 leaves no suffix 1 behind 0
        parents = {(1,): ("init", (0,), (1, 1))}
        with pytest.raises(CertificateError) as exc:
            _reconstruct(code, parents, (1,))
        assert not isinstance(exc.value, ValueError)

    def test_subset_closure_on_corpus(self):
        import itertools

        for code in binary_codes(3, 2):
            if is_ud(code).is_ud:
                for size in range(len(code)):
                    for combo in itertools.combinations(code.words, size):
                        assert is_ud(bcode(*[w.text for w in combo])).is_ud

    def test_generated_prefix_codes_are_ud(self):
        for code in random_prefix_codes(60):
            assert is_ud(code).is_ud


class TestBruteForce:
    def test_collision_at_bound_three(self):
        verdict = is_ud_bruteforce(bcode("0", "01", "10"), 3)
        assert not verdict.is_ud
        assert verdict.witness[0].concatenation.text == "010"
        assert_valid_witness(bcode("0", "01", "10"), verdict)

    def test_witness_factors_are_the_codes_words(self):
        code = bcode("0", "01", "10")
        left, right = is_ud_bruteforce(code, 3).witness
        assert all(f in code for f in left.factors + right.factors)
        assert left.concatenation == right.concatenation

    def test_singleton_never_collides(self):
        for bound in (1, 5, 30):
            assert is_ud_bruteforce(bcode("0"), bound).is_ud

    def test_prefix_code_clean_to_bound_eight(self):
        assert is_ud_bruteforce(bcode("0", "10", "11"), 8).is_ud

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            is_ud_bruteforce(bcode("0"), 0)

    def test_collision_below_bound_is_found(self):
        # collision word has length 2, well under the bound
        verdict = is_ud_bruteforce(bcode("0", "00"), 10)
        assert not verdict.is_ud
        assert verdict.witness[0].concatenation.text == "00"

    def test_minimal_collision_word_reported(self):
        # {01, 011, 1} collides first on 011: 011 = 01·1
        verdict = is_ud_bruteforce(bcode("01", "011", "1"), 12)
        assert not verdict.is_ud
        assert verdict.witness[0].concatenation.text == "011"

    def test_witness_is_the_two_least_compositions(self):
        # abc = a·bc = ab·c: shortlex order over factorizations puts abc first
        alphabet = Alphabet("abc")
        code = Code(alphabet, [alphabet.word(t) for t in ("a", "ab", "bc", "c", "abc")])
        left, right = is_ud_bruteforce(code, 6).witness
        assert (str(left), str(right)) == ("a·bc", "ab·c")


class TestOracleAgreement:
    def test_agreement_on_small_corpus(self):
        for code in binary_codes(2, 3):
            bound = brute_force_bound(code)
            fast = is_ud(code)
            slow = is_ud_bruteforce(code, bound)
            assert fast.is_ud == slow.is_ud
            if not fast.is_ud:
                assert_valid_witness(code, fast)
                assert_valid_witness(code, slow)

    def test_witness_agrees_with_splitter(self):
        # every reported collision word really has two factorizations
        for code in binary_codes(2, 3):
            verdict = is_ud(code)
            if not verdict.is_ud:
                word = verdict.witness[0].concatenation
                assert len(splitter(word, code)) >= 2
