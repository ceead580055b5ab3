"""Value-type behavior: parsing, ordering, validation, exact arithmetic."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import codekraft
from codekraft import (
    Alphabet,
    Code,
    EmptyWordError,
    Factorization,
    MixedAlphabetsError,
    UnknownSymbolError,
    Word,
    concat,
)
from codekraft.core import unit_code

from helpers import BINARY, bcode, binary_codes, binary_words_up_to, without

SMALL_CODES = list(binary_codes(4, 3))


class TestAlphabet:
    def test_size_and_index_bijection(self):
        a = Alphabet("abc")
        assert a.size == 3
        assert [a.word(ch).indices for ch in "abc"] == ["\x00", "\x01", "\x02"]
        assert [Word(a, (i,)).text for i in range(3)] == ["a", "b", "c"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet("")

    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            Alphabet("011")

    def test_large_alphabet(self):
        a = Alphabet("0123456789abcdefghijklmnopqrstuvwxyz")
        assert a.size == 36
        assert a.word("z").indices == chr(35)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            Alphabet("01").word("2")


class TestParseWord:
    def test_single_symbol(self):
        w = BINARY.word("0")
        assert w.indices == "\x00" and len(w) == 1

    def test_transliteration(self):
        w = BINARY.word("010")
        assert w.indices == "\x00\x01\x00" and len(w) == 3
        assert tuple(map(ord, w.indices)) == (0, 1, 0)

    def test_symbol_outside_alphabet(self):
        with pytest.raises(UnknownSymbolError):
            BINARY.word("012")

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            BINARY.word("")

    @given(st.text(alphabet="01", min_size=1, max_size=40))
    def test_round_trip(self, text):
        assert BINARY.word(text).text == text

    @given(st.text(alphabet="ab", min_size=1, max_size=20))
    def test_round_trip_other_alphabet(self, text):
        a = Alphabet("ba")
        assert a.word(text).text == text


class TestWord:
    def test_indices_validated(self):
        # int indices are validated, then held as a key
        assert Word(BINARY, (0, 1)).indices == "\x00\x01"
        with pytest.raises(ValueError, match="symbol index 2 out of range"):
            Word(BINARY, (0, 2))
        with pytest.raises(ValueError, match="symbol index 5 out of range"):
            Word(BINARY, (0, 5, -1))
        with pytest.raises(ValueError, match="symbol index -1 out of range"):
            Word(BINARY, (0, -1))

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            Word(BINARY, ())
        with pytest.raises(TypeError):
            Word(BINARY, "")

    def test_text_and_bytes_rejected(self):
        # over 60 symbols the code points of "01" are valid indices (48, 49),
        # so text read as a key would silently build another word
        alphabet = Alphabet("".join(map(chr, range(0x30, 0x30 + 60))))
        for text in ("01", b"01"):
            with pytest.raises(TypeError, match="Alphabet.word"):
                Word(alphabet, text)
        assert alphabet.word("01") == Word(alphabet, (0, 1))

    def test_one_shot_iterables(self):
        # the index checks read the input more than once
        assert Word(BINARY, (i for i in (0, 1))) == Word(BINARY, iter([0, 1])) == BINARY.word("01")
        with pytest.raises(EmptyWordError):
            Word(BINARY, iter(()))
        with pytest.raises(ValueError, match="symbol index 2 out of range"):
            Word(BINARY, (i for i in (0, 2)))

    def test_shortlex_uses_symbol_index_not_codepoint(self):
        # in alphabet "ba", 'b' has index 0 and sorts before 'a'
        a = Alphabet("ba")
        assert a.word("b") < a.word("a")

    def test_shortlex_is_total(self):
        words = binary_words_up_to(3)
        for u in words:
            for v in words:
                if u == v:
                    assert not u < v and not v < u
                else:
                    assert (u < v) != (v < u)

    def test_cross_alphabet_order_rejected(self):
        with pytest.raises(MixedAlphabetsError):
            BINARY.word("0") < Alphabet("ab").word("a")

    def test_concat_function(self):
        ws = [BINARY.word(t) for t in ("0", "10", "11")]
        assert concat(ws) == BINARY.word("01011")
        with pytest.raises(EmptyWordError):
            concat([])


class TestCode:
    def test_deduplication(self):
        c = Code(BINARY, [BINARY.word("0"), BINARY.word("10"), BINARY.word("10")])
        assert len(c) == 2
        assert [w.text for w in c] == ["0", "10"]

    def test_empty_code(self):
        c = Code(BINARY, [])
        assert len(c) == 0
        assert list(c) == []

    @seed(20261018)
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(binary_words_up_to(3)), max_size=12), st.randoms(use_true_random=False))
    def test_input_order_and_duplicates(self, texts, rng):
        words = list(texts)
        rng.shuffle(words)
        # an equal alphabet that is a different object is accepted
        code = Code(Alphabet("01"), words)
        assert code.words == tuple(sorted(set(words), key=lambda w: w.sort_key))

    @seed(20261018)
    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_from_indices_matches_constructor(self, shuffle_seed):
        # every code, its keys shuffled and some repeated
        rng = random.Random(shuffle_seed)
        absent = BINARY.word("1111")
        for code in SMALL_CODES:
            tuples = [w.indices for w in code.words]
            tuples += rng.choices(tuples, k=rng.randrange(3)) if tuples else []
            rng.shuffle(tuples)
            built = Code._from_indices(BINARY, tuples)
            assert built == code and code == built
            assert hash(built) == hash(code)
            assert built.indices == code.indices
            assert built.sort_key == code.sort_key
            if len(code):
                assert (built.max_len(), built.min_len()) == (code.max_len(), code.min_len())
            assert all(w in built for w in code.words) and absent not in built
            # nothing above needed the Word objects
            assert not hasattr(built, "_factor_index")
            assert built.words == code.words
            assert list(built) == list(code)

    def test_membership_reads_indices_only(self):
        probes = [*binary_words_up_to(4), Alphabet("ab").word("a"), "0"]
        for code in SMALL_CODES:
            members = set(code.indices)
            built = Code._from_indices(BINARY, code.indices)
            for probe in probes:
                expected = isinstance(probe, Word) and probe.alphabet == BINARY and probe.indices in members
                assert (probe in code) == expected
                assert (probe in built) == expected
            assert not hasattr(built, "_factor_index")

    def test_words_read_back_in_shortlex_order(self):
        # words are built from the keys on each read, equal every time
        for code in (bcode("11", "0", "10"), Code._from_indices(BINARY, ["\x01\x01", "\x00", "\x01\x00"])):
            assert [w.text for w in code.words] == ["0", "10", "11"]
            assert code.words == code.words == tuple(code)
            assert [w.indices for w in code] == list(code.indices)

    def test_unit_code(self):
        unit = unit_code(Alphabet("ba1"))
        assert unit.indices == ("\x00", "\x01", "\x02")
        assert [w.text for w in unit] == ["b", "a", "1"]
        assert unit == Code(unit.alphabet, map(unit.alphabet.word, "1ab"))

    def test_shortlex_iteration(self):
        c = bcode("11", "0")
        assert [w.text for w in c] == ["0", "11"]

    def test_idempotent(self):
        c = bcode("0", "10", "11")
        assert Code(BINARY, c.words) == c

    def test_contains_and_without(self):
        c = bcode("0", "10")
        assert BINARY.word("10") in c
        assert BINARY.word("11") not in c
        assert without(c, BINARY.word("10")) == bcode("0")

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(MixedAlphabetsError):
            Code(BINARY, [Alphabet("ab").word("a")])

    def test_immutable(self):
        c = bcode("0")
        with pytest.raises(AttributeError):
            c.words = ()

    def test_hashable_and_ordered_key(self):
        assert len({bcode("0", "1"), bcode("0", "1"), bcode("0")}) == 2
        assert bcode("0", "1").sort_key < bcode("0", "11").sort_key

    def test_str(self):
        assert str(bcode("11", "0")) == "{0, 11}"
        assert str(bcode()) == "{}"


class TestKraftValueArithmetic:
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
    )
    def test_addition_is_exact(self, a, b, c, d):
        g = math.gcd(a * d + c * b, b * d)
        assert Fraction(a, b) + Fraction(c, d) == Fraction((a * d + c * b) // g, (b * d) // g)

    @given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6))
    def test_equality_is_reduced_form_equality(self, x, y):
        assert (x == y) == (x.numerator == y.numerator and x.denominator == y.denominator)


class TestFactorization:
    def test_concatenation_matches_factors(self):
        f = Factorization((BINARY.word("0"), BINARY.word("10")))
        assert f.concatenation == BINARY.word("010")
        assert len(f.concatenation) == sum(len(w) for w in f.factors)
        assert f.composition == (1, 2)

    def test_nonempty_required(self):
        with pytest.raises(EmptyWordError):
            Factorization(())

    def test_rendering(self):
        f = Factorization((BINARY.word("01"), BINARY.word("0")))
        assert str(f) == "01·0"


class TestPublicApi:
    # one name per job: a name is added or removed here on purpose only
    NAMES = [
        "Alphabet", "CertificateError", "ChainViolationError", "Code", "CodeError", "CodeFile",
        "CodeFileError", "EmptyCodeError", "EmptyWordError", "Factorization", "MissingAlphabetError",
        "MixedAlphabetsError", "NotRefinementError", "PowerChain", "PropositionId", "PropositionReport",
        "ResourceLimitError", "UdVerdict", "UnknownSymbolError", "Word",
        "approx_str", "check_chain", "check_equal_kraft_finiteness", "check_mcmillan",
        "check_monotonicity", "check_power_law", "code_power", "concat",
        "emit_code_file", "equal_kraft_refinements", "exact_str", "export_hasse",
        "first_factorization", "irredundant_refinements", "is_irredundant_refinement",
        "is_ud", "kraft_sum", "parse_code_file", "power_chain", "refines",
        "run_command", "verify",
    ]

    def test_surface_is_pinned(self):
        assert sorted(codekraft.__all__) == self.NAMES

    def test_every_name_resolves(self):
        assert [name for name in codekraft.__all__ if not hasattr(codekraft, name)] == []


class TestModuleGraph:
    def test_decipher_imports_only_core_and_errors(self):
        # Sardinas-Patterson needs no factorization search: decipher sits
        # below refine, and the brute-force UD oracle lives in the tests
        tree = ast.parse(Path(codekraft.decipher.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert {name for name in imported if name.startswith((".", "codekraft"))} == {".core", ".errors"}
