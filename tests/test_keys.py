"""The key form of words: a string whose i-th code point is the index of
the i-th symbol.  Keys of large alphabets hold the code points of line
breaks, whitespace and surrogates; every answer must match the oracles over
plain int-index tuples in ``helpers``."""

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from codekraft import (
    Alphabet,
    Code,
    Word,
    code_power,
    emit_code_file,
    is_ud,
    parse_code_file,
    refines,
)

from helpers import factors_by_tuples, index_tuples, power_by_tuples, shortlex_tuples, ud_by_tuples

# the indices whose code points are line breaks or whitespace, which a key
# must carry as plain data
SPACE_INDICES = (9, 10, 11, 12, 13, 28, 29, 30, 32, 133)
POOL = "".join(ch for ch in map(chr, range(0x21, 0x800)) if not ch.isspace() and ch != "#")


@st.composite
def alphabets_and_words(draw):
    """An alphabet of 1 to 300 symbols and two lists of int-index words.

    The words of one case use a palette of a few indices, leaning on the
    whitespace indices and, over more than 256 symbols, on one index above
    255, so that words share prefixes and the verdicts go both ways."""
    size = draw(st.integers(min_value=1, max_value=300) | st.integers(min_value=257, max_value=300))
    symbols = "".join(draw(st.permutations(POOL[:size])))
    preferred = [i for i in (0, 1, *SPACE_INDICES, 255) if i < size]
    index = st.one_of(st.sampled_from(preferred), st.integers(min_value=0, max_value=size - 1))
    palette = draw(st.lists(index, min_size=1, max_size=3, unique=True))
    if size > 256 and draw(st.booleans()):
        palette.append(draw(st.integers(min_value=256, max_value=size - 1)))
    word = st.lists(st.sampled_from(palette), min_size=1, max_size=4).map(tuple)
    return symbols, draw(st.lists(word, min_size=1, max_size=5)), draw(st.lists(word, min_size=1, max_size=5))


def text_of(symbols: str, tuples) -> str:
    return f"alphabet {symbols}\n" + "".join("".join(map(symbols.__getitem__, t)) + "\n" for t in tuples)


def check_against_oracles(symbols: str, coarse_tuples, fine_tuples) -> None:
    text = text_of(symbols, coarse_tuples)
    coarse = parse_code_file(text).code
    fine = parse_code_file(text_of(symbols, fine_tuples)).code
    # the keys sort as the shortlex order of the tuples
    assert index_tuples(coarse) == shortlex_tuples(coarse_tuples)
    assert index_tuples(fine) == shortlex_tuples(fine_tuples)
    # parse -> emit -> parse of the UTF-8 file is byte-identical
    emitted = emit_code_file(coarse)
    again = parse_code_file(emitted.encode("utf-8")).code
    assert again == coarse and emit_code_file(again) == emitted
    assert emitted.splitlines()[1:] == [w.text for w in coarse]
    # the verdicts and the power agree with the tuple oracles
    assert is_ud(coarse).is_ud == ud_by_tuples(coarse_tuples)
    fine_set = set(fine_tuples)
    expected = all(factors_by_tuples(t, fine_set) for t in coarse_tuples)
    assert refines(coarse, fine) == expected
    for k in (2, 3):
        assert index_tuples(code_power(coarse, k)) == power_by_tuples(coarse_tuples, k)


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(alphabets_and_words())
@example((POOL[:300], [SPACE_INDICES, (256, 10), (299,), (10, 256)], [(10,), (256,), (299,), SPACE_INDICES]))
@example((POOL[:134], [(133, 13), (13,), (133,), (13, 133, 13)], [(13,), (133,)]))
def test_keys_agree_with_tuple_oracles(case):
    symbols, coarse_tuples, fine_tuples = case
    check_against_oracles(symbols, coarse_tuples, fine_tuples)


def test_surrogate_indices():
    # symbols past the surrogate block, so that index 0xD800 exists and the
    # alphabet line still encodes as UTF-8
    symbols = "".join(
        ch for ch in map(chr, range(0x21, 0x10000)) if not ch.isspace() and ch != "#" and not 0xD800 <= ord(ch) < 0xE000
    )[: 0xD802]
    coarse = [(0xD800,), (0xD800, 0xD801), (0xD801, 0xD800), (10, 0xD7FF), (0xD7FF, 0xD800, 10)]
    fine = [(0xD800,), (0xD801,), (10,), (0xD7FF,)]
    check_against_oracles(symbols, coarse, fine)
    alphabet = Alphabet(symbols)
    word = Word(alphabet, (0xD800, 10))
    assert word.indices == "\ud800\n"
    assert word.text == symbols[0xD800] + symbols[10]
    assert alphabet.word(word.text) == word
    with pytest.raises(ValueError, match=f"symbol index {0xD802} out of range"):
        Word(alphabet, (0xD802,))


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(alphabets_and_words())
@example((POOL[:300], [(0,), SPACE_INDICES, (299, 256, 255)], [(10,)]))
def test_int_and_key_constructors_agree(case):
    # the public int form and Alphabet.word, which builds its word from the
    # key, give equal words with the same key
    symbols, coarse_tuples, fine_tuples = case
    alphabet = Alphabet(symbols)
    for t in coarse_tuples + fine_tuples:
        by_ints = Word(alphabet, t)
        assert by_ints == alphabet.word("".join(map(symbols.__getitem__, t)))
        assert by_ints.indices == "".join(map(chr, t))
    if len(symbols) > 10:
        assert Code(alphabet, [Word(alphabet, (10,)), alphabet.word(symbols[10])]).indices == ("\n",)
