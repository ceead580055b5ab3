"""Immutable value types: alphabets, words, codes, factorizations.

All values are immutable after construction and safe to share across
threads.  A word is held as its *key*, the string whose i-th code point is
the index of its i-th symbol (``tuple(map(ord, key))`` gives the indices
back); keys compare in the order of their index sequences.  The public
:class:`Word` constructor takes int indices and :meth:`Alphabet.word`
text; only the library builds a word from a key, through the unchecked
``Word._from_key``.  A code is held as ``Code.indices``, the sorted tuple
of its words' keys; everything that only needs the symbols (Kraft sums,
refinement and UD verdicts, powers, membership, printing) reads that.  A
code holds no :class:`Word`: ``Code.words``, iteration and factorizations
build theirs from keys when asked.  One per-code value is a cache, the key
index (:meth:`Code.factor_index`), built on first use.  Two threads racing
to build it both compute and store equal values, so the race is harmless.
The canonical order used everywhere (code iteration, enumeration output,
witness reporting) is shortlex: first by length, then lexicographically by
symbol index.

Kraft values are exact rationals: the stdlib :class:`fractions.Fraction`,
which keeps numerator/denominator in lowest terms with arbitrary-precision
integers.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .errors import EmptyCodeError, EmptyWordError, MixedAlphabetsError, UnknownSymbolError

Key = str  # a word's key: code point i is the index of symbol i


class _KeyTable(dict):
    """A :meth:`str.translate` table from symbols to key characters."""

    def __missing__(self, point: int):
        raise UnknownSymbolError(chr(point))


@dataclass(frozen=True, slots=True)
class Alphabet:
    """An ordered sequence of distinct single-character symbols.

    Symbols are single characters in text form; words store symbol
    *indices* as the code points of their keys, so alphabets of any
    practical size work.  ``key.translate(symbols)`` prints a key, and one
    translate through the alphabet's own table maps text to a key.
    """

    symbols: str
    _keys: _KeyTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        keys = _KeyTable(zip(map(ord, self.symbols), map(chr, range(len(self.symbols)))))
        if len(keys) != len(self.symbols):
            raise ValueError(f"duplicate alphabet symbol in {self.symbols!r}")
        object.__setattr__(self, "_keys", keys)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def word(self, text: str) -> "Word":
        """Parse ``text`` into a :class:`Word` over this alphabet.

        Raises :class:`EmptyWordError` on empty input and
        :class:`UnknownSymbolError` on a character outside the alphabet.
        """
        if text == "":
            raise EmptyWordError("cannot parse the empty string as a word")
        return Word._from_key(self, text.translate(self._keys))

    def __repr__(self) -> str:
        return f"Alphabet({self.symbols!r})"


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class Word:
    """A nonempty sequence of symbol indices over one alphabet, held as its
    key; the constructor takes a sequence of ints, :meth:`Alphabet.word` text."""

    alphabet: Alphabet
    indices: Key

    def __post_init__(self):
        ints, r = self.indices, self.alphabet.size
        if isinstance(ints, (str, bytes, bytearray)):
            raise TypeError(f"Word takes int symbol indices, not {type(ints).__name__}; parse text with Alphabet.word")
        ints = tuple(ints)  # the checks below read it more than once
        if not ints:
            raise EmptyWordError("the null string is not a word")
        if min(ints) < 0 or max(ints) >= r:
            bad = next(i for i in ints if not 0 <= i < r)
            raise ValueError(f"symbol index {bad} out of range for alphabet of size {r}")
        object.__setattr__(self, "indices", "".join(map(chr, ints)))

    @classmethod
    def _from_key(cls, alphabet: Alphabet, key: Key) -> "Word":
        # a nonempty key of in-range indices by construction: no checks
        word = object.__new__(cls)
        object.__setattr__(word, "alphabet", alphabet)
        object.__setattr__(word, "indices", key)
        return word

    def __hash__(self) -> int:
        # equal words have equal indices, so this agrees with __eq__
        return hash(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def sort_key(self) -> tuple[int, Key]:
        """Shortlex key: (length, key)."""
        return (len(self.indices), self.indices)

    @property
    def text(self) -> str:
        return self.indices.translate(self.alphabet.symbols)

    def __lt__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise MixedAlphabetsError("cannot order words over different alphabets")
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


def concat(words: Sequence[Word]) -> Word:
    """Concatenate a nonempty sequence of words into a single word."""
    if not words:
        raise EmptyWordError("cannot concatenate an empty sequence of words")
    alphabet = words[0].alphabet
    for w in words:
        if w.alphabet is not alphabet and w.alphabet != alphabet:
            raise MixedAlphabetsError("cannot concatenate words over different alphabets")
    return Word._from_key(alphabet, "".join([w.indices for w in words]))


def _shortlex(indices: Key) -> tuple[int, Key]:
    return (len(indices), indices)


class Code:
    """A finite set of nonempty words over one alphabet.

    The code's one form is ``indices``: the shortlex-sorted tuple of its
    words' keys.  Its one other structure is the key index of
    :meth:`factor_index`, built on first read.  ``words`` and iteration
    build :class:`Word` objects from the keys each time they are read, so
    they are equal to the words a code was built from, not the same
    objects.  Input that is already sorted, or nearly so, sorts in about
    linear time.  The empty code is permitted (Kraft sum 0, vacuously
    uniquely decipherable, refined by every code).
    """

    # ``_factor_index`` stays unset until first read
    __slots__ = ("alphabet", "indices", "_factor_index")

    alphabet: Alphabet
    indices: tuple[Key, ...]

    def __init__(self, alphabet: Alphabet, words: Iterable[Word] = ()):
        keys = []
        for w in words:
            if not isinstance(w, Word):
                raise TypeError(f"expected Word, got {type(w).__name__}")
            if w.alphabet is not alphabet and w.alphabet != alphabet:
                raise MixedAlphabetsError(
                    f"word {w.text!r} is over alphabet {w.alphabet.symbols!r}, "
                    f"not {alphabet.symbols!r}"
                )
            keys.append(w.indices)
        self._fill(alphabet, keys)

    @classmethod
    def _from_indices(cls, alphabet: Alphabet, keys: Iterable[Key]) -> "Code":
        """A code of keys, in any order, of validated words over
        ``alphabet`` (words read from a file, or slices of code words);
        repeated keys collapse."""
        code = object.__new__(cls)
        code._fill(alphabet, keys)
        return code

    @classmethod
    def _from_shortlex(cls, alphabet: Alphabet, indices: tuple[Key, ...]) -> "Code":
        """A code whose ``indices`` are given as is: keys of validated words
        over ``alphabet``, already distinct and in shortlex order.  Neither
        is checked; a caller that cannot promise both uses
        :meth:`_from_indices`."""
        code = object.__new__(cls)
        object.__setattr__(code, "alphabet", alphabet)
        object.__setattr__(code, "indices", indices)
        return code

    def _fill(self, alphabet: Alphabet, keys: Iterable[Key]) -> None:
        # shortlex by two C-level sorts: lexicographic, then stable by length
        indices = sorted(dict.fromkeys(keys))
        indices.sort(key=len)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "indices", tuple(indices))

    def __setattr__(self, name, value):
        raise AttributeError("Code is immutable")

    @property
    def words(self) -> tuple[Word, ...]:
        """The words, in shortlex order, built from ``indices``."""
        return tuple(self)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[Word]:
        return map(Word._from_key, repeat(self.alphabet), self.indices)

    def __contains__(self, word: object) -> bool:
        # a binary search of ``indices``, so no Word objects are built
        if not isinstance(word, Word):
            return False
        if word.alphabet is not self.alphabet and word.alphabet != self.alphabet:
            return False
        indices, t = self.indices, word.indices
        i = bisect_left(indices, (len(t), t), key=_shortlex)
        return i < len(indices) and indices[i] == t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.alphabet == other.alphabet and self.indices == other.indices

    def __hash__(self) -> int:
        # computed when asked: no library path hashes a code
        return hash((self.alphabet, self.indices))

    @property
    def sort_key(self):
        """Canonical key for ordering codes: the tuple of word keys."""
        return tuple(map(_shortlex, self.indices))

    def max_len(self) -> int:
        if not self.indices:
            raise EmptyCodeError("empty code has no maximum word length")
        return len(self.indices[-1])

    def min_len(self) -> int:
        if not self.indices:
            raise EmptyCodeError("empty code has no minimum word length")
        return len(self.indices[0])

    def factor_index(self) -> tuple[frozenset[Key], tuple[int, ...]]:
        """The set of the code's keys and its distinct word lengths,
        ascending.

        Kept for the life of the code, so factoring many words over one
        code reads one index; it is built on first request.
        """
        try:
            return self._factor_index
        except AttributeError:
            # ``indices`` is shortlex-sorted, so its distinct lengths come in order
            index = frozenset(self.indices), tuple(dict.fromkeys(map(len, self.indices)))
            object.__setattr__(self, "_factor_index", index)
            return index

    def __str__(self) -> str:
        return "{" + ", ".join(t.translate(self.alphabet.symbols) for t in self.indices) + "}"

    def __repr__(self) -> str:
        return f"Code({self.alphabet.symbols!r}, {self})"


def unit_code(alphabet: Alphabet) -> Code:
    """The full one-symbol code: every symbol of ``alphabet`` as a word."""
    return Code._from_shortlex(alphabet, tuple(map(chr, range(alphabet.size))))


@dataclass(frozen=True, slots=True)
class Factorization:
    """A nonempty sequence of words together with their concatenation.

    Producers guarantee that every factor belongs to the code the
    factorization was computed against.
    """

    factors: tuple[Word, ...]

    def __post_init__(self):
        if not self.factors:
            raise EmptyWordError("a factorization needs at least one factor")
        alphabet = self.factors[0].alphabet
        for w in self.factors:
            if w.alphabet is not alphabet and w.alphabet != alphabet:
                raise MixedAlphabetsError("factorization mixes alphabets")

    @property
    def concatenation(self) -> Word:
        return concat(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def sort_key(self):
        return tuple(w.sort_key for w in self.factors)

    @property
    def composition(self) -> tuple[int, ...]:
        """The factor lengths, left to right."""
        return tuple(len(w) for w in self.factors)

    def __str__(self) -> str:
        return "·".join(w.text for w in self.factors)

    def __repr__(self) -> str:
        return f"Factorization({self})"
