"""Code powers and descending power chains.

The k-th power of a code is the set of concatenations of k code words.
Power chains track C, C^2, C^4, ... together with their exact Kraft
values; each member refines its successor, and whether all Kraft values
coincide is computed, not assumed (they coincide exactly when K(C) = 1).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from operator import eq
from typing import Sequence

from .core import Code, Key
from .errors import EmptyCodeError, ResourceLimitError
from .kraft import kraft_sum
from .refine import refines

DEFAULT_MAX_POWER_WORDS = 100_000


# The crossover: a power of fewer than _CLASS_MIN * span^2 words, where span
# is the number of lengths from the code's shortest word to its longest, is
# sorted whole, since the product of length classes pays per pair of classes.
# Over about 1,600 (code, k) pairs per seed, two seeds, of random binary and
# ternary codes of 2 to 16 words of length up to 5 and k = 2, 3, 4, this rule
# took 1.005-1.006 times the summed time of the faster build per power; 16
# and 64 took 1.016-1.018 and 1.029-1.032, all-classes 1.07 and all-sorting
# 1.43-1.47.
_CLASS_MIN = 32

# a code's keys by length, shortest first: (length, keys of that length)
Classes = list[tuple[int, Sequence[Key]]]


def _concat(a: Sequence[Key], b: Sequence[Key]) -> list[Key]:
    # product order: sorted factors give nearly sorted concatenations, which
    # Code._from_indices sorts in about linear time; it drops repeats by
    # hashing, so a list for C^k holds |code|^k keys, the count the cap bounds
    return [s + t for s in a for t in b]


def _classes(keys: Sequence[Key]) -> Classes:
    # shortlex-sorted keys hold each length's keys in one run, shortest first
    classes: Classes = []
    start = 0
    while start < len(keys):
        length = len(keys[start])
        end = bisect_right(keys, length, lo=start, key=len)
        classes.append((length, keys[start:end]))
        start = end
    return classes


def _product(a: Classes, b: Classes) -> Classes:
    # a length of a by one of b gives a block of concatenations that is
    # lexicographically sorted and holds no repeats, since its factors have
    # fixed lengths; an output length fed by one block needs no sort
    tails_of = dict(b)
    product: Classes = []
    for length in range(a[0][0] + b[0][0], a[-1][0] + b[-1][0] + 1):
        pairs = [(heads, tails_of[length - m]) for m, heads in a if length - m in tails_of]
        if not pairs:
            continue
        keys = [s + t for heads, tails in pairs for s in heads for t in tails]
        if len(pairs) > 1:
            # timsort merges the sorted blocks; only a code that is not UD
            # repeats a concatenation, so only such a code pays to drop repeats
            keys.sort()
            if any(map(eq, keys, islice(keys, 1, None))):
                keys = list(dict.fromkeys(keys))
        product.append((length, keys))
    return product


def _power(base, k: int, multiply):
    # binary exponentiation; C^i C^j = C^(i+j) as sets
    result = None
    while k:
        if k & 1:
            result = base if result is None else multiply(result, base)
        k >>= 1
        if k:
            base = multiply(base, base)
    assert result is not None
    return result


def code_power(code: Code, k: int, max_words: int = DEFAULT_MAX_POWER_WORDS) -> Code:
    """The code of all concatenations of k code words, deduplicated.

    For a UD code the cardinality is exactly ``len(code) ** k``; any
    shortfall comes from colliding concatenations.  The power is built by
    binary exponentiation over the code's length classes: concatenations
    of one length of each factor come sorted and distinct, and repeats are
    dropped where the blocks of one output length merge, after each
    product.  Below a measured crossover the |code|^k concatenations are
    instead sorted whole and deduplicated by hashing when the code is built.
    """
    if k == 1:
        # C^1 is the code itself: nothing is built, so nothing is capped
        return code
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    count = len(code) ** k
    if count > max_words:
        raise ResourceLimitError(
            f"|code|^k = {count} exceeds the cap of {max_words}", limit=max_words, count=count
        )
    keys = code.indices
    if not keys:
        return code
    span = len(keys[-1]) - len(keys[0]) + 1
    if count < _CLASS_MIN * span * span:
        return Code._from_indices(code.alphabet, _power(keys, k, _concat))
    classes = _power(_classes(keys), k, _product)
    runs = classes[0][1] if len(classes) == 1 else chain.from_iterable(run for _, run in classes)
    return Code._from_shortlex(code.alphabet, tuple(runs))


@dataclass(frozen=True, slots=True)
class PowerChain:
    """The chain C, C^2, C^4, ..., C^(2^n) with exact Kraft values.

    ``descending`` records that every member strictly refines its
    successor (the chain descends in the refinement order);
    ``equal_kraft`` records whether all Kraft values coincide exactly.
    """

    members: tuple[Code, ...]
    kraft_values: tuple[Fraction, ...]
    descending: bool
    equal_kraft: bool


def power_chain(code: Code, n: int, max_words: int = DEFAULT_MAX_POWER_WORDS) -> PowerChain:
    """Build the chain [C, C^2, ..., C^(2^n)] by repeated squaring.

    Descent is computed, not assumed: :func:`refines` decides whether all
    words of each member factor over its predecessor, keeping no witnesses.
    It decides a member's words together, by the distinct remainders their
    first factors leave, so C^4 over C^2 searches each remainder, a word of
    C^2, once rather than each word of C^4.
    """
    if len(code) == 0:
        raise EmptyCodeError("power chains need a nonempty base code")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    members = [code]
    for _ in range(n):
        members.append(code_power(members[-1], 2, max_words))
    kraft_values = tuple(kraft_sum(m) for m in members)
    descending = all(
        previous != following and refines(following, previous)
        for previous, following in zip(members, members[1:])
    )
    equal_kraft = len(set(kraft_values)) == 1
    return PowerChain(tuple(members), kraft_values, descending, equal_kraft)
