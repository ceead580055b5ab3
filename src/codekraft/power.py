"""Code powers and descending power chains.

The k-th power of a code is the set of concatenations of k code words.
Power chains track C, C^2, C^4, ... together with their exact Kraft
values; each member refines its successor, and whether all Kraft values
coincide is computed, not assumed (they coincide exactly when K(C) = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import eq
from typing import Sequence

from .core import Code, Key
from .errors import EmptyCodeError, ResourceLimitError
from .kraft import _int_str, kraft_sum
from .refine import refines

DEFAULT_MAX_POWER_WORDS = 100_000


def _prefix_product(a: Sequence[Key], b: Sequence[Key]) -> list[Key]:
    """The concatenations of shortlex-sorted keys ``a`` and ``b`` in
    shortlex order, when no key of ``a`` is a prefix of another.

    Two heads s != s' then differ inside both, so s + t and s' + t' compare
    as s and s', and with one head as the tails, of one length.  So with the
    heads in lexicographic order and the tails in shortlex order, the
    concatenations of each length come sorted and distinct: one stable sort
    by length makes them shortlex, none when ``a`` and ``b`` have one length.
    """
    if len(a[0]) == len(a[-1]) and len(b[0]) == len(b[-1]):
        return [s + t for s in a for t in b]
    keys = [s + t for s in sorted(a) for t in b]
    keys.sort(key=len)
    return keys


def _product(a: list[Key], b: list[Key]) -> list[Key]:
    # lexicographically sorted keys in and out; only a code that is not UD
    # repeats a concatenation, so only such a code pays to drop repeats
    keys = [s + t for s in a for t in b]
    keys.sort()
    if any(map(eq, keys, islice(keys, 1, None))):
        keys = list(dict.fromkeys(keys))
    return keys


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
    binary exponentiation.  The powers of a prefix code are prefix codes, so
    each product needs only a stable sort by length (:func:`_prefix_product`).
    For any other code each product is sorted and repeats dropped, and a sort
    by length ends the build.
    """
    if k == 1:
        # C^1 is the code itself: nothing is built, so nothing is capped
        return code
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    count = len(code) ** k
    if count > max_words:
        raise ResourceLimitError(
            f"|code|^k = {_int_str(count)} exceeds the cap of {max_words}", limit=max_words, count=count
        )
    if not code.indices:
        return code
    keys = sorted(code.indices)
    # a key that is a prefix of others sorts just before the first of them
    if any(map(str.startswith, islice(keys, 1, None), keys)):
        keys = _power(keys, k, _product)
        keys.sort(key=len)
    else:
        keys = _power(code.indices, k, _prefix_product)
    return Code._from_shortlex(code.alphabet, tuple(keys))


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
