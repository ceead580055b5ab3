"""Code powers and descending power chains.

The k-th power of a code is the set of concatenations of k code words.
Power chains track C, C^2, C^4, ... together with their exact Kraft
values; each member refines its successor, and whether all Kraft values
coincide is computed, not assumed (they coincide exactly when K(C) = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Code, Key
from .errors import EmptyCodeError, ResourceLimitError
from .kraft import kraft_sum
from .refine import refines

DEFAULT_MAX_POWER_WORDS = 100_000


def _concat(a: Sequence[Key], b: Sequence[Key]) -> list[Key]:
    # product order: sorted factors give nearly sorted concatenations, which
    # Code sorts in about linear time.  Repeats are left for Code to drop; a
    # list for C^k holds |code|^k keys, the count the cap bounds.
    return [s + t for s in a for t in b]


def _power_keys(base: Sequence[Key], k: int) -> Sequence[Key]:
    # binary exponentiation; concatenation of key lists is associative
    result: Sequence[Key] | None = None
    while k:
        if k & 1:
            result = base if result is None else _concat(result, base)
        k >>= 1
        if k:
            base = _concat(base, base)
    assert result is not None
    return result


def code_power(code: Code, k: int, max_words: int = DEFAULT_MAX_POWER_WORDS) -> Code:
    """The code of all concatenations of k code words, deduplicated.

    For a UD code the cardinality is exactly ``len(code) ** k``; any
    shortfall comes from colliding concatenations.
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
    if len(code) == 0:
        return code
    return Code._from_indices(code.alphabet, _power_keys(code.indices, k))


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
