"""Word factorization over a code, the refinement order, and irredundant
refinements.

A code D is finer than C (written C <= D) when every word of C is a
concatenation of D-words.  D is an irredundant refinement of C when no
proper subset of D is still finer than C.

Two searches cut words at the boundaries of code words, one per question:

* The canonical factors of one word, for witnesses and factor counts:
  :func:`_first_factors` runs one breadth-first search over the word's
  prefix boundaries, each keeping the first parent it is reached from, and
  reads the factors back from those parents.  Boundaries leave a FIFO queue
  and are extended by word lengths in ascending order, so children are
  appended in order of (parent, length).  By induction each level leaves
  the queue in lexicographic order of its recorded paths, and the end is
  first reached along the canonical factorization: fewest factors, then
  lexicographically least lengths.
* Whether a whole set of words factors: :func:`refines` decides the words
  of a coarse code together by their first factor.  Words share remainders:
  cut after their first factor, the |C|^k words of C^k for a prefix code C
  leave only the |C|^(k-1) words of C^(k-1), each decided once.  Sorted
  words of one length that start with one code word form a piece, found by
  binary search, and pieces with equal remainders share them.  Small sets,
  and sets that share few remainders, fall back to the per-word search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache
from itertools import compress, islice, repeat, takewhile
from operator import methodcaller, or_
from typing import Callable, Container, Optional, Sequence

from .core import Code, Factorization, Key, Word
from .errors import MixedAlphabetsError, ResourceLimitError
from .kraft import _int_str

DEFAULT_MAX_CANDIDATES = 1_000_000


def _require_same_alphabet(a, b):
    if a.alphabet is not b.alphabet and a.alphabet != b.alphabet:
        raise MixedAlphabetsError("values are over different alphabets")


def _first_factors(
    indices: Key, words: Container[Key], lengths: tuple[int, ...]
) -> Optional[list[Key]]:
    """The canonical factorization of ``indices`` over the keys in
    ``words`` (the key set of a :meth:`Code.factor_index`, or a subset of
    it), as those keys, read back from the first parents of the module's
    breadth-first search; None if it has none.  ``lengths`` are the keys'
    distinct lengths, ascending."""
    n = len(indices)
    parents: dict[int, int] = {}
    queue = [0]
    # appended to while iterated: boundaries leave first in, first out
    for i in queue:
        for length in lengths:
            j = i + length
            if j > n:
                break
            if j not in parents and indices[i:j] in words:
                if j == n:
                    factors = [indices[i:]]
                    while i:
                        j, i = i, parents[i]
                        factors.append(indices[i:j])
                    return factors[::-1]
                parents[j] = i
                queue.append(j)
    return None


# The crossover set size, below which one search per key beats batched
# levels.  On C^2, C^3 and C^4 over C for random binary and ternary prefix
# codes, batched levels took 1.40 times as long at 9 keys, 1.01 at 16-23 and
# 0.70 at 24-31; 0.67 and 0.50 on C^2 over C for {0,10,110,111} and
# {00,01,10,11}; on subsets whose remainders need not halve, 1.27 at 16-23.
_BATCH_MIN = 16


def _nested(fine: Code) -> dict[Key, list[Key]]:
    """The fine keys that are proper prefixes of other fine keys, each with
    those keys, which follow it in lexicographic order (as in ``code_power``)."""
    ordered = sorted(fine.indices)
    starts = compress(range(len(ordered)), map(str.startswith, islice(ordered, 1, None), ordered))
    return {ordered[i]: list(takewhile(methodcaller("startswith", ordered[i]), islice(ordered, i + 1, None))) for i in starts}


def _heads(keys: Sequence[Key], fine: Code, nested: dict[Key, list[Key]]) -> tuple[list[tuple[int, int, int]], bool]:
    """The pieces of the shortlex-sorted ``keys`` that :func:`_cut` cuts, and
    whether every key has a fine head.  A piece (lo, hi, length) is the keys
    of one width that start with the fine key keys[lo][:length].  The first
    key of a width not yet in a piece starts one at its shortest head f, up
    to f padded with the alphabet's last symbol; those keys have no other
    heads but the fine keys ``nested`` under f, each a piece inside it."""
    words, lengths = fine.factor_index()
    top = chr(fine.alphabet.size - 1)
    pieces: list[tuple[int, int, int]] = []
    covered, a, n = True, 0, len(keys)
    while a < n:
        width = len(keys[a])
        end = bisect_right(keys, width, a, key=len)
        pad = top * width
        while a < end:
            key = keys[a]
            # past the key's width f is the whole key, a fine key only if
            # its width, tried before, is a fine length
            for length in lengths:
                f = key[:length]
                if f in words:
                    break
            else:
                covered, a = False, a + 1
                continue
            b = bisect_right(keys, f + pad[length:], a, end)
            pieces.append((a, b, length))
            for g in nested.get(f, ()):
                lo = bisect_left(keys, g, a, b)
                hi = bisect_right(keys, g + pad[len(g):], lo, b)
                if lo < hi:
                    pieces.append((lo, hi, len(g)))
            a = b
    return pieces, covered


def _cut(keys: Sequence[Key], pieces: list[tuple[int, int, int]]) -> Optional[tuple[list[int], list[list[Key]], list[Key]]]:
    """Each piece's block of tails (an index), the blocks, and the distinct
    nonempty tails in shortlex order; None once they outnumber half the
    keys.  A piece's keys share one head f and one width, so its tails are a
    block T of its size iff the joined piece is f + f.join(T)."""
    limit = len(keys) // 2
    rests: set[Key] = {""}  # the empty tail too, until the end
    shared: list[int] = []
    blocks: list[list[Key]] = []
    hints: dict[tuple[int, Key, Key], int] = {}
    for lo, hi, length in pieces:
        if hi - lo > 1:
            hint = (hi - lo, keys[lo][length:], keys[hi - 1][length:])
            k, f = hints.get(hint), keys[lo][:length]
            if k is not None and "".join(keys[lo:hi]) == f + f.join(blocks[k]):
                shared.append(k)
                continue
            hints[hint] = len(blocks)
        tails = [t[length:] for t in keys[lo:hi]]
        shared.append(len(blocks))
        blocks.append(tails)
        rests.update(tails)
        if len(rests) > limit + 1:
            return None
    rests.discard("")
    ordered = sorted(rests)
    ordered.sort(key=len)
    return shared, blocks, ordered


def first_factorization(word: Word, code: Code) -> Optional[Factorization]:
    """The canonically first factorization of ``word`` over ``code``.

    First means shortlex-minimal factor-length composition: fewest factors,
    then lexicographically smallest lengths.  Returns None when the word
    has no factorization.  Found by the module's canonical search over the
    code's key index (:meth:`Code.factor_index`), without enumerating; the
    factors are built as words equal to the code's own.
    """
    _require_same_alphabet(word, code)
    words, lengths = code.factor_index()
    factors = _first_factors(word.indices, words, lengths)
    if factors is None:
        return None
    return Factorization(tuple(map(Word._from_key, repeat(code.alphabet), factors)))


def refines(coarse: Code, fine: Code) -> bool:
    """Whether ``fine`` refines ``coarse`` (coarse <= fine).

    Holds iff every coarse word factors over ``fine``.  No witnesses are
    built: :func:`first_factorization` gives one per word.  All coarse
    words are decided at once by their first cut, since F+ = F·F*: a word
    factors iff some fine word is a head of it and the remainder is empty or
    factors.  Each level parts its keys into pieces of one width under one
    fine head (:func:`_heads`) and cuts the heads off (:func:`_cut`); the
    distinct tails, strictly shorter keys, make the next level.  A level of
    fewer than ``_BATCH_MIN`` keys, or one whose tails are not at most half
    as many, is searched key by key with :func:`_first_factors`.  So each
    level kept has at most half the keys of the one above, and all levels
    together at most twice the coarse code's, none longer than its longest
    word.  The verdicts are then carried back up: a key factors iff one of
    its heads leaves a tail that did not fail, a block of tails is tested
    once for all the pieces that share it, and a level whose keys all have
    heads passes whole when no tail below it failed.

    Two exits come first: a coarse code searched word by word stops at its
    first failing word, and one in which some word has no fine head of any
    length fails before any tail is cut.
    """
    _require_same_alphabet(coarse, fine)
    words, lengths = fine.factor_index()
    keys: Sequence[Key] = coarse.indices
    nested = _nested(fine) if len(keys) >= _BATCH_MIN else {}
    levels = []
    while len(keys) >= _BATCH_MIN:
        pieces, covered = _heads(keys, fine, nested)
        # an empty fine code has no lengths, so no word has a head
        if not levels and not covered:
            return False
        cut = _cut(keys, pieces)
        if cut is None:
            break
        levels.append((keys, covered, pieces, *cut[:2]))
        keys = cut[2]
    searched = (t in words or _first_factors(t, words, lengths) is not None for t in keys)
    if not levels:
        return all(searched)
    verdicts = bytes(searched)
    for upper, covered, pieces, shared, blocks in reversed(levels):
        if covered and 0 not in verdicts:
            keys, verdicts = upper, b"\1" * len(upper)
            continue
        passed = {"", *compress(keys, verdicts)}
        keys, verdicts = upper, bytearray(len(upper))
        # a key factors iff the tail after one of its heads passed
        oks = [bytes(map(passed.__contains__, tails)) for tails in blocks]
        for (lo, hi, _), k in zip(pieces, shared):
            verdicts[lo:hi] = map(or_, verdicts[lo:hi], oks[k])
    return all(verdicts)


def is_irredundant_refinement(coarse: Code, fine: Code) -> bool:
    """True iff ``fine`` refines ``coarse`` and no proper subset does.

    Removing words one at a time is equivalent to the proper-subset
    definition because adding words never destroys factorizability.  Each
    removal factors over ``fine``'s key index without the removed key, so
    no subset code is built.  A removal usually leaves an early coarse word
    without a factorization, so the removals search the coarse words one
    at a time and stop at the first that fails, where the batched search
    behind :func:`refines` would decide every word.  A coarse word
    whose canonical factors, found once when a scan first reaches it, avoid
    the removed word still factors without it and is not searched again.
    """
    if not refines(coarse, fine):
        return False
    words, lengths = fine.factor_index()
    canonical = cache(lambda t: _first_factors(t, words, lengths))
    for removed in fine.indices:
        rest = words - {removed}
        if all(removed not in canonical(t) or _first_factors(t, rest, lengths) is not None for t in coarse.indices):
            return False
    return True


def _composition_block_sets(idx: Key, max_candidates: int) -> set[frozenset[Key]]:
    """Distinct block sets over all 2^(len-1) compositions of the word
    ``idx``, in no particular order: those of each prefix ``idx[:j]`` are
    the block sets of a shorter prefix ``idx[:i]``, each with ``idx[i:j]``
    added."""
    n = len(idx)
    total = 1 << (n - 1)
    if total > max_candidates:
        raise ResourceLimitError(
            f"word of length {n} has {_int_str(total)} compositions, more than the cap of {max_candidates}",
            limit=max_candidates,
            count=total,
        )
    sets: list[set[frozenset[Key]]] = [{frozenset()}]
    for j in range(1, n + 1):
        sets.append({blocks | {idx[i:j]} for i in range(j) for blocks in sets[i]})
    return sets[n]


def irredundant_refinements(
    coarse: Code,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    *,
    admissible: Optional[Callable[[frozenset[Key]], bool]] = None,
) -> tuple[Code, ...]:
    """All irredundant refinements of ``coarse``, canonically ordered.

    They are the inclusion-minimal unions of the blocks of one composition
    per coarse word, so the minimal unions are returned untested:

    * Factoring each coarse word over an irredundant refinement D gives a
      composition tuple whose union is D; a smaller union would be a proper
      subset of D that still refines ``coarse``.
    * A minimal union U is irredundant: if U - {w} still refined ``coarse``,
      some composition tuple's union would lie inside U - {w}.

    Partial unions are deduped and dominated ones dropped word by word: a
    union properly containing another completes only to supersets of the
    other's completions, so no minimal union is lost.

    ``admissible``, when given, is called with a partial union as the
    frozenset of its blocks' keys and must be closed under
    subsets: if it holds for a set of blocks it holds for every subset.
    Each distinct partial union is tested once, when first formed, and
    dropped if the test fails.  Its completions are supersets and would
    fail too, and no surviving union contains a dropped one, so the result
    is exactly the unpruned result restricted to admissible codes (the
    smaller unions above are subsets of admissible ones, hence admissible).

    Exceeding ``max_candidates`` live (admissible) partial unions raises
    :class:`ResourceLimitError` (cap and count reported), never truncates.
    """
    alphabet = coarse.alphabet
    verdicts: dict[frozenset[Key], bool] = {}
    states: list[frozenset[Key]] = [frozenset()]
    for t in coarse.indices:
        block_sets = _composition_block_sets(t, max_candidates)
        merged: set[frozenset[Key]] = set()
        for state in states:
            for blocks in block_sets:
                union = state | blocks
                if admissible is not None:
                    if union not in verdicts:
                        verdicts[union] = admissible(union)
                    if not verdicts[union]:
                        continue
                merged.add(union)
                if len(merged) > max_candidates:
                    raise ResourceLimitError(
                        f"more than {max_candidates} candidate refinements while processing"
                        f" word {t.translate(alphabet.symbols)!r}",
                        limit=max_candidates,
                        count=len(merged),
                    )
        states = _minimal_antichain(merged)
    minimal = [Code._from_indices(alphabet, state) for state in states]
    return tuple(sorted(minimal, key=lambda c: c.sort_key))


def _minimal_antichain(sets: set[frozenset]) -> list[frozenset]:
    ordered = sorted(sets, key=len)
    kept: list[frozenset] = []
    for candidate in ordered:
        if not any(small <= candidate for small in kept):
            kept.append(candidate)
    return kept
