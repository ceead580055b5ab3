"""Word factorization over a code, the refinement order, and irredundant
refinements.

A code D is finer than C (written C <= D) when every word of C is a
concatenation of D-words.  D is an irredundant refinement of C when no
proper subset of D is still finer than C.

Refinement verdicts and witnesses factor a word by one breadth-first search
over its prefix boundaries, each keeping the first parent it is reached
from.  Boundaries leave a FIFO queue and are extended by word lengths in
ascending order, so children are appended in order of (parent, length).
By induction each level leaves the queue in lexicographic order of its
recorded paths, and the end is first reached along the canonical
factorization: fewest factors, then lexicographically least lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import Code, Factorization, IndexTuple, Word, _text
from .errors import EmptyCodeError, MixedAlphabetsError, ResourceLimitError

DEFAULT_MAX_FACTORIZATIONS = 10_000
DEFAULT_MAX_CANDIDATES = 1_000_000


@dataclass(frozen=True, slots=True)
class RefinementVerdict:
    """Outcome of a refinement test.

    When the relation holds, ``witnesses`` maps every coarse word (in
    shortlex order) to one factorization over the fine code; otherwise
    ``failing_word`` is a coarse word with no factorization.
    """

    holds: bool
    witnesses: Optional[tuple[tuple[Word, Factorization], ...]] = None
    failing_word: Optional[Word] = None

    def __post_init__(self):
        if self.holds and self.witnesses is None:
            raise ValueError("a holding verdict needs witnesses")
        if not self.holds and self.witnesses is not None:
            raise ValueError("a failing verdict carries no witnesses")

    def witness_for(self, word: Word) -> Factorization:
        for w, factorization in self.witnesses or ():
            if w == word:
                return factorization
        raise KeyError(word)


def _require_same_alphabet(a, b):
    if a.alphabet is not b.alphabet and a.alphabet != b.alphabet:
        raise MixedAlphabetsError("values are over different alphabets")


def _first_parents(
    indices: IndexTuple,
    words: dict[IndexTuple, Word],
    lengths: tuple[int, ...],
    skip: Optional[IndexTuple] = None,
) -> Optional[dict[int, int]]:
    """The module's breadth-first search of ``indices`` over the keys of a
    :meth:`Code.factor_index` other than ``skip``: the first parent of each
    boundary reached, returned once ``len(indices)`` is reached, else None."""
    n = len(indices)
    parents: dict[int, int] = {}
    queue = [0]
    # appended to while iterated: boundaries leave first in, first out
    for i in queue:
        for length in lengths:
            j = i + length
            if j > n:
                break
            if j not in parents:
                piece = indices[i:j]
                if piece in words and piece != skip:
                    parents[j] = i
                    if j == n:
                        return parents
                    queue.append(j)
    return None


def factorizations(word: Word, code: Code, max_count: int = DEFAULT_MAX_FACTORIZATIONS) -> tuple[Factorization, ...]:
    """All distinct factorizations of ``word`` into code words.

    Returned in shortlex order of their factor-length compositions (fewer
    factors first, then lexicographic on the length tuple); empty when the
    word is not a concatenation of code words.  Counts are computed by
    dynamic programming over prefix boundaries before anything is
    materialized; more than ``max_count`` factorizations raises
    :class:`ResourceLimitError` rather than truncating.  Factors are the
    code's own words, looked up in its :meth:`Code.factor_index`.
    """
    _require_same_alphabet(word, code)
    words, lengths = code.factor_index()
    idx = word.indices
    n = len(idx)
    preds: list[list[int]] = [[] for _ in range(n + 1)]
    counts = [0] * (n + 1)
    counts[0] = 1
    for i in range(1, n + 1):
        total = 0
        for length in lengths:
            if length > i:
                break
            j = i - length
            if counts[j] and idx[j:i] in words:
                preds[i].append(j)
                total += counts[j]
        counts[i] = total
    if counts[n] == 0:
        return ()
    if counts[n] > max_count:
        raise ResourceLimitError(
            f"word has {counts[n]} factorizations, more than the cap of {max_count}",
            limit=max_count,
            count=counts[n],
        )
    results: list[Factorization] = []

    def walk(i: int, acc: list[Word]):
        if i == 0:
            results.append(Factorization(tuple(reversed(acc))))
            return
        for j in preds[i]:
            acc.append(words[idx[j:i]])
            walk(j, acc)
            acc.pop()

    walk(n, [])
    results.sort(key=lambda f: (len(f.factors), f.composition))
    return tuple(results)


def first_factorization(word: Word, code: Code) -> Optional[Factorization]:
    """The canonically first factorization of ``word`` over ``code``.

    First means shortlex-minimal factor-length composition: fewest factors,
    then lexicographically smallest lengths.  Returns None when the word
    has no factorization.  Read off the parents that the module's one
    search records over the code's :meth:`Code.factor_index`, without
    enumerating; the factors are the code's own words.
    """
    _require_same_alphabet(word, code)
    words, lengths = code.factor_index()
    idx = word.indices
    parents = _first_parents(idx, words, lengths)
    if parents is None:
        return None
    parts: list[Word] = []
    j = len(idx)
    while j:
        i = parents[j]
        parts.append(words[idx[i:j]])
        j = i
    return Factorization(tuple(reversed(parts)))


def is_refinement(coarse: Code, fine: Code) -> RefinementVerdict:
    """Decide whether ``fine`` refines ``coarse`` (coarse <= fine).

    Holds iff every coarse word factors over the fine code; one witness per
    word is retained, the first in canonical order.  Every coarse word is
    factored over the same ``fine.factor_index()``, built once per code.
    :func:`refines` gives the same verdict without building witnesses.
    """
    _require_same_alphabet(coarse, fine)
    witnesses = []
    for word in coarse.words:
        factorization = first_factorization(word, fine)
        if factorization is None:
            return RefinementVerdict(False, failing_word=word)
        witnesses.append((word, factorization))
    return RefinementVerdict(True, tuple(witnesses))


def refines(coarse: Code, fine: Code) -> bool:
    """Whether ``fine`` refines ``coarse`` (coarse <= fine).

    The verdict of :func:`is_refinement`, without witnesses: every coarse
    word is factored over ``fine.factor_index()`` by the search behind
    :func:`first_factorization`, keeping only whether it reaches the end of
    the word.
    """
    _require_same_alphabet(coarse, fine)
    words, lengths = fine.factor_index()
    return all(_first_parents(t, words, lengths) is not None for t in coarse.indices)


def is_irredundant_refinement(coarse: Code, fine: Code) -> bool:
    """True iff ``fine`` refines ``coarse`` and no proper subset does.

    Removing words one at a time is equivalent to the proper-subset
    definition because adding words never destroys factorizability.  Each
    removal is a factoring over ``fine``'s own index that skips the removed
    word, so no subset code is built.
    """
    if not refines(coarse, fine):
        return False
    words, lengths = fine.factor_index()
    return not any(
        all(_first_parents(t, words, lengths, removed) is not None for t in coarse.indices)
        for removed in fine.indices
    )


def cover_exponent_bound(coarse: Code, fine: Code) -> int:
    """The exponent bound m = maxlen(coarse) // minlen(fine).

    For a refining pair, every coarse word is a concatenation of between 1
    and m fine words, so coarse is disjoint from the n-fold concatenations
    of fine for every n > m.
    """
    if len(coarse) == 0 or len(fine) == 0:
        raise EmptyCodeError("cover exponent needs nonempty codes")
    _require_same_alphabet(coarse, fine)
    return coarse.max_len() // fine.min_len()


def _composition_block_sets(idx: IndexTuple, max_candidates: int) -> set[frozenset[IndexTuple]]:
    """Distinct block sets over all 2^(len-1) compositions of the word
    ``idx``, in no particular order."""
    n = len(idx)
    total = 1 << (n - 1)
    if total > max_candidates:
        raise ResourceLimitError(
            f"word of length {n} has {total} compositions, more than the cap of {max_candidates}",
            limit=max_candidates,
            count=total,
        )
    out: set[frozenset[IndexTuple]] = set()
    for mask in range(2 ** (n - 1)):
        blocks = []
        start = 0
        for pos in range(1, n):
            if (mask >> (pos - 1)) & 1:
                blocks.append(idx[start:pos])
                start = pos
        blocks.append(idx[start:n])
        out.add(frozenset(blocks))
    return out


def irredundant_refinements(
    coarse: Code,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    *,
    admissible: Optional[Callable[[frozenset[IndexTuple]], bool]] = None,
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
    frozenset of its blocks' symbol-index tuples and must be closed under
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
    verdicts: dict[frozenset[IndexTuple], bool] = {}
    states: list[frozenset[IndexTuple]] = [frozenset()]
    for t in coarse.indices:
        block_sets = _composition_block_sets(t, max_candidates)
        merged: set[frozenset[IndexTuple]] = set()
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
                        f" word {_text(alphabet, t)!r}",
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
