"""Shared test helpers: exhaustive corpora, independent oracles, generators."""

from __future__ import annotations

import functools
import itertools
import random
from operator import attrgetter

from codekraft import (
    Alphabet,
    Code,
    Factorization,
    PropositionId,
    PropositionReport,
    UdVerdict,
    Word,
    code_power,
    concat,
    first_factorization,
    is_irredundant_refinement,
    is_ud,
    kraft_sum,
)
from codekraft.power import DEFAULT_MAX_POWER_WORDS

BINARY = Alphabet("01")


def bcode(*texts: str) -> Code:
    """Binary code from word texts."""
    return Code(BINARY, [BINARY.word(t) for t in texts])


def code_over(alphabet: Alphabet, *texts: str) -> Code:
    return Code(alphabet, [alphabet.word(t) for t in texts])


def key_word(alphabet: Alphabet, key: str) -> Word:
    """The word whose key is ``key``, built through the public int form."""
    return Word(alphabet, tuple(map(ord, key)))


def without(code: Code, word: Word) -> Code:
    """The code with one word removed."""
    return Code(code.alphabet, (w for w in code if w != word))


def binary_words_up_to(max_len: int) -> list[Word]:
    """All binary words of length 1..max_len in shortlex order."""
    out = []
    for n in range(1, max_len + 1):
        for bits in itertools.product((0, 1), repeat=n):
            out.append(Word(BINARY, bits))
    return out


def binary_codes(max_words: int, max_len: int):
    """Every binary code with at most max_words words, each of length <= max_len."""
    words = binary_words_up_to(max_len)
    for size in range(max_words + 1):
        for combo in itertools.combinations(words, size):
            yield Code(BINARY, combo)


def splitter(word: Word, code: Code):
    """Independent recursive splitter oracle.

    Returns every factorization of ``word`` into code words as a tuple of
    Words, sorted by (factor count, factor-length composition).
    """
    tuples = {w.indices for w in code.words}
    lengths = sorted({len(t) for t in tuples})
    idx = word.indices

    def walk(t):
        if not t:
            yield ()
            return
        for length in lengths:
            if length > len(t):
                break
            head = t[:length]
            if head in tuples:
                for rest in walk(t[length:]):
                    yield (head,) + rest

    results = [tuple(key_word(word.alphabet, t) for t in seq) for seq in walk(idx)]
    results.sort(key=lambda seq: (len(seq), tuple(len(w) for w in seq)))
    return results


def is_ud_bruteforce(code: Code, max_total_len: int) -> UdVerdict:
    """Exhaustive bounded oracle for unique decipherability.

    Examines every word of length at most ``max_total_len`` for two
    distinct factorizations into code words (equivalently, two distinct
    word sequences with equal concatenation inside the bound).  The
    verdict is conclusive for "not UD"; for "UD" it is conclusive only
    relative to the bound.

    Words are swept breadth-first in shortlex order.  Prefixes whose
    trailing symbols and trailing factorization counts coincide evolve
    identically, so they are merged; counts are capped at 2, which is
    exact for detecting ambiguity.  This covers the full bounded word
    space without materializing it.
    """
    if max_total_len < 1:
        raise ValueError(f"max_total_len must be positive, got {max_total_len}")
    if len(code) == 0:
        return UdVerdict(True)
    r = code.alphabet.size
    maxlen = code.max_len()
    words, lengths = code.factor_index()
    # state: (last maxlen-1 symbols, counts of factorizations ending at the
    # last maxlen boundary positions, capped at 2); value: smallest prefix
    start = ("", (0,) * (maxlen - 1) + (1,))
    frontier: dict[tuple, str] = {start: ""}
    for _depth in range(1, max_total_len + 1):
        next_frontier: dict[tuple, str] = {}
        collisions: list[str] = []
        for (window, counts), prefix in sorted(frontier.items(), key=lambda kv: kv[1]):
            for s in map(chr, range(r)):
                appended = window + s
                total = 0
                for length in lengths:
                    if length > len(appended):
                        break
                    if counts[maxlen - length] and appended[-length:] in words:
                        total += counts[maxlen - length]
                new_count = min(total, 2)
                word = prefix + s
                if new_count >= 2:
                    collisions.append(word)
                    continue
                new_counts = counts[1:] + (new_count,)
                if not any(new_counts):
                    continue
                new_window = appended[-(maxlen - 1) :] if maxlen > 1 else ""
                next_frontier.setdefault((new_window, new_counts), word)
        if collisions:
            return UdVerdict(False, _bruteforce_witness(code, min(collisions)))
        if not next_frontier:
            break
        frontier = next_frontier
    return UdVerdict(True)


def _bruteforce_witness(code: Code, key: str):
    # the two least compositions, not the first two in shortlex order,
    # ordered as is_ud orders its witness pair
    splits = map(Factorization, splitter(key_word(code.alphabet, key), code))
    left, right, *_ = sorted(splits, key=attrgetter("composition"))
    return tuple(sorted((left, right), key=attrgetter("sort_key")))


@functools.cache
def _composition_slices(n: int) -> list[tuple[slice, ...]]:
    """The blocks of each composition of a length-n word as slices, one
    composition per bitmask of cut positions 1..n-1."""
    out = []
    for mask in range(1 << (n - 1)):
        bounds = [0, *(pos for pos in range(1, n) if mask >> (pos - 1) & 1), n]
        out.append(tuple(map(slice, bounds, bounds[1:])))
    return out


def composition_block_sets_by_mask(idx: str) -> set[frozenset[str]]:
    """Reference enumeration: the distinct block sets over the 2^(len-1)
    compositions of ``idx``, enumerated by bitmask."""
    return {frozenset(map(idx.__getitem__, blocks)) for blocks in _composition_slices(len(idx))}


def brute_force_bound(code: Code) -> int:
    """The oracle bound used for corpus agreement: 3 * maxlen * |code|."""
    if len(code) == 0:
        return 1
    return 3 * code.max_len() * len(code)


def random_ud_pairs(count: int, seed: int = 20260809):
    """Generated refinement pairs: a random UD fine code D over an alphabet
    of size 2-3, and a coarse code C of 2-4 random concatenations of 1-4
    D-words, deduplicated and filtered to be UD itself."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        size = rng.choice((2, 3))
        alphabet = Alphabet("012"[:size])
        target = rng.randint(2, 4)
        words = set()
        for _ in range(12):
            length = rng.randint(1, 3)
            words.add(Word(alphabet, tuple(rng.randrange(size) for _ in range(length))))
            if len(words) == target:
                break
        fine = Code(alphabet, words)
        if len(fine) < 2 or not is_ud(fine).is_ud:
            continue
        coarse_words = []
        for _ in range(rng.randint(2, 4)):
            k = rng.randint(1, 4)
            coarse_words.append(concat([rng.choice(fine.words) for _ in range(k)]))
        coarse = Code(alphabet, coarse_words)
        if not is_ud(coarse).is_ud:
            continue
        pairs.append((coarse, fine))
    return pairs


def random_prefix_codes(count: int, seed: int = 7):
    """Random prefix codes (no word a prefix of another) over alphabets of
    size 2-3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        size = rng.choice((2, 3))
        alphabet = Alphabet("012"[:size])
        words: list[Word] = []
        for _ in range(rng.randint(1, 6)):
            length = rng.randint(1, 4)
            candidate = Word(alphabet, tuple(rng.randrange(size) for _ in range(length)))
            clash = any(
                w.indices[: len(candidate)] == candidate.indices
                or candidate.indices[: len(w)] == w.indices
                for w in words
            )
            if not clash:
                words.append(candidate)
        if words:
            out.append(Code(alphabet, words))
    return out


# Oracles over plain int-index tuples, independent of the library's keys.


def index_tuples(code: Code) -> list[tuple[int, ...]]:
    """The code's words as int-index tuples, read from their keys."""
    return [tuple(map(ord, key)) for key in code.indices]


def shortlex_tuples(tuples) -> list[tuple[int, ...]]:
    return sorted(set(tuples), key=lambda t: (len(t), t))


def ud_by_tuples(tuples) -> bool:
    """Sardinas-Patterson on int tuples, verdict only: UD iff no set of
    dangling suffixes contains a code word."""
    words = set(tuples)

    def quotients(xs, ys):
        return {y[len(x) :] for x in xs for y in ys if len(x) < len(y) and y[: len(x)] == x}

    level, seen = quotients(words, words), set()
    while not level <= seen:
        if level & words:
            return False
        seen |= level
        level = quotients(words, level) | quotients(level, words)
    return True


def factors_by_tuples(t: tuple[int, ...], fine) -> bool:
    """Whether the int tuple ``t`` is a concatenation of tuples of ``fine``."""
    return not t or any(t[: len(f)] == f and factors_by_tuples(t[len(f) :], fine) for f in fine)


def refines_by_tuples(coarse: Code, fine: Code) -> bool:
    """Whether every word of ``coarse`` is a concatenation of ``fine`` words,
    decided over int tuples."""
    fine_tuples = set(index_tuples(fine))
    return all(factors_by_tuples(t, fine_tuples) for t in index_tuples(coarse))


def power_by_tuples(tuples, k: int) -> list[tuple[int, ...]]:
    """The k-th power of a code of int tuples, in shortlex order."""
    return shortlex_tuples(sum(combo, ()) for combo in itertools.product(tuples, repeat=k))


def monotonicity_report(
    coarse: Code, fine: Code, kmax: int = 3, max_power_words: int = DEFAULT_MAX_POWER_WORDS
) -> PropositionReport:
    """Reference for ``check_monotonicity`` on a UD pair ``coarse`` <= ``fine``:
    every word of coarse^k is factored over ``fine`` by the public
    ``first_factorization`` and its factor count checked against [k, m*k]."""
    value_coarse, value_fine = kraft_sum(coarse), kraft_sum(fine)
    details = [("kraft_coarse", value_coarse), ("kraft_fine", value_fine)]
    parameters = [("kmax", kmax), ("max_power_words", max_power_words)]
    passed = True
    if len(coarse) and len(fine):
        m = coarse.max_len() // fine.min_len()
        details.append(("cover_exponent_m", m))
        effective = kmax
        while effective > 1 and len(coarse) ** effective > max_power_words:
            effective -= 1
        parameters.append(("effective_kmax", effective))
        for k in range(1, effective + 1):
            power = code_power(coarse, k, max_power_words)
            for word in power:
                factorization = first_factorization(word, fine)
                if factorization is None:
                    passed = False
                    details.append((f"k={k}.violated", f"{word} has no factorization"))
                elif not k <= len(factorization.factors) <= m * k:
                    passed = False
                    details.append((f"k={k}.violated", f"{word} uses {len(factorization.factors)} factors, outside [{k}, {m * k}]"))
            details.append((f"k={k}.words_checked", len(power)))
    irredundant = is_irredundant_refinement(coarse, fine)
    details.append(("irredundant", irredundant))
    if value_coarse > value_fine:
        passed = False
        details.append(("violated", "K(coarse) > K(fine)"))
    elif not irredundant and value_coarse == value_fine:
        passed = False
        details.append(("violated", "redundant refinement but K(coarse) = K(fine)"))
    return PropositionReport(PropositionId.MONOTONICITY, passed, tuple(details), tuple(parameters))
