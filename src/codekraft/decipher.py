"""Unique-decipherability decisions with collision certificates.

A code is uniquely decipherable (UD) when no two distinct sequences of
code words concatenate to the same word.  :func:`is_ud` decides this with
the Sardinas-Patterson dangling-suffix iteration and, on failure, emits a
concrete collision pair so every "not UD" claim is independently
checkable.  The tests cross-check it against a bounded exhaustive oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional

from .core import Code, Factorization, Key, Word
from .errors import CertificateError, ResourceLimitError

DEFAULT_MAX_STATES = 1_000_000


@dataclass(frozen=True, slots=True)
class UdVerdict:
    """Outcome of a decipherability test.

    ``witness`` is present exactly when ``is_ud`` is false: two distinct
    factorizations, both over the tested code, with equal concatenations.
    """

    is_ud: bool
    witness: Optional[tuple[Factorization, Factorization]] = None

    def __post_init__(self):
        if self.is_ud and self.witness is not None:
            raise ValueError("a UD verdict carries no witness")
        if not self.is_ud and self.witness is None:
            raise ValueError("a non-UD verdict needs a witness")


def _witness_key(pair: tuple[Factorization, Factorization]):
    left, right = pair
    word = left.concatenation
    return (len(word), word.indices, left.sort_key, right.sort_key)


def _ordered_pair(left: Factorization, right: Factorization):
    if right.sort_key < left.sort_key:
        left, right = right, left
    return (left, right)


def _saturate(words: tuple[Key, ...], max_states: int) -> tuple[dict[Key, tuple], list[Key]]:
    """Each dangling suffix of ``words`` with one parent, and those that are words."""
    word_set = set(words)
    # suffix -> ("init", short, long) | ("A", previous, word) | ("B", previous, word)
    parents: dict[Key, tuple] = {}
    level: list[Key] = []
    terminals: list[Key] = []
    for short in words:
        for long in words:
            if len(short) < len(long) and long.startswith(short):
                s = long[len(short) :]
                if s not in parents:
                    parents[s] = ("init", short, long)
                    level.append(s)
                    if s in word_set:
                        terminals.append(s)
    while level:
        if len(parents) > max_states:
            raise ResourceLimitError(
                f"dangling-suffix iteration exceeded {max_states} states",
                limit=max_states,
                count=len(parents),
            )
        next_level: list[Key] = []
        for s in sorted(level, key=lambda t: (len(t), t)):
            for c in words:
                if len(c) < len(s) and s.startswith(c):
                    w = s[len(c) :]
                    kind = "A"
                elif len(s) < len(c) and c.startswith(s):
                    w = c[len(s) :]
                    kind = "B"
                else:
                    continue
                if w not in parents:
                    parents[w] = (kind, s, c)
                    next_level.append(w)
                    if w in word_set:
                        terminals.append(w)
        level = next_level
    return parents, terminals


def _is_ud(code: Code, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """The verdict of :func:`is_ud`, from the same saturation, without a witness."""
    return not _saturate(code.indices, max_states)[1]


def is_ud(code: Code, max_states: int = DEFAULT_MAX_STATES) -> UdVerdict:
    """Decide unique decipherability via Sardinas-Patterson.

    Dangling suffixes are iterated to saturation with one parent pointer
    kept per suffix; every suffix that is itself a code word closes a
    collision, and the reported witness has minimal total concatenation
    length among those reachable through the recorded parents (ties broken
    by shortlex on the concatenated word).

    ``max_states`` bounds the dangling-suffix universe.  The universe is
    finite for finite codes, so the bound only guards implementation bugs.
    """
    parents, terminals = _saturate(code.indices, max_states)
    if not terminals:
        return UdVerdict(True)
    candidates = [_reconstruct(code, parents, t) for t in terminals]
    return UdVerdict(False, min(candidates, key=_witness_key))


def _reconstruct(code: Code, parents: dict, terminal: Key):
    """Replay parent pointers into a concrete collision pair.

    A dangling suffix ``s`` stands for two word sequences where one side
    trails the other by exactly ``s``; the terminal suffix is itself a code
    word, so appending it to the trailing side equalizes the
    concatenations.
    """
    chain = []
    cur = terminal
    while True:
        record = parents[cur]
        chain.append(record)
        if record[0] == "init":
            break
        cur = record[1]
    chain.reverse()
    _, short, long = chain[0]
    behind = [short]
    ahead = [long]
    for kind, _previous, c in chain[1:]:
        behind.append(c)
        if kind == "B":
            behind, ahead = ahead, behind
    behind.append(terminal)
    words, _ = code.factor_index()
    if not all(t in words for t in (*behind, *ahead)):
        raise CertificateError("reconstructed collision has a factor that is not a code word")
    left = Factorization(tuple(map(Word._from_key, repeat(code.alphabet), behind)))
    right = Factorization(tuple(map(Word._from_key, repeat(code.alphabet), ahead)))
    if left.concatenation != right.concatenation or left == right:
        raise CertificateError(f"reconstructed collision {left} / {right} is not a collision")
    return _ordered_pair(left, right)
