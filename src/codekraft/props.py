"""Mechanical verification harness for the exact Kraft-sum laws.

Each check returns a value-complete report: both sides of every inequality
are recorded as exact rationals (or integers) so a failed report can be
audited without recomputation.  Checks test instances; they do not prove
theorems.

The checks cover:

* McMillan's bound: a UD code has Kraft sum at most 1 (plus the linear
  power bound K^k <= (m-1)k + 1 against the full one-symbol code).
* The power law: K(C^k) <= K(C)^k, with equality for every k exactly when
  C is UD, and strictness at the collision-derived exponent otherwise.
* Monotonicity: for UD codes C <= D, every word of C^k factors over D
  with between k and m*k factors, and K(C) <= K(D), strictly when D is
  not an irredundant refinement of C.
* Finiteness: the finer UD codes with the same Kraft sum, enumerated.
* Equal-Kraft chains: strict descent plus exact Kraft equality, with the
  equal-Kraft refinement count of every member reported.

One :func:`verify` call decides each fact once (UD verdicts, Kraft sums,
code powers, equal-Kraft refinements) and forgets them when it returns.
Every UD gate reads the code's :func:`is_ud` verdict, decided once per
call; only the equal-Kraft enumeration tests its partial unions with a
verdict that builds no witness.  Monotonicity against the full one-symbol
code is computed from |C|, maxlen(C) and the symbols used, without
factoring.
"""

from __future__ import annotations

import enum
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from .core import Code, unit_code
from .decipher import DEFAULT_MAX_STATES, UdVerdict, _is_ud, is_ud
from .errors import ChainViolationError, NotRefinementError, ResourceLimitError
from .kraft import exact_str, kraft_sum
from .power import DEFAULT_MAX_POWER_WORDS, code_power
from .refine import (
    DEFAULT_MAX_CANDIDATES,
    _first_factors,
    irredundant_refinements,
    is_irredundant_refinement,
    refines,
)


class PropositionId(enum.Enum):
    MCMILLAN = "mcmillan"
    POWER_LAW = "power-law"
    MONOTONICITY = "monotonicity"
    EQUAL_KRAFT_FINITENESS = "equal-kraft-finiteness"
    EQUAL_KRAFT_CHAIN = "equal-kraft-chain"


Detail = tuple[str, object]


@dataclass(frozen=True, slots=True)
class PropositionReport:
    """Outcome of one check, with every exact quantity embedded.

    ``details`` and ``parameters`` are ordered (name, value) pairs; values
    are exact rationals, integers, booleans, or witness strings.  A failed
    report always identifies the violated inequality with both sides.
    """

    proposition_id: PropositionId
    passed: bool
    details: tuple[Detail, ...]
    parameters: tuple[Detail, ...]

    def get(self, name: str, default=None):
        for key, value in self.details:
            if key == name:
                return value
        for key, value in self.parameters:
            if key == name:
                return value
        return default


# one verify call's max_states and the facts it has decided, by (function,
# alphabet, keys, *arguments); unset outside verify, so nothing outlives a call
_run: ContextVar[tuple[int, dict | None]] = ContextVar("_run", default=(DEFAULT_MAX_STATES, None))


def _once(function, code: Code, *args):
    """``function(code, *args)``, computed once per verify call."""
    memo = _run.get()[1]
    if memo is None:
        return function(code, *args)
    key = (function, code.alphabet, code.indices, *args)
    value = memo.get(key)
    if value is None:
        value = memo[key] = function(code, *args)
    return value


def _verdict(code: Code) -> UdVerdict:
    return _once(is_ud, code, _run.get()[0])


def _effective_kmax(cardinality: int, kmax: int, max_words: int) -> int:
    k = kmax
    while k > 1 and cardinality**k > max_words:
        k -= 1
    return k


def check_mcmillan(code: Code, kmax: int = 3) -> PropositionReport:
    """Assert K <= 1 for UD codes; record K without asserting otherwise.

    For UD codes this also exercises the linear power bound
    K^k <= (m-1)k + 1 for k up to ``kmax``, where m is the cover exponent
    of the code against the full one-symbol code.
    """
    verdict = _verdict(code)
    value = _once(kraft_sum, code)
    details: list[Detail] = [("is_ud", verdict.is_ud), ("kraft_sum", value), ("bound", 1)]
    parameters: list[Detail] = [("kmax", kmax)]
    if not verdict.is_ud:
        left, right = verdict.witness
        details.append(("status", "out of hypothesis"))
        details.append(("witness_left", str(left)))
        details.append(("witness_right", str(right)))
        return PropositionReport(PropositionId.MCMILLAN, True, tuple(details), tuple(parameters))
    passed = value <= 1
    details.append(("status", "bound asserted" if passed else "bound violated"))
    if len(code):
        # against the unit code, whose words all have length 1
        m = code.max_len()
        details.append(("cover_exponent_m", m))
        for k in range(1, kmax + 1):
            lhs = value**k
            rhs = (m - 1) * k + 1
            details.append((f"k={k}.kraft_pow", lhs))
            details.append((f"k={k}.linear_bound", rhs))
            if lhs > rhs:
                passed = False
                details.append((f"k={k}.violated", "K^k > (m-1)k+1"))
    return PropositionReport(PropositionId.MCMILLAN, passed, tuple(details), tuple(parameters))


def check_power_law(
    code: Code, kmax: int = 3, max_power_words: int = DEFAULT_MAX_POWER_WORDS
) -> PropositionReport:
    """Compare K(C^k) with K(C)^k exactly for each k up to ``kmax``.

    Always asserts K(C^k) <= K(C)^k.  For UD codes asserts equality at
    every k; otherwise asserts strict inequality at k = m + n, where m and
    n are the factor counts of the collision witness sides.
    """
    if kmax < 2:
        raise ValueError(f"kmax must be at least 2, got {kmax}")
    verdict = _verdict(code)
    value = _once(kraft_sum, code)
    effective = _effective_kmax(len(code), kmax, max_power_words)
    details: list[Detail] = [("is_ud", verdict.is_ud), ("kraft_sum", value)]
    parameters: list[Detail] = [
        ("kmax", kmax),
        ("effective_kmax", effective),
        ("max_power_words", max_power_words),
    ]
    passed = True
    computed: dict[int, tuple[Fraction, Fraction]] = {}

    def compare(k: int) -> tuple[Fraction, Fraction]:
        if k not in computed:
            lhs = _once(kraft_sum, _once(code_power, code, k, max_power_words))
            rhs = value**k
            computed[k] = (lhs, rhs)
            details.append((f"k={k}.kraft_of_power", lhs))
            details.append((f"k={k}.kraft_pow", rhs))
        return computed[k]

    for k in range(1, effective + 1):
        lhs, rhs = compare(k)
        if lhs > rhs:
            passed = False
            details.append((f"k={k}.violated", "K(C^k) > K(C)^k"))
        elif verdict.is_ud and lhs != rhs:
            passed = False
            details.append((f"k={k}.violated", "UD but K(C^k) < K(C)^k"))
    if not verdict.is_ud:
        left, right = verdict.witness
        witness_k = len(left.factors) + len(right.factors)
        details.append(("witness_left", str(left)))
        details.append(("witness_right", str(right)))
        details.append(("witness_k", witness_k))
        lhs, rhs = compare(witness_k)
        if not lhs < rhs:
            passed = False
            details.append((f"k={witness_k}.violated", "collision but K(C^k) = K(C)^k"))
    return PropositionReport(PropositionId.POWER_LAW, passed, tuple(details), tuple(parameters))


def check_monotonicity(
    coarse: Code,
    fine: Code,
    kmax: int = 3,
    max_power_words: int = DEFAULT_MAX_POWER_WORDS,
) -> PropositionReport:
    """Verify cover inclusion and Kraft monotonicity for a UD pair.

    Requires both codes UD and ``fine`` finer than ``coarse``.  Checks, for
    each k up to ``kmax``, that every word of coarse^k factors over the
    fine code with between k and m*k factors (m the cover exponent), then
    asserts K(coarse) <= K(fine), strictly when the refinement is not
    irredundant.  Factor counts are those of the canonical factorizations,
    and the powers are factored as keys, building no words.

    Against the full one-symbol code U a word's factors are its symbols,
    so nothing is factored: coarse^k has |coarse|^k words, each within
    [k, m*k], and U is irredundant iff coarse uses every symbol.
    """
    if not _verdict(coarse).is_ud:
        raise ValueError("monotonicity check requires a UD coarse code")
    if not _verdict(fine).is_ud:
        raise ValueError("monotonicity check requires a UD fine code")
    unit = fine == unit_code(coarse.alphabet)
    if not unit:
        words, lengths = fine.factor_index()
        if not refines(coarse, fine):
            failing = next(t for t in coarse.indices if _first_factors(t, words, lengths) is None)
            raise NotRefinementError(
                f"{fine} does not refine {coarse}: no factorization of {failing.translate(coarse.alphabet.symbols)!r}"
            )
    value_coarse = _once(kraft_sum, coarse)
    value_fine = _once(kraft_sum, fine)
    details: list[Detail] = [
        ("kraft_coarse", value_coarse),
        ("kraft_fine", value_fine),
    ]
    parameters: list[Detail] = [("kmax", kmax), ("max_power_words", max_power_words)]
    passed = True
    if len(coarse) and len(fine):
        m = coarse.max_len() // fine.min_len()
        details.append(("cover_exponent_m", m))
        effective = _effective_kmax(len(coarse), kmax, max_power_words)
        parameters.append(("effective_kmax", effective))
        for k in range(1, effective + 1):
            if unit:
                details.append((f"k={k}.words_checked", len(coarse) ** k))
                continue
            power = _once(code_power, coarse, k, max_power_words)
            for t in power.indices:
                factors = _first_factors(t, words, lengths)
                if factors is None:
                    passed = False
                    details.append((f"k={k}.violated", f"{t.translate(coarse.alphabet.symbols)} has no factorization"))
                    continue
                j = len(factors)
                if not k <= j <= m * k:
                    passed = False
                    details.append(
                        (f"k={k}.violated", f"{t.translate(coarse.alphabet.symbols)} uses {j} factors, outside [{k}, {m * k}]")
                    )
            details.append((f"k={k}.words_checked", len(power)))
    irredundant = (len(set().union(*coarse.indices)) == coarse.alphabet.size if unit
                   else is_irredundant_refinement(coarse, fine))
    details.append(("irredundant", irredundant))
    if value_coarse > value_fine:
        passed = False
        details.append(("violated", "K(coarse) > K(fine)"))
    elif not irredundant and value_coarse == value_fine:
        passed = False
        details.append(("violated", "redundant refinement but K(coarse) = K(fine)"))
    return PropositionReport(PropositionId.MONOTONICITY, passed, tuple(details), tuple(parameters))


def equal_kraft_refinements(code: Code, max_candidates: int = DEFAULT_MAX_CANDIDATES) -> tuple[Code, ...]:
    """The finer UD codes with the same Kraft sum as ``code`` (inclusive).

    A finer UD code with equal Kraft sum is necessarily an irredundant
    refinement (a redundant one would be strictly larger), so the UD
    irredundant refinements filtered for exact Kraft equality are the whole
    set.  Always finite.

    Every partial union S of blocks is a subset of the code D it completes
    to, so the enumeration drops S as soon as one of two laws rules D out:
    the Kraft sum grows strictly as words are added (McMillan), so
    K(S) > K(code) is final; and every subset of a UD code is UD, so a
    non-UD S is final.  ``max_candidates`` therefore counts only partial
    unions that pass both tests.  Every code the enumeration returns passed
    the UD test as a union, so only exact Kraft equality is checked here.
    """
    if not _verdict(code).is_ud:
        raise ValueError("equal-Kraft refinement enumeration requires a UD code")
    value = _once(kraft_sum, code)
    alphabet = code.alphabet
    max_states = _run.get()[0]
    r = alphabet.size
    # blocks are no longer than maxlen(code), so K(S) <= K(code) is exact in
    # integers over the common denominator r^top
    top = max(map(len, code.indices), default=0)
    budget = sum(r ** (top - len(t)) for t in code.indices)

    def admissible(blocks) -> bool:
        if sum(r ** (top - len(t)) for t in blocks) > budget:
            return False
        return _is_ud(Code._from_indices(alphabet, blocks), max_states)

    # the enumeration's canonical order survives the filter
    refinements = irredundant_refinements(code, max_candidates, admissible=admissible)
    return tuple(candidate for candidate in refinements if _once(kraft_sum, candidate) == value)


def check_equal_kraft_finiteness(
    code: Code, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> PropositionReport:
    """Enumerate the equal-Kraft UD refinements and re-verify each member."""
    members = _once(equal_kraft_refinements, code, max_candidates)
    value = _once(kraft_sum, code)
    details: list[Detail] = [("kraft_sum", value), ("count", len(members))]
    parameters: list[Detail] = [("max_candidates", max_candidates)]
    passed = code in members
    if not passed:
        details.append(("violated", "code is not among its own equal-Kraft refinements"))
    for i, member in enumerate(members):
        details.append((f"member_{i}", str(member)))
        if not (_verdict(member).is_ud and refines(code, member) and _once(kraft_sum, member) == value):
            passed = False
            details.append((f"member_{i}.violated", "not a UD equal-Kraft refinement"))
    return PropositionReport(
        PropositionId.EQUAL_KRAFT_FINITENESS, passed, tuple(details), tuple(parameters)
    )


def check_chain(chain, max_candidates: int = DEFAULT_MAX_CANDIDATES) -> PropositionReport:
    """Verify an equal-Kraft chain of UD codes.

    The sequence must descend strictly in the refinement order (each member
    refined by its predecessor, no repeats) with all Kraft values exactly
    equal; violations raise :class:`ChainViolationError` naming the first
    offending adjacent pair.  For each member the (finite) set of
    equal-Kraft UD refinements is counted and reported.
    """
    members = tuple(chain)
    for i, member in enumerate(members):
        if not _verdict(member).is_ud:
            raise ValueError(f"chain member {i} is not uniquely decipherable")
    for i in range(len(members) - 1):
        previous, following = members[i], members[i + 1]
        if previous == following:
            raise ChainViolationError(f"members {i} and {i + 1} are equal", index=i)
        if not refines(following, previous):
            raise ChainViolationError(
                f"member {i} does not refine member {i + 1}", index=i
            )
        value_previous, value_following = _once(kraft_sum, previous), _once(kraft_sum, following)
        if value_previous != value_following:
            raise ChainViolationError(
                f"Kraft values differ at members {i} and {i + 1}: "
                f"{exact_str(value_previous)} ≠ {exact_str(value_following)}",
                index=i,
            )
    details: list[Detail] = [("length", len(members))]
    parameters: list[Detail] = [("max_candidates", max_candidates)]
    if members:
        details.append(("kraft_sum", _once(kraft_sum, members[0])))
    for i, member in enumerate(members):
        details.append((f"member_{i}.cardinality", len(member)))
        details.append((f"member_{i}.equal_kraft_refinements", len(_once(equal_kraft_refinements, member, max_candidates))))
    return PropositionReport(PropositionId.EQUAL_KRAFT_CHAIN, True, tuple(details), tuple(parameters))


def _check_power_chain(code: Code, max_power_words: int, max_candidates: int) -> PropositionReport | str:
    if not len(code):
        return "SKIPPED (empty code)"
    # check_chain decides descent, so C^2 is factored over C only there
    members = (code, _once(code_power, code, 2, max_power_words)) if len(code) ** 2 <= max_power_words else (code,)
    values = tuple(_once(kraft_sum, member) for member in members)
    if len(set(values)) != 1:
        return f"SKIPPED (power-chain Kraft values differ: {', '.join(map(exact_str, values))})"
    return check_chain(members, max_candidates)


def verify(
    code: Code,
    kmax: int = 3,
    max_states: int = DEFAULT_MAX_STATES,
    max_power_words: int = DEFAULT_MAX_POWER_WORDS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[tuple[PropositionReport, ...], tuple[str, ...]]:
    """Run the five checks on ``code``, in order; returns (reports, notes).

    McMillan and the power law always run; monotonicity (against the full
    one-symbol code), equal-Kraft finiteness and the equal-Kraft chain need
    a UD code, decided once with ``max_states`` (that cap raises).  The
    same ``max_states`` bounds every other saturation the checks run.  The
    chain is C, C^2 when |C|^2 <= ``max_power_words``, else C alone, and is
    checked only if its Kraft values are equal.  A check that does not run
    leaves the note ``"<check>: SKIPPED (<reason>)"`` instead of a report:
    not UD, empty code, unequal chain values, or a ``ResourceLimitError``,
    whose message the note carries.  Notes count neither as pass nor fail.
    A ``kmax`` below 2 raises :class:`ValueError` before any check runs.
    """
    if kmax < 2:
        raise ValueError(f"kmax must be at least 2, got {kmax}")
    checks = (
        (PropositionId.MCMILLAN, False, lambda: check_mcmillan(code, kmax)),
        (PropositionId.POWER_LAW, False, lambda: check_power_law(code, kmax, max_power_words)),
        (PropositionId.MONOTONICITY, True, lambda: check_monotonicity(code, unit_code(code.alphabet), kmax, max_power_words)
         if len(code) else "SKIPPED (empty code)"),
        (PropositionId.EQUAL_KRAFT_FINITENESS, True, lambda: check_equal_kraft_finiteness(code, max_candidates)),
        (PropositionId.EQUAL_KRAFT_CHAIN, True, lambda: _check_power_chain(code, max_power_words, max_candidates)),
    )
    reports: list[PropositionReport] = []
    notes: list[str] = []
    token = _run.set((max_states, {}))
    try:
        code_is_ud = _verdict(code).is_ud
        for proposition, needs_ud, check in checks:
            try:
                outcome = check() if code_is_ud or not needs_ud else "SKIPPED (code is not uniquely decipherable)"
            except ResourceLimitError as exc:
                outcome = f"SKIPPED (resource limit: {exc})"
            if isinstance(outcome, PropositionReport):
                reports.append(outcome)
            else:
                notes.append(f"{proposition.value}: {outcome}")
    finally:
        _run.reset(token)
    return tuple(reports), tuple(notes)
