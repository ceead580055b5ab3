"""Result checker for the codekraft benchmark, independent of the library.

Every expected answer comes from the corpus construction or from plain
stdlib arithmetic written here: Kraft sums with ``Fraction`` from the file
text, collision witnesses re-checked as certificates, powers as naive
products, refinement witnesses re-concatenated, factorability by a direct
dynamic program, and irredundant refinements by exhaustive search over
compositions (only ever run on the small codes of ``verify-small``).
Nothing here imports codekraft.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

from corpus import Command, Corpus, CodeSpec, shortlex

DOT = "·"


def parse_code_text(text: str) -> tuple[str, list[str]]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    keyword, alphabet = lines[0].split()
    if keyword != "alphabet":
        raise ValueError("code text does not start with an alphabet line")
    return alphabet, lines[1:]


def kraft_sum(r: int, words) -> Fraction:
    return sum((Fraction(1, r ** len(w)) for w in set(words)), Fraction(0))


def kraft_of_text(text: str) -> Fraction:
    alphabet, words = parse_code_text(text)
    return kraft_sum(len(alphabet), words)


def exact(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def factorable(word: str, words: set[str]) -> bool:
    reach = [True] + [False] * len(word)
    for i in range(1, len(word) + 1):
        reach[i] = any(reach[j] and word[j:i] in words for j in range(i))
    return reach[-1]


def refines(coarse, fine) -> bool:
    fine_set = set(fine)
    return all(factorable(w, fine_set) for w in coarse)


def naive_power(words, k: int) -> set[str]:
    return {"".join(t) for t in itertools.product(words, repeat=k)}


def is_ud(words) -> bool:
    """Sardinas-Patterson on strings; for the small codes of the checker."""
    code = set(words)

    def quotient(left, right):
        return {b[len(a):] for a in left for b in right if len(b) > len(a) and b.startswith(a)}

    dangling = quotient(code, code)
    seen: set[str] = set()
    while dangling - seen:
        if dangling & code:
            return False
        seen |= dangling
        dangling = quotient(code, dangling) | quotient(dangling, code)
    return True


def compositions(word: str):
    n = len(word)
    for mask in range(1 << (n - 1)):
        cuts = [0] + [p for p in range(1, n) if mask >> (p - 1) & 1] + [n]
        yield frozenset(word[a:b] for a, b in zip(cuts, cuts[1:]))


def irredundant_refinements(alphabet: str, words) -> list[tuple[str, ...]]:
    """Every irredundant refinement, by brute force over composition tuples."""
    key = shortlex(alphabet)
    candidates = {frozenset().union(*parts) for parts in itertools.product(*(set(compositions(w)) for w in words))}
    kept = [
        d for d in candidates
        if refines(words, d) and not any(refines(words, d - {x}) for x in d)
    ]
    ordered = [tuple(sorted(d, key=key)) for d in kept]
    return sorted(ordered, key=lambda d: [key(w) for w in d])


def code_str(words) -> str:
    return "{" + ", ".join(words) + "}"


def certificate_problem(spec: CodeSpec, word: str, left: list[str], right: list[str]) -> str | None:
    """None when (left, right) proves ``spec`` ambiguous on ``word``."""
    members = set(spec.words)
    if "".join(left) != word or "".join(right) != word:
        return "witness sides do not concatenate to the witness word"
    if not all(f in members for f in left + right):
        return "witness uses a factor outside the code"
    if left == right:
        return "witness sides are identical"
    return None


class Checker:
    """Checks one command's exit code and output against the known answer."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._kraft_cache: dict[str, Fraction] = {}
        self._power_cache: dict[tuple[str, int], list[str]] = {}
        self._verify_cache: dict[str, list[str]] = {}
        self._irredundant_cache: dict[tuple[str, bool], list[str]] = {}

    def kraft(self, name: str) -> Fraction:
        if name not in self._kraft_cache:
            self._kraft_cache[name] = kraft_of_text(self.corpus.codes[name].text)
        return self._kraft_cache[name]

    def prepare(self) -> None:
        """Compute every cached expectation before the timed loop starts."""
        for command in self.corpus.commands:
            for name in command.codes:
                self.kraft(name)
            spec = self.corpus.codes[command.codes[0]]
            if command.kind == "power":
                self.expected_power(spec, int(command.options[1]))
            elif command.kind == "verify":
                self.expected_verify(spec)
            elif command.kind == "irredundant":
                self.expected_irredundant(spec, "--ud-only" in command.options)

    def check(self, command: Command, rc: int | None, out: str) -> str | None:
        """None when the command behaved as the construction says; else why not."""
        try:
            return getattr(self, "check_" + command.kind)(command, rc, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def check_kraft(self, command, rc, out):
        value = self.kraft(command.codes[0])
        match = re.fullmatch(r"(\d+)/(\d+) \(≈ (\S+)\)\n", out)
        if rc != 0 or not match:
            return f"kraft: exit {rc}, output {out!r}"
        if Fraction(int(match[1]), int(match[2])) != value:
            return f"kraft: got {match[1]}/{match[2]}, expected {exact(value)}"
        if not math.isclose(float(match[3]), float(value), rel_tol=1e-10):
            return f"kraft: approximation {match[3]} is off"
        return None

    def check_ud(self, command, rc, out):
        spec = self.corpus.codes[command.codes[0]]
        if rc != (0 if spec.ud else 1):
            return f"ud: exit {rc} for a code that is {'' if spec.ud else 'not '}UD"
        if command.json:
            payload = json.loads(out)
            if payload["command"] != "ud" or payload["verdict"] is not spec.ud:
                return f"ud --json: verdict {payload['verdict']!r}"
            if spec.ud:
                return None if payload["witnesses"] is None else "ud --json: witness on a UD code"
            witness = payload["witnesses"]
            if payload["exact_values"]["witness_length"] != len(witness["word"]):
                return "ud --json: witness_length disagrees with the word"
            return certificate_problem(spec, witness["word"], witness["left"], witness["right"])
        if spec.ud:
            return None if out == "UD\n" else f"ud: output {out!r}"
        match = re.fullmatch(r"not UD: (\S+) = (\S+) = (\S+)\n", out)
        if not match:
            return f"ud: output {out!r}"
        return certificate_problem(spec, match[1], match[2].split(DOT), match[3].split(DOT))

    def expected_power(self, spec: CodeSpec, k: int) -> list[str]:
        if (spec.name, k) not in self._power_cache:
            words = sorted(naive_power(spec.words, k), key=shortlex(spec.alphabet))
            self._power_cache[(spec.name, k)] = [f"alphabet {spec.alphabet}", *words]
        return self._power_cache[(spec.name, k)]

    def check_power(self, command, rc, out):
        spec = self.corpus.codes[command.codes[0]]
        expected = self.expected_power(spec, int(command.options[1]))
        if rc != 0 or out.splitlines() != expected:
            return f"power: exit {rc} or words differ from the naive product"
        return None

    def check_chain(self, command, rc, out):
        spec = self.corpus.codes[command.codes[0]]
        value = self.kraft(spec.name)
        n = int(command.options[1])
        lines = out.splitlines()
        if rc != 0 or len(lines) != n + 3:
            return f"chain: exit {rc}, {len(lines)} lines"
        for i, line in enumerate(lines[: n + 1]):
            # the members are powers of a UD code: |C|^e words and K(C)^e
            e = 2**i
            head = f"C^{e}: {len(spec.words) ** e} words, K = {exact(value ** e)} (≈ "
            if not line.startswith(head) or not line.endswith(")"):
                return f"chain: line {line!r}, expected {head}...)"
            if not math.isclose(float(line[len(head):-1]), float(value ** e), rel_tol=1e-10):
                return f"chain: approximation in {line!r} is off"
        tail = ["descending: true", f"equal Kraft: {'true' if value == 1 else 'false'}"]
        return None if lines[n + 1:] == tail else f"chain: summary {lines[n + 1:]!r}"

    def check_refines(self, command, rc, out):
        coarse, fine = (self.corpus.codes[name] for name in command.codes)
        if rc != (0 if command.holds else 1):
            return f"refines: exit {rc}, expected the relation to {'hold' if command.holds else 'fail'}"
        lines = out.splitlines()
        if not command.holds:
            match = re.fullmatch(r"not a refinement: no factorization of (\S+)", lines[0]) if len(lines) == 1 else None
            if not match or match[1] not in coarse.words or factorable(match[1], set(fine.words)):
                return f"refines: bad failing word in {out!r}"
            return None
        fine_words = set(fine.words)
        if len(lines) != len(coarse.words):
            return "refines: not one witness per coarse word"
        for word, line in zip(coarse.words, lines):
            head, _, factors = line.partition(" = ")
            parts = factors.split(DOT)
            if head != word or "".join(parts) != word or not all(p in fine_words for p in parts):
                return f"refines: bad witness {line!r} for {word}"
        return None

    def check_hasse(self, command, rc, out):
        specs = [self.corpus.codes[name] for name in command.codes]
        n = len(specs)
        leq = [[refines(specs[i].words, specs[j].words) for j in range(n)] for i in range(n)]
        below = [[i != j and specs[i].words != specs[j].words and leq[i][j] and not leq[j][i]
                  for j in range(n)] for i in range(n)]
        lines = ["digraph refinement {"]
        lines += [f'  "{s.name}" [label="{s.name}\\nK = {exact(self.kraft(s.name))}"];' for s in specs]
        lines += [
            f'  "{specs[i].name}" -> "{specs[j].name}";'
            for i in range(n) for j in range(n)
            if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n))
        ]
        lines.append("}")
        if rc != 0 or out.splitlines() != lines:
            return f"hasse: exit {rc} or covering edges differ"
        return None

    def expected_irredundant(self, spec: CodeSpec, ud_only: bool) -> list[str]:
        key = (spec.name, ud_only)
        if key not in self._irredundant_cache:
            found = irredundant_refinements(spec.alphabet, spec.words)
            self._irredundant_cache[key] = [code_str(d) for d in found if not ud_only or is_ud(d)]
        return self._irredundant_cache[key]

    def check_irredundant(self, command, rc, out):
        spec = self.corpus.codes[command.codes[0]]
        expected = self.expected_irredundant(spec, "--ud-only" in command.options)
        if rc != 0 or out.splitlines() != expected:
            return f"irredundant: exit {rc} or refinements differ from exhaustive search"
        return None

    def expected_verify(self, spec: CodeSpec) -> list[str]:
        """Every verify line except the witness-dependent strict power-law line."""
        if spec.name in self._verify_cache:
            return self._verify_cache[spec.name]
        value = self.kraft(spec.name)
        if spec.ud:
            count = sum(
                1 for d in irredundant_refinements(spec.alphabet, spec.words)
                if is_ud(d) and kraft_sum(len(spec.alphabet), d) == value
            )
            relation = "=" if value == 1 else "<"
            lines = [
                f"mcmillan: PASS (UD, K = {exact(value)} ≤ 1)",
                "power-law: PASS (equality at k = 1..3)",
                f"monotonicity: PASS (m = {max(map(len, spec.words))}, K(C) = {exact(value)} {relation} K(D) = 1/1)",
                f"equal-kraft-finiteness: PASS ({count} equal-Kraft refinements)",
                "equal-kraft-chain: PASS (2 members, all K = 1/1)" if value == 1 else
                f"equal-kraft-chain: SKIPPED (power-chain Kraft values differ: {exact(value)}, {exact(value ** 2)})",
            ]
        else:
            skipped = "SKIPPED (code is not uniquely decipherable)"
            lines = [
                f"mcmillan: OUT OF HYPOTHESIS (not UD, K = {exact(value)} recorded)",
                "power-law: PASS (strict at k = ...)",
                f"monotonicity: {skipped}",
                f"equal-kraft-finiteness: {skipped}",
                f"equal-kraft-chain: {skipped}",
            ]
        lines.append("verify: PASS")
        self._verify_cache[spec.name] = lines
        return lines

    def check_verify(self, command, rc, out):
        spec = self.corpus.codes[command.codes[0]]
        expected = self.expected_verify(spec)
        lines = out.splitlines()
        if rc != 0 or len(lines) != len(expected):
            return f"verify: exit {rc}, {len(lines)} lines"
        for got, want in zip(lines, expected):
            if want.startswith("power-law: PASS (strict"):
                problem = self._strict_power_law(spec, got)
                if problem:
                    return problem
            elif got != want:
                return f"verify: {got!r}, expected {want!r}"
        return None

    def _strict_power_law(self, spec: CodeSpec, line: str) -> str | None:
        match = re.fullmatch(r"power-law: PASS \(strict at k = (\d+): (\d+)/(\d+) < (\d+)/(\d+)\)", line)
        if not match:
            return f"verify: power-law line {line!r}"
        k = int(match[1])
        lhs, rhs = Fraction(int(match[2]), int(match[3])), Fraction(int(match[4]), int(match[5]))
        power = naive_power(spec.words, k)
        if k < 2 or rhs != self.kraft(spec.name) ** k or lhs != kraft_sum(len(spec.alphabet), power) or not lhs < rhs:
            return f"verify: power-law values in {line!r} are wrong"
        return None
