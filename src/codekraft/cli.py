"""Command-line front end: code files, command dispatch, reports, DOT export.

Exit codes: 0 = property holds / success, 1 = property fails (not UD, not
a refinement, failed verification), 2 = usage or input error, 3 =
resource limit.  Any other exception is a bug and propagates.  All behavior
is flag-driven; there are no configuration files or environment variables.

The grammar is one table, ``_OPTIONS`` and ``_COMMANDS``.  ``_match`` reads
it to accept argv spelled exactly (top-level options before the command,
its own after it, valid values, no file starting with ``-``).  argparse,
built from the same table, parses everything else (abbreviations,
``--opt=value``, ``--``, ``-h``, usage errors) and writes help and usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Sequence

from .core import Alphabet, Code, Key
from .decipher import DEFAULT_MAX_STATES, _is_ud, is_ud
from .errors import (
    CodeFileError,
    EmptyCodeError,
    MissingAlphabetError,
    MixedAlphabetsError,
    ResourceLimitError,
    UnknownSymbolError,
)
from .kraft import _int_str, approx_str, exact_str, kraft_sum
from .power import DEFAULT_MAX_POWER_WORDS, code_power, power_chain
from .props import PropositionId, PropositionReport, verify
from .refine import DEFAULT_MAX_CANDIDATES, _first_factors, _require_same_alphabet, irredundant_refinements, refines


@dataclass(frozen=True)
class CodeFile:
    """A parsed code file: where it came from and its code."""

    path: str | None
    code: Code
    warnings: tuple[str, ...] = ()


def parse_code_file(text: str | bytes, path: str | None = None) -> CodeFile:
    """Parse the one-word-per-line code file format.

    Lines starting with ``#`` and blank lines are ignored.  The first
    significant line must be ``alphabet <symbols>``: distinct characters,
    none of them whitespace or ``#``.  Every later significant line is one
    word over those symbols.  Duplicate words collapse with a warning.  A
    leading UTF-8 byte-order mark is ignored.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodeFileError(str(exc), line=text.count(b"\n", 0, exc.start) + 1) from exc
    text = text.removeprefix("\ufeff")  # as Windows Notepad saves UTF-8
    alphabet: Alphabet | None = None
    keys: dict[Key, None] = {}  # insertion-ordered
    warnings: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if alphabet is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "alphabet":
                raise MissingAlphabetError(
                    "expected 'alphabet <symbols>' as the first significant line", line=lineno
                )
            if "#" in parts[1]:
                raise CodeFileError("'#' starts a comment and cannot be an alphabet symbol", line=lineno)
            try:
                alphabet = Alphabet(parts[1])
            except ValueError as exc:
                raise CodeFileError(str(exc), line=lineno) from exc
            table = alphabet._keys
            continue
        try:
            key = line.translate(table)
        except UnknownSymbolError as exc:
            # no symbol is whitespace, so a line of two tokens fails here
            if len(line.split()) != 1:
                raise CodeFileError(f"expected one word per line, got {line!r}", line=lineno) from None
            raise UnknownSymbolError(exc.symbol, line=lineno) from exc
        if key in keys:
            warnings.append(f"line {lineno}: duplicate word {line!r}")
            continue
        keys[key] = None
    if alphabet is None:
        raise MissingAlphabetError("code file declares no alphabet")
    return CodeFile(path, Code._from_indices(alphabet, keys), tuple(warnings))


def emit_code_file(code: Code) -> str:
    """Canonical text for a code: alphabet line, then shortlex words."""
    # one translate: each key ends with chr(r), which the table maps to "\n"
    symbols = code.alphabet.symbols
    return f"alphabet {symbols}\n" + chr(len(symbols)).join(code.indices + ("",)).translate(symbols + "\n")


def _load(path: str, err: IO[str]) -> CodeFile:
    data = Path(path).read_bytes()
    parsed = parse_code_file(data, path=path)
    for warning in parsed.warnings:
        print(f"warning: {path}: {warning}", file=err)
    return parsed


def _json_default(value):
    # json.dumps calls this for each value it cannot write itself
    if isinstance(value, Fraction):
        return {"num": _int_str(value.numerator), "den": _int_str(value.denominator)}
    if isinstance(value, PropositionReport):
        return {"id": value.proposition_id.value, "passed": value.passed,
                "parameters": dict(value.parameters), "details": dict(value.details)}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _cap(args, default: int) -> int:
    return default if args.max_tuples is None else args.max_tuples


# Each _cmd_* handler takes the parsed namespace and the input files in
# command-line order, and returns (verdict, exact_values, witnesses, lines):
# the verdict sets the exit status, ``witnesses()`` builds the JSON witnesses
# and only --json calls it, and ``lines`` are the human report.


def _cmd_kraft(args, parsed):
    value = kraft_sum(parsed.code)
    return True, {"kraft_sum": value}, lambda: None, [f"{exact_str(value)} (≈ {approx_str(value)})"]


def _cmd_ud(args, parsed):
    verdict = is_ud(parsed.code, max_states=args.max_states)
    if verdict.is_ud:
        return True, {}, lambda: None, ["UD"]
    left, right = verdict.witness
    word = left.concatenation
    return (
        False,
        {"witness_length": len(word)},
        lambda: {"word": word.text, "left": [w.text for w in left.factors], "right": [w.text for w in right.factors]},
        [f"not UD: {word.text} = {left} = {right}"],
    )


def _cmd_refines(args, coarse, fine):
    _require_same_alphabet(coarse.code, fine.code)
    symbols = coarse.code.alphabet.symbols
    index, lengths = fine.code.factor_index()
    witnesses = []
    for t in coarse.code.indices:
        factors = _first_factors(t, index, lengths)
        if factors is None:
            failing = t.translate(symbols)
            return False, {}, lambda: {"failing_word": failing}, [f"not a refinement: no factorization of {failing}"]
        witnesses.append((t, factors))
    # the report in one translate: past the symbols, chr(r) prints "·" between
    # factors, chr(r + 1) " = " after a coarse word and chr(r + 2) a line break
    r = len(symbols)
    dot, equals, newline = chr(r), chr(r + 1), chr(r + 2)
    text = newline.join(t + equals + dot.join(factors) for t, factors in witnesses).translate([*symbols, "·", " = ", "\n"])
    return (
        True,
        {"kraft_coarse": kraft_sum(coarse.code), "kraft_fine": kraft_sum(fine.code)},
        lambda: {t.translate(symbols): [f.translate(symbols) for f in factors] for t, factors in witnesses},
        [text] if text else [],
    )


def _cmd_irredundant(args, parsed):
    refinements = irredundant_refinements(parsed.code, max_candidates=_cap(args, DEFAULT_MAX_CANDIDATES))
    if args.ud_only:
        refinements = tuple(d for d in refinements if _is_ud(d, args.max_states))
    return (
        True,
        {"count": len(refinements)},
        lambda: {"refinements": [[t.translate(d.alphabet.symbols) for t in d.indices] for d in refinements]},
        [str(d) for d in refinements],
    )


def _cmd_power(args, parsed):
    result = code_power(parsed.code, args.k, max_words=_cap(args, DEFAULT_MAX_POWER_WORDS))
    text = emit_code_file(result)
    return (
        True,
        {"k": args.k, "cardinality": len(result), "kraft_sum": kraft_sum(result)},
        lambda: {"words": text.split("\n")[1:-1]},
        [text[:-1]],
    )


def _cmd_chain(args, parsed):
    chain = power_chain(parsed.code, args.n, max_words=_cap(args, DEFAULT_MAX_POWER_WORDS))
    lines = []
    exact_values: dict[str, object] = {}
    for i, (member, value) in enumerate(zip(chain.members, chain.kraft_values)):
        exponent = 2**i
        lines.append(
            f"C^{exponent}: {len(member)} words, K = {exact_str(value)} (≈ {approx_str(value)})"
        )
        exact_values[f"kraft_2^{i}"] = value
        exact_values[f"cardinality_2^{i}"] = len(member)
    lines.append(f"descending: {'true' if chain.descending else 'false'}")
    lines.append(f"equal Kraft: {'true' if chain.equal_kraft else 'false'}")
    exact_values["descending"] = chain.descending
    exact_values["equal_kraft"] = chain.equal_kraft
    return True, exact_values, lambda: None, lines


def _summarize(report: PropositionReport) -> str:
    verdict = "PASS" if report.passed else "FAIL"
    pid = report.proposition_id
    if pid is PropositionId.MCMILLAN:
        value = report.get("kraft_sum")
        if report.get("status") == "out of hypothesis":
            return f"mcmillan: OUT OF HYPOTHESIS (not UD, K = {exact_str(value)} recorded)"
        return f"mcmillan: {verdict} (UD, K = {exact_str(value)} ≤ 1)"
    if pid is PropositionId.POWER_LAW:
        if report.get("is_ud"):
            return f"power-law: {verdict} (equality at k = 1..{report.get('effective_kmax')})"
        k = report.get("witness_k")
        lhs, rhs = report.get(f"k={k}.kraft_of_power"), report.get(f"k={k}.kraft_pow")
        return f"power-law: {verdict} (strict at k = {k}: {exact_str(lhs)} < {exact_str(rhs)})"
    if pid is PropositionId.MONOTONICITY:
        lhs, rhs = report.get("kraft_coarse"), report.get("kraft_fine")
        relation = "=" if lhs == rhs else "<" if lhs < rhs else ">"
        return (
            f"monotonicity: {verdict} (m = {report.get('cover_exponent_m')}, "
            f"K(C) = {exact_str(lhs)} {relation} K(D) = {exact_str(rhs)})"
        )
    if pid is PropositionId.EQUAL_KRAFT_FINITENESS:
        return f"equal-kraft-finiteness: {verdict} ({report.get('count')} equal-Kraft refinements)"
    # the last of the five ids: PropositionId.EQUAL_KRAFT_CHAIN
    value = report.get("kraft_sum")
    rendered = exact_str(value) if value is not None else "-"
    length = report.get("length")
    return f"equal-kraft-chain: {verdict} ({length} member{'' if length == 1 else 's'}, all K = {rendered})"


def _cmd_verify(args, parsed):
    reports, notes = verify(parsed.code, args.kmax, args.max_states,
                            _cap(args, DEFAULT_MAX_POWER_WORDS), _cap(args, DEFAULT_MAX_CANDIDATES))
    passed = all(r.passed for r in reports)
    # every report line and note starts "<check>:"; list them in check order
    rank = {proposition.value: i for i, proposition in enumerate(PropositionId)}
    lines = sorted([*map(_summarize, reports), *notes], key=lambda line: rank[line.partition(":")[0]])
    lines.append(f"verify: {'PASS' if passed else 'FAIL'}")
    return (
        passed,
        {"kraft_sum": kraft_sum(parsed.code), "checks": len(reports)},
        lambda: {"reports": reports, "notes": notes},
        lines,
    )


def export_hasse(code_files: Sequence[CodeFile]) -> str:
    """DOT text for the covering relations among the given codes.

    Nodes are the input codes in input order, labeled with their name and
    exact Kraft value; an edge C -> D means C is strictly below D in the
    refinement order with no input strictly between.  Output is
    deterministic for identical inputs; no codes give the empty graph.
    """
    return _hasse(code_files)[1]


def _hasse(code_files: Sequence[CodeFile]) -> tuple[dict[str, Fraction], str, list[str]]:
    """The Kraft value of each node by name, the DOT text, and its edges
    as ``"C" -> "D"`` without the closing semicolon."""
    for previous, parsed in zip(code_files, code_files[1:]):
        if parsed.code.alphabet != previous.code.alphabet:
            raise MixedAlphabetsError(
                f"codes mix alphabets {previous.code.alphabet.symbols!r} and {parsed.code.alphabet.symbols!r}"
            )
    names = _hasse_names(code_files)
    # DOT IDs and labels are double-quoted strings, in which \ and " are escaped
    ids = [name.replace("\\", "\\\\").replace('"', '\\"') for name in names]
    values = {name: kraft_sum(parsed.code) for name, parsed in zip(names, code_files)}
    codes = [parsed.code for parsed in code_files]
    n = len(codes)
    leq = [[i != j and codes[i] != codes[j] and refines(codes[i], codes[j]) for j in range(n)] for i in range(n)]
    below = [[leq[i][j] and not leq[j][i] for j in range(n)] for i in range(n)]
    edges = [
        f'"{ids[i]}" -> "{ids[j]}"'
        for i in range(n)
        for j in range(n)
        if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n))
    ]
    nodes = [f'"{id_}" [label="{id_}\\nK = {exact_str(value)}"]' for id_, value in zip(ids, values.values())]
    dot = "".join(f"  {line};\n" for line in (*nodes, *edges))
    return values, f"digraph refinement {{\n{dot}}}\n", edges


def _cmd_hasse(args, *code_files):
    values, dot, edges = _hasse(code_files)
    return True, values, lambda: {"dot": dot, "edges": edges}, [dot[:-1]]


def _hasse_names(code_files: Sequence[CodeFile]) -> list[str]:
    names: list[str] = []
    used: set[str] = set()
    for i, parsed in enumerate(code_files):
        stem = Path(parsed.path).stem if parsed.path else f"code{i}"
        name = stem
        suffix = 2
        while name in used:
            name = f"{stem}#{suffix}"
            suffix += 1
        used.add(name)
        names.append(name)
    return names


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


# The one command-line grammar, read by _build_parser and _match: each
# option string maps to its add_argument keywords, and each command to its
# help, handler, file metavars (None: one or more files) and options.
_OPTIONS = {
    "--json": dict(action="store_true", default=False, help="emit one JSON object instead of the human report"),
    "--max-states": dict(type=_at_least(0), default=DEFAULT_MAX_STATES, metavar="N",
                         help="cap on dangling-suffix states in the UD test"),
    "--max-tuples": dict(type=_at_least(0), default=None, metavar="N",
                         help="cap on enumerated tuples/candidates/power words"),
}
_COMMANDS = {
    "kraft": ("exact Kraft sum of a code", _cmd_kraft, ("file",), {}),
    "ud": ("test unique decipherability", _cmd_ud, ("file",), {}),
    "refines": ("test whether FINE refines COARSE", _cmd_refines, ("coarse", "fine"), {}),
    "irredundant": ("enumerate irredundant refinements", _cmd_irredundant, ("file",), {
        "--ud-only": dict(action="store_true", default=False, help="keep only uniquely decipherable refinements"),
    }),
    "power": ("compute the k-th power of a code", _cmd_power, ("file",),
              {"-k": dict(type=_at_least(1), required=True, metavar="K")}),
    "chain": ("compute the power chain C, C^2, ..., C^(2^n)", _cmd_chain, ("file",),
              {"-n": dict(type=_at_least(0), required=True, metavar="N")}),
    "verify": ("run all proposition checks on a code", _cmd_verify, ("file",),
               {"--kmax": dict(type=_at_least(2), default=3, metavar="K")}),
    "hasse": ("DOT export of covering relations among codes", _cmd_hasse, None, {}),
}


@functools.cache
def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built for the first argv _match declines, and reused: parse_args leaves it unchanged
    parser = argparse.ArgumentParser(
        prog="codekraft",
        description="Exact Kraft sums, unique-decipherability tests, and the refinement order on codes.",
    )
    for flag, spec in _OPTIONS.items():
        parser.add_argument(flag, **spec)
    # every command's code files collect in ``files``, in command-line order
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, metavars, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for metavar in metavars or ():
            p.add_argument("files", action="append", metavar=metavar)
        if metavars is None:
            p.add_argument("files", nargs="+")
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
    return parser


def _match(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse builds for ``argv`` when each option in it is
    spelled exactly, in its place, with a valid value; otherwise None."""
    values = {_dest(flag): spec["default"] for flag, spec in _OPTIONS.items()}
    options, files, command = _OPTIONS, [], None
    tokens = iter(argv)
    for token in tokens:
        spec = options.get(token)
        if spec is not None and "type" not in spec:
            values[_dest(token)] = True
        elif spec is not None:
            text = next(tokens, "-")
            if text.startswith("-"):
                return None
            try:
                values[_dest(token)] = spec["type"](text)
            except (ValueError, argparse.ArgumentTypeError):
                return None
        elif token.startswith("-"):
            return None
        elif command is not None:
            files.append(token)
        elif token in _COMMANDS:
            command = token
            _help, handler, metavars, options = _COMMANDS[token]
            values.update((_dest(flag), spec.get("default")) for flag, spec in options.items())
        else:
            return None
    if (command is None or (len(files) != len(metavars) if metavars else not files)
            or any(spec.get("required") and values[_dest(flag)] is None for flag, spec in options.items())):
        return None
    args = argparse.Namespace()
    vars(args).update(values, command=command, files=files, handler=handler)
    return args


def run_command(argv: Sequence[str], stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Run one CLI invocation; returns the exit status.

    Loads the code files named in ``argv``, writes one report, human or
    ``--json``, to ``stdout`` and diagnostics to ``stderr`` (defaulting to
    the process streams).  The status is 0 when the command's verdict holds
    and 1 when it does not; 2 and 3 print no report.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    argv = list(argv)
    args = _match(argv)
    if args is None:
        try:
            with redirect_stdout(out), redirect_stderr(err):
                args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    try:
        verdict, exact_values, witnesses, lines = args.handler(args, *[_load(path, err) for path in args.files])
        if args.json:
            payload = {
                "command": args.command,
                "inputs": args.files,
                "verdict": verdict,
                "exact_values": exact_values,
                "witnesses": witnesses(),
            }
            print(json.dumps(payload, indent=2, ensure_ascii=False, default=_json_default), file=out)
        elif lines:
            out.write("\n".join(lines) + "\n")
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=err)
        return 3
    except (CodeFileError, UnknownSymbolError, MixedAlphabetsError, EmptyCodeError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    return 0 if verdict else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
