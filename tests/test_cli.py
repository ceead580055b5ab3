"""Code-file parsing, command dispatch, exit codes, and DOT export."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from codekraft import (
    ChainViolationError,
    CodeFileError,
    EmptyWordError,
    MissingAlphabetError,
    UnknownSymbolError,
    Word,
    emit_code_file,
    export_hasse,
    first_factorization,
    kraft_sum,
    parse_code_file,
    run_command,
)
from codekraft import cli

from helpers import bcode

FIXTURES = Path(__file__).parent / "fixtures"


def run(*argv, cwd_fixtures=True):
    out, err = io.StringIO(), io.StringIO()
    status = run_command(list(argv), stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


def fix(name):
    return str(FIXTURES / name)


class TestParseCodeFile:
    def test_plain_grammar(self):
        parsed = parse_code_file("alphabet 01\n0\n10\n11\n")
        assert parsed.code == bcode("0", "10", "11")
        assert parsed.code.alphabet.symbols == "01"

    def test_comments_and_blanks_skipped(self):
        parsed = parse_code_file("alphabet 01\n# comment\n\n0011\n")
        assert parsed.code == bcode("0011")

    def test_duplicate_alphabet_symbol(self):
        with pytest.raises(CodeFileError) as exc:
            parse_code_file("alphabet 011\n0\n")
        assert "duplicate" in str(exc.value)

    def test_hash_symbol_rejected_with_line(self):
        # a word starting with the symbol would be skipped as a comment
        with pytest.raises(CodeFileError) as exc:
            parse_code_file("# header\nalphabet 0#1\n0\n")
        assert exc.value.line == 2 and "'#'" in str(exc.value)

    def test_missing_alphabet(self):
        with pytest.raises(MissingAlphabetError):
            parse_code_file("# nothing here\n")
        with pytest.raises(MissingAlphabetError):
            parse_code_file("0\n10\n")

    def test_unknown_symbol_carries_line(self):
        with pytest.raises(UnknownSymbolError) as exc:
            parse_code_file("alphabet 01\n0\n012\n")
        assert exc.value.line == 3

    def test_duplicate_word_warns(self):
        parsed = parse_code_file("alphabet 01\n0\n10\n10\n")
        assert parsed.code == bcode("0", "10")
        assert len(parsed.warnings) == 1 and "duplicate" in parsed.warnings[0]

    def test_multiple_tokens_rejected(self):
        with pytest.raises(CodeFileError):
            parse_code_file("alphabet 01\n0 1\n")

    def test_bytes_accepted(self):
        parsed = parse_code_file(b"alphabet 01\n0\n")
        assert parsed.code == bcode("0")

    def test_bytes_not_utf8_rejected_with_line(self):
        with pytest.raises(CodeFileError) as exc:
            parse_code_file(b"alphabet 01\n0\n1\xff0\n")
        assert exc.value.line == 3 and "utf-8" in str(exc.value)

    def test_byte_order_mark_ignored(self):
        # as Windows Notepad saves UTF-8; line numbers still count from the file's first line
        text = b"# header\nalphabet 01\n0\n10\n0\n10\n"
        plain, marked = parse_code_file(text), parse_code_file(b"\xef\xbb\xbf" + text)
        assert marked == plain
        assert marked.warnings == ("line 5: duplicate word '0'", "line 6: duplicate word '10'")
        assert parse_code_file("\ufeff" + text.decode()) == plain

    def test_byte_order_mark_keeps_bad_byte_line(self):
        with pytest.raises(CodeFileError) as exc:
            parse_code_file(b"\xef\xbb\xbfalphabet 01\n0\n1\xff0\n")
        assert exc.value.line == 3 and "utf-8" in str(exc.value)

    def test_round_trip_is_byte_identical(self):
        canonical = "alphabet 01\n0\n10\n11\n"
        parsed = parse_code_file(canonical)
        assert emit_code_file(parsed.code) == canonical

    def test_emit_sorts_shortlex(self):
        parsed = parse_code_file("alphabet 01\n11\n0\n")
        assert emit_code_file(parsed.code) == "alphabet 01\n0\n11\n"


class TestExitCodes:
    def test_ud_pass_and_fail(self):
        assert run("ud", fix("prefix.code"))[0] == 0
        assert run("ud", fix("ambiguous.code"))[0] == 1

    def test_usage_error(self):
        assert run("no-such-command")[0] == 2
        assert run()[0] == 2
        assert run("ud")[0] == 2

    def test_missing_file(self, tmp_path, monkeypatch):
        # the message names the path as pathlib normalizes it
        monkeypatch.chdir(tmp_path)
        for path, shown in ((str(FIXTURES) + "/./nope.code", str(FIXTURES / "nope.code")), ("./nope.code", "nope.code")):
            status, out, err = run("ud", path)
            assert (status, out) == (2, "")
            assert err == f"error: [Errno 2] No such file or directory: {shown!r}\n"

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.code"
        bad.write_text("0\n10\n")
        status, _out, err = run("ud", str(bad))
        assert status == 2 and "alphabet" in err

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (("power", "prefix.code", "-k", "0"), "argument -k: must be at least 1, got 0"),
            (("chain", "prefix.code", "-n", "-1"), "argument -n: must be at least 0, got -1"),
            (("verify", "prefix.code", "--kmax", "1"), "argument --kmax: must be at least 2, got 1"),
            (("--max-states", "-1", "verify", "prefix.code"), "argument --max-states: must be at least 0, got -1"),
            (("--max-tuples", "-1", "verify", "prefix.code"), "argument --max-tuples: must be at least 0, got -1"),
        ],
    )
    def test_option_out_of_range(self, argv, problem):
        status, out, err = run(*(fix(a) if a.endswith(".code") else a for a in argv))
        assert (status, out) == (2, "") and problem in err

    def test_hash_symbol_is_an_input_error(self, tmp_path):
        # once read as alphabet "#01" with the word "#0" skipped: K = 1/9
        bad = tmp_path / "hash.code"
        bad.write_text("alphabet #01\n#0\n01\n")
        status, out, err = run("kraft", str(bad))
        assert (status, out) == (2, "")
        assert err == "error: line 1: '#' starts a comment and cannot be an alphabet symbol\n"

    def test_file_not_utf8(self, tmp_path):
        bad = tmp_path / "bad.code"
        bad.write_bytes(b"alphabet 01\n0\n1\xff0\n")
        status, out, err = run("ud", str(bad))
        assert (status, out) == (2, "")
        assert err.startswith("error: line 3: 'utf-8' codec can't decode byte 0xff")

    def test_file_with_byte_order_mark(self, tmp_path):
        marked = tmp_path / "bom.code"
        marked.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "prefix.code").read_bytes())
        assert run("kraft", str(marked)) == run("kraft", fix("prefix.code"))
        assert run("kraft", str(marked))[0] == 0

    def test_internal_error_is_not_a_usage_error(self, monkeypatch):
        def broken(code, max_states):
            raise ValueError("a UD verdict carries no witness")

        monkeypatch.setattr(cli, "is_ud", broken)
        with pytest.raises(ValueError, match="carries no witness"):
            run("ud", fix("prefix.code"))

    def test_internal_chain_violation_is_not_a_failed_property(self, monkeypatch):
        def broken(*args):
            raise ChainViolationError("members 0 and 1 are equal", index=0)

        monkeypatch.setattr(cli, "verify", broken)
        with pytest.raises(ChainViolationError, match="are equal"):
            run("verify", fix("prefix.code"))

    def test_internal_empty_word_is_not_a_usage_error(self, monkeypatch):
        # no file or flag yields an empty word, so one can only come from a bug
        def broken(code):
            raise EmptyWordError("the null string is not a word")

        monkeypatch.setattr(cli, "kraft_sum", broken)
        with pytest.raises(EmptyWordError, match="null string"):
            run("kraft", fix("prefix.code"))

    def test_mixed_alphabets_are_an_input_error(self, tmp_path):
        other = tmp_path / "ab.code"
        other.write_text("alphabet ab\nab\n")
        # the empty coarse code has no word to factor, so only the alphabet check can reject it
        for coarse in ("prefix.code", "empty.code"):
            assert run("refines", fix(coarse), str(other)) == (2, "", "error: values are over different alphabets\n")

    def test_resource_limit(self):
        status, _out, err = run("--max-tuples", "100", "power", fix("prefix.code"), "-k", "20")
        assert status == 3 and "error:" in err

    def test_ud_gate_cap_in_verify(self):
        # {0, 011} has the dangling suffix 11, {0, 10, 11} has none
        status, out, err = run("--max-states", "0", "verify", fix("fine.code"))
        assert (status, out, err) == (3, "", "error: dangling-suffix iteration exceeded 0 states\n")
        assert run("--max-states", "0", "verify", fix("prefix.code"))[0] == 0

    def test_capped_verify_check_is_skipped(self):
        skipped = [
            "power-law: SKIPPED (resource limit: |code|^k = 81 exceeds the cap of 10)",
            "monotonicity: SKIPPED (code is not uniquely decipherable)",
            "equal-kraft-finiteness: SKIPPED (code is not uniquely decipherable)",
            "equal-kraft-chain: SKIPPED (code is not uniquely decipherable)",
        ]
        status, out, err = run("--max-tuples", "10", "verify", fix("ambiguous.code"))
        assert (status, err) == (0, "")
        assert out.splitlines() == [
            "mcmillan: OUT OF HYPOTHESIS (not UD, K = 1/1 recorded)", *skipped, "verify: PASS",
        ]
        status, out, err = run("--json", "--max-tuples", "10", "verify", fix("ambiguous.code"))
        assert (status, err) == (0, "")
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["exact_values"]["checks"] == 1
        assert [r["id"] for r in payload["witnesses"]["reports"]] == ["mcmillan"]
        assert payload["witnesses"]["notes"] == skipped

    def test_power_law_at_k_one_is_not_capped(self):
        # |C| = 3 > 2, but k = 1 builds nothing; the chain is C alone
        status, out, err = run("--max-tuples", "2", "verify", fix("prefix.code"))
        assert (status, err) == (0, "")
        assert out.splitlines() == [
            "mcmillan: PASS (UD, K = 1/1 ≤ 1)",
            "power-law: PASS (equality at k = 1..1)",
            "monotonicity: PASS (m = 2, K(C) = 1/1 = K(D) = 1/1)",
            "equal-kraft-finiteness: PASS (2 equal-Kraft refinements)",
            "equal-kraft-chain: PASS (1 member, all K = 1/1)",
            "verify: PASS",
        ]

    def test_verify_lines_follow_check_order(self, tmp_path):
        path = tmp_path / "empty.code"
        path.write_text("alphabet 01\n")
        notes = ["monotonicity: SKIPPED (empty code)", "equal-kraft-chain: SKIPPED (empty code)"]
        status, out, _ = run("verify", str(path))
        assert status == 0
        assert out.splitlines() == [
            "mcmillan: PASS (UD, K = 0/1 ≤ 1)",
            "power-law: PASS (equality at k = 1..3)",
            notes[0],
            "equal-kraft-finiteness: PASS (1 equal-Kraft refinements)",
            notes[1],
            "verify: PASS",
        ]
        # the JSON payload keeps reports and notes apart
        payload = json.loads(run("--json", "verify", str(path))[1])
        ids = [r["id"] for r in payload["witnesses"]["reports"]]
        assert ids == ["mcmillan", "power-law", "equal-kraft-finiteness"]
        assert payload["witnesses"]["notes"] == notes

    def test_help_exits_zero(self):
        assert run("--help")[0] == 0


class TestParserReuse:
    """run_command builds its argument parser once and reuses it."""

    def test_json_flag_does_not_leak_into_next_call(self):
        status, out, _ = run("--json", "kraft", fix("prefix.code"))
        assert status == 0 and json.loads(out)["command"] == "kraft"
        assert run("kraft", fix("prefix.code"))[1] == "1/1 (≈ 1.00000000000)\n"

    def test_usage_error_after_success(self):
        assert run("kraft", fix("prefix.code"))[0] == 0
        assert run("kraft")[0] == 2

    def test_help_after_success(self):
        assert run("kraft", fix("prefix.code"))[0] == 0
        status, out, _ = run("--help")
        assert status == 0 and out.startswith("usage: codekraft")

    def test_calls_share_one_parser(self, monkeypatch):
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: built.append(build()) or built[-1])
        # abbreviated options reach argparse; exact spellings never build it
        run("--js", "kraft", fix("prefix.code"))
        run("--max-s=5", "ud", fix("prefix.code"))
        assert len(built) == 2 and built[0] is built[1]


def _argparse_namespace(argv):
    """What the argparse parser makes of ``argv``: its namespace's vars, or None if it exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(list(argv)))
    except SystemExit:
        return None


# the grammar, restated: command -> (file count, required options, optional ones)
_GRAMMAR = {
    "kraft": (1, [], []), "ud": (1, [], []), "refines": (2, [], []), "irredundant": (1, [], ["--ud-only"]),
    "power": (1, ["-k"], []), "chain": (1, ["-n"], []), "verify": (1, [], ["--kmax"]), "hasse": (3, [], []),
}
_TAKES_VALUE = {"--max-states", "--max-tuples", "-k", "-n", "--kmax"}
_VALUES = ["0", "1", "2", "3", "2000", "1_000", "\u0663", " 2", "-1", "-0", "-0_0", "x", ""]
_OTHER_TOKENS = [
    "--js", "--max-s", "--max-t", "--max", "--json=1", "--max-states=5", "--max-t=2000", "--ud", "-k2", "-k=3",
    "-n1", "--n", "--km", "--kmax=4", "-h", "--help", "--", "-", "verif", "nope", "a=b", "verify", *_GRAMMAR,
    *_TAKES_VALUE, "--json", "--ud-only",
]


@st.composite
def argvs(draw):
    """An exactly spelled argv, or one with up to three tokens replaced,
    inserted or deleted: abbreviations, ``=`` forms, ``--``, bad values,
    repeated and misplaced options."""
    name = draw(st.sampled_from(sorted(_GRAMMAR)))
    files, required, optional = _GRAMMAR[name]

    def pieces(flags):
        # each option spelled exactly, or as a prefix, with "=" or attached to its value
        out = []
        for flag in flags:
            spelled = flag if draw(st.booleans()) else draw(st.sampled_from([flag[:n] for n in range(3, len(flag))] or [flag]))
            if flag not in _TAKES_VALUE:
                out.append([spelled])
                continue
            value = draw(st.sampled_from(_VALUES))
            joiner = draw(st.sampled_from([None, "=", ""] if len(flag) == 2 else [None, "="]))
            out.append([spelled, value] if joiner is None else [spelled + joiner + value])
        return out

    head = pieces(draw(st.lists(st.sampled_from(["--json", "--max-states", "--max-tuples"]), max_size=3)))
    tail = [[draw(st.sampled_from(["a.code", "b.code", "verify", ""]))] for _ in range(files)]
    tail += pieces(required + draw(st.lists(st.sampled_from(optional), max_size=2)) if optional else required)
    argv = [t for piece in [*head, [name], *draw(st.permutations(tail))] for t in piece]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        token = draw(st.sampled_from(_OTHER_TOKENS + _VALUES))
        if edit == "insert":
            argv.insert(i, token)
        elif i < len(argv):
            argv[i:i + 1] = [token] if edit == "replace" else []
    return argv


class TestArgvMatcher:
    """The exact matcher agrees with argparse wherever it answers."""

    @seed(20261020)
    @settings(max_examples=600, deadline=None)
    @given(argvs())
    def test_matches_argparse_or_declines(self, argv):
        matched = cli._match(argv)
        if matched is not None:
            assert vars(matched) == _argparse_namespace(argv), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["kraft", "a.code"],
            ["--json", "--max-states", "0", "--max-tuples", "2000", "ud", "a.code"],
            ["--max-states", "5", "--max-states", "\u0663", "refines", "a.code", "b.code"],
            ["irredundant", "--ud-only", "a.code", "--ud-only"],
            ["power", "a.code", "-k", "1_000"],
            ["power", "-k", "2", "a.code", "-k", " 3"],
            ["chain", "-n", "0", "verify"],
            ["verify", "--kmax", "2", "a=b"],
            ["verify", ""],
            ["hasse", "a.code", "b.code", "a.code"],
        ],
    )
    def test_accepts_exact_spellings(self, argv):
        matched = cli._match(argv)
        assert matched is not None and vars(matched) == _argparse_namespace(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["--json"], ["kraft"], ["ud", "a.code", "b.code"], ["power", "a.code"], ["power", "a.code", "-k", "0"],
            ["chain", "a.code", "-n", "-0"], ["verify", "a.code", "--kmax"], ["--js", "kraft", "a.code"],
            ["kraft", "--json", "a.code"], ["--kmax", "3", "verify", "a.code"], ["ud", "--", "a.code"], ["ud", "-"],
            ["verify", "a.code", "--kmax=3"], ["power", "a.code", "-k3"], ["nope", "a.code"], ["hasse"], ["kraft", "-h"],
        ],
    )
    def test_declines_everything_else(self, argv):
        assert cli._match(argv) is None


class TestCommands:
    def test_kraft_output(self):
        status, out, _ = run("kraft", fix("prefix.code"))
        assert status == 0
        assert out == "1/1 (≈ 1.00000000000)\n"

    def test_ud_witness_line(self):
        status, out, _ = run("ud", fix("ambiguous.code"))
        assert status == 1
        assert out == "not UD: 010 = 0·10 = 01·0\n"

    def test_refines_witnesses(self):
        status, out, _ = run("refines", fix("squareword.code"), fix("fine.code"))
        assert status == 0
        assert out == "0011 = 0·011\n"

    def test_refines_failure(self):
        status, out, _ = run("refines", fix("fine.code"), fix("single.code"))
        assert status == 1
        assert "not a refinement" in out

    def test_irredundant_listing(self):
        status, out, _ = run("irredundant", fix("squareword.code"))
        assert status == 0
        assert out.splitlines() == [
            "{0, 1}",
            "{0, 11}",
            "{0, 011}",
            "{1, 00}",
            "{1, 001}",
            "{00, 11}",
            "{0011}",
        ]

    def test_irredundant_ud_only(self, tmp_path):
        path = tmp_path / "amb.code"
        path.write_text("alphabet 01\n0\n01\n10\n")
        full, _ = run("irredundant", str(path))[1], None
        filtered = run("irredundant", str(path), "--ud-only")[1]
        assert full.splitlines() == ["{0, 1}", "{0, 01, 10}"]
        assert filtered.splitlines() == ["{0, 1}"]

    def test_power_emits_code_file(self):
        status, out, _ = run("power", fix("prefix.code"), "-k", "2")
        assert status == 0
        assert out.startswith("alphabet 01\n00\n")
        reparsed = parse_code_file(out)
        assert len(reparsed.code) == 9

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    @pytest.mark.parametrize("argv", [
        ("power", fix("prefix.code"), "-k", "3"),
        ("irredundant", fix("prefix.code")),
        ("refines", fix("prefix.code"), fix("unit.code")),
        ("refines", fix("unit.code"), fix("single.code")),
    ])
    def test_printing_builds_no_word_index(self, argv, flags, monkeypatch):
        # parsed codes are key-built too and every code prints from its keys;
        # refines factors over the fine code's key index
        def refuse_words(alphabet, key):
            raise AssertionError(f"word built for {key!r}")

        def refuse_index(self):
            raise AssertionError(f"factor index built for {self.indices}")

        expected = run(*flags, *argv)
        monkeypatch.setattr(Word, "_from_key", refuse_words)
        if argv[0] != "refines":
            monkeypatch.setattr(cli.Code, "factor_index", refuse_index)
        assert run(*flags, *argv) == expected
        assert expected[0] == (1 if argv[1:] == (fix("unit.code"), fix("single.code")) else 0)

    def test_chain_report(self):
        status, out, _ = run("chain", fix("prefix.code"), "-n", "1")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "C^1: 3 words, K = 1/1 (≈ 1.00000000000)"
        assert lines[-2] == "descending: true"
        assert lines[-1] == "equal Kraft: true"

    def test_verify_pass_and_summary(self):
        status, out, _ = run("verify", fix("prefix.code"))
        assert status == 0
        assert out.splitlines()[-1] == "verify: PASS"
        assert "mcmillan: PASS" in out

    def test_verify_five_word_prefix_code(self, tmp_path):
        path = tmp_path / "five.code"
        path.write_text("alphabet 01\n0\n10\n110\n1110\n1111\n")
        status, out, _ = run("verify", str(path))
        assert status == 0
        assert out.splitlines() == [
            "mcmillan: PASS (UD, K = 1/1 ≤ 1)",
            "power-law: PASS (equality at k = 1..3)",
            "monotonicity: PASS (m = 4, K(C) = 1/1 = K(D) = 1/1)",
            "equal-kraft-finiteness: PASS (3 equal-Kraft refinements)",
            "equal-kraft-chain: PASS (2 members, all K = 1/1)",
            "verify: PASS",
        ]
        status, out, _ = run("--json", "verify", str(path))
        assert status == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["witnesses"]["notes"] == []
        reports = payload["witnesses"]["reports"]
        assert [(r["id"], r["passed"]) for r in reports] == [
            ("mcmillan", True),
            ("power-law", True),
            ("monotonicity", True),
            ("equal-kraft-finiteness", True),
            ("equal-kraft-chain", True),
        ]
        assert reports[3]["details"]["count"] == 3
        assert reports[4]["details"]["length"] == 2

    def test_certificate_check_survives_optimized_mode(self):
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-O", "-m", "codekraft.cli", "ud", fix("ambiguous.code")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == "not UD: 010 = 0·10 = 01·0\n"

    def test_package_runs_as_module(self):
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "codekraft", "ud", fix("ambiguous.code")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == "not UD: 010 = 0·10 = 01·0\n"
        assert "RuntimeWarning" not in result.stderr

    def test_human_report_builds_no_json(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a human report built a JSON witness")

        help_, handler, *rest = cli._COMMANDS["verify"]

        def without_witnesses(*args):
            verdict, exact_values, _witnesses, lines = handler(*args)
            return verdict, exact_values, refuse, lines

        monkeypatch.setitem(cli._COMMANDS, "verify", (help_, without_witnesses, *rest))
        monkeypatch.setattr(cli, "_json_default", refuse)
        status, out, _ = run("verify", fix("prefix.code"))
        assert (status, out) == (0, (FIXTURES.parent / "golden" / "verify_prefix.txt").read_text())

    def test_verify_non_ud_out_of_hypothesis(self):
        status, out, _ = run("verify", fix("ambiguous.code"))
        assert status == 0
        assert "OUT OF HYPOTHESIS" in out
        assert "SKIPPED" in out

    def test_warning_on_duplicates(self, tmp_path):
        path = tmp_path / "dup.code"
        path.write_text("alphabet 01\n0\n0\n")
        status, _out, err = run("kraft", str(path))
        assert status == 0 and "duplicate" in err


class TestJsonMode:
    def test_schema_keys(self):
        status, out, _ = run("--json", "kraft", fix("prefix.code"))
        assert status == 0
        payload = json.loads(out)
        assert list(payload) == ["command", "inputs", "verdict", "exact_values", "witnesses"]
        assert payload["verdict"] is True

    def test_rationals_as_decimal_strings(self):
        payload = json.loads(run("--json", "kraft", fix("prefix.code"))[1])
        assert payload["exact_values"]["kraft_sum"] == {"num": "1", "den": "1"}

    def test_ud_witness_payload(self):
        payload = json.loads(run("--json", "ud", fix("ambiguous.code"))[1])
        assert payload["verdict"] is False
        assert payload["witnesses"] == {"word": "010", "left": ["0", "10"], "right": ["01", "0"]}

    def test_verify_reports_embedded(self):
        payload = json.loads(run("--json", "verify", fix("prefix.code"))[1])
        ids = [r["id"] for r in payload["witnesses"]["reports"]]
        assert ids[0] == "mcmillan" and "power-law" in ids

    def test_big_integers_survive_as_strings(self):
        payload = json.loads(run("--json", "kraft", fix("single.code"))[1])
        assert payload["exact_values"]["kraft_sum"] == {"num": "1", "den": "16"}


def digits(text: str) -> int:
    # int(text) refuses more than 4,300 digits, as str(int) does
    return int(Decimal(text))


class TestIntegersPastTheDigitLimit:
    """Python's str refuses an int of more than 4,300 digits; every exact
    value and cap message prints in full, whatever its size."""

    @pytest.fixture
    def long_word(self, tmp_path):
        # K = 2^-15000, whose denominator has 4,516 digits
        path = tmp_path / "long.code"
        path.write_text("alphabet 01\n" + "0" * 15_000 + "\n", encoding="utf-8")
        return str(path)

    def test_kraft(self, long_word):
        status, out, err = run("kraft", long_word)
        assert (status, err) == (0, "")
        num, den = out.partition(" (≈ ")[0].split("/")
        assert (num, digits(den)) == ("1", 2**15_000)
        payload = json.loads(run("--json", "kraft", long_word)[1])
        assert digits(payload["exact_values"]["kraft_sum"]["den"]) == 2**15_000

    def test_json_verify_at_a_large_kmax(self, tmp_path):
        # K = 2/2^10 = 1/512, and 512^k has more than 4,300 digits from k = 1,588 on
        path = tmp_path / "pair.code"
        path.write_text("alphabet 01\n0000000000\n0000000001\n", encoding="utf-8")
        status, out, err = run("--json", "verify", "--kmax", "1600", str(path))
        assert (status, err) == (0, "")
        mcmillan = json.loads(out)["witnesses"]["reports"][0]
        value = mcmillan["details"]["k=1600.kraft_pow"]
        assert (value["num"], digits(value["den"])) == ("1", 512**1600)

    def test_chain(self):
        status, out, err = run("chain", "-n", "12", fix("single.code"))
        assert (status, err) == (0, "")
        top = out.splitlines()[-3]
        assert top.startswith("C^4096: 1 words, K = 1/")
        assert digits(top.split("/")[1].split(" ")[0]) == 16**4096

    def test_power_cap_message(self):
        status, out, err = run("power", "-k", "20000", fix("prefix.code"))
        assert (status, out) == (3, "")
        count, cap = err.removeprefix("error: |code|^k = ").split(" exceeds the cap of ")
        assert (digits(count), cap) == (3**20_000, "100000\n")

    def test_verify_skips_the_composition_cap(self, long_word):
        status, out, err = run("verify", long_word)
        assert (status, err) == (0, "")
        assert out.splitlines()[-1] == "verify: PASS"
        (note,) = [line for line in out.splitlines() if line.startswith("equal-kraft-finiteness:")]
        count = note.removeprefix("equal-kraft-finiteness: SKIPPED (resource limit: word of length 15000 has ")
        count, cap = count.split(" compositions, more than the cap of ")
        assert (digits(count), cap) == (2**14_999, "1000000)")


def refines_rendering(coarse_path, fine_path, json_mode):
    """The report of ``refines COARSE FINE``, built from the public
    first_factorization, one coarse word at a time in shortlex order."""
    coarse, fine = (parse_code_file(Path(p).read_text(encoding="utf-8")).code for p in (coarse_path, fine_path))
    witnesses = {}
    for word in coarse:
        factorization = first_factorization(word, fine)
        if factorization is None:
            if json_mode:
                payload = {"command": "refines", "inputs": [coarse_path, fine_path], "verdict": False,
                           "exact_values": {}, "witnesses": {"failing_word": word.text}}
                return 1, json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
            return 1, f"not a refinement: no factorization of {word.text}\n"
        witnesses[word.text] = factorization
    if not json_mode:
        return 0, "".join(f"{text} = {factorization}\n" for text, factorization in witnesses.items())
    exact = {name: {"num": str(value.numerator), "den": str(value.denominator)}
             for name, value in (("kraft_coarse", kraft_sum(coarse)), ("kraft_fine", kraft_sum(fine)))}
    payload = {"command": "refines", "inputs": [coarse_path, fine_path], "verdict": True, "exact_values": exact,
               "witnesses": {text: [w.text for w in f.factors] for text, f in witnesses.items()}}
    return 0, json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


class TestRefinesCommand:
    """The refines report against a rendering from the public API."""

    @staticmethod
    def pairs(seed, count):
        # fine codes of 1-5 words, UD or not; coarse words are concatenations
        # of fine words, or, in about half the codes, also random words
        rng = random.Random(seed)
        for _ in range(count):
            symbols = rng.choice(("01", "012", "ab"))
            fine = {"".join(rng.choices(symbols, k=rng.randint(1, 3))) for _ in range(rng.randint(1, 5))}
            words = sorted(fine)
            coarse = {"".join(rng.choices(words, k=rng.randint(1, 4))) for _ in range(rng.randint(0, 6))}
            if rng.random() < 0.5:
                coarse |= {"".join(rng.choices(symbols, k=rng.randint(1, 5))) for _ in range(rng.randint(1, 2))}
            yield symbols, coarse, fine

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_matches_public_rendering(self, tmp_path, json_mode):
        statuses = set()
        for i, (symbols, coarse, fine) in enumerate(self.pairs(20261020, 80)):
            paths = []
            for name, words in (("coarse", coarse), ("fine", fine)):
                path = tmp_path / f"{name}{i}.code"
                path.write_text(f"alphabet {symbols}\n" + "".join(w + "\n" for w in words), encoding="utf-8")
                paths.append(str(path))
            flags = ("--json",) if json_mode else ()
            status, out, err = run(*flags, "refines", *paths)
            assert (status, out) == refines_rendering(*paths, json_mode), (coarse, fine)
            assert err == ""
            statuses.add(status)
        assert statuses == {0, 1}


class TestHasse:
    def test_chain_of_three(self):
        status, out, _ = run("hasse", fix("squareword.code"), fix("fine.code"), fix("unit.code"))
        assert status == 0
        assert '"squareword" -> "fine";' in out
        assert '"fine" -> "unit";' in out
        assert '"squareword" -> "unit";' not in out  # transitive edge reduced

    def test_single_code_no_edges(self):
        out = run("hasse", fix("prefix.code"))[1]
        assert "->" not in out

    def test_incomparable_codes(self):
        out = run("hasse", fix("pair0.code"), fix("pair1.code"))[1]
        assert "->" not in out
        assert '"pair0"' in out and '"pair1"' in out

    def test_mixed_alphabets_rejected(self, tmp_path):
        other = tmp_path / "abc.code"
        other.write_text("alphabet ab\na\n")
        status, _out, err = run("hasse", fix("prefix.code"), str(other))
        assert status == 2 and "alphabet" in err

    def test_same_stem_in_two_directories(self, tmp_path):
        for directory in ("a", "b"):
            (tmp_path / directory).mkdir()
            (tmp_path / directory / "x.code").write_text("alphabet 01\n0\n1\n")
        out = run("hasse", str(tmp_path / "a" / "x.code"), str(tmp_path / "b" / "x.code"))[1]
        assert '  "x" [label="x\\nK = 1/1"];\n  "x#2" [label="x#2\\nK = 1/1"];\n' in out
        assert "->" not in out

    def test_labels_carry_exact_kraft(self):
        out = run("hasse", fix("unit.code"))[1]
        assert '"unit" [label="unit\\nK = 1/1"];' in out

    def test_json_edges_come_from_the_relation(self, tmp_path):
        arrow = tmp_path / "a->b.code"
        arrow.write_text("alphabet 01\n0\n1\n")
        square = tmp_path / "sq.code"
        square.write_text("alphabet 01\n0011\n")
        payload = json.loads(run("--json", "hasse", str(arrow), str(square))[1])
        assert payload["witnesses"]["edges"] == ['"sq" -> "a->b"']
        assert '  "sq" -> "a->b";\n' in payload["witnesses"]["dot"]

    def test_quotes_and_backslashes_escaped(self, tmp_path):
        quoted = tmp_path / 'q"x.code'
        quoted.write_text("alphabet 01\n0011\n")
        slashed = tmp_path / "b\\s.code"
        slashed.write_text("alphabet 01\n0\n1\n")
        out = run("hasse", str(quoted), str(slashed))[1]
        assert '  "q\\"x" [label="q\\"x\\nK = 1/16"];\n' in out
        assert '  "b\\\\s" [label="b\\\\s\\nK = 1/1"];\n' in out
        assert '  "q\\"x" -> "b\\\\s";\n' in out

    def test_line_separators_in_names_print_as_in_json(self, tmp_path):
        # str.splitlines would also split the name at "\r"
        odd = tmp_path / "a\rb.code"
        odd.write_text("alphabet 01\n0\n1\n")
        status, out, _ = run("hasse", str(odd), fix("prefix.code"))
        payload = json.loads(run("--json", "hasse", str(odd), fix("prefix.code"))[1])
        assert status == 0 and out == payload["witnesses"]["dot"]
        assert '  "a\rb" [label="a\rb\\nK = 1/1"];\n' in out

    def test_export_deterministic(self):
        parsed = [
            parse_code_file((FIXTURES / n).read_bytes(), path=str(FIXTURES / n))
            for n in ("squareword.code", "fine.code", "unit.code")
        ]
        assert export_hasse(parsed) == export_hasse(parsed)

    def test_export_of_no_codes_is_the_empty_graph(self):
        assert export_hasse([]) == "digraph refinement {\n}\n"


@st.composite
def small_codes(draw):
    """An alphabet of 1 to 3 symbols, and two codes over it of 0 to 4 words
    of 1 to 4 symbols."""
    symbols = "012"[: draw(st.integers(min_value=1, max_value=3))]
    words = st.lists(st.text(symbols, min_size=1, max_size=4), max_size=4, unique=True)
    return symbols, draw(words), draw(words)


class TestRobustness:
    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(small_codes())
    def test_every_command_exits_with_a_status(self, tmp_path_factory, codes):
        symbols, words, other = codes
        # the square of a 4-word code has up to 16 words: the batched search's size
        square = sorted({x + y for x in words for y in words})
        directory = tmp_path_factory.mktemp("codes")
        files = []
        for name, members in (("code", words), ("other", other), ("square", square), ("empty", [])):
            path = directory / f"{name}.code"
            path.write_text(f"alphabet {symbols}\n" + "".join(f"{w}\n" for w in members))
            files.append(str(path))
        code, other, square, empty = files
        # each command spelled exactly, and with spellings only argparse reads
        commands = [
            (("kraft", code), ("kraft", "--", code)),
            (("ud", code), ("ud", code)),
            (("refines", code, other), ("refines", code, other)),
            (("refines", square, other), ("refines", square, other)),
            (("refines", other, square), ("refines", "--", other, square)),
            (("refines", square, empty), ("refines", square, empty)),
            (("irredundant", code), ("irredundant", code)),
            (("irredundant", "--ud-only", code), ("irredundant", code, "--ud")),
            (("power", "-k", "2", code), ("power", "-k2", code)),
            (("power", "-k", "2", square), ("power", square, "-k=2")),
            (("chain", "-n", "1", code), ("chain", "-n1", code)),
            (("chain", "-n", "1", square), ("chain", square, "-n=1")),
            (("verify", code), ("verify", "--kmax=3", code)),
            (("hasse", square, other, code, empty), ("hasse", square, other, code, empty)),
        ]
        for states in ((), ("--max-states", "0"), ("--max-states", "1")):
            loose_states = tuple(f"--max-s={value}" for value in states[1:])
            for exact, loose in commands:
                exact = ("--max-tuples", "2000", *states, *exact)
                assert cli._match(exact) is not None, exact
                status, out, err = run(*exact)
                json_status, json_out, json_err = run("--json", *exact)
                assert status == json_status and status in range(4), exact
                if status < 2:
                    assert json.loads(json_out)["verdict"] is (status == 0), exact
                else:
                    assert out == json_out == "", exact
                loose = ("--max-t=2000", *loose_states, *loose)
                assert cli._match(loose) is None and cli._match(("--js", *loose)) is None, loose
                assert run(*loose) == (status, out, err), loose
                assert run("--js", *loose) == (json_status, json_out, json_err), loose


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("kraft", "prefix.code"),
            ("ud", "ambiguous.code"),
            ("irredundant", "squareword.code"),
            ("verify", "prefix.code"),
            ("--json", "verify", "ambiguous.code"),
            ("chain", "prefix.code", "-n", "1"),
        ],
    )
    def test_byte_identical_across_runs(self, argv):
        argv = [a if a.startswith("-") else (fix(a) if a.endswith(".code") else a) for a in argv]
        first = run(*argv)
        second = run(*argv)
        assert first == second
