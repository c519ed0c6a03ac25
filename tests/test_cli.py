"""Tests for the `srt` command-line interface: exit codes, output formats,
and byte-exact reference invocations."""
import argparse
import json
import os
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import pytest

import srt
import srt.cli
from srt.cli import EXIT_CONTRADICTION, EXIT_OK, EXIT_USAGE, dispatch

import records

# The directory holding the imported `srt` package, so that a child process
# runs the same code as this one, installed or not.
SRT_IMPORT_ROOT = str(Path(srt.__file__).resolve().parent.parent)
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
CLI_TIMEOUT_S = 60  # one run takes well under a second
DESCRIPTION = "Exact p-adic analysis of cyclic covers and their stable reductions."

# Byte-exact stdout of three reference invocations. The wild-monodromy report
# carries the pinned (q, r) = (251, 1) certificates (4, 2, 9, 19) and
# (4, 3, 14, 4).
WILD_MONODROMY_251_5 = (
    '{"inputs":{"q":251,"p":5,"r":1,"s":5,"a":"-24","nu":3},'
    '"steps":[{"id":"params","description":"auxiliary cover parameters (s = p,'
    ' a = 1 - p^2/r^2)","value":"-24"},'
    '{"id":"v_sqrt","description":"v(sqrt(1-a))","value":"1"},'
    '{"id":"tail","description":"new inseparable tail level j","value":1},'
    '{"id":"center","description":"disk center d (positive branch)",'
    '"value":"2*5^(7/5)"},'
    '{"id":"g(d)+",'
    '"description":"g(d) by truncated series (agrees with the exact product)",'
    '"value":"276 + 3*5^(11/5) + O(5^(16/5))"},'
    '{"id":"delta+",'
    '"description":"delta = g(d)^(1/5) (delta^5 matches g(d) to v >= 11/5)",'
    '"value":"6 + 3*5^(6/5) + O(5^(11/5))"},'
    '{"id":"eps+","description":"sign-normalized root -delta",'
    '"value":"119 + 2*5^(6/5) + O(5^(11/5))"},'
    '{"id":"power-p+","description":"is g(d) a 5-th power",'
    '"value":{"verdict":"yes","root":{"terms":[{"exponent":"0","unit":"6",'
    '"modulus":"5^3"},{"exponent":"6/5","unit":"3","modulus":"5^1"}],'
    '"precision":"11/5"}}},'
    '{"id":"power-p2+",'
    '"description":"is g(d) a 25-th power (via the normalized root)",'
    '"value":{"verdict":"no","certificate":{"kind":"congruence","alpha":4,'
    '"beta":2,"modulus_alpha":5,"modulus_beta":5,"violated_exponent_class":"0",'
    '"modulus":"5^2","lhs":9,"rhs":19}}},'
    '{"id":"g(d)-",'
    '"description":"g(d) by truncated series (agrees with the exact product)",'
    '"value":"351 + 2*5^(11/5) + O(5^(16/5))"},'
    '{"id":"delta-",'
    '"description":"delta = g(d)^(1/5) (delta^5 matches g(d) to v >= 11/5)",'
    '"value":"21 + 2*5^(6/5) + O(5^(11/5))"},'
    '{"id":"eps-","description":"sign-normalized root -delta",'
    '"value":"104 + 3*5^(6/5) + O(5^(11/5))"},'
    '{"id":"power-p-","description":"is g(d) a 5-th power",'
    '"value":{"verdict":"yes","root":{"terms":[{"exponent":"0","unit":"21",'
    '"modulus":"5^3"},{"exponent":"6/5","unit":"2","modulus":"5^1"}],'
    '"precision":"11/5"}}},'
    '{"id":"power-p2-",'
    '"description":"is g(d) a 25-th power (via the normalized root)",'
    '"value":{"verdict":"no","certificate":{"kind":"congruence","alpha":4,'
    '"beta":3,"modulus_alpha":5,"modulus_beta":5,"violated_exponent_class":"0",'
    '"modulus":"5^2","lhs":14,"rhs":4}}}],"verdict":"nontrivial"}'
    "\n"
)
TAIL_CENTER_5_A0 = (
    '{"center":{"terms":[{"exponent":"1","unit":"-3","modulus":"exact"},'
    '{"exponent":"9/5","unit":"8","modulus":"exact"},{"exponent":"18/5",'
    '"unit":"-1","modulus":"exact"}],"precision":"exact"}}'
    "\n"
)
EXPAND_5 = (
    '{"p":5,"order":17,"coefficients":["-1","0","0","-1/2","0","-3/8","-1/8",'
    '"-9/32","-3/16","-31/128","-27/128","-117/512","-7/32","-459/2048",'
    '"-453/2048","-1825/8192","-909/4096","-7287/32768"],"valuations":["inf",'
    '"inf","0","inf","0","0","0","0","0","0","0","0","0","0","2","0","0"]}'
    "\n"
)

# The two p = 5 inseparable-tail catalogs at nu = 3 whose deeper tail's center
# string is built from its exponent 2/5.
INSEP_TAILS_5_A1 = (
    '[{"case":"a=1","kind":"new-inseparable","j":1,'
    '"center":"a/(1-d^2), d = +-2(s/r)(5^2/s)^(2/5)","radius_valuation":"57/20",'
    '"sigma":"2","upstairs_centers":"z = +d, z = -d",'
    '"upstairs_radius_valuation":"57/40"}]'
    "\n"
)
INSEP_TAILS_5_A0 = (
    '[{"case":"a=0","kind":"new-inseparable","j":2,"center":"a/2",'
    '"radius_valuation":"5/4","sigma":"2",'
    '"upstairs_centers":"z = +sqrt(-1), z = -sqrt(-1)",'
    '"upstairs_radius_valuation":"1/8"},'
    '{"case":"a=0","kind":"new-inseparable","j":1,'
    '"center":"a/(1-d^2), d = +-(5^2/(r+s))^(2/5)","radius_valuation":"37/20",'
    '"sigma":"2","upstairs_centers":"z = +d, z = -d",'
    '"upstairs_radius_valuation":"17/40"}]'
    "\n"
)


def run_cli(*argv):
    return records.capture(list(argv))


class TestReferenceInvocations:
    """The documented command-line invocations, byte for byte, run as
    `python -m srt` (the same entry point as the `srt` console script)."""

    def _env(self, **extra):
        """The environment of a child `python -m srt`, plus `extra`."""
        env = dict(os.environ, **extra)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRT_IMPORT_ROOT, env.get("PYTHONPATH")])
        )
        return env

    def _run(self, *argv, **extra_env):
        """Run `python -m srt *argv` in a child process."""
        return subprocess.run(
            [sys.executable, "-m", "srt", *argv],
            capture_output=True,
            text=True,
            env=self._env(**extra_env),
            timeout=CLI_TIMEOUT_S,
        )

    def test_console_script_is_cli_main(self):
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["srt"] == "srt.cli:main"

    def test_tail_radius(self):
        out = self._run("tail-radius", "--p", "7", "--nu", "2", "--case", "generic")
        assert out.returncode == 0
        assert out.stdout == '{"v_rho":"13/9","v_e":"13/18"}\n'

    def test_enum_tails(self):
        out = self._run("enum-tails", "--tau", "2")
        assert out.returncode == 0
        assert out.stdout == '[{"prim":["1/2","1/2"]}]\n'

    def test_srt_config_is_not_read(self, tmp_path):
        """Every value comes from a flag: an SRT_CONFIG naming an unreadable
        file, which earlier versions loaded, changes nothing."""
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        out = self._run(
            "tail-radius", "--p", "7", "--nu", "2", "--case", "generic",
            SRT_CONFIG=str(bad),
        )
        assert out.returncode == 0
        assert out.stdout == '{"v_rho":"13/9","v_e":"13/18"}\n'

    def test_wild_monodromy(self):
        out = self._run("wild-monodromy", "--q", "251", "--p", "5")
        assert out.returncode == 0
        assert out.stdout == WILD_MONODROMY_251_5

    def test_tail_center_exceptional(self):
        out = self._run(
            "tail-center", "--p", "5", "--nu", "2", "--r", "1", "--s", "4", "--case", "a=0"
        )
        assert out.returncode == 0
        assert out.stdout == TAIL_CENTER_5_A0

    def test_expand(self):
        out = self._run("expand", "--p", "5", "--nu", "1", "--r", "1", "--s", "2")
        assert out.returncode == 0
        assert out.stdout == EXPAND_5

    @pytest.mark.parametrize(
        "case, expected",
        [("a=1", INSEP_TAILS_5_A1), ("a=0", INSEP_TAILS_5_A0)],
    )
    def test_insep_tails(self, case, expected):
        out = self._run(
            "insep-tails", "--p", "5", "--nu", "3", "--case", case, "--extra", "1"
        )
        assert out.returncode == 0
        assert out.stdout == expected

    def test_closed_stdout_exits_1_without_a_traceback(self):
        """A reader that has gone away (`srt ... | head -c 100`) ends the run
        with exit 1 and a quiet stderr; the read end here is closed before
        the child starts, so its first write fails."""
        argv = ["wild-monodromy", "--q", "251", "--p", "5"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "srt", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=self._env(),
                timeout=CLI_TIMEOUT_S,
            )
        finally:
            os.close(write_end)
        assert out.returncode == EXIT_USAGE
        assert "Traceback" not in out.stderr

    def test_reused_parser_is_stateless(self, capsys, monkeypatch):
        """One process dispatches a usage error, --format text and --help
        before two requests whose stdout must match a fresh process; the
        argparse tree is built at most once in all of it."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        srt.cli._build_parser.cache_clear()

        assert dispatch(["tail-radius", "--p", "7", "--bogus", "1"]) == EXIT_USAGE
        first_build = len(built)
        assert first_build > 0
        assert dispatch(
            ["--format", "text", "tail-radius", "--p", "7", "--nu", "2", "--case", "generic"]
        ) == EXIT_OK
        assert capsys.readouterr().out == "v_rho: 13/9\nv_e: 13/18\n"
        # help is laid out for COLUMNS as it is when printed
        for columns in (60, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            assert dispatch(["--help"]) == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            assert (DESCRIPTION in lines) == (columns > len(DESCRIPTION))
        for argv in (
            ["group", "--q", "251", "--p", "5"],
            ["tail-radius", "--p", "7", "--nu", "2", "--case", "generic"],
        ):
            assert dispatch(argv) == EXIT_OK
            fresh = self._run(*argv)
            assert fresh.returncode == EXIT_OK
            assert capsys.readouterr().out == fresh.stdout
        assert len(built) == first_build


# spellings that int() or Fraction() reads as 11 or 1 and that no number from
# outside takes: "_" between digits, a blank before or after, and the one of
# Arabic-Indic and of full-width digits
MISSPELLINGS = ("1_1", " 1", "1 ", "\u0661", "\uff11")


class TestExitCodes:
    def test_affirmative_is_zero(self):
        code, out, _ = run_cli(
            "split-check", "--p", "5", "--level", "2", "--vals", '["9/4","10","10","10","10"]',
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "SplitsWithConductor"
        assert report["conductor"] == "1"

    def test_contradiction_is_two(self):
        code, out, _ = run_cli(
            "split-check", "--p", "5", "--level", "2", "--vals", '["1","10","10","10","10"]',
        )
        assert code == EXIT_CONTRADICTION
        assert json.loads(out)["verdict"] == "ObstructedByConditionI"

    def test_json_numbers_are_read_as_exact_decimals(self):
        # 0.1 is 1/10, not the double nearest to it
        code, out, _ = run_cli(
            "split-check", "--p", "5", "--level", "1", "--vals", "[0.1, 2, 3, 4, 5]",
        )
        assert code == EXIT_CONTRADICTION
        assert json.loads(out)["evidence"] == {
            "witness_index": "1", "valuation": "1/10", "threshold": "5/4",
        }

    def test_json_infinity_in_vals_is_inf(self):
        # JSON's Infinity reaches --vals as the word it spells, which reads as inf
        flags = ["split-check", "--p", "5", "--level", "1", "--vals"]
        code, out, err = run_cli(*flags, "[2, Infinity, 3, 4, 5]")
        assert (code, err) == (EXIT_OK, "")
        assert (code, out, err) == run_cli(*flags, '[2, "inf", 3, 4, 5]')

    def test_usage_error_is_one(self):
        code, _, err = run_cli("split-check", "--p", "5", "--level", "2", "--vals", "oops")
        assert code == EXIT_USAGE
        assert "JSON array" in err

    def test_library_error_is_one(self):
        code, _, err = run_cli("wild-monodromy", "--q", "7", "--p", "5")
        assert code == EXIT_USAGE
        assert "q^2 - 1" in err

    def test_unknown_flag_is_one(self, capsys):
        assert dispatch(["tail-radius", "--p", "7", "--bogus", "1"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("flag, text, message", [
        ("--nu", "1_1", "argument --nu: invalid int value: '1_1'"),
        ("--nu", " 2", "argument --nu: invalid int value: ' 2'"),
        ("--nu", "\u0662", "argument --nu: invalid int value: '\u0662'"),
        ("--p", "1_1", "argument --p: '1_1' is not an integer"),
        ("--p", "\u0661\u0661", "argument --p: '\u0661\u0661' is not an integer"),
    ])
    def test_integer_flags_read_ascii_digits(self, flag, text, message):
        # int() reads each of these as 11 or 2; a flag takes ASCII digits alone
        flags = {"--p": "11", "--nu": "2", flag: text}
        argv = [word for pair in flags.items() for word in pair]
        code, out, err = run_cli("tail-radius", *argv, "--case", "generic")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(f"error: {message}\n")

    def test_every_number_from_outside_has_the_one_spelling(self, tmp_path):
        # each typed flag, integer or rational, refuses what int() or
        # Fraction() alone would read
        for flag, keywords in srt.cli.FLAGS.items():
            convert = keywords.get("type")
            if convert is None:
                continue
            assert convert("+7") == 7, flag
            error = srt.SrtError if convert is srt.cli._fraction else argparse.ArgumentTypeError
            for text in (*MISSPELLINGS, "++7", ""):
                with pytest.raises(error):
                    convert(text)
        # and so does each number that a handler reads from a string flag or
        # a file: a request that answers with "1" in place of "@" is refused
        # with the misspelling named
        tree = {"vertices": [{"id": "r", "inertia": 1, "sigma": "@"}], "edges": []}
        filtration = {"breaks": [{"jump": "0", "order": 4}, {"jump": "@", "order": 2}]}
        requests = [
            ["herbrand", "--p", "5", "--nu", "2", "--direction", "phi", "--x", "@"],
            ["conductor", "--compositum", "1/2,@"],
            ["split-check", "--p", "5", "--level", "1", "--vals", '["@", 2, 3, 4, 5]'],
            ["tree-solve", "--p", "5", "--tree", tree],
            ["herbrand", "--filtration", filtration, "--direction", "phi", "--x", "1"],
        ]
        for request in requests:
            for text in ("1", *MISSPELLINGS):
                argv = []
                for word in request:
                    if isinstance(word, dict):
                        path = tmp_path / "file.json"
                        path.write_text(json.dumps(word).replace("@", json.dumps(text)[1:-1]))
                        word = str(path)
                    argv.append(word.replace("@", text))
                code, out, err = run_cli(*argv)
                if text == "1":
                    assert code != EXIT_USAGE, (argv, err)
                else:
                    assert (code, out) == (EXIT_USAGE, ""), argv
                    assert repr(text) in err, argv

    def test_expand_beyond_the_digit_limit_is_refused(self):
        # the shifted root 999999937/1000000007 puts about 9 more digits in
        # each coefficient, so one of order 600 passes the int-to-str limit
        # (so does the default order of --p 10007)
        flags = ["expand", "--p", "5", "--nu", "1", "--r", "1", "--s", "2",
                 "--sqrt1ma", "999999937/1000000007"]
        code, out, err = run_cli(*flags, "--T", "600")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: a coefficient has more than")
        assert "lower --T or --p" in err
        # one order lower, every coefficient prints
        code, out, _ = run_cli(*flags, "--T", "400")
        assert code == EXIT_OK
        assert len(json.loads(out)["coefficients"]) == 401


# one answered request per subcommand, after its name; TREE_FILE stands for
# the path of TREE written to a file
TREE_FILE = "<tree>"
ONE_REQUEST = {
    "expand": ["--p", "5", "--nu", "2", "--r", "1", "--s", "3", "--sqrt1ma", "-5/9",
               "--T", "4"],
    "split-check": ["--p", "5", "--level", "1", "--vals", '["1","1","1","1","1"]'],
    "tail-center": ["--p", "5", "--nu", "2", "--r", "1", "--s", "3", "--case", "generic"],
    "tail-radius": ["--p", "7", "--nu", "2", "--case", "a=1", "--extra", "1"],
    "insep-tails": ["--p", "5", "--nu", "2", "--case", "a=0", "--extra", "1"],
    "tree-check": ["--p", "5", "--tree", TREE_FILE],
    "tree-solve": ["--p", "5", "--tree", TREE_FILE, "--root-delta", "9/4"],
    "enum-tails": ["--tau", "1", "--p", "3"],
    "conductor": ["--shape", "kummer-tower", "--p", "5", "--nu", "3"],
    "herbrand": ["--p", "5", "--nu", "2", "--direction", "psi", "--x", "3/2"],
    "group": ["--q", "31", "--p", "5", "--mode", "criterion"],
    "wild-monodromy": ["--q", "251", "--p", "5"],
}


def _parse_table():
    """argvs led by a subcommand, by a global option, by help or by nothing,
    answered, refused by the parser or asking for help."""
    table = []
    for name, flags in ONE_REQUEST.items():
        request = [name, *flags]
        table += [
            request,
            ["--format", "text", *request],
            ["--format=text", *request],
            ["--form", "text", *request],
            [*request, "--format", "text"],
            [*request, "stray"],
            [*request, "--bogus"],
            [*request, "--"],
            [*request, "--", "x"],
            [name, "--help"],
            [name, "-h"],
            [name, "--he"],
            request[:-1],  # the last flag without its value
        ]
    table += [
        ["enum-tails", "--tau", "1", "--p", "4"],
        ["--format", "xml", "enum-tails", "--tau", "1"],
        [],
        ["--help"],
        ["-h"],
        ["--format", "text"],
        ["bogus", "--p", "5"],
    ]
    return table


class TestOneParse:
    """A request led by its subcommand is read by that subcommand's parser
    alone; every request answers as through the top-level parser."""

    def test_commands_have_a_request(self):
        assert ONE_REQUEST.keys() == srt.cli.COMMANDS.keys()

    def test_same_answer_as_the_top_level_parser(self, monkeypatch, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TREE))
        monkeypatch.setenv("COLUMNS", "80")
        top_level = srt.cli._build_parser().parse_args
        for argv in _parse_table():
            argv = [str(tree) if word == TREE_FILE else word for word in argv]
            answer = run_cli(*argv)
            with monkeypatch.context() as patch:
                patch.setattr(srt.cli, "_parse", top_level)
                assert run_cli(*argv) == answer, argv

    def test_an_answered_request_skips_the_top_level_parser(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser read the request")

        monkeypatch.setattr(srt.cli._build_parser(), "parse_args", refuse)
        code, out, _ = run_cli("enum-tails", *ONE_REQUEST["enum-tails"])
        assert code == EXIT_OK
        assert json.loads(out)[0] == {"prim": ["1"]}


# a value for each flag that some subcommand requires
REQUIRED_VALUES = {
    "--p": "5", "--nu": "2", "--r": "1", "--s": "3", "--case": "a=0", "--tree": "t.json",
    "--level": "1", "--vals": "[]", "--tau": "1", "--direction": "phi", "--x": "1",
    "--q": "251",
}
RATIONAL_FLAGS = [
    flag for flag, keywords in srt.cli.FLAGS.items() if keywords.get("type") is srt.cli._fraction
]


class TestNegativeRationals:
    """A word like "-5/9" after a flag whose FLAGS type is srt.cli._fraction,
    or after --x or --compositum, whose handlers read them as rationals, is
    that flag's value, as in "--sqrt1ma=-5/9"; argparse alone takes it for
    an option."""

    @pytest.mark.parametrize("flag", RATIONAL_FLAGS)
    @pytest.mark.parametrize("value", ["-5/9", "-2/1", "-.5", "-3"])
    def test_every_rational_flag_reads_a_negative_value(self, flag, value):
        commands = [name for name, (_, _, flags) in srt.cli.COMMANDS.items() if flag in flags]
        assert commands
        for name in commands:
            _, _, flags = srt.cli.COMMANDS[name]
            argv = [name, flag, value]
            for other, spec in flags.items():
                if spec is srt.cli.REQUIRED:
                    argv += [other, REQUIRED_VALUES[other]]
            args = srt.cli._build_parser().parse_args(srt.cli._join_negative_rationals(argv))
            assert getattr(args, flag[2:].replace("-", "_")) == srt.cli._fraction(value)

    def test_expand_answers_as_with_an_equals_sign(self):
        flags = ["expand", "--p", "5", "--nu", "2", "--r", "1", "--s", "3"]
        code, out, err = run_cli(*flags, "--sqrt1ma", "-5/9", "--T", "5")
        assert (code, err) == (EXIT_OK, "")
        assert (code, out, err) == run_cli(*flags, "--sqrt1ma=-5/9", "--T", "5")
        assert json.loads(out)["coefficients"][:3] == ["1", "-44/5", "968/25"]

    def test_a_negative_value_reaches_the_handler(self):
        # --extra -1/2 is parsed, and then refused by tail-radius itself
        code, out, err = run_cli(
            "tail-radius", "--p", "5", "--nu", "2", "--case", "a=0", "--extra", "-1/2"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: case a=0 needs a positive auxiliary valuation\n"

    @pytest.mark.parametrize(
        "argv, answer",
        [(["herbrand", "--p", "5", "--nu", "2", "--direction", "phi", "--x", "-1/2"],
          (EXIT_USAGE, "", "error: x must be >= 0, got -1/2\n")),
         (["conductor", "--compositum", "-1/2,3/4"],
          (EXIT_OK, '{"conductor":"3/4"}\n', ""))],
        ids=["x", "compositum"],
    )
    def test_string_flags_read_as_rationals_join_too(self, argv, answer):
        # the handler answers, and as it does with an equals sign
        assert run_cli(*argv) == answer
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        assert run_cli(*joined) == answer

    def test_other_flags_still_read_a_dash_word_as_an_option(self):
        # --r is an int flag: "-3/2" after it is not joined, as before
        assert srt.cli._join_negative_rationals(["--r", "-3/2"]) == ["--r", "-3/2"]
        code, _, err = run_cli("expand", "--p", "5", "--nu", "2", "--r", "-3/2", "--s", "3")
        assert code == EXIT_USAGE
        assert "expected one argument" in err


TREE = {
    "vertices": [
        {"id": "root", "inertia": 2},
        {"id": "tail", "inertia": 0, "tail": "new-etale", "sigma": "3/2"},
    ],
    "edges": [{"parent": "root", "child": "tail", "sigma_eff": "3/2"}],
}


# the open chain of test_graph's test_open_chain_reports_relation: neither
# epaisseur is known, only their weighted sum
OPEN_CHAIN = {
    "vertices": [
        {"id": "root", "inertia": 2},
        {"id": "w", "inertia": 1},
        {"id": "t", "inertia": 0, "tail": "new-etale", "sigma": "3/2"},
    ],
    "edges": [
        {"parent": "root", "child": "w", "sigma_eff": "1"},
        {"parent": "w", "child": "t", "sigma_eff": "1"},
    ],
}
OPEN_CHAIN_SOLVE = (
    '{"status":"Unsolved","tree":{"vertices":['
    '{"id":"root","inertia":2,"tail":"none","branch_points":[],"delta_eff":"9/4"},'
    '{"id":"w","inertia":1,"tail":"none","branch_points":[]},'
    '{"id":"t","inertia":0,"tail":"new-etale","branch_points":[],"sigma":"3/2",'
    '"delta_eff":"0"}],'
    '"edges":[{"parent":"root","child":"w","sigma_eff":"1"},'
    '{"parent":"w","child":"t","sigma_eff":"1"}]},'
    '"relations":[{"edges":[["root","w"],["w","t"]],"sum_epaisseur":"9/4"}],'
    '"unknowns":["epaisseur(\'root\', \'w\')","epaisseur(\'w\', \'t\')"]}'
)


class TestTreeCommands:
    def test_tree_solve(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(TREE))
        code, out, _ = run_cli("tree-solve", "--p", "5", "--tree", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["status"] == "Solved"
        assert report["tree"]["edges"][0]["epaisseur"] == "3/2"  # (9/4)/(3/2)

    def test_tree_solve_contradiction(self, tmp_path):
        # the root's different is 9/4 and the tail's 0, so the edge drops by
        # 9/4: an epaisseur that gives another drop, a sigma_eff of 0, and an
        # epaisseur of 0 each contradict it
        for labels, needle in (
            ({"epaisseur": "1"}, "delta drop 9/4 != sigma_eff*epaisseur = 3/2"),
            ({"sigma_eff": "0"}, "sigma_eff = 0 but delta drop 9/4"),
            ({"sigma_eff": None, "epaisseur": "0"}, "epaisseur must be > 0"),
        ):
            bad = json.loads(json.dumps(TREE))
            bad["edges"][0].update(labels)
            path = tmp_path / "tree.json"
            path.write_text(json.dumps(bad))
            code, out, _ = run_cli("tree-solve", "--p", "5", "--tree", str(path))
            assert code == EXIT_CONTRADICTION
            report = json.loads(out)
            assert report["status"] == "Contradiction"
            assert any(needle in c for c in report["contradictions"]), report

    def test_tree_solve_unsolved_is_pinned(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(OPEN_CHAIN))
        code, out, _ = run_cli("tree-solve", "--p", "5", "--tree", str(path))
        assert code == EXIT_OK
        assert out == OPEN_CHAIN_SOLVE + "\n"

    def test_tree_check(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(TREE))
        code, out, _ = run_cli("tree-check", "--p", "5", "--tree", str(path))
        report = json.loads(out)
        assert report["problems"] == []
        # single sigma = 3/2 tail violates the global vanishing-cycles identity
        assert report["vanishing_cycles"]["verdict"] == "Violated"
        assert code == EXIT_CONTRADICTION

    def test_missing_tree_file(self, tmp_path):
        code, _, err = run_cli("tree-solve", "--p", "5", "--tree", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE
        assert "unreadable" in err


class TestOtherCommands:
    def test_expand_deterministic(self):
        args = ("expand", "--p", "5", "--nu", "1", "--r", "1", "--s", "2")
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        report = json.loads(out1)
        assert report["coefficients"][0] == "-1"
        assert len(report["coefficients"]) == 18  # default T = 3p + 2

    def test_conductor_shape_and_compositum(self):
        code, out, _ = run_cli("conductor", "--p", "5", "--nu", "3", "--shape", "kummer-tower")
        assert code == EXIT_OK
        assert json.loads(out) == {"conductor": "2"}
        code, out, _ = run_cli("conductor", "--compositum", "1/2,5/4,3/4")
        assert json.loads(out) == {"conductor": "5/4"}

    def test_herbrand_cyclotomic(self):
        code, out, _ = run_cli(
            "herbrand", "--p", "5", "--nu", "2", "--direction", "psi", "--x", "2",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["value"] == "24"
        assert report["conductor"] == "1"

    def test_group_criterion(self):
        code, out, _ = run_cli("group", "--q", "13", "--p", "3", "--mode", "criterion")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["generation"]["verdict"] == "Generates"
        assert report["generation"]["order"] == 2184
        assert report["sylow"] == {"order": 3, "cyclic": True, "m_G": 2}

    def test_group_large_q_is_fast(self):
        # q - 1 and q + 1 have the prime cofactors 3,333,419 and 25,000,643
        q = 100002571
        t0 = time.perf_counter()
        code, out, _ = run_cli("group", "--q", str(q), "--p", "5")
        assert time.perf_counter() - t0 < 3
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["orders"] == {
            "alpha": q, "beta": q - 1, "alpha*beta": (q - 1) // 5
        }
        assert report["generation"]["verdict"] == "Generates"

    def test_group_thirteen_digit_q_is_fast(self):
        # q is prime, so the primality test must not be trial division
        q = 1000000000061
        t0 = time.perf_counter()
        code, out, _ = run_cli("group", "--q", str(q), "--p", "5")
        assert time.perf_counter() - t0 < 0.5
        assert code == EXIT_OK
        assert json.loads(out)["generation"]["verdict"] == "Generates"

    def test_insep_tails(self):
        code, out, _ = run_cli(
            "insep-tails", "--p", "5", "--nu", "3", "--case", "a=0", "--extra", "1",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert [t["j"] for t in report] == [2, 1]

    def test_tail_center_exceptional(self):
        code, out, _ = run_cli(
            "tail-center", "--p", "5", "--nu", "2", "--r", "1", "--s", "4", "--case", "a=0",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert "terms" in report["center"]  # local field element, not rational

    def test_tail_center_has_no_branch_flag(self):
        # the 5th root in the exceptional center is unique in the field, so
        # there is no branch to choose and argparse refuses the flag
        code, out, err = run_cli(
            "tail-center", "--p", "5", "--nu", "2",
            "--r", "1", "--s", "4", "--case", "a=0", "--branch", "0",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--branch" in err

    def test_wild_monodromy_verdict_lowercase(self):
        code, out, _ = run_cli("wild-monodromy", "--q", "251", "--p", "5")
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "nontrivial"
