"""The error hierarchy and the CLI error boundary: every exception srt exports
is an SrtError, the CLI reports exactly those as one-line errors with exit 1,
and any other exception propagates as a bug."""
import ast
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

import srt
import srt.cli
import srt.groups
import srt.ramification
import srt.torsor
from srt import (
    CoverParams,
    SrtError,
    TruncatedSeries,
    cyclotomic_filtration,
    enumerate_tail_configs,
    herbrand,
)
from srt.cli import EXIT_USAGE, dispatch
from srt.errors import PreconditionViolated, Unsupported
from srt.valuation import is_prime, split_p_part


EXPORTED_ERRORS = [
    value
    for value in (getattr(srt, name) for name in srt.__all__)
    if inspect.isclass(value) and issubclass(value, BaseException)
]


class TestHierarchy:
    def test_exports_some_errors(self):
        assert {cls.__name__ for cls in EXPORTED_ERRORS} == {
            "SrtError", "PreconditionViolated", "Unsupported", "MissingLabel",
            "PrecisionError", "NoNthRoot", "ResourceLimit",
        }

    @pytest.mark.parametrize("cls", EXPORTED_ERRORS, ids=lambda c: c.__name__)
    def test_every_exported_error_is_an_srt_error(self, cls):
        assert issubclass(cls, SrtError)
        assert cls.__module__ == "srt.errors"

    def test_one_class_per_name(self):
        assert srt.torsor.Unsupported is srt.groups.Unsupported
        assert srt.torsor.PreconditionViolated is srt.ramification.PreconditionViolated
        assert srt.cli.UsageError.__module__ == "srt.errors"

    @pytest.mark.parametrize(
        "name, base",
        [
            ("PreconditionViolated", ValueError),
            ("Unsupported", ValueError),
            ("MissingLabel", ValueError),
            ("PrecisionError", ArithmeticError),
            ("NoNthRoot", ArithmeticError),
            ("ResourceLimit", RuntimeError),
        ],
    )
    def test_builtin_base_kept(self, name, base):
        assert issubclass(getattr(srt.errors, name), base)


ROOT = Path(__file__).resolve().parent.parent
# the base class and the categories a raise site chooses from
CATEGORIES = {
    "SrtError", "Unsupported", "PreconditionViolated", "ResourceLimit", "UsageError",
    "PrecisionError", "NoNthRoot",
}


def _declared_errors():
    tree = ast.parse((ROOT / "src" / "srt" / "errors.py").read_text())
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def _caught_names():
    """Each name or attribute in the type of an except clause of src/srt,
    bench/ or demos/."""
    paths = [*(ROOT / "src" / "srt").glob("*.py"), *(ROOT / "bench").glob("*.py"),
             *(ROOT / "demos").rglob("*.py")]
    caught = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for part in ast.walk(node.type):
                    if isinstance(part, ast.Name):
                        caught.add(part.id)
                    elif isinstance(part, ast.Attribute):
                        caught.add(part.attr)
    return caught


CAUGHT = _caught_names()


@pytest.mark.parametrize("name", _declared_errors())
def test_error_class_is_a_category_or_caught(name):
    """A class of srt/errors.py beyond the categories stays only while some
    caller tells it apart by catching it; otherwise it folds into one."""
    assert name in CATEGORIES or name in CAUGHT, (
        f"srt.errors.{name} is no category and no except clause in src/srt, "
        f"bench/ or demos/ catches it; raise Unsupported or PreconditionViolated"
    )


class TestLibraryPreconditions:
    def test_cover_params_rejects_non_prime_p(self):
        with pytest.raises(Unsupported, match="odd prime"):
            CoverParams(4, 1, 1, 2, Fraction(-2))
        with pytest.raises(Unsupported, match="odd prime"):
            CoverParams(2, 2, 1, 3, Fraction(-3))

    def test_cyclotomic_filtration_rejects_nu_below_one(self):
        with pytest.raises(PreconditionViolated, match="nu"):
            cyclotomic_filtration(5, 0)

    def test_filtration_orders_positive(self):
        with pytest.raises(PreconditionViolated, match="positive"):
            srt.Filtration([(0, 0)])

    def test_bad_inputs_raise_precondition_violated(self):
        with pytest.raises(PreconditionViolated):
            enumerate_tail_configs(4, 5)
        with pytest.raises(PreconditionViolated):
            herbrand(cyclotomic_filtration(5, 2), "psi", -1)
        with pytest.raises(PreconditionViolated):
            TruncatedSeries([Fraction(1), Fraction(1)]).evaluate(Fraction(1, 3))

    def test_shared_integer_helpers(self):
        assert [n for n in range(-3, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
        assert split_p_part(250, 5) == (3, 2)
        assert split_p_part(-7, 5) == (0, -7)
        with pytest.raises(PreconditionViolated):
            split_p_part(0, 5)


class TestDispatchBoundary:
    def test_non_srt_error_propagates(self, monkeypatch, capsys):
        def broken(values):
            raise ZeroDivisionError("internal bug")

        monkeypatch.setattr(srt.cli, "compositum_conductor", broken)
        with pytest.raises(ZeroDivisionError, match="internal bug"):
            dispatch(["conductor", "--compositum", "1/2,3/4"])
        capsys.readouterr()

    def test_missing_sigma_label_is_reported_not_fatal(self, capsys, tmp_path):
        tree = {
            "vertices": [
                {"id": "root", "inertia": 1},
                {"id": "t", "inertia": 0, "tail": "primitive"},
            ],
            "edges": [{"parent": "root", "child": "t"}],
        }
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree))
        code = dispatch(["tree-check", "--p", "5", "--tree", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "sigma" in out["vanishing_cycles"]["skipped"]


FILES = {
    "index0": {
        "vertices": [{"id": "r", "inertia": 1, "branch_points": [{"id": "b", "index": 0}]}],
        "edges": [],
    },
    "list": [1, 2],
    "vertex_not_object": {"vertices": [1], "edges": []},
    "ok": {
        "vertices": [
            {"id": "root", "inertia": 2},
            {"id": "tail", "inertia": 0, "tail": "new-etale", "sigma": "3/2"},
        ],
        "edges": [{"parent": "root", "child": "tail", "sigma_eff": "3/2"}],
    },
    "order0_filtration": {"breaks": [{"jump": "0", "order": 0}]},
    "ok_filtration": {"breaks": [{"jump": "0", "order": 20}, {"jump": "1", "order": 5}]},
    "breaks_not_list": {"breaks": 5},
    "sigma_over_zero": {"vertices": [{"id": "root", "sigma": "1/0"}], "edges": []},
    "jump_over_zero": {"breaks": [{"jump": "1/0", "order": 5}]},
    # JSON text as written: json reads a number past the float range as inf
    "inertia_past_float": '{"vertices": [{"id": "r", "inertia": 1e400}], "edges": []}',
    "sigma_past_float": '{"vertices": [{"id": "r", "inertia": 1, "sigma": 1e400}], "edges": []}',
    "order_past_float": '{"breaks": [{"jump": "0", "order": 1e400}]}',
    "jump_past_float": '{"breaks": [{"jump": 1e400, "order": 5}]}',
}

def _short(token):
    """The token as it appears in a test id: in full, or cut with its length."""
    return token if len(token) <= 40 else f"{token[:12]}...({len(token)} chars)"


# (argv, text the error line must contain); "@name" stands for a file
# holding the JSON FILES[name], or that text when it is a string
BAD_INPUTS = [
    (["expand", "--p", "4", "--nu", "1", "--r", "1", "--s", "2"], "odd prime"),
    (["expand", "--p", "5", "--nu", "0", "--r", "1", "--s", "2"], "nu"),
    (["expand", "--p", "5", "--nu", "1", "--r", "0", "--s", "2"], "--r"),
    (["expand", "--p", "5", "--nu", "1", "--r", "1", "--s", "2", "--T", "0"], "T"),
    (["split-check", "--p", "1", "--level", "1", "--vals", '["1"]'], "odd prime"),
    (["split-check", "--p", "5", "--level", "1", "--vals", "5"], "JSON array"),
    (["split-check", "--p", "5", "--level", "1", "--vals", "[null]"], "rational"),
    (["split-check", "--p", "5", "--level", "1", "--vals", '["1", "2"]'], "i = 5"),
    # JSON true is not the rational 1
    (["split-check", "--p", "5", "--level", "1", "--vals", "[true, 2, 3, 4, 5]"], "JSON array"),
    (["split-check", "--p", "5", "--level", "1", "--vals", "[-Infinity, 2, 3, 4, 5]"], "rational"),
    # past the int-to-str digit limit, refused on the text before Fraction
    # expands it (10^1000000000 would take minutes and gigabytes)
    (["split-check", "--p", "5", "--level", "1", "--vals", '["1e5000",1,1,1,1]'], "digits"),
    (["split-check", "--p", "5", "--level", "1", "--vals", '["1e1000000000",1,1,1,1]'], "digits"),
    (["split-check", "--p", "5", "--level", "1", "--vals", "[1e1000000000,1,1,1,1]"], "digits"),
    # a value derived past the digit limit: the threshold n + 1/(p - 1) of a
    # 4,300-digit level, the center 1 - s^2/r^2 of a 2,201-digit r, and
    # v_root = (v_p + (p - 1) n + 1)/p of a v_p just inside the rational bound
    (["split-check", "--p", "5", "--level", "9" * 4300, "--vals", "[1,1,1,1,1]"], "digits"),
    (
        ["split-check", "--p", "1009", "--level", "1", "--vals",
         "[" + "2," * 1008 + '"1.' + "0" * 4296 + '1"]'],
        "digits",
    ),
    (
        ["tail-center", "--p", "7", "--nu", "1", "--r", "9" * 2200 + "1", "--s", "1",
         "--case", "generic"],
        "digits",
    ),
    (["tail-center", "--p", "7", "--nu", "2", "--r", "1", "--s", "0", "--case", "a=1"], "s != 0"),
    (["tail-center", "--p", "7", "--nu", "2", "--r", "1", "--s", "2", "--case", "b"], "case"),
    # only the spellings generic, a=0 and a=1 name a case
    (["tail-center", "--p", "7", "--nu", "2", "--r", "1", "--s", "2", "--case", "A=0"], "case"),
    # the p = 5 exceptional centers take binomial(x, 5) at x = s resp. r + s
    (["tail-center", "--p", "5", "--nu", "2", "--r", "1", "--s=-5", "--case", "a=1"], "x >= 0"),
    (["tail-center", "--p", "5", "--nu", "2", "--r=-6", "--s", "1", "--case", "a=0"], "x >= 0"),
    (["tail-center", "--p", "7", "--nu", "0", "--r", "1", "--s", "2", "--case", "generic"], "nu must be >= 1"),
    (["tail-center", "--p", "3", "--nu", "3", "--r", "7", "--s", "2", "--case", "a=0"], "p = 5 only"),
    (["tail-radius", "--p", "7", "--nu", "2", "--case", "a0"], "case"),
    (["tail-radius", "--p", "1", "--nu", "2", "--case", "generic"], "odd prime"),
    (["tail-radius", "--p", "7", "--nu", "2", "--case", "a=0", "--extra", "-1"], "positive"),
    (["tail-radius", "--p", "5", "--nu=-3", "--case", "generic"], "nu must be >= 1"),
    # a rational flag is converted by its type= callable inside parse_args:
    # past the digit limit, and no rational at all
    (["tail-radius", "--p", "7", "--nu", "2", "--case", "a=0", "--extra", "1e5000"], "digits"),
    (["insep-tails", "--p", "4", "--nu", "2", "--case", "a=0", "--extra", "1"], "odd prime"),
    (["insep-tails", "--p", "5", "--nu", "3", "--case", "a=0"], "auxiliary"),
    (["insep-tails", "--p", "5", "--nu", "0", "--case", "generic"], "nu must be >= 1"),
    (["tree-check", "--p", "5", "--tree", "@index0"], "positive"),
    (["tree-check", "--p", "5", "--tree", "@list"], "malformed"),
    (["tree-solve", "--p", "5", "--tree", "@vertex_not_object"], "malformed"),
    (["tree-solve", "--p", "9", "--tree", "@ok"], "odd prime"),
    (["tree-solve", "--p", "5", "--tree", "@ok", "--root-delta", "1/0"], "rational"),
    (["enum-tails", "--tau", "5"], "tau"),
    (["enum-tails", "--tau", "1", "--p", "4"], "odd prime"),
    (["conductor", "--nu", "3", "--shape", "kummer-tower"], "--p"),
    (["conductor", "--nu", "3"], "provide --shape or --compositum"),
    (["conductor", "--p", "5", "--nu", "1", "--shape", "kummer-tower"], "nu > 1"),
    (["conductor", "--compositum", "1/0"], "rational"),
    # a flag that the answer would not read is refused, not ignored
    (["conductor", "--compositum", "1,2", "--shape", "kummer-tower", "--p", "5", "--nu", "3"],
     "--compositum alone"),
    (["herbrand", "--filtration", "@ok_filtration", "--p", "5", "--nu", "3", "--direction",
      "psi", "--x", "2"], "not both"),
    (["group", "--q", "251", "--p", "5", "--tau", "3"], "--tau and --rho together"),
    (["group", "--q", "251", "--p", "5", "--rho", "3"], "--tau and --rho together"),
    (["herbrand", "--p", "5", "--nu", "0", "--direction", "psi", "--x", "1"], "nu"),
    (["herbrand", "--direction", "psi", "--x", "1"], "provide --filtration FILE or both"),
    (["herbrand", "--p", "5", "--nu", "2", "--direction", "psi", "--x", "-1"], "x"),
    (["herbrand", "--filtration", "@order0_filtration", "--direction", "phi", "--x", "1"], "positive"),
    (["herbrand", "--filtration", "@breaks_not_list", "--direction", "phi", "--x", "1"], "unreadable"),
    (["herbrand", "--filtration", "@jump_over_zero", "--direction", "phi", "--x", "1"], "unreadable"),
    (["tree-check", "--p", "5", "--tree", "@sigma_over_zero"], "malformed"),
    (["tree-check", "--p", "5", "--tree", "@inertia_past_float"], "malformed"),
    (["tree-solve", "--p", "5", "--tree", "@sigma_past_float"], "malformed"),
    (["herbrand", "--filtration", "@order_past_float", "--direction", "phi", "--x", "1"],
     "unreadable"),
    (["herbrand", "--filtration", "@jump_past_float", "--direction", "phi", "--x", "1"],
     "unreadable"),
    (["group", "--q", "9", "--tau", "0", "--rho", "3"], "prime"),
    (["group", "--q", "0", "--tau", "13", "--rho", "4"], "prime"),
    (["group", "--q", "10", "--p", "5"], "prime"),
    (["wild-monodromy", "--q", "7", "--p", "5"], "q^2 - 1"),
    # v_5(q^2 - 1) = 3 for both, but only a prime q is in the pipeline's domain
    (["wild-monodromy", "--q", "124", "--p", "5"], "q must be prime, got 124"),
    (["wild-monodromy", "--q", "-251", "--p", "5"], "q must be prime, got -251"),
    (["wild-monodromy", "--q", "251", "--p", "4"], "odd prime"),
    # the tail catalog lists a new inseparable tail only at p = 5 with
    # nu >= 3: each other refusal names the catalog query that lists none
    (["wild-monodromy", "--q", "1373", "--p", "7"],
     "`srt insep-tails --p 7 --nu 3 --case a=1 --extra 1` lists none"),
    (["wild-monodromy", "--q", "53", "--p", "3"],
     "`srt insep-tails --p 3 --nu 3 --case a=1 --extra 1` lists none"),
    (["wild-monodromy", "--q", "101", "--p", "5", "--r", "4"],
     "`srt insep-tails --p 5 --nu 2 --case a=1 --extra 1` lists none"),
]


@pytest.mark.parametrize(
    "argv, needle", BAD_INPUTS, ids=[" ".join(map(_short, a)) for a, _ in BAD_INPUTS]
)
def test_bad_input_is_one_error_line(argv, needle, tmp_path, capsys):
    resolved = []
    for token in argv:
        if token.startswith("@"):
            path = tmp_path / f"{token[1:]}.json"
            content = FILES[token[1:]]
            path.write_text(content if isinstance(content, str) else json.dumps(content))
            token = str(path)
        resolved.append(token)
    code = dispatch(resolved)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "Traceback" not in captured.err
    error_lines = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(error_lines) == 1, captured.err
    assert needle in error_lines[0]
