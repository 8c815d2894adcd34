import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from plam import fixtures
from plam.cli import _build_parser, main
from plam.fixtures import CASES, FIXTURES, check
from plam.prob import ONE
from plam.syntax import MAX_NESTING

M24, N24 = r"\x y z.z (x (+) y)", r"\x y z.(z x) (+) (z y)"
M48, N48 = r"\x.x (Omega (+) I)", r"\x.(x Omega) (+) (x I)"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_parse_text(capsys):
    code, out, _ = run(capsys, "parse", r"\x.x (+) y")
    assert code == 0
    assert out.strip() == r"\x.x (+) y"


def test_parse_json(capsys):
    code, payload, _ = run_json(capsys, "parse", r"\x.x y")
    assert code == 0
    assert payload == {"term": r"\x.x y", "size": 4, "free": ["y"], "hnf": True}


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "(a b")
    assert code == 1
    assert "error" in err


def test_eval_json(capsys):
    code, payload, _ = run_json(capsys, "eval", "Delta (T (+) F)", "--fuel", "4")
    assert code == 0
    assert payload["mass"] == "1"
    assert payload["deficit"] == "0"
    probs = {e["term"]: e["prob"] for e in payload["support"]}
    assert probs[r"\x.x"] == "1/2"
    assert sorted(probs.values()) == sorted(["1/4", "1/4", "1/2"])


def test_eval_divergent_text(capsys):
    code, out, _ = run(capsys, "eval", "Omega", "--fuel", "8")
    assert code == 0
    assert "deficit 1" in out
    assert "bottom" in out


def test_fuel_cap_exit_code(capsys):
    code, _, err = run(capsys, "eval", "I", "--fuel", "100")
    assert code == 2
    assert "cap" in err


def test_negative_fuel_rejected(capsys):
    code, _, err = run(capsys, "eval", "I", "--fuel", "-1")
    assert code == 1


def test_negative_trace_cap_rejected(capsys):
    code, out, err = run(capsys, "trace", "I", "--cap", "-1")
    assert (code, out) == (1, "") and "--cap must be non-negative" in err


def test_trace_json(capsys):
    code, payload, _ = run_json(capsys, "trace", "a (+) b", "--steps", "2")
    assert code == 0
    assert payload["tree"]["prob"] == "1"
    assert len(payload["tree"]["children"]) == 2
    assert payload["cumulative"]["mass"] == "1"


def test_trace_spine_strategy(capsys):
    code, out, _ = run(capsys, "trace", r"(\x.(\y.x) y) z", "--steps", "1",
                       "--strategy", "spine")
    assert code == 0
    assert r"(\x.x) z" in out


def test_tree_json(capsys):
    code, payload, _ = run_json(
        capsys, "tree", r"Theta (\f.y (+) y f)", "--level", "2", "--fuel", "8"
    )
    assert code == 0
    assert payload["level"] == 2
    assert payload["deficit"] == "0"
    weights = sorted(e["weight"] for e in payload["support"])
    assert weights == ["1/2", "1/2"]
    assert all(e["tree"]["head"] == "y" for e in payload["support"])


def test_compare_tree_equal(capsys):
    code, payload, _ = run_json(
        capsys, "compare-tree", "I", r"\x y.x y", "--level", "4", "--fuel", "4"
    )
    assert code == 0
    assert payload["verdict"] == "equal"


def test_compare_tree_different(capsys):
    code, payload, _ = run_json(
        capsys,
        "compare-tree",
        r"\x y z.z (x (+) y)",
        r"\x y z.(z x) (+) (z y)",
        "--level", "2", "--fuel", "8",
    )
    assert code == 0
    assert payload["verdict"] == "different"
    assert isinstance(payload["path"], list)


def test_compare_tree_unknown(capsys):
    code, payload, _ = run_json(
        capsys, "compare-tree", r"(\x.y (+) x x) (\x.y (+) x x)", "y",
        "--level", "2", "--fuel", "6",
    )
    assert code == 0
    assert payload["verdict"] == "unknown"
    assert payload["bound"] == "1/64"


def test_bisim_distinguishes(capsys):
    code, payload, _ = run_json(
        capsys,
        "bisim",
        r"\x y z.z (x (+) y)",
        r"\x y z.(z x) (+) (z y)",
        "--depth", "8", "--fuel", "6", "--pool", "Omega,I",
    )
    assert code == 0
    assert payload["verdict"] == "distinguished"
    assert payload["trace"]["kind"] == "block"


def test_bisim_inconclusive(capsys):
    code, payload, _ = run_json(
        capsys, "bisim", "I", r"\x y.x y", "--depth", "8", "--fuel", "6"
    )
    assert code == 0
    assert payload == {"verdict": "inconclusive", "trace": None}


def test_sim_witness_masses(capsys):
    code, payload, _ = run_json(
        capsys,
        "sim",
        r"\x.x (Omega (+) I)",
        r"\x.(x Omega) (+) (x I)",
        "--depth", "6", "--fuel", "6", "--pool", "I",
    )
    assert code == 0
    assert payload["verdict"] == "distinguished"
    flat = json.dumps(payload)
    assert "1/2" in flat


def test_appcmp(capsys):
    code, payload, _ = run_json(
        capsys,
        "appcmp",
        r"\x y z.z (x (+) y)",
        r"\x y z.(z x) (+) (z y)",
        "--maxlen", "2", "--pool", "Omega,I",
    )
    assert code == 0
    seqs = payload["sequences"]
    assert len(seqs) == 1 + 2 + 4
    assert seqs[0]["args"] == []
    assert all(s["verdict"] in ("LeftExceeds", "RightExceeds", "Inconclusive")
               for s in seqs)


def test_assign_roundtrip(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps({"p": ["1/2", "1/2"], "r": {"{1,2}": "1"}}), encoding="utf-8"
    )
    code, payload, _ = run_json(capsys, "assign", "--problem", str(problem))
    assert code == 0
    assert payload["feasible"] is True
    assert all(e["share"] == "1/2" for e in payload["shares"])


def test_assign_infeasible(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps({"p": ["3/4", "1/2"], "r": {"{1}": "1/2", "{2}": "1/2"}}),
        encoding="utf-8",
    )
    code, payload, _ = run_json(capsys, "assign", "--problem", str(problem))
    assert code == 0
    assert payload == {"feasible": False, "witness": [1]}


@pytest.mark.parametrize(
    "text, named",
    (
        ('{"p": ["1"], "r": {"{1}": "3/4", "{ 1 }": "3/4"}}', "subset [1]"),
        ('{"p": ["1", "1"], "r": {"{1,2}": "3/4", "{2,1}": "3/4"}}', "subset [1, 2]"),
        ('{"p": ["1"], "r": {"{1}": "3/4", "{1}": "3/4"}}', 'key "{1}"'),
    ),
    ids=("spacing", "order", "repeated-key"),
)
def test_assign_subset_given_twice_exits_one(tmp_path, capsys, text, named):
    # one of the two supplies of 3/4 would be lost, making the problem infeasible
    problem = tmp_path / "problem.json"
    problem.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "assign", "--problem", str(problem))
    assert (code, out) == (1, "")
    assert err == f"error: problem file: {named} given twice\n"


@pytest.mark.parametrize(
    "key",
    ("1", "{1,,}", "{١}", "{1,}", "{,1}", "1}", "{1", "{1 2}", "{+1}", "{1}{2}"),
    ids=("no-braces", "empty-items", "arabic-indic-digit", "trailing-comma", "leading-comma",
         "no-open-brace", "no-close-brace", "no-comma", "sign", "two-sets"),
)
def test_assign_malformed_subset_key_exits_one(tmp_path, capsys, key):
    # each of these used to be read as the subset {1}, making the problem feasible
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"p": ["1/2"], "r": {key: "1/2"}}), encoding="utf-8")
    code, out, err = run(capsys, "assign", "--problem", str(problem))
    assert (code, out) == (1, "")
    named = json.dumps(key)
    assert err == f"error: problem file: subset key {named} is not of the form {{k,...}}\n"


def test_assign_missing_file(capsys):
    code, _, err = run(capsys, "assign", "--problem", "no-such-file.json")
    assert code == 1


def test_assign_bad_json(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "assign", "--problem", str(problem))
    assert code == 1


@pytest.mark.parametrize(
    "text",
    (
        "[1, 2]",
        '{"r": [1]}',
        '{"p": [null]}',
        '{"p": ["1/2"], "r": {"{1}": null}}',
        '{"p": ["1/0"]}',
        '{"p": [Infinity]}',
        None,  # --problem names a directory
    ),
    ids=("list", "r-list", "null-demand", "null-supply", "zero-division", "infinity", "directory"),
)
def test_malformed_problem_files_exit_one(tmp_path, capsys, text):
    problem = tmp_path / "problem.json"
    if text is None:
        problem.mkdir()
    else:
        problem.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "assign", "--problem", str(problem))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_deeply_nested_problem_file_exits_one(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "assign", "--problem", str(problem))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "problem",
    ({"p": ["1e-20000000"]}, {"p": ["1e-2000000"], "r": {"{1}": "1"}},
     {"p": ["1/2"] * 12 + ["not a number"]}),
    ids=("demand", "demand-and-supply", "size"),
)
def test_huge_exponent_exits_two_at_once(tmp_path, capsys, problem):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "assign", "--problem", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("resource cap exceeded: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text",
    ('{"p": [0.9, 0], "r": {"{1}": 0.3, "{1,2}": 0.6}}',
     '{"p": ["0.9", "0"], "r": {"{1}": "0.3", "{1,2}": "0.6"}}'),
    ids=("literals", "strings"),
)
def test_number_literals_are_read_as_exact_decimals(tmp_path, capsys, text):
    # as binary floats 0.3 + 0.6 falls short of 0.9
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    code, payload, _ = run_json(capsys, "assign", "--problem", str(path))
    assert code == 0 and payload["feasible"] is True


def test_huge_exponent_literal_exits_two(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text('{"p": [1e-20000000]}', encoding="utf-8")
    code, out, err = run(capsys, "assign", "--problem", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("resource cap exceeded: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text", ['{"p": [true]}', '{"p": ["1/2"], "r": {"{1}": false}}'],
                         ids=("demand", "supply"))
def test_boolean_numbers_exit_one(tmp_path, capsys, text):
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "assign", "--problem", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_small_exponent_still_solves(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"p": ["1e-3"], "r": {"{1}": "1"}}), encoding="utf-8")
    code, payload, _ = run_json(capsys, "assign", "--problem", str(path))
    assert code == 0 and payload["feasible"]
    assert payload["shares"] == [{"item": 1, "subset": [1], "share": "1/1000"}]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["1/2", "1", "0", "1/0", "{1}", "{1,2}"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["p", "r", "{1}", "{1,2}", "{}", "x"]), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(JSON_VALUES)
def test_any_problem_file_keeps_the_exit_code_contract(tmp_path, value):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(value), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["assign", "--problem", str(problem)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()


def test_fixtures_all_pass(capsys):
    code, payload, _ = run_json(capsys, "fixtures")
    assert code == 0
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["results"]) >= 18


def test_fixture_names_are_pinned():
    assert [name for name, _ in FIXTURES] == [
        "eval-duplicator-choice",
        "eval-omega-divergence",
        "eval-hidden-half",
        "eval-self-application",
        "eval-separation-pair",
        "eval-context-mass",
        "small-step-cases",
        "small-step-tables",
        "tree-level-1",
        "tree-level-2",
        "tree-eta-pairs",
        "tree-unknown-deficit",
        "tree-separation",
        "markov-transitions",
        "bisim-refutation",
        "sim-refutation",
        "appcmp-separation",
        "assignment-solver",
    ]
    assert [name for name, _, _ in CASES] == [name for name, _ in FIXTURES]


def test_a_fixture_with_a_wrong_expected_value_fails(capsys, monkeypatch):
    name, compute, _ = CASES[2]
    rows = list(FIXTURES)
    rows[2] = (name, partial(check, compute, lambda: ONE))
    monkeypatch.setattr(fixtures, "FIXTURES", rows)
    code, out, _ = run(capsys, "fixtures")
    assert code == 1
    assert f"FAIL {name}: expected Dyadic(1), got Distr({{<\\x.x>: 1/2}})\n" in out
    assert out.count("PASS ") == 17
    assert out.endswith("17 passed, 1 failed\n")


def test_fixtures_output_does_not_depend_on_the_hash_seed():
    outs = set()
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "plam.cli", "fixtures", "--format", "json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_proptest_clean(capsys):
    code, payload, _ = run_json(capsys, "proptest", "--seed", "7", "--cases", "60")
    assert code == 0
    assert payload["cases"] == 60
    assert payload["failures"] == []


def _triple_nest(base, k):
    for _ in range(k):
        base = rf"\x.x ({base}) ({base}) ({base})"
    return base


TEXT_GOLDEN = {
    "tree": (
        ["tree", r"Theta (\f.y (+) y f)", "--level", "2", "--fuel", "8"],
        """\
level 2 tree, deficit 0
  1/2 -> λ(0+)...y [offset -1]
    level 1 tree, deficit 0
      1 -> λ(0+)...y [offset 0]
  1/2 -> λ(0+)...y [offset 0]
""",
    ),
    "sim-witness": (
        ["sim", M48, N48, "--pool", "I"],
        r"""distinguished:
move tau separates: left mass in [1, 1], right mass in [1/2, 1/2]
block: HnfState(\x.x ((\y.y y) (\y.y y) (+) \y.y))
because HnfState(\x.x ((\y.y y) (\y.y y) (+) \y.y)) vs HnfState(\x.x ((\y.y y) (\y.y y))):
  move Apply(\x.x) separates: left mass in [1, 1], right mass in [0, 0]
  block: TermState((\x.x) ((\x.x x) (\x.x x) (+) \x.x))
  because TermState((\x.x) ((\x.x x) (\x.x x) (+) \x.x)) vs TermState((\x.x) ((\x.x x) (\x.x x))):
    move tau separates: left mass in [1/2, 1/2], right mass in [0, 0]
    block: HnfState(\x.x)
""",
    ),
    "bisim-tree-witness": (
        ["bisim", M24, N24, "--tree-level", "2"],
        """\
distinguished:
tree difference at level 2: Different(path=[], left=1, right=0)
""",
    ),
    "appcmp": (
        ["appcmp", M24, N24, "--maxlen", "1"],
        r"""(empty): left 1 right 1 -> Inconclusive
\x.x: left 1 right 1 -> Inconclusive
(\x.x x) (\x.x x): left 1 right 1 -> Inconclusive
\x.x x: left 1 right 1 -> Inconclusive
\x y.x: left 1 right 1 -> Inconclusive
\x y.y: left 1 right 1 -> Inconclusive
""",
    ),
    "compare-tree-unknown": (
        ["compare-tree", r"(\x.y (+) x x) (\x.y (+) x x)", "y", "--fuel", "6"],
        "unknown (uncertainty bound 1/64)\n",
    ),
    # a node's missing mass is counted once, however many children are short
    "compare-tree-two-short-children": (
        ["compare-tree", r"\x.x Omega Omega", r"\x.x y y", "--level", "3"],
        "unknown (uncertainty bound 1)\n",
    ),
    "compare-tree-three-way-depth-6": (
        ["compare-tree", _triple_nest("Omega", 6), _triple_nest("y", 6), "--level", "8"],
        "unknown (uncertainty bound 1)\n",
    ),
    "trace": (
        ["trace", "a (+) b"],
        "[1] a (+) b\n  [1/2] a*\n  [1/2] b*\n"
        "cumulative after 8 steps (mass 1):\n  1/2\ta\n  1/2\tb\n",
    ),
}


@pytest.mark.parametrize("name", TEXT_GOLDEN)
def test_text_format_is_pinned(capsys, name):
    argv, expected = TEXT_GOLDEN[name]
    assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize(
    "problem, expected",
    (
        ({"p": ["1/2", "1/2"], "r": {"{1,2}": "1"}},
         "feasible\n  s[1, {1, 2}] = 1/2\n  s[2, {1, 2}] = 1/2\n"),
        ({"p": ["3/4", "1/2"], "r": {"{1}": "1/2", "{2}": "1/2"}},
         "infeasible, witness subset [1]\n"),
    ),
    ids=("feasible", "infeasible"),
)
def test_assign_text_is_pinned(tmp_path, capsys, problem, expected):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    assert run(capsys, "assign", "--problem", str(path)) == (0, expected, "")


@pytest.mark.parametrize(
    "argv, flag",
    (
        (["tree", "I", "--level", "9"], "--level"),
        (["bisim", r"Theta (\f x.x f f)", r"Theta (\f x.x f (f (+) f))",
          "--tree-level", "14", "--depth", "1"], "--tree-level"),
        (["appcmp", M24, N24, "--maxlen", "6"], "--maxlen"),
        (["appcmp", M24, N24, "--maxlen", "7"], "--maxlen"),
        (["appcmp", "I", "I", "--maxlen", "1000000000", "--pool", "I"], "--maxlen"),
        (["trace", r"(\x.x x (+) x x x) (\x.x x (+) x x x)", "--steps", "60",
          "--cap", "65537"], "--cap"),
        (["proptest", "--cases", "1000000000"], "--cases"),
    ),
    ids=("level", "tree-level", "maxlen-6", "maxlen-7", "maxlen-huge", "cap", "cases"),
)
def test_over_cap_flags_exit_two_at_once(capsys, argv, flag):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"resource cap exceeded: {flag} ")


def test_appcmp_sequence_cap_boundary(capsys):
    # the default five-term pool at length 4 gives 781 sequences, under the cap
    code, payload, _ = run_json(capsys, "appcmp", "I", "I", "--maxlen", "4")
    assert code == 0 and len(payload["sequences"]) == 781
    code, out, err = run(capsys, "appcmp", "I", "I", "--maxlen", "-1")
    assert (code, out) == (1, "") and "--maxlen must be non-negative" in err


def test_readme_appcmp_run_is_pinned(capsys):
    # the README's comparison at the sequence cap, which CI also runs
    code, out, _ = run(capsys, "appcmp", M24, N24, "--maxlen", "4", "--format", "json")
    assert code == 0
    seqs = json.loads(out)["sequences"]
    assert len(seqs) == 781
    verdicts = Counter(s["verdict"] for s in seqs)
    assert verdicts == {"Inconclusive": 727, "LeftExceeds": 32, "RightExceeds": 22}
    exact = Counter((s["left"]["exact"], s["right"]["exact"]) for s in seqs)
    assert exact == {(True, True): 749, (False, True): 32}
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "94f6aa762448ed855e2b22d0ddb8305da0a911e8fdc92c7cefc1f9eea490a4c9"


def test_proptest_cases_cap_boundary(capsys):
    code, payload, _ = run_json(capsys, "proptest", "--cases", "200")
    assert code == 0 and payload["cases"] == 200
    code, out, err = run(capsys, "proptest", "--cases", "-1")
    assert (code, out) == (1, "") and "--cases must be non-negative" in err


# renderer paths no other test reaches, pinned in both formats
RENDER_GOLDEN = {
    "bound-head": (
        ["tree", r"\x y.x", "--level", "2"],
        {"level": 2, "deficit": "0", "support": [{"weight": "1", "tree": {
            "binders": 2, "head": "@0.1", "offset": 2, "args": []}}]},
        "level 2 tree, deficit 0\n  1 -> λ(2+)...@0.1 [offset 2]\n",
    ),
    "bottom-tree": (
        ["tree", "Omega", "--level", "2"],
        {"level": 2, "deficit": "1", "support": []},
        "level 2 tree, deficit 1\n  bottom\n",
    ),
    "inconclusive-game": (
        ["bisim", "I", "I"],
        {"verdict": "inconclusive", "trace": None},
        "inconclusive (no certified difference at these bounds)\n",
    ),
}


@pytest.mark.parametrize("name", RENDER_GOLDEN)
def test_rarely_reached_renderers_are_pinned(capsys, name):
    argv, payload, text = RENDER_GOLDEN[name]
    assert run_json(capsys, *argv) == (0, payload, "")
    assert run(capsys, *argv, "--format", "text") == (0, text, "")


def test_entry_point_script():
    proc = subprocess.run(
        [sys.executable, "-m", "plam.cli", "eval", "Omega (+) I", "--fuel", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1/2" in proc.stdout


DEEP_SHAPES = (
    lambda k: ["parse", "\\x." * k + "x"],
    lambda k: ["eval", "x (+) " * k + "x"],
    lambda k: ["eval", "(\\x.x) (" * k + "y" + ")" * k],
    lambda k: ["eval", "y" + " y" * k],
)


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_deep_input_hits_nesting_cap(capsys, shape):
    code, out, err = run(capsys, *shape(2000))
    assert code == 2
    assert out == ""
    assert "nest" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    # just under the cap the same shape parses and evaluates
    code, out, err = run(capsys, *shape(MAX_NESTING - 2))
    assert code == 0 and out and not err


def test_deep_intermediate_term_exits_with_cap_code(capsys):
    # a 3000-argument spine is refused by the parser; the Church tower
    # parses, but evaluating it builds a term deeper than the stack allows
    tower = " ".join([r"(\f x.f (f x))"] * 5)
    for argv in (["eval", "y" + " y" * 3000], ["eval", tower + " y z", "--fuel", "64"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_memory_exhaustion_exits_with_cap_code(capsys, monkeypatch):
    def exhausted(*_):
        raise MemoryError

    monkeypatch.setattr("plam.cli.eval_fuel", exhausted)
    code, out, err = run(capsys, "eval", "Omega", "--fuel", "8")
    assert code == 2
    assert out == ""
    assert err == "resource cap exceeded: out of memory\n"


NESTED = r"\a.a (\b.b (\c.c (\d.d (\e.e (\f.f (\g.{} y))))))"


@pytest.mark.parametrize(
    "pair, level",
    (
        ((r"\y.y", r"\y.x1"), "2"),
        # the innermost head is bound at the root (@0.1) or five nodes down (@5.1)
        ((NESTED.format("a"), NESTED.format("f")), "8"),
    ),
)
def test_different_trees_render_differently(capsys, pair, level):
    outs = [run(capsys, "tree", t, "--level", level, "--format", fmt)
            for t in pair for fmt in ("json", "text")]
    assert outs[0] != outs[2] and outs[1] != outs[3]
    code, out, _ = run(capsys, "compare-tree", *pair, "--level", level)
    assert code == 0 and out.startswith("different")


def test_nested_spines_hit_nesting_cap(capsys):
    # twenty spines of 150 arguments, each the first argument of the next:
    # every spine and the parentheses stay under the cap, the height not
    term = "f (" * 20 + "x" + (")" + " y" * 149) * 20
    code, out, err = run(capsys, "parse", term)
    assert code == 2
    assert out == ""
    assert f"nests deeper than {MAX_NESTING} levels" in err


@pytest.mark.parametrize(
    "argv",
    (
        ["frobnicate", "x"],
        ["eval"],
        ["eval", "x", "--fuel", "abc"],
        ["parse", "x", "--format", "xml"],
    ),
)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "usage" in out


def test_one_parser_serves_every_call_of_a_process(capsys):
    valid = ("eval", "Delta (T (+) F)", "--fuel", "4", "--format", "json")
    code, _, err = run(capsys, "eval", "x", "--fuel", "abc")
    assert code == 1 and "usage" in err
    code, first, _ = run(capsys, *valid)
    assert code == 0
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage" in out
    code, again, _ = run(capsys, *valid)
    assert code == 0 and again == first
    assert _build_parser() is _build_parser()


# raw text mostly fails to tokenize, so half the cases are built from tokens
TOKEN_TEXT = st.lists(
    st.sampled_from(["x", "y", "I", "Omega", "Delta", "\\x.", "λy.", "(", ")", "(+)", "⊕", " "]),
    max_size=20,
).map("".join)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.text(max_size=40), TOKEN_TEXT))
def test_any_text_keeps_the_exit_code_contract(text):
    for argv in (["parse", text], ["eval", text, "--fuel", "2"]):
        # capsys spans the whole test, so each example captures its own output
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
