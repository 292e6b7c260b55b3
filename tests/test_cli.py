"""Input validation, command dispatch, report determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from webweave.cli import (
    COMMANDS,
    EXIT_ENGINE,
    EXIT_INPUT,
    EXIT_OK,
    MAX_DIMENSION,
    MAX_TERM_DEGREE,
    InputError,
    main,
    parse_document,
    run,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
REPORT_DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
README = Path(__file__).resolve().parent.parent / "README.md"

CONIC = {
    "n": 2,
    "pdes": [[
        {"c": [-1, 1], "X": [0, 0, 0], "u": [2, 0, 0]},
        {"c": [1, 1], "X": [0, 0, 0], "u": [0, 2, 0]},
        {"c": [1, 1], "X": [0, 0, 0], "u": [0, 0, 2]},
    ]],
}


def write(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parsing ---------------------------------------------------------------


def test_parse_conic():
    doc = parse_document(CONIC)
    assert doc.n == 2
    assert doc.pdes[0].bidegree == (0, 2)


def test_parse_rejects_bad_exponent_length():
    bad = {"n": 2, "pdes": [[{"c": [1, 1], "X": [0, 0], "u": [0, 2, 0]}]]}
    with pytest.raises(InputError, match="length"):
        parse_document(bad)


def test_parse_rejects_zero_polynomial():
    bad = {"n": 2, "pdes": [[
        {"c": [1, 1], "X": [0, 0, 0], "u": [0, 2, 0]},
        {"c": [-1, 1], "X": [0, 0, 0], "u": [0, 2, 0]},
    ]]}
    with pytest.raises(InputError, match="zero"):
        parse_document(bad)


def test_parse_rejects_non_bihomogeneous():
    bad = {"n": 2, "pdes": [[
        {"c": [1, 1], "X": [0, 0, 0], "u": [0, 2, 0]},
        {"c": [1, 1], "X": [1, 0, 0], "u": [0, 0, 1]},
    ]]}
    with pytest.raises(InputError, match="bi-homogeneous"):
        parse_document(bad)


def test_parse_rejects_weight_zero():
    bad = {"n": 2, "pdes": [[{"c": [1, 1], "X": [2, 0, 0], "u": [0, 0, 0]}]]}
    with pytest.raises(InputError, match="weight"):
        parse_document(bad)


def test_parse_rejects_incidence_multiple():
    bad = {"n": 2, "pdes": [[
        {"c": [1, 1], "X": [1, 0, 0], "u": [1, 0, 0]},
        {"c": [1, 1], "X": [0, 1, 0], "u": [0, 1, 0]},
        {"c": [1, 1], "X": [0, 0, 1], "u": [0, 0, 1]},
    ]]}
    with pytest.raises(InputError, match="incidence"):
        parse_document(bad)


def _term(c=(1, 1), X=(0, 0, 0), u=(0, 2, 0)):
    return {"c": list(c), "X": list(X), "u": list(u)}


@pytest.mark.parametrize("doc, match", [
    pytest.param({"n": True, "pdes": [[_term()]]}, "field 'n'", id="n"),
    pytest.param({"n": 2, "pdes": [[_term(), _term(c=(True, 1))]]},
                 "term 1: coefficient", id="c-numerator"),
    pytest.param({"n": 2, "pdes": [[_term(c=(1, True))]]},
                 "term 0: coefficient", id="c-denominator"),
    pytest.param({"n": 2, "pdes": [[_term(X=(False, 0, 0))]]},
                 "term 0: X exponents", id="X-exponent"),
    pytest.param({"n": 2, "pdes": [[_term(), _term(u=(0, True, True))]]},
                 "term 1: u exponents", id="u-exponents"),
])
def test_parse_rejects_booleans_as_integers(doc, match, tmp_path, capsys):
    # JSON true/false are not integers, although Python's bool is an int
    with pytest.raises(InputError, match=match):
        parse_document(doc)
    code, out, err = run_cli(["bidegree", write(tmp_path, doc)], capsys)
    assert code == EXIT_INPUT and not out and match in err


def test_parse_rejects_degrees_over_the_limit(tmp_path, capsys):
    # u^3000 made chart-form expand the forced u-expression to that power
    # and run for more than 15 s; it is now an input error
    huge = {"n": 2, "pdes": [[_term(X=(0, 0, 0), u=u) for u in
                              ((3000, 0, 0), (0, 3000, 0), (0, 0, 3000))]]}
    with pytest.raises(InputError, match="pde 0, term 0: u-degree 3000 exceeds"):
        parse_document(huge)
    code, out, err = run_cli(["chart-form", write(tmp_path, huge), "--chart", "1,2"], capsys)
    assert code == EXIT_INPUT and not out and "u-degree 3000" in err
    top = MAX_TERM_DEGREE
    with pytest.raises(InputError, match="pde 0, term 1: X-degree"):
        parse_document({"n": 2, "pdes": [[_term(X=(1, 0, 0), u=(0, 1, 0)),
                                          _term(X=(0, top, 1), u=(0, 0, 1))]]})
    at_limit = parse_document({"n": 2, "pdes": [[_term(X=(top, 0, 0), u=(0, top, 0)),
                                                 _term(X=(0, top, 0), u=(0, 0, top))]]})
    assert at_limit.pdes[0].bidegree == (top, top)


def test_parse_rejects_dimension_over_the_limit(tmp_path, capsys):
    # parsing built the 2n + 2 variable table first, so this n ran out of
    # memory with a traceback
    huge = {"n": 10**30, "pdes": [[_term(X=(1, 0, 0), u=(1, 0, 2))]]}
    with pytest.raises(InputError, match=f"field 'n' exceeds the limit {MAX_DIMENSION}"):
        parse_document(huge)
    code, out, err = run_cli(["bidegree", write(tmp_path, huge)], capsys)
    assert code == EXIT_INPUT and not out
    assert f"error: field 'n' exceeds the limit {MAX_DIMENSION}" in err
    with pytest.raises(InputError, match="exceeds the limit"):
        parse_document({"n": MAX_DIMENSION + 1, "pdes": [[_term()]]})
    top = MAX_DIMENSION
    at_limit = parse_document({"n": top, "pdes": [[
        _term(X=(0,) * (top + 1), u=(1, 1) + (0,) * (top - 1))]]})
    assert at_limit.pdes[0].bidegree == (0, 2)


def test_assertion_flags_leave_certify_unchanged(tmp_path, capsys):
    # older documents carry the hypothesis flags; like any other unknown
    # top-level key they are ignored, so the report is the same (apart
    # from the path and the digest of the file bytes)
    flagged = dict(CONIC, asserted_irreducible=True, asserted_quasi_smooth=True)
    reports = []
    for name, doc in (("plain.json", CONIC), ("flagged.json", flagged)):
        code, out, err = run_cli(["certify", write(tmp_path, doc, name)], capsys)
        assert code == EXIT_OK and not err
        report = json.loads(out)
        del report["input"], report["digest"]
        reports.append(report)
    assert reports[0] == reports[1]


# -- commands ---------------------------------------------------------------


def test_unknown_command_is_input_error():
    with pytest.raises(InputError, match="unknown command"):
        run("nope", parse_document(CONIC), None)


def test_readme_command_table_matches_commands():
    # the usage table in README lists the commands name for name, in order
    table = README.read_text(encoding="utf-8").split("| command ", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^\| `([a-z-]+)`", table, re.M) == list(COMMANDS)


def test_bidegree_command(tmp_path, capsys):
    path = write(tmp_path, CONIC)
    code, out, _ = run_cli(["bidegree", path], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["pdes"][0]["bidegree"] == [0, 2]
    assert report["weight"] == 2 and report["multidegree"] == [0]


def test_chart_form_command(tmp_path, capsys):
    path = write(tmp_path, CONIC)
    code, out, _ = run_cli(["chart-form", path, "--chart", "0,2"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    F = report["pdes"][0]["forms"][0]["F"]
    from webweave.polycore import MultiPoly, VarTable
    T = VarTable.chart(2, 0, 2)
    x1, x2, p1 = (MultiPoly.var(T, n) for n in ("x1", "x2", "p1"))
    expected = p1**2 + 1 - (x2 - p1 * x1) ** 2
    assert F == expected.to_string()


def test_caustic_command_chart_restricted(tmp_path, capsys):
    path = write(tmp_path, CONIC)
    code, out, _ = run_cli(["caustic", path, "--chart", "0,2"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["charts"] == [
        {"chart": [0, 2], "generators": ["x1^2 + x2^2 - 1"]}]


def test_verdict_false_still_exits_zero(tmp_path, capsys):
    cusp = {"n": 2, "pdes": [[
        {"c": [1, 1], "X": [1, 0, 0], "u": [0, 2, 0]},
        {"c": [-1, 1], "X": [0, 1, 0], "u": [0, 0, 2]},
    ]]}
    path = write(tmp_path, cusp)
    code, out, _ = run_cli(["dicritical", path], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["aggregated"] is False


def test_certify_command(tmp_path, capsys):
    fermat = {"n": 2, "pdes": [[
        {"c": [1, 1], "X": [0, 0, 0], "u": [3, 0, 0]},
        {"c": [1, 1], "X": [0, 0, 0], "u": [0, 3, 0]},
        {"c": [1, 1], "X": [0, 0, 0], "u": [0, 0, 3]},
    ]]}
    path = write(tmp_path, fermat)
    code, out, _ = run_cli(["certify", path], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["dicritical"]["aggregated"] is True
    assert report["multidegree"] == [0]
    assert report["algebraic"] is True
    assert report["contradiction"] is False
    assert report["script_N"] == "0/1"


def test_bott_command_matches_reference(tmp_path, capsys):
    doc = json.loads((SAMPLES / "mixed_n3.json").read_text())
    path = write(tmp_path, doc)
    code, out, _ = run_cli(["bott", path], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["bott_number"] == 4
    assert report["script_N"] == "1/1"
    assert report["weight"] == 4


def test_dual_round_trips_through_parser(tmp_path, capsys):
    cusp = {"n": 2, "pdes": [[
        {"c": [1, 1], "X": [1, 0, 0], "u": [0, 2, 0]},
        {"c": [-1, 1], "X": [0, 1, 0], "u": [0, 0, 2]},
    ]]}
    path = write(tmp_path, cusp)
    code, out, _ = run_cli(["dual", path], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    dual_terms = report["pdes"][0]["terms"]
    assert report["pdes"][0]["bidegree"] == [2, 1]
    redoc = parse_document({"n": 2, "pdes": [dual_terms]})
    assert redoc.pdes[0].bidegree == (2, 1)


def test_chern_command(tmp_path, capsys):
    path = write(tmp_path, CONIC)
    code, out, _ = run_cli(["chern", path], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["top_class_vanishes"] is True
    assert len(report["chern_T"]) == 3


def test_linearizable_command(tmp_path, capsys):
    path = write(tmp_path, CONIC)
    code, out, _ = run_cli(["linearizable", path], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["pdes"][0]["aggregated"] is True


def test_critical_command(tmp_path, capsys):
    path = write(tmp_path, CONIC)
    code, out, _ = run_cli(["critical", path, "--chart", "0,2"], capsys)
    assert code == EXIT_OK
    entry = json.loads(out)["charts"][0]
    assert entry["degenerate"] is False
    assert entry["critical_basis"]


# -- determinism, formats, exit codes ---------------------------------------


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write(tmp_path, CONIC)
    _, out1, _ = run_cli(["certify", path], capsys)
    _, out2, _ = run_cli(["certify", path], capsys)
    assert out1 == out2


def _without_input(out: str, options: list[str]) -> str:
    # the "input" field echoes the path given on the command line
    if not out:
        return out
    if "text" in options:
        return "".join(line for line in out.splitlines(keepends=True)
                       if not line.startswith("input: "))
    report = json.loads(out)
    del report["input"]
    return json.dumps(report, indent=2)


@pytest.mark.parametrize("options", [[], ["--format", "text"], ["--chart", "0,1"]],
                         ids=["json", "text", "chart-0-1"])
def test_sample_reports_match_recorded_digests(options, capsys):
    # the reports are the contract: every command on every sample input
    # must keep its exit code and its stdout byte for byte, in both
    # formats and when restricted to one chart
    recorded = json.loads(REPORT_DIGESTS.read_text(encoding="utf-8"))
    expected = {key: value for key, value in recorded.items()
                if key.split()[2:] == options}
    seen = {}
    for path in sorted(SAMPLES.glob("*.json")):
        for command in COMMANDS:
            code, out, _ = run_cli([command, str(path), *options], capsys)
            out = _without_input(out, options)
            seen[" ".join([command, path.name, *options])] = [
                code, hashlib.sha256(out.encode("utf-8")).hexdigest()]
    assert seen == expected


def test_json_report_round_trips(tmp_path, capsys):
    path = write(tmp_path, CONIC)
    _, out, _ = run_cli(["certify", path], capsys)
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2) + "\n" == out


def test_text_format(tmp_path, capsys):
    path = write(tmp_path, CONIC)
    code, out, _ = run_cli(["bidegree", path, "--format", "text"], capsys)
    assert code == EXIT_OK
    assert "weight: 2" in out


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(["bidegree", "/nonexistent/x.json"], capsys)
    assert code == EXIT_INPUT and "error" in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # bad syntax; an integer past the interpreter's digit limit and deep
    # nesting, which json.loads reports as ValueError and RecursionError
    # (an interpreter without the digit limit parses the integer, and the
    # document fails as an n over the limit instead)
    for text in ("{not json", '{"n": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000):
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["bidegree", str(path)], capsys)
        assert code == EXIT_INPUT and not out and err.startswith("error: ")
        assert "malformed JSON" in err or not hasattr(sys, "get_int_max_str_digits")


def test_wrong_pde_count_for_web_command(tmp_path, capsys):
    doc = {"n": 3, "pdes": CONIC["pdes"]}
    # the conic terms are not bi-homogeneous over n=3 tables (length check fires)
    path = write(tmp_path, doc)
    code, _, err = run_cli(["dicritical", path], capsys)
    assert code == EXIT_INPUT


# exit codes under WEAVE_PAIR_CAP=0, by sample: the cap reaches every
# command that runs a pair reduction; linearizable tests membership in a
# principal ideal, which needs none, and dual rejects the delta = 0 webs
_SAMPLE_NAMES = ("clairaut_conic", "cusp", "fermat_cubic_dual", "mixed_n3")
_ZERO_CAP_EXITS = {
    **{cmd: (EXIT_ENGINE,) * 4 for cmd in ("critical", "caustic", "smooth", "certify")},
    **{cmd: (EXIT_OK, EXIT_ENGINE, EXIT_OK, EXIT_ENGINE)
       for cmd in ("dicritical", "hyperdicritical")},
    "dual": (EXIT_INPUT, EXIT_OK, EXIT_INPUT, EXIT_INPUT),
}


@pytest.mark.parametrize("sample", range(4), ids=_SAMPLE_NAMES)
@pytest.mark.parametrize("command", COMMANDS)
def test_pair_cap_env_triggers_engine_exit(command, sample, capsys, monkeypatch):
    monkeypatch.setenv("WEAVE_PAIR_CAP", "0")
    path = str(SAMPLES / f"{_SAMPLE_NAMES[sample]}.json")
    code, _, err = run_cli([command, path], capsys)
    assert code == _ZERO_CAP_EXITS.get(command, (EXIT_OK,) * 4)[sample]
    assert (code == EXIT_ENGINE) == ("pair reductions" in err)


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_pair_cap_env_rejects_invalid(tmp_path, capsys, monkeypatch, value):
    path = write(tmp_path, CONIC)
    monkeypatch.setenv("WEAVE_PAIR_CAP", value)
    code, out, err = run_cli(["critical", path], capsys)
    assert code == EXIT_INPUT and not out
    assert "error: WEAVE_PAIR_CAP must be an integer >= 0" in err


def test_all_requested_charts_degenerate(tmp_path, capsys):
    # u1^2: the critical determinant vanishes in chart (0,1) only, so a
    # run restricted to it names the requested charts, not the web
    path = write(tmp_path, {"n": 2, "pdes": [[{"c": [1, 1], "X": [0, 0, 0], "u": [0, 2, 0]}]]})
    for command in ("dicritical", "hyperdicritical"):
        code, out, err = run_cli([command, path, "--chart", "0,1"], capsys)
        assert code == EXIT_INPUT and not out
        assert err == ("error: critical determinant vanishes identically "
                       "in every requested chart\n")
        code, out, _ = run_cli([command, path], capsys)
        assert code == EXIT_OK and json.loads(out)["aggregated"]


def test_repeated_chart_reported_once(capsys):
    # the report body of a repeated --chart is that of a single one; only
    # charts_requested echoes the arguments as given
    path = str(SAMPLES / "cusp.json")
    code, out, _ = run_cli(["smooth", path, "--chart", "1,0", "--chart", "1,0"], capsys)
    assert code == EXIT_OK
    twice = json.loads(out)
    code, out, _ = run_cli(["smooth", path, "--chart", "1,0"], capsys)
    once = json.loads(out)
    assert twice.pop("charts_requested") == ["1,0", "1,0"]
    assert once.pop("charts_requested") == ["1,0"]
    assert twice == once
    assert [c["chart"] for c in twice["per_chart"]] == [[1, 0]]


def test_invalid_chart_option(tmp_path, capsys):
    path = write(tmp_path, CONIC)
    code, _, err = run_cli(["caustic", path, "--chart", "9,9"], capsys)
    assert code == EXIT_INPUT


def test_console_script_runs(tmp_path):
    path = write(tmp_path, CONIC)
    proc = subprocess.run([sys.executable, "-m", "webweave.cli", "bidegree", path],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["weight"] == 2


# -- fuzzing ---------------------------------------------------------------

# Commands whose cost stays small at n = 3; at n = 2 every command is cheap.
CHEAP_COMMANDS = ("bidegree", "chart-form", "dual", "algebraic", "chern", "bott",
                  "linearizable")
JUNK = (None, True, False, 0, -1, 1, 2.0, 2.5, "2", [], {}, MAX_DIMENSION + 1, 10**30)


@st.composite
def fuzz_cases(draw):
    """A command, a format and a small document with at most one field broken.

    Terms of one equation share a drawn bi-degree (at most 2 in X and in
    u), so unbroken documents usually parse and reach the command.
    """
    n = draw(st.sampled_from((2, 3)))

    def exponents(degree):
        slots = draw(st.lists(st.integers(0, n), min_size=degree, max_size=degree))
        return [slots.count(k) for k in range(n + 1)]

    pdes = []
    # web commands need n - 1 equations; other counts test the rejection
    for _ in range(draw(st.sampled_from((n - 1, n - 1, n - 1, 1, n)))):
        dX, du = draw(st.integers(0, 2)), draw(st.integers(1, 2))
        pdes.append([{"c": [draw(st.sampled_from((1, -1, 2, -3))),
                            draw(st.sampled_from((1, 2, 3, -1)))],
                      "X": exponents(dX), "u": exponents(du)}
                     for _ in range(draw(st.integers(1, 3)))])
    doc = {"n": n, "pdes": pdes}
    command = draw(st.sampled_from(COMMANDS if n == 2 else CHEAP_COMMANDS))
    fmt = draw(st.sampled_from(("json", "text")))
    broken = draw(st.sampled_from(("none",) * 5 + ("n", "field", "missing", "pdes", "top")))
    if broken == "n":
        doc["n"] = draw(st.sampled_from(JUNK))
    elif broken == "field":
        term = draw(st.sampled_from([t for terms in pdes for t in terms]))
        term[draw(st.sampled_from(("c", "X", "u")))] = draw(
            st.sampled_from(JUNK + ([0] * (n + 2), [1], [1, 0], [1.5, 1])))
    elif broken == "missing":
        del draw(st.sampled_from([t for terms in pdes for t in terms]))[
            draw(st.sampled_from(("c", "X", "u")))]
    elif broken == "pdes":
        doc["pdes"] = draw(st.sampled_from(JUNK))
    elif broken == "top":
        doc = [doc]
    return doc, command, fmt


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=({"n": 10**30, "pdes": [[{"c": [1, 1], "X": [1, 0, 0], "u": [1, 0, 2]}]]},
               "bidegree", "json"))
@given(case=fuzz_cases())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, case):
    # every document ends with a report (0), an input error (2) or an
    # engine limit (3), and an error always says why on stderr
    doc, command, fmt = case
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), "--format", fmt])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_ENGINE), case
    if code == EXIT_OK:
        assert out.getvalue() and not err.getvalue()
    else:
        assert err.getvalue().startswith("error: "), case
