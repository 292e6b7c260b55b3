"""Input validation, command dispatch, report determinism, exit codes."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from webweave.cli import (
    COMMANDS,
    EXIT_ENGINE,
    EXIT_INPUT,
    EXIT_OK,
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
        run("nope", parse_document(CONIC), None, 0)


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
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["bidegree", str(path)], capsys)
    assert code == EXIT_INPUT and "malformed JSON" in err


def test_wrong_pde_count_for_web_command(tmp_path, capsys):
    doc = {"n": 3, "pdes": CONIC["pdes"]}
    # the conic terms are not bi-homogeneous over n=3 tables (length check fires)
    path = write(tmp_path, doc)
    code, _, err = run_cli(["dicritical", path], capsys)
    assert code == EXIT_INPUT


def test_pair_cap_env_triggers_engine_exit(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, CONIC)
    monkeypatch.setenv("WEAVE_PAIR_CAP", "0")
    code, _, err = run_cli(["critical", path], capsys)
    assert code == EXIT_ENGINE
    assert "pair reductions" in err


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_pair_cap_env_rejects_invalid(tmp_path, capsys, monkeypatch, value):
    path = write(tmp_path, CONIC)
    monkeypatch.setenv("WEAVE_PAIR_CAP", value)
    code, out, err = run_cli(["critical", path], capsys)
    assert code == EXIT_INPUT and not out
    assert "error: WEAVE_PAIR_CAP must be an integer >= 0" in err


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
