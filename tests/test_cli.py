"""The command line interface: exit codes, config files, stable output."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from conetilt.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_USAGE,
    ConfigError,
    build_parser,
    main,
    parse_config,
)
from conetilt.cone import MAX_N
from conetilt.rules import OutOfValidity, PresentationMismatch

CONFIG = """\
# the threefold instance
space: 3,3

objects:
  F  = ker(1)
  G  = ker(2)
  FG = F + G
  O  = O(0)
  O3 = O(3)

collections:
  main = FG, O, O3
  reversed = O3, O
"""


def test_parse_config_roundtrip():
    cfg = parse_config(CONFIG)
    assert str(cfg.space) == "P(1,1,1,3)"
    assert set(cfg.objects) == {"F", "G", "FG", "O", "O3"}
    assert cfg.collections["main"] == ["FG", "O", "O3"]


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config("objects:\n  F = ker(1)\n")  # space missing
    with pytest.raises(ConfigError):
        parse_config("space: 3,3\nobjects:\n  F = ker(1)\n  F = ker(2)\n")
    with pytest.raises(ConfigError):
        parse_config("space: 3,3\nobjects:\n  F = nope(1)\n")
    with pytest.raises(ConfigError):
        parse_config("space: 3,3\ncollections:\n  c = missing\n")
    with pytest.raises(ConfigError, match=r"bad multiplicity in 'x\*O\(1\)'"):
        parse_config("space: 3,3\nobjects:\n  D = x*O(1)\n")
    with pytest.raises(ConfigError, match=r"must be positive in '0\*O\(1\)'"):
        parse_config("space: 3,3\nobjects:\n  D = 0*O(1)\n")
    with pytest.raises(ConfigError, match="line 3: collection 'main' is empty"):
        parse_config("space: 3,3\ncollections:\n  main =\n")
    with pytest.raises(ConfigError, match="^line 4: space is declared twice$"):
        parse_config(TWO_SPACES)
    for expr in EMPTY_TERMS:
        with pytest.raises(ConfigError) as info:
            parse_config("space: 3,3\nobjects:\n  D = %s\n" % expr)
        assert str(info.value) == "empty term in %r" % expr


# a dangling, leading or doubled '+', or a multiplicity with no base
EMPTY_TERMS = ("O(0)+", "+O(0)", "O(0)++O(1)", "2*", "O(1) + 2*")


# objects parsed on the first cone would otherwise run on the second
TWO_SPACES = "space: 3,5\nobjects:\n  F = ker(4)\nspace: 3,3\ncollections:\n  c = F\n"


def test_verify_sod_refuses_a_second_space_as_a_config_error(tmp_path, capsys):
    path = tmp_path / "two_spaces.cfg"
    path.write_text(TWO_SPACES)
    code = main(["verify-sod", "--config", str(path), "c"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "config error: line 4: space is declared twice\n"


def test_cohomology_command(capsys):
    code = main(
        [
            "cohomology",
            "--space",
            "3,3",
            "--sheaf",
            "OZ",
            "--twist-min",
            "1",
            "--twist-max",
            "3",
            "--i",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert ["3", "6", "10"] == [line.split()[-1] for line in out.strip().splitlines()[2:]]


def test_cohomology_rejects_bad_degree(capsys):
    code = main(
        [
            "cohomology",
            "--space",
            "3,3",
            "--twist-min",
            "0",
            "--twist-max",
            "0",
            "--i",
            "7",
        ]
    )
    assert code == EXIT_USAGE


def test_hom_command_objects(capsys):
    code = main(["hom", "--instance", "P1113", "F", "G"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "deg0: 24" in out


def test_hom_command_vanishing(capsys):
    code = main(["hom", "--instance", "P1113", "O", "F"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "deg0: 0" in out


def test_hom_command_bundle_to_section(capsys):
    code = main(["hom", "--instance", "P1113", "G", "OZ(1)"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "deg0: 24" in out


def test_cohomology_top_degree(capsys):
    code = main(
        [
            "cohomology",
            "--space",
            "3,3",
            "--sheaf",
            "O",
            "--twist-min",
            "-6",
            "--twist-max",
            "-6",
            "--i",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.strip().splitlines()[-1].split()[-1] == "1"


def test_cohomology_counts_without_enumerating_bases(monkeypatch, capsys):
    import conetilt.cone as cone

    def refuse(space, d):
        raise AssertionError("basis enumerated to count it")

    monkeypatch.setattr(cone, "weighted_monomials", refuse)
    X = cone.make_space(3, 3)
    assert cone.cone_cohomology_dim(X, 100, 0) == 60690
    assert cone.cone_cohomology_dim(X, -150, 3) == 176449
    args = ["cohomology", "--space", "3,3", "--sheaf", "O", "--i"]
    assert main(args + ["0", "--twist-min", "0", "--twist-max", "100"]) == EXIT_OK
    assert capsys.readouterr().out.strip().splitlines()[-1].split() == ["O(100)", "60690"]
    assert main(args + ["3", "--twist-min", "-150", "--twist-max", "-140"]) == EXIT_OK
    assert capsys.readouterr().out.strip().splitlines()[2].split() == ["O(-150)", "176449"]


@pytest.mark.parametrize("value", ["3", "3,3,3", "a,b"])
def test_malformed_space_flag_names_the_expected_form(value, capsys):
    code = main(["hom", "--space", value, "O(1)", "O(2)"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == "config error: bad --space %r: expected two integers n,m\n" % value


@pytest.mark.parametrize("value", ["3", "3,3,3", "a,b"])
def test_malformed_config_space_names_the_expected_form(value, tmp_path, capsys):
    with pytest.raises(ConfigError) as info:
        parse_config("space: %s\n" % value)
    assert str(info.value) == "line 1: bad space %r: expected two integers n,m" % value
    path = tmp_path / "instance.cfg"
    path.write_text("# cone\nspace: %s\n" % value)
    code = main(["hom", "--config", str(path), "O(1)", "O(2)"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == "config error: line 2: bad space %r: expected two integers n,m\n" % value


# an atom of the grammar, or a name no expression can reference
EXPRESSION_NAMES = ("O(1)", "OZ(-2)", "ker(1)", "O(01)", "a+b", "x*y", "a,b", "a b", "a\tb")


@pytest.mark.parametrize("name", EXPRESSION_NAMES)
def test_object_name_that_reads_as_an_expression_is_refused(name, tmp_path, capsys):
    """`O(1) = ker(1)` would make the text O(1) mean ker(1) on the command
    line but O(1) inside an expression; the name is a config error."""
    text = "space: 3,3\nobjects:\n  F = O(0)\n  %s = ker(1)\n" % name
    expected = "line 4: object name %r reads as an expression" % name
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value).startswith(expected)
    path = tmp_path / "shadow.cfg"
    path.write_text(text)
    code = main(["hom", "O(1)", "O(1)", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("config error: " + expected)


def test_plain_object_names_are_accepted():
    cfg = parse_config("space: 3,3\nobjects:\n  O_1 = O(1)\n  ker1 = ker(1)\n  Ox(1) = O(1)\n")
    assert set(cfg.objects) == {"O_1", "ker1", "Ox(1)"}


@pytest.mark.parametrize("expr", EMPTY_TERMS)
def test_empty_term_names_the_whole_expression(expr, capsys):
    code = main(["hom", expr, "O(0)", "--space", "3,3"])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    assert err == "config error: empty term in %r\n" % expr


def test_hom_command_inline_expression(capsys):
    code = main(["hom", "--space", "3,3", "O(0)", "OZ(2)"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "deg0: 6" in out


def test_hom_refusal_exit_code(capsys):
    code = main(["hom", "--space", "3,3", "O(1)", "O(0)"])
    err = capsys.readouterr().err
    assert code == EXIT_REFUSED
    assert "engine refusal" in err


@pytest.mark.parametrize("A, B, space, kind, refusal", [
    # rule R0, met by the covariant chase at Hom(O(1), O(0))
    ("O(1)", "ker(1)", "3,3", OutOfValidity, "Hom*(O(1), ker(1)) on P(1,1,1,3): graded Hom(O(1), "
     "O(0)): source twist is not invertible; only the degree-0 reflexive Hom is "
     "defined (rule R0)"),
    # rule R4, met by the contravariant chase at Hom(OZ(1), O(1))
    ("ker(1)", "O(1)", "3,3", OutOfValidity, "Hom*(ker(1), O(1)) on P(1,1,1,3): graded Hom(OZ(1), "
     "O(1)): target twist is not invertible; rule R4 does not apply"),
    # the n = 2 gap block of Ext^1(OZ(5), OZ(1)), met by the ladder
    ("ker(5)", "ker(1)", "2,9", PresentationMismatch, "Hom*(ker(5), ker(1)) on P(1,1,9): Ext^1(OZ(5), "
     "OZ(1)): presentation gives 6, rules give 9"),
], ids=["R0", "R4", "n=2 gap"])
def test_hom_refusal_names_the_query(A, B, space, kind, refusal, capsys):
    """The engine names the pair it refused, which may be one the chase
    reached; the CLI puts the query and its cone first and keeps the
    refusal's kind."""
    argv = ["hom", A, B, "--space", space]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_REFUSED, "")
    assert err == "engine refusal: %s\n" % refusal
    args = build_parser().parse_args(argv)
    with pytest.raises(kind) as info:
        args.func(args)
    assert str(info.value) == refusal


def test_verify_sod_builtin_pass(capsys):
    code = main(["verify-sod", "--instance", "P1113", "main"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS" in out and "(45, 1, 1)" in out


def test_verify_sod_config_fail(tmp_path, capsys):
    path = tmp_path / "instance.cfg"
    path.write_text(CONFIG)
    code = main(["verify-sod", "--config", str(path), "reversed"])
    assert code == EXIT_FAIL


def test_verify_sod_defaults_to_the_first_declared_collection(tmp_path, capsys):
    """Without a name verify-sod checks the first collection in the order
    the config declares them, not the alphabetically first."""
    path = tmp_path / "instance.cfg"
    path.write_text(CONFIG.replace("reversed = O3, O", "dup = O3, O"))
    assert main(["verify-sod", "--config", str(path), "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["collection"] == ["FG", "O", "O3"]
    assert main(["verify-sod", "--config", str(path), "dup"]) == EXIT_FAIL


def test_markdown_cells_escape_a_pipe(tmp_path, capsys):
    """An object named a|b fills one markdown cell, as \\| inside it."""
    path = tmp_path / "pipe.cfg"
    path.write_text("space: 3,3\nobjects:\n  a|b = O(0)\n  c = O(3)\n"
                    "collections:\n  main = a|b, c\n")
    assert main(["verify-sod", "--config", str(path), "--format", "markdown"]) == EXIT_OK
    table = [line for line in capsys.readouterr().out.splitlines() if line.startswith("|")]
    assert table[0] == "| source | target | Hom* dims |"
    assert table[3] == "| a\\|b | c | (11, 0, 0, 0) |"
    assert {len(re.split(r"(?<!\\)\|", line)) for line in table} == {5}


def test_verify_sod_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"\xff\xfe")
    code = main(["verify-sod", "--config", str(path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("config error: ")


def test_verify_sod_needs_source(capsys):
    assert main(["verify-sod", "main"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "config error: verify-sod needs exactly one of --config, --instance\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["hom", "O(0)", "O(3)", "--instance", "P1113", "--space", "2,2"],
        ["hom", "O(0)", "O(3)", "--config", "{config}", "--instance", "P112"],
        ["hom", "O(0)", "O(3)", "--config", "{config}", "--space", "2,2"],
        ["hom", "O(0)", "O(3)"],
        ["verify-sod", "--config", "{config}", "--instance", "P112"],
    ],
    ids=["hom instance+space", "hom config+instance", "hom config+space", "hom none",
         "verify-sod config+instance"],
)
def test_source_options_take_exactly_one(tmp_path, capsys, argv):
    """A missing or a second source option is a config error, never a silent pick."""
    path = tmp_path / "instance.cfg"
    path.write_text(CONFIG)
    code = main([str(path) if a == "{config}" else a for a in argv])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    options = "--config, --instance, --space" if argv[0] == "hom" else "--config, --instance"
    assert err == "config error: %s needs exactly one of %s\n" % (argv[0], options)


def test_verify_sod_unknown_collection(capsys):
    code = main(["verify-sod", "--instance", "P1113", "nope"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "config error: unknown collection 'nope'\n"


def test_paper_report_instances(capsys):
    assert main(["paper-report", "P1113"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") >= 25 and "FAIL" not in out
    assert main(["paper-report", "P112"]) == EXIT_OK


def test_paper_report_unknown_instance(capsys):
    assert main(["paper-report", "NOPE"]) == EXIT_USAGE


REPORT_SHA256 = {
    "P1113": "b275a7bec6478011d11384c207886b667aab7adb7e8fa6de757effe04435df34",
    "P112": "74e9ab3b0a00b00ebd117626ff040c4a5ce5afea52eacaf5950bf292caa3bc1c",
}


@pytest.mark.parametrize("instance,digest", sorted(REPORT_SHA256.items()))
def test_paper_report_json_bytes_are_pinned(capsys, instance, digest):
    assert main(["paper-report", instance, "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


REPORT_TABLE_SHA256 = {
    ("P1113", "text"): "fc00ebd0b8ee22ce7dce0e8ee549ccecac4d521b3fc46aa6b747df387aac31d7",
    ("P1113", "markdown"): "fac7977d15abd99a41e95d4d3e90b42652ac1f2c02137a7e9d2a69a8e2afab69",
    ("P112", "text"): "44f8dbc0433c1cdd552c1ce0ad10bcdc508e2a756431420a718cdd2773307790",
    ("P112", "markdown"): "5aa1c6a3175aa73e81669ef333708f56f4a84291b43039cc790eb4293ce3159b",
}


@pytest.mark.parametrize("instance,fmt", sorted(REPORT_TABLE_SHA256))
def test_paper_report_table_bytes_are_pinned(capsys, instance, fmt):
    assert main(["paper-report", instance, "--format", fmt]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_TABLE_SHA256[instance, fmt]


def test_python_dash_m_runs_the_cli():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-m", "conetilt", "paper-report", "P112", "--format", "json"],
        cwd=root,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == REPORT_SHA256["P112"]


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def test_import_loads_neither_dataclasses_nor_inspect():
    """A fresh isolated interpreter imports the engine and the CLI without
    `dataclasses` or `inspect`; -I ignores PYTHONPATH, so the code puts
    src on sys.path itself."""
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, %r); "
        "import conetilt, conetilt.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))" % SRC
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_huge_twists_are_answered_at_once():
    """A valid twist of any size is counted in closed form, never listed.

    On P(1,1,1,3), sum_{k<=q} C(3k + r + 2, 2) is (q+1)(3q^2 + 6q + 2)/2
    for r = 0 and 3(q+1)^2 (q+2)/2 for r = 1.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "conetilt"] + list(argv),
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        return proc.stdout.splitlines()

    d = 99999999999999999999  # H^3(X, O(-d)) = H^0(X, O(d - 6)), d - 6 = 3q
    q = (d - 6) // 3
    out = run("hom", "O(%d)" % d, "O(0)", "--space", "3,3")
    top = (q + 1) * (3 * q * q + 6 * q + 2) // 2
    assert out[0].endswith("deg0: 0  deg1: 0  deg2: 0  deg3: %d" % top)
    d, q = 10**20, 10**20 // 3
    out = run("cohomology", "--space", "3,3", "--twist-min", str(d), "--twist-max", str(d))
    assert out[-1].split() == ["O(%d)" % d, str(3 * (q + 1) ** 2 * (q + 2) // 2), "0", "0", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--space", "99999999999999999999,3", "--twist-min", "0", "--twist-max", "0"],
        ["hom", "O(0)", "O(1)", "--space", "99999999999999999999,3"],
        ["hom", "O(0)", "O(1)", "--space", "%d,3" % (MAX_N + 1)],
    ],
)
def test_a_space_above_the_cap_is_a_usage_error(argv, capsys):
    """n above MAX_N exits 2 with a message, before anything is allocated."""
    assert main(argv) == EXIT_USAGE
    n = argv[argv.index("--space") + 1].split(",")[0]
    assert capsys.readouterr().err == (
        "config error: bad --space '%s,3': need n <= MAX_N = %d, got %s\n" % (n, MAX_N, n)
    )


def test_kernel_pair_on_a_cone_of_two_thousand_variables():
    """Hom(F_1, F_2) on P(1^2000, 3) is counted, never listed or named copy by copy.

    h' = C(2001, 2) = 2,001,000, and the higher degrees vanish, so
    Hom^0 is the Euler form h'^2 + h - C(2003, 4) of the K-theory classes
    F_e = O^h - OZ(e).  No basis in 2000 variables may be listed: its
    recursive enumeration would pass the interpreter's recursion limit.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    proc = subprocess.run(
        [sys.executable, "-m", "conetilt", "hom", "ker(1)", "ker(2)", "--space", "2000,3"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    degrees = proc.stdout.splitlines()[0].split(": ", 1)[1].split()
    hp = 2001000
    assert degrees[:2] == ["deg0:", str(hp * hp + 2000 - 2003 * 2002 * 2001 * 2000 // 24)]
    assert degrees[2::2] == ["deg%d:" % i for i in range(1, 2001)]
    assert set(degrees[3::2]) == {"0"}


def test_paper_report_row_count(capsys):
    main(["paper-report", "P1113", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 22
    assert len(payload["verdicts"]) == 3
    assert payload["pass"] is True


def test_json_output_roundtrips_identically(capsys):
    """Parsing the machine output and re-rendering gives identical bytes."""
    for argv in (
        ["paper-report", "P1113", "--format", "json"],
        ["hom", "--instance", "P1113", "F", "F", "--format", "json"],
        ["verify-sod", "--instance", "P112", "--format", "json"],
        [
            "cohomology",
            "--space",
            "3,3",
            "--twist-min",
            "-3",
            "--twist-max",
            "3",
            "--format",
            "json",
        ],
    ):
        main(argv)
        first = capsys.readouterr().out
        rendered = json.dumps(json.loads(first), indent=2, sort_keys=True) + "\n"
        assert rendered == first
        main(argv)
        second = capsys.readouterr().out
        assert first == second


def test_markdown_format(capsys):
    main(["paper-report", "P112", "--format", "markdown"])
    out = capsys.readouterr().out
    assert "| --- |" in out


def test_config_multiplicity_and_inline_kernel(capsys, tmp_path):
    cfg = "space: 3,3\n\nobjects:\n  D  = 2*ker(1)\n\ncollections:\n  c = D\n"
    path = tmp_path / "m.cfg"
    path.write_text(cfg)
    code = main(["hom", "--config", str(path), "D", "O(0)"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "deg0: 18" in out


# every subcommand: help, a missing argument, a bad choice, extra arguments,
# valid calls; and the command lines that only the full parser takes
PARSER_CASES = {
    "cohomology": [
        ["cohomology", "-h"],
        ["cohomology", "--space", "3,3", "--twist-min", "0"],
        ["cohomology", "--space", "3,3", "--twist-min", "0", "--twist-max", "2",
         "--sheaf", "OX"],
        ["cohomology", "--space", "3,3", "--twist-min", "0", "--twist-max", "x"],
        ["cohomology", "--space", "3,3", "--twist-min", "0", "--twist-max", "2", "extra"],
        ["cohomology", "--space", "3,3", "--twist-min", "-1", "--twist-max", "2"],
        ["cohomology", "--space", "3,3", "--sheaf", "OZ", "--twist-min", "0",
         "--twist-max", "2", "--i", "1", "--format", "json"],
    ],
    "hom": [
        ["hom", "--help"],
        ["hom", "O(0)"],
        ["hom", "O(0)", "O(3)", "--space", "3,3", "--format", "yaml"],
        ["hom", "O(0)", "O(3)", "C", "--space", "3,3"],
        ["hom", "O(0)", "O(3)", "--space", "3,3", "--bogus"],
        ["hom", "ker(1)", "ker(2)", "--space", "3,3"],
        ["hom", "F", "G", "--instance", "P1113", "--format", "json"],
        ["hom", "O(1)", "O(0)", "--space", "3,3"],
    ],
    "verify-sod": [
        ["verify-sod", "-h"],
        ["verify-sod"],
        ["verify-sod", "--instance", "P1113", "--format", "csv"],
        ["verify-sod", "main", "other", "--instance", "P1113"],
        ["verify-sod", "--instance", "P1113"],
        ["verify-sod", "--instance", "P1113", "--format", "markdown"],
    ],
    "paper-report": [
        ["paper-report", "-h"],
        ["paper-report"],
        ["paper-report", "P1113", "--format", "xml"],
        ["paper-report", "P1113", "extra"],
        ["paper-report", "P112"],
        ["paper-report", "P112", "--format", "json"],
        ["paper-report", "--format", "markdown", "P1113"],
    ],
    "full parser": [[], ["-h"], ["nope"], ["--format", "json", "hom"], ["Hom", "O(0)"]],
}


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), a usage exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(PARSER_CASES))
def test_one_subcommand_parser_answers_as_the_full_parser(command, capsys, monkeypatch):
    """A subcommand parsed by its own parser gives the exit code, stdout and
    stderr of build_parser(); extra arguments fall back to the full parser,
    which names them in its usage error."""
    import conetilt.cli as cli

    ours = [_outcome(argv, capsys) for argv in PARSER_CASES[command]]
    full = cli.build_parser
    monkeypatch.setattr(cli, "_parse_args", lambda argv: full().parse_args(argv))
    assert ours == [_outcome(argv, capsys) for argv in PARSER_CASES[command]]
    assert {code for code, _, _ in ours} >= ({0, 2} if command != "full parser" else {2})


def test_a_subcommand_builds_one_parser(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["paper-report", "P112", "--format", "json"]) == EXIT_OK
    assert built == ["conetilt paper-report"]
    capsys.readouterr()
    built.clear()
    code, out, err = _outcome(["paper-report", "P1113", "extra"], capsys)
    # the leftover goes to the full parser, which reports it with the top-level usage
    assert (code, out) == (EXIT_USAGE, "")
    assert built[:2] == ["conetilt paper-report", "conetilt"]
    assert err.startswith("usage: conetilt [-h]")
    assert err.endswith("conetilt: error: unrecognized arguments: extra\n")
