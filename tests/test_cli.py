import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weakhopf
from weakhopf.cli import build_parser, run
from weakhopf.errors import ClosureViolation, PreconditionUnmet
from weakhopf.report import Witness
from weakhopf.serialization import serialize_quantum_groupoid
from weakhopf import zoo


@pytest.fixture()
def emitted(tmp_path):
    out = tmp_path / "fx"
    assert run(["zoo", "diag2", "--out-dir", str(out)]) == 0
    return {
        "qg": str(out / "diag2.qg"),
        "qt": str(out / "diag2.qt"),
        "coc": str(out / "diag2.coc"),
    }


def test_zoo_list(capsys):
    assert run(["zoo"]) == 0
    captured = capsys.readouterr().out
    for name in zoo.fixture_names():
        assert name in captured


def test_check_passes_on_fixture_files(emitted, capsys):
    rc = run(["check", emitted["qg"], emitted["qt"], emitted["coc"]])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "[FAIL]" not in captured
    assert "[PASS] weak-bialgebra/associativity" in captured


def test_check_zoo_scheme(capsys):
    assert run(["check", "zoo:diag2"]) == 0


def test_check_missing_file():
    assert run(["check", "/nonexistent/path.qg"]) == 2


def test_check_malformed_file(tmp_path):
    bad = tmp_path / "bad.qg"
    bad.write_text("kind: quantum-groupoid\ndim: x\n")
    assert run(["check", str(bad)]) == 2


def test_structured_reports_are_byte_identical(emitted, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["check", emitted["qg"], emitted["qt"], emitted["coc"], "--format", "structured"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    payload = json.loads(b1)
    assert payload["exit"] == 0
    assert all(c["passed"] for c in payload["checks"])


def test_corrupted_counit_exits_one(tmp_path, capsys):
    fx = zoo.fixture("diag2")
    text = serialize_quantum_groupoid(fx.algebra)
    text = text.replace("counit: 1 1", "counit: 0 0")
    path = tmp_path / "broken.qg"
    path.write_text(text)
    assert run(["check", str(path), "--format", "structured"]) == 1
    payload = json.loads(capsys.readouterr().out)
    failing = [c for c in payload["checks"] if not c["passed"]]
    assert any(c["name"] == "counit-axiom" and "witness" in c for c in failing)


def test_fail_fast_stops_after_first_failing_suite(tmp_path, capsys):
    fx = zoo.fixture("diag2")
    text = serialize_quantum_groupoid(fx.algebra)
    text = text.replace("counit: 1 1", "counit: 0 0")
    path = tmp_path / "broken.qg"
    path.write_text(text)
    assert run(["check", str(path), "--fail-fast", "--format", "structured"]) == 1
    payload = json.loads(capsys.readouterr().out)
    suites = {c["suite"] for c in payload["checks"]}
    assert suites == {"weak-bialgebra"}


def test_transmute_command(emitted, capsys):
    rc = run(["transmute", "--algebra", emitted["qg"], "--qt", emitted["qt"]])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "kind: presentation" in captured
    assert "[FAIL]" not in captured


def test_quantize_command(emitted, capsys):
    rc = run(["quantize", "--algebra", emitted["qg"], "--cocycle", emitted["coc"]])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "kind: presentation" in captured


def test_twist_command(emitted, capsys):
    rc = run([
        "twist",
        "--algebra", emitted["qg"],
        "--qt", emitted["qt"],
        "--cocycle", emitted["coc"],
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "kind: quantum-groupoid" in captured
    assert "kind: qt-structure" in captured


def test_twist_command_decides_each_suite_once(emitted, monkeypatch, capsys):
    # the command prints the reports twist() decided instead of re-running them
    calls = []
    for module in ("weakhopf.twisting", "weakhopf.cli"):
        mod = importlib.import_module(module)
        for name in ("check_weak_bialgebra", "check_quantum_groupoid", "check_quasitriangular"):
            real = getattr(mod, name)

            def counting(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(mod, name, counting)
    rc = run(["twist", "--algebra", emitted["qg"], "--qt", emitted["qt"],
              "--cocycle", emitted["coc"], "--format", "structured"])
    assert rc == 0
    assert sorted(calls) == ["check_quantum_groupoid", "check_quasitriangular",
                             "check_weak_bialgebra"]
    suites = {c["suite"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert suites == {"weak-bialgebra", "quantum-groupoid", "quasitriangular"}


def test_twist_failure_reports_the_check_witness(tmp_path, capsys):
    from weakhopf.serialization import serialize_cocycle, serialize_qt
    from weakhopf.structures import WeakCocycle

    fx = zoo.fixture("pair2")
    f = dict(fx.cocycle.f)
    f[0, 1] = f.get((0, 1), 0) + 1  # the twisted coproduct is no longer coassociative
    paths = {}
    for ext, text in (
        ("qg", serialize_quantum_groupoid(fx.algebra)),
        ("qt", serialize_qt(fx.algebra, fx.qt)),
        ("coc", serialize_cocycle(fx.algebra, WeakCocycle(f, fx.cocycle.finv))),
    ):
        paths[ext] = tmp_path / ("a." + ext)
        paths[ext].write_text(text)
    # verify-iso twists the same cocycle and reports the same failed check
    reports = {}
    for command, extra in (("twist", ["--qt", str(paths["qt"])]), ("verify-iso", [])):
        out = tmp_path / (command + ".json")
        rc = run([command, "--algebra", str(paths["qg"]), *extra, "--cocycle", str(paths["coc"]),
                  "--format", "structured", "--out", str(out)])
        assert rc == 1, command
        reports[command] = out.read_text()
    assert capsys.readouterr().err == ""
    (check,) = json.loads(reports["twist"])["checks"]
    assert (check["suite"], check["name"], check["passed"]) == ("twist", "coassociativity", False)
    assert check["witness"]["indices"] == [0]
    assert check["witness"]["lhs"] != check["witness"]["rhs"]
    assert reports["verify-iso"] == reports["twist"]


def test_verify_iso_command(capsys):
    rc = run(["verify-iso", "--algebra", "zoo:diag2", "--cocycle", "zoo:diag2"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "presentations: equal" in captured


def test_verify_iso_structured(capsys):
    rc = run([
        "verify-iso", "--algebra", "zoo:kd4", "--cocycle", "zoo:kd4",
        "--format", "structured",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["presentations_equal"] is False
    assert all(c["passed"] for c in payload["checks"])


def test_with_hexagons_flag(capsys):
    rc = run(["check", "zoo:diag2", "--with-hexagons"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "coherence/hexagon-first" in captured


def test_exit_code_contract_over_corpus(tmp_path):
    # every fixture emits and checks clean through files
    for name in zoo.fixture_names():
        out = tmp_path / name
        assert run(["zoo", name, "--out-dir", str(out)]) == 0
        rc = run([
            "check",
            str(out / ("%s.qg" % name)),
            str(out / ("%s.qt" % name)),
            str(out / ("%s.coc" % name)),
            "--out", str(out / "report.txt"),
        ])
        assert rc == 0, name


def test_transmute_with_explicit_target_and_morphism(emitted, tmp_path, capsys):
    from weakhopf import identity_morphism
    from weakhopf.serialization import serialize_morphism

    fx = zoo.fixture("diag2")
    mor = tmp_path / "id.mor"
    mor.write_text(serialize_morphism(identity_morphism(fx.algebra)))
    rc = run([
        "transmute",
        "--algebra", emitted["qg"],
        "--qt", emitted["qt"],
        "--target", emitted["qg"],
        "--morphism", str(mor),
    ])
    assert rc == 0
    assert "kind: presentation" in capsys.readouterr().out


def test_check_module_document(emitted, tmp_path, capsys):
    from weakhopf import regular_module
    from weakhopf.serialization import serialize_module

    fx = zoo.fixture("diag2")
    mod = tmp_path / "reg.mod"
    mod.write_text(serialize_module(regular_module(fx.algebra)))
    rc = run(["check", emitted["qg"], str(mod)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "module/action-multiplicative" in captured


def test_console_entry_point(tmp_path):
    # the [project.scripts] entry that `pip install` turns into `weakhopf`
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'weakhopf = "weakhopf.cli:main"' in scripts.splitlines()

    # the child imports the package under test, whatever its cwd
    src = str(Path(weakhopf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    # the declared target, called as the installed script calls it
    commands = [
        [
            sys.executable, "-c",
            "import sys; sys.argv = ['weakhopf', 'zoo']; "
            "from weakhopf.cli import main; sys.exit(main())",
        ],
        [sys.executable, "-m", "weakhopf", "zoo"],
    ]
    script = shutil.which("weakhopf")
    if script is not None:
        commands.append([script, "zoo"])
    for cmd in commands:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, check=False,
            cwd=tmp_path, env=env,
        )
        msg = "%r\nstderr:\n%s" % (cmd, proc.stderr)
        assert proc.returncode == 0, msg
        assert "kd4_diag2" in proc.stdout, msg


def test_singular_antipode_file_exits_one(tmp_path, capsys):
    fx = zoo.fixture("diag2")
    text = serialize_quantum_groupoid(fx.algebra)
    text = text.replace("antipode:\n1 0\n0 1", "antipode:\n1 0\n1 0")
    path = tmp_path / "singular.qg"
    path.write_text(text)
    assert run(["check", str(path)]) == 1
    assert "antipode-invertible" in capsys.readouterr().out


def test_verify_iso_library_error_exits_two(monkeypatch, capsys):
    cli = importlib.import_module("weakhopf.cli")

    def refuse(H, qt, wc):
        raise PreconditionUnmet("needs the canonical structure")

    monkeypatch.setattr(cli, "verify_isomorphism", refuse)
    argv = ["verify-iso", "--algebra", "zoo:diag2", "--cocycle", "zoo:diag2"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: needs the canonical structure\n"


def test_closure_violation_prints_its_witness(monkeypatch, capsys):
    cli = importlib.import_module("weakhopf.cli")

    def escape(H, qt, target, morphism):
        raise ClosureViolation(
            "product escaped the carrier",
            witness=Witness((0, 1), (Fraction(1), Fraction(-1, 2)), (), "product"),
        )

    monkeypatch.setattr(cli, "transmute", escape)
    assert run(["transmute", "--algebra", "zoo:pair2", "--qt", "zoo:pair2"]) == 2
    assert capsys.readouterr().err == (
        "error: product escaped the carrier -- product indices=(0, 1) lhs=[1 -1/2] rhs=[]\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["transmute", "--algebra", "a", "--qt", "b"],
        ["quantize", "--algebra", "a", "--cocycle", "c"],
        ["twist", "--algebra", "a", "--qt", "b", "--cocycle", "c"],
        ["verify-iso", "--algebra", "a", "--cocycle", "c"],
        ["zoo"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("flag", ["--fail-fast", "--with-hexagons"])
def test_check_only_flags_are_rejected_elsewhere(argv, flag):
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + [flag])
    assert exc.value.code == 2


def test_the_parser_built_once_gives_what_fresh_parsers_give(emitted, monkeypatch, capsys):
    # run keeps one parser per process; successive commands through it,
    # a usage error among them, give the bytes and exit codes of calls that
    # each build their own
    import weakhopf.cli as cli

    cases = [
        ["check", emitted["qg"], emitted["qt"], emitted["coc"], "--format", "structured"],
        ["transmute", "--algebra", emitted["qg"], "--qt", emitted["qt"]],
        ["twist", "--algebra", emitted["qg"], "--qt", emitted["qt"]],  # usage error
        ["quantize", "--algebra", emitted["qg"], "--cocycle", emitted["coc"],
         "--format", "structured"],
        ["check", "/nonexistent/path.qg"],
        ["verify-iso", "--algebra", "zoo:kd4", "--cocycle", "zoo:kd4"],
        ["check", "zoo:diag2", "--fail-fast"],
        ["zoo"],
    ]

    def outcome(argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._parser.cache_clear()
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    successive = [outcome(argv) for argv in cases]
    assert len(built) == 1
    fresh = []
    for argv in cases:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert len(built) == 1 + len(cases)
    assert successive == fresh
    assert [code for code, _, _ in successive] == [0, 0, 2, 0, 2, 0, 0, 0]
    assert "the following arguments are required: --cocycle" in successive[2][2]
    cli._parser.cache_clear()
