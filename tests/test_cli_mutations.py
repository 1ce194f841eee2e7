"""A seeded corpus of mutated input documents, pinned through `cli.run`.

Each case takes the three documents of one fixture (algebra, R and
cocycle), mutates one of them by one line edit (a token replaced, a line
dropped, duplicated or swapped with the next) and runs one command that
reads it.  The pins hold each case's exit code and the SHA-256 of its
stdout and stderr, with the temporary folder written ``TMP``, so a change
to what a command decides, reports or refuses moves a pin.  The corpus
covers every exit code; among its exit-2 cases are derived failures such as
"action is not multiplicative", raised while a construction checks what it
built.

Regenerate the pins with ``PYTHONPATH=src python tests/test_cli_mutations.py``
from the repository root; it prints the JSON of `PINS_FILE`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from weakhopf import zoo
from weakhopf.cli import run
from weakhopf.serialization import serialize_cocycle, serialize_qt, serialize_quantum_groupoid

SEED = 7
CASES = 400
PINS_FILE = Path(__file__).with_name("cli_mutation_pins.json")
TOKENS = ("0", "1", "-1", "2", "1/2", "-1/2")
# command -> the documents it reads
READS = {
    "check": ("qg", "qt", "coc"),
    "transmute": ("qg", "qt"),
    "quantize": ("qg", "coc"),
    "twist": ("qg", "qt", "coc"),
    "verify-iso": ("qg", "coc"),
}


def _documents():
    """{(fixture, extension): text} of every fixture's three documents."""
    docs = {}
    for name in zoo.fixture_names():
        fx = zoo.fixture(name)
        docs[name, "qg"] = serialize_quantum_groupoid(fx.algebra)
        docs[name, "qt"] = serialize_qt(fx.algebra, fx.qt)
        docs[name, "coc"] = serialize_cocycle(fx.algebra, fx.cocycle)
    return docs


def _mutated(text, rng):
    """(how, text) with one line of text edited as rng picks."""
    lines = text.split("\n")[:-1]  # every document ends in a newline
    how = rng.choice(("token", "drop", "duplicate", "swap"))
    i = rng.randrange(len(lines))
    if how == "token":
        tokens = lines[i].split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        lines[i] = " ".join(tokens)
    elif how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "%s@%d" % (how, i + 1), "\n".join(lines) + "\n"


def _stream(docs):
    """The CASES cases of seed SEED: (case id, command, {extension:
    text}) with the fixture's documents, one of them mutated."""
    rng = random.Random(SEED)
    names = sorted({name for name, _ in docs})
    for k in range(CASES):
        name = rng.choice(names)
        command = rng.choice(sorted(READS))
        ext = rng.choice(READS[command])
        how, text = _mutated(docs[name, ext], rng)
        texts = {e: docs[name, e] for e in READS[command]}
        texts[ext] = text
        yield "%03d-%s-%s-%s.%s" % (k, command, how, name, ext), command, texts


def _argv(command, files):
    if command == "check":
        return ["check", files["qg"], files["qt"], files["coc"]]
    argv = [command, "--algebra", files["qg"]]
    if "qt" in files:
        argv += ["--qt", files["qt"]]
    if "coc" in files:
        argv += ["--cocycle", files["coc"]]
    return argv


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outcome(command, texts, folder: Path):
    """(exit code, stdout SHA-256, stderr SHA-256, stderr) of one case run
    through `cli.run` in the structured format, its documents in folder."""
    files = {}
    for ext, text in texts.items():
        path = folder / ("doc." + ext)
        path.write_text(text, encoding="utf-8")
        files[ext] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(_argv(command, files) + ["--format", "structured"])
    out, err = (s.getvalue().replace(str(folder), "TMP") for s in (out, err))
    return code, _sha(out), _sha(err), err


def _outcomes(folder: Path):
    """{case id: (exit code, stdout SHA-256, stderr SHA-256, stderr)}."""
    return {case: _outcome(command, texts, folder)
            for case, command, texts in _stream(_documents())}


PINS = json.loads(PINS_FILE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return _outcomes(tmp_path_factory.mktemp("mutations"))


def test_mutated_documents_keep_their_exit_code_and_bytes(outcomes):
    got = {case: [code, out, err_sha] for case, (code, out, err_sha, _) in outcomes.items()}
    assert sorted(got) == sorted(PINS)
    assert {case: pin for case, pin in got.items() if pin != PINS[case]} == {}


def test_the_corpus_reaches_every_exit_code_and_a_derived_module_failure(outcomes):
    assert {code for code, _, _, _ in outcomes.values()} == {0, 1, 2}
    assert any("action is not multiplicative" in err for _, _, _, err in outcomes.values())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        pins = {case: [code, out, err_sha]
                for case, (code, out, err_sha, _) in _outcomes(Path(d)).items()}
    sys.stdout.write("{\n%s\n}\n" % ",\n".join(
        " %s: %s" % (json.dumps(case), json.dumps(pins[case])) for case in sorted(pins)))
