"""Pinned bytes and exit codes of every command path.

Each case runs one command through `cli.run` in both output formats and pins
the SHA-256 of its stdout and its exit code; the structured report's `exit`
field must equal the exit code.  The input documents are written to a
temporary folder, whose path reads ``TMP`` before hashing.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import dense_oracle as dense
from weakhopf import QGMorphism, regular_module, zoo
from weakhopf.cli import run
from weakhopf.linalg import Matrix
from weakhopf.serialization import (
    serialize_cocycle,
    serialize_module,
    serialize_morphism,
    serialize_qt,
    serialize_quantum_groupoid,
)
from weakhopf.structures import QTStructure, WeakCocycle, canonical_r


def _bumped(x2, ab):
    """x2 with 1 added at ab."""
    out = dict(x2)
    out[ab] = out.get(ab, 0) + 1
    return out


def _documents():
    """{file name: text} of every input document the cases read."""
    diag2, pair2 = zoo.fixture("diag2"), zoo.fixture("pair2")
    H, L = diag2.algebra, pair2.algebra
    # diag2 -> pair2, each idempotent to the matching object identity
    cols = [dense.basis_vector(L, L.basis_names.index(x)) for x in ("e11", "e22")]
    docs = {}
    for fx in (diag2, pair2):
        docs[fx.name + ".qg"] = serialize_quantum_groupoid(fx.algebra)
        docs[fx.name + ".qt"] = serialize_qt(fx.algebra, fx.qt)
        docs[fx.name + ".coc"] = serialize_cocycle(fx.algebra, fx.cocycle)
    docs["diag2-pair2.mor"] = serialize_morphism(
        QGMorphism(H, L, Matrix(cols, len(cols), L.dim).transpose()))
    docs["diag2.mod"] = serialize_module(regular_module(H))
    docs["broken-counit.qg"] = docs["diag2.qg"].replace("counit: 1 1", "counit: 0 0")
    docs["bad-r.qt"] = serialize_qt(H, QTStructure(_bumped(diag2.qt.r, (0, 0)), diag2.qt.rinv))
    # the twisted coproduct of pair2 is no longer coassociative
    docs["bad-f.coc"] = serialize_cocycle(
        L, WeakCocycle(_bumped(pair2.cocycle.f, (0, 1)), pair2.cocycle.finv))
    return docs


CASES = {
    "check-files": ["check", "{d}/diag2.qg", "{d}/diag2.qt", "{d}/diag2.coc", "{d}/pair2.qg",
                    "{d}/diag2-pair2.mor", "{d}/diag2.mod"],
    "check-hexagons": ["check", "zoo:kz2", "--with-hexagons"],
    "check-fail-fast": ["check", "{d}/broken-counit.qg", "--fail-fast"],
    "transmute": ["transmute", "--algebra", "{d}/diag2.qg", "--qt", "{d}/diag2.qt"],
    "transmute-failing-r": ["transmute", "--algebra", "{d}/diag2.qg", "--qt", "{d}/bad-r.qt"],
    "transmute-morphism": ["transmute", "--algebra", "{d}/diag2.qg", "--qt", "{d}/diag2.qt",
                           "--target", "{d}/pair2.qg", "--morphism", "{d}/diag2-pair2.mor"],
    "quantize": ["quantize", "--algebra", "{d}/pair2.qg", "--cocycle", "{d}/pair2.coc"],
    "quantize-failing-cocycle": ["quantize", "--algebra", "{d}/pair2.qg",
                                 "--cocycle", "{d}/bad-f.coc"],
    "twist": ["twist", "--algebra", "zoo:kd4", "--qt", "zoo:kd4", "--cocycle", "zoo:kd4"],
    "twist-failing": ["twist", "--algebra", "{d}/pair2.qg", "--qt", "{d}/pair2.qt",
                      "--cocycle", "{d}/bad-f.coc"],
    "verify-iso": ["verify-iso", "--algebra", "zoo:kd4", "--cocycle", "zoo:kd4"],
    "verify-iso-failing": ["verify-iso", "--algebra", "{d}/pair2.qg", "--cocycle", "{d}/bad-f.coc"],
    "zoo": ["zoo"],
    "zoo-emit": ["zoo", "kd4", "--out-dir", "{d}/out"],
}

# case -> (exit code, SHA-256 of the text stdout, SHA-256 of the structured stdout)
PINS = {
    "check-fail-fast": (1, "940997941e7e4b071860adb33fddbb2a56596d6adf3cad226c781b4903404ade",
        "11f28368a1173509486fe2fac0b3a5c638ed656088ada0b1772dc837c3ace191"),
    "check-files": (0, "0d9e42d3f40eff1c33ac61d3a7faa1b7c00a9e00892be5d215872bf338bcc2e4",
        "9f4e6b316003c7891d40e7daa9c9b6c2bc8f5aca05f4f89f19efb10b69917b14"),
    "check-hexagons": (0, "59adfe9cdf7620a45bc0f681f9943655f53742a89463041554d6f966a61c930a",
        "4db662770b3f2a8e204308db5c1fb8d590b260da7128a00c5a2ceb2aa1934e03"),
    "quantize": (0, "26b5e823d37d2a4015ef95eb17faac5032591776c2e1001bd248612cbb1aa2e9",
        "2324c4ab9a7d583f6c406a162b966798b8670ea0acf0394fd4899ed55d3de3f9"),
    "quantize-failing-cocycle": (1, "49ad6c9b04fda9df5ec7329c96c2177a0c62dcbd91ccfecb62270d98060184b1",
        "7585277e30f45f9b56f33677faff26b43093bbae39e44066036e642953350105"),
    "transmute": (0, "38b96629cfc69310ecdd2f8f2ae09edc40d0ddfd4f35f93a128f664cce533279",
        "117aa88fc76a8292b10861a886558c34c60c62a3918f277f5bf599e0d8439c80"),
    "transmute-failing-r": (1, "43f475f1b37b10dbabb4317e48de222e987bd4e4d2d907f76b18f95e56e88e1b",
        "917e08b49da8f680f0290b2a0b5a1803060890c0660006e97318303a7beb5ed8"),
    "transmute-morphism": (0, "b549c232a10c3772cc6a6c8f434007515e06aee6c3b85fab8aab9c74dc05cd76",
        "a94cac997cec35733482c7233bf7dece58de7e740b1e6944ab4aac25c20839b3"),
    "twist": (0, "1918aaaec33970295997019e2c0b316e39641c435f462726b41240ea1d6d1530",
        "fb585cc27d625577ee944f9ddd03c0d7c5e518972ca15bbd82850067322a5d44"),
    "twist-failing": (1, "8bb11eefd9109785ba792895b1df6efb03763c6330ef9720e6d10d753351408c",
        "852ef46ee5bb7fd3052b9eb03799a19dba4e8969c72372fd8a2e26da001e1541"),
    "verify-iso": (0, "387782516a7db351c00689dce45ddd5c8b64d613d12015909985410c47e9947c",
        "96b4626169fac1478119f7cbe18e4709d476297c8e444f8aeb32b240115506d6"),
    "verify-iso-failing": (1, "8bb11eefd9109785ba792895b1df6efb03763c6330ef9720e6d10d753351408c",
        "852ef46ee5bb7fd3052b9eb03799a19dba4e8969c72372fd8a2e26da001e1541"),
    "zoo": (0, "694f59f4e0c2bdd73118dfb5c2bd4d2e013ff06eda119d404c171ecf165facdf",
        "2ca187974504f647015343f8c176a40537517521938b4e4b24b30eac72507cca"),
    "zoo-emit": (0, "f7f7442f2bcc69c197bea56e02c20ed280b67e5e2a54097175357dc95b7ae36d",
        "7eeece63e863a77dc2a99a96fae6a714f085b3f1a956bfb8bd614ad7effe6af2"),
}


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    for name, text in _documents().items():
        (d / name).write_text(text, encoding="utf-8")
    return d


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_bytes_and_exit_code(case, folder, capsys):
    argv = [a.format(d=folder) for a in CASES[case]]
    got = []
    for fmt in ("text", "structured"):
        code = run(argv + ["--format", fmt])
        captured = capsys.readouterr()
        assert captured.err == ""
        out = captured.out.replace(str(folder), "TMP")
        if fmt == "structured":
            assert json.loads(out)["exit"] == code
        got.append((code, _sha(out)))
    (code, text), (structured_code, structured) = got
    assert code == structured_code
    assert (code, text, structured) == PINS[case]


def test_every_command_is_pinned():
    commands = {argv[0] for argv in CASES.values()}
    assert commands == {"check", "transmute", "quantize", "twist", "verify-iso", "zoo"}
    assert sorted(PINS) == sorted(CASES)


# `check <qg> <qt> <coc> --with-hexagons` on instances generated here: the
# pair groupoid P3 with the canonical R and F = Delta(1), the dihedral D4
# with the Klein-four sign cocycle on {s, r^2 s}, whose twisted and plain
# tensors differ, and D2 with the Klein-four sign cocycle on {s, rs}: D2 is
# commutative, so its twisted and plain tensors agree and only the braidings
# differ.  instance -> (exit code, text SHA-256, structured SHA-256)
HEXAGON_PINS = {
    "D2": (0, "bed9153db05bdd0dbe08a3cfdb1ae420a669d4b4f460f9e50e6d9e04420a2492",
           "9c9554e241318e0fceb9d2779cbcb99accf7def78dbd93d70a0fb00316ac028c"),
    "P3": (0, "7fd9b6e07b109403a59e65fb436a83c00316d26208dba3151b8915264ca2f586",
           "4ec6281a061a974f895a02a3b5b025875cccc936e117042d8cfdea5e086e3345"),
    "D4": (0, "cc180d65b0d9f01d6b598f1b2f5a9e8d96f7c46dd3413ae3e18e28713e227a14",
           "a02c442f93d04fe7cad34927f71399b845db5702c006e6dc7636ca6f786df5a8"),
}

KLEIN_BETA = [[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, 1, 1], [1, 1, -1, -1]]


def _hexagon_instance(name):
    if name == "P3":
        H = zoo.groupoid_algebra(zoo.GroupoidSpec.pair_groupoid(3))
        return H, canonical_r(H), zoo.trivial_cocycle(H)
    k = int(name[1:])
    H = zoo.dihedral_group_algebra(k)
    gens = [H.basis_names.index("s"), H.basis_names.index("rs" if k == 2 else "r%ds" % (k // 2))]
    return H, canonical_r(H), zoo.bicharacter_cocycle(H, gens, KLEIN_BETA)


@pytest.mark.parametrize("name", sorted(HEXAGON_PINS))
def test_check_with_hexagons_bytes_and_exit_code(name, tmp_path, capsys):
    H, qt, wc = _hexagon_instance(name)
    files = []
    for ext, text in (("qg", serialize_quantum_groupoid(H)), ("qt", serialize_qt(H, qt)),
                      ("coc", serialize_cocycle(H, wc))):
        path = tmp_path / ("%s.%s" % (name, ext))
        path.write_text(text, encoding="utf-8")
        files.append(str(path))
    got = []
    for fmt in ("text", "structured"):
        code = run(["check"] + files + ["--with-hexagons", "--format", fmt])
        captured = capsys.readouterr()
        assert captured.err == ""
        out = captured.out.replace(str(tmp_path), "TMP")
        if fmt == "structured":
            assert json.loads(out)["exit"] == code
        got.append((code, _sha(out)))
    (code, text), (structured_code, structured) = got
    assert code == structured_code
    assert (code, text, structured) == HEXAGON_PINS[name]
