"""Both hexagons decided at one vector, against the full comparison.

On the regular module of a unital associative algebra, once both
bracketings carve out the image of the triple projector, `coherence_report`
decides its two hexagons at the cyclic vector Delta^2(1) of that image
(`modules._hexagons_at_cyclic_vector`), and compares the n^3-column maps
only when that helper does not answer yes.  Each case here is run twice on
freshly built instances, once as the package runs it and once with the
helper held to no, which makes both hexagons compare in full; the two
reports must be equal.  The helper must have been asked wherever its gate
is open, and must answer yes exactly where the hexagons hold: on P2, P3,
D2 and D4 with the Klein-four sign cocycle in both categories, and on
diag2 with R bumped at e1 (x) e1 in the twisted category only.  On kd4's
H_t module the gate is closed and the helper is not asked.

The structured report of `check --with-hexagons` on D8 with the Klein
cocycle is pinned as well, a rung above the benchmark's, where the
helper decides every hexagon of the report.
"""

from __future__ import annotations

import copy
import hashlib
import importlib

import pytest

from weakhopf import zoo
from weakhopf.cli import run
from weakhopf.modules import BraidContext, coherence_report, ht_module, regular_module
from weakhopf.serialization import serialize_cocycle, serialize_qt, serialize_quantum_groupoid
from weakhopf.structures import QTStructure, canonical_r

modules_mod = importlib.import_module("weakhopf.modules")

KLEIN_BETA = [[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, 1, 1], [1, 1, -1, -1]]


def _pair(k):
    H = zoo.groupoid_algebra(zoo.GroupoidSpec.pair_groupoid(k))
    return H, canonical_r(H), zoo.trivial_cocycle(H)


def _dihedral_klein(k):
    H = zoo.dihedral_group_algebra(k)
    names = H.basis_names
    gens = [names.index("s"), names.index("rs" if k == 2 else "r%ds" % (k // 2))]
    return H, canonical_r(H), zoo.bicharacter_cocycle(H, gens, KLEIN_BETA)


def _diag2_bumped():
    """diag2 with R = 2 e1 (x) e1 + e2 (x) e2, whose plain hexagons fail,
    and F = Delta(1), whose twisted ones hold."""
    fx = zoo.fixture("diag2")
    r = dict(fx.qt.r)
    r[0, 0] += 1
    H = copy.copy(fx.algebra)
    return H, QTStructure(r, fx.qt.rinv), zoo.trivial_cocycle(H)


def _kd4():
    # a copy leaves the fixture's module category behind
    fx = zoo.fixture("kd4")
    return copy.copy(fx.algebra), fx.qt, fx.cocycle


# instance -> (builder, module of the triple, the helper's answer per
# category: True, False, or None where it is not asked)
CASES = {
    "P2": (lambda: _pair(2), regular_module, {"psi": True, "phi": True}),
    "P3": (lambda: _pair(3), regular_module, {"psi": True, "phi": True}),
    "D2-klein": (lambda: _dihedral_klein(2), regular_module, {"psi": True, "phi": True}),
    "D4-klein": (lambda: _dihedral_klein(4), regular_module, {"psi": True, "phi": True}),
    "diag2-bumped": (_diag2_bumped, regular_module, {"psi": False, "phi": True}),
    "kd4-ht": (_kd4, lambda H: ht_module(H)[1], {"psi": None, "phi": None}),
}


def _context(kind, H, qt, wc):
    return BraidContext.psi(H, qt) if kind == "psi" else BraidContext.phi(H, wc)


def _report(case, kind):
    make, module, _ = CASES[case]
    H, qt, wc = make()
    M = module(H)
    return coherence_report(_context(kind, H, qt, wc), M, M, M).to_dict()


@pytest.mark.parametrize("kind", ["psi", "phi"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_report_equals_the_full_comparison(case, kind, monkeypatch):
    real = modules_mod._hexagons_at_cyclic_vector
    answers = []

    def asked(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(modules_mod, "_hexagons_at_cyclic_vector", asked)
    got = _report(case, kind)
    monkeypatch.setattr(modules_mod, "_hexagons_at_cyclic_vector", lambda *args: False)
    full = _report(case, kind)
    assert got == full
    want = CASES[case][2][kind]
    assert answers == ([] if want is None else [want])
    passed = all(check["passed"] for check in got)
    assert passed == (case != "diag2-bumped" or kind == "phi")
    # no report passes on the regular module without the helper's yes
    assert not passed or want is None or answers == [True]


def test_the_full_comparison_braids_five_times_where_the_helper_says_no(monkeypatch):
    # the helper braids M past M; diag2-bumped's plain hexagons fail at
    # Delta^2(1), so the full comparison then braids M past N (x) P, M past
    # N, M past P, M (x) N past P and N past P
    real = BraidContext.braiding_plain
    calls = []

    def counting(self, A, B):
        calls.append((A, B))
        return real(self, A, B)

    monkeypatch.setattr(BraidContext, "braiding_plain", counting)
    H, qt, _ = _diag2_bumped()
    M = regular_module(H)
    assert not coherence_report(BraidContext.psi(H, qt), M, M, M).passed
    tensor = calls[2][1]
    assert tensor.name == "tensor" and tensor.dim < M.dim ** 2
    assert calls == [(M, M), (M, M), (M, tensor), (M, M), (tensor, M), (M, M)]


# D8 with the Klein-four sign cocycle on {s, r^4 s}: (exit code, SHA-256
# of the structured stdout of `check --with-hexagons`)
D8_KLEIN_PIN = (0, "dcd8a009b3371baccec00cd82b5882046e4d85ef161b1d0402b4647a79da698e")


def test_check_with_hexagons_bytes_on_d8_klein(tmp_path, capsys):
    H, qt, wc = _dihedral_klein(8)
    files = []
    for ext, text in (("qg", serialize_quantum_groupoid(H)), ("qt", serialize_qt(H, qt)),
                      ("coc", serialize_cocycle(H, wc))):
        path = tmp_path / ("D8.%s" % ext)
        path.write_text(text, encoding="utf-8")
        files.append(str(path))
    code = run(["check"] + files + ["--with-hexagons", "--format", "structured"])
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out.replace(str(tmp_path), "TMP")
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == D8_KLEIN_PIN
