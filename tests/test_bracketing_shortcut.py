"""Both bracketings decided from two elements of H^(x)3, against the subspaces.

When the coproduct in use, c, is multiplicative with c(1) the unit 2-tensor
and M, N and P are modules, `coherence_report` decides its two bracketing
checks by comparing (c (x) id) c(1) with (id (x) c) c(1)
(`modules._bracketings_agree`), and builds the bracketed tensors of
M (x) N (x) P and their column spaces only when that helper does not answer
yes.  Each case here is run twice on freshly built instances, once as the
package runs it and once with the helper held to no, which makes both
bracketings compare as subspaces; the two reports must be equal.  The
helper answers yes on P2, P3, D2 and D4 with the Klein-four sign cocycle,
diag2 with R bumped and kd4's H_t module, in both categories.  It answers
no on a module with the regular actions whose laws fail, and in the plain
category of diag2 with Delta(e1) bumped by e1 (x) e2, which is
multiplicative but not coassociative at 1.  The hexagons are decided at
one vector (`modules._hexagons_at_cyclic_vector`) at most once a report.

On the regular module, a report the helper answers builds no tensor of
ambient dimension above n^2, and no triple projector but the unitor
triangle's.
"""

from __future__ import annotations

import copy
import importlib

import pytest

import dense_oracle as dense
from weakhopf import zoo
from weakhopf.algebra import QuantumGroupoid
from weakhopf.linalg import Matrix
from weakhopf.modules import BraidContext, HModule, coherence_report, ht_module, regular_module
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


def _diag2_noncoassociative():
    """diag2 with Delta(e1) = e1 (x) e1 + e1 (x) e2, still multiplicative:
    (Delta (x) id) Delta(1) holds e1 (x) e2 (x) e1, (id (x) Delta) Delta(1)
    does not."""
    fx = zoo.fixture("diag2")
    H = fx.algebra
    comul = [[list(row) for row in plane] for plane in H.comul]
    comul[0][0][1] += 1
    H = QuantumGroupoid(dense.bialgebra(H.basis_names, H.mul, H.unit, comul, H.counit),
                        H.antipode)
    return H, fx.qt, None


def _lawless(H):
    """The regular actions of H with the one of its last basis element that
    is neither a generator nor a leg of Delta(1) doubled: the action is not
    multiplicative, and the projectors of its tensors are the regular ones."""
    k = max(i for i in range(H.dim)
            if i not in H.generators and all(i not in ab for ab in H.delta_one))
    mats = list(regular_module(H).mats)
    mats[k] = Matrix.lincomb([(2, mats[k])], mats[k].rows, mats[k].cols)
    M = HModule(H, mats, name="lawless")
    assert not M.laws.passed
    return M


BOTH = ("psi", "phi")

# instance -> (builder, module of the triple, the categories it is run in,
# the helper's answer, whether the hexagon helper is asked)
CASES = {
    "P2": (lambda: _pair(2), regular_module, BOTH, True, True),
    "P3": (lambda: _pair(3), regular_module, BOTH, True, True),
    "D2-klein": (lambda: _dihedral_klein(2), regular_module, BOTH, True, True),
    "D4-klein": (lambda: _dihedral_klein(4), regular_module, BOTH, True, True),
    "diag2-bumped": (_diag2_bumped, regular_module, BOTH, True, True),
    "kd4-ht": (_kd4, lambda H: ht_module(H)[1], BOTH, True, False),
    "P3-lawless": (lambda: _pair(3), _lawless, BOTH, False, False),
    # not cocommutative: there is no twisted category
    "diag2-noncoassociative": (_diag2_noncoassociative, regular_module, ("psi",), False,
                               False),
}


def _context(kind, H, qt, wc):
    return BraidContext.psi(H, qt) if kind == "psi" else BraidContext.phi(H, wc)


def _report(case, kind):
    make, module = CASES[case][:2]
    H, qt, wc = make()
    M = module(H)
    return coherence_report(_context(kind, H, qt, wc), M, M, M).to_dict()


def _recording(monkeypatch, name):
    """Replace the helper name of the modules module by one that records
    each answer of the real one."""
    real = getattr(modules_mod, name)
    answers = []

    def asked(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(modules_mod, name, asked)
    return answers


@pytest.mark.parametrize("case, kind", [(case, kind) for case in sorted(CASES)
                                         for kind in CASES[case][2]])
def test_the_report_equals_the_subspace_comparison(case, kind, monkeypatch):
    want, hexagons = CASES[case][3:]
    answers = _recording(monkeypatch, "_bracketings_agree")
    hexes = _recording(monkeypatch, "_hexagons_at_cyclic_vector")
    got = _report(case, kind)
    assert answers == [want]
    assert len(hexes) == hexagons
    monkeypatch.setattr(modules_mod, "_bracketings_agree", lambda *args: False)
    hexes.clear()
    full = _report(case, kind)
    assert len(hexes) == hexagons
    assert got == full
    by_name = {check["name"]: check["passed"] for check in got}
    bracketed = by_name["bracketing-subspaces-equal"] and by_name[
        "iterated-unit-projector-subspace"]
    assert bracketed or not want


def test_a_report_on_the_regular_module_builds_no_triple_tensor(monkeypatch):
    built, projected = [], []
    real_tensor = modules_mod._tensor
    real_projector = BraidContext.triple_projector

    def tensor(M, N, ctx):
        built.append(M.dim * N.dim)
        return real_tensor(M, N, ctx)

    def projector(self, A, B, C):
        projected.append((A, B, C))
        return real_projector(self, A, B, C)

    monkeypatch.setattr(modules_mod, "_tensor", tensor)
    monkeypatch.setattr(BraidContext, "triple_projector", projector)
    H, qt, _ = _pair(3)
    M = regular_module(H)
    assert coherence_report(BraidContext.psi(H, qt), M, M, M).passed
    assert built and max(built) <= M.dim ** 2
    assert projected == [(M, ht_module(H)[1], M)]
