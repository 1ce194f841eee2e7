"""Truncated tensors against their eager build, in both module categories.

A truncated tensor's induced action i is the projection of the action of
the coproduct column of e_i on M (x) N, restricted to the image:
projection * action(M, N, columns[i]) * inclusion.  These tests rebuild
each action that way, on every fixture and every instance of the size
ladder, in the plain and in the twisted category, and check that the
tensor and braidings a context hands out are the ones its own coproduct,
unit and braiding tensor define, whatever another context over the same
algebra has built before it, and that no copy of an algebra takes over
what was built on it.  The coherence report is kept the same way, and the
two categories share it exactly when every value it reads agrees.
"""

import copy
import pickle

import pytest

import dense_oracle as dense
from test_generators import ladder
from weakhopf import BraidContext, coherence_report, ht_module, regular_module, truncated_tensor, zoo
from weakhopf.modules import _componentwise_action
from weakhopf.structures import QTStructure, WeakCocycle, _mul2, canonical_r, swap2

KLEIN_BETA = [[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, 1, 1], [1, 1, -1, -1]]


def d4_klein():
    """D_4 with the Klein-four sign cocycle on {s, r^2 s}: noncommutative,
    and its F does not commute with every Delta(h)."""
    H = zoo.dihedral_group_algebra(4)
    gens = [H.basis_names.index("s"), H.basis_names.index("r2s")]
    return H, canonical_r(H), zoo.bicharacter_cocycle(H, gens, KLEIN_BETA)


def _instances():
    """(name, H, qt, wc): the fixtures with their own structures, D4 with
    the Klein cocycle, and the ladder with the canonical R and F = Delta(1)."""
    out = [(fx.name, fx.algebra, fx.qt, fx.cocycle)
           for fx in (zoo.fixture(name) for name in zoo.fixture_names())]
    out.append(("D4-klein",) + d4_klein())
    fixtures = set(zoo.fixture_names())
    for name, H in ladder().items():
        if name not in fixtures:
            d1 = H.delta_one
            out.append((name, H, canonical_r(H), WeakCocycle(d1, swap2(d1))))
    return out


INSTANCES = _instances()


def _contexts(H, qt, wc):
    return (("psi", BraidContext.psi(H, qt)), ("phi", BraidContext.phi(H, wc)))


def _pairs(H):
    """Module pairs small enough to tensor on every rung: H_t with itself,
    and the regular module against H_t (in both orders) up to dim 16."""
    zmod = ht_module(H)[1]
    if H.dim > 16:
        return [(zmod, zmod)]
    reg = regular_module(H)
    return [(reg, zmod), (zmod, reg)]


def _eager(t, ctx):
    """The induced action of the tensor t, built in one go from ctx's
    coproduct columns."""
    columns = ctx.coproduct[0]
    return [t.projection * _componentwise_action(t.left, t.right, columns[i]) * t.inclusion
            for i in range(ctx.algebra.dim)]


@pytest.mark.parametrize("name, H, qt, wc", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_every_induced_action_equals_its_eager_build(name, H, qt, wc):
    for kind, ctx in _contexts(H, qt, wc):
        unit2 = ctx.coproduct[1]
        for M, N in _pairs(H):
            t = truncated_tensor(M, N, ctx, validate=False)
            assert t.projector == _componentwise_action(M, N, unit2), (name, kind)
            # read the actions last first, so that none is built in order
            lazy = [t.module.mats[i] for i in reversed(range(H.dim))][::-1]
            assert lazy == _eager(t, ctx), (name, kind)
            assert list(t.module.mats) == lazy, (name, kind)


def _crossings():
    """(name, H, qt, wc) whose plain and twisted coproducts differ: kd4 and
    kd4_diag2 with their fixture cocycles, D4 with the Klein cocycle, and
    kd4 twisted by its cocycle's transpose."""
    out = [i for i in INSTANCES if i[0] in ("kd4", "kd4_diag2", "D4-klein")]
    kd4 = zoo.fixture("kd4")
    skewed = WeakCocycle(swap2(kd4.cocycle.f), swap2(kd4.cocycle.finv))
    out.append(("kd4-skewed", kd4.algebra, kd4.qt, skewed))
    return out


CROSSINGS = _crossings()


@pytest.mark.parametrize("name, H, qt, wc", CROSSINGS, ids=[i[0] for i in CROSSINGS])
def test_no_context_takes_a_tensor_built_for_another_coproduct(name, H, qt, wc):
    # build the twisted tensor first, then the plain one, then the twisted
    # one again: each must be its own context's
    M = regular_module(H)
    phi, psi = BraidContext.phi(H, wc), BraidContext.psi(H, qt)
    assert phi.coproduct[0] != list(psi.coproduct[0][i] for i in range(H.dim)), name
    tensors = {}
    for kind, ctx in (("phi", phi), ("psi", psi), ("phi", phi)):
        t = truncated_tensor(M, M, ctx, validate=False)
        assert t.projector == _componentwise_action(M, M, ctx.coproduct[1]), (name, kind)
        assert list(t.module.mats) == _eager(t, ctx), (name, kind)
        tensors.setdefault(kind, t)
    assert [m for m in tensors["phi"].module.mats] != [m for m in tensors["psi"].module.mats]


@pytest.mark.parametrize("name, H, qt, wc", CROSSINGS, ids=[i[0] for i in CROSSINGS])
def test_each_context_braids_with_its_own_tensor(name, H, qt, wc):
    M, N = regular_module(H), ht_module(H)[1]
    braids = (("psi", BraidContext.psi(H, qt), swap2(qt.r)),
              ("phi", BraidContext.phi(H, wc), _mul2(H, wc.finv, swap2(wc.f))))
    for kind, ctx, g in braids + braids:
        for A, B in ((M, N), (N, M), (M, M)):
            want = _componentwise_action(B, A, g) * dense.flip_matrix(A.dim, B.dim)
            assert ctx.braiding_plain(A, B) == want, (name, kind)


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copies_leave_the_category_memo_behind(how):
    # the memo holds tensors whose actions are still unbuilt closures; a
    # copy takes the algebra's tables and builds its own modules
    make = {"copy": copy.copy, "deepcopy": copy.deepcopy,
            "pickle": lambda H: pickle.loads(pickle.dumps(H))}[how]
    H, qt, wc = d4_klein()
    M = regular_module(H)
    truncated_tensor(M, M, BraidContext.phi(H, wc), validate=False)
    H2 = make(H)
    assert set(vars(H2)) < set(vars(H))
    M2 = regular_module(H2)
    assert M2.algebra is H2 and M2 is not M
    t = truncated_tensor(M2, M2, BraidContext.phi(H2, wc), validate=False)
    assert list(t.module.mats) == _eager(t, BraidContext.phi(H2, wc))


def d2_klein():
    """D_2 with the Klein-four sign cocycle on {s, rs}: commutative, so its
    twisted coproduct is the plain one, but F^-1 F_21 is not R_21."""
    H = zoo.dihedral_group_algebra(2)
    gens = [H.basis_names.index("s"), H.basis_names.index("rs")]
    return H, canonical_r(H), zoo.bicharacter_cocycle(H, gens, KLEIN_BETA)


def p3_trivial():
    """The pair groupoid P3 with F = Delta(1): both categories read the same
    coproduct, unit and braiding tensor."""
    H = zoo.groupoid_algebra(zoo.GroupoidSpec.pair_groupoid(3))
    return H, canonical_r(H), zoo.trivial_cocycle(H)


def diag2_bumped():
    """diag2 with R = 2 e1 (x) e1 + e2 (x) e2, whose hexagons fail (see
    test_witnesses), and F = Delta(1), whose hexagons hold: the two
    coproducts agree and the two reports do not."""
    fx = zoo.fixture("diag2")
    r = dict(fx.qt.r)
    r[0, 0] += 1
    H = copy.copy(fx.algebra)
    return H, QTStructure(r, fx.qt.rinv), zoo.trivial_cocycle(H)


# instance -> (its builder, whether the twisted report is the plain one)
REPORTS = {"P3-trivial": (p3_trivial, True), "D2-klein": (d2_klein, False),
           "D4-klein": (d4_klein, False), "diag2-bumped": (diag2_bumped, False)}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_each_coherence_report_equals_its_build_on_a_copy(name):
    # the plain report is built first and the twisted one second, over one
    # algebra; each must read as the report built alone on a copy of the
    # algebra, whose memo is empty
    H, qt, wc = REPORTS[name][0]()
    M = regular_module(H)
    got = {kind: coherence_report(ctx, M, M, M).to_dict() for kind, ctx in _contexts(H, qt, wc)}
    for kind in ("phi", "psi"):
        alone = copy.copy(H)
        ctx = dict(_contexts(alone, qt, wc))[kind]
        N = regular_module(alone)
        assert got[kind] == coherence_report(ctx, N, N, N).to_dict(), (name, kind)
    assert (got["psi"] != got["phi"]) == (name == "diag2-bumped")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_the_twisted_coherence_report_is_kept_exactly_when_its_values_agree(name, monkeypatch):
    # a report built on the regular module braids once, M past M: both
    # hexagons are decided at Delta^2(1), and no braiding past a truncated
    # tensor is built.  diag2-bumped's plain hexagons fail there, so its
    # plain report braids five times more, in the full comparison
    # (test_hexagon_shortcut).  A report taken from the memo braids none.
    # The twisted report is the plain one when its coproduct, unit and
    # braiding tensor are; each later call takes its own context's report,
    # as a new report object
    make, shared = REPORTS[name]
    H, qt, wc = make()
    real = BraidContext.braiding_plain
    calls = []

    def counting(self, M, N):
        calls.append((M, N))
        return real(self, M, N)

    monkeypatch.setattr(BraidContext, "braiding_plain", counting)
    M = regular_module(H)
    contexts = _contexts(H, qt, wc)
    built, reports = [], []
    for _, ctx in contexts + contexts:
        before = len(calls)
        reports.append(coherence_report(ctx, M, M, M))
        built.append(len(calls) - before)
    assert built == [1 + 5 * (name == "diag2-bumped"), 0 if shared else 1, 0, 0], name
    for a, b in zip(reports[:2], reports[2:]):
        assert a is not b and a.checks is not b.checks and a.to_dict() == b.to_dict()
    reports[0].checks.clear()
    assert coherence_report(contexts[0][1], M, M, M).to_dict() == reports[2].to_dict()
