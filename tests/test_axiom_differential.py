"""The matrix-identity axiom suites against the per-tuple oracles.

Each case perturbs one entry of a structure tensor, the counit, the antipode,
a module action matrix or a structure map of a braided Hopf presentation of a
known-good instance and asserts that the package's checkers produce the same
report as `axiom_oracle`: the same checks, the same pass/fail and the same
witness bytes.
"""

import dataclasses
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from weakhopf import (
    QuantumGroupoid,
    WeakBialgebra,
    check_quantum_groupoid,
    check_weak_bialgebra,
    zoo,
)
from weakhopf.algebra import sparse_coproduct_leg, sparse_embed
from weakhopf.errors import AntipodeNotInvertible, InconsistentStructure
from weakhopf.linalg import Matrix
from weakhopf.modules import BraidContext, HModule, check_module, ht_module, regular_module
from weakhopf.quantize import quantize
from weakhopf.structures import QTStructure, _mul2, canonical_r, check_quasitriangular, swap2
from weakhopf.transmute import transmute, verify_braided_hopf
from weakhopf.twisting import twist

import axiom_oracle as oracle
import dense_oracle as dense

BUILDERS = {name: (lambda name=name: zoo.fixture(name).algebra) for name in zoo.fixture_names()}
BUILDERS["D4"] = lambda: zoo.dihedral_group_algebra(4)
BUILDERS["P3"] = lambda: zoo.groupoid_algebra(zoo.GroupoidSpec.pair_groupoid(3))

DELTAS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2))
SEEDS = range(12)

# the suites decided as matrix identities, each of which some case must fail
REWRITTEN = {
    "weak-bialgebra": {"associativity", "comultiplicativity", "weak-counit-axiom"},
    "quantum-groupoid": {"antipode-anti-multiplicative"},
    "module": {"action-multiplicative", "unit-acts-as-identity"},
}


@lru_cache(maxsize=None)
def instance(name):
    return BUILDERS[name]()


def _entry(rng, n, shape):
    return tuple(rng.randrange(n) for _ in range(shape))


def perturbed_algebra(H, rng):
    """(base, antipode rows) with one entry of mul, comul, counit or the
    antipode moved by a nonzero amount."""
    n = H.dim
    mul = [[list(r) for r in p] for p in H.mul]
    comul = [[list(r) for r in p] for p in H.comul]
    counit = list(H.counit)
    S = H.antipode.data
    d = rng.choice(DELTAS)
    field = rng.choice(("mul", "comul", "counit", "antipode"))
    if field == "counit":
        counit[rng.randrange(n)] += d
    elif field == "antipode":
        i, j = _entry(rng, n, 2)
        S[i][j] += d
    else:
        i, j, k = _entry(rng, n, 3)
        (mul if field == "mul" else comul)[i][j][k] += d
    return dense.bialgebra(H.basis_names, mul, H.unit, comul, counit), S


def perturbed_module(M, rng):
    mats = [m.data for m in M.mats]
    k = rng.randrange(len(mats))
    r, c = _entry(rng, M.dim, 2)
    mats[k][r][c] += rng.choice(DELTAS)
    return HModule(M.algebra, [Matrix(m, M.dim, M.dim) for m in mats], name=M.name)


def failed_names(report):
    return {c.name for c in report.failed_checks()}


def validate_outcome(M):
    try:
        M.validate()
    except InconsistentStructure as exc:
        return str(exc)
    return None


def oracle_validate_outcome(M):
    mult, unit = oracle.module_first_failures(M)
    if mult is not None:
        return "action is not multiplicative at basis pair (%d, %d)" % mult[:2]
    if unit is not None:
        return "unit does not act as the identity"
    return None


def algebra_cases(name):
    """(seed, base, quantum groupoid or None) for each seeded perturbation."""
    H = instance(name)
    for seed in SEEDS:
        B, S = perturbed_algebra(H, random.Random("%s-%d" % (name, seed)))
        try:
            yield seed, B, QuantumGroupoid(B, Matrix(S))
        except AntipodeNotInvertible:
            yield seed, B, None


def module_cases(name):
    H = instance(name)
    modules = (regular_module(H), ht_module(H)[1])
    for seed in SEEDS:
        rng = random.Random("%s-module-%d" % (name, seed))
        yield seed, perturbed_module(modules[seed % 2], rng)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_algebra_suites_match_oracle(name):
    H = instance(name)
    assert check_weak_bialgebra(H).to_dict() == oracle.check_weak_bialgebra(H).to_dict()
    assert check_quantum_groupoid(H).to_dict() == oracle.check_quantum_groupoid(H).to_dict()
    for seed, B, Q in algebra_cases(name):
        assert check_weak_bialgebra(B).to_dict() == oracle.check_weak_bialgebra(B).to_dict(), seed
        for leg in (0, 1):
            for left in (True, False):
                assert B._eps_map(leg, left) == oracle.eps_map(B, leg, left), seed
        if Q is not None:
            assert check_quantum_groupoid(Q).to_dict() == oracle.check_quantum_groupoid(Q).to_dict(), seed


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_module_suites_match_oracle(name):
    H = instance(name)
    for M in (regular_module(H), ht_module(H)[1]):
        assert check_module(M).to_dict() == oracle.check_module(M).to_dict()
    for seed, M in module_cases(name):
        assert check_module(M).to_dict() == oracle.check_module(M).to_dict(), seed
        assert validate_outcome(M) == oracle_validate_outcome(M), seed


def test_perturbations_reach_every_rewritten_suite():
    # the cases above exercise the witness scan of every rewritten suite
    seen = {suite: set() for suite in REWRITTEN}
    for name in BUILDERS:
        for _, B, Q in algebra_cases(name):
            seen["weak-bialgebra"] |= failed_names(check_weak_bialgebra(B))
            if Q is not None:
                seen["quantum-groupoid"] |= failed_names(check_quantum_groupoid(Q))
        for _, M in module_cases(name):
            seen["module"] |= failed_names(check_module(M))
    for suite, names in REWRITTEN.items():
        assert names <= seen[suite], (suite, names - seen[suite])


# perturbations under which Delta^2(1) equals the first ordered product of
# Delta(1) and differs from the second; no seeded case above fails the weak
# unit axiom on its second product alone
SECOND_PRODUCT_ONLY = (("pair2", 167), ("P3", 68), ("P3", 323), ("P3", 344))


def test_weak_unit_axiom_witness_from_the_second_product():
    for name, seed in SECOND_PRODUCT_ONLY:
        B, _ = perturbed_algebra(instance(name), random.Random("%s-x%d" % (name, seed)))
        d1 = B.delta_one
        d2 = sparse_coproduct_leg(d1, 0, B.comul_cols)
        left3 = sparse_embed(d1, 3, (0, 1), B.unit_sparse)
        right3 = sparse_embed(d1, 3, (1, 2), B.unit_sparse)
        assert dense.sparse_mul(B, left3, right3, 3) == d2, (name, seed)
        second = dense.dense_of_sparse(dense.sparse_mul(B, right3, left3, 3), B.dim, 3)
        ours = check_weak_bialgebra(B)
        assert ours.to_dict() == oracle.check_weak_bialgebra(B).to_dict(), (name, seed)
        witness = ours["weak-unit-axiom"].witness
        assert witness.rhs == second != witness.lhs, (name, seed)


# braided Hopf presentations: every fixture, D2 with the Klein sign cocycle
# on {s, rs} and P3 with the trivial cocycle
KLEIN_BETA = [[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, 1, 1], [1, 1, -1, -1]]
PRESENTATION_FIELDS = ("mul", "comul", "counit", "unit", "antipode")
PRESENTATION_SEEDS = range(16)
# the verifier's checks decided as map identities after being per-tuple loops
REWRITTEN_BRAIDED = {"associativity", "counit-law-left", "counit-law-right",
                     "bialgebra-compatibility"}


def _d2():
    H = zoo.dihedral_group_algebra(2)
    gens = [H.basis_names.index("s"), H.basis_names.index("rs")]
    return H, canonical_r(H), zoo.bicharacter_cocycle(H, gens, KLEIN_BETA)


def _braided_instance(name):
    if name == "D2":
        return _d2()
    if name == "P3":
        H = instance("P3")
        return H, canonical_r(H), zoo.trivial_cocycle(H)
    fx = zoo.fixture(name)
    return fx.algebra, fx.qt, fx.cocycle


BRAIDED_INSTANCES = sorted(zoo.fixture_names()) + ["D2", "P3"]


def perturbed_presentation(p, rng):
    """p with one entry of mul, comul, counit, unit or the antipode moved by
    a nonzero amount."""
    field = rng.choice(PRESENTATION_FIELDS)
    mat = getattr(p, field)
    data = mat.data
    r, c = rng.randrange(mat.rows), rng.randrange(mat.cols)
    data[r][c] += rng.choice(DELTAS)
    return dataclasses.replace(p, **{field: Matrix(data, mat.rows, mat.cols)})


@lru_cache(maxsize=None)
def braided_reports(name):
    """[(case, package report, oracle report)] over the unperturbed and the
    seeded perturbed transmute (psi) and quantize (phi) presentations."""
    H, qt, wc = _braided_instance(name)
    out = []
    for kind, p, ctx in (("psi", transmute(H, qt), BraidContext.psi(H, qt)),
                         ("phi", quantize(H, wc), BraidContext.phi(H, wc))):
        cases = [("%s-%s" % (name, kind), p)]
        for seed in PRESENTATION_SEEDS:
            case = "%s-%s-%d" % (name, kind, seed)
            cases.append((case, perturbed_presentation(p, random.Random(case))))
        for case, q in cases:
            out.append((case, verify_braided_hopf(q, ctx), oracle.verify_braided_hopf(q, ctx)))
    return out


@pytest.mark.parametrize("name", BRAIDED_INSTANCES)
def test_braided_hopf_verifier_matches_oracle(name):
    for case, ours, theirs in braided_reports(name):
        assert ours.to_dict() == theirs.to_dict(), case


def test_presentation_perturbations_fail_every_rewritten_check():
    failed = set()
    for name in BRAIDED_INSTANCES:
        for _, ours, _ in braided_reports(name):
            failed |= failed_names(ours)
    assert REWRITTEN_BRAIDED <= failed, REWRITTEN_BRAIDED - failed


# ---------------------------------------------------------------------------
# the laws decided on the generators: each case closes one gate or makes the
# decision on the generators fail, and the report must still be the oracle's

GATE_INSTANCES = ("D4", "P3", "kd4_diag2")
GATE_SEEDS = range(10)


def _unit_support(H):
    return {i for i, c in enumerate(H.unit) if c}


def _moved(rng, c):
    """c moved by a nonzero amount, never onto zero."""
    return c + rng.choice([d for d in DELTAS if c + d != 0])


def _corrupted_module(M, i, rng):
    """M with one entry of the action matrix of e_i moved."""
    mats = [m.data for m in M.mats]
    r, c = _entry(rng, M.dim, 2)
    mats[i][r][c] = _moved(rng, mats[i][r][c])
    return HModule(M.algebra, [Matrix(m, M.dim, M.dim) for m in mats], name=M.name)


def _assert_module_matches(M, case):
    assert check_module(M).to_dict() == oracle.check_module(M).to_dict(), case
    assert validate_outcome(M) == oracle_validate_outcome(M), case


def _bialgebra(H, mul=None, unit=None):
    return dense.bialgebra(H.basis_names, mul or H.mul, unit or H.unit, H.comul, H.counit)


@pytest.mark.parametrize("name", GATE_INSTANCES)
def test_module_over_a_non_associative_algebra(name):
    # a product moved off the unit's support keeps the unit law, so Light's
    # test runs and fails, and the module law finds its gate closed
    H = instance(name)
    off_unit = [i for i in range(H.dim) if i not in _unit_support(H)]
    closed = 0
    for seed in GATE_SEEDS:
        rng = random.Random("%s-non-associative-%d" % (name, seed))
        mul = [[list(r) for r in p] for p in H.mul]
        i, j, k = rng.choice(off_unit), rng.choice(off_unit), rng.randrange(H.dim)
        mul[i][j][k] = _moved(rng, mul[i][j][k])
        B = _bialgebra(H, mul=mul)
        assert B.unit_law, seed
        closed += not B.associativity.passed
        assert check_weak_bialgebra(B).to_dict() == oracle.check_weak_bialgebra(B).to_dict(), seed
        _assert_module_matches(HModule(B, H.left_mult_mats, name="regular"), seed)
    assert closed >= len(GATE_SEEDS) // 2


@pytest.mark.parametrize("name", GATE_INSTANCES + ("diag2",))
def test_module_whose_unit_does_not_act_as_the_identity(name):
    # on diag2 (generator e1) a corrupted action of e2 can leave every
    # identity at the generator intact, so the gate rho(1) = id decides
    H = instance(name)
    M = regular_module(H)
    for seed in GATE_SEEDS:
        rng = random.Random("%s-unit-action-%d" % (name, seed))
        bad = _corrupted_module(M, rng.choice(sorted(_unit_support(H))), rng)
        assert bad.act_element(H.unit) != Matrix.identity(M.dim), seed
        _assert_module_matches(bad, seed)


@pytest.mark.parametrize("name", GATE_INSTANCES)
def test_module_corrupted_off_the_generators(name):
    # the gate is open, the generators see the corruption through the
    # products that reach e_i, and the full scan names the first pair
    H = instance(name)
    others = [i for i in range(H.dim)
              if i not in H.generators and i not in _unit_support(H)]
    for M in (regular_module(H), ht_module(H)[1]):
        for seed in GATE_SEEDS:
            rng = random.Random("%s-%s-off-generators-%d" % (name, M.name, seed))
            bad = _corrupted_module(M, rng.choice(others), rng)
            assert bad.act_element(H.unit) == Matrix.identity(M.dim), seed
            _assert_module_matches(bad, seed)


@pytest.mark.parametrize("name", ["kd4", "kd4_diag2"])
def test_twisted_coproduct_corrupted_off_the_generators(name):
    fx = zoo.fixture(name)
    H = fx.algebra
    columns = BraidContext.phi(H, fx.cocycle).coproduct[0]
    others = [i for i in range(H.dim) if i not in H.generators]
    failed = 0
    for seed in GATE_SEEDS:
        rng = random.Random("%s-twisted-column-%d" % (name, seed))
        cols = {i: dict(col) for i, col in enumerate(columns)}
        col = cols[rng.choice(others)]
        key = rng.choice(sorted(col)) if rng.random() < 0.5 else _entry(rng, H.dim, 2)
        col[key] = _moved(rng, col.get(key, 0))
        B = WeakBialgebra(H.basis_names, H.mul_rows, H.unit, cols, H.counit)
        ours = check_weak_bialgebra(B)
        assert ours.to_dict() == oracle.check_weak_bialgebra(B).to_dict(), seed
        failed += not ours["comultiplicativity"].passed
    assert failed


@pytest.mark.parametrize("name", GATE_INSTANCES + ("diag2",))
def test_algebra_whose_unit_law_fails(name):
    # a moved unit coefficient, and on odd seeds a moved product too, which
    # Light's test must not be trusted with
    H = instance(name)
    for seed in GATE_SEEDS:
        rng = random.Random("%s-unit-law-%d" % (name, seed))
        unit = list(H.unit)
        k = rng.randrange(H.dim)
        unit[k] = _moved(rng, unit[k])
        mul = [[list(r) for r in p] for p in H.mul]
        if seed % 2:
            i, j, k = _entry(rng, H.dim, 3)
            mul[i][j][k] = _moved(rng, mul[i][j][k])
        B = _bialgebra(H, mul=mul, unit=unit)
        assert not B.unit_law, seed
        assert check_weak_bialgebra(B).to_dict() == oracle.check_weak_bialgebra(B).to_dict(), seed
        _assert_module_matches(HModule(B, H.left_mult_mats, name="regular"), seed)
        Q = QuantumGroupoid(B, H.antipode)
        assert check_quantum_groupoid(Q).to_dict() == oracle.check_quantum_groupoid(Q).to_dict(), seed


def _r_instances():
    out = {name: (instance(name), canonical_r(instance(name))) for name in GATE_INSTANCES}
    fx = zoo.fixture("kd4")
    tw = twist(fx.algebra, fx.qt, fx.cocycle)
    out["kd4-twisted"] = (tw.algebra, tw.qt)
    return out


@pytest.mark.parametrize("name", GATE_INSTANCES + ("kd4-twisted",))
def test_r_corrupted_off_the_generators(name):
    # every basis element that is not a generator lies in the algebra that 1
    # and the generators before it generate, so the full scan meets a
    # failing generator or h = 1 first; the report must still be the oracle's
    H, qt = _r_instances()[name]
    n = H.dim
    others = [i for i in range(n) if i not in H.generators]
    failed = 0
    for seed in GATE_SEEDS:
        rng = random.Random("%s-r-%d" % (name, seed))
        r = dict(qt.r)
        # one coefficient of R with a first leg off the generators
        a, b = rng.choice(others), rng.randrange(n)
        r[a, b] = _moved(rng, r.get((a, b), Fraction(0)))
        bad = QTStructure(r, qt.rinv)
        ours = check_quasitriangular(H, bad)
        assert ours.to_dict() == oracle.check_quasitriangular(H, bad).to_dict(), seed
        failed += not ours["intertwiner"].passed
    assert failed


def test_r_corrupted_where_the_identity_at_one_fails():
    # on pair2 (objects 1, 2), R + e11 (x) e12: both legs end at object 1 and
    # start at different objects, so Delta_cop(1) R != R Delta(1)
    H = instance("pair2")
    qt = canonical_r(H)
    r = dict(qt.r)
    e11_e12 = (H.basis_names.index("e11"), H.basis_names.index("e12"))
    r[e11_e12] = r.get(e11_e12, 0) + 1
    bad = QTStructure(r, qt.rinv)
    rs, d1 = bad.r, H.delta_one
    assert _mul2(H, swap2(d1), rs) != _mul2(H, rs, d1)
    ours = check_quasitriangular(H, bad)
    assert not ours["intertwiner"].passed
    assert ours.to_dict() == oracle.check_quasitriangular(H, bad).to_dict()


# ---------------------------------------------------------------------------
# the weak counit axiom as two stacked identities, one per order of the legs
# of Delta(e_g): a case that breaks only one order must reach the loop

def _one_order_only(H, first):
    """Delta(e_g) moved by (e_a - e_a2) (x) e_b on leg first.  On P3,
    E[x][y] = eps(e_x e_y) is singular, and a pair a, a2 whose columns of E
    agree and whose rows do not leaves E D_g E as it was (first = 0) and
    changes E D_g^T E; first = 1 takes a pair whose rows agree instead."""
    E = H._eps_products
    rows, cols = E.sparse_rows, E.transpose().sparse_rows
    a, a2 = next((a, a2) for a in range(H.dim) for a2 in range(H.dim)
                 if a != a2 and (cols, rows)[first][a] == (cols, rows)[first][a2]
                 and (rows, cols)[first][a] != (rows, cols)[first][a2])
    b = next(b for b in range(H.dim) if rows[b] and cols[b])
    g = H.dim - 1
    col = dict(H.comul_cols[g])
    for x, c in ((a, 1), (a2, -1)):
        key = (x, b) if first == 0 else (b, x)
        new = col.get(key, 0) + c
        if new:
            col[key] = Fraction(new)
        else:
            col.pop(key, None)
    cols_all = dict(H.comul_cols)
    cols_all[g] = col
    return WeakBialgebra(H.basis_names, H.mul_rows, H.unit, cols_all, H.counit)


@pytest.mark.parametrize("first", [0, 1])
def test_weak_counit_axiom_broken_in_one_order_of_the_legs_only(first):
    B = _one_order_only(instance("P3"), first)
    ours = check_weak_bialgebra(B)
    assert ours.to_dict() == oracle.check_weak_bialgebra(B).to_dict()
    witness = ours["weak-counit-axiom"].witness
    assert witness is not None
    # the witness pair is (eps(e_h e_g e_l), same) against the two splits;
    # exactly one split differs from the product
    lhs, (s1, s2) = witness.lhs[0], witness.rhs
    assert (s1 != lhs) != (s2 != lhs)
