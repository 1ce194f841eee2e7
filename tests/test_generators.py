"""Generating sets, and the multiplicative laws decided on them.

`WeakBialgebra.generators` is checked against an independent dense closure
on the fixtures and the size ladder; the work the laws do on a generating
set is pinned by counting matrix and tensor products.
"""

import random
from fractions import Fraction

import pytest

import dense_oracle as dense
import weakhopf.algebra as algebra_mod
from weakhopf import QuantumGroupoid, check_quantum_groupoid, check_weak_bialgebra, zoo
from weakhopf.algebra import WeakBialgebra, _action_identities, _multiplicativity
from weakhopf.linalg import Matrix, frac
from weakhopf.modules import (
    BraidContext,
    HModule,
    _module_map_identities,
    check_module,
    regular_module,
    truncated_tensor,
)
from weakhopf.report import decide
from weakhopf.structures import canonical_r


def _pair(k):
    return zoo.groupoid_algebra(zoo.GroupoidSpec.pair_groupoid(k))


def _sums():
    d2, p2 = zoo.dihedral_group_algebra(2), _pair(2)
    fx = {name: zoo.fixture(name).algebra for name in ("diag2", "kz2", "pair2")}
    return {
        "kd4+diag2": zoo.fixture("kd4_diag2").algebra,
        "diag2+kz2": zoo.direct_sum(fx["diag2"], fx["kz2"]),
        "pair2+kz2": zoo.direct_sum(fx["pair2"], fx["kz2"]),
        "D2+P2": zoo.direct_sum(d2, p2),
    }


def ladder():
    out = {name: zoo.fixture(name).algebra for name in zoo.fixture_names()}
    out.update(("D%d" % k, zoo.dihedral_group_algebra(k)) for k in range(3, 17))
    out.update(("Z%d" % k, zoo.cyclic_group_algebra(k)) for k in range(1, 9))
    out.update(("P%d" % k, _pair(k)) for k in range(2, 9))
    out.update(_sums())
    return out


def fresh(H):
    """A weak bialgebra on the tables of H with nothing computed yet."""
    return WeakBialgebra(H.basis_names, H.mul_rows, H.unit, H.comul_cols, H.counit)


def test_the_words_in_the_generators_span_every_instance():
    for name, H in ladder().items():
        S = H.generators
        assert dense.generated_dim(H, S) == H.dim, name
        # greedy: each generator enlarges the span of the words before it
        dims = [dense.generated_dim(H, S[:k]) for k in range(len(S) + 1)]
        assert dims == sorted(set(dims)), name


def test_generator_counts():
    H = ladder()
    sizes = {name: len(H[name].generators)
             for name in ("D4", "D16", "P3", "P4", "D2+P2", "Z1", "Z2", "Z8")}
    assert sizes == {"D4": 2, "D16": 2, "P3": 5, "P4": 7, "D2+P2": 6,
                     "Z1": 0, "Z2": 1, "Z8": 1}
    d4 = H["D4"]
    assert [d4.basis_names[i] for i in d4.generators] == ["r", "s"]


# The exact generators of every ladder instance, and of a seeded copy of
# each with one product entry of a generator changed: the greedy choice of
# S depends only on the closure subspaces, not on the basis that holds them.
GENERATORS = {
    "D10": (1, 10), "D11": (1, 11), "D12": (1, 12), "D13": (1, 13), "D14": (1, 14),
    "D15": (1, 15), "D16": (1, 16), "D2+P2": (0, 1, 2, 4, 5, 6), "D3": (1, 3), "D4": (1, 4),
    "D5": (1, 5), "D6": (1, 6), "D7": (1, 7), "D8": (1, 8), "D9": (1, 9), "P2": (0, 1, 2),
    "P3": (0, 1, 2, 3, 6), "P4": (0, 1, 2, 3, 4, 8, 12), "P5": (0, 1, 2, 3, 4, 5, 10, 15, 20),
    "P6": (0, 1, 2, 3, 4, 5, 6, 12, 18, 24, 30),
    "P7": (0, 1, 2, 3, 4, 5, 6, 7, 14, 21, 28, 35, 42),
    "P8": (0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 40, 48, 56), "Z1": (), "Z2": (1,), "Z3": (1,),
    "Z4": (1,), "Z5": (1,), "Z6": (1,), "Z7": (1,), "Z8": (1,), "diag2": (0,),
    "diag2+kz2": (0, 1, 3), "kd4": (1, 4), "kd4+diag2": (0, 1, 4, 8), "kd4_diag2": (0, 1, 4, 8),
    "kz2": (1,), "pair2": (0, 1, 2), "pair2+kz2": (0, 1, 2, 5),
}
CORRUPTED_GENERATORS = {
    "D10": (1, 10), "D11": (1, 11), "D12": (1, 12), "D13": (1, 13), "D14": (1, 14),
    "D15": (1, 15), "D16": (1, 16), "D2+P2": (0, 1, 2, 4, 5), "D3": (1,), "D4": (1, 4),
    "D5": (1, 5), "D6": (1, 6), "D7": (1, 7), "D8": (1, 8), "D9": (1, 9), "P2": (0, 1, 2),
    "P3": (0, 1, 2, 3, 6), "P4": (0, 1, 2, 3, 4, 8, 12), "P5": (0, 1, 2, 3, 4, 5, 10, 15, 20),
    "P6": (0, 1, 2, 3, 4, 5, 6, 12, 18, 24, 30),
    "P7": (0, 1, 2, 3, 4, 5, 6, 7, 14, 21, 28, 35, 42),
    "P8": (0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 40, 48, 56), "Z1": (), "Z2": (1,), "Z3": (1,),
    "Z4": (1,), "Z5": (1,), "Z6": (1,), "Z7": (1,), "Z8": (1,), "diag2": (0,),
    "diag2+kz2": (0, 1, 3), "kd4": (1, 4), "kd4+diag2": (0, 1, 8), "kd4_diag2": (0, 1, 4, 8),
    "kz2": (1,), "pair2": (0, 1, 2), "pair2+kz2": (0, 1, 2),
}


def corrupted(H, seed):
    """A fresh weak bialgebra on H's tables with one entry of a product s e_j,
    s a generator, changed by a nonzero amount; its unit law may fail."""
    rng = random.Random(seed)
    n = H.dim
    i = rng.choice(H.generators or (0,))
    j, k = rng.randrange(n), rng.randrange(n)
    rows = dict(H.mul_rows)
    row = dict(rows.get((i, j), {}))
    old = row.get(k, 0)
    row[k] = frac(old + rng.choice([d for d in (1, Fraction(-1, 2)) if old + d]))
    rows[(i, j)] = row
    return WeakBialgebra(H.basis_names, rows, H.unit, H.comul_cols, H.counit)


def test_the_generators_are_pinned_on_the_ladder_and_on_corrupted_copies():
    instances = sorted(ladder().items())
    assert {name: H.generators for name, H in instances} == GENERATORS
    assert {name: corrupted(H, seed).generators
            for seed, (name, H) in enumerate(instances)} == CORRUPTED_GENERATORS


def test_generators_are_computed_once_per_algebra(monkeypatch):
    B = fresh(zoo.dihedral_group_algebra(4))
    S = B.generators
    monkeypatch.setattr(algebra_mod, "_add_into", None)  # any recomputation fails
    assert B.generators is S


def test_a_quantum_groupoid_keeps_what_its_base_computed():
    H = zoo.dihedral_group_algebra(4)
    base = fresh(H)
    assert check_weak_bialgebra(base).passed
    base.eps_t_mat, base.eps_s_mat
    kept = ("generators", "associativity", "comultiplicativity", "left_mult_mats",
            "comul_map", "_eps_products", "eps_t_mat", "eps_s_mat")
    regular_module(base)
    Q = QuantumGroupoid(base, H.antipode)
    for name in kept:
        assert Q.__dict__[name] is base.__dict__[name], name
    # the regular module's algebra is base, so it stays there
    assert "_regular_module" not in Q.__dict__
    assert regular_module(Q).algebra is Q
    assert check_quantum_groupoid(Q).passed


def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_module_law_on_the_regular_tensor_square_takes_s_plus_one_times_n_products(monkeypatch):
    H = zoo.dihedral_group_algebra(4)
    M = regular_module(H)
    square = truncated_tensor(M, M, BraidContext.psi(H, canonical_r(H)), validate=False).module
    assert H.associativity.passed
    products = _counting(monkeypatch, Matrix, "__mul__")
    square.validate()
    # n^2 = 64 with every basis pair scanned
    assert len(products) <= (len(H.generators) + 1) * H.dim == 24


def test_comultiplicativity_takes_s_plus_one_times_n_tensor_products(monkeypatch):
    B = fresh(zoo.dihedral_group_algebra(4))
    assert B.associativity.passed
    products = _counting(monkeypatch, algebra_mod, "sparse_mul")
    assert B.comultiplicativity.passed
    assert len(products) <= (len(B.generators) + 1) * B.dim == 24


def test_associativity_takes_s_times_n_matrix_products(monkeypatch):
    B = fresh(_pair(3))
    B.left_mult_mats
    products = _counting(monkeypatch, Matrix, "__mul__")
    assert B.associativity.passed
    # one stacked product per generator; |S| n = 45 with one identity per
    # generator and basis element, n^2 = 81 with every basis pair scanned
    assert len(products) == len(B.generators) == 5


@pytest.mark.parametrize("build", [lambda: zoo.dihedral_group_algebra(4), lambda: _pair(3)])
def test_a_closed_gate_scans_every_pair(monkeypatch, build):
    # a unit vector off by a scalar breaks the unit law, so associativity is
    # decided over all n^2 pairs
    H = build()
    B = WeakBialgebra(H.basis_names, H.mul_rows, [2 * c for c in H.unit], H.comul_cols,
                      H.counit)
    B.left_mult_mats
    assert not B.unit_law
    products = _counting(monkeypatch, Matrix, "__mul__")
    assert B.associativity.passed
    assert len(products) == B.dim ** 2


# ---------------------------------------------------------------------------
# the stacked identity and the generator shortcut against the full scan: on
# every instance of the ladder, each case corrupts something the generators
# alone cannot see, and the verdict and witness must be the full scan's

LADDER = ladder()


def _moved(m, i, rng):
    """A copy of m with entry (i, c) moved by a nonzero amount, never onto 0."""
    rows = [dict(row) for row in m.sparse_rows]
    c = rng.randrange(m.cols)
    old = rows[i].get(c, Fraction(0))
    new = old + rng.choice([d for d in (Fraction(1), Fraction(-1, 2)) if old + d])
    rows[i][c] = new
    return Matrix._of(m.rows, m.cols, rows)


def _with_mat(M, k, mat):
    return HModule(M.algebra, M.mats[:k] + (mat,) + M.mats[k + 1:], name=M.name)


def _full_scan(name, identities, n):
    return decide(name, _multiplicativity(identities, range(n)))


def _off_generators(H):
    """Basis indices that are neither generators nor in the unit's support."""
    unit = {i for i, c in enumerate(H.unit) if c}
    return [i for i in range(H.dim) if i not in H.generators and i not in unit]


@pytest.mark.parametrize("name", sorted(LADDER))
def test_the_stacked_identity_holds_exactly_when_its_pairs_do(name):
    H = LADDER[name]
    M = regular_module(H)
    rng = random.Random("stacked-%s" % name)
    k = rng.randrange(H.dim)
    bad = _with_mat(M, k, _moved(M.mats[k], rng.randrange(H.dim), rng))
    for mats in (M.mats, bad.mats):
        identities, stacked = _action_identities(H.mul_rows, mats)
        for s in H.generators + (k,):
            lhs, rhs = stacked(s)
            assert (lhs == rhs) == all(a == b for _, a, b in identities(s)), s


@pytest.mark.parametrize("name", sorted(LADDER))
def test_a_module_corrupted_at_a_non_generator_pair_gets_the_full_scan(name):
    H = LADDER[name]
    others = _off_generators(H)
    if not others:
        pytest.skip("every basis element is a generator or in the unit's support")
    rng = random.Random("off-generators-%s" % name)
    M = regular_module(H)
    k = rng.choice(others)
    bad = _with_mat(M, k, _moved(M.mats[k], rng.randrange(H.dim), rng))
    identities, _ = _action_identities(H.mul_rows, bad.mats)
    report = check_module(bad)
    assert report["action-multiplicative"] == _full_scan("action-multiplicative",
                                                         identities, H.dim)
    assert not report["action-multiplicative"].passed


@pytest.mark.parametrize("name", sorted(LADDER))
def test_a_unit_that_does_not_act_as_the_identity_gets_the_full_scan(name):
    H = LADDER[name]
    rng = random.Random("unit-action-%s" % name)
    M = regular_module(H)
    u = rng.choice([i for i, c in enumerate(H.unit) if c])
    bad = _with_mat(M, u, _moved(M.mats[u], rng.randrange(H.dim), rng))
    assert bad.act_element(H.unit) != Matrix.identity(H.dim)
    identities, _ = _action_identities(H.mul_rows, bad.mats)
    report = check_module(bad)
    assert report["action-multiplicative"] == _full_scan("action-multiplicative",
                                                         identities, H.dim)
    assert not report["unit-acts-as-identity"].passed


@pytest.mark.parametrize("name", sorted(LADDER))
def test_associativity_of_a_non_associative_table_is_the_full_scan_verdict(name):
    H = LADDER[name]
    if H.dim < 2:
        pytest.skip("one basis element")
    unit = {i for i, c in enumerate(H.unit) if c}
    off_unit = [i for i in range(H.dim) if i not in unit] or list(range(H.dim))
    rng = random.Random("non-associative-%s" % name)
    mul_rows = {ij: dict(row) for ij, row in H.mul_rows.items()}
    ij = rng.choice(off_unit), rng.choice(off_unit)
    row = mul_rows.setdefault(ij, {})
    k = rng.randrange(H.dim)
    row[k] = row.get(k, 0) + 1
    if not row[k]:
        row[k] = Fraction(1, 2)
    B = WeakBialgebra(H.basis_names, mul_rows, H.unit, H.comul_cols, H.counit)
    identities, _ = _action_identities(B.mul_rows, B.left_mult_mats)
    assert B.associativity == _full_scan("associativity", identities, B.dim)


def _module_map_check(x, src, dst):
    return decide("module-map", _module_map_identities(x, src, dst))


def _module_map_scan(x, src, dst):
    return decide("module-map", (((h,), x * src.mats[h], dst.mats[h] * x)
                                 for h in range(src.algebra.dim)))


@pytest.mark.parametrize("name", sorted(LADDER))
def test_module_maps_between_modules_are_decided_on_the_generators(name):
    H = LADDER[name]
    M = regular_module(H)
    rng = random.Random("module-map-%s" % name)
    # right multiplications are the module maps of the regular module
    x = H.right_mult([Fraction(rng.randrange(-2, 3)) for _ in range(H.dim)])
    assert _module_map_identities(x, M, M) == ()
    assert _module_map_check(x, M, M) == _module_map_scan(x, M, M)
    y = _moved(x, rng.randrange(H.dim), rng)
    assert _module_map_check(y, M, M) == _module_map_scan(y, M, M)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_a_module_map_broken_only_off_the_generators_gets_the_full_scan(name):
    # the identity intertwines M with M corrupted at one basis element k and
    # nowhere else, so the generators alone would pass it: k off the
    # generators and the unit's support, and k in the unit's support, where
    # the map is broken at 1
    H = LADDER[name]
    M = regular_module(H)
    rng = random.Random("module-map-off-%s" % name)
    others = _off_generators(H)
    unit = [i for i, c in enumerate(H.unit) if c and i not in H.generators]
    ident = Matrix.identity(H.dim)
    cases = others[:1] + unit[:1]
    if not cases:
        pytest.skip("every basis element is a generator")
    for k in cases:
        bad = _with_mat(M, k, _moved(M.mats[k], rng.randrange(H.dim), rng))
        assert all(M.mats[s] == bad.mats[s] for s in H.generators)
        for src, dst in ((M, bad), (bad, M)):
            check = _module_map_check(ident, src, dst)
            assert check == _module_map_scan(ident, src, dst)
            assert not check.passed and check.witness.indices[0] == k


def rescaled(H, scale):
    """H on the basis scale[i] e_i: the same algebra with structure
    constants other than 1 (e'_i e'_j = sum scale_i scale_j / scale_k m_ij^k e'_k)."""
    c = [Fraction(x) for x in scale]
    mul_rows = {(i, j): {k: x * c[i] * c[j] / c[k] for k, x in row.items()}
                for (i, j), row in H.mul_rows.items()}
    comul_cols = {i: {(j, k): x * c[i] / (c[j] * c[k]) for (j, k), x in col.items()}
                  for i, col in H.comul_cols.items()}
    unit = [u / ci for u, ci in zip(H.unit, c)]
    counit = [e * ci for e, ci in zip(H.counit, c)]
    return WeakBialgebra(H.basis_names, mul_rows, unit, comul_cols, counit)


RESCALED = {name + "x": rescaled(LADDER[name], [(i % 3) + 1 if i % 2 else -Fraction(1, i + 1)
                                                  for i in range(LADDER[name].dim)])
            for name in ("D4", "P3", "kd4_diag2")}


@pytest.mark.parametrize("name", sorted(RESCALED))
def test_the_stacked_identity_reads_structure_constants_other_than_one(name):
    B = RESCALED[name]
    assert check_weak_bialgebra(B).passed
    M = HModule(B, B.left_mult_mats, name="regular")
    assert check_module(M).passed
    for mats in (M.mats, _with_mat(M, 1, _moved(M.mats[1], 0, random.Random(name))).mats):
        identities, stacked = _action_identities(B.mul_rows, mats)
        for s in range(B.dim):
            lhs, rhs = stacked(s)
            assert (lhs == rhs) == all(a == b for _, a, b in identities(s)), s


@pytest.mark.parametrize("name", ["D4", "P3", "D2+P2", "kd4_diag2", "P4"])
def test_weak_bialgebra_suite_takes_seven_products_once_its_laws_are_decided(monkeypatch, name):
    # two whiskered products for the counit axiom, (eps (x) id) Delta and
    # (id (x) eps) Delta, and five for the two stacked weak counit
    # identities, T (id (x) E) and E D (id (x) E) for each order of the legs,
    # each with its rows cut into blocks of n and then times E; the loop
    # over g alone would take 5 n
    B = fresh(LADDER[name])
    B.associativity, B.comultiplicativity, B._eps_products
    products = _counting(monkeypatch, Matrix, "__mul__")
    whiskered = _counting(monkeypatch, algebra_mod, "_whiskered")
    assert check_weak_bialgebra(B).passed
    assert (len(whiskered), len(products)) == (2, 5)


def test_module_maps_validate_h_t_and_never_the_plain_tensor_square(monkeypatch):
    # the coproduct's morphism check maps into the plain action on the
    # tensor square, which is not a module (1 acts as the projector) and is
    # never validated: its law is decided on the generators from the
    # coproduct's verdict, with coproduct-lands-in-tensor as its law at 1
    import weakhopf.modules as modules_mod
    from weakhopf.transmute import transmute, verify_braided_hopf

    # a fresh algebra, on which H_t's module is not yet built
    H = zoo.dihedral_group_algebra(4)
    qt = canonical_r(H)
    p = transmute(H, qt)
    checked = []
    inner = modules_mod.check_module
    monkeypatch.setattr(modules_mod, "check_module", lambda M: checked.append(M.name) or inner(M))
    assert verify_braided_hopf(p, BraidContext.psi(H, qt)).passed
    assert "H_t" in checked and "plain square" not in checked


def relabeled(H, perm):
    """H with basis element i renamed perm[i]: an isomorphic algebra whose
    structure constants differ from H's."""
    mul_rows = {(perm[i], perm[j]): {perm[k]: x for k, x in row.items()}
                for (i, j), row in H.mul_rows.items()}
    comul_cols = {perm[i]: {(perm[j], perm[k]): x for (j, k), x in col.items()}
                  for i, col in H.comul_cols.items()}
    unit, counit = [0] * H.dim, [0] * H.dim
    for i in range(H.dim):
        unit[perm[i]], counit[perm[i]] = H.unit[i], H.counit[i]
    return WeakBialgebra(H.basis_names, mul_rows, unit, comul_cols, counit)


def test_a_module_map_into_a_module_over_another_product_gets_the_full_scan():
    # Z4 relabeled by swapping g^2 and g^3 is a second algebra on the same
    # space; the relabeling x intertwines the regular modules at the
    # generator g and at 1, but not at g^2, since x maps H's g^2 to the other
    # algebra's g^2, which that algebra names e_3
    H = LADDER["Z4"]
    assert H.generators == (1,) and H.unit == (1, 0, 0, 0)
    perm = (0, 1, 3, 2)
    B = relabeled(H, perm)
    src, dst = regular_module(H), HModule(B, B.left_mult_mats, name="relabeled")
    assert check_module(dst).passed and B.unital_associative
    x = Matrix.from_entries(4, 4, ((perm[i], i, Fraction(1)) for i in range(4)))
    assert x * src.mats[1] == dst.mats[1] * x
    check = _module_map_check(x, src, dst)
    assert check == _module_map_scan(x, src, dst)
    assert not check.passed and check.witness.indices[0] == 2
