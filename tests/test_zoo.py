import pytest

from dense_oracle import basis_vector
from weakhopf import (
    canonical_r,
    check_quantum_groupoid,
    check_quasitriangular,
    check_weak_bialgebra,
    check_weak_cocycle,
    quantize,
    target_subalgebra,
    transmute,
)
from weakhopf.errors import InvalidGroupoid, NotABicharacter
from weakhopf.linalg import Matrix
from weakhopf.zoo import (
    GroupoidSpec,
    fixture,
    bicharacter_cocycle,
    cyclic_group_algebra,
    dihedral_group_algebra,
    direct_sum,
    direct_sum_cocycle,
    direct_sum_qt,
    fixture_names,
    groupoid_algebra,
    trivial_cocycle,
)


def test_identity_groupoid_gives_the_diagonal_algebra():
    H = groupoid_algebra(GroupoidSpec.identity_groupoid(2))
    assert H.dim == 2
    assert H.mul[0][0][0] == 1 and H.mul[0][1] == (0, 0)
    assert H.unit == (1, 1)


def test_cyclic_group_algebra_is_ordinary():
    H = cyclic_group_algebra(2)
    assert H.delta_one == {(0, 0): 1}
    assert target_subalgebra(H).dim == 1


def test_pair_groupoid_antipode_is_transpose():
    H = groupoid_algebra(GroupoidSpec.pair_groupoid(2))
    names = H.basis_names
    for i, name in enumerate(names):
        flipped = "e" + name[2] + name[1]
        assert H.antipode.column(i) == basis_vector(H, names.index(flipped))


def test_invalid_groupoid_reports_entry():
    spec = GroupoidSpec.identity_groupoid(2)
    broken = GroupoidSpec(
        spec.objects,
        spec.arrows,
        {("e1", "e1"): "e1", ("e1", "e2"): "e1", ("e2", "e2"): "e2"},
        spec.inverses,
    )
    with pytest.raises(InvalidGroupoid) as err:
        groupoid_algebra(broken)
    assert "e1" in str(err.value)


def test_bicharacter_trivial_on_kz2():
    H = cyclic_group_algebra(2)
    wc = bicharacter_cocycle(H, [1], [[1, 1], [1, 1]])
    assert wc.f == {(0, 0): 1}


def test_bicharacter_sign_on_kz2(kz2):
    # F = 1 (x) 1 - 2 e- (x) e- has halves on every group pair
    from fractions import Fraction

    f = kz2.cocycle.f
    half = Fraction(1, 2)
    assert f == {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half}
    assert check_weak_cocycle(kz2.algebra, kz2.cocycle).passed


def test_bicharacter_rejects_non_multiplicative(kd4):
    H = kd4.algebra
    names = list(H.basis_names)
    gens = [names.index("s"), names.index("r2s")]
    beta = [[1, 1, 1, 1], [1, -1, 1, 1], [1, 1, 1, 1], [1, 1, 1, -1]]
    with pytest.raises(NotABicharacter):
        bicharacter_cocycle(H, gens, beta)


def test_bicharacter_rejects_non_involution(kd4):
    H = kd4.algebra
    names = list(H.basis_names)
    beta = [[1, 1], [1, -1]]
    with pytest.raises(NotABicharacter):
        bicharacter_cocycle(H, [names.index("r")], beta)


@pytest.mark.parametrize("generators, beta", [
    ([1], [[1, 1], [1, -1.9]]),     # a float read as -1
    ([1], [[1, 1], [1, 1.5]]),      # a float read as 1
    ([1], [[True, 1], [1, -1]]),    # a bool
    ([1], [[1, 1, -1], [1, -1]]),   # a ragged row with an extra entry
    ([1], [[1, 1], [1, -1], [1, 1]]),  # an extra row
    ([2], [[1, 1], [1, -1]]),       # a generator index past the basis
    ([-1], [[1, 1], [1, -1]]),      # a negative generator index
])
def test_bicharacter_rejects_a_bad_pairing_or_generator(generators, beta):
    with pytest.raises(NotABicharacter):
        bicharacter_cocycle(cyclic_group_algebra(2), generators, beta)


def test_bicharacter_accepts_fraction_signs():
    from fractions import Fraction

    H = cyclic_group_algebra(2)
    signs = [[Fraction(1), 1], [1, Fraction(-1)]]
    assert bicharacter_cocycle(H, [1], signs) == bicharacter_cocycle(H, [1], [[1, 1], [1, -1]])


def test_direct_sum_target_dimension(diag2, kz2):
    H = direct_sum(diag2.algebra, kz2.algebra)
    assert H.dim == 4
    assert target_subalgebra(H).dim == 3
    assert check_weak_bialgebra(H).passed
    assert check_quantum_groupoid(H).passed


def test_direct_sum_block_structures(diag2, kz2):
    A, B = diag2.algebra, kz2.algebra
    H = direct_sum(A, B)
    qt = direct_sum_qt(H, A, B, diag2.qt, kz2.qt)
    assert check_quasitriangular(H, qt).passed
    wc = direct_sum_cocycle(H, A, B, diag2.cocycle, kz2.cocycle)
    assert check_weak_cocycle(H, wc).passed
    # blockwise cocommutativity
    assert H.is_cocommutative == (A.is_cocommutative and B.is_cocommutative)


def _block_sum(x, y):
    """The block-diagonal matrix with blocks x and y."""
    def entries(m, r0, c0):
        return [(r0 + r, c0 + c, v) for r, row in enumerate(m.sparse_rows) for c, v in row.items()]

    return Matrix.from_entries(x.rows + y.rows, x.cols + y.cols,
                               entries(x, 0, 0) + entries(y, x.rows, x.cols))


def _pair_block_sum(x, y, pairs_on_rows):
    """The block sum of x on A's carrier (dim ma) and y on B's (dim mb),
    where the rows (pairs_on_rows) or the columns of each are its carrier^2
    in plain coordinates: pair (i, j) of a block goes to (o + i) m + (o + j)
    of the sum, o the block's offset and m = ma + mb, so the cross blocks
    A (x) B and B (x) A are zero."""
    ma, mb = (min(z.rows, z.cols) for z in (x, y))
    m = ma + mb

    def entries(z, n, o):
        def pair(p):
            return (o + p // n) * m + o + p % n

        return [(pair(r), o + c, v) if pairs_on_rows else (o + r, pair(c), v)
                for r, row in enumerate(z.sparse_rows) for c, v in row.items()]

    shape = (m * m, m) if pairs_on_rows else (m, m * m)
    return Matrix.from_entries(*shape, entries(x, ma, 0) + entries(y, mb, ma))


@pytest.mark.parametrize("a, b", [("kd4", "diag2"), ("diag2", "kz2"), ("pair2", "kz2")])
def test_direct_sum_is_the_block_sum(a, b):
    # oracle: every part of A (+) B, of its transmutation by the canonical R
    # and of its quantization by the block cocycle, is A's next to B's, with
    # B's indices shifted by dim A
    fa, fb = fixture(a), fixture(b)
    A, B = fa.algebra, fb.algebra
    na = A.dim
    H = direct_sum(A, B)
    assert H.mul_rows == {**A.mul_rows, **{
        (na + i, na + j): {na + k: c for k, c in row.items()}
        for (i, j), row in B.mul_rows.items()}}
    assert H.comul_cols == {**A.comul_cols, **{
        na + i: {(na + j, na + k): c for (j, k), c in col.items()}
        for i, col in B.comul_cols.items()}}

    wc = direct_sum_cocycle(H, A, B, fa.cocycle, fb.cocycle)
    for pa, pb, p in ([transmute(X, canonical_r(X)) for X in (A, B, H)],
                      [quantize(A, fa.cocycle), quantize(B, fb.cocycle), quantize(H, wc)]):
        ma, mb = pa.carrier.dim, pb.carrier.dim
        assert (p.carrier.dim, p.ht.dim) == (ma + mb, pa.ht.dim + pb.ht.dim)
        for name in ("antipode", "counit", "unit"):
            assert getattr(p, name) == _block_sum(getattr(pa, name), getattr(pb, name)), name
        assert p.mul == _pair_block_sum(pa.mul, pb.mul, False)
        assert p.comul == _pair_block_sum(pa.comul, pb.comul, True)
        for i in range(na):
            zero = Matrix.from_entries(mb, mb, ())
            assert p.action.mats[i] == _block_sum(pa.action.mats[i], zero)
        for i in range(B.dim):
            zero = Matrix.from_entries(ma, ma, ())
            assert p.action.mats[na + i] == _block_sum(zero, pb.action.mats[i])


def test_direct_sum_weakness(kd4_diag2):
    # Delta(1) has three terms, so the coproduct of 1 is not 1 (x) 1
    H = kd4_diag2.algebra
    assert len(H.delta_one) == 3
    assert H.delta_one != {(0, 0): 1}


def test_fixture_registry(corpus):
    assert len(fixture_names()) >= 5
    for fx in corpus:
        assert check_weak_bialgebra(fx.algebra).passed
        assert check_quantum_groupoid(fx.algebra).passed
        assert check_quasitriangular(fx.algebra, fx.qt).passed
        assert check_weak_cocycle(fx.algebra, fx.cocycle).passed
        assert fx.qt.r == canonical_r(fx.algebra).r


def test_groupoid_algebras_are_cocommutative():
    for spec in (
        GroupoidSpec.identity_groupoid(3),
        GroupoidSpec.pair_groupoid(2),
    ):
        H = groupoid_algebra(spec)
        assert H.is_cocommutative
        qt = canonical_r(H)
        assert check_quasitriangular(H, qt).passed


def test_dimension_one_boundary():
    # the trivial group algebra is the smallest quantum groupoid
    H = cyclic_group_algebra(1)
    assert H.dim == 1
    assert check_weak_bialgebra(H).passed
    assert check_quantum_groupoid(H).passed
    qt = canonical_r(H)
    assert check_quasitriangular(H, qt).passed
    wc = trivial_cocycle(H)
    assert check_weak_cocycle(H, wc).passed


def test_dihedral_table():
    H = dihedral_group_algebra(4)
    names = H.basis_names
    r = names.index("r")
    s = names.index("s")
    rs = names.index("rs")
    r3s = names.index("r3s")
    # r s = rs, s r = r^-1 s = r3s
    assert H.mul[r][s][rs] == 1
    assert H.mul[s][r][r3s] == 1


def test_klein_four_bicharacter_has_quarters():
    # full pairing on Z2 x Z2: the cocycle coefficients live in quarters
    names = ["e", "a", "b", "ab"]
    bits = {"e": 0, "a": 1, "b": 2, "ab": 3}
    inv = {v: k for k, v in bits.items()}
    table = {
        (x, y): inv[bits[x] ^ bits[y]] for x in names for y in names
    }
    H = groupoid_algebra(GroupoidSpec.from_group(names, table))
    beta = [
        [(-1) ** bin(v & w).count("1") for w in range(4)] for v in range(4)
    ]
    wc = bicharacter_cocycle(H, [1, 2], beta)
    from fractions import Fraction

    quarters = {Fraction(0), Fraction(1, 4), Fraction(-1, 4)}
    assert set(wc.f.values()) <= quarters
    assert check_weak_cocycle(H, wc).passed
