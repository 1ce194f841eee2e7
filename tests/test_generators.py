"""Generating sets, and the multiplicative laws decided on them.

`WeakBialgebra.generators` is checked against an independent dense closure
on the fixtures and the size ladder; the work the laws do on a generating
set is pinned by counting matrix and tensor products.
"""

import pytest

import dense_oracle as dense
import weakhopf.algebra as algebra_mod
from weakhopf import QuantumGroupoid, check_quantum_groupoid, check_weak_bialgebra, zoo
from weakhopf.algebra import WeakBialgebra
from weakhopf.linalg import Matrix
from weakhopf.modules import BraidContext, regular_module, truncated_tensor
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
    # n^2 = 81 with every basis pair scanned
    assert len(products) == len(B.generators) * B.dim == 45


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
