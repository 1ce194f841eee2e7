"""Differential tests: `algebra.sparse_mul`, the product of sparse elements of
H^(x)k, against the kernel in `dense_oracle` it replaced.

The algebras are the pair groupoid P2 with its basis rescaled, so that the
structure constants are 1 and other rationals while the unit law holds (the
kernel then skips the unit legs of a slotted factor), and algebras with
random structure constants and a random "unit", where the unit law fails
and the kernel has to multiply by the unit after all.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import dense_oracle as dense
from weakhopf.algebra import sparse_mul
from weakhopf.zoo import GroupoidSpec, groupoid_algebra

Q0 = Fraction(0)
COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))
entries = st.one_of(st.just(Q0), st.just(Q0), st.sampled_from(COEFFS))


def _algebra(mul, unit):
    n = len(unit)
    zero3 = [[[Q0] * n for _ in range(n)] for _ in range(n)]
    return dense.bialgebra(["b%d" % i for i in range(n)], mul, unit, zero3, [Q0] * n)


def _rescaled_p2(scale):
    """P2 in the basis scale[i] e_i: e'_i e'_j = sum_k s_i s_j / s_k m_ij^k e'_k."""
    P = groupoid_algebra(GroupoidSpec.pair_groupoid(2))
    n = P.dim
    mul = [[[P.mul[i][j][k] * scale[i] * scale[j] / scale[k] for k in range(n)]
             for j in range(n)] for i in range(n)]
    return _algebra(mul, [P.unit[k] / scale[k] for k in range(n)])


P2_SCALED = _rescaled_p2([Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(3)])


@st.composite
def algebras(draw):
    if draw(st.booleans()):
        return P2_SCALED
    n = draw(st.integers(1, 3))
    mul = [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return _algebra(mul, [draw(entries) for _ in range(n)])


def tensors(n, k):
    return st.dictionaries(
        st.tuples(*[st.integers(0, n - 1)] * k), st.sampled_from(COEFFS), max_size=6
    )


@st.composite
def slot_choices(draw, k):
    """None (a full k-tensor) or 1 to k distinct legs in any order."""
    if draw(st.booleans()):
        return None
    legs = draw(st.permutations(range(k)))
    return tuple(legs[:draw(st.integers(1, k))])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_mul_matches_oracle(data):
    H = data.draw(algebras())
    k = data.draw(st.integers(1, 4))
    slots = data.draw(slot_choices(k))
    x = data.draw(tensors(H.dim, k))
    y = data.draw(tensors(H.dim, k if slots is None else len(slots)))
    got = sparse_mul(H, x, y, k, slots)
    full = y if slots is None else dense.embed(y, k, slots, H.unit_sparse)
    assert got == dense.sparse_mul(H, x, full, k)
    assert all(got.values())  # no stored zeros


def test_unit_law_decides_the_unit_skip():
    assert P2_SCALED.unit_acts_right
    assert not _algebra([[[Fraction(1)]]], [Fraction(2)]).unit_acts_right


def test_cancelling_terms_and_empty_factors_give_the_empty_tensor():
    P = groupoid_algebra(GroupoidSpec.pair_groupoid(2))  # e11, e12, e21, e22
    # (e11 - e12)(e12 + e22) = e12 - e12
    x = {(0,): Fraction(1), (1,): Fraction(-1)}
    y = {(1,): Fraction(1), (3,): Fraction(1)}
    assert sparse_mul(P, x, y, 1) == dense.sparse_mul(P, x, y, 1) == {}
    for k, slots in ((1, None), (3, (2, 0))):
        assert sparse_mul(P, {}, {(0,) * (k if slots is None else 2): Fraction(1)}, k, slots) == {}
        assert sparse_mul(P, {(0,) * k: Fraction(1)}, {}, k, slots) == {}
