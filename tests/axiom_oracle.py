"""Per-tuple reference checkers for the differential tests of the axiom suites.

These are the checkers ``weakhopf.algebra``, ``weakhopf.modules`` and
``weakhopf.transmute`` ran before their axioms were decided as matrix
identities, and the quasitriangular suite of ``weakhopf.structures`` before
its intertwiner was decided on a generating set: every axiom is compared
one basis tuple at a time with dense coefficient vectors, and the first
failing tuple is the witness.  The
braided-Hopf verifier here evaluates carrier associativity, both counit laws
and the braided bialgebra compatibility that way.  Nothing in the package
calls them; the tests compare their reports with the package's, byte for
byte.
"""

from __future__ import annotations

from dense_oracle import (
    basis_vector,
    comul_of,
    embed,
    counit_of,
    dense2,
    dense_of_sparse,
    mul2,
    mul_elem,
    outer,
    s_inv_of,
    s_of,
    sparse_mul,
    sparse_of_dense,
    swap2,
    vector_lincomb,
)
from weakhopf.algebra import convolve, sparse_coproduct_leg, sparse_embed
from weakhopf.linalg import Matrix, Q0, Q1, kron
from weakhopf.modules import ht_module, truncated_tensor, unitors
from weakhopf.report import VerificationReport, Witness, comparison


def eps_map(B, leg, left) -> Matrix:
    """h -> eps(x h) y (left) or eps(h x) y (right) over the terms of
    Delta(1) with x on the given leg, one counit per (term, basis element)."""
    n = B.dim
    entries = []
    for pair, c in B.delta_one.items():
        x, y = pair[leg], pair[1 - leg]
        for i in range(n):
            s = counit_of(B, B.mul[x][i] if left else B.mul[i][x])
            if s:
                entries.append((y, i, c * s))
    return Matrix.from_entries(n, n, entries)


def check_weak_bialgebra(B) -> VerificationReport:
    """All five weak-bialgebra axiom groups, on basis tuples."""
    rep = VerificationReport("weak-bialgebra")
    n = B.dim

    def assoc_pairs():
        for i in range(n):
            for j in range(n):
                ij = B.mul[i][j]
                for k in range(n):
                    lhs = mul_elem(B, ij, basis_vector(B, k))
                    rhs = mul_elem(B, basis_vector(B, i), B.mul[j][k])
                    yield (i, j, k), lhs, rhs

    comparison(rep, "associativity", assoc_pairs())

    def unit_pairs():
        for i in range(n):
            e = basis_vector(B, i)
            yield (i,), mul_elem(B, B.unit, e), e
            yield (i,), mul_elem(B, e, B.unit), e

    comparison(rep, "unit-law", unit_pairs())

    def coassoc_pairs():
        cols = B.comul_cols
        for i in range(n):
            lhs = sparse_coproduct_leg(cols[i], 0, cols)
            rhs = sparse_coproduct_leg(cols[i], 1, cols)
            yield (i,), dense_of_sparse(lhs, n, 3), dense_of_sparse(rhs, n, 3)

    comparison(rep, "coassociativity", coassoc_pairs())

    def counit_pairs():
        for i in range(n):
            e = basis_vector(B, i)
            left = [Q0] * n
            right = [Q0] * n
            for (a, b), c in B.comul_cols[i].items():
                left[b] += c * B.counit[a]
                right[a] += c * B.counit[b]
            yield (i,), tuple(left), e
            yield (i,), tuple(right), e

    comparison(rep, "counit-axiom", counit_pairs())

    def comult_pairs():
        for i in range(n):
            for j in range(n):
                lhs = comul_of(B, B.mul[i][j])
                rhs = mul2(B, B.comul_map.column(i), B.comul_map.column(j))
                yield (i, j), lhs, rhs

    comparison(rep, "comultiplicativity", comult_pairs())

    d1 = B.delta_one
    d2 = sparse_coproduct_leg(d1, 0, B.comul_cols)
    left3 = sparse_embed(d1, 3, (0, 1), B.unit_sparse)
    right3 = sparse_embed(d1, 3, (1, 2), B.unit_sparse)
    prod_a = sparse_mul(B, left3, right3, 3)
    prod_b = sparse_mul(B, right3, left3, 3)
    ok_a = d2 == prod_a
    ok_b = d2 == prod_b
    wit = None
    if not (ok_a and ok_b):
        bad = prod_a if not ok_a else prod_b
        wit = Witness(
            (),
            dense_of_sparse(d2, n, 3),
            dense_of_sparse(bad, n, 3),
            "Delta^2(1) vs ordered products of Delta(1)",
        )
    rep.add("weak-unit-axiom", ok_a and ok_b, wit)

    def weak_counit_pairs():
        for g in range(n):
            col = B.comul_cols[g]
            for h in range(n):
                for l in range(n):
                    hg = B.mul[h][g]
                    full = counit_of(B, mul_elem(B, hg, basis_vector(B, l)))
                    split1 = Q0
                    split2 = Q0
                    for (a, b), c in col.items():
                        e_ha = counit_of(B, B.mul[h][a])
                        e_bl = counit_of(B, B.mul[b][l])
                        e_hb = counit_of(B, B.mul[h][b])
                        e_al = counit_of(B, B.mul[a][l])
                        split1 += c * e_ha * e_bl
                        split2 += c * e_hb * e_al
                    yield (h, g, l), (full, full), (split1, split2)

    comparison(rep, "weak-counit-axiom", weak_counit_pairs())
    return rep


def check_quantum_groupoid(H) -> VerificationReport:
    """Antipode axioms: convolution identities and (anti)morphism laws."""
    rep = VerificationReport("quantum-groupoid")
    B = H
    n = B.dim
    S = H.antipode
    ident = Matrix.identity(n)

    lhs = convolve(B, S, ident)
    comparison(
        rep,
        "antipode-left-convolution",
        (((i,), lhs.column(i), B.eps_s_mat.column(i)) for i in range(n)),
        "S * id vs eps_s",
    )
    lhs = convolve(B, ident, S)
    comparison(
        rep,
        "antipode-right-convolution",
        (((i,), lhs.column(i), B.eps_t_mat.column(i)) for i in range(n)),
        "id * S vs eps_t",
    )
    lhs = convolve(B, S, convolve(B, ident, S))
    comparison(
        rep,
        "antipode-convolution-identity",
        (((i,), lhs.column(i), S.column(i)) for i in range(n)),
        "S * id * S vs S",
    )

    def antimul_pairs():
        yield (), s_of(H, B.unit), B.unit
        for i in range(n):
            for j in range(n):
                yield (i, j), s_of(H, B.mul[i][j]), mul_elem(B, 
                    S.column(j), S.column(i)
                )

    comparison(rep, "antipode-anti-multiplicative", antimul_pairs())

    def anticomul_pairs():
        for i in range(n):
            yield (i,), (counit_of(B, S.column(i)),), (B.counit[i],)
            lhs = comul_of(B, S.column(i))
            rhs = [Q0] * (n * n)
            for (a, b), c in B.comul_cols[i].items():
                outer(S.column(b), S.column(a), c, rhs)
            yield (i,), lhs, tuple(rhs)

    comparison(rep, "antipode-anti-comultiplicative", anticomul_pairs())

    both = S * H.antipode_inv
    rep.add(
        "antipode-invertible",
        both.is_identity() and (H.antipode_inv * S).is_identity(),
    )
    return rep


def check_quasitriangular(H, qt) -> VerificationReport:
    """The quasitriangular suite over dense 2- and 3-tensors, with the
    intertwiner compared on every basis element."""
    rep = VerificationReport("quasitriangular")
    n = H.dim
    r, rinv, d1 = (dense2(H, x2) for x2 in (qt.r, qt.rinv, H.delta_one))
    d1c = swap2(H, d1)

    def mul(*factors):
        out = factors[0]
        for x in factors[1:]:
            out = mul2(H, out, x)
        return out

    for name, lhs, rhs, detail in (
        ("r-sandwich", mul(d1c, r, d1), r, "Delta_cop(1) R Delta(1) vs R"),
        ("rinv-sandwich", mul(d1, rinv, d1c), rinv, "Delta(1) R^-1 Delta_cop(1) vs R^-1"),
        ("r-invertibility-left", mul(r, rinv), d1c, "R R^-1 vs Delta_cop(1)"),
        ("r-invertibility-right", mul(rinv, r), d1, "R^-1 R vs Delta(1)"),
    ):
        comparison(rep, name, [((), lhs, rhs)], detail)

    rs = qt.r
    r13 = embed(rs, 3, (0, 2), H.unit_sparse)
    for name, leg, other, detail in (
        ("coproduct-second-leg", 1, (0, 1), "(id (x) Delta)R vs R13 R12"),
        ("coproduct-first-leg", 0, (1, 2), "(Delta (x) id)R vs R13 R23"),
    ):
        lhs = sparse_coproduct_leg(rs, leg, H.comul_cols)
        rhs = sparse_mul(H, r13, embed(rs, 3, other, H.unit_sparse), 3)
        comparison(rep, name, [((), dense_of_sparse(lhs, n, 3), dense_of_sparse(rhs, n, 3))],
                   detail)

    def intertwiner_pairs():
        for h in range(n):
            dh = comul_of(H, basis_vector(H, h))
            yield (h,), mul(swap2(H, dh), r), mul(r, dh)

    comparison(rep, "intertwiner", intertwiner_pairs(), "Delta_cop(h) R vs R Delta(h)")
    return rep


def module_first_failures(M):
    """(mult, unit): the first (i, j, v) with (e_i e_j) . v != e_i . (e_j . v)
    and the first v with 1 . v != v, each None when its axiom holds."""
    H = M.algebra
    cols = [mat.transpose().sparse_rows for mat in M.mats]

    def first_mult():
        for i in range(H.dim):
            ci = cols[i]
            for j in range(H.dim):
                cj = cols[j]
                row = H.mul_rows.get((i, j), {})
                for v in range(M.dim):
                    lhs = {}
                    for k, c in row.items():
                        for r, val in cols[k][v].items():
                            lhs[r] = lhs.get(r, Q0) + c * val
                    rhs = {}
                    for s, cs in cj[v].items():
                        for r, val in ci[s].items():
                            rhs[r] = rhs.get(r, Q0) + cs * val
                    lhs = {r: c for r, c in lhs.items() if c}
                    rhs = {r: c for r, c in rhs.items() if c}
                    if lhs != rhs:
                        return i, j, v
        return None

    def first_unit():
        for v in range(M.dim):
            acc = {}
            for i, c in enumerate(H.unit):
                if c:
                    for r, val in cols[i][v].items():
                        acc[r] = acc.get(r, Q0) + c * val
            if {r: c for r, c in acc.items() if c} != {v: Q1}:
                return v
        return None

    return first_mult(), first_unit()


def check_module(M) -> VerificationReport:
    """Both module axioms, with the dense columns at the first failing tuple."""
    rep = VerificationReport("module")
    H = M.algebra
    mult, unit = module_first_failures(M)
    pairs = []
    if mult is not None:
        i, j, v = mult
        lhs = M.act_element(H.mul[i][j]).column(v)
        pairs.append((mult, lhs, M.mats[i].apply(M.mats[j].column(v))))
    comparison(rep, "action-multiplicative", pairs)
    pairs = []
    if unit is not None:
        ident = Matrix.identity(M.dim).column(unit)
        pairs.append(((unit,), M.act_element(H.unit).column(unit), ident))
    comparison(rep, "unit-acts-as-identity", pairs)
    return rep


def verify_braided_hopf(p, ctx) -> VerificationReport:
    """Every axiom of a Hopf algebra internal to the braided category, with
    associativity, the counit laws and the bialgebra compatibility evaluated
    one basis tuple or tensor-square basis vector at a time."""
    rep = VerificationReport("braided-hopf")
    H = ctx.algebra
    m = p.carrier_dim
    cmod = p.action
    t2 = truncated_tensor(cmod, cmod, ctx)
    square_actions = [ctx.action(cmod, cmod, ctx.coproduct[0][h]) for h in range(H.dim)]

    comparison(rep, "product-factors-through-tensor", [((), p.mul * t2.projector, p.mul)])
    comparison(rep, "coproduct-lands-in-tensor", [((), t2.projector * p.comul, p.comul)])

    _, htmod = ht_module(H)
    mul_inc = p.mul * t2.inclusion
    for name, x, src, dst in (
        ("product", mul_inc, t2.module.mats, cmod.mats),
        ("unit", p.unit, htmod.mats, cmod.mats),
        ("coproduct", p.comul, cmod.mats, square_actions),
        ("counit", p.counit, cmod.mats, htmod.mats),
        ("antipode", p.antipode, cmod.mats, cmod.mats),
    ):
        comparison(rep, name + "-module-morphism",
                   (((h,), x * src[h], dst[h] * x) for h in range(H.dim)))

    # associativity on the columns of the triple unit-coproduct projector
    mul_cols = p.mul.transpose().sparse_rows
    act_cols = [a.transpose().sparse_rows for a in cmod.mats]
    columns = ctx.coproduct[0]
    w3 = sparse_coproduct_leg(
        sparse_coproduct_leg(H.unit_sparse, 0, columns), 0, columns)

    def triple_column(i, j, k):
        col = {}
        for (a, b, c), w in w3.items():
            va = act_cols[a][i]
            vb = act_cols[b][j]
            vc = act_cols[c][k]
            for pp, cp in va.items():
                for qq, cq in vb.items():
                    w2 = w * cp * cq
                    for rr, cr in vc.items():
                        key = (pp, qq, rr)
                        col[key] = col.get(key, Q0) + w2 * cr
        return {kk: v for kk, v in col.items() if v}

    def eval_two_steps(col, first_pair):
        out = [Q0] * m
        for (pp, qq, rr), c in col.items():
            if first_pair == "left":
                for s, cs in mul_cols[pp * m + qq].items():
                    for t, ct in mul_cols[s * m + rr].items():
                        out[t] += c * cs * ct
            else:
                for s, cs in mul_cols[qq * m + rr].items():
                    for t, ct in mul_cols[pp * m + s].items():
                        out[t] += c * cs * ct
        return tuple(out)

    def assoc_pairs():
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    col = triple_column(i, j, k)
                    yield (i, j, k), eval_two_steps(col, "left"), eval_two_steps(
                        col, "right"
                    )

    comparison(rep, "associativity", assoc_pairs())

    l_mat, r_mat, t_l, t_r = unitors(cmod, ctx)
    ident = Matrix.identity(m)
    comparison(rep, "unit-law-left",
               [((), p.mul * kron(p.unit, ident) * t_l.inclusion, l_mat)])
    comparison(rep, "unit-law-right",
               [((), p.mul * kron(ident, p.unit) * t_r.inclusion, r_mat)])

    comparison(rep, "coassociativity",
               [((), kron(p.comul, ident) * p.comul, kron(ident, p.comul) * p.comul)])

    eps_emb = p.ht.embedding() * p.counit
    comul_cols = [sparse_of_dense(p.comul.column(k), m, 2) for k in range(m)]

    def counit_law_pairs(leg, acting):
        # eps acts from the given leg of Delta(k) on the other leg
        for k in range(m):
            out = vector_lincomb(
                ((c, cmod.act_element(acting(eps_emb.column(pair[leg])))
                  .column(pair[1 - leg]))
                 for pair, c in comul_cols[k].items()),
                m,
            )
            yield (k,), out, tuple(Q1 if r == k else Q0 for r in range(m))

    comparison(rep, "counit-law-left", counit_law_pairs(0, lambda z: z))
    comparison(rep, "counit-law-right", counit_law_pairs(1, lambda z: s_inv_of(H, z)))

    braid_cols = ctx.braiding_plain(cmod, cmod).transpose().sparse_rows

    def compat_pairs():
        for bidx in range(t2.dim):
            w = t2.inclusion.column(bidx)
            lhs = p.comul.apply(p.mul.apply(w))
            x3 = sparse_coproduct_leg(sparse_of_dense(w, m, 2), 1, comul_cols)
            x4 = sparse_coproduct_leg(x3, 0, comul_cols)
            rhs = [Q0] * (m * m)
            for (pp, qq, rr, ss), c in x4.items():
                for fb, cb in braid_cols[qq * m + rr].items():
                    q2, r2 = divmod(fb, m)
                    cc = c * cb
                    for a, ca in mul_cols[pp * m + q2].items():
                        for b, cb2 in mul_cols[r2 * m + ss].items():
                            rhs[a * m + b] += cc * ca * cb2
            yield (bidx,), lhs, tuple(rhs)

    comparison(rep, "bialgebra-compatibility", compat_pairs())

    comparison(rep, "counit-multiplicative",
               [((), eps_emb * p.mul * t2.inclusion,
                 H.mul_map * kron(eps_emb, eps_emb) * t2.inclusion)])

    onec = p.unit_element_coords()
    comparison(rep, "unit-grouplike",
               [((), p.comul.apply(onec), t2.projector.apply(outer(onec, onec)))])

    eta_eps = p.unit * p.counit
    comparison(rep, "antipode-left",
               [((), p.mul * kron(p.antipode, ident) * p.comul, eta_eps)])
    comparison(rep, "antipode-right",
               [((), p.mul * kron(ident, p.antipode) * p.comul, eta_eps)])
    return rep
