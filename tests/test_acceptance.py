"""Acceptance suite: one test per criterion, all equalities exact.

Each test prints a single pass line on success (run with -s to see them);
a failure anywhere fails the build.
"""

import json

import dense_oracle as dense
from dense_oracle import basis_vector

from weakhopf import (
    BraidContext,
    check_conjugator_coproduct,
    derived_r_identities,
    drinfeld_identities,
    quantize,
    regular_module,
    solve_antipode,
    transmute,
    truncated_tensor,
    twist,
    verify_braided_hopf,
    verify_isomorphism,
)
from weakhopf.cli import run
from weakhopf.linalg import Q0, Q1
from weakhopf.serialization import (
    serialize_cocycle,
    serialize_presentation,
    serialize_qt,
    serialize_quantum_groupoid,
)
from weakhopf.zoo import fixture, fixture_names, trivial_cocycle


def _grouplike_column(m, i):
    expect = [Q0] * (m * m)
    expect[i * m + i] = Q1
    return tuple(expect)


def test_criterion_1_diagonal_fixture_reproduction(capsys, tmp_path):
    fx = fixture("diag2")
    out = tmp_path / "fx"
    assert run(["zoo", "diag2", "--out-dir", str(out),
                "--out", str(tmp_path / "emit.log")]) == 0
    rc = run([
        "check",
        str(out / "diag2.qg"), str(out / "diag2.qt"), str(out / "diag2.coc"),
        "--format", "structured", "--out", str(out / "report.json"),
    ])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    assert all(c["passed"] for c in payload["checks"])

    p = transmute(fx.algebra, fx.qt)
    for i in range(2):
        assert p.comul.column(i) == _grouplike_column(2, i)
        assert p.counit.column(i) == basis_vector(fx.algebra, i)
    assert p.antipode.is_identity()
    with capsys.disabled():
        print("[PASS] criterion 1: diagonal fixture checks and transmutation table")


def test_criterion_2_quantized_diagonal_table(capsys):
    fx = fixture("diag2")
    H = fx.algebra
    p = quantize(H, fx.cocycle)
    # e_i ._F e_j = delta_ij e_i
    assert p.mul == H.mul_map
    for i in range(2):
        assert p.comul.column(i) == _grouplike_column(2, i)
        assert p.counit.column(i) == basis_vector(H, i)
        assert p.unit.column(i) == basis_vector(H, i)
    assert p.antipode.is_identity()
    with capsys.disabled():
        print("[PASS] criterion 2: quantized diagonal fixture table")


def test_criterion_3_twist_of_diagonal_fixture(capsys):
    fx = fixture("diag2")
    H = fx.algebra
    pair = twist(H, fx.qt, fx.cocycle)
    twisted = pair.algebra
    assert twisted.mul == H.mul
    assert twisted.unit == H.unit
    assert twisted.comul == H.comul
    assert twisted.counit == H.counit
    assert twisted.antipode == H.antipode
    assert pair.qt.r == fx.qt.r and pair.qt.rinv == fx.qt.rinv
    res = verify_isomorphism(H, fx.qt, fx.cocycle)
    left = serialize_presentation(res.quantized)
    right = serialize_presentation(res.twisted_transmuted)
    assert left == right
    with capsys.disabled():
        print("[PASS] criterion 3: twisted diagonal fixture equals the original, presentations byte-identical")


def test_criterion_4_dihedral_isomorphism(capsys):
    fx = fixture("kd4")
    H = fx.algebra
    one_one = {(0, 0): Q1}
    assert fx.qt.r == one_one  # canonical structure is 1 (x) 1 here
    res = verify_isomorphism(H, fx.qt, fx.cocycle)
    names = [c.name for c in res.report.checks]
    for expected in (
        "module-map", "algebra-map", "unit-map", "coalgebra-map",
        "counit-map", "antipode-map", "bijectivity",
    ):
        assert expected in names
        assert res.report[expected].passed
    assert res.report.passed
    # the twisted structure is F21^-1 F and differs from 1 (x) 1
    f, finv = (dense.dense2(H, x2) for x2 in (fx.cocycle.f, fx.cocycle.finv))
    assert dense.dense2(H, res.pair.qt.r) == dense.mul2(H, dense.swap2(H, finv), f)
    assert res.pair.qt.r != one_one
    rc = run(["verify-iso", "--algebra", "zoo:kd4", "--cocycle", "zoo:kd4",
              "--format", "structured", "--out", "/dev/null"])
    assert rc == 0
    with capsys.disabled():
        print("[PASS] criterion 4: dihedral twist isomorphism, all seven checks, twisted structure nontrivial")


def test_criterion_5_genuinely_weak_instance(capsys):
    fx = fixture("kd4_diag2")
    p = quantize(fx.algebra, fx.cocycle)
    ctx = BraidContext.phi(fx.algebra, fx.cocycle)
    rep = verify_braided_hopf(p, ctx)
    assert rep.passed, [c.name for c in rep.failed_checks()]
    rc = run(["verify-iso", "--algebra", "zoo:kd4_diag2",
              "--cocycle", "zoo:kd4_diag2", "--out", "/dev/null"])
    assert rc == 0
    with capsys.disabled():
        print("[PASS] criterion 5: block-sum instance quantizes and verifies end to end")


def test_criterion_6_antipode_solver_oracle(capsys):
    names = fixture_names()
    assert len(names) >= 5
    for name in names:
        fx = fixture(name)
        B = dense.bialgebra(
            fx.algebra.basis_names, fx.algebra.mul, fx.algebra.unit,
            fx.algebra.comul, fx.algebra.counit,
        )
        assert solve_antipode(B) == fx.algebra.antipode, name
    with capsys.disabled():
        print("[PASS] criterion 6: antipode solver recovers the stored antipode on %d fixtures" % len(names))


def test_criterion_7_degeneration_suite(capsys):
    fx = fixture("kd4")
    H = fx.algebra
    wc = trivial_cocycle(H)  # F = Delta(1) = 1 (x) 1 on this algebra
    assert wc.f == {(0, 0): Q1}
    p = transmute(H, fx.qt)
    assert p.mul == H.mul_map
    assert p.comul == H.comul_map
    assert p.antipode == H.antipode
    assert p.unit.column(0) == H.unit
    assert p.counit.data == [list(H.counit)]
    q = quantize(H, wc)
    assert q.mul == H.mul_map
    assert q.comul == H.comul_map
    assert q.antipode == H.antipode
    assert q.unit.column(0) == H.unit
    assert q.counit.data == [list(H.counit)]
    with capsys.disabled():
        print("[PASS] criterion 7: trivial twist data degenerates to the undeformed structures")


def test_criterion_8_property_suites(capsys):
    for name in fixture_names():
        fx = fixture(name)
        H, qt, wc = fx.algebra, fx.qt, fx.cocycle
        assert H.eps_t_mat * H.eps_t_mat == H.eps_t_mat, name
        assert H.eps_s_mat * H.eps_s_mat == H.eps_s_mat, name
        M = regular_module(H)
        plain, twisted = BraidContext.psi(H, qt), BraidContext.phi(H, wc)
        tt = truncated_tensor(M, M, plain)
        assert tt.projector * tt.projector == tt.projector, name
        tw = truncated_tensor(M, M, twisted)
        assert tw.projector * tw.projector == tw.projector, name
        psi, psi_inv = plain.braiding(M, M)
        assert (psi * psi_inv).is_identity() and (psi_inv * psi).is_identity(), name
        for h in range(H.dim):
            assert psi * tt.module.mats[h] == tt.module.mats[h] * psi, name
        phi, phi_inv = twisted.braiding(M, M)
        assert (phi * phi_inv).is_identity() and (phi_inv * phi).is_identity(), name
        for h in range(H.dim):
            assert phi * tw.module.mats[h] == tw.module.mats[h] * phi, name
        assert derived_r_identities(H, qt).passed, name
        assert check_conjugator_coproduct(H, wc).passed, name
        assert drinfeld_identities(H, qt).passed, name
    with capsys.disabled():
        print("[PASS] criterion 8: property suites hold on every fixture")


def _mutate(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_criterion_9_mutation_sensitivity(capsys, tmp_path):
    fx = fixture("diag2")
    H = fx.algebra
    qg = serialize_quantum_groupoid(H)
    qt = serialize_qt(H, fx.qt)
    coc = serialize_cocycle(H, fx.cocycle)
    qg_lines = qg.splitlines()

    cases = []
    # algebra axioms: perturb one multiplication structure constant
    bad = list(qg_lines)
    assert bad[4] == "1 0"  # e1 * e1
    bad[4] = "2 0"
    cases.append(("algebra", "\n".join(bad) + "\n", qt, coc,
                  {"unit-law", "associativity", "comultiplicativity"}))
    # coalgebra axioms: zero the counit
    cases.append(("coalgebra", _mutate(qg, "counit: 1 1", "counit: 0 0"), qt, coc,
                  {"counit-axiom", "weak-counit-axiom"}))
    # weak-unit axiom: make the coproduct of e1 non-grouplike
    cases.append(("weak-unit", _mutate(qg, "1 0 0 0\n0 0 0 1", "0 1 0 0\n0 0 0 1"),
                  qt, coc, {"counit-axiom", "weak-unit-axiom", "coassociativity"}))
    # antipode axioms: swap the antipode columns
    cases.append(("antipode", _mutate(qg, "antipode:\n1 0\n0 1", "antipode:\n0 1\n1 0"),
                  qt, coc,
                  {"antipode-left-convolution", "antipode-right-convolution"}))
    # quasitriangular axioms: corrupt R
    cases.append(("quasitriangular", qg, _mutate(qt, "r: 1 0 0 1", "r: 0 1 0 0"),
                  coc, {"r-sandwich", "r-invertibility-left", "intertwiner",
                        "coproduct-first-leg", "coproduct-second-leg",
                        "r-invertibility-right", "rinv-sandwich"}))
    # cocycle axioms: corrupt F
    cases.append(("cocycle", qg, qt, _mutate(coc, "f: 1 0 0 1", "f: 1 1 0 1"),
                  {"f-sandwich", "f-invertibility-left", "f-invertibility-right",
                   "cocycle-equation", "finv-sandwich"}))

    for label, qg_text, qt_text, coc_text, expected_any in cases:
        d = tmp_path / label
        d.mkdir()
        (d / "a.qg").write_text(qg_text)
        (d / "a.qt").write_text(qt_text)
        (d / "a.coc").write_text(coc_text)
        out = d / "report.json"
        rc = run(["check", str(d / "a.qg"), str(d / "a.qt"), str(d / "a.coc"),
                  "--format", "structured", "--out", str(out)])
        assert rc == 1, label
        payload = json.loads(out.read_text())
        failing = [c for c in payload["checks"] if not c["passed"]]
        assert failing, label
        assert any(c["name"] in expected_any for c in failing), (
            label, [c["name"] for c in failing])
        assert any("witness" in c for c in failing), label
    with capsys.disabled():
        print("[PASS] criterion 9: every corrupted axiom group is caught with a named witness")
