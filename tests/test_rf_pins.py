"""Pinned reports of the R/F suites on seeded corruptions of R, R^-1, F, F^-1.

Each case perturbs one entry of one of the four 2-tensors of an instance
(the five fixtures, the dihedral algebra D4 with its Klein sign cocycle and
the pair groupoid P3 with the trivial cocycle) and runs the suites that read
it: the three R suites for R and R^-1, the cocycle suite and the quantization
verifier for F and F^-1.  The SHA-256 of the suites' ``to_dict()`` JSON (or of
the exception a suite raises) is pinned per case, so any change to how the
suites multiply, compare or build witnesses that moves a report byte shows
here.  Many cases fail, so the witnesses are compared, not only the passes.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

import dense_oracle as dense
from weakhopf import zoo
from weakhopf.errors import WeakHopfError
from weakhopf.quantize import quantize, verify_quantization
from weakhopf.structures import (
    QTStructure,
    WeakCocycle,
    canonical_r,
    check_quasitriangular,
    check_weak_cocycle,
    derived_r_identities,
    drinfeld_identities,
)

KLEIN_BETA = [[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, 1, 1], [1, 1, -1, -1]]
TARGETS = ("r", "rinv", "f", "finv")
SEEDS = (1, 2, 3)
AMOUNTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))


def _d4():
    H = zoo.dihedral_group_algebra(4)
    gens = [H.basis_names.index("s"), H.basis_names.index("r2s")]
    return H, canonical_r(H), zoo.bicharacter_cocycle(H, gens, KLEIN_BETA)


def _p3():
    H = zoo.groupoid_algebra(zoo.GroupoidSpec.pair_groupoid(3))
    return H, canonical_r(H), zoo.trivial_cocycle(H)


def _instances():
    out = {}
    for name in zoo.fixture_names():
        fx = zoo.fixture(name)
        out[name] = (fx.algebra, fx.qt, fx.cocycle)
    out["D4"] = _d4()
    out["P3"] = _p3()
    return out


def _perturbed(H, x2, name, target, seed):
    """The 2-tensor x2 with one seeded entry of its dense form moved by a
    seeded nonzero amount."""
    rng = random.Random("%s/%s/%d" % (name, target, seed))
    out = list(dense.dense2(H, x2))
    out[rng.randrange(len(out))] += AMOUNTS[rng.randrange(len(AMOUNTS))]
    return dense.sparse2(H, out)


def _outcome(run):
    try:
        rep = run()
    except WeakHopfError as exc:
        return None, "raise %s: %s" % (type(exc).__name__, exc)
    return rep, json.dumps(rep.to_dict(), sort_keys=True)


def case_reports(H, qt, wc, p, name, target, seed):
    """[(report or None, JSON or exception text)] of the suites reading target."""
    if target in ("r", "rinv"):
        r = _perturbed(H, qt.r, name, target, seed) if target == "r" else qt.r
        rinv = _perturbed(H, qt.rinv, name, target, seed) if target == "rinv" else qt.rinv
        bad = QTStructure(r, rinv)
        suites = (check_quasitriangular, derived_r_identities, drinfeld_identities)
        return [_outcome(lambda s=s: s(H, bad)) for s in suites]
    f = _perturbed(H, wc.f, name, target, seed) if target == "f" else wc.f
    finv = _perturbed(H, wc.finv, name, target, seed) if target == "finv" else wc.finv
    bad = WeakCocycle(f, finv)
    return [_outcome(lambda: check_weak_cocycle(H, bad)),
            _outcome(lambda: verify_quantization(p, bad))]


def _digest(outcomes):
    return hashlib.sha256("\n".join(text for _, text in outcomes).encode()).hexdigest()


PINNED = {
    'diag2/r/1': 'e98cfce7b98dd6f8c908ded2be08b9ccdaf7d421b7237a60fa9aa8c0eaaa8613',
    'diag2/r/2': '8147eed9df6588f3afa2fc3def77d8c4a330bf0512f081ca8f0a1a1f283b6d98',
    'diag2/r/3': '8b97e9313d387a2095242f49a043cb2cc280b0bea2923abb1d14d6616cdb1bca',
    'diag2/rinv/1': '37536ed0615644b071c4b68c23eeae1ea109e7990a5e83d7ae0ba4f8a536ef7f',
    'diag2/rinv/2': 'd6d64f0a549ef2b2dc5add84ebf98133c6ec860d7d0ffee9f13574ccc4ea3135',
    'diag2/rinv/3': '4de00fd8370c11a7485117163db89583328ea27bda03c3fe7494acdcacff495f',
    'diag2/f/1': '475e51d9addc5be8b9349f475e6c06720960c4f712f3ee34e93280ef16ac1f6b',
    'diag2/f/2': '60ccff25964edcd471064a31ca942eb73f168386b554cd000484394ee158733d',
    'diag2/f/3': '46bd561516bec2dd6c468ebb88217899aff457e0fb87ca47566ac567d8047cff',
    'diag2/finv/1': '927bd4aa903d480ad79d1437b26217756c9026394e72f93399f07d6a93276541',
    'diag2/finv/2': 'f394eea0ad1dbeea4aa58d58b8c6d31f9837acce3c0cc24b6214677393fcf69f',
    'diag2/finv/3': '475e51d9addc5be8b9349f475e6c06720960c4f712f3ee34e93280ef16ac1f6b',
    'kz2/r/1': '212902a4baaf953830640d79ebb7bd57860fdbe12d9a8b1b9a13f6db535d0434',
    'kz2/r/2': '9f4d1f8ceed361f33c9666fdc4582bedb84fbe41c7afcf4431dd960cc6c71912',
    'kz2/r/3': '5f6cd2c510c1404b1b8c4b8f339abb5ebb852bc26d3fb7922561fd50dd909557',
    'kz2/rinv/1': '6e5cbdd1965c823124b68c4d58c601b3f1091ca8b4beb231871967a467299d5f',
    'kz2/rinv/2': 'cde27caf83f258c8d2515794797639a5e037496c7ee6766bd390d0e5c283291f',
    'kz2/rinv/3': '471d84ad802e410c1a8a1e94fca48d85ebdb25b1a18024f88faad1c2514bd104',
    'kz2/f/1': '6d395eedd9d4512e1c51f0bab49df1d1b203c2b74bf1bf04a7bfe5d897c4cef5',
    'kz2/f/2': '4ce2dc2d17e302a3b6080046342cf9b85c99aa0fbf6413302d4748cf55b9fd93',
    'kz2/f/3': 'd557ef05400a1a0c6ff3410c8d58f87842824643598e2c1f848f1e74fee1a7f1',
    'kz2/finv/1': '35680076f11f686dd74d8c5d6574d43790ecdf0a9ea103857b59c86a408dc8f8',
    'kz2/finv/2': '8284194e47b1891f75b7d46237ed9a4fc6964c0cd6ce548ba125a6f10849d074',
    'kz2/finv/3': '09151b528232cc8060764fb279ed19081775dd7e4f7cf9da5f9f70dfeae4c455',
    'pair2/r/1': 'eb290f46c6fb8087506bf9b09b44c0c5e76a6a21489933ec4a28bb4d9166bb90',
    'pair2/r/2': 'd46b00555496fbdc0b1ad1e622ab7feb6829dafd6cadcc3544cb6f69d7f0de0d',
    'pair2/r/3': 'e9b0803406af85cf558cde48620853286d42ca7f107281d12aef882914eda074',
    'pair2/rinv/1': '264cb58ec739fc211f63391b7342c65cf0834f790dc44d39efd13bc9f2be6d2a',
    'pair2/rinv/2': '26b789345600f5e7060631c6caecc58feddfdc8bb57985545b6c95568c8dc3b1',
    'pair2/rinv/3': '680836084e8de05bfe829da2dfeee6af5fe2fe9030c4e5f01f699c7597fa2c26',
    'pair2/f/1': 'a84d6b5633f1f403744bc09bc5f7ca00c0d009d5560be40694e81e6b82031f47',
    'pair2/f/2': 'f186822a9b22d5f73519488dac6e8f9e004fe3a1b7e6cdbc6f241841be835bf7',
    'pair2/f/3': '66c068995e64502ed4cc584314695f759547859c2076423eac533259c017c05c',
    'pair2/finv/1': 'aa84afbf9cc1b85d915e7b9bd341d0fcc9fddf868ebde1ecfaab3d36bbd6f36f',
    'pair2/finv/2': 'ea7f447d0ceba49cc6915d8689e46b11efd55a0736f6e89c79b81ca2d336e2f0',
    'pair2/finv/3': 'f45d363567584a4fc67442191115038bca4857586c0611719134bcb0fc4fe98b',
    'kd4/r/1': 'e754043c6867bf270d2903417302402831d9b91eda81011d1e5ce4f78347b59a',
    'kd4/r/2': '018ef05419d8e2a90b96a294cb03190908bca24f09eca260ee33215a164fd1e8',
    'kd4/r/3': 'ee596bed8999e8ba34074cd86c3cf123ff12104931dd78169d80dbf51bd92f2d',
    'kd4/rinv/1': 'e7f282cec9b8de66c530ffd4566317691e134e39657ef95034038948228a73c5',
    'kd4/rinv/2': 'fc43922c44eaa870eee53d21dfcbc814c06e3712583358b5c1be511009ad4c55',
    'kd4/rinv/3': 'deb08a50e6314b58f3b1304817304ffa0238bc9db13c043b23d657fe23357367',
    'kd4/f/1': '1a5ff8f37d338fb1e7483f779c7f974ccf433f8ee6c4e7bf583ddff771fe1272',
    'kd4/f/2': '400ee8d7c711cbd3f01ef9a3f83cba70866ab6a00458250348689a5eaeb923fd',
    'kd4/f/3': 'cbdacca4459151283e50a972d21673c44fe7fb0a0ca3ee80a5566f4abe49f35d',
    'kd4/finv/1': '03f1e12bcb4d1b50772a29af69346faed92c5480b02b233c85e0819a6f54e785',
    'kd4/finv/2': '13703be6ad6051d1feabe76107f23d68c45bf81427c15b5b381a430f52598a6f',
    'kd4/finv/3': 'c1ff12be411cd50770e0dfeff5fbd25f9469522d251cb5c32e7e4783403da184',
    'kd4_diag2/r/1': 'ff25b15a204721cd10f52290a6b4380e9500cab79269615d2edbe439f591813b',
    'kd4_diag2/r/2': 'e95457b92a299c4114871eec50b372dd50ea86ef9fbb311e3c0ac60cd6185dbf',
    'kd4_diag2/r/3': '20ab68b923552390ec167223f6caf4e1ecd4833a1d47eabe33f731b9a958374a',
    'kd4_diag2/rinv/1': '7a7362be561eee47ab446bb0ec0ec15d1bbbbe261987acad00e6c56e9e5c2c16',
    'kd4_diag2/rinv/2': '12ad3626336e667c80d32d666ffc157f9337d66c3ae5505f25dbc259ddedc86b',
    'kd4_diag2/rinv/3': 'c1aebd92d270fef58fc30a61640b16fa29d7b83c76dfb16009284601d993ff1f',
    'kd4_diag2/f/1': '241a61bcc33b6236754da77c5d9fbd74c298ffab7080a6b3ceb3b3654ec2914e',
    'kd4_diag2/f/2': '6589617f68b7a3baba03e4eaea29c2997913c386e8699937f64d32fe232086e4',
    'kd4_diag2/f/3': '9b326e8b8e2a2cf8c2812cb7a9a720caf3957063d62a776181cbadb6795c4ab8',
    'kd4_diag2/finv/1': '199fa2891618880c22c46b137d3aff3975ba14bb12d3277a0aab930fdcf53a11',
    'kd4_diag2/finv/2': 'd525c5656a6c4e50a373e7430e52638fe7062b63752498f88ae4859a3e7234e5',
    'kd4_diag2/finv/3': 'be9929d6096e579b435ed74e475e444ba8515ff06dac103f905323ad9a4793c9',
    'D4/r/1': 'f1e1a1e4f6b397f291d507efdbad5e682f2b01d576f6ec63bd88e51b02b84ecf',
    'D4/r/2': '96f887d1af7aa899cbcdb3c56958150e49e4daa4c8c53f355554d733a24669a9',
    'D4/r/3': '559f7af9b39340bba8daa59da9f9801f7830370bda0c48f988c3569631225d5b',
    'D4/rinv/1': '9d679fb7a9f02e057d64e670c1e89b17bb2654e3aac1a3f858559dbc7a215ec4',
    'D4/rinv/2': '8b5c517e85801a18dd16dd8971078de520351904a324e11b1c0836c01710d68a',
    'D4/rinv/3': '9a3f244258d4831e4b87b681e22f3e070a4dc16d90d64addebb55f961110e7e1',
    'D4/f/1': 'fd06a8734374334dc91aa3127c9f2b6a3ce1fa5bcafeb6aa4400129b7f1a567c',
    'D4/f/2': 'ed5914da5ff2ce7142333021145f35785cf5e8dfd96901661a39fdc3c8c4a1fa',
    'D4/f/3': '450a7e4660d88be27f7376afd17c06d2ed0c07b00f2e7bcf7777923d02c9d53e',
    'D4/finv/1': '16ae2b35ffb7a9bf6e5521b9831a58b1d5699e628c8ae03328faa435bac2e171',
    'D4/finv/2': 'e43f89f52420e807e609576b0dd55a1b9b5f5df7f5b8bdfd3e227f5f7afab8eb',
    'D4/finv/3': 'fba3601067956d3c0b2829c238f3dff266ee8e3652ed2e376bd2ce8d693174e9',
    'P3/r/1': '9256108f5193952a456117c5fd7f46bbbba5390fd4122ee05b9b92ddf3089706',
    'P3/r/2': '99633273740f9c6fd8cb7c588519e3f0fe65e2d76e69330b5e3f2fcf7061b80d',
    'P3/r/3': '428ec8bbbb6ee7f8928b13ba1c4dc03f10d310724ab960d00d57cd56aa03e539',
    'P3/rinv/1': '86312aebc87d93e9bb6b9e65a92b957dc2b2bb104084ef5fc93a1edc5c55274a',
    'P3/rinv/2': '96766bc46ba08a09afaff95bc9c4222f9b8a6d10e6f56794baaf61e7153c9d71',
    'P3/rinv/3': 'be2e1f2b8885f02a4a083da33ea87f136309e4575725f5942a57afc353aab5fd',
    'P3/f/1': '841563b36a4caa9096a64d985871f8a80e00551454a3afdd448489a2f6e614b7',
    'P3/f/2': '9750fd6d98feae1f433d6b308bfd689feb5633be9d0420def97e556204e4ee64',
    'P3/f/3': 'c713903218e731fa146771fa6bb82733d570ce3f7d45f4517c34b5a3cc04736f',
    'P3/finv/1': '0d161e519fc767dc360df2409562354d0c4e71ec9df0803405510296b027f5f5',
    'P3/finv/2': 'a326a285c395ebc5024a308d877cfa368693af5e8fc992244c2e39859be95438',
    'P3/finv/3': '47cf96923be964aab63921d54f25f60a051b7ac941da16ce6e43c06d052415a1',
}


@pytest.fixture(scope="module")
def all_cases():
    out = {}
    for name, (H, qt, wc) in _instances().items():
        p = quantize(H, wc)
        for target in TARGETS:
            for seed in SEEDS:
                out["%s/%s/%d" % (name, target, seed)] = case_reports(
                    H, qt, wc, p, name, target, seed)
    return out


def test_rf_suite_reports_are_pinned(all_cases):
    got = {key: _digest(outcomes) for key, outcomes in all_cases.items()}
    assert got == PINNED


# checks whose products and comparisons run on sparse 2-, 3- and 4-tensors
SPARSE_CHECKS = {
    "quasitriangular": (
        "r-sandwich", "rinv-sandwich", "r-invertibility-left",
        "r-invertibility-right", "coproduct-second-leg", "coproduct-first-leg",
        "intertwiner",
    ),
    "r-identities": (
        "target-right-exchange", "source-left-exchange", "target-antipode-left",
        "source-antipode-right", "target-antipode-inverse",
        "source-antipode-inverse", "source-marginal-first-leg",
        "source-marginal-second-leg", "target-marginal-first-leg",
        "target-marginal-second-leg", "antipode-first-leg",
        "antipode-inverse-second-leg", "antipode-both-legs",
    ),
    "drinfeld": ("coproduct-of-u",),
    "cocycle": (
        "f-sandwich", "finv-sandwich", "f-invertibility-left",
        "f-invertibility-right", "cocycle-equation", "source-second-leg",
        "target-first-leg", "finv-source", "finv-target",
        "finv-source-antipode", "f-target-antipode", "cocycle-form-mixed-left",
        "cocycle-form-mixed-right", "cocycle-form-inverse",
    ),
    "quantization": ("product-exchange-law",),
}


def test_corruptions_fail_every_sparse_check(all_cases):
    failed = set()
    for outcomes in all_cases.values():
        for rep, _ in outcomes:
            if rep is not None:
                failed.update((rep.suite, c.name) for c in rep.failed_checks())
    missing = [(suite, name) for suite, names in SPARSE_CHECKS.items()
               for name in names if (suite, name) not in failed]
    assert missing == []
