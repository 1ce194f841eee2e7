"""Command-line surface: load objects, run suites, emit reports.

Commands: check, transmute, quantize, twist, verify-iso, zoo.  Exit code 0
means every check passed, 1 means some check failed (the report carries a
witness), 2 means an input could not be parsed or bound.  Identical inputs
produce byte-identical structured reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .algebra import (
    QuantumGroupoid,
    WeakBialgebra,
    check_quantum_groupoid,
    check_weak_bialgebra,
)
from .errors import (
    AntipodeNotInvertible,
    ClosureViolation,
    ParseError,
    TwistAxiomFailure,
    WeakHopfError,
)
from .modules import BraidContext, coherence_report, regular_module
from .quantize import quantize, verify_quantization
from .linalg import format_frac
from .report import VerificationReport, Witness
from .serialization import (
    ParsedCocycle,
    ParsedModule,
    ParsedMorphism,
    ParsedQT,
    parse,
    serialize_cocycle,
    serialize_presentation,
    serialize_qt,
    serialize_quantum_groupoid,
)
from .structures import (
    canonical_r,
    check_quasitriangular,
    check_weak_cocycle,
    conjugator_coproduct_sides,
    conjugator_elements,
    derived_r_identities,
    drinfeld_identities,
)
from .transmute import QGMorphism, check_morphism, transmute, verify_braided_hopf
from .twisting import check_conjugator_coproduct, twist, verify_isomorphism
from . import zoo
from .modules import check_module


class _InputError(Exception):
    """Maps to exit code 2."""


def _load_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError("cannot read %s: %s" % (path, exc)) from exc


def _load_object(path: str, want: str):
    """Load an object from a file or from the builtin corpus (zoo:NAME)."""
    if path.startswith("zoo:"):
        name = path[4:]
        try:
            fx = zoo.fixture(name)
        except KeyError as exc:
            raise _InputError(str(exc)) from exc
        if want == "algebra":
            return fx.algebra
        if want == "qt":
            return ParsedQT(fx.algebra.basis_names, fx.qt)
        if want == "cocycle":
            return ParsedCocycle(fx.algebra.basis_names, fx.cocycle)
        raise _InputError("cannot take %s from a fixture" % want)
    text = _load_text(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise _InputError("%s: %s" % (path, exc)) from exc


def _require_groupoid(obj, path):
    if isinstance(obj, QuantumGroupoid):
        return obj
    raise _InputError("%s: expected a quantum-groupoid document" % path)


_STRUCTURE_DOCS = {
    "qt": (ParsedQT, "qt-structure"),
    "cocycle": (ParsedCocycle, "cocycle"),
}


def _bind(path, want, H):
    """Load the qt-structure or cocycle document at path for the algebra H."""
    cls, kind = _STRUCTURE_DOCS[want]
    obj = _load_object(path, want)
    if not isinstance(obj, cls):
        raise _InputError("%s: expected a %s document" % (path, kind))
    if obj.basis_names != tuple(H.basis_names):
        raise _InputError("%s: basis does not match the algebra" % path)
    return obj.structure


class _Output:
    """What a command reports: check reports, notes and documents.  `render`
    writes them and returns the exit code, 1 if a recorded check failed."""

    def __init__(self, args):
        self.fmt = args.format
        self.out_path = args.out
        self.failed = False
        self.lines = []
        self.json_objects = []
        self.json_checks = []
        self.json_extra = {}

    def note(self, text):
        self.lines.append(text)

    def add_report(self, object_id, report: VerificationReport) -> bool:
        """Record report; returns whether it passed."""
        if self.fmt == "text":
            for line in report.to_lines():
                self.lines.append(
                    line if not object_id else "%s (%s)" % (line, object_id)
                )
        for entry in report.to_dict():
            entry["object"] = object_id
            self.json_checks.append(entry)
        self.failed = self.failed or not report.passed
        return report.passed

    def add_document(self, title, text):
        if self.fmt == "text":
            self.lines.append("-- %s --" % title)
            self.lines.append(text.rstrip("\n"))
        self.json_extra.setdefault("documents", []).append(
            {"title": title, "text": text}
        )

    def render(self) -> int:
        exit_code = 1 if self.failed else 0
        if self.fmt == "structured":
            payload = {
                "objects": self.json_objects,
                "checks": self.json_checks,
                "exit": exit_code,
            }
            payload.update(self.json_extra)
            body = json.dumps(payload, indent=2) + "\n"
        else:
            body = "\n".join(self.lines) + "\n" if self.lines else ""
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)
        return exit_code


# the document types `check` reads, in the order their suites run
_CHECKED = (WeakBialgebra, ParsedQT, ParsedCocycle, ParsedMorphism, ParsedModule)


def _cmd_check(args) -> int:
    out = _Output(args)
    loaded = {cls: [] for cls in _CHECKED}
    for path in args.inputs:
        if path.startswith("zoo:"):
            objs = [_load_object(path, want) for want in ("algebra", "qt", "cocycle")]
        else:
            objs = [_load_object(path, "any")]
        out.json_objects.append(path)
        for obj in objs:
            loaded[next(cls for cls in _CHECKED if isinstance(obj, cls))].append((path, obj))
    algebras = loaded[WeakBialgebra]

    def find_algebra(names, path):
        for _, alg in algebras:
            if tuple(alg.basis_names) == tuple(names) and isinstance(
                alg, QuantumGroupoid
            ):
                return alg
        raise _InputError(
            "%s: no loaded quantum groupoid matches its basis" % path
        )

    def stages():
        for path, alg in algebras:
            yield path, lambda a=alg: check_weak_bialgebra(a)
            if isinstance(alg, QuantumGroupoid):
                yield path, lambda a=alg: check_quantum_groupoid(a)
        for path, pqt in loaded[ParsedQT]:
            H = find_algebra(pqt.basis_names, path)
            qt = pqt.structure
            yield path, lambda H=H, qt=qt: check_quasitriangular(H, qt)
            yield path, lambda H=H, qt=qt: derived_r_identities(H, qt)
            yield path, lambda H=H, qt=qt: drinfeld_identities(H, qt)
            if args.with_hexagons:
                def hexes(H=H, qt=qt):
                    M = regular_module(H)
                    return coherence_report(BraidContext.psi(H, qt), M, M, M)

                yield path, hexes
        for path, pwc in loaded[ParsedCocycle]:
            H = find_algebra(pwc.basis_names, path)
            wc = pwc.structure
            yield path, lambda H=H, wc=wc: check_weak_cocycle(H, wc)
            elements = []

            def conjugator(H=H, wc=wc, elements=elements):
                elements.extend(conjugator_elements(H, wc))
                sides = conjugator_coproduct_sides(H, wc, elements[1])
                return check_conjugator_coproduct(H, wc, sides)

            yield path, conjugator
            # the conjugator product is recorded, never asserted
            value = " ".join(format_frac(x) for x in elements[2])
            out.note("conjugator product v v^-1 = [%s] (%s)" % (value, path))
            out.json_extra.setdefault("conjugator_products", []).append(
                {"object": path, "value": value.split()}
            )
            if args.with_hexagons and H.is_cocommutative:
                def phi_hexes(H=H, wc=wc):
                    M = regular_module(H)
                    return coherence_report(BraidContext.phi(H, wc), M, M, M)

                yield path, phi_hexes
        for path, pm in loaded[ParsedMorphism]:
            src = find_algebra(pm.basis_names, path)
            dst = find_algebra(pm.target_basis_names, path)
            f = QGMorphism(src, dst, pm.matrix)
            yield path, lambda f=f: check_morphism(f)
        for path, pm in loaded[ParsedModule]:
            H = find_algebra(pm.algebra_basis_names, path)
            yield path, lambda pm=pm, H=H: check_module(pm.bind(H))

    for path, runner in stages():
        out.add_report(path, runner())
        if out.failed and args.fail_fast:
            break
    return out.render()


def _cmd_transmute(args) -> int:
    out = _Output(args)
    H = _require_groupoid(_load_object(args.algebra, "algebra"), args.algebra)
    qt = _bind(args.qt, "qt", H)
    target = None
    morphism = None
    if args.target:
        target = _require_groupoid(_load_object(args.target, "algebra"), args.target)
    if args.morphism:
        pm = _load_object(args.morphism, "morphism")
        if not isinstance(pm, ParsedMorphism):
            raise _InputError("%s: expected a morphism document" % args.morphism)
        dst = target if target is not None else H
        if pm.basis_names != tuple(H.basis_names) or pm.target_basis_names != tuple(
            dst.basis_names
        ):
            raise _InputError("%s: morphism endpoints do not match" % args.morphism)
        morphism = QGMorphism(H, dst, pm.matrix)

    out.add_report(args.qt, check_quasitriangular(H, qt))
    if morphism is not None:
        out.add_report(args.morphism, check_morphism(morphism))
    if not out.failed:
        p = transmute(H, qt, target, morphism)
        out.add_report(args.algebra, verify_braided_hopf(p, BraidContext.psi(H, qt)))
        out.add_document("presentation", serialize_presentation(p))
    return out.render()


def _cmd_quantize(args) -> int:
    out = _Output(args)
    H = _require_groupoid(_load_object(args.algebra, "algebra"), args.algebra)
    wc = _bind(args.cocycle, "cocycle", H)
    if out.add_report(args.cocycle, check_weak_cocycle(H, wc)):
        p = quantize(H, wc)
        out.add_report(args.algebra, verify_quantization(p, wc))
        out.add_document("presentation", serialize_presentation(p))
    return out.render()


def _cmd_twist(args) -> int:
    out = _Output(args)
    H = _require_groupoid(_load_object(args.algebra, "algebra"), args.algebra)
    qt = _bind(args.qt, "qt", H)
    wc = _bind(args.cocycle, "cocycle", H)
    pair = twist(H, qt, wc)
    twisted, qt_t = pair.twisted
    for rep in pair.reports:
        out.add_report(args.algebra, rep)
    out.add_document("twisted-algebra", serialize_quantum_groupoid(twisted))
    out.add_document("twisted-qt", serialize_qt(twisted, qt_t))
    return out.render()


def _cmd_verify_iso(args) -> int:
    out = _Output(args)
    H = _require_groupoid(_load_object(args.algebra, "algebra"), args.algebra)
    wc = _bind(args.cocycle, "cocycle", H)
    result = verify_isomorphism(H, canonical_r(H), wc)
    out.add_report(args.algebra, result.report)
    equal = serialize_presentation(result.quantized) == serialize_presentation(
        result.twisted_transmuted)
    out.json_extra["presentations_equal"] = equal
    out.note("presentations: %s" % ("equal" if equal else "distinct"))
    return out.render()


def _cmd_zoo(args) -> int:
    out = _Output(args)
    if not args.emit:
        for name in zoo.fixture_names():
            fx = zoo.fixture(name)
            out.note("%-10s dim %-3d %s" % (name, fx.algebra.dim, fx.description))
            out.json_objects.append(
                {"name": name, "dim": fx.algebra.dim, "description": fx.description}
            )
        return out.render()
    try:
        fx = zoo.fixture(args.emit)
    except KeyError as exc:
        raise _InputError(str(exc)) from exc
    if not args.out_dir:
        raise _InputError("zoo emit needs --out-dir")
    import os

    os.makedirs(args.out_dir, exist_ok=True)
    paths = {}
    for suffix, text in (
        ("qg", serialize_quantum_groupoid(fx.algebra)),
        ("qt", serialize_qt(fx.algebra, fx.qt)),
        ("coc", serialize_cocycle(fx.algebra, fx.cocycle)),
    ):
        path = os.path.join(args.out_dir, "%s.%s" % (fx.name, suffix))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[suffix] = path
        out.note("wrote %s" % path)
    out.json_extra["paths"] = paths
    return out.render()


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "structured"), default="text")
    sub.add_argument("--out", default=None)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="weakhopf",
        description="Exact-arithmetic workbench for finite quantum groupoids.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom suites on the given objects")
    p.add_argument("inputs", nargs="+", help="paths or zoo:NAME")
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--with-hexagons", action="store_true")
    _add_common(p)

    p = sub.add_parser("transmute", help="braided Hopf structure on a centralizer")
    p.add_argument("--algebra", required=True)
    p.add_argument("--qt", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--morphism", default=None)
    _add_common(p)

    p = sub.add_parser("quantize", help="cocycle-deformed structure on a centralizer")
    p.add_argument("--algebra", required=True)
    p.add_argument("--cocycle", required=True)
    _add_common(p)

    p = sub.add_parser("twist", help="twist a quasitriangular quantum groupoid")
    p.add_argument("--algebra", required=True)
    p.add_argument("--qt", required=True)
    p.add_argument("--cocycle", required=True)
    _add_common(p)

    p = sub.add_parser(
        "verify-iso",
        help="compare quantization with the twisted transmutation (canonical R)",
    )
    p.add_argument("--algebra", required=True)
    p.add_argument("--cocycle", required=True)
    _add_common(p)

    p = sub.add_parser("zoo", help="list or emit builtin fixtures")
    p.add_argument("emit", nargs="?", default=None, help="fixture name to emit")
    p.add_argument("--out-dir", default=None)
    _add_common(p)
    return ap


@lru_cache(maxsize=None)
def _parser():
    """The parser of `run`, built once per process: parsing leaves it as it
    was, and building it costs about as much as a small command."""
    return build_parser()


def _failed_check(args, object_id, suite, name, witness) -> int:
    """Report the one failed check a command raised, with its witness, and
    exit 1."""
    rep = VerificationReport(suite)
    rep.add(name, False, witness)
    out = _Output(args)
    out.add_report(object_id, rep)
    return out.render()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "check": _cmd_check,
        "transmute": _cmd_transmute,
        "quantize": _cmd_quantize,
        "twist": _cmd_twist,
        "verify-iso": _cmd_verify_iso,
        "zoo": _cmd_zoo,
    }[args.command]
    try:
        return handler(args)
    except _InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except TwistAxiomFailure as exc:  # from twist, alone or inside verify-iso
        return _failed_check(args, args.algebra, "twist", exc.check_name,
                             exc.witness or Witness((), (), (), str(exc)))
    except AntipodeNotInvertible as exc:
        return _failed_check(args, "", "quantum-groupoid", "antipode-invertible",
                             Witness((), (), (), str(exc)))
    except WeakHopfError as exc:
        message = "error: %s" % exc
        if isinstance(exc, ClosureViolation) and exc.witness is not None:
            message += " -- " + exc.witness.describe()
        print(message, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
