"""Instances, job lists and the seeded corruption of the benchmark workloads.

Every instance comes from the ``weakhopf.zoo`` generators, which run the full
checkers on what they build.  Each instance is written as three text files
(``NAME.qg``, ``NAME.qt``, ``NAME.coc``) at a fixed relative path, so that the
input paths embedded in the structured reports are the same on every run and
the reports can be compared with recorded digests.

On ``groupoid-weak`` each algebra file also gets one corrupted copy; the seed
picks the field (``mul``, ``comul``, ``counit`` or ``antipode``), the entry
and the amount it is perturbed by.  The seed never changes an uncorrupted
input, and the job list is in a fixed order.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

KLEIN_BETA = [[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, 1, 1], [1, 1, -1, -1]]
SIGN_BETA = [[1, 1], [1, -1]]

COMMANDS = ("check", "transmute", "quantize", "twist", "verify-iso")


@dataclass(frozen=True)
class Job:
    id: str
    instance: str
    command: str
    argv: tuple
    corrupted: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    largest: str
    instances: dict  # name -> (H, qt, wc) as generated
    jobs: tuple
    corruptions: dict  # corrupted instance -> perturbation record


# ---------------------------------------------------------------------------
# instances


def _klein_cocycle(wh, H, k):
    """Klein-four sign cocycle on {s, r^(k/2) s} of the dihedral algebra D_k."""
    names = list(H.basis_names)
    half = k // 2
    gens = [names.index("s"), names.index("rs" if half == 1 else "r%ds" % half)]
    return wh.zoo.bicharacter_cocycle(H, gens, KLEIN_BETA)


def dihedral_sign(wh, k):
    H = wh.zoo.dihedral_group_algebra(k)
    return H, wh.structures.canonical_r(H), _klein_cocycle(wh, H, k)


def pair_trivial(wh, k):
    H = wh.zoo.groupoid_algebra(wh.zoo.GroupoidSpec.pair_groupoid(k))
    return H, wh.structures.canonical_r(H), wh.zoo.trivial_cocycle(H)


def dihedral_plus_pair(wh, k, m):
    z = wh.zoo
    A = z.dihedral_group_algebra(k)
    B = z.groupoid_algebra(z.GroupoidSpec.pair_groupoid(m))
    H = z.direct_sum(A, B)
    wc = z.direct_sum_cocycle(H, A, B, _klein_cocycle(wh, A, k), z.trivial_cocycle(B))
    return H, wh.structures.canonical_r(H), wc


def kz2(wh):
    H = wh.zoo.cyclic_group_algebra(2)
    return H, wh.structures.canonical_r(H), wh.zoo.bicharacter_cocycle(H, [1], SIGN_BETA)


@dataclass(frozen=True)
class Spec:
    builders: tuple  # (instance name, builder) in job order
    largest: str  # instance whose jobs make up largest_s
    commands: tuple  # commands run on each instance
    hexagons: bool = False  # `check` adds the hexagon suite
    corrupted: tuple = ()  # instances that get a corrupted copy


SPECS = {
    "dihedral-sign": Spec(
        (("D2", lambda wh: dihedral_sign(wh, 2)),
         ("D4", lambda wh: dihedral_sign(wh, 4))),
        largest="D4",
        commands=("check", "transmute", "quantize", "verify-iso"),
    ),
    "groupoid-weak": Spec(
        (("P3", lambda wh: pair_trivial(wh, 3)),
         ("D2P2", lambda wh: dihedral_plus_pair(wh, 2, 2)),
         ("P4", lambda wh: pair_trivial(wh, 4))),
        largest="P4",
        commands=COMMANDS,
        corrupted=("P3", "D2P2", "P4"),
    ),
    "coherence": Spec(
        (("P2", lambda wh: pair_trivial(wh, 2)),
         ("D2", lambda wh: dihedral_sign(wh, 2)),
         ("P3", lambda wh: pair_trivial(wh, 3))),
        largest="P3",
        commands=("check",),
        hexagons=True,
    ),
}

# Every workload also runs each command once on kz2 (dim 2), with the
# hexagon suite on its check.  These jobs take tens of milliseconds; they
# make every layer run at least once on every workload, so each per-layer
# metric is measured everywhere.  On coherence they are also its kz2 job.
SMOKE = "kz2"


def _argv(command, files, hexagons):
    qg, qt, coc = files
    if command == "check":
        return ("check", qg, qt, coc) + (("--with-hexagons",) if hexagons else ())
    if command == "transmute":
        return ("transmute", "--algebra", qg, "--qt", qt)
    if command == "quantize":
        return ("quantize", "--algebra", qg, "--cocycle", coc)
    if command == "twist":
        return ("twist", "--algebra", qg, "--qt", qt, "--cocycle", coc)
    return ("verify-iso", "--algebra", qg, "--cocycle", coc)


# ---------------------------------------------------------------------------
# corruption

CORRUPT_FIELDS = ("mul", "comul", "counit", "antipode")
CORRUPT_DELTAS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))


def corrupt(text, rng):
    """Perturb one entry of a seeded field of a quantum-groupoid document.

    The new entry is written as ``str(Fraction)``: ``p/q`` in lowest terms
    with no ``+``, ``.`` or exponent, so the copy stays canonical and
    reaches the checkers rather than the parser.
    """
    field = rng.choice(CORRUPT_FIELDS)
    lines = text.split("\n")
    head = next(i for i, line in enumerate(lines) if line.startswith(field + ":"))
    inline = lines[head][len(field) + 1:].strip()
    if inline:
        rows = [head]
    else:
        rows = []
        for i in range(head + 1, len(lines)):
            if ":" in lines[i] or not lines[i]:
                break
            rows.append(i)
    width = len(_tokens(lines[rows[0]]))
    entry = rng.randrange(len(rows) * width)
    delta = rng.choice(CORRUPT_DELTAS)
    row, col = divmod(entry, width)
    line_no = rows[row]
    prefix = field + ": " if inline else ""
    tokens = _tokens(lines[line_no])
    old = tokens[col]
    tokens[col] = str(Fraction(old) + delta)
    lines[line_no] = prefix + " ".join(tokens)
    record = {
        "field": field,
        "row": row,
        "col": col,
        "line": line_no + 1,
        "old": old,
        "new": tokens[col],
    }
    return "\n".join(lines), record


def _tokens(line):
    if ":" in line:
        line = line.split(":", 1)[1]
    return line.split()


# ---------------------------------------------------------------------------
# building a workload


def build(wh, name, seed, workdir):
    """Generate the instances of workload `name`, write them under
    `workdir`/in and return the workload with its seeded job list."""
    spec = SPECS[name]
    indir = os.path.join(workdir, "in")
    os.makedirs(indir, exist_ok=True)
    ser = wh.serialization
    instances = {}
    files = {}
    for inst, builder in ((SMOKE, kz2),) + spec.builders:
        H, qt, wc = builder(wh)
        instances[inst] = (H, qt, wc)
        paths = tuple(os.path.join(indir, "%s.%s" % (inst, ext)) for ext in ("qg", "qt", "coc"))
        for path, text in zip(paths, (
            ser.serialize_quantum_groupoid(H),
            ser.serialize_qt(H, qt),
            ser.serialize_cocycle(H, wc),
        )):
            _write(path, text)
        files[inst] = paths

    jobs = [
        Job("%s.%s" % (SMOKE, cmd), SMOKE, cmd, _argv(cmd, files[SMOKE], True))
        for cmd in COMMANDS
    ]
    for inst, _ in spec.builders:
        for cmd in spec.commands:
            argv = _argv(cmd, files[inst], spec.hexagons)
            jobs.append(Job("%s.%s" % (inst, cmd), inst, cmd, argv))

    rng = random.Random(seed)
    corruptions = {}
    for inst in spec.corrupted:
        with open(files[inst][0], encoding="utf-8") as fh:
            text, corruptions[inst] = corrupt(fh.read(), rng)
        path = os.path.join(indir, "%s.bad.qg" % inst)
        _write(path, text)
        jobs.append(Job("%s.bad.check" % inst, inst + ".bad", "check", ("check", path), True))
    return Workload(name, spec.largest, instances, tuple(jobs), corruptions)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
