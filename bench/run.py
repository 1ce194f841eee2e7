#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the weakhopf command line.

Run from anywhere inside a checkout of the repository:

    python3 bench/run.py --workload dihedral-sign --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --record      # re-record bench/reference.json

One process, one thread.  The benchmark generates the workload's instances
with the ``weakhopf.zoo`` generators, writes them to text files under
``.bench_work/<workload>/in`` and runs every job of the workload through
``weakhopf.cli.run([..., "--format", "structured", "--out", ...])``.  Every
job parses its input files afresh, so no algebra object, cached property or
memoized fixture is shared between jobs.  Passes over the job list repeat
until ``--seconds`` have gone by (at least one pass).

Correctness: an uncorrupted job must exit with the code recorded in
``bench/reference.json`` and write a report whose SHA-256 matches the
recorded one.  A corrupted job (``groupoid-weak`` only) must exit 1 with at
least one failed check.  ``failed`` in the result counts wrong jobs;
``failed / attempted`` is the share of wrong jobs.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over seven set-ups of importing ``weakhopf`` afresh,
  running the generators and writing the input files;
- ``wall_s``: time of one pass over the job list, as the sum over the jobs
  of each job's median time over the passes;
- ``largest_s``: the same sum over the jobs on the largest instance;
- ``peak_rss_mib``: peak resident memory of the process.

``--trace 1`` first runs the untraced passes, then wraps the public functions
of every ``weakhopf`` module (see ``tracer.py``), builds the inputs again and
runs one traced pass.  Its reports must match the untraced ones byte for
byte, and within each job the self times of the spans must add up to the
root ``cli.run`` span, and no span's self time may be negative.  It reports
the ``per_layer`` metrics of ``BENCHMARK.json``; ``MOVES`` below names, for
each of them, the end-to-end metric and workload it should move, and goes
into the run metadata.  ``trace.overhead`` is traced over untraced pass
time.  The ``input.*`` metrics describe the workload's instances: largest
dimension, carrier dimension of the largest instance, and the nonzero share
of ``mul`` + ``comul`` (over 2n^3) and of the F-twisted coproduct (over n^3)
summed over the instances.

Each run writes its metadata (Python version, nproc, CPU model, per-instance
descriptors, corrupted positions, per-job times) to
``.bench_work/<workload>/run-trace<0|1>.json``, and a traced run its spans to
``.bench_work/<workload>/spans.tsv``.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
import types
from collections import defaultdict
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = ".bench_work"
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SETUP_REPEATS = 7
SPAN_TOLERANCE_S = 1e-6

sys.path.insert(0, BENCH_DIR)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# running jobs


def import_weakhopf():
    """Import ``weakhopf`` from the checkout's ``src`` afresh; returns the
    package and its layer modules by name (the package itself binds some of
    those names to functions, e.g. ``weakhopf.transmute``)."""
    for name in [m for m in sys.modules if m == "weakhopf" or m.startswith("weakhopf.")]:
        del sys.modules[name]
    package = importlib.import_module("weakhopf")
    layers = {layer: importlib.import_module("weakhopf." + layer) for layer in tracing.LAYERS}
    return types.SimpleNamespace(package=package, **layers)


def setup(name, seed, workdir):
    start = perf_counter()
    wh = import_weakhopf()
    wl = workloads.build(wh, name, seed, workdir)
    return wh, wl, perf_counter() - start


def run_job(wh, job, outdir):
    """Run one job through the CLI; returns (exit code, seconds, report bytes)."""
    out = os.path.join(outdir, job.id + ".json")
    if os.path.exists(out):
        os.remove(out)
    gc.collect()  # start each job from a clean heap, as a fresh process would
    argv = list(job.argv) + ["--format", "structured", "--out", out]
    start = perf_counter()
    try:
        code = wh.cli.run(argv)
    except Exception:  # a crash is a wrong job, not the end of the run
        traceback.print_exc()
        code = None
    seconds = perf_counter() - start
    try:
        with open(out, "rb") as fh:
            data = fh.read()
    except OSError:
        data = None
    return code, seconds, data


def digest(data):
    return hashlib.sha256(data).hexdigest()


def is_correct(job, code, data, reference):
    if data is None:
        return False
    if job.corrupted:
        if code != 1:
            return False
        return any(not c["passed"] for c in json.loads(data)["checks"])
    ref = reference.get(job.id)
    return ref is not None and code == ref["exit"] and digest(data) == ref["sha256"]


def run_pass(wh, wl, outdir, reference):
    times, outputs, wrong = {}, {}, []
    start = perf_counter()
    for job in wl.jobs:
        code, seconds, data = run_job(wh, job, outdir)
        times[job.id] = seconds
        outputs[job.id] = data
        if not is_correct(job, code, data, reference):
            wrong.append(job.id)
    wall = perf_counter() - start
    return {"wall_s": wall, "times": times, "wrong": wrong, "outputs": outputs}


def run_passes(wh, wl, outdir, seconds, reference):
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(wh, wl, outdir, reference))
    return passes


# ---------------------------------------------------------------------------
# traced pass and per-layer metrics


def traced_pass(wh, name, seed, workdir, outdir):
    tr = tracing.Tracer()
    tr.install(wh.package)
    try:
        wl = workloads.build(wh, name, seed, workdir)
        setup_spans = len(tr.spans)
        tr.reset_counters()
        jobs = []
        start = perf_counter()
        for job in wl.jobs:
            first = len(tr.spans)
            code, _, data = run_job(wh, job, outdir)
            jobs.append((job, first, len(tr.spans), code, data))
        wall = perf_counter() - start
    finally:
        tr.uninstall()
    return tr, setup_spans, jobs, wall


def check_self_times(tr, jobs):
    """Within each job no span's self time is negative, and the self times
    of its spans add up to its root span."""
    for job, first, last, _, _ in jobs:
        spans = tr.spans[first:last]
        root = spans[-1]
        if root[2] != "cli.run" or root[1] is not None:
            raise RuntimeError("job %s: last span is %s, not the root cli.run" % (job.id, root[2]))
        for span in spans:
            if span[5] < -SPAN_TOLERANCE_S:
                raise RuntimeError("job %s: span %s has self time %.9f s" % (
                    job.id, span[2], span[5]))
        total = sum(s[5] for s in spans)
        if abs(total - (root[4] - root[3])) > SPAN_TOLERANCE_S:
            raise RuntimeError(
                "job %s: self times add up to %.9f s, root span is %.9f s"
                % (job.id, total, root[4] - root[3])
            )


# For each per-layer metric of BENCHMARK.json: the end-to-end metric and the
# workload that it should move.
EVERY = "wall_s on every workload"
FIXED = "none: an exact count, which must repeat"
INPUT = "none: describes the workload's inputs"
SUITES = "wall_s and largest_s on groupoid-weak; setup_s on every workload"
MOVES = {
    "cli.check.s": EVERY,
    "cli.transmute.s": "wall_s on dihedral-sign and groupoid-weak",
    "cli.quantize.s": "wall_s on dihedral-sign and groupoid-weak",
    "cli.twist.s": "wall_s on groupoid-weak",
    "cli.verify-iso.s": "wall_s on dihedral-sign and groupoid-weak",
    "cli.run.self_s": EVERY,
    "serialization.parse.s": "wall_s on groupoid-weak",
    "serialization.parse.calls": "wall_s on groupoid-weak",
    "serialization.parse.bytes": "wall_s on groupoid-weak",
    "serialization.serialize.s": "wall_s on groupoid-weak",
    "algebra.check_weak_bialgebra.self_s": SUITES,
    "algebra.check_weak_bialgebra.calls": SUITES,
    "algebra.check_quantum_groupoid.self_s": SUITES,
    "structures.check_quasitriangular.s": "wall_s on groupoid-weak",
    "structures.derived_r_identities.s": "wall_s on groupoid-weak",
    "structures.drinfeld_identities.s": "wall_s on groupoid-weak",
    "structures.check_weak_cocycle.s": "wall_s on groupoid-weak",
    "structures.twist_elements.s": "wall_s on groupoid-weak",
    "modules.truncated_tensor.self_s":
        "wall_s on dihedral-sign and coherence; peak_rss_mib on coherence",
    "modules.truncated_tensor.calls": "wall_s on coherence",
    "modules.tensor.ambient_dim_sum": "wall_s and peak_rss_mib on coherence",
    "modules.tensor.image_dim_sum": "wall_s and peak_rss_mib on coherence",
    "modules.coherence_report.self_s": "wall_s on coherence",
    "modules.HModule.validate.s": "wall_s and largest_s on dihedral-sign",
    "modules.braiding.s": "wall_s on coherence",
    "modules.unitors.s": "wall_s on groupoid-weak and dihedral-sign",
    "transmute.centralizer.s": "wall_s and largest_s on groupoid-weak",
    "transmute.transmute.self_s": "largest_s on dihedral-sign",
    "transmute.verify_braided_hopf.self_s": "largest_s on dihedral-sign",
    "transmute.carrier_dim_max": "largest_s on dihedral-sign",
    "quantize.quantize.self_s": "largest_s on dihedral-sign",
    "quantize.verify_quantization.self_s": "largest_s on dihedral-sign",
    "twisting.twist.self_s": "largest_s on dihedral-sign; wall_s on groupoid-weak",
    "twisting.twist.calls": "largest_s on dihedral-sign; wall_s on groupoid-weak",
    "twisting.verify_isomorphism.self_s": "largest_s on dihedral-sign; wall_s on groupoid-weak",
    "linalg.matmul.s": "wall_s on coherence and dihedral-sign",
    "linalg.matmul.calls": "wall_s on coherence and dihedral-sign",
    "linalg.matmul.dense_madds": "wall_s on coherence and dihedral-sign",
    "linalg.matmul.nonzero_madds": "wall_s on coherence and dihedral-sign",
    "linalg.matmul.useful_frac": "wall_s on coherence and dihedral-sign",
    "linalg.apply.s": "wall_s and largest_s on groupoid-weak",
    "linalg.apply.calls": "wall_s and largest_s on groupoid-weak",
    "linalg.rref.s": "wall_s on coherence",
    "linalg.rref.calls": "wall_s on coherence",
    "linalg.rref.entries": "wall_s on coherence",
    "linalg.kron.s": "wall_s on coherence",
    "report.comparison.calls": FIXED,
    "report.tuples_compared": FIXED,
    "report.checks_total": FIXED,
    "report.checks_failed": FIXED,
    "zoo.generate.s": "setup_s on every workload",
    "input.max_dim": INPUT,
    "input.carrier_dim": INPUT,
    "input.structure_nnz_frac": INPUT,
    "input.twisted_comul_nnz_frac": INPUT,
    "trace.overhead": "none: the cost of tracing",
}


def layer_values(tr, setup_spans, jobs, descriptors, largest, overhead):
    """Per-layer metrics from the spans and counters of the traced pass."""
    family_s = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for _, _, name, start, end, own, outer in tr.spans[setup_spans:]:
        calls[name] += 1
        self_s[name] += own
        if outer:
            family_s[tracing.family_of(name)] += end - start
    for job, _, last, _, _ in jobs:
        root = tr.spans[last - 1]
        family_s["cli." + job.command] += root[4] - root[3]

    c = tr.counters
    inst = descriptors.values()
    values = dict(c)
    values.update({
        "zoo.generate.s": sum(
            s[4] - s[3] for s in tr.spans[:setup_spans] if s[6] and s[2].startswith("zoo.")
        ),
        "linalg.matmul.useful_frac": (
            c["linalg.matmul.nonzero_madds"] / c["linalg.matmul.dense_madds"]
            if c["linalg.matmul.dense_madds"] else 0.0
        ),
        "input.max_dim": max(d["dim"] for d in inst),
        "input.carrier_dim": descriptors[largest]["carrier_dim"],
        "input.structure_nnz_frac": (
            sum(d["structure_nnz"] for d in inst) / sum(2 * d["dim"] ** 3 for d in inst)
        ),
        "input.twisted_comul_nnz_frac": (
            sum(d["twisted_comul_nnz"] for d in inst) / sum(d["dim"] ** 3 for d in inst)
        ),
        "trace.overhead": overhead,
    })
    per_kind = {"s": family_s, "self_s": self_s, "calls": calls}
    for name in MOVES:
        if name not in values:
            base, _, kind = name.rpartition(".")
            if kind not in per_kind or base not in per_kind[kind]:
                raise RuntimeError("per-layer metric %s: no span %s in the traced pass" % (
                    name, base))
            values[name] = per_kind[kind][base]
    return values


def write_spans(tr, setup_spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phase\tid\tparent\tname\tstart\tend\tself_s\n")
        for i, (sid, parent, name, start, end, own, _) in enumerate(tr.spans):
            fh.write("%s\t%d\t%s\t%s\t%.9f\t%.9f\t%.9f\n" % (
                "setup" if i < setup_spans else "pass", sid,
                "" if parent is None else parent, name, start, end, own))


# ---------------------------------------------------------------------------
# run metadata


def descriptors_of(wh, wl):
    """Traffic descriptors of each instance: dim, carrier dim, nonzeros."""
    out = {}
    for name, (H, _, wc) in wl.instances.items():
        n = H.dim
        nnz = sum(1 for plane in H.mul for row in plane for x in row if x)
        nnz += sum(1 for plane in H.comul for row in plane for x in row if x)
        twisted = sum(
            1 for i in range(n) for x in wh.modules.twisted_coproduct_column(H, wc, i) if x
        )
        out[name] = {
            "dim": n,
            "carrier_dim": wh.transmute.centralizer(H).dim,
            "structure_nnz": nnz,
            "structure_nnz_frac": nnz / (2 * n ** 3),
            "twisted_comul_nnz": twisted,
            "twisted_comul_nnz_frac": twisted / n ** 3,
        }
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# entry points


def metric(value, unit):
    return {"value": value, "unit": unit}


def load_per_layer():
    """The per-layer metrics of BENCHMARK.json; each must have a MOVES entry."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    names = [m["name"] for m in per_layer]
    if sorted(names) != sorted(MOVES):
        raise RuntimeError("per-layer metrics of BENCHMARK.json and MOVES differ: %s" % sorted(
            set(names).symmetric_difference(MOVES)))
    return per_layer


def benchmark(args):
    reference = load_reference().get(args.workload, {})
    per_layer = load_per_layer() if args.trace else None
    workdir = os.path.join(WORK, args.workload)
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir, exist_ok=True)

    repeats = 1 if args.trace else SETUP_REPEATS
    setups = []
    for _ in range(repeats):
        wh, wl, seconds = setup(args.workload, args.seed, workdir)
        setups.append(seconds)
    passes = run_passes(wh, wl, outdir, args.seconds, reference)
    wrong = [j for p in passes for j in p["wrong"]]
    attempted = len(passes) * len(wl.jobs)
    median_s = {j.id: statistics.median(p["times"][j.id] for p in passes) for j in wl.jobs}
    untraced_wall = sum(median_s.values())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "setup_s": setups,
        "passes": [{"wall_s": p["wall_s"], "jobs": p["times"], "wrong": p["wrong"]}
                   for p in passes],
        "job_median_s": median_s,
        "job_order": [j.id for j in wl.jobs],
        "corruptions": wl.corruptions,
        "descriptors": descriptors_of(wh, wl),
    }

    if args.trace:
        tr, setup_spans, jobs, traced_wall = traced_pass(
            wh, args.workload, args.seed, workdir, outdir)
        check_self_times(tr, jobs)
        first = passes[0]["outputs"]
        for job, _, _, code, data in jobs:
            attempted += 1
            if data != first[job.id] or not is_correct(job, code, data, reference):
                wrong.append(job.id + " (traced)")
        overhead = traced_wall / untraced_wall
        values = layer_values(tr, setup_spans, jobs, meta["descriptors"], wl.largest, overhead)
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in per_layer}
        write_spans(tr, setup_spans, os.path.join(workdir, "spans.tsv"))
        meta.update(traced_wall_s=traced_wall, spans=len(tr.spans), moves=MOVES)
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(untraced_wall, "s"),
            "largest_s": metric(
                sum(median_s[j.id] for j in wl.jobs if j.instance == wl.largest), "s"),
            "peak_rss_mib": metric(peak_rss_mib, "MiB"),
        }
    meta.update(attempted=attempted, wrong=wrong, fail_frac=len(wrong) / attempted,
                metrics=metrics)
    with open(os.path.join(workdir, "run-trace%d.json" % args.trace), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    if wrong:
        print("wrong jobs: %s" % ", ".join(wrong))
    print("fail_frac %d/%d; passes %d; metadata in %s" % (
        len(wrong), attempted, len(passes), os.path.join(workdir, "run-trace%d.json" % args.trace)))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": metrics,
    }))


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def record():
    """Record exit code and report digest of every uncorrupted job."""
    reference = {}
    for name in workloads.SPECS:
        workdir = os.path.join(WORK, name)
        outdir = os.path.join(workdir, "out")
        os.makedirs(outdir, exist_ok=True)
        wh, wl, _ = setup(name, 0, workdir)
        entries = {}
        for job in sorted(wl.jobs, key=lambda j: j.id):
            if job.corrupted:
                continue
            code, seconds, data = run_job(wh, job, outdir)
            if code is None or data is None:
                raise RuntimeError("job %s wrote no report" % job.id)
            entries[job.id] = {"exit": code, "sha256": digest(data)}
            print("%-14s %-20s exit %d %7.2f s" % (name, job.id, code, seconds), flush=True)
        reference[name] = entries
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(workloads.SPECS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record bench/reference.json from the current code")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "weakhopf", "__init__.py")):
        print("error: %s has no src/weakhopf to benchmark" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    benchmark(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
