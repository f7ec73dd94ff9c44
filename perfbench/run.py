"""hmjoin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see WORKLOADS.md) in this process, single-threaded,
through hmjoin's public API, and checks every job's output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
untraced passes for half the time and traced passes for the other half and
reports the per-layer metrics, including the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, each
starting with ``#``, give sample counts and the environment.  Spans and the
result are also written under ``perfbench/.out/``.

``--record-reference`` runs every job once and rewrites
``perfbench/reference.json`` from the current outputs.
"""

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import typing
from pathlib import Path

from calibrate import REFERENCE_S, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
# Set-ups before each untraced pass; setup_s is the median over the run.
# Spreading them over the run, rather than taking them all at its start,
# keeps one phase of a busy neighbour from setting the whole figure.
SETUPS_PER_PASS = 5
MIN_PASSES = 3  # untraced passes per run, at least

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

_TIMED = {  # span name -> which of calls / s / self_s are reported
    "exactlinalg.polymatrix_det": ("calls", "s"),
    "exactlinalg.charpoly_with_adjugate": ("calls", "s"),
    "exactlinalg.charpoly": ("calls", "s"),
    "exactlinalg.rational_eigenvalues": ("calls", "s"),
    "spectra.gamma": ("calls", "s", "self_s"),
    "spectra.block_charpoly": ("self_s",),
    "spectra.universal_block_charpoly": ("self_s",),
    "spectra.classify_e_main": ("s",),
    "polynomials.poly_divexact": ("calls", "s"),
    "polynomials.interpolate": ("calls", "s"),
    "polynomials.squarefree_decomposition": ("calls", "s"),
    "polynomials.poly_gcd": ("calls", "s"),
    "cospectral.search_pairs": ("calls", "s"),
    "cospectral.check_cospectral_conditions": ("calls", "s"),
    "cospectral.isomorphism_test": ("calls", "s"),
    "cospectral.generalized_universal_charpoly": ("calls", "s"),
    "serialize.parse_spec": ("s",),
    "serialize.report_to_json": ("s",),
    "serialize.canonical_dumps": ("s",),
    "cli.main": ("self_s",),
    "cli.factored_charpoly_string": ("s",),
    "joins.hm_join": ("s",),
    "joins.reduce_labels": ("s",),
    "families.build": ("s",),
}

_COUNTS = {  # reported name -> span attribute it sums
    "exactlinalg.polymatrix_det.points": "exactlinalg.polymatrix_det.points",
    "exactlinalg.rational_eigenvalues.candidates": "exactlinalg.rational_eigenvalues.candidates",
    "cospectral.configs": "cospectral.search_pairs.configs",
    "cospectral.certificates": "cospectral.search_pairs.certificates",
    "serialize.out_bytes": "serialize.canonical_dumps.out_bytes",
}

SIZES = ("n", "k", "m", "km", "deg_phi", "coeff_bits_max")

PER_LAYER = (
    [("%s.%s" % (name, field), "count" if field == "calls" else "s")
     for name, fields in _TIMED.items() for field in fields]
    + [(name, "bytes" if name.endswith("out_bytes") else "count") for name in _COUNTS]
    + [("cospectral.main_cache.hits", "count"), ("cospectral.main_cache.misses", "count"),
       ("cospectral.main_cache.hit_ratio", "ratio")]
    + [("size." + s, "bits" if s == "coeff_bits_max" else "count") for s in SIZES]
    + [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count"), ("trace.negative_self_spans", "count"),
       ("trace.roots_exceeded", "count")]
)

clock = time.perf_counter


def pin_environment():
    """No thread-pool knob, one BLAS thread; must run before numpy loads."""
    os.environ.pop("HMJOIN_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def fresh_import():
    for name in [n for n in sys.modules if n == "hmjoin" or n.startswith("hmjoin.")]:
        del sys.modules[name]
    # typing's caches keep every earlier import's annotated classes and
    # functions alive, so without this each set-up would add to peak RSS
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    hm = importlib.import_module("hmjoin")
    importlib.import_module("hmjoin.cli")
    return hm


def hmjoin_caches():
    """Every functools cache in the hmjoin modules."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "hmjoin" or name.startswith("hmjoin."):
            found += [v for v in vars(mod).values() if callable(getattr(v, "cache_clear", None))]
    return found


def main_cache_info(hm):
    cache = getattr(hm.cospectral, "_resolvent_data", None)
    return cache.cache_info() if hasattr(cache, "cache_info") else None


def environment(seed):
    import numpy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hmjoin").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit, "src_sha256": src.hexdigest()[:20],
            "seed": seed, "HMJOIN_THREADS": os.environ.get("HMJOIN_THREADS", "unset"),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Tally:
    """Job times, outcomes and sizes over the passes of one run."""

    def __init__(self):
        self.pass_walls = []  # calibrated
        self.job_times = []  # calibrated
        self.raw_walls = []
        self.raw_times = []
        self.by_job = {}
        self.attempted = 0
        self.failures = []
        self.wrong = 0  # failures other than a job's known baseline failure
        self.sizes = []
        self.cache = [0, 0]
        self.cal = Calibration()


def run_pass(jobs, hm, tally, tracer=None, label=""):
    caches = hmjoin_caches()
    outputs = []
    wall = raw_wall = 0.0
    for index, job in enumerate(jobs):
        for cache in caches:
            cache.cache_clear()
        t0 = clock()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.root("%s%d:%s" % (label, index, job.name)):
                    out = job.run()
            error = None
        except Exception as exc:  # a job that raises is a failed job, not a crashed run
            out, error = None, "raised %s: %s" % (type(exc).__name__, exc)
        seconds = clock() - t0
        calibrated = tally.cal.calibrated(seconds)
        raw_wall += seconds
        wall += calibrated
        tally.raw_times.append(seconds)
        tally.job_times.append(calibrated)
        tally.by_job.setdefault(job.name, []).append([seconds, calibrated])
        info = main_cache_info(hm)
        if info is not None:
            tally.cache[0] += info.hits
            tally.cache[1] += info.misses
        outputs.append((job, out, error))
    tally.pass_walls.append(wall)
    tally.raw_walls.append(raw_wall)
    for job, out, error in outputs:
        tally.attempted += 1
        reason = error
        if reason is None:
            try:
                reason = job.check(out)
            except Exception as exc:
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
        if reason is not None:
            tally.failures.append("%s: %s" % (job.name, reason))
            tally.wrong += not job.tolerated(reason)
        elif job.sizes is not None:
            sizes = job.sizes(out)
            if sizes:
                tally.sizes.append(sizes)
    outputs.clear()
    gc.collect()


def run_passes(prepare, tally, seconds, min_passes, tracer=None, label=""):
    """Passes until about ``seconds`` have gone; ``prepare()`` returns the
    (jobs, hmjoin) of each pass."""
    start = clock()
    while True:
        began = clock()
        run_pass(*prepare(), tally, tracer, "%sp%d/" % (label, len(tally.pass_walls)))
        now = clock()
        # stop when one more pass like the last, with its set-up, checks and
        # calibration, would end after ``seconds``
        if len(tally.pass_walls) >= min_passes and now - start + now - began > seconds:
            return


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def untraced_run(args, workloads, reference):
    tally = Tally()
    setups, raw_setups = [], []

    def prepare():
        for _ in range(SETUPS_PER_PASS):
            # free the last set-up's modules and inputs before the next, so
            # that peak_rss_mb holds one set-up, not two
            jobs = hm = None
            gc.collect()
            t0 = clock()
            hm = fresh_import()
            jobs = workloads.build(args.workload, args.seed, hm, ROOT, reference)
            raw_setups.append(clock() - t0)
            setups.append(tally.cal.calibrated(raw_setups[-1]))
        return jobs, hm

    run_passes(prepare, tally, args.seconds, MIN_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = tally.job_times
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(tally.pass_walls),
        "job_p50_s": statistics.median(times),
        "job_p90_s": p90(times),
        "peak_rss_mb": rss_mb,
    }
    raw = {
        "setup_s": statistics.median(raw_setups),
        "wall_s": statistics.median(tally.raw_walls),
        "job_p50_s": statistics.median(tally.raw_times),
        "job_p90_s": p90(tally.raw_times),
    }
    beyond = sum(t > metrics["job_p90_s"] for t in times)
    notes = {
        "setup_s": "median of %d set-ups, %d before each pass" % (len(setups), SETUPS_PER_PASS),
        "wall_s": "median of %d passes of %d jobs" % (len(tally.pass_walls),
                                                        len(times) // len(tally.pass_walls)),
        "job_p50_s": "median of %d job samples" % len(times),
        "job_p90_s": "p90 of %d job samples, %d beyond it" % (len(times), beyond),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, value in raw.items():
        notes[name] += "; %.6f s uncalibrated" % value
    notes["wall_s"] += "; passes: " + " ".join("%.3f" % w for w in tally.raw_walls)
    return tally, metrics, notes, None


def traced_run(args, workloads, reference):
    from tracer import Tracer, summarize

    hm = fresh_import()
    jobs = workloads.build(args.workload, args.seed, hm, ROOT, reference)
    plain = Tally()
    run_passes(lambda: (jobs, hm), plain, args.seconds / 2.0, 1)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("setup", "setup"):
            jobs = workloads.build(args.workload, args.seed, hm, ROOT, reference)
        setup_end = len(tracer.spans)
        tally = Tally()
        run_passes(lambda: (jobs, hm), tally, args.seconds / 2.0, 1, tracer, "traced/")
    finally:
        tracer.uninstall()
    passes = len(tally.pass_walls)
    whole = summarize(tracer.spans)
    setup = summarize(tracer.spans[:setup_end])

    def per_batch(table, key):
        # one set-up plus the mean of one traced pass
        return setup[table].get(key, 0) + (whole[table].get(key, 0) - setup[table].get(key, 0)) / passes

    metrics = {}
    for name, fields in _TIMED.items():
        for field in fields:
            value = per_batch(field, name)
            metrics["%s.%s" % (name, field)] = value if field == "calls" else tally.cal.scale(value)
    for name, source in _COUNTS.items():
        metrics[name] = per_batch("counts", source)
    hits, misses = (c / passes for c in tally.cache)
    metrics["cospectral.main_cache.hits"] = hits
    metrics["cospectral.main_cache.misses"] = misses
    metrics["cospectral.main_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for s in SIZES:
        values = [sz[s] for sz in tally.sizes if s in sz]
        metrics["size." + s] = statistics.fmean(values) if values else 0
    untraced = statistics.median(plain.pass_walls)
    traced = statistics.median(tally.pass_walls)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.spans"] = (len(tracer.spans) - setup_end) / passes
    metrics["trace.negative_self_spans"] = whole["negative_self"]
    metrics["trace.roots_exceeded"] = whole["roots_over"]
    sane = whole["negative_self"] == 0 and whole["roots_over"] == 0
    notes = {
        "trace.overhead_s": "median of %d traced passes minus median of %d untraced passes; "
                            "kernel %.6f s traced, %.6f s untraced"
                            % (passes, len(plain.pass_walls), tally.cal.kernel_s, plain.cal.kernel_s),
        "trace.spans": "per traced pass; per-layer values are one set-up plus the mean of "
                       "one traced pass",
    }
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / ("spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed)), "wt") as handle:
        for index, span in enumerate(tracer.spans):
            handle.write(json.dumps(span.to_json(index)) + "\n")
    plain.attempted += tally.attempted
    plain.failures += tally.failures
    plain.wrong += tally.wrong
    return plain, metrics, notes, sane


def record_reference(workloads):
    hm = fresh_import()
    reference = {}
    for name in workloads.WORKLOADS:
        entries = reference[name] = {}
        for job in workloads.build(name, 1, hm, ROOT, {}):
            out = job.run()
            if name == "cli-mix":
                entries[job.name] = workloads.digest(workloads.normalized_output(out[1]))
            elif not job.name.startswith("random"):
                entries[job.name] = workloads.poly_digest(out.charpoly_direct)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    pin_environment()
    if not (ROOT / "src" / "hmjoin" / "__init__.py").is_file():
        print("error: no hmjoin sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    os.chdir(ROOT)  # CLI jobs name fixtures relative to the repository root
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.record_reference:
        record_reference(workloads)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    env = environment(args.seed)
    if args.trace:
        tally, metrics, notes, sane = traced_run(args, workloads, reference)
        units = dict(PER_LAYER)
    else:
        tally, metrics, notes, sane = untraced_run(args, workloads, reference)
        units = dict(END_TO_END)

    print("# hmjoin benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# env " + json.dumps(env, sort_keys=True))
    print("# times are calibrated to a %.4f s kernel; this run's kernel: %.6f s, mean of %d runs"
          % (REFERENCE_S, tally.cal.kernel_s, tally.cal.count))
    for name, value in metrics.items():
        print("# %-44s %14.6f %-5s %s" % (name, value, units[name], notes.get(name, "")))
    print("# failed_frac %d/%d = %.4f" % (len(tally.failures), tally.attempted,
                                          len(tally.failures) / tally.attempted))
    for line in sorted(set(tally.failures)):
        print("#   failed: %s" % line)
    result = {
        "correct": tally.wrong == 0 and sane is not False,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "workload": args.workload, "trace": args.trace, "result": result,
              "kernel_s": tally.cal.kernel_s, "raw_pass_walls": tally.raw_walls,
              "job_times_raw_calibrated": tally.by_job}
    (OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
