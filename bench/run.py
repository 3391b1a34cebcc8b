"""Benchmark runner for burstcodes.

One workload, in this process:

    python3 bench/run.py --workload ctb-stream --seed 1 --seconds 5 --trace 0

Every workload, each in a fresh process so cached oracles never leak between
them (exits non-zero if any run fails a correctness gate):

    python3 bench/run.py --all --seed 1 --seconds 5

With --trace 0 the run measures the end-to-end metrics for --seconds
seconds.  With --trace 1 it runs a fixed plan twice, untraced and then with
every public function of the package wrapped in spans, and reports the
per-layer metrics and the tracing overhead.  The human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"  # sweep books of the running workload, traced spans
SETUP_PROBES = 20  # probes before and after each set-up
SIDE = 5  # probes at least on each side of a timing that judge its host speed
RETIME = 0.03  # share of the decode inputs, the slowest, decoded once more
PAD_S = 1.0  # and every probe this close to it, or WIDEN times its length
WIDEN = 3
PROBE_REF_S = 0.005  # probe_kernel time at the reference speed
MIN_DECODES = 1000  # inputs per decode stream, so that p99 has 10 beyond it
WORKLOAD_NAMES = ("syndrome-sweep", "ctb-stream", "perm-stream")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "sieve_s": "s",
    "sweep_per_s": "corruptions/s",
    "decode_p50_ms": "ms",
    "decode_p99_ms": "ms",
    "encode_per_s": "words/s",
    "search_s": "s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import burstcodes from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import burstcodes
    except ImportError as exc:
        sys.exit(f"bench: cannot import burstcodes from {SRC}: {exc}")
    if Path(burstcodes.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: burstcodes was imported from {burstcodes.__file__}, not {SRC}")
    return burstcodes


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------


class Speed:
    """Host speed, probed between timed steps.

    The CPU speed this process gets drifts by up to 1.7x within a minute on
    a shared host, and pure-Python code largely slows together.  A probe
    times a fixed kernel of tuple, dict and list work (about 5 ms), kept
    apart from the package so that no change to the package moves it.  A
    timing is scaled by PROBE_REF_S over the mean probe time around it,
    which reports it in seconds at the speed where the probe takes
    PROBE_REF_S.  The unscaled values are printed beside the scaled ones."""

    def __init__(self):
        self.times = []  # midpoint of each probe, ascending
        self.values = []  # its seconds

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            probe_kernel()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.values.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S / mean of the probes within max(PAD_S, WIDEN x its
        length) of [start, end], and of at least the SIDE nearest on each
        side (more on one side where the other runs out), leaving out the
        slowest and fastest tenth.  The host speed changes within a second,
        so a timing of several seconds ran at the mean speed of a span
        several times its length, not at the speed at its edges."""
        t, v = self.times, self.values
        lo, hi = bisect.bisect_left(t, start), bisect.bisect_right(t, end)
        before = min(lo, max(SIDE, 2 * SIDE - (len(t) - hi)))
        after = 2 * SIDE - before
        pad = max(PAD_S, WIDEN * (end - start))
        lo = min(lo - before, bisect.bisect_left(t, start - pad))
        hi = max(hi + after, bisect.bisect_right(t, end + pad))
        near = sorted(v[lo:hi])
        cut = len(near) // 10
        return PROBE_REF_S / statistics.fmean(near[cut:len(near) - cut])

    def scaled(self, start: float, seconds: float) -> float:
        return seconds * self.scale(start, start + seconds)


def probe_kernel() -> int:
    """Fixed work in the style of the package: build, hash and slice small
    tuples, group them in a dict of lists."""
    groups = {}
    x = list(range(16))
    for i in range(1500):
        word = tuple(x[j] ^ (i & 7) for j in range(16))
        groups.setdefault(hash(word) & 1023, []).append(word[3:9])
        x[i % 16] = sum(word[:4]) % 13
    return len(groups)


def run_window(wl, ctx, res, seconds: float, speed: Speed) -> None:
    """Run every item of every op once, then keep picking, among the ops
    whose next repetition still fits the window, the one furthest below its
    share of the time used, so each op samples the whole window.  An op
    with fixed op.reps runs no more than those, and its time extends the
    window, so that the window gives the other ops `seconds`.  Past the
    window, the ops that still owe work run on: the decode op until every
    input of the stream has been decoded wl.decode_reps times, so the
    failure counts depend on the seed alone, and an op with fixed reps
    until it has made them.  Last, the slowest RETIME of the decode inputs
    are decoded once more.  The host speed is probed before every step and
    after the last."""
    clock = time.perf_counter
    deadline = clock() + seconds
    used = {op.name: 0.0 for op in wl.ops}
    last = {}  # (op, item) -> seconds of its latest repetition
    turn = {op.name: 0 for op in wl.ops}

    def next_item(op):
        return op.items[turn[op.name] % len(op.items)]

    def owes(op):
        if op.name == "decode":  # the stream is decoded in order from its start
            return res.decodes < wl.decode_reps * len(ctx["stream"])
        return turn[op.name] < op.reps * len(op.items)

    def step(op):
        nonlocal deadline
        item = next_item(op)
        turn[op.name] += 1
        speed.probe()
        t0 = clock()
        op.run(ctx, res, item)
        last[op.name, item] = clock() - t0
        used[op.name] += last[op.name, item]
        if op.reps:
            deadline += last[op.name, item]

    for op in wl.ops:
        for _ in op.items:
            step(op)
    if len(ctx["stream"]) < MIN_DECODES:  # drawn in the first pass on syndrome-sweep
        raise ValueError(f"{wl.name}: decode stream shorter than {MIN_DECODES}")
    while True:
        now = clock()
        fits = [op for op in wl.ops if (not op.reps or owes(op))
                and now + last[op.name, next_item(op)] <= deadline]
        if not fits:
            fits = [op for op in wl.ops if owes(op)]
            if not fits:
                break
        step(min(fits, key=lambda op: used[op.name] / op.share))
    # a decode that the host interrupted can land in the tail: decode the
    # slowest inputs once more, so that each keeps the faster time
    slowest = sorted(res.latencies, key=lambda k: min(dt for _, dt in res.latencies[k]))
    for key in slowest[len(slowest) - math.ceil(RETIME * len(slowest)):]:
        speed.probe()
        res.redecode(key)
    speed.probe()


def run_plan(wl, ctx, res) -> None:
    for op in wl.ops:
        for _ in range(op.trace_reps):
            for item in op.items:
                op.run(ctx, res, item)


def fresh_setup(wl, seed: int, workdir: str):
    """(context, start, seconds) of one set-up after dropping cached oracles."""
    import workloads

    workloads.clear_caches()
    gc.collect()
    t0 = time.perf_counter()
    ctx = wl.setup(seed, workdir)
    return ctx, t0, time.perf_counter() - t0


def op_seconds(res, op, speed: Speed) -> tuple:
    """(sum over the op's items of their typical scaled time, the same for
    raw time, repetitions, work per pass).  An item's typical time is the
    median of its repetitions, or the fastest of an op's fixed reps: one
    such repetition takes seconds, long enough for the host to take the
    CPU away, and the fastest drops those moments.  An op that does not
    follow the host speed reports its raw time as scaled."""
    typical = min if op.reps else statistics.median
    keys = [k for k in res.samples if k[0] == op.name]

    def scaled(sample):
        return speed.scaled(*sample) if op.scaled else sample[1]

    return (
        sum(typical(scaled(s) for s in res.samples[k]) for k in keys),
        sum(typical(dt for _, dt in res.samples[k]) for k in keys),
        sum(len(res.samples[k]) for k in keys),
        sum(res.work[k] for k in keys),
    )


def measure(wl, seed: int, seconds: float, workdir: str, import_span: tuple):
    """Untraced run: set up wl.setup_reps times, then the timed window; every
    time scaled by the host speed probed around it."""
    import workloads

    speed = Speed()
    setups = []
    for _ in range(wl.setup_reps):
        ctx = None  # drop the previous set-up before building the next
        speed.probe(SETUP_PROBES)
        ctx, t0, dt = fresh_setup(wl, seed, workdir)
        setups.append((t0, dt))
        speed.probe(SETUP_PROBES)
    res = workloads.Results()
    run_window(wl, ctx, res, seconds, speed)

    setup_raw = import_span[1] + statistics.median(dt for _, dt in setups)
    setup_s = speed.scaled(*import_span) + statistics.median(speed.scaled(*s) for s in setups)
    # an input's latency is the fastest of its decodes, which drops the
    # moments the host took the CPU away
    lat = sorted(min(speed.scaled(*s) for s in v) for v in res.latencies.values())
    lat_raw = sorted(min(dt for _, dt in v) for v in res.latencies.values())
    tail = len(lat) - math.ceil(0.99 * len(lat))
    metrics = {
        "setup_s": (setup_s, f"imports + median of {wl.setup_reps} set-ups; raw {setup_raw:.4g} s"),
        "decode_p50_ms": (percentile(lat, 50) * 1e3, f"{len(lat)} inputs, {res.decodes} decodes; "
                                                     f"raw {percentile(lat_raw, 50) * 1e3:.4g} ms"),
        "decode_p99_ms": (percentile(lat, 99) * 1e3, f"{len(lat)} inputs, {tail} beyond p99; "
                                                     f"raw {percentile(lat_raw, 99) * 1e3:.4g} ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss"),
    }
    ops = {op.name: op for op in wl.ops}

    def typical(op):
        kind = f"fastest of {op.reps}" if op.reps > 1 else "single" if op.reps else "median"
        return kind + ("" if op.scaled else ", unscaled")

    for name, op in (("sieve_s", ops["sieve"]), ("search_s", ops["search"])):
        total, raw, reps, _ = op_seconds(res, op, speed)
        metrics[name] = (total, f"sum of per-item {typical(op)}, {reps} repetitions; raw {raw:.4g} s")
    for name, op in (("sweep_per_s", ops["sweep"]), ("encode_per_s", ops["encode"])):
        total, raw, reps, work = op_seconds(res, op, speed)
        metrics[name] = (work / total, f"{work} per pass / per-item {typical(op)} times, "
                                       f"{reps} repetitions; raw {work / raw:.4g}")
    probes = sorted(speed.values)
    print(f"probe median {statistics.median(probes) * 1e3:.4g} ms, quartiles "
          f"{percentile(probes, 25) * 1e3:.4g}-{percentile(probes, 75) * 1e3:.4g} ms "
          f"({len(probes)} probes; reference {PROBE_REF_S * 1e3:.4g} ms)")
    return res, {name: (metrics[name][0], unit, metrics[name][1]) for name, unit in END_TO_END.items()}


def traced(wl, seed: int, workdir: str):
    """Fixed plan untraced, then the same set-up and plan traced; the kept
    spans go to WORK/spans-<workload>-<seed>.jsonl."""
    import workloads
    from spans import Tracer

    res = workloads.Results()
    ctx, _, setup_s = fresh_setup(wl, seed, workdir)
    t0 = time.perf_counter()
    run_plan(wl, ctx, res)
    untraced_wall = setup_s + time.perf_counter() - t0
    ctx = None
    workloads.clear_caches()
    gc.collect()
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        ctx = wl.setup(seed, workdir)
        run_plan(wl, ctx, res)
        traced_wall = time.perf_counter() - t0
    tracer.write_spans(WORK / f"spans-{wl.name}-{seed}.jsonl")
    return res, layer_metrics(tracer, traced_wall, untraced_wall)


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    tr = tracer.merged()

    def calls(name):
        return (tr.calls[name], "count", "calls")

    def self_s(name):
        return (tr.self_time[name], "s", f"{tr.calls[name]} spans")

    def ratio(num, den, unit, note):
        return (num / den if den else 0.0, unit, note)

    m = {}
    for name in (
        "tburst.cpb_decode", "seqcore.to_matrix", "seqcore.check_symbols",
        "tburst.locate_burst", "tburst.block_syndromes", "perm.reconstruct",
        "perm.overlap_ranks", "classic.vt_decode", "classic.tenengolts_decode",
        "classic.levenshtein_decode", "classic.induced_decode",
        "pll2burst.c2b_decode", "pll2burst.pbounded_decode", "seqcore.psi",
        "seqcore.vt_syndrome", "seqcore.deletion_ball",
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in (
        "tburst.oracle_build_brute", "perm.perm_locate", "tburst.dense_encode",
        "tburst.dense_decode", "perm.pleqt_decode", "pll2burst.locate_from_row1",
        "pll2burst.pll_encode", "pll2burst.pll_decode", "verify.roundtrip_sweep",
        "cli.main", "verify.confusability_check", "verify.exists_perm_code",
        "verify.max_perm_code_exact", "verify.sieve",
    ):
        m[f"{name}.self_s"] = self_s(name)
    for name in ("tburst.cpb_decode", "tburst.ctb_decode", "perm.pleqt_decode"):
        m[f"{name}.incl_s"] = (tr.inclusive[name], "s", f"{tr.calls[name]} spans, children included")
    labels = ("tburst.BlockLabeler.label", "tburst.QaryBlockLabeler.label")
    m["tburst.label.calls"] = (sum(tr.calls[n] for n in labels), "count", "calls, both labelers")
    m["tburst.label.self_s"] = (sum(tr.self_time[n] for n in labels), "s", "both labelers")
    cpb = tr.calls["tburst.cpb_decode"]
    candidates = sum(tr.yields[f"tburst.{g}"] for g in ("_burst_candidates", "_edit_candidates"))
    hits = cpb - tr.raised["tburst.cpb_decode"]
    m["tburst.cpb_decode.candidates_per_call"] = ratio(
        candidates, cpb, "candidates/call", f"{candidates} candidates / {cpb} calls")
    cpb_labels = sum(tr.edges["tburst.cpb_decode", n] for n in labels)
    m["tburst.cpb_decode.labels_per_call"] = ratio(
        cpb_labels, cpb, "labels/call", f"{cpb_labels} label calls / {cpb} calls")
    # a cpb_decode call returns only after exactly one candidate matched
    m["tburst.cpb_decode.accept_ratio"] = ratio(
        hits, candidates, "ratio", f"{hits} unique hits / {candidates} candidates")
    loc = tr.calls["tburst.locate_burst"]
    members = tr.edges["tburst.locate_burst", "tburst.loc_member"]
    m["tburst.locate_burst.candidates_per_call"] = ratio(
        members, loc, "candidates/call", f"{members} loc_member calls / {loc} calls")
    rec = tr.calls["perm.reconstruct"]
    ranks = tr.edges["perm.reconstruct", "perm.overlap_ranks"]
    m["perm.reconstruct.candidates_per_call"] = ratio(
        ranks, rec, "candidates/call", f"{ranks} overlap_ranks calls / {rec} calls")
    rs = "verify.roundtrip_sweep"
    m[f"{rs}.cpu_per_wall"] = ratio(
        tr.process_cpu[rs], tr.wall[rs], "ratio",
        f"{tr.process_cpu[rs]:.3f} s process CPU / {tr.wall[rs]:.3f} s wall")
    for name in ("bounds.perm_bound", "bounds.lp_bound"):
        m[f"{name}.calls"] = calls(name)
    m["trace.overhead_s"] = (
        traced_wall - untraced_wall, "s",
        f"traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s")
    return m


# ---------------------------------------------------------------------------


def run_one(args) -> int:
    t0 = time.perf_counter()
    import_package()
    import workloads

    import_span = (t0, time.perf_counter() - t0)

    wl = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        if args.trace:
            res, metrics = traced(wl, args.seed, workdir)
        else:
            res, metrics = measure(wl, args.seed, args.seconds, workdir, import_span)

    return report(res, metrics, run_record(args))


def report(res, metrics: dict, record: dict) -> int:
    """Print every metric with its unit and sample count, the failure
    counts and the run record, then the result line; 1 if any output was
    wrong."""
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    print(
        f"failed_frac {res.failed / max(1, res.attempted):.6g} fraction "
        f"({res.refused} refused + {res.wrong_decodes} wrong / {res.attempted} decodes attempted)"
    )
    print(f"roundtrips {res.roundtrips} (each must give back the word sent)")
    for what in res.wrong[:10]:
        print(f"WRONG: {what}")
    print("run " + json.dumps(record))
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if res.correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process, its output printed in turn; the
    first non-zero exit status, else 0."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, timeout=900)
        print(f"== {name} exit {proc.returncode}", flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
