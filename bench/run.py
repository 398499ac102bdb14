"""nmcg benchmark: seeded verification workloads, end-to-end and per layer.

    python3 bench/run.py --workload punctured --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload closed --seed 1 --trace 1
    python3 bench/run.py --workload homology --profile

Run from anywhere; the package is imported from ``src/`` beside this
directory. ``--trace 0`` times passes over the workload's items and
prints the end-to-end metrics. Times are in reference seconds: raw times
corrected for the host's speed with a reference loop (hostspeed.py).
``--trace 1`` times one untraced
pass, then wraps every nmcg module in spans, repeats set-up and one pass,
and prints the per-layer metrics. ``--profile`` prints a ranked cProfile
of one pass instead. The last line of standard output is one JSON
object; the exit status is nonzero when any verdict is wrong or any
item raised. See README.md in this directory for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import platform
import pstats
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-item limit in reference seconds (hostspeed). On `closed` it cuts
# the undecided searches: well above the slowest decided item there
# (about 0.3 s, the E6 relation at (24,0)). Elsewhere every item decides
# and the limit only guards against a hang: well above the slowest item
# (about 0.75 s, relator A8(8) at (20,1)).
ITEM_LIMITS_S = {"closed": 1.0}
GUARD_LIMIT_S = 5.0
REF_EVERY_S = 0.01  # item time between two samples of the reference loop
SETUP_SAMPLES = 13  # this process plus twelve fresh interpreters
SETUP_REFS = 10  # reference samples before and after each set-up
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
RAISED, TIMEOUT = "raised", "timeout"
PROFILE_ROWS = 30


class ItemTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no `except Exception` in the
    program can swallow it."""


def _alarm(signum, frame):
    raise ItemTimeout


def timed_setup(workload):
    """Import nmcg and build the workload's program-side objects; the
    time is in reference seconds, from reference samples taken just
    before and just after."""
    setup, _ = wl.WORKLOADS[workload]
    refs = hostspeed.samples(SETUP_REFS)
    t0 = perf_counter()
    nm = wl.import_nmcg()
    built = setup(nm)
    raw = perf_counter() - t0
    return raw * hostspeed.factor(refs + hostspeed.samples(SETUP_REFS)), nm, built


def setup_samples(workload, first):
    """Set-up times of this process and of fresh interpreters, run one
    after another before any timed pass."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def item_limit(workload):
    return ITEM_LIMITS_S.get(workload, GUARD_LIMIT_S)


def run_pass(items, limit_s):
    """One pass over the items; returns (per-item seconds, outcome per
    item, raw wall seconds of the pass). Item times are in reference seconds:
    the reference loop runs after every REF_EVERY_S of item time, and each
    stretch of items between two samples is scaled by the mean of those
    two samples. The item limit follows the latest samples."""
    raw, outcomes, cuts = [], [], [0]
    refs = hostspeed.samples()
    since = 0.0
    t_pass = perf_counter()
    for item in items:
        limit = limit_s / hostspeed.factor(refs[-hostspeed.WINDOW:])
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                result = item.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = perf_counter() - t0
            outcome = item.judge(result)
        except ItemTimeout:
            dt, outcome = perf_counter() - t0, TIMEOUT
        except Exception as exc:  # any error is a failed item, reported below
            dt, outcome = perf_counter() - t0, f"{RAISED}: {type(exc).__name__}: {exc}"
        raw.append(dt)
        outcomes.append(outcome)
        since += dt
        if since >= REF_EVERY_S:
            refs.append(hostspeed.sample())
            cuts.append(len(raw))
            since = 0.0
    refs.append(hostspeed.sample())
    if cuts[-1] != len(raw):
        cuts.append(len(raw))
    # Stretch k runs between samples W-1+k and W+k, W = hostspeed.WINDOW.
    w = hostspeed.WINDOW
    times = []
    for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
        f = hostspeed.factor(refs[k + w - 1:k + w + 1])
        times += [dt * f for dt in raw[a:b]]
    return times, outcomes, perf_counter() - t_pass


def tail(times):
    """(percentile, value): the highest percentile of TAIL_LADDER that
    leaves at least 10 items beyond it, by nearest rank."""
    n = len(times)
    p = next((q for q in TAIL_LADDER if n * (1 - q / 100) >= 10), TAIL_LADDER[-1])
    return p, sorted(times)[max(math.ceil(p / 100 * n) - 1, 0)]


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def context(args):
    return (f"context: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
            f"src lines {src_lines()}, seed {args.seed}, item limit {item_limit(args.workload)} s; times in "
            f"reference seconds ({hostspeed.REF_NOMINAL_S * 1000:g} ms per reference loop)")


def tally(items, passes):
    """(attempted, failed, wrong-or-raised count, report lines), counting
    each item once: it failed if it failed in any pass (a later pass skips
    items that ran out of time). Items that ran out of time are undecided,
    like an Inconclusive verdict."""
    kinds = Counter()
    lines = []
    for item, outcomes in zip(items, zip(*passes)):
        outcome = next((o for o in outcomes if o not in (wl.OK, None)), wl.OK)
        if outcome == wl.OK:
            continue
        kind = RAISED if outcome.startswith(RAISED) else outcome
        kinds[kind] += 1
        if kind != wl.UNDECIDED and len(lines) < 20:
            lines.append(f"  {item.label}: {outcome}")
    attempted = len(items)
    failed = sum(kinds.values())
    summary = (f"failed items: {failed} of {attempted} ({kinds[RAISED]} raised, "
               f"{kinds[wl.UNDECIDED]} inconclusive, {kinds[TIMEOUT]} over the limit, "
               f"{kinds[wl.WRONG]} wrong)")
    return attempted, failed, kinds[RAISED] + kinds[wl.WRONG], [summary] + lines


def finish(attempted, failed, bad, metrics, lines):
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": bad == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if bad == 0 else 1


def measure(args, nm, built, setup_first):
    """--trace 0: passes over the items. The first pass runs every item;
    later passes skip the items that ran out of time, whose time is the
    limit. At least two passes run, more while the next is expected to end
    within --seconds. Each item's time is its median over the passes it
    ran in."""
    samples = setup_samples(args.workload, setup_first)
    items = wl.WORKLOADS[args.workload][1](nm, built, args.seed)
    limit = item_limit(args.workload)
    todo = list(range(len(items)))
    timings = [[] for _ in items]
    passes, raw_walls = [], []
    start = perf_counter()
    while todo:
        times, outcomes, raw_wall = run_pass([items[i] for i in todo], limit)
        passes.append([None] * len(items))
        for i, dt, outcome in zip(todo, times, outcomes):
            timings[i].append(dt)
            passes[-1][i] = outcome
        raw_walls.append(raw_wall)
        again = [k for k, outcome in enumerate(outcomes) if outcome != TIMEOUT]
        next_s = raw_wall * sum(times[k] for k in again) / sum(times)
        todo = [todo[k] for k in again]
        elapsed = perf_counter() - start
        if len(passes) >= 2 and elapsed + next_s > args.seconds:
            break
    per_item = [statistics.median(t) for t in timings]
    attempted, failed, bad, report = tally(items, passes)
    pct, tail_s = tail(per_item)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "wall_s": (sum(per_item), "s"),
        "item_p50_ms": (1000 * statistics.median(per_item), "ms"),
        "item_tail_ms": (1000 * tail_s, "ms"),
        "pass_share": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [
        f"workload {args.workload}: {len(items)} items, {len(passes)} pass(es), "
        "each item at its median over the passes it ran in",
        context(args),
        f"setup_s      {metrics['setup_s'][0]:10.4f} s   median of {len(samples)} set-ups (this process and fresh interpreters)",
        f"wall_s       {metrics['wall_s'][0]:10.4f} s   all {len(items)} items once "
        f"(raw wall clock per pass, reference loops included: "
        f"{', '.join(f'{w:.2f}' for w in raw_walls)} s)",
        f"item_p50_ms  {metrics['item_p50_ms'][0]:10.4f} ms",
        f"item_tail_ms {metrics['item_tail_ms'][0]:10.4f} ms  p{pct:g} of {len(items)} items",
        f"fail_share   {failed / attempted:10.4f}      {failed} of {attempted} items failed in some pass",
        f"pass_share   {metrics['pass_share'][0]:10.4f}      1 - fail_share",
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:10.4f} MB",
    ] + report
    return finish(attempted, failed, bad, metrics, lines)


def traced(args, nm, built):
    """--trace 1: one untraced pass, then set-up and the same pass in
    spans. Items are built before tracing starts, so benchmark-side input
    generation stays out of the per-layer figures."""
    setup, make_items = wl.WORKLOADS[args.workload]
    items = make_items(nm, built, args.seed)
    plain_times, plain, _ = run_pass(items, item_limit(args.workload))
    tracer = Tracer(wl.LAYERS)
    tracer.install(nm)
    setup(nm)
    times, outcomes, _ = run_pass(items, item_limit(args.workload))
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (sum(times) - sum(plain_times), "s")
    attempted, failed, bad, report = tally(items, [plain, outcomes])
    lines = [f"workload {args.workload}: {len(items)} items, traced set-up and pass", context(args),
             f"absent entry points: {', '.join(tracer.absent) or 'none'}"]
    lines += [f"{name:36s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    return finish(attempted, failed, bad, metrics, lines + report)


def profile(args, nm, built):
    items = wl.WORKLOADS[args.workload][1](nm, built, args.seed)
    prof = cProfile.Profile()
    prof.enable()
    _, outcomes, wall = run_pass(items, item_limit(args.workload))
    prof.disable()
    print(f"workload {args.workload}: one profiled pass, {wall:.3f} s, {len(items)} items")
    print(context(args))
    pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(PROFILE_ROWS)
    attempted, failed, bad, report = tally(items, [outcomes])
    return finish(attempted, failed, bad, {}, report)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", action="store_true", help="print a ranked cProfile of one pass")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "nmcg").is_dir():
        print(f"error: no nmcg sources at {SRC / 'nmcg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_first, nm, built = timed_setup(args.workload)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_first}))
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    if args.profile:
        return profile(args, nm, built)
    if args.trace:
        return traced(args, nm, built)
    return measure(args, nm, built, setup_first)


if __name__ == "__main__":
    sys.exit(main())
