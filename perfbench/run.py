"""liespec benchmark: host-speed-normalised end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload dual_route --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; liespec is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one single-threaded process: keep numpy's BLAS from starting threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import timing  # noqa: E402  (stdlib only; times the reference kernel before liespec loads)

MIN_PASSES = 3
SETUP_REPEATS = 3
OUT_DIR = os.path.join(HERE, "out")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_liespec(root: str):
    """Import liespec from the checkout's own source tree, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import liespec

    if not os.path.abspath(liespec.__file__).startswith(src + os.sep):
        raise ImportError(f"liespec imported from {liespec.__file__}, not from {src}")


def _clear_caches():
    """Empty every lru_cache in liespec, so a repeated set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "liespec" or name.startswith("liespec."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.items = []
        self.warm = []
        self.canon = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def _call(self, item):
        try:
            return self.wl.run(item)
        except Exception as e:  # a program failure on one input is counted, not fatal
            print(f"operation failed on {item.label}: {type(e).__name__}: {e}", file=sys.stderr)
            return None

    def setup(self) -> float:
        """Generate the inputs and run the warm-up pass.  Returns normalised
        seconds, each piece normalised on its own, so that a change of host
        speed in the middle of set-up is caught."""
        self.items, _, total = timing.measure(self.wl.generate)
        self.warm = []
        for item in self.items:
            result, _, norm = timing.measure(lambda: self._call(item))
            self.warm.append(result)
            total += norm
        self.canon = [None if r is None else self.wl.canon(r) for r in self.warm]
        return total

    def timed_pass(self, times: List[List[float]], raws: List[List[float]], measure=timing.measure):
        for i, item in enumerate(self.items):
            self.attempted += 1
            try:
                result, raw, norm = measure(lambda: self.wl.run(item))
            except Exception as e:
                self.failed += 1
                print(f"operation failed on {item.label}: {type(e).__name__}: {e}", file=sys.stderr)
                continue
            times[i].append(norm)
            raws[i].append(raw)
            if self.wl.canon(result) != self.canon[i]:
                self.mismatches.append(item.label)

    def passes(self, seconds: float):
        """Whole passes over the inputs until `seconds` have gone by, at least
        MIN_PASSES of them; a pass is never cut short."""
        times: List[List[float]] = [[] for _ in self.items]
        raws: List[List[float]] = [[] for _ in self.items]
        t0 = time.perf_counter()
        done = 0
        while done < MIN_PASSES or time.perf_counter() - t0 < seconds:
            self.timed_pass(times, raws)
            done += 1
        return times, raws, done

    def check(self) -> bool:
        from checks import CheckFailed

        ok = [(it, r) for it, r in zip(self.items, self.warm) if r is not None]
        try:
            self.wl.check([it for it, _ in ok], [r for _, r in ok])
        except CheckFailed as e:
            print(f"check failed: {e}", file=sys.stderr)
            return False
        if self.mismatches:
            print(f"timed results differ from the checked warm-up: {self.mismatches}", file=sys.stderr)
            return False
        return True


def _op_sum(times: List[List[float]]) -> float:
    """Sum over inputs of each input's median time across passes."""
    return sum(statistics.median(t) for t in times if t)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float, import_s: float) -> Dict[str, dict]:
    setups = [runner.setup()]
    for _ in range(SETUP_REPEATS - 1):
        _clear_caches()
        setups.append(runner.setup())
    times, raws, done = runner.passes(seconds)
    n_ops = sum(1 for t in times if t)
    metrics = {
        "ops_per_s": _metric(n_ops / _op_sum(times), "1/s"),
        "op_p50_s": _metric(statistics.median(t for ts in times for t in ts), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(import_s + statistics.median(setups), "s"),
    }
    print(f"raw wall figures, not metrics: passes={done} "
          f"ops_per_s={n_ops / _op_sum(raws):.6g} op_p50_s={statistics.median(t for ts in raws for t in ts):.6g} "
          f"setup_repeats_s={[round(s, 4) for s in setups]}")
    return metrics


def per_layer(runner: Runner, seconds: float) -> Dict[str, dict]:
    from tracing import COUNTED, GENERATE, LAYER_SPANS, ROOT, Tracer

    runner.setup()
    untraced, _, _ = runner.passes(seconds / 2)

    tracer = Tracer()
    factors: Dict[int, float] = {}

    def traced(name):
        """Like timing.measure, but inside a root span; records the root's
        normalisation factor for its spans."""
        def measure(fn):
            before = timing.kernel_seconds()
            t0 = time.perf_counter()
            result = tracer.span(name, fn)
            raw = time.perf_counter() - t0
            norm = timing.normalise(raw, before, timing.kernel_seconds())
            factors[tracer.op] = norm / raw
            return result, raw, norm
        return measure

    tracer.install()
    try:
        per_pass = []
        times: List[List[float]] = [[] for _ in runner.items]
        raws: List[List[float]] = [[] for _ in runner.items]
        t0 = time.perf_counter()
        while len(per_pass) < 2 or time.perf_counter() - t0 < seconds / 2:
            start = len(tracer.spans)
            traced(GENERATE)(runner.wl.generate)
            runner.timed_pass(times, raws, traced(ROOT))
            per_pass.append(tracer.self_times(start, factors))
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{runner.wl.name}-seed{runner.wl.seed}.json"), factors)

    metrics: Dict[str, dict] = {}
    for name in LAYER_SPANS:
        if name.split(".")[0] in COUNTED:
            calls = [p[name][0] if name in p else 0 for p in per_pass]
            metrics[f"{name}.calls"] = _metric(statistics.median(calls), "count")
        selfs = [p[name][1] if name in p else 0.0 for p in per_pass]
        metrics[f"{name}.self_s"] = _metric(statistics.median(selfs), "s")
    total = [sum(v[1] for v in p.values()) for p in per_pass]
    unattributed = [p[ROOT][1] + p[GENERATE][1] for p in per_pass]
    metrics["spectra.tables_per_input"] = _metric(tracer.tables_per_input(), "ratio")
    metrics["spectra.member_yield"] = _metric(tracer.member_yield(), "ratio")
    metrics["trace.pass_s"] = _metric(statistics.median(total), "s")
    metrics["trace.unattributed_share"] = _metric(
        statistics.median(u / t for u, t in zip(unattributed, total)), "ratio")
    metrics["trace.overhead_ratio"] = _metric(_op_sum(times) / _op_sum(untraced), "ratio")
    return metrics


def main(argv=None) -> int:
    ref_before = timing.kernel_seconds()
    t_start = time.perf_counter()
    args = _parse(argv)
    root = os.path.dirname(HERE)
    try:
        _import_liespec(root)
        import workloads
    except ImportError as e:
        print(f"error: cannot import liespec from the checkout: {e}", file=sys.stderr)
        return 2
    import_s = timing.normalise(time.perf_counter() - t_start, ref_before, timing.kernel_seconds())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    runner = Runner(workloads.WORKLOADS[args.workload](args.seed, os.path.join(OUT_DIR, "inputs")))
    if args.trace:
        metrics = per_layer(runner, args.seconds)
    else:
        metrics = end_to_end(runner, args.seconds, import_s)
    correct = runner.check()
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
