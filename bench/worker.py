"""One pass of one workload, in a fresh process; prints one JSON record.

    python3 bench/worker.py --workload search --seed 1
    python3 bench/worker.py --workload search --seed 1 --setup-only
    python3 bench/worker.py --workload search --seed 1 --spans FILE

`bench/run.py` starts this; a pass runs in its own process so that each
one starts with cold library caches and its own peak RSS.  The record has
`setup_s` (numpy is imported before its clock starts) and, unless
`--setup-only`, `wall_s` (operations only; checks run after the clock
stops), `peak_rss_mb` and one entry per operation.  With `--spans FILE`
the library is wrapped, the spans are written to FILE and the record
carries the per-layer metrics.
"""

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (this directory is sys.path[0])


def run_pass(ops, recorder=None):
    """Run each op once; return (summed op seconds, per-op results).

    Garbage is collected before each op, outside its time, so that cycles
    left by one op do not raise the peak RSS of the next one and the peak
    does not depend on the seeded op order.
    """
    results = []
    for op in ops:
        if recorder is not None:
            recorder.op = op.name
        gc.collect()
        t0 = time.perf_counter()
        try:
            value, error = op.run(), None
        except Exception as exc:  # an outcome to check, not a crash
            value, error = None, exc
            # a kept traceback would keep the failed call's frames, and the
            # memory they hold, alive for the rest of the pass
            while exc is not None:
                exc.__traceback__ = None
                exc = exc.__context__
        results.append((op, value, error, time.perf_counter() - t0))
    return sum(r[3] for r in results), results


def check(op, value, error):
    try:
        return bool(op.check(value, error))
    except Exception:
        traceback.print_exc()
        return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    # numpy is a dependency, loaded before the clock like the interpreter:
    # its import is three quarters of `import humbert`, and on a shared host
    # it swings by a third between runs, which would swamp humbert's share
    import numpy  # noqa: F401

    start = time.perf_counter()
    ops = workloads.setup(args.workload, args.seed)
    record = {"setup_s": time.perf_counter() - start}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    recorder = None
    if args.spans is not None:
        import spans
        recorder = spans.Recorder()
        recorder.install()
    try:
        wall, results = run_pass(ops, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(wall_s=wall, peak_rss_mb=peak_kib / 1024.0, ops=[])
    sizes = {}
    for op, value, error, seconds in results:
        ok = check(op, value, error)
        if not ok:
            print("%s: unexpected outcome %r %r" % (op.name, value, error),
                  file=sys.stderr)
        elif op.size is not None:
            sizes[op.name] = op.size(value)
        record["ops"].append({"name": op.name, "seconds": seconds,
                              "ok": ok})
    if recorder is not None:
        import layers
        record["layers"] = layers.layer_metrics(recorder.spans, sizes)
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        recorder.dump(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
