"""The humbert benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload search --seed 1 --seconds 10 --trace 0

Run from anywhere; the library is imported from `src/` of the checkout
that holds this file, and nothing is installed.  Workloads (see
`workloads.py`): `search`, `certify`, `classify`.

Each pass of the workload runs in a fresh worker process (`worker.py`).
Passes repeat until `--seconds` have elapsed, with at least one.  With
`--trace 0` the result reports, as medians over passes:

  wall_s       seconds to run every operation once, after set-up
  setup_s      seconds to import humbert (numpy already loaded), load the
               references and build the seeded inputs (at least seven
               set-ups; the ones beyond the passes run alone)
  peak_rss_mb  peak resident memory of the worker process

With `--trace 1` each round is one untraced and one traced pass, and the
result reports the per-layer metrics of `layers.PER_LAYER` (medians over
traced passes) plus `trace.overhead_s`, the traced minus the untraced
`wall_s`.  Spans go to `bench/out/`.

Every operation's outcome is checked; `attempted` and `failed` in the
result count operations over all passes (fail_ratio = failed / attempted).
The lines before the result give the machine and each metric by name and
unit.  Without `src/humbert` next to this directory the run exits with 2
and prints no result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_SETUPS = 7
# a run must end within 180 s; leave room for start-up and reporting
RUN_LIMIT_S = 170.0


class PassFailed(RuntimeError):
    pass


def machine_record():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version,
            "loadavg_start": list(os.getloadavg())}


def worker(args, deadline):
    """Run worker.py with `args`; return its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("no time left for another pass")
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args,
                              capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed("worker %s timed out" % " ".join(args)) from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed("worker %s exited with %d"
                         % (" ".join(args), proc.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise PassFailed("worker %s printed no record" % " ".join(args)) \
            from exc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "humbert" / "__init__.py").is_file():
        print("error: %s/src/humbert not found; run from a humbert checkout"
              % ROOT, file=sys.stderr)
        return 2

    machine = machine_record()
    print("machine " + json.dumps(machine), flush=True)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    n_ops = len(workloads.OP_NAMES[args.workload])

    passes, traced, errors = [], [], []
    while True:
        try:
            passes.append(worker(base, deadline))
            if args.trace:
                spans_file = OUT / ("spans-%s-seed%d-%d.jsonl"
                                    % (args.workload, args.seed, len(traced)))
                traced.append(worker(base + ["--spans", str(spans_file)],
                                     deadline))
        except PassFailed as exc:
            errors.append(str(exc))
            break
        if time.monotonic() - started >= args.seconds:
            break
    setups = [p["setup_s"] for p in passes + traced]
    while not errors and len(setups) < MIN_SETUPS:
        try:
            setups.append(worker(base + ["--setup-only"], deadline)["setup_s"])
        except PassFailed as exc:
            errors.append(str(exc))

    records = passes + traced
    attempted = n_ops * (len(records) + len(errors))
    failed = n_ops * len(errors) + sum(
        not op["ok"] for r in records for op in r["ops"])
    for msg in errors:
        print("error: " + msg, file=sys.stderr)

    walls = [p["wall_s"] for p in passes]
    metrics = {}
    if args.trace and traced:
        for name, unit in layers.PER_LAYER:
            metrics[name] = {"value": median([t["layers"][name]
                                              for t in traced]),
                             "unit": unit}
        metrics["trace.overhead_s"]["value"] = (
            median([t["wall_s"] for t in traced]) - median(walls))
    elif not args.trace and passes:
        values = {"wall_s": median(walls), "setup_s": median(setups),
                  "peak_rss_mb": median([p["peak_rss_mb"] for p in passes])}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    print("workload %s seed %d trace %d: %d pass(es), %d set-up(s), %.1f s"
          % (args.workload, args.seed, args.trace, len(passes),
             len(setups), time.monotonic() - started))
    for r in records[:1]:
        for op in r["ops"]:
            print("  op %-12s %9.3f s  %s" % (
                op["name"], op["seconds"], "ok" if op["ok"] else "FAILED"))
    for name, m in metrics.items():
        print("%s %s %s" % (name, m["value"], m["unit"]))
    print("fail_ratio %s (%d/%d)" % (failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
