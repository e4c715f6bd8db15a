"""djem benchmark: one command for every workload, end-to-end or traced.

    python3 perfbench/run.py --workload oneshot-cli --seed 1 --seconds 30 --trace 0

Run it from the root of a djem checkout; it imports djem from ./src and
writes its span files under ./.perfbench_out/.  Workloads (see workloads.py):

  oneshot-cli        one fresh `python -m djem.cli <subcommand> ... --json` per request
  regression-corpus  four corpus-manifest jobs, each compared byte for byte with its golden
  large-k-sweep      one in-process report (or check) with even k in [256, 4096];
                     run by hand only, it is not in BENCHMARK.json (metrics.NOTES)

--trace 0 prints the end-to-end metrics of the workload (metrics.END_TO_END);
--trace 1 runs the traced pipeline replay instead and prints every per-layer
metric as a curve over k (tracing.py).  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it is the full report: environment, sample counts, failed_ratio,
failure reasons, the untimed probe of the known defects (oneshot-cli) and
notes.  Exit status is 0 when a result was printed and
2 when the benchmark could not run at all (for example, no djem sources).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"


def source_digest(src: Path):
    """sha256 over the djem sources, which identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args):
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "git_sha": git_sha(),
        "src_sha256": source_digest(ROOT / "src" / "djem"),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
        "loadavg_start": list(os.getloadavg()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + workloads.BY_HAND)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_end_to_end(args):
    probe = workloads.SetupProbe(ROOT)
    tally = workloads.run_workload(args.workload, ROOT, args.seed, args.seconds,
                                   side=probe.sample)
    probe.sample()
    setup = probe.times
    values, samples = workloads.summarize(tally, setup)
    defects, defects_wrong = [], 0
    if args.workload == "oneshot-cli":
        defects, defects_wrong = workloads.known_defects(ROOT, args.seed)
    report = {
        "samples": samples,
        "failed_ratio": tally.failed / tally.attempted,
        "wrong_answers": tally.wrong,
        "failure_reasons": dict(tally.reasons.most_common(20)),
        "latency_ms": {"min": min(tally.latencies_ms), "max": max(tally.latencies_ms),
                       "mean": statistics.fmean(tally.latencies_ms)},
        "known_defects": defects,
        "setup_s_all": setup,
        "pass_busy_s": tally.pass_busy_s,
    }
    units = metrics.end_to_end_units()
    result = {"correct": tally.wrong == 0 and defects_wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    return report, result


def run_traced(args):
    import tracing
    spans_path = ROOT / OUT_DIR / f"spans-{args.workload}.jsonl.gz"
    values, samples, checks, tracer = tracing.traced_run(ROOT, args.seed, args.seconds,
                                                         spans_path=spans_path)
    failed = [what for what, ok in checks if not ok]
    selfs = tracer.self_times()
    report = {
        "samples": samples,
        "failed_ratio": len(failed) / len(checks),
        "failure_reasons": failed[:20],
        "spans_first_pass": len(tracer.spans),
        "min_self_ns": min(selfs),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layers": {name: {"moves": moves, "shows_on": where}
                   for name, _, _, moves, where in metrics.CLI_LAYER + metrics.CURVE_LAYER},
    }
    units = metrics.per_layer_units()
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    return report, result


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "djem" / "cli.py").is_file():
        print(f"benchmark error: no djem sources under {ROOT / 'src'}; run from a djem "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("JACQUET_TRUNC_DEFAULT", None)
    try:
        import djem.cli  # noqa: F401
    except ImportError as err:
        print(f"benchmark error: cannot import djem: {err}", file=sys.stderr)
        return 2
    env = environment(args)
    report, result = (run_traced if args.trace else run_end_to_end)(args)
    env["loadavg_end"] = list(os.getloadavg())
    report = {"report": {"environment": env, **report, "notes": list(metrics.NOTES)}}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
