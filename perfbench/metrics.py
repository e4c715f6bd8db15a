"""Names, units and directions of every metric the benchmark prints.

BENCHMARK.json at the repository root lists the same metrics; the smoke test
keeps the two in step.  Per-layer metrics ending in `.k` are curves: one
value per k in KS, named `<metric>.k<k>`, each summed over the three
families (stages that take no family are measured once per k).
"""

from __future__ import annotations

KS = (8, 64, 512, 4096)

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms.p50", "ms", "lower", 0.25),
    ("latency_ms.p90", "ms", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, end-to-end metrics it should move, workload where it shows
CLI_LAYER = (
    ("cli.import_ms", "ms", "lower", "setup_s, latency_ms.p50",
     "oneshot-cli (flat on large-k-sweep)"),
    ("cli.parse_ms", "ms", "lower", "latency_ms.p50, throughput_rps",
     "oneshot-cli, regression-corpus"),
    ("cli.corpus_compare_ms", "ms", "lower", "throughput_rps", "regression-corpus"),
    ("cli.corpus_seq_s", "s", "lower", "throughput_rps", "regression-corpus"),
    ("cli.corpus_par2_s", "s", "lower", "throughput_rps", "regression-corpus"),
    ("extbound.classify_ms", "ms", "lower", "latency_ms.p50", "oneshot-cli"),
)

CURVE_LAYER = (
    ("sl2.build_ms", "ms", "lower", "throughput_rps, peak_rss_mb", "large-k-sweep"),
    ("sl2.dual_ms", "ms", "lower", "throughput_rps, peak_rss_mb", "large-k-sweep"),
    ("sl2.bracket_ms", "ms", "lower", "throughput_rps, peak_rss_mb", "large-k-sweep"),
    ("sl2.bgg_ms", "ms", "lower", "throughput_rps, peak_rss_mb", "large-k-sweep"),
    ("sl2.window_len", "count", "lower", "denominator of the per-weight costs", "all"),
    ("linalg.kernel_ms", "ms", "lower", "throughput_rps", "large-k-sweep"),
    ("linalg.cokernel_ms", "ms", "lower", "throughput_rps", "large-k-sweep"),
    ("linalg.blocks", "count", "lower", "throughput_rps", "large-k-sweep"),
    ("cohomology.certificate_ms", "ms", "lower", "throughput_rps, latency_ms.p90",
     "large-k-sweep"),
    ("cohomology.n_ms", "ms", "lower", "throughput_rps, latency_ms.p90", "large-k-sweep"),
    ("cohomology.nbar_ms", "ms", "lower", "throughput_rps, latency_ms.p90", "large-k-sweep"),
    ("cohomology.self_ms", "ms", "lower", "throughput_rps, latency_ms.p90", "large-k-sweep"),
    ("cohomology.cert_bound", "count", "lower", "throughput_rps, latency_ms.p90",
     "large-k-sweep"),
    ("jacquet.assemble_ms", "ms", "lower", "throughput_rps", "large-k-sweep"),
    ("jacquet.splice_ms", "ms", "lower", "throughput_rps", "large-k-sweep"),
    ("jacquet.les_check_ms", "ms", "lower", "throughput_rps", "large-k-sweep"),
    ("jacquet.rework_ratio", "ratio", "lower", "throughput_rps", "large-k-sweep"),
    ("characters.hecke_ms", "ms", "lower", "latency_ms.p50", "regression-corpus"),
    ("reporting.json_build_ms", "ms", "lower", "throughput_rps",
     "regression-corpus (negligible on large-k-sweep)"),
    ("reporting.serialize_ms", "ms", "lower", "throughput_rps",
     "regression-corpus (negligible on large-k-sweep)"),
    ("reporting.bytes_out", "count", "lower", "throughput_rps",
     "regression-corpus (negligible on large-k-sweep)"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced assemble_les time over the untraced time of the same call", "traced run"),
)

NOTES = (
    "failed_ratio is failed / attempted over the timed requests. It is printed in the "
    "report line, not as a metric, because it is 0 at baseline; the result line carries "
    "attempted and failed.",
    "oneshot-cli leaves out `--p 1000000000000000003` and `--psi-val 100000000 --p 3`: "
    "both hang today (trial division up to sqrt(p); rendering p**exponent exactly), so "
    "one such request would eat the whole run.",
    "`--psi-unit abc` and `--psi-unit 1/0` exit 1 with a traceback where exit 2 is "
    "documented. The timed oneshot-cli requests leave them out, so that no timed request "
    "fails at baseline; every oneshot-cli run probes both once, untimed, and prints the "
    "outcome under known_defects in the report line (reason null once fixed). An exit 0 "
    "there makes correct false.",
    "cli.corpus_par2_s runs `corpus run --parallel 2`, which uses threads; under the GIL "
    "it gains nothing over cli.corpus_seq_s at baseline.",
    "Noise: on this kind of shared 2-vCPU machine identical work runs up to 2x slower "
    "in stretches of seconds to minutes (host contention, on both vCPUs alike), so whole "
    "runs differ by 10-25% whatever the estimator; pass_busy_s in the report shows it. "
    "Timing bounds are 0.25 for that reason, and runs are 50 s long.",
    "large-k-sweep is runnable by hand (--workload large-k-sweep) but not listed in "
    "BENCHMARK.json: its requests are large and memory-bound, and the same noise moves "
    "its p50 by 29% and its throughput by 17-21% from run to run (IQR over median of "
    "five seeds), beyond or at the 0.25 bound. Its layers are still measured: every corpus and CLI request goes "
    "through sl2, linalg, cohomology and jacquet, and the traced run gives their curves "
    "up to k = 4096.",
    "correct is false only for a wrong answer: exit 0 with output that differs from the "
    "oracle, or exit 0 on a request that must be refused. A refusal with the wrong exit "
    "code, a traceback or a timeout counts in failed.",
)


def per_layer(ks=None):
    """(name, unit, better) of every per-layer metric, curves expanded over ks."""
    flat = [m[:3] for m in CLI_LAYER]
    curves = [(f"{name}.k{k}", unit, better)
              for k in ks or KS for name, unit, better, _, _ in CURVE_LAYER]
    return flat + curves


def per_layer_names(ks=None):
    return [name for name, _, _ in per_layer(ks)]


def per_layer_units(ks=None):
    return {name: unit for name, unit, _ in per_layer(ks)}


def end_to_end_units():
    return {name: unit for name, unit, _, _ in END_TO_END}
