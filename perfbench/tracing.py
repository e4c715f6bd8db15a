"""The traced run: per-layer numbers as curves over k.

For each family at each k in metrics.KS the run replays the pipeline stage
by stage through djem's public functions, then runs one traced
`assemble_les` and renders its report.  A span (name, start, end, parent)
is recorded around every call into a layer.  Calls that djem makes inside
its own pipeline are reached by swapping the public names that
`djem.jacquet` and `djem.cohomology` look up at call time for recording
wrappers while the run lasts; no file of djem changes.  Spans stay in
memory and are written to .perfbench_out/ when the run ends.

A span's self time is its duration minus the time its child spans cover.
The tracing overhead is the traced `assemble_les` time over the untraced
time of the same call, made right after it with the wrappers removed.
"""

from __future__ import annotations

import gzip
import importlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import metrics
import oracle
import workloads


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index]; roots carry (kind, k, family)."""

    def __init__(self):
        self.spans = []
        self.roots = []
        self._stack = [-1]

    def wrap(self, fn, name):
        """fn recording one span per call; name is a string or a function of the args."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(*args, **kwargs), 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def root(self, kind, k, family, fn, *args):
        """Call fn(*args) under a top-level span; returns its result."""
        self.roots.append((len(self.spans), kind, k, family))
        return self.wrap(fn, kind)(*args)

    def subtrees(self):
        """(first index, kind, k, family, spans of the subtree) for every root."""
        ends = [r[0] for r in self.roots[1:]] + [len(self.spans)]
        for (start, kind, k, family), end in zip(self.roots, ends):
            yield start, kind, k, family, self.spans[start:end]

    def self_times(self):
        """Self time of every span: duration minus the time of its children.

        Children of one parent run one after another in this single thread,
        so the time they cover is the sum of their durations.
        """
        covered = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, covered)]

    def write(self, path: Path):
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for start, kind, k, family in self.roots:
                out.write(json.dumps({"root": start, "kind": kind, "k": k,
                                      "family": family}) + "\n")
            for i, ((name, start, end, parent), own) in enumerate(zip(self.spans, selfs)):
                out.write(json.dumps([i, parent, name, start, end, own]) + "\n")


def _cohomology_name(module, direction, *rest, **kwargs):
    return f"cohomology.{direction}"


def _patches(tracer):
    """(module, attribute, wrapper) for every public call djem makes inside a report."""
    # djem/__init__ rebinds the name `djem.cohomology` to the function, so
    # fetch the modules themselves.
    coh = importlib.import_module("djem.cohomology")
    jq = importlib.import_module("djem.jacquet")
    plan = [(jq, "build_module", "sl2.build"), (jq, "n_finite_dual", "sl2.dual"),
            (jq, "cohomology", _cohomology_name),
            (jq, "section_cohomology_characters", "jacquet.section"),
            (jq, "stalk_cohomology_characters", "jacquet.stalk"),
            (jq, "hecke_eigenvalue", "characters.hecke"),
            (coh, "check_bracket_relations", "sl2.bracket"),
            (coh, "stabilization_certificate", "cohomology.certificate"),
            (coh, "kernel", "linalg.kernel"), (coh, "cokernel_basis", "linalg.cokernel")]
    return [(mod, attr, getattr(mod, attr), tracer.wrap(getattr(mod, attr), name))
            for mod, attr, name in plan]


class Patched:
    """Context manager that swaps djem's public names for recording wrappers."""

    def __init__(self, tracer):
        self.plan = _patches(tracer)

    def __enter__(self):
        for mod, attr, _, wrapper in self.plan:
            setattr(mod, attr, wrapper)

    def __exit__(self, *exc):
        for mod, attr, original, _ in self.plan:
            setattr(mod, attr, original)


def _replay(spec, trunc):
    """One build + dual + n + nbar pass, as a user calling the stages would."""
    jq = importlib.import_module("djem.jacquet")
    module = jq.build_module(spec, trunc)
    dual = jq.n_finite_dual(module)
    return module, jq.cohomology(dual, "n"), jq.cohomology(dual, "nbar")


def _bgg(k, trunc):
    from djem.sl2 import bgg_morphism, simple
    morphism = bgg_morphism(k, trunc)
    expected = simple(-k)
    cok = morphism.cokernel_dims()
    return morphism.is_equivariant() and all(
        cok.get(mu, 0) == expected.dim_at(mu) for mu in morphism.target.weights)


def pipeline_pass(tracer, ks):
    """One traced pass over every (k, family); returns (facts, checks, untraced)."""
    from djem.jacquet import OrlikStrauchSpec, assemble_les, les_consistency_check
    from djem.reporting import jacquet_result_json, make_document, serialize
    from djem.sl2 import default_truncation

    facts = {}      # (name, k) -> value measured directly, not from spans
    untraced = {}   # k -> untraced assemble_les seconds summed over families
    checks = []     # (what, passed)
    patched = Patched(tracer)
    for k in ks:
        trunc = default_truncation(k)
        window = bound = 0
        for family in workloads.FAMILIES:
            spec = OrlikStrauchSpec(family, k)
            with patched:
                module, res_n, res_nbar = tracer.root("replay", k, family, _replay, spec, trunc)
                report = tracer.root("jacquet.assemble", k, family, assemble_les, spec, trunc)
            result = tracer.root("reporting.json_build", k, family, jacquet_result_json, report)
            config = {"family": family, "k": k, "truncation": trunc}
            text = tracer.root("reporting.serialize", k, family, serialize,
                               make_document("jacquet", config, result))
            t0 = time.perf_counter()
            assemble_les(spec, trunc)
            untraced[k] = untraced.get(k, 0.0) + time.perf_counter() - t0
            window += len(module.weights)
            bound += sum(r.certificate.bound for r in (res_n, res_nbar))
            facts[("reporting.bytes_out", k)] = (facts.get(("reporting.bytes_out", k), 0)
                                                 + len(text.encode("utf-8")))
            checks.append((f"report {family} k={k}",
                           json.loads(text)["result"] == oracle.jacquet_result(family, k)))
        facts[("sl2.window_len", k)] = window
        facts[("cohomology.cert_bound", k)] = bound
        checks.append((f"les-check k={k}",
                       tracer.root("jacquet.les_check", k, None, les_consistency_check, k)))
        checks.append((f"bgg-check k={k}", tracer.root("sl2.bgg", k, None, _bgg, k, trunc)))
    return facts, checks, untraced


def curves(tracer, facts, untraced, ks):
    """Per-k layer metrics of one pass, from its spans."""
    selfs = tracer.self_times()
    out = {}
    for k in ks:
        total = {}      # span name -> ns inside the traced assemble_les roots
        count = {}
        own = 0         # self time of the cohomology spans
        stage = {}      # root kind -> ns
        for first, kind, rk, _, spans in tracer.subtrees():
            if rk != k:
                continue
            stage[kind] = stage.get(kind, 0) + spans[0][2] - spans[0][1]
            if kind != "jacquet.assemble":
                continue
            for name, start, end, _ in spans:
                total[name] = total.get(name, 0) + end - start
                count[name] = count.get(name, 0) + 1
            own += sum(selfs[first + i] for i, s in enumerate(spans)
                       if s[0] in ("cohomology.n", "cohomology.nbar"))
        ms = lambda ns: ns / 1e6
        assemble = stage["jacquet.assemble"]
        values = {
            "sl2.build_ms": ms(total.get("sl2.build", 0)),
            "sl2.dual_ms": ms(total.get("sl2.dual", 0)),
            "sl2.bracket_ms": ms(total.get("sl2.bracket", 0)),
            "sl2.bgg_ms": ms(stage["sl2.bgg"]),
            "sl2.window_len": facts[("sl2.window_len", k)],
            "linalg.kernel_ms": ms(total.get("linalg.kernel", 0)),
            "linalg.cokernel_ms": ms(total.get("linalg.cokernel", 0)),
            "linalg.blocks": count.get("linalg.kernel", 0) + count.get("linalg.cokernel", 0),
            "cohomology.certificate_ms": ms(total.get("cohomology.certificate", 0)),
            "cohomology.n_ms": ms(total.get("cohomology.n", 0)),
            "cohomology.nbar_ms": ms(total.get("cohomology.nbar", 0)),
            "cohomology.self_ms": ms(own),
            "cohomology.cert_bound": facts[("cohomology.cert_bound", k)],
            "jacquet.assemble_ms": ms(assemble),
            "jacquet.splice_ms": ms(assemble - total.get("jacquet.section", 0)
                                    - total.get("jacquet.stalk", 0)),
            "jacquet.les_check_ms": ms(stage["jacquet.les_check"]),
            "jacquet.rework_ratio": assemble / stage["replay"],
            "characters.hecke_ms": ms(total.get("characters.hecke", 0)),
            "reporting.json_build_ms": ms(stage["reporting.json_build"]),
            "reporting.serialize_ms": ms(stage["reporting.serialize"]),
            "reporting.bytes_out": facts[("reporting.bytes_out", k)],
            "trace.overhead_ratio": assemble / 1e9 / untraced[k],
        }
        out.update({f"{name}.k{k}": v for name, v in values.items()})
    return out


def cli_layer(root: Path, seed, repeats=5):
    """The command-line and corpus layers, which have no k."""
    from djem.cli import build_parser, corpus_manifest, corpus_run, fixture_document
    from djem.extbound import RelationDeclarations, classify_ext
    from djem.characters import SmoothCharacter

    env = workloads.child_env(root)
    bare, imported = [], []
    workloads.spawn([sys.executable, "-c", "import djem.cli"], env, root, 20)  # byte-code
    for _ in range(repeats):
        bare.append(workloads.spawn([sys.executable, "-c", "pass"], env, root, 20)[0])
        imported.append(workloads.spawn([sys.executable, "-c", "import djem.cli"],
                                        env, root, 20)[0])

    stream = workloads.oneshot_requests(seed)
    argvs = [req["argv"] for _ in range(25) for req in next(stream) if req["expect"]]
    parse = []
    for argv in argvs:
        t0 = time.perf_counter()
        build_parser().parse_args(argv)
        parse.append(time.perf_counter() - t0)

    fixtures = workloads.fixtures_dir()
    compare, checks = [], []
    for name, argv in corpus_manifest():
        document = fixture_document(argv).encode("utf-8")
        t0 = time.perf_counter()
        same = (fixtures / f"{name}.json").read_bytes() == document
        compare.append(time.perf_counter() - t0)
        checks.append((f"corpus {name}", same))

    corpus = {0: [], 2: []}
    for _ in range(3):
        for parallel in corpus:
            t0 = time.perf_counter()
            code = corpus_run(parallel=parallel, out=io.StringIO())
            corpus[parallel].append(time.perf_counter() - t0)
            checks.append((f"corpus run --parallel {parallel}", code == 0))

    psi, phi = SmoothCharacter("a", 1, 1), SmoothCharacter("b", 0, 1)
    relations = RelationDeclarations(True, False, True)
    classify = []
    for _ in range(20):
        t0 = time.perf_counter()
        case = classify_ext(-4, 2, psi, phi, relations)
        classify.append(time.perf_counter() - t0)
    want = oracle.ext_verdict(-4, 2, {"psi-eq-phi": True, "psi-delta-eq-phi-w": False,
                                      "phi-delta-eq-phi-w": True})
    checks.append(("ext-bound k=-4 ell=2", (case.verdict, list(case.fired_bullets)) == want))

    med_ms = lambda xs: statistics.median(xs) * 1000.0
    values = {
        "cli.import_ms": med_ms(imported) - med_ms(bare),
        "cli.parse_ms": med_ms(parse),
        "cli.corpus_compare_ms": med_ms(compare),
        "cli.corpus_seq_s": statistics.median(corpus[0]),
        "cli.corpus_par2_s": statistics.median(corpus[2]),
        "extbound.classify_ms": med_ms(classify),
    }
    samples = {"cli.import_ms": repeats, "cli.parse_ms": len(parse),
               "cli.corpus_compare_ms": len(compare), "cli.corpus_seq_s": 3,
               "cli.corpus_par2_s": 3, "extbound.classify_ms": len(classify)}
    return values, samples, checks


def traced_run(root: Path, seed, seconds, ks=None, spans_path=None):
    """Per-layer metrics (medians over passes), sample counts and checks.

    Passes repeat while another one fits in `seconds`; there is always one.
    The spans of the first pass are written to spans_path if given.
    """
    ks = ks or metrics.KS
    start = time.perf_counter()
    values, samples, checks = cli_layer(root, seed)
    passes = []
    first = None
    while True:
        t0 = time.perf_counter()
        tracer = Tracer()
        facts, pass_checks, untraced = pipeline_pass(tracer, ks)
        passes.append(curves(tracer, facts, untraced, ks))
        checks.extend(pass_checks)
        if first is None:
            first = tracer
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break
    for name in passes[0]:
        values[name] = statistics.median(p[name] for p in passes)
        samples[name] = len(passes)
    if spans_path is not None:
        first.write(spans_path)
    return values, samples, checks, first
