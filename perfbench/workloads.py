"""The three timed workloads, each a closed loop with one client.

Every workload turns --seed into an endless stream of passes (lists of
requests with a fixed mix), sends the next request only when the previous
one has finished, stops at the first pass boundary after --seconds once
MIN_REQUESTS were sent, and checks every output against an oracle that does
not use djem (oracle.py, the shipped golden bytes, or a documented exit
code).  Checking happens between requests and is left out of the timings.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import oracle

FAMILIES = ("verma", "dualverma", "simple")
# (label, valuation, unit) of the declared psi; see oracle.py for why these.
PSIS = (oracle.TRIVIAL, ("chi", 1, "3/2"), ("chi", -1, "2/5"), ("chi", 1, "7/3"))

CLI_TIMEOUT_S = 20.0
INPROC_TIMEOUT_S = 60.0
# p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100
# Set-up samples are spread over the run, so that one slow stretch of a
# shared machine cannot move all of them.
SIDE_INTERVALS = 12


class Tally:
    """Latencies and outcomes of one closed-loop run."""

    def __init__(self):
        self.latencies_ms = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = Counter()
        self.busy_s = 0.0
        self.pass_busy_s = []
        self.peak_rss_mb = 0.0

    def record(self, latency_s, verdict):
        """verdict is None for a correct outcome, else (kind, reason) with
        kind "wrong" (a wrong answer) or "error" (no documented answer)."""
        self.attempted += 1
        self.latencies_ms.append(latency_s * 1000.0)
        if verdict is not None:
            kind, reason = verdict
            self.failed += 1
            self.wrong += kind == "wrong"
            self.reasons[reason] += 1


def closed_loop(passes, send, check, seconds, side=None, min_requests=None):
    """Send requests one at a time, pass after pass, until `seconds` have
    passed and at least `min_requests` were sent.  Only whole passes run, so
    every run has the mix of kinds and sizes a pass was built with.  side()
    runs between requests every SIDE_INTERVALS-th of the run; its time, like
    checking, is not busy time."""
    min_requests = MIN_REQUESTS if min_requests is None else min_requests
    tally = Tally()
    start = time.perf_counter()
    next_side = start
    idle = 0.0
    for batch in passes:
        if time.perf_counter() - start >= seconds and tally.attempted >= min_requests:
            break
        pass_start, pass_idle = time.perf_counter(), idle
        for req in batch:
            now = time.perf_counter()
            if side is not None and now >= next_side:
                side()
                next_side = now + seconds / SIDE_INTERVALS
                idle += time.perf_counter() - now
            t0 = time.perf_counter()
            out = send(req)
            t1 = time.perf_counter()
            verdict = check(req, out)
            idle += time.perf_counter() - t1
            tally.record(t1 - t0, verdict)
        tally.pass_busy_s.append(time.perf_counter() - pass_start - (idle - pass_idle))
    tally.busy_s = time.perf_counter() - start - idle
    return tally


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- child processes ---------------------------------------------------------


def child_env(root: Path):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("JACQUET_TRUNC_DEFAULT", None)
    return env


def spawn(cmd, env, cwd, timeout):
    """Run cmd to completion; returns (seconds, exit code or None on timeout,
    stdout, stderr, peak RSS in MB).  The child is always reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout - time.perf_counter()
            if left <= 0 and not timed_out:
                timed_out = True
                proc.kill()
            for key, _ in sel.select(timeout=max(left, 0.05) if not timed_out else 1.0):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    # wait4 instead of Popen.wait: it also returns the child's own peak RSS.
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    code = None if timed_out else proc.returncode
    return (elapsed, code, b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
            b"".join(chunks[proc.stderr]).decode("utf-8", "replace"), usage.ru_maxrss / 1024.0)


SETUP_CODE = "import djem.cli as cli; cli.build_parser()"


class SetupProbe:
    """Wall times of fresh interpreters that import djem.cli and build the parser.

    The first start is untimed, so byte-code caches are written as a user's
    first call would have written them.
    """

    def __init__(self, root: Path):
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        self.env = child_env(root)
        self.root = root
        self.times = []
        self.sample()
        self.times.clear()

    def sample(self):
        elapsed, code, _, err, _ = spawn(self.cmd, self.env, self.root, CLI_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"set-up interpreter failed (exit {code}): {err.strip()[-300:]}")
        self.times.append(elapsed)


# -- oneshot-cli ---------------------------------------------------------------


def _even(rng, lo, hi):
    return 2 * rng.randint(math.ceil(lo / 2), math.floor(hi / 2))


def _psi_args(psi, name="psi"):
    label, val, unit = psi
    if label == "trivial":
        return [f"--{name}", "trivial"]
    return [f"--{name}", label, f"--{name}-val", str(val), f"--{name}-unit", unit]


def _jacquet_request(rng, family):
    k = _even(rng, -64 if family == "verma" else 0, 64)
    psi = rng.choice(PSIS)
    p = rng.choice((None, None, None, 3, 5, 7))
    args = ["jacquet", "--family", family, "--k", str(k)] + _psi_args(psi)
    if p is not None:
        args += ["--p", str(p)]
    return args + ["--json"], ("jacquet", family, k, psi, p)


def _success_request(rng, kind):
    """(argv, expectation) for one request that must succeed."""
    if kind.startswith("jacquet-"):
        return _jacquet_request(rng, kind[len("jacquet-"):])
    if kind == "cohomology":
        family = rng.choice(FAMILIES)
        k = _even(rng, -64 if family == "verma" else 0, 64)
        direction = rng.choice(("n", "nbar"))
        return (["cohomology", "--family", family, "--k", str(k), "--direction", direction,
                 "--json"], ("cohomology", family, k, direction))
    if kind == "ext-bound":
        ell = _even(rng, 0, 62)
        k = -(ell + 2) if rng.random() < 0.75 else _even(rng, -64, -2)
        relations = {name: rng.random() < 0.5
                     for name in ("psi-eq-phi", "psi-delta-eq-phi-w", "phi-delta-eq-phi-w")}
        args = ["ext-bound", "--k", str(k), "--ell", str(ell)]
        args += _psi_args(("a", rng.choice((0, 1, 2)), rng.choice(("1", "3/2"))), "psi")
        args += _psi_args(("b", rng.choice((0, 1)), rng.choice(("1", "5/3"))), "phi")
        for name, truth in relations.items():
            args += ["--relation", name if truth else f"not:{name}"]
        return args + ["--json"], ("ext-bound", k, ell, relations)
    k = _even(rng, 0, 64)
    return [kind, "--k", str(k), "--json"], (kind, k)


SUCCESS_KINDS = ("jacquet-verma", "jacquet-dualverma", "jacquet-simple", "cohomology",
                 "kostant", "les-check", "ext-bound", "bgg-check")


def _refusal_request(rng, kind):
    """(argv, expected exit code) for one request that must be refused."""
    if kind == "odd-k":
        k = 2 * rng.randint(-32, 31) + 1
        return ["jacquet", "--family", rng.choice(FAMILIES), "--k", str(k), "--json"], 2
    if kind == "negative-k":
        k = _even(rng, -64, -2)
        return ["jacquet", "--family", rng.choice(("simple", "dualverma")), "--k", str(k),
                "--json"], 2
    if kind == "trunc-below-bound":
        # The certificate bound of verma(-k) is k + 1 (nbar) for k >= 0.
        k = _even(rng, 8, 64)
        trunc = rng.randint(0, k)
        if rng.random() < 0.5:
            return ["jacquet", "--family", "verma", "--k", str(k), "--trunc", str(trunc),
                    "--json"], 3
        return ["cohomology", "--family", "verma", "--k", str(k), "--direction", "nbar",
                "--trunc", str(trunc), "--json"], 3
    if kind == "undeclared-relation":
        ell = _even(rng, 0, 62)
        val = str(rng.choice((0, 1)))
        return ["ext-bound", "--k", str(-(ell + 2)), "--ell", str(ell), "--psi", "a",
                "--psi-val", val, "--phi", "b", "--phi-val", val, "--json"], 4
    if kind == "trivial-misuse":
        extra = rng.choice((["--psi-val", "1"], ["--psi-unit", "3/2"]))
        return ["jacquet", "--family", "verma", "--k", str(_even(rng, -64, 64)),
                "--psi", "trivial"] + extra + ["--json"], 2
    if kind in KNOWN_DEFECT_KINDS:
        unit = kind[len("psi-unit-"):]
        return ["jacquet", "--family", rng.choice(FAMILIES), "--k", str(_even(rng, 0, 64)),
                "--psi", "chi", "--psi-unit", unit, "--json"], 2
    raise ValueError(kind)


# The documented refusals.  Two inputs that hang today are left out; see
# metrics.NOTES.
REFUSAL_KINDS = ("odd-k", "negative-k", "trunc-below-bound", "undeclared-relation",
                 "trivial-misuse")
# Two refusals that fail fast instead: exit 1 with a traceback where exit 2
# is documented.  They are probed apart from the timed requests; see
# known_defects.
KNOWN_DEFECT_KINDS = ("psi-unit-abc", "psi-unit-1/0")


def oneshot_requests(seed):
    """Passes of 8: one refusal at a seeded position, seven distinct success kinds.

    Refusal kinds cycle through a seeded order so their share is the same in
    every run; so are the success kinds (seven of the eight per pass).
    """
    rng = random.Random(seed)
    refusals = list(REFUSAL_KINDS)
    rng.shuffle(refusals)
    passes = 0
    while True:
        kinds = rng.sample(SUCCESS_KINDS, 7)
        slot = rng.randrange(8)
        batch = []
        for i in range(8):
            if i == slot:
                kind = refusals[passes % len(refusals)]
                argv, code = _refusal_request(rng, kind)
                batch.append({"kind": kind, "argv": argv, "exit": code, "expect": None})
            else:
                kind = kinds[i - (i > slot)]
                argv, expect = _success_request(rng, kind)
                batch.append({"kind": kind, "argv": argv, "exit": 0, "expect": expect})
        yield batch
        passes += 1


def expected_cli_result(expect):
    """The oracle's view of a successful CLI document: (expected, projection)."""
    what = expect[0]
    if what == "jacquet":
        _, family, k, psi, p = expect
        return oracle.jacquet_result(family, k, psi, p), lambda r: r
    if what == "cohomology":
        _, family, k, direction = expect
        want = oracle.cohomology_result(family, k, direction)
        return want, lambda r: {key: r.get(key) for key in want}
    if what == "ext-bound":
        _, k, ell, relations = expect
        verdict, fired = oracle.ext_verdict(k, ell, relations)
        want = {"k": k, "ell": ell, "verdict": verdict, "fired_bullets": fired,
                "relations": relations if k == -(ell + 2) else {}}
        return want, lambda r: {key: r.get(key) for key in want}
    _, k = expect
    extra = {"kostant": {"h0_weight": k, "h1_weight": -(k + 2)},
             "bgg-check": {"equivariant": True, "cokernel_matches_simple": True},
             "les-check": {}}[what]
    return oracle.check_result(k, **extra), lambda r: r


def check_cli(req, out):
    _, code, stdout, stderr, _ = out
    if code is None:
        return "error", f"{req['kind']}: timeout"
    if "Traceback" in stderr:
        return "error", f"{req['kind']}: traceback, exit {code}"
    if req["expect"] is None:
        if code == 0:
            return "wrong", f"{req['kind']}: accepted, exit 0"
        if code != req["exit"]:
            return "error", f"{req['kind']}: exit {code}, documented {req['exit']}"
        return None
    if code != 0:
        return "error", f"{req['kind']}: exit {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "wrong", f"{req['kind']}: output is not JSON"
    want, project = expected_cli_result(req["expect"])
    if doc.get("command") != req["argv"][0] or project(doc.get("result", {})) != want:
        return "wrong", f"{req['kind']}: output differs from the oracle"
    return None


def known_defects(root: Path, seed):
    """Run each known defect once, untimed, and check it like a timed refusal.

    Returns (cases, wrong): one entry per defect with its argv, exit code and
    the check's reason (None once the documented exit code comes back), and
    the number of cases that were accepted with exit 0.
    """
    rng = random.Random(seed)
    env = child_env(root)
    cases, wrong = [], 0
    for kind in KNOWN_DEFECT_KINDS:
        argv, code = _refusal_request(rng, kind)
        req = {"kind": kind, "argv": argv, "exit": code, "expect": None}
        out = spawn([sys.executable, "-m", "djem.cli", *argv], env, root, CLI_TIMEOUT_S)
        verdict = check_cli(req, out)
        wrong += verdict is not None and verdict[0] == "wrong"
        cases.append({"kind": kind, "argv": argv, "exit": out[1], "documented": code,
                      "reason": None if verdict is None else verdict[1]})
    return cases, wrong


def oneshot_cli(root: Path, seed, seconds, **loop):
    env = child_env(root)
    rss = []

    def send(req):
        out = spawn([sys.executable, "-m", "djem.cli", *req["argv"]], env, root, CLI_TIMEOUT_S)
        rss.append(out[4])
        return out

    send(next(oneshot_requests(seed + 1))[0])
    rss.clear()
    tally = closed_loop(oneshot_requests(seed), send, check_cli, seconds, **loop)
    tally.peak_rss_mb = max(rss)
    return tally


# -- in-process workloads ------------------------------------------------------


class RequestTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds):
    """Raise RequestTimeout in this thread after `seconds` of wall time."""
    def expire(signum, frame):
        raise RequestTimeout(f"no answer within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def guarded(fn):
    """Wrap a request so that an exception or a timeout becomes its outcome."""
    def send(req):
        try:
            with time_limit(INPROC_TIMEOUT_S):
                return fn(req)
        except RequestTimeout as err:
            return RequestTimeout(str(err))
        except Exception as err:  # a crash is one failed request, not the end of the run
            return err
    return send


def raised(req, out):
    if isinstance(out, RequestTimeout):
        return "error", f"{req[0]}: timeout"
    if isinstance(out, Exception):
        return "error", f"{req[0]}: {type(out).__name__}: {out}"
    return None


K_RANGE = (256, 4096)
STRATA = 5
OTHER_KINDS = ("cohomology", "kostant", "les-check")
GOLDEN = (5 ** 0.5 - 1) / 2


def large_k_requests(seed, k_lo, k_hi):
    """Passes of 4 * STRATA requests with k spread log-uniformly over [k_lo, k_hi].

    In each pass, stratum s of the log range holds four requests: reports of
    the three families, and one check, the nine (check kind, family) pairs
    in rotation.  Within its stratum, slot j of pass p sits at the fraction
    phase + j/4 + p * GOLDEN (mod 1), so a few passes cover the range evenly
    and runs with different seeds have nearly the same sizes: the median and
    p90 then measure the program, not the draw.  The seed picks the phase,
    the psi of each report and the order within a pass.
    """
    rng = random.Random(seed)
    span = math.log(k_hi / k_lo)
    phase = rng.random()
    passes = 0
    while True:
        batch = []
        for s in range(STRATA):
            for slot in range(4):
                u = (phase + slot / 4 + passes * GOLDEN) % 1
                k = math.exp(math.log(k_lo) + (s + u) / STRATA * span)
                k = min(max(2 * round(k / 2), k_lo), k_hi)
                if slot < 3:
                    batch.append(("report", FAMILIES[slot], k, rng.choice(PSIS)))
                else:
                    pair = (s + STRATA * passes) % (len(OTHER_KINDS) * len(FAMILIES))
                    batch.append((OTHER_KINDS[pair % len(OTHER_KINDS)],
                                  FAMILIES[pair // len(OTHER_KINDS)], k, oracle.TRIVIAL))
        rng.shuffle(batch)
        yield batch
        passes += 1


def _smooth_character(psi):
    from djem.characters import TRIVIAL_PSI, SmoothCharacter
    label, val, unit = psi
    return TRIVIAL_PSI if label == "trivial" else SmoothCharacter(label, val, Fraction(unit))


def large_k_send(req):
    from djem.cohomology import cohomology, kostant_check
    from djem.jacquet import OrlikStrauchSpec, assemble_les, build_module, les_consistency_check
    from djem.reporting import jacquet_result_json, make_document, serialize, smooth_character_json
    from djem.sl2 import default_truncation, n_finite_dual

    kind, family, k, psi = req
    trunc = default_truncation(k)
    if kind == "report":
        character = _smooth_character(psi)
        report = assemble_les(OrlikStrauchSpec(family, k, character), trunc)
        config = {"family": family, "k": k, "psi": smooth_character_json(character),
                  "truncation": trunc, "p": None}
        return serialize(make_document("jacquet", config, jacquet_result_json(report)))
    if kind == "cohomology":
        dual = n_finite_dual(build_module(OrlikStrauchSpec(family, k), trunc))
        return cohomology(dual, "n"), cohomology(dual, "nbar")
    if kind == "kostant":
        return kostant_check(k)
    return les_consistency_check(k, _smooth_character(psi))


def check_large_k(req, out):
    failure = raised(req, out)
    if failure:
        return failure
    kind, family, k, psi = req
    if kind == "report":
        doc = json.loads(out)
        ok = doc["command"] == "jacquet" and doc["result"] == oracle.jacquet_result(family, k, psi)
    elif kind == "cohomology":
        lines = lambda groups: [(g.weight, g.dim, tuple(g.labels)) for g in groups]
        ok = all(res.certified and (lines(res.h0), lines(res.h1))
                 == oracle.cohomology_lines(family, k, direction)
                 for res, direction in zip(out, ("n", "nbar")))
    else:
        ok = out is True
    return None if ok else ("wrong", f"{kind} {family} k={k}: differs from the closed form")


def large_k_sweep(seed, seconds, **loop):
    send = guarded(large_k_send)
    for family in FAMILIES:  # pay lazy set-up before timing
        send(("report", family, 8, oracle.TRIVIAL))
    tally = closed_loop(large_k_requests(seed, *K_RANGE), send, check_large_k, seconds, **loop)
    tally.peak_rss_mb = self_peak_rss_mb()
    return tally


def fixtures_dir():
    import djem
    return Path(djem.__file__).resolve().parent / "fixtures" / "corpus"


# Jobs per request.  One job's time is set by its kind, so the times of the
# 36 jobs fall in a few clusters with gaps between them, and the median and
# p90 of single jobs sit on such gaps: a little noise moves them from one
# cluster to the next.  Sums of a few jobs in a seeded order fill the gaps.
CORPUS_CHUNK = 4


def corpus_requests(seed, names):
    """The manifest in passes, each pass in a seeded order and cut into
    requests of CORPUS_CHUNK consecutive jobs."""
    rng = random.Random(seed)
    while True:
        batch = sorted(names)
        rng.shuffle(batch)
        yield [tuple(batch[i:i + CORPUS_CHUNK]) for i in range(0, len(batch), CORPUS_CHUNK)]


def corpus_send(names):
    """Run each job of the request; returns the names whose bytes differ from the golden."""
    from djem.cli import corpus_manifest, fixture_document
    differ = []
    for name in names:
        argv = dict(corpus_manifest())[name]
        document = fixture_document(argv).encode("utf-8")
        if (fixtures_dir() / f"{name}.json").read_bytes() != document:
            differ.append(name)
    return differ


def check_corpus(names, out):
    failure = raised(("+".join(names),), out)
    if failure:
        return failure
    if out:
        return "wrong", "; ".join(f"{name}: differs from the golden bytes" for name in out)
    return None


def regression_corpus(seed, seconds, **loop):
    from djem.cli import corpus_manifest
    names = [name for name, _ in corpus_manifest()]
    send = guarded(corpus_send)
    send(names)  # one untimed pass: imports, byte-code and file caches
    tally = closed_loop(corpus_requests(seed, names), send, check_corpus, seconds, **loop)
    tally.peak_rss_mb = self_peak_rss_mb()
    return tally


# The workloads BENCHMARK.json lists.
WORKLOADS = ("oneshot-cli", "regression-corpus")
# Runnable by hand only: see metrics.NOTES for why it is not listed.
BY_HAND = ("large-k-sweep",)


def run_workload(name, root: Path, seed, seconds, **loop):
    """Run one workload; loop holds closed_loop's side and min_requests."""
    if name == "oneshot-cli":
        return oneshot_cli(root, seed, seconds, **loop)
    if name == "large-k-sweep":
        return large_k_sweep(seed, seconds, **loop)
    if name == "regression-corpus":
        return regression_corpus(seed, seconds, **loop)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS + BY_HAND)}")


def summarize(tally: Tally, setup_times):
    """End-to-end metrics and their sample counts."""
    lat = tally.latencies_ms
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_ms.p50": statistics.median(lat),
        "latency_ms.p90": p90,
        "throughput_rps": tally.attempted / tally.busy_s,
        "peak_rss_mb": tally.peak_rss_mb,
    }
    samples = {
        "setup_s": len(setup_times),
        "latency_ms.p50": len(lat),
        "latency_ms.p90": len(lat),
        "latency_ms.p90.beyond": sum(x > p90 for x in lat),
        "throughput_rps": tally.attempted,
        "peak_rss_mb": 1,
    }
    return metrics, samples
