"""Closed-loop benchmark of braidplumb: time to a verified certificate.

One client, one thread: each input is certified, checked, serialized,
re-loaded and validated before the next one starts.  Run from the root of
a checkout:

    python3 perfbench/run.py --workload knots --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1).  End-to-end
times are scaled to a nominal machine speed (speed.py).  Lines before it,
starting with '#', give the run's context: tail percentile and sample
count, the speed scale and the unscaled certify median, failures, the
certificate digest, Python version and CPUs.
A wrong verdict prints a result with "correct": false and exits 1; a
checkout without the package source exits 2 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import types

import speed as sp
import tracing
from workloads import WORKLOADS, WrongVerdict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MODULES = ("errors", "braidwords", "fatgraph", "curves", "monodromy", "alexpoly", "plumbing")

LIMIT_S = 10.0  # per-input limit on certify and on verify; past it there is no verdict
# Later passes repeat only inputs whose timed total is below this.  The
# heaviest inputs, about a second and more each, then run once, and the
# budget goes to the many short inputs whose single times are the noisiest.
REPEAT_CAP_S = 0.5
MAX_RUN_S = 140.0  # no input starts after this; set-up and the last input stay within 180 s
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "certify_p50_ms": "ms",
    "certify_tail_ms": "ms",
    "verify_p50_ms": "ms",
    "verify_tail_ms": "ms",
    "inputs_per_s": "1/s",
    "verdict_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# Prefix of the reason recorded for an input that hits a known defect.
KNOWN_DEFECT = "known defect, validator rejects the certificate"


class InputTimeout(Exception):
    """Raised by SIGALRM when an input runs past LIMIT_S."""


def _on_alarm(signum, frame):
    raise InputTimeout()


@contextlib.contextmanager
def time_limit(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def load_package() -> types.SimpleNamespace:
    """Import braidplumb afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n.split(".")[0] == "braidplumb"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    bp = types.SimpleNamespace(
        **{m: importlib.import_module(f"braidplumb.{m}") for m in MODULES}
    )
    if not os.path.abspath(bp.plumbing.__file__).startswith(SRC + os.sep):
        raise ImportError(f"braidplumb was imported from {bp.plumbing.__file__}, not {SRC}")
    return bp


def direct(name, fn, *args):
    return fn(*args)


def attempt(bp, wl, item, call=direct):
    """Certify and verify one input.

    Returns (certify_s, verify_s, certificate JSON), or the reason the input
    got no verdict: past the limit, certify refusing the input with a
    DomainError (say, SearchBudgetExceeded), or one of the workload's known
    defects.  Raises WrongVerdict on any other exception, which includes the
    InternalConsistencyError the package raises on an engine bug and the
    validators raise on a rejected certificate, and on a result that fails a
    correctness gate.
    """
    try:
        with time_limit(LIMIT_S):
            t0 = time.perf_counter()
            result = call("bench.certify", wl.certify, bp, item)
            certify_s = time.perf_counter() - t0
    except InputTimeout:
        return f"no verdict within {LIMIT_S:g} s"
    except bp.errors.DomainError as exc:
        return f"certify refused the input: {exc!r}"
    except Exception as exc:
        raise WrongVerdict(f"{item.label}: certify raised {exc!r}") from exc
    if wl.check:
        wl.check(bp, item, result)

    def verify():
        text, back = call("plumbing.json", wl.roundtrip, bp, result)
        wl.validate(bp, item, back)
        return text

    try:
        with time_limit(LIMIT_S):
            t0 = time.perf_counter()
            text = call("bench.verify", verify)
            verify_s = time.perf_counter() - t0
    except InputTimeout:
        return f"verify gave no verdict within {LIMIT_S:g} s"
    except WrongVerdict:
        raise
    except Exception as exc:
        if isinstance(exc, bp.errors.InternalConsistencyError) and str(exc) in wl.known_defects:
            return f"{KNOWN_DEFECT}: {exc}"
        raise WrongVerdict(f"{item.label}: certificate does not verify: {exc!r}") from exc
    return certify_s, verify_s, text


def setup(wl, seed: int):
    """Import, input generation and one warm-up input; timed by the caller."""
    bp = load_package()
    items = wl.items(bp, seed)
    warm = min(items, key=lambda it: (it.word.length, it.label))
    if isinstance(attempt(bp, wl, warm), str):
        raise WrongVerdict(f"warm-up input {warm.label} gave no verdict")
    return bp, items


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND values beyond it, and its value.

    Nearest rank: the value with TAIL_BEYOND values above it, or the median
    when there are too few values for that.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)
    return 100.0 * rank / n, ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def spread_order(items, rng: random.Random) -> list[int]:
    """Random inputs shuffled, the fixed ones in listed order, each kind spread evenly.

    Any prefix then covers every kind, and the fixed ladders run from small
    to large, so a known failure listed last comes near the end.
    """
    by_kind: dict[str, list[int]] = {}
    for i, item in enumerate(items):
        by_kind.setdefault(item.kind, []).append(i)
    keyed = []
    for kind, members in by_kind.items():
        if kind == "random":
            rng.shuffle(members)
        keyed += [((j + 0.5) / len(members), i) for j, i in enumerate(members)]
    return [i for _, i in sorted(keyed)]


def measure(bp, wl, items, seed: int, seconds: float) -> dict:
    """Passes over the inputs until `seconds` of verdicts have been timed.

    The first pass is whole unless it runs past MAX_RUN_S; an input it does
    not reach counts as one without a verdict.  Later passes skip inputs
    that have had REPEAT_CAP_S of timed work.  An input without a verdict
    is attempted once, and its time is left out of the `seconds` and of
    every time metric: it shows in `verdict_share`.  Each time is scaled to
    the nominal machine speed (see speed.py).  Each input's latency is the
    median of its repetitions; `inputs_per_s` is the inverse of the mean
    over inputs of their median certify-plus-verify time, so every input
    weighs the same.  Peak memory is read before the first input without a
    verdict: an input stopped by the time limit holds memory in proportion
    to how far the machine got with it.
    """
    n = len(items)
    samples: list[list[tuple[int, float, float]]] = [[] for _ in items]
    digests: list = [None] * n
    failures: dict[int, str] = {}
    speed = sp.Speed()
    rng = random.Random(seed)
    order = spread_order(items, rng)
    rss = None
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while True:
        if passes:
            rng.shuffle(order)
        attempted = 0
        for i in order:
            if i in failures or (passes and sum(c + v for _, c, v in samples[i]) >= REPEAT_CAP_S):
                continue
            now = time.perf_counter()
            if passes and now >= deadline:
                break
            if now - start >= MAX_RUN_S:
                failures.update(
                    (j, f"not reached within {MAX_RUN_S:g} s")
                    for j in order
                    if not samples[j] and j not in failures
                )
                break
            attempted += 1
            mark = speed.mark()
            before = peak_rss_mb()
            t0 = time.perf_counter()
            out = attempt(bp, wl, items[i])
            if isinstance(out, str):
                failures[i] = out
                deadline += time.perf_counter() - t0
                rss = before if rss is None else rss
                continue
            c, v, text = out
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digests[i] is None:
                digests[i] = digest
            elif digests[i] != digest:
                raise WrongVerdict(f"{items[i].label}: certificate changed between passes")
            samples[i].append((mark, c, v))
        passes += 1
        now = time.perf_counter()
        if not attempted or now >= deadline or now - start >= MAX_RUN_S:
            break
    speed.sample()
    ok = [i for i in range(n) if i not in failures]
    if not ok:
        raise WrongVerdict(f"no input got a verdict: {sorted(set(failures.values()))}")

    def per_input(pick) -> list[float]:
        return [
            statistics.median(pick(c, v) * speed.scale(mark) for mark, c, v in samples[i]) * 1e3
            for i in ok
        ]

    cert = per_input(lambda c, v: c)
    ver = per_input(lambda c, v: v)
    total = per_input(lambda c, v: c + v)
    wall = [statistics.median(c for _, c, _ in samples[i]) * 1e3 for i in ok]
    pct, cert_tail = tail(cert)
    _, ver_tail = tail(ver)
    run_digest = hashlib.sha256(
        "\n".join(f"{items[i].label}:{digests[i]}" for i in ok).encode()
    ).hexdigest()
    return {
        "metrics": {
            "certify_p50_ms": statistics.median(cert),
            "certify_tail_ms": cert_tail,
            "verify_p50_ms": statistics.median(ver),
            "verify_tail_ms": ver_tail,
            "inputs_per_s": 1e3 / statistics.fmean(total),
            "verdict_share": len(ok) / n,
            "peak_rss_mb": rss if rss is not None else peak_rss_mb(),
        },
        "attempted": n,
        "failed": len(failures),
        "info": {
            "tail_percentile": pct,
            "n": len(ok),
            "samples_per_input": statistics.median(len(samples[i]) for i in ok),
            "speed_scale": sp.REF_NOMINAL_S / statistics.median(speed.samples),
            "wall_certify_p50_ms": statistics.median(wall),
            "fail_share": len(failures) / n,
            "known_defect_inputs": sum(why.startswith(KNOWN_DEFECT) for why in failures.values()),
            "failures": {items[i].label: why for i, why in sorted(failures.items())},
            "certificate_sha256": run_digest,
        },
    }


def traced_run(bp, wl, items, seed: int, seconds: float, spans_path: str) -> dict:
    """Each input runs untraced, then traced; no input starts after the deadline
    once one has been traced."""
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    failures = {}
    attempted = 0
    deadline = time.perf_counter() + seconds
    for i in spread_order(items, random.Random(seed)):
        if traced_s and time.perf_counter() >= deadline:
            break
        attempted += 1
        t0 = time.perf_counter()
        out = attempt(bp, wl, items[i])
        plain = time.perf_counter() - t0
        if isinstance(out, str):
            failures[i] = out
            continue
        tracer.input_id = i
        tracer.install(bp)
        try:
            t0 = time.perf_counter()
            out = attempt(bp, wl, items[i], tracer.call)
            traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        if isinstance(out, str):
            failures[i] = "traced: " + out
            continue
        untraced_s += plain
        traced_s += traced
    metrics = tracer.metrics(traced_s / untraced_s - 1.0)
    silent = [name for name in wl.stressed if metrics[f"{name}.calls"] == 0]
    if silent:
        raise WrongVerdict(f"wrapped layers recorded no calls on {wl.name}: {silent}")
    tracer.write_spans(spans_path)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "info": {
            "spans": len(tracer.span_name),
            "spans_file": os.path.relpath(spans_path, os.path.dirname(HERE)),
            "failures": {items[i].label: why for i, why in sorted(failures.items())},
        },
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    if trace:
        bp, items = setup(wl, seed)
        spans = os.path.join(HERE, "out", f"spans-{workload}-{seed}.tsv")
        return traced_run(bp, wl, items, seed, seconds, spans)
    speed = sp.Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        t0 = time.perf_counter()
        bp, items = setup(wl, seed)
        setups.append((mark, time.perf_counter() - t0))
        speed.sample()
    res = measure(bp, wl, items, seed, seconds)
    res["metrics"]["setup_s"] = statistics.median(s * speed.scale(mark) for mark, s in setups)
    return res


def result_line(correct: bool, res: dict, units: dict) -> str:
    metrics = {k: {"value": v, "unit": units[k]} for k, v in res.get("metrics", {}).items()}
    return json.dumps(
        {
            "correct": correct,
            "attempted": res.get("attempted", 1),
            "failed": res.get("failed", 0),
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "braidplumb")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    units = tracing.metric_units() if args.trace else END_TO_END_UNITS
    print(
        f"# python {platform.python_version()} nproc {os.cpu_count()} "
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace} limit {LIMIT_S:g}s"
    )
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WrongVerdict as exc:
        print(f"# WRONG VERDICT: {exc}")
        print(result_line(False, {}, units))
        return 1
    for key, value in res["info"].items():
        print(f"# {key}: {json.dumps(value)}")
    print(result_line(True, res, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
