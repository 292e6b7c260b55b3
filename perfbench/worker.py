"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; prints a single JSON line with the raw results.
``--setup-only`` stops after the set-up (import, generate, parse) and
prints ``ready``, which is how ``run.py`` times set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class JobDeadline(BaseException):
    """Raised by SIGALRM in a job that passed its deadline."""


def _on_alarm(signum, frame):
    raise JobDeadline()


def _call(job, modules):
    cli, contactgeom = modules
    if job.kind == "cli":
        return cli.main(list(job.argv))
    if job.kind == "transition":
        return contactgeom.transition(*job.args)
    return contactgeom.covariance_check(*job.args)


def execute(job, deadline_s, modules) -> dict:
    """Run one job under its deadline; returns its record."""
    out, err = io.StringIO(), io.StringIO()
    rec = {"status": "ok", "code": None, "value": None}
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                value = _call(job, modules)
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobDeadline:
        end = time.perf_counter()
        rec["status"] = "deadline"
    except Exception:
        end = time.perf_counter()
        rec["status"] = "traceback"
        rec["err"] = traceback.format_exc(limit=-3)
    else:
        if job.kind == "cli":
            rec["code"] = value
            rec["status"] = {0: "ok", 2: "rejected", 3: "engine cap"}.get(value, f"exit {value}")
        else:
            rec["value"] = value
    rec["latency"] = end - start
    rec["out"] = out.getvalue()
    rec.setdefault("err", err.getvalue().strip())
    return rec


def run_passes(wl, budget_s, min_passes, modules, witness_rng, tracer=None):
    """Closed loop over the workload's passes.

    After ``min_passes``, a pass starts only if one more pass of the
    median length so far (traced copies included) still ends within
    ``budget_s``.  With a tracer, every job runs twice back to back,
    untraced and traced, in alternating order, so drift in machine speed
    cancels out of the tracing overhead; a job whose first copy passed
    its deadline is not run again, and its second copy is recorded as
    passing the deadline too.
    Returns (untraced records, traced records).
    """
    from witness import transition_witness
    from workloads import DEADLINE_S

    def one(job, p, k, traced):
        if traced:
            tracer.job = (p, k)
            tracer.install()
        try:
            rec = execute(job, DEADLINE_S, modules)
        finally:
            if traced:
                tracer.uninstall()
                tracer.reset_stack()
        if job.kind == "transition" and rec["status"] == "ok":
            rec["witness"] = transition_witness(rec.pop("value"), witness_rng)
        rec["job"] = (p, k)
        return rec

    records, traced, pass_times = [], [], []
    began = time.perf_counter()
    for p, jobs in enumerate(wl.passes):
        if p >= min_passes and (time.perf_counter() - began
                                + statistics.median(pass_times)) > budget_s:
            break
        busy = 0.0
        for k, job in enumerate(jobs):
            order = (False,) if tracer is None else ((False, True) if k % 2 else (True, False))
            first = None
            for is_traced in order:
                if first is not None and first["status"] == "deadline":
                    rec = {**first, "out": "", "err": ""}
                else:
                    rec = first = one(job, p, k, is_traced)
                (traced if is_traced else records).append(rec)
                busy += rec["latency"]
        pass_times.append(busy)
    return records, traced


def quantile(sorted_values, q):
    """Nearest-rank quantile."""
    idx = max(0, -(-len(sorted_values) * q // 1) - 1)
    return sorted_values[int(idx)]


def charged_pass_times(records, failed=frozenset()) -> list[float]:
    """Each pass's time: the sum of its job times, where a job in
    ``failed`` (or one that passed its deadline) is charged the whole
    deadline, so a job that fails fast cannot shorten a pass."""
    from workloads import DEADLINE_S

    times: dict[int, float] = {}
    for n, rec in enumerate(records):
        charge = rec["latency"]
        if n in failed or rec["status"] == "deadline":
            charge = max(charge, DEADLINE_S)
        p = rec["job"][0]
        times[p] = times.get(p, 0.0) + charge
    return [times[p] for p in sorted(times)]


def summarize(wl, records, gate) -> dict:
    """Gate every record and compute the run's end-to-end figures.

    A job fails on a traceback, a passed deadline, exit 3 (pair cap), an
    exit 2 that is not a documented input rejection, or a failed check;
    a failed check on a completed report makes the run incorrect, and so
    does a check that could not finish (``unverified``).  A failed job
    counts as slower than any latency limit and is charged the whole
    deadline in its pass's time.
    """
    from workloads import DEADLINE_S

    failures, latencies, failed = [], [], set()
    for n, rec in enumerate(records):
        p, k = rec["job"]
        job = wl.passes[p][k]
        reason, wrong = None, False
        if rec["status"] in ("ok", "rejected"):
            reason = gate.check(job, rec)
            wrong = reason is not None and rec["status"] == "ok"
        elif rec["status"] == "deadline":
            reason = f"deadline of {DEADLINE_S:g} s passed"
        else:
            lines = rec["err"].strip().splitlines()
            reason = f"{rec['status']}: {lines[-1] if lines else ''}"
        if reason is None:
            latencies.append(rec["latency"])
        else:
            failed.add(n)
            failures.append({"job": job.label, "reason": reason, "wrong": wrong,
                             "seconds": round(rec["latency"], 4)})
            latencies.append(float("inf"))
    pass_times = charged_pass_times(records, failed)
    slowest = sorted(records, key=lambda r: -r["latency"])[:40]
    latencies.sort()
    # a quantile that lands on a failed job reads as the deadline it missed
    p50, p90 = (min(quantile(latencies, q), DEADLINE_S) for q in (0.5, 0.9))
    return {"attempted": len(records), "failed": len(failures), "failures": failures,
            "wrong": sum(f["wrong"] for f in failures), "unverified": gate.unverified,
            "passes": len(pass_times), "pass_times": pass_times,
            "slowest_jobs": [(wl.passes[r["job"][0]][r["job"][1]].label,
                              round(r["latency"], 4), r["status"]) for r in slowest],
            "wall_s": statistics.median(pass_times),
            "latency_p50_s": p50, "latency_p90_s": p90}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import webweave
    if Path(webweave.__file__).resolve().parent != (ROOT / "src" / "webweave").resolve():
        print(f"error: webweave imported from {webweave.__file__}", file=sys.stderr)
        return 2
    from webweave import cli, contactgeom
    import workloads

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return measure(wl, args, (cli, contactgeom))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, args, modules) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    min_passes = 1 if args.trace else wl.min_passes
    began = time.perf_counter()
    records, traced = run_passes(wl, args.seconds, min_passes, modules,
                                 random.Random(f"witness:{args.seed}"), tracer)
    timed_s = time.perf_counter() - began
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    result = {"peak_rss_mb": rss_mb, "timed_s": timed_s, "layers": None}

    if tracer is not None:
        layers = tracer.layer_metrics()
        traced_times = charged_pass_times(traced)
        layers["trace.overhead_s"] = (statistics.median(traced_times)
                                      - statistics.median(charged_pass_times(records)))
        result["layers"] = layers
        result["traced_pass_times"] = traced_times
        result["traced_output_mismatches"] = [
            wl.passes[a["job"][0]][a["job"][1]].label for a, b in zip(records, traced)
            if a["status"] == b["status"] == "ok" and a["out"] != b["out"]]
        result["traced_failed"] = sum(r["status"] not in ("ok", "rejected") for r in traced)
        if args.trace_out:
            tracer.write(args.trace_out)

    # sympy comes in with the gate, after the timed passes and the RSS reading
    from checks import Gate

    began = time.perf_counter()
    result.update(summarize(wl, records, Gate(wl)))
    result["gate_s"] = time.perf_counter() - began
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
