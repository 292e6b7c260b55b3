"""webweave benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload desk-n2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is timed ``SETUP_SAMPLES``
times, each in a fresh interpreter that imports ``webweave`` from
``src/`` and generates and parses the workload's inputs; then one more
fresh interpreter runs the workload (see ``worker.py``).  A human
summary, including ``fail_ratio`` and every failed job, goes to stderr
and to ``perfbench/out/``; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk-n2", "groebner-n3", "atlas-n4")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("WEAVE_PAIR_CAP", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(args, deadline: float) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("error: set-up did not finish in time")
    if proc.returncode != 0 or line.strip() != "ready":
        sys.stderr.write(err)
        raise SystemExit(f"error: set-up failed with exit code {proc.returncode}")
    return elapsed


def run_worker(args, deadline: float, trace_out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("error: the workload run did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the workload run failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(args, res: dict, metrics: dict) -> str:
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
             f"  jobs attempted {res['attempted']}  failed {res['failed']}  "
             f"fail_ratio {res['failed'] / res['attempted']:.4f}  "
             f"passes {res['passes']}  unverified {len(res['unverified'])}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for f in res["failures"]:
        lines.append(f"  FAILED {f['job']}: {f['reason']} ({f['seconds']} s)")
    for label in res["unverified"]:
        lines.append(f"  UNVERIFIED {label}: its check ran past the gate's time limit")
    for label in res.get("traced_output_mismatches") or ():
        lines.append(f"  WRONG {label}: traced output differs from the untraced one")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "webweave" / "__init__.py").is_file():
        print(f"error: no webweave sources under {ROOT / 'src'}; "
              "run from the root of a webweave checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    setups = [time_setup(args, deadline) for _ in range(SETUP_SAMPLES)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    res = run_worker(args, deadline, out_dir / f"{stem}-spans.json")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, names = res["layers"], declared["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": res["wall_s"],
                  "latency_p50_s": res["latency_p50_s"], "latency_p90_s": res["latency_p90_s"],
                  "ok_ratio": 1 - res["failed"] / res["attempted"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        names = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    text = summary(args, res, metrics)
    print(text, file=sys.stderr)
    report = {"summary": text, "setup_samples_s": setups, **res}
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))

    correct = (res["wrong"] == 0 and not res["unverified"]
               and not res.get("traced_output_mismatches"))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
