"""gaglab benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

Run it from the repository root; it imports the package from ``src/``.  One
process, one thread, one client in a closed loop; ``workloads.py`` says what
each workload sends and why.

With ``--trace 0`` the run sets up several times (``setup_s`` is the median),
then repeats whole passes over the workload for about ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` it makes one untraced pass
and one traced pass and reports the per-layer metrics of the traced pass and
the tracing overhead, the ratio of the two pass times.  The environment
variable PYTHONHASHSEED is fixed to 0 by re-executing the interpreter.

Every time in the result is in reference seconds, adjusted for the host's
changing CPU speed by ``speed.SpeedProbe``; the raw times are printed beside
them.  The last line of standard output is the result as one JSON object;
the lines before it give the same figures for people, with the run's
environment.  Every answer is checked against ``data/pins.json``; ``correct``
is false, and the exit code 1, if any request failed.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

SETUPS = 5
OUT = ROOT / ".perfbench"
ALIASES = {  # the names some end-to-end figures also go by on one workload
    "catalog": {"req_per_s": ("verify_per_s", "structures/s"),
                "req_p50_ms": ("verify_p50_ms", "ms"),
                "req_p99_ms": ("verify_p99_ms", "ms")},
    "hunt": {"req_p50_ms": ("hunt_p50_ms", "ms")},
}


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_package():
    """Import gaglab afresh from src/, so each set-up pays the import."""
    src = ROOT / "src"
    for name in [n for n in sys.modules if n == "gaglab" or n.startswith("gaglab.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    cli = importlib.import_module("gaglab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"gaglab was imported from {cli.__file__}, not from {src}")
    return cli


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def timed_pass(workload, cli):
    """One pass as (start, end, PassResult)."""
    start = perf_counter()
    res = workload.run_pass(cli)
    return start, perf_counter(), res


def measure(workload, cli, seconds: float):
    """Whole passes until the next one would end after ``seconds``; at least one."""
    deadline = perf_counter() + seconds
    passes = []
    while True:
        passes.append(timed_pass(workload, cli))
        start, end, _ = passes[-1]
        if end + (end - start) > deadline:
            return passes


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "cores": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(), "platform": platform.platform()}


def end_to_end(setups, passes, clock) -> dict:
    """The end-to-end metrics, with durations taken by ``clock(start, end)``."""
    walls = [clock(s, e) for s, e, _ in passes]
    requests = [clock(s, e) for _, _, res in passes for s, e in res.spans]
    return {
        "setup_s": (statistics.median(clock(s, e) for s, e in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "req_per_s": (len(requests) / sum(walls), "1/s"),
        "req_p50_ms": (percentile(requests, 50) * 1000, "ms"),
        "req_p99_ms": (percentile(requests, 99) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(args) -> int:
    kind = workloads.WORKLOADS[args.workload]
    if not (ROOT / "src" / "gaglab" / "__init__.py").is_file():
        print(f"no package at {ROOT / 'src' / 'gaglab'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    env = environment(args)
    print("env " + json.dumps(env))
    if not kind.seeded:
        print(f"note: the seed has no effect on {args.workload}; its search is exhaustive")
    tracer = Tracer()
    try:
        with SpeedProbe() as probe:
            setups = []
            for _ in range(1 if args.trace else SETUPS):
                start = perf_counter()
                cli = import_package()
                workload = kind(args.seed, workdir)
                setups.append((start, perf_counter()))
            if args.trace:
                passes = [timed_pass(workload, cli)]
                with instrument(tracer):
                    passes.append(timed_pass(workload, cli))
            else:
                passes = measure(workload, cli, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        (rs, re_, _), (ts, te, _) = passes
        traced_s = probe.adjusted(ts, te)
        # per-layer seconds in reference seconds at the traced pass's mean speed
        scale = traced_s / (te - ts)
        metrics = {k: (v * scale if u == "s" else v, u) for k, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead"] = (traced_s / probe.adjusted(rs, re_), "ratio")
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        shown = {k: (v, None, u) for k, (v, u) in metrics.items()}
    else:
        metrics = end_to_end(setups, passes, probe.adjusted)
        plain = end_to_end(setups, passes, lambda s, e: e - s)
        shown = {k: (v, plain[k][0], u) for k, (v, u) in metrics.items()}

    attempted = sum(len(res.spans) for _, _, res in passes)
    failed = sum(res.failed for _, _, res in passes)
    correct = failed == 0
    for _, _, res in passes:
        for problem in res.problems:
            print("FAILED " + problem)
    if args.trace and metrics["search.leaf_rejects_prunable"][0]:
        print("FAILED soundness alarm: the leaf re-check rejected a structure that "
              "law pruning let through")
        correct = False
    probe_info = {"kernel_over_reference": probe.speed(), "samples": len(probe.costs)}
    report(args.workload, shown, attempted, failed, len(passes), probe_info)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"env": env, "speed_probe": probe_info,
              "raw": {k: raw_value for k, (_, raw_value, _) in shown.items()}, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def report(name: str, shown: dict, attempted: int, failed: int, passes: int,
           probe_info: dict) -> None:
    print(f"{name}: {passes} pass(es), {attempted} requests, {failed} failed; "
          f"speed probe: kernel {probe_info['kernel_over_reference']:.3f} x reference "
          f"over {probe_info['samples']} samples")
    print(f"  {'metric':44s} {'adjusted':>14s} {'raw':>14s}")
    for key, (value, raw_value, unit) in shown.items():
        for label, label_unit in filter(None, [(key, unit), ALIASES.get(name, {}).get(key)]):
            raw_text = "" if raw_value is None else f"{raw_value:14.6g}"
            print(f"  {label:44s} {value:14.6g} {raw_text:>14s} {label_unit}")
    print(f"  {'error_rate':44s} {failed / attempted:14.6g} {'':14s} failed/attempted")


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    summary = {}
    code = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            code = code or proc.returncode
            try:
                summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                summary[f"{name}/trace{trace}"] = None
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{args.seed}.json").write_text(json.dumps(summary, indent=1) + "\n",
                                                       encoding="utf-8")
    print("\nsummary (untraced end-to-end; traced overhead and soundness alarm)")
    for name in workloads.WORKLOADS:
        plain, traced = summary[f"{name}/trace0"], summary[f"{name}/trace1"]
        if plain is None or traced is None:
            print(f"  {name}: no result")
            code = code or 1
            continue
        m, t = plain["metrics"], traced["metrics"]
        print(f"  {name}: error_rate {plain['failed'] / plain['attempted']:.4g}, "
              f"wall_s {m['wall_s']['value']:.4g}, req_p50_ms {m['req_p50_ms']['value']:.4g}, "
              f"trace.overhead {t['trace.overhead']['value']:.3g}, "
              f"search.leaf_rejects {t['search.leaf_rejects']['value']} "
              f"(prunable {t['search.leaf_rejects_prunable']['value']})")
    return code


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The search checks a structure's leaf filters in frozenset order, which
        # follows the hash seed; fix it so that runs differ only by their inputs.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
