"""tovp benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload prep-64x2048 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 50

One run measures one workload.  Each run starts ``perfbench/worker.py`` in
a child process with BLAS pinned to one thread and ``src`` on the import
path, so the program is used straight from the source tree.  An untraced
worker also repeats its set-up in fresh processes between operations, and
``setup_s`` is the median of all its set-ups.  With ``--trace 0`` the last
output line is the end-to-end metrics, with ``--trace 1`` the per-layer
metrics, as one JSON object.  ``--all`` runs every workload, untraced then
traced, and prints every metric with its name and unit.

Everything the runs write goes under ``.perfbench/`` in the working
directory; operation outputs are deleted once they are checked, span
traces are kept.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

# a worker gets this long beyond --seconds to finish its last operation
GRACE_S = 110

BENCH_WORKLOADS = ("prep-64x2048", "cli-c10")
EXTRACT_WORKLOADS = ("extract-c10-t1", "extract-c10-t2")

END_TO_END = {"op_mid_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# the parts of op_mid_cpu_s and the median wall time, printed above the
# last line only
OP_DETAIL = {"op_best_cpu_s": "s", "op_mean_cpu_s": "s", "op_wall_s": "s"}
# on the extract workloads' last line only, and not in BENCHMARK.json: on a
# passing workload failed_ratio is 0, and oracle_agreement exists only for
# extract
EXTRA_END_TO_END = {"failed_ratio": "ratio", "oracle_agreement": "ratio"}
PER_LAYER = {
    "simulator_s": "s",
    "labeling_s": "s",
    "recon_s": "s",
    "objectives_s": "s",
    "sensor_model_s": "s",
    "formats.write_s": "s",
    "formats.read_s": "s",
    "evaluation_s": "s",
    "extraction.build_direction_index_s": "s",
    "cli.unspanned_s": "s",
    "tracing_overhead_s": "s",
    "cpu_util": "ratio",
    "formats.bytes_written": "B",
}
EXTRACT_PER_LAYER = {
    "formats.read_scans_s": "s",
    "extraction.extract_sequence_s": "s",
    "recon.sample_recon_points_s": "s",
    "formats.write_overlap_file_s": "s",
    "formats.write_recon_file_s": "s",
    "formats.bytes_written": "B",
    "cli.unspanned_s": "s",
    "tracing_overhead_s": "s",
    "cpu_util": "ratio",
    "extraction.records": "count",
    "extraction.records_free": "count",
    "extraction.records_occupied": "count",
    "extraction.records_unknown": "count",
    "extraction.scenario2_records": "count",
    "extraction.records_per_s": "1/s",
    "extraction.build_direction_index_s": "s",
    "extraction.band_useful_ratio": "ratio",
    "formats.read_overlap_file_s": "s",
}


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    env.pop("TOP_LOG", None)
    return env


def machine_facts(out_dir):
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                facts["ram_gb"] = round(int(line.split()[1]) / 2**20, 2)
    with open("/proc/cpuinfo") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    facts["cpu_model"] = models[0] if models else platform.processor()
    real, best = os.path.realpath(out_dir), ("", "?")
    with open("/proc/mounts") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            if (real == mount or real.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) >= len(best[0]):
                best = (mount, parts[2])
    facts["out_fs"] = best[1]
    facts["free_disk_gb"] = round(shutil.disk_usage(out_dir).free / 2**30, 2)
    return facts


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(args, env, log, limit_s, on_probe=None):
    """Run a worker to its end; returns (its stdout after READY, CPU seconds
    of its set-up).  Each ``PROBE`` line the worker prints calls
    ``on_probe`` and then lets the worker go on.  The worker and every
    process it started are killed once it ends, and after ``limit_s`` at
    the latest."""
    proc = subprocess.Popen([sys.executable, os.path.join("perfbench", "worker.py"), *args],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                            text=True, env=env, start_new_session=True)
    timer = threading.Timer(limit_s, kill_group, (proc.pid,))
    timer.start()
    ready, out = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY "):
                ready = float(line.split()[1])
            elif line == "PROBE\n" and on_probe is not None:
                on_probe()
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif ready is not None:
                out.append(line)
        proc.wait()
    finally:
        timer.cancel()
        # what is left of the worker's process group, or the worker itself
        # when this process is interrupted
        kill_group(proc.pid)
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if ready is None or proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return "".join(out), ready


def run_workload(name, seed, seconds, trace):
    """One run; returns the worker's result, with the median set-up time
    for an untraced run."""
    base = os.path.join(os.getcwd(), ".perfbench")
    run_dir = os.path.join(base, f"{name}-s{seed}-t{trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    log_path = os.path.join(run_dir, "worker.log")
    work = os.path.join(run_dir, "w")
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work", work]
    setups = []
    try:
        with open(log_path, "w") as log:
            def probe():
                probe_work = os.path.join(run_dir, "probe")
                try:
                    setups.append(run_worker(
                        ["--workload", name, "--seed", str(seed), "--seconds", "0",
                         "--setup-only", "--work", probe_work], child_env(), log, GRACE_S)[1])
                finally:
                    shutil.rmtree(probe_work, ignore_errors=True)

            out, setup = run_worker(args, child_env(), log, seconds + GRACE_S, probe)
        result = json.loads([ln for ln in out.splitlines() if ln.startswith("RESULT ")][-1][7:])
        if os.path.exists(work + ".trace.json"):
            os.replace(work + ".trace.json", os.path.join(base, f"trace-{name}-s{seed}.json"))
    except (RuntimeError, IndexError):
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not trace:
        result["setup_s"] = statistics.median([setup, *setups])
    return result


def metrics_of(name, res, trace):
    """(metrics for the last line, metrics shown only above it)."""
    extract = name in EXTRACT_WORKLOADS
    if trace:
        layer = res["layer"]
        if extract:
            s = layer.get("extraction.extract_sequence_s")
            layer["extraction.records_per_s"] = (layer["extraction.records"] / s
                                                 if s and "extraction.records" in layer else None)
        units = EXTRACT_PER_LAYER if extract else PER_LAYER
        return {k: {"value": layer.get(k), "unit": u} for k, u in units.items()}, {}
    ops, cpus = res["op_wall_s"], res["op_cpu_s"]
    values = {
        # On a shared host the same operation runs up to 1.7 times slower in
        # phases that last from seconds to tens of minutes.  The fastest
        # operation is steady when a run holds both fast and slow phases, the
        # mean when the whole run falls in one phase; their midpoint had the
        # smallest worst-case spread over ten-seed sets (see README.md).
        "op_mid_cpu_s": (min(cpus) + statistics.fmean(cpus)) / 2 if ops else None,
        "op_best_cpu_s": min(cpus) if ops else None,
        "op_mean_cpu_s": statistics.fmean(cpus) if ops else None,
        "peak_rss_mb": res["peak_rss_mb"] if ops else None,
        "setup_s": res["setup_s"],
        "op_wall_s": statistics.median(ops) if ops else None,
        "failed_ratio": res["failed"] / res["attempted"],
        "oracle_agreement": res["info"].get("oracle_agreement"),
    }
    last = dict(END_TO_END, **(EXTRA_END_TO_END if extract else {}))
    above = dict(OP_DETAIL, **({} if extract else {"failed_ratio": "ratio"}))
    return ({k: {"value": values[k], "unit": u} for k, u in last.items()},
            {k: {"value": values[k], "unit": u} for k, u in above.items()})


def report(name, seed, seconds, trace, facts):
    res = run_workload(name, seed, seconds, trace)
    facts = dict(facts, numpy=res.get("numpy"))
    metrics, extra = metrics_of(name, res, trace)
    print(f"machine: {json.dumps(facts)}")
    print(f"workload: {name} seed={seed} seconds={seconds} trace={trace} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for key, m in {**metrics, **extra}.items():
        print(f"  {key} = {m['value']} {m['unit']}")
    for text, count in res["errors"].items():
        print(f"  failure x{count}: {text}")
    if not trace and res.get("op_wall_s"):
        print(f"  op_cpu_s samples ({len(res['op_cpu_s'])}): {json.dumps(res['op_cpu_s'])}")
        print(f"  op_wall_s samples ({len(res['op_wall_s'])}): {json.dumps(res['op_wall_s'])}")
    return {"correct": res["failed"] == 0 and res["attempted"] >= 1,
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=BENCH_WORKLOADS + EXTRACT_WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, both modes")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (args.all or args.workload):
        ap.error("give --workload or --all")
    if not os.path.isfile(os.path.join("src", "tovp", "cli.py")):
        print("perfbench: no tovp source at ./src/tovp; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(".perfbench", exist_ok=True)
    facts = machine_facts(".perfbench")
    if not args.all:
        print(json.dumps(report(args.workload, args.seed, args.seconds, args.trace, facts)))
        return 0
    summary = {}
    for name in BENCH_WORKLOADS + EXTRACT_WORKLOADS:
        for trace in (0, 1):
            summary[f"{name} trace={trace}"] = report(name, args.seed, args.seconds, trace, facts)
    with open(os.path.join(".perfbench", f"all-s{args.seed}.json"), "w") as fh:
        json.dump({"machine": facts, "results": summary}, fh, indent=1)
    print(json.dumps({"machine": facts, "results": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
