"""lacsum benchmark: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in a fresh interpreter
(bench/worker.py) with PYTHONPATH=src and LACSUM_THREADS pinned to the
usable core count. One caller runs the ops back to back.

--trace 0 prints the end-to-end metrics: setup_s (the median of
SETUP_SAMPLES fresh-interpreter set-ups, `import lacsum` plus building the
inputs, started one at a time between the timed passes), wall_s (one pass
over the workload's ops, each op at its fastest of the passes) and
peak_rss_mb (of the process that ran the ops; for cli, of the largest CLI
process). The number of passes is fixed for each workload and --seconds
(see passes_for), so a faster commit does not get more tries. --trace 1
makes a warm-up, an untraced and a traced pass and prints the per-layer
metrics from bench/tracer.py. `--workload all` runs every workload in turn.

Before the result, one JSON line reports the environment, every op that
failed and why, the workload's own figures (time_to_se1e-4_s, the exact
phases, cli_cmd_s, fail_frac) and the per-pass times. The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
ROOT = Path.cwd()
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("mc_l1", "clt_audit", "exact", "cli")
# Set-up samples are spread over the run and reduced by their median: on a
# shared 2-vCPU host a run's fastest sample rests on one lucky start and
# repeated worse across runs than the median does.
SETUP_SAMPLES = 10
WORKER_TIMEOUT_S = 150
# Seconds of one pass over each workload's ops, and of one set-up sample, at
# the seed commit on 2 vCPUs. They size the run to about --seconds there and
# fix its number of passes on every later commit.
SEED_PASS_S = {"mc_l1": 1.2, "clt_audit": 2.8, "exact": 1.8, "cli": 5.5}
SEED_SETUP_S = 0.6
MIN_PASSES = 3
# A commit much slower than the seed stops making passes after PASS_LOOP_CAP_S,
# and a worker still running at RUN_DEADLINE_S is killed, so a run ends in time.
PASS_LOOP_CAP_S = 110
RUN_DEADLINE_S = 165

FIGURE_UNITS = {"time_to_se1e-4_s": "s", "se_normalized": "1", "l1_quad_s": "s", "moments_s": "s",
                "energy_s": "s", "search_s": "s", "cli_cmd_s": "s", "fail_frac": "1"}
LAYER_UNITS = {
    "rng.theta_ns_per_draw": "ns", "rng.gauss_ns_per_pair": "ns", "rng.draws": "count",
    "frequency.dyadic_ns_per_eval": "ns", "frequency.dyadic_evals": "count",
    "frequency.float_ns_per_eval": "ns", "frequency.float_evals": "count",
    "norms.self_s": "s", "norms.chunks": "count", "norms.workers": "count", "norms.thread_speedup": "ratio",
    "quadrature.panels": "count", "quadrature.levels": "count", "quadrature.self_s": "s",
    "energy.count_s": "s", "energy.pair_sums": "count", "energy.mian_chowla_s": "s",
    "cltlab.sample_s": "s", "cltlab.char_fn_s": "s", "cltlab.ks_s": "s", "cltlab.chain_audit_s": "s",
    "cltlab.alpha_mean_s": "s", "cltlab.product_moment_s": "s",
    "search.candidates": "count", "search.s_per_candidate": "s",
    "cli.import_s": "s", "records.write_s": "s", "cli.replay_s": "s",
    "trace.overhead_s": "s",
}


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["LACSUM_THREADS"] = str(nproc)
    return env


def worker_cmd(mode: str, workload: str, seed: int, workdir: Path, *extra) -> list:
    return [sys.executable, str(WORKER), mode, "--workload", workload, "--seed", str(seed),
            "--workdir", str(workdir), *extra]


def setup_sample(workload: str, seed: int, workdir: Path, env: dict) -> tuple[float, float]:
    """Seconds from process start until the inputs are built, and the `import lacsum` share."""
    start = time.perf_counter()
    proc = subprocess.Popen(worker_cmd("setup", workload, seed, workdir), stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up of {workload} exited {proc.returncode}")
    return elapsed, json.loads(line)["import_s"]


def passes_for(workload: str, seconds: float) -> int:
    budget = seconds - SETUP_SAMPLES * SEED_SETUP_S
    return max(MIN_PASSES, round(budget / SEED_PASS_S[workload]))


def last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, nproc: int, env: dict,
               workdir: Path) -> tuple[dict, list]:
    """Drive a run-mode worker pass by pass, with the set-up samples spread between the passes.

    Returns the worker's result and the set-up samples.
    """
    passes = passes_for(workload, seconds)
    before = [j * passes // SETUP_SAMPLES for j in range(SETUP_SAMPLES)]  # the pass each sample precedes
    workdir.mkdir(parents=True, exist_ok=True)
    samples = []
    with open(workdir.parent / f"{workdir.name}.stderr", "w+") as err:
        proc = subprocess.Popen(worker_cmd("run", workload, seed, workdir, "--nproc", str(nproc)),
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True, env=env)
        watchdog = threading.Timer(RUN_DEADLINE_S, proc.kill)
        watchdog.start()
        try:
            expect_line(proc, "ready", err)
            start = time.perf_counter()
            for i in range(passes):
                if i and time.perf_counter() - start > PASS_LOOP_CAP_S:
                    break
                for _ in range(before.count(i)):
                    samples.append(setup_sample(workload, seed, workdir, env))
                proc.stdin.write("pass\n")
                proc.stdin.flush()
                expect_line(proc, "done", err)
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {tail(err)}")
    return last_json(out), samples


def expect_line(proc, word: str, err) -> None:
    line = proc.stdout.readline()
    if line != word + "\n":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker sent {line!r} instead of {word!r}: {tail(err)}")


def tail(err) -> str:
    err.seek(0)
    return err.read().strip()[-2000:]


def run_worker(cmd: list, env: dict) -> dict:
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return last_json(proc.stdout)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], capture_output=True, text=True,
                               cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip() or None, "git_dirty": bool(dirty.stdout.strip())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, nproc: int, env: dict) -> tuple[dict, dict]:
    """Returns (report, result) for one workload."""
    workdir = WORKDIR / f"{workload}-{seed}-{os.getpid()}"
    try:
        if trace:
            out, samples = run_worker(worker_cmd("trace", workload, seed, workdir, "--nproc", str(nproc)), env), []
        else:
            out, samples = run_passes(workload, seed, seconds, nproc, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir.parent / f"{workdir.name}.stderr").unlink(missing_ok=True)

    records = [r for p in out["passes"] for r in p["ops"]] + out.get("extra_ops", [])
    failed = [r for r in records if not r["ok"]]
    figures = dict(out["figures"])
    figures["fail_frac"] = len(failed) / len(records)
    pass_s = [p["s"] for p in out["passes"]]
    if trace:
        metrics = {k: metric(v, LAYER_UNITS[k]) for k, v in out["layer_metrics"].items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(s[0] for s in samples), "s"),
            "wall_s": metric(sum(out["best_s"].values()), "s"),
            "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
        }
    result = {
        "correct": all(r["ok"] or r.get("killed") or r.get("output") for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": {**git_state(), "src_sha256": src_digest(), "nproc": nproc, "cpu_model": cpu_model(),
                **out["env"]},
        "load": "closed loop, one caller in one process",
        "figures": {k: metric(v, FIGURE_UNITS[k]) for k, v in figures.items()},
        "pass_s": pass_s,
        "setup_s": [s[0] for s in samples],
        "import_s": [s[1] for s in samples],
        "ops": op_summary(records),
        "failed_ops": [{k: r.get(k) for k in ("name", "phase", "s", "reason")} for r in failed],
    }
    for key in ("absent", "hook_errors", "spans", "spans_file"):
        if key in out:
            report[key] = out[key]
    return report, result


def op_summary(records: list) -> dict:
    by_name: dict = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r["s"])
    return {name: {"median_s": statistics.median(ts), "max_s": max(ts), "count": len(ts)}
            for name, ts in by_name.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "lacsum" / "__init__.py").is_file():
        print(f"bench: {ROOT / 'src' / 'lacsum'} not found; run from the root of a lacsum checkout",
              file=sys.stderr)
        return 2
    nproc = usable_cores()
    env = child_env(nproc)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            report, result = run_workload(name, args.seed, args.seconds, bool(args.trace), nproc, env)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"bench: workload {name} did not complete: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report))
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(json.dumps({"workload": name, **result}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
