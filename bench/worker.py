"""Runs one workload in a fresh interpreter; started by bench/run.py.

Modes:
  setup      import lacsum, build the inputs, print one JSON line, exit
  run        build, print "ready", then make one pass over the ops for each
             line read from stdin (printing "done" after each) until EOF
  trace      a warm-up pass, an untraced and a traced pass, and the per-layer
             figures
  probe      run one multiple-zero probe (killed by the parent at its deadline)
  cli-child  run the CLI with the tracer installed and dump its spans

One caller runs every op back to back (a closed loop). The last line of
stdout is the JSON result. In run mode bench/run.py decides how many passes
are made and starts its set-up samples between them, while this process
waits; so the set-up samples are spread over the run and are not children
of this process (whose peak RSS is reported).
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()
import lacsum  # noqa: E402  (timed: this is the import every user pays)

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT_PHASES = ("l1_quad", "moments", "energy", "search")


def execute(op: workloads.Op) -> tuple[dict, object]:
    """Run and check one op; a raise or a wrong output is a failed op, never fatal."""
    rec = {"name": op.name, "phase": op.phase}
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the benchmark records the failure and goes on
        rec.update(s=time.perf_counter() - start, ok=False, output=False, reason=f"raised {exc!r}"[:400])
        return rec, None
    rec["s"] = time.perf_counter() - start
    try:
        reason = op.check(result)
    except Exception as exc:  # a check that cannot read the output fails the op
        reason = f"check raised {exc!r}"[:400]
    rec["output"] = reason is None
    if reason is None and rec["s"] > workloads.OP_DEADLINE_S:
        reason = f"missed the {workloads.OP_DEADLINE_S} s deadline"
    rec.update(ok=reason is None, reason=reason)
    return rec, result


def one_pass(ops) -> dict:
    start = time.perf_counter()
    recs, results = [], {}
    for op in ops:
        rec, results[op.name] = execute(op)
        recs.append(rec)
    return {"s": time.perf_counter() - start, "ops": recs, "results": results}


def best_times(passes: list) -> dict:
    """Each op's fastest time over the passes.

    On a shared host other load slows stretches of a run, on 2 vCPUs by up
    to 1.8x; an op's fastest repetition is the figure that repeats best from
    run to run. bench/run.py fixes the number of passes per workload, so the
    minimum is over the same number of tries on every commit.
    """
    best: dict = {}
    for p in passes:
        for r in p["ops"]:
            best[r["name"]] = min(best.get(r["name"], math.inf), r["s"])
    return best


def workload_figures(workload: str, passes: list, ops) -> dict:
    """The workload's own end-to-end figures, from each op's fastest time."""
    best = best_times(passes)
    if workload == "mc_l1":
        est = passes[-1]["results"].get("l1_monte_carlo_n16")
        if est is None:
            return {}
        se = est.std_error / math.sqrt(est.n)
        return {"time_to_se1e-4_s": best["l1_monte_carlo_n16"] * (se / 1e-4) ** 2, "se_normalized": se}
    if workload == "exact":
        return {f"{phase}_s": sum(best[op.name] for op in ops if op.phase == phase)
                for phase in EXACT_PHASES}
    if workload == "cli":
        return {"cli_cmd_s": statistics.median(best.values())}
    return {}


def run_probes(workdir: Path) -> list[dict]:
    """Start every probe, then kill each one still running at its deadline."""
    deadline = workloads.PROBE_DEADLINE_S
    procs = []
    try:
        for op in workloads.probe_ops():
            proc = subprocess.Popen([sys.executable, __file__, "probe", "--name", op.name, "--workdir", str(workdir)],
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            procs.append((op.name, proc))
        started = {}
        for name, proc in procs:
            started[name] = time.perf_counter() if proc.stdout.readline() == "start\n" else None
        recs = []
        for name, proc in procs:
            rec = {"name": name, "phase": "probe", "deadline_s": deadline, "output": False}
            if started[name] is None:
                proc.wait()
                recs.append({**rec, "s": 0.0, "ok": False, "reason": f"probe exited {proc.returncode} before starting"})
                continue
            try:
                out, _ = proc.communicate(timeout=max(started[name] + deadline - time.perf_counter(), 0.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                recs.append({**rec, "s": time.perf_counter() - started[name], "ok": False, "killed": True,
                             "reason": f"killed at the {deadline} s deadline"})
                continue
            lines = out.strip().splitlines()
            recs.append(json.loads(lines[-1]) if lines else {**rec, "s": 0.0, "ok": False, "reason": "no output"})
        return recs
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def thread_baseline(ops, nproc: int) -> tuple[dict, float]:
    """The n = 16 Monte Carlo call at 1 and at nproc threads: same bits, and the speed-up."""
    op = next(o for o in ops if o.name == "l1_monte_carlo_n16")
    old = os.environ.get("LACSUM_THREADS")
    runs = {}
    try:
        for workers in (1, nproc):
            os.environ["LACSUM_THREADS"] = str(workers)
            rec, est = execute(op)
            runs[workers] = (rec, est)
    finally:
        if old is None:
            os.environ.pop("LACSUM_THREADS", None)
        else:
            os.environ["LACSUM_THREADS"] = old
    (rec1, est1), (recn, estn) = runs[1], runs[nproc]
    rec = {"name": "thread_determinism", "phase": "threads", "s": rec1["s"] + recn["s"],
           "output": rec1["output"] and recn["output"]}
    if not (rec1["ok"] and recn["ok"]):
        reason = rec1["reason"] or recn["reason"]
    elif (est1.value, est1.std_error) != (estn.value, estn.std_error):
        reason = f"1 thread gives {(est1.value, est1.std_error)}, {nproc} give {(estn.value, estn.std_error)}"
    else:
        reason = None
    rec.update(ok=reason is None, reason=reason, output=rec["output"] and reason is None)
    return rec, rec1["s"] / recn["s"]


def load_cli_spans(spans_dir: Path) -> tuple[list, Counter, Counter]:
    """Merge the span dumps of the traced CLI children; ids are offset to stay unique."""
    spans, counters, errors, offset = [], Counter(), Counter(), 0
    for path in sorted(spans_dir.glob("*.json")):
        dump = json.loads(path.read_text())
        for sid, name, start, end, parent, thread in dump["spans"]:
            spans.append((sid + offset, name, start, end, None if parent is None else parent + offset, thread))
        offset += max((s[0] for s in dump["spans"]), default=0) + 1
        counters.update(dump["counters"])
        errors.update(dump["hook_errors"])
    return spans, counters, errors


def build(args, traced: bool = False) -> list:
    ctx = None
    if args.workload == "cli":
        work = Path(args.workdir)
        launcher = [sys.executable, "-m", "lacsum.cli"]
        if traced:
            launcher = [sys.executable, __file__, "cli-child", str(work / "spans")]
        ctx = workloads.CliContext(launcher=launcher, workdir=work / "runs", env=dict(os.environ))
    return workloads.WORKLOADS[args.workload](args.seed, ctx)


def rss_mb(workload: str) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":  # the CLI processes ran the workload
        own = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return own / 1024.0


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lacsum": getattr(lacsum, "__version__", None),
        "LACSUM_THREADS": os.environ.get("LACSUM_THREADS"),
        "chunk_size": lacsum.McConfig(samples=1).chunk_size,
    }


def public(passes: list) -> list:
    return [{"s": p["s"], "ops": p["ops"]} for p in passes]


def op_seconds(p: dict) -> float:
    """Seconds spent in the ops of a pass, their checks excluded."""
    return sum(r["s"] for r in p["ops"])


def mode_run(args) -> dict:
    ops = build(args)
    print("ready", flush=True)
    passes = []
    for _ in sys.stdin:
        passes.append(one_pass(ops))
        print("done", flush=True)
    if not passes:
        raise RuntimeError("no pass was asked for")
    out = {"passes": public(passes), "best_s": best_times(passes),
           "figures": workload_figures(args.workload, passes, ops),
           "peak_rss_mb": rss_mb(args.workload), "env": versions()}
    if args.workload == "exact":
        out["extra_ops"] = run_probes(Path(args.workdir))
    return out


def mode_trace(args, nproc: int) -> dict:
    plain = build(args)
    warmup = one_pass(plain)
    untraced = one_pass(plain)
    tr = tracer.Tracer()
    ops = build(args, traced=True)
    tr.install()
    try:
        traced = one_pass(ops)
    finally:
        tr.uninstall()
    spans, counters, errors = tr.spans, tr.counters, tr.hook_errors
    if args.workload == "cli":
        spans, counters, errors = load_cli_spans(Path(args.workdir) / "spans")
    metrics = tracer.layer_metrics(spans, counters)
    metrics["trace.overhead_s"] = op_seconds(traced) - op_seconds(untraced)
    metrics["cli.import_s"] = IMPORT_S
    metrics["norms.thread_speedup"] = 0.0
    extra = []
    if args.workload == "mc_l1":
        rec, metrics["norms.thread_speedup"] = thread_baseline(ops, nproc)
        extra.append(rec)
    if args.workload == "exact":
        extra += run_probes(Path(args.workdir))
    spans_path = Path(args.workdir).parent / f"spans-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps({"spans": spans, "counters": counters}))
    return {
        "passes": public([warmup, untraced, traced]),
        "extra_ops": extra,
        "figures": workload_figures(args.workload, [untraced], ops),
        "layer_metrics": metrics,
        "absent": tr.absent,
        "hook_errors": dict(errors),
        "spans": len(spans),
        "spans_file": str(spans_path),
        "env": versions(),
    }


def mode_cli_child(argv: list) -> int:
    spans_dir, cli_args = Path(argv[0]), argv[1:]
    import lacsum.cli

    tr = tracer.Tracer()
    tr.install()
    try:
        code = lacsum.cli.run(cli_args)
    finally:
        tr.uninstall()
    spans_dir.mkdir(parents=True, exist_ok=True)
    (spans_dir / f"{os.getpid()}-{time.time_ns()}.json").write_text(
        json.dumps({"spans": tr.spans, "counters": tr.counters, "hook_errors": tr.hook_errors}))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "cli-child":
        return mode_cli_child(argv[1:])
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run", "trace", "probe"))
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nproc", type=int, default=1)
    p.add_argument("--workdir", required=True)
    p.add_argument("--name")
    args = p.parse_args(argv)
    if args.mode == "probe":
        op = next(o for o in workloads.probe_ops() if o.name == args.name)
        print("start", flush=True)
        rec, _ = execute(op)
        print(json.dumps({**rec, "deadline_s": workloads.PROBE_DEADLINE_S}), flush=True)
        return 0
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        build(args)
        print(json.dumps({"ready": True, "import_s": IMPORT_S}), flush=True)
        return 0
    out = mode_run(args) if args.mode == "run" else mode_trace(args, args.nproc)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
