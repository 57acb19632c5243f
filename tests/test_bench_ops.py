"""The benchmark's in-process operations, each run once against its own check.

The timed bench runs these ops and counts an op that raises or fails its
check as a failure; running them here shows such a failure with the unit
tests. The multiple-zero probes, which the bench runs in child processes
killed at a deadline, run here in-process; the CLI ops start child
processes and are left to the bench itself. The same ops run once more
under the bench's span tracer, as `--trace 1` runs them. bench/ is only
read: no bytecode is written there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import tracer  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("build", [workloads.mc_l1_ops, workloads.clt_audit_ops, workloads.exact_ops],
                         ids=lambda f: f.__name__)
def test_bench_op_passes_its_check(build, seed):
    ops = build(seed, None)
    assert ops
    for op in ops:
        assert op.check(op.run()) is None, op.name


@pytest.mark.parametrize("op", workloads.probe_ops(), ids=lambda op: op.name)
def test_bench_probe_passes_its_check(op):
    assert op.check(op.run()) is None, op.name


def test_ops_pass_their_checks_under_the_tracer():
    ops = [op for build in (workloads.mc_l1_ops, workloads.clt_audit_ops, workloads.exact_ops)
           for op in build(1, None)] + workloads.probe_ops()
    tr = tracer.Tracer()
    tr.install()
    try:
        failed = [op.name for op in ops if op.check(op.run()) is not None]
    finally:
        tr.uninstall()
    assert failed == []
    assert dict(tr.hook_errors) == {}
    assert tr.spans


def test_tracer_leaves_the_package_namespace_as_it_found_it():
    # in a fresh process the first read of each name comes while the tracer is installed;
    # lacsum resolves it on the submodule, so it sees the wrapper and keeps no copy of it
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import lacsum, tracer\n"
        "tr = tracer.Tracer()\n"
        "tr.install()\n"
        "traced = [lacsum.l1_monte_carlo, lacsum.clt_report]\n"
        "tr.uninstall()\n"
        "from lacsum import cltlab, norms\n"
        "originals = [norms.l1_monte_carlo, cltlab.clt_report]\n"
        "print([a is not b for a, b in zip(traced, originals)],"
        " [a is b for a, b in zip([lacsum.l1_monte_carlo, lacsum.clt_report], originals)])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[True, True] [True, True]"
