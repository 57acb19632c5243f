"""The lazy package namespace: what `import lacsum` and each CLI command load, and on which thread."""

import functools
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lacsum

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = [
    "cli", "cltlab", "energy", "errors", "frequency", "norms", "quadrature", "records", "rng", "search", "sets",
]


def _python(*args, env=None):
    env = {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=True)


# Only Monte Carlo draws random numbers, and the L1 rule's nodes are literals,
# so the exact layers load neither of these numpy submodules.
SAMPLING_ONLY = ("numpy.random", "numpy.polynomial")


@functools.cache
def _loaded_by_bare_numpy() -> tuple:
    """The SAMPLING_ONLY modules a bare `import numpy` loads (numpy 1.x loads both eagerly)."""
    code = f"import sys, numpy\nprint(*(m for m in {SAMPLING_ONLY!r} if m in sys.modules))"
    return tuple(_python("-c", code).stdout.split())


def _skip_where_numpy_loads_them():
    eager = _loaded_by_bare_numpy()
    if eager:
        pytest.skip(f"a bare `import numpy` loads {', '.join(eager)} with this numpy")


def test_every_public_name_is_its_submodules_own_object():
    assert len(lacsum.__all__) == 46
    # the set type and its constructors live in the numpy-free module, not beside the kernel
    for name in ("FrequencySet", "canonicalize", "evaluate_sum", "lacunary_set", "make_frequency_set", "parse_freqs_file"):
        assert lacsum._OWNER[name] == "sets", name
    assert lacsum.__all__ == sorted(lacsum.__all__)
    for name in lacsum.__all__:
        owner = importlib.import_module(f"lacsum.{lacsum._OWNER[name]}")
        obj = getattr(lacsum, name)
        assert obj is getattr(owner, name), name
        assert getattr(obj, "__module__", owner.__name__) == owner.__name__, name  # defined there, not re-exported


def test_every_submodule_resolves_on_the_package():
    assert sorted(m.name for m in pkgutil.iter_modules(lacsum.__path__)) == SUBMODULES
    for name in SUBMODULES:
        assert getattr(lacsum, name) is importlib.import_module(f"lacsum.{name}")
    assert set(SUBMODULES) | set(lacsum.__all__) <= set(dir(lacsum))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'lacsum' has no attribute 'no_such_name'"):
        lacsum.no_such_name


def test_import_lacsum_loads_no_layer():
    code = (
        "import sys, lacsum\n"
        "print(sorted(m for m in ('lacsum.norms', 'lacsum.cltlab', 'lacsum.search', 'numpy.random',"
        " 'numpy.polynomial', 'concurrent.futures') if m in sys.modules))\n"
    )
    assert _python("-c", code).stdout.strip() == "[]"


def _imported(*cli_args) -> set:
    """Every module a fresh `python -m lacsum.cli *cli_args` imports, as -X importtime names them."""
    out = _python("-X", "importtime", "-m", "lacsum.cli", *cli_args)
    return {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}


def test_cli_eval_loads_only_its_layer():
    imported = _imported("--no-record", "eval", "--freqs", "1,2", "--theta", "0.25")
    assert "lacsum.sets" in imported
    assert imported.isdisjoint({"lacsum.frequency", "lacsum.norms", "lacsum.cltlab", "lacsum.search"})


def test_cli_eval_and_sidon_and_their_replays_load_no_numpy(tmp_path):
    # no command here evaluates in bulk, and energy counts <= 16 values on
    # Python ints, so none pays for importing numpy
    runs = tmp_path / "runs"
    commands = (
        ["eval", "--freqs", "1,2,5", "--theta", "0.3"], ["sidon", "--n", "20"], ["energy", "--freqs", "1,2,5"],
    )
    for args in commands:
        assert _imported("--no-record", *args).isdisjoint({"numpy", "lacsum.frequency"}), args
        _python("-m", "lacsum.cli", "--runs-dir", str(runs), *args)
    recorded = sorted(runs.iterdir())
    assert len(recorded) == len(commands)
    for run_dir in recorded:
        assert _imported("--no-record", "replay", str(run_dir)).isdisjoint({"numpy", "lacsum.frequency"}), run_dir


def test_cli_monte_carlo_commands_load_no_energy():
    # only the exact L4 norm and the fourth moment count energy
    for args in (["norms", "--lacunary", "8,6", "--method", "mc"], ["clt", "--lacunary", "8,6"]):
        imported = _imported("--no-record", *args, "--samples", "2000", "--seed", "3")
        assert "lacsum.norms" in imported and "lacsum.energy" not in imported, args


def test_replay_of_an_eval_record_loads_no_hashlib_or_secrets(tmp_path):
    # a replay hashes nothing and draws no seed
    code = "import sys\nprint(*(m for m in ('hashlib', 'secrets') if m in sys.modules))"
    eager = _python("-c", code).stdout.split()
    if eager:
        pytest.skip(f"a bare interpreter loads {', '.join(eager)} here")
    runs = tmp_path / "runs"
    _python("-m", "lacsum.cli", "--runs-dir", str(runs), "eval", "--freqs", "1,2,5", "--theta", "0.3")
    (run_dir,) = runs.iterdir()
    assert _imported("replay", str(run_dir)).isdisjoint({"hashlib", "secrets"})


def test_import_energy_loads_no_numpy():
    # numpy is imported inside the counting paths only; mian_chowla works on Python ints
    code = "import sys, lacsum.energy\nprint('numpy' in sys.modules)\n"
    assert _python("-c", code).stdout.strip() == "False"


def test_exact_layers_load_no_sampling_module():
    # every kind of call the bench's exact workload makes
    _skip_where_numpy_loads_them()
    code = (
        "import sys, lacsum\n"
        "fs = lacsum.make_frequency_set([1, 2, 6, 7])\n"
        "for p in (1, 2, 4):\n"
        "    lacsum.lp_norm_quadrature(fs, p)\n"
        "lacsum.exhaustive_sigma(3, 12)\n"
        "sidon = lacsum.mian_chowla(20)\n"
        "lacsum.holder_lower_bound(sidon), lacsum.is_sidon(sidon)\n"
        "f4 = lacsum.lacunary_set(8, 4)\n"
        "lacsum.alpha_mean(f4, 0.5, 1.0), lacsum.product_moment(f4, [1, 0, 1, 1], [0, 1, 0, 1], 0.5, 1.0)\n"
        "lacsum.fourth_moment_cos(f4)\n"
        f"print(sorted(m for m in {SAMPLING_ONLY!r} + ('lacsum.quadrature', 'lacsum.search') if m in sys.modules))\n"
    )
    assert _python("-c", code).stdout.strip() == "['lacsum.quadrature', 'lacsum.search']"


def test_cli_search_loads_no_sampling_module():
    _skip_where_numpy_loads_them()
    imported = _imported("--no-record", "search", "--n", "3", "--max-freq", "12")
    assert {"lacsum.search", "lacsum.quadrature", "lacsum.rng"} <= imported
    assert imported.isdisjoint(SAMPLING_ONLY)


def test_every_import_fires_on_the_main_thread():
    # a first import on a pool thread changes the process's peak RSS from run to run
    code = (
        "import sys, threading\n"
        "main, off, seen = threading.get_ident(), [], []\n"
        "def hook(event, args):\n"
        "    if event == 'import':\n"
        "        seen.append(args[0])\n"
        "        if threading.get_ident() != main:\n"
        "            off.append(args[0])\n"
        "sys.addaudithook(hook)\n"
        "import lacsum\n"
        "fs = lacsum.lacunary_set(8, 6)\n"
        "mc = lacsum.McConfig(samples=20_000, seed=1, chunk_size=4096)\n"
        "lacsum.l1_monte_carlo(fs, mc)\n"
        "lacsum.convergence_study(8, [2, 4], mc)\n"
        "lacsum.clt_report(fs, mc, with_chain_audit=True)\n"
        "lacsum.markov_tail_fraction(fs, mc)\n"
        "print(off, 'concurrent.futures.thread' in seen)\n"
    )
    # the pool was used (its module was imported), and no import ran on it
    assert _python("-c", code, env={"LACSUM_THREADS": "2"}).stdout.strip() == "[] True"


def test_readme_library_block_runs(capsys):
    # the README's Library example calls only names that exist, and runs as written
    readme = (SRC.parent / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```", 1)[0], "README.md", "exec"), {})
    normalized, _ = capsys.readouterr().out.split("\n")[0].split()
    assert abs(float(normalized) - 0.8862) < 0.01
