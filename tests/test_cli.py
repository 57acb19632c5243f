import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lacsum import count_quadruple_solutions, lacunary_set, records
from lacsum.cli import run
from lacsum.records import load_record


def run_in(tmp_path, *args, capsys=None):
    code = run(["--runs-dir", str(tmp_path / "runs"), *args])
    out = capsys.readouterr().out if capsys is not None else None
    return code, out


def only_record_dir(tmp_path):
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) >= 1
    return runs[-1]


def test_import_loads_numpy_only():
    # importing the package and every submodule loads no installed package but numpy;
    # every one is imported because the namespace and the CLI load their layers lazily
    code = (
        "import importlib, pkgutil, site, sys, sysconfig\n"
        "dirs = (*site.getsitepackages(), site.getusersitepackages(),"
        " *(sysconfig.get_paths()[k] for k in ('purelib', 'platlib')))\n"
        "before = set(sys.modules)\n"
        "import lacsum\n"
        "names = [m.name for m in pkgutil.iter_modules(lacsum.__path__)]\n"
        "assert len(names) == 11, names\n"
        "for name in names: importlib.import_module('lacsum.' + name)\n"
        "files = {m: getattr(sys.modules[m], '__file__', None) or '' for m in set(sys.modules) - before}\n"
        "print(sorted({m.split('.')[0] for m, f in files.items() if f.startswith(dirs)}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "['numpy']"


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert run(["norms", "--freqs", "1,2", "--bogus"]) == 1
    assert run(["clt", "--freqs", "1,2", "--phi-grid", "default"]) == 1


def test_eval_payload(tmp_path, capsys):
    code, out = run_in(
        tmp_path, "eval", "--freqs", "1,2", "--theta", "0.25", capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    # S(1/4) = i + (-1) = -1 + i
    assert abs(payload["re"] + 1.0) < 1e-12
    assert abs(payload["im"] - 1.0) < 1e-12
    assert abs(payload["abs"] - math.sqrt(2)) < 1e-12


def test_norms_quad_and_record(tmp_path, capsys):
    code, out = run_in(
        tmp_path, "norms", "--freqs", "1,2", "--method", "quad", capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 4 / math.pi) < 1e-9
    rec = load_record(only_record_dir(tmp_path))
    assert rec.subcommand == "norms"
    assert rec.payload == payload


def test_norms_mc_seed_is_recorded(tmp_path, capsys):
    code, out = run_in(
        tmp_path,
        "norms",
        "--lacunary",
        "8,4",
        "--method",
        "mc",
        "--samples",
        "50000",
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload["seed"], int)  # auto-drawn seed must be reported
    rec = load_record(only_record_dir(tmp_path))
    assert rec.config["seed"] == payload["seed"]


def test_norms_auto_records_its_seed_when_it_samples(tmp_path, capsys):
    # a canonical k_max above quadrature.MAX_HARMONIC sends --method auto to
    # Monte Carlo, which draws exactly --samples points
    code, out = run_in(tmp_path, "norms", "--freqs", f"1,2,{2**21 + 1}", "--samples", "20000", capsys=capsys)
    payload = json.loads(out)
    assert code == 0 and payload["method"] == "monte-carlo" and payload["samples"] == 20000
    run_dir = only_record_dir(tmp_path)
    assert load_record(run_dir).config == {
        "freqs": [1, 2, 2**21 + 1], "p": 1, "method": "auto", "samples": 20000, "seed": payload["seed"]}
    code, out = run_in(tmp_path, "--no-record", "replay", str(run_dir), capsys=capsys)
    assert code == 0 and json.loads(out)["replay"] == "match"


def test_norms_auto_measures_inside_the_limit_and_samples_above(tmp_path, capsys):
    for i, (freqs, method) in enumerate([
        ("1,2", "quadrature"),
        (f"1,{2**22}", "quadrature"),  # {1, 2} up to dilation: the canonical k_max sets the limit
        (f"1,2,{2**21 + 1}", "monte-carlo"),
    ]):
        code, out = run_in(tmp_path / str(i), "norms", "--freqs", freqs, "--samples", "1000", capsys=capsys)
        assert code == 0 and json.loads(out)["method"] == method
        recorded = {"samples", "seed"} & set(load_record(only_record_dir(tmp_path / str(i))).config)
        assert recorded == ({"samples", "seed"} if method == "monte-carlo" else set()), freqs


def test_norms_auto_falls_back_to_the_mc_run(tmp_path, capsys):
    # above the limit, --method auto makes the very call --method mc makes,
    # at the default 10^6 samples
    argv = ["--no-record", "norms", "--lacunary", "8,16", "--seed", "1"]
    code, auto = run_in(tmp_path, *argv, capsys=capsys)
    assert code == 0
    code, mc = run_in(tmp_path, *argv, "--method", "mc", capsys=capsys)
    assert code == 0 and auto == mc
    assert json.loads(auto)["samples"] == 10**6 and json.loads(auto)["std_error"] < 5e-3


def test_norms_auto_sample_cap_fails_fast(tmp_path, capsys):
    start = time.perf_counter()
    code = run(["--runs-dir", str(tmp_path / "runs"), "norms", "--lacunary", "8,16", "--samples", "1e11"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "MAX_MC_SAMPLES" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("p", ["2", "4"])
def test_norms_mc_with_p_other_than_1_is_a_usage_error(tmp_path, capsys, p):
    code = run(["--runs-dir", str(tmp_path / "runs"), "norms", "--freqs", "1,2,5", "--method", "mc", "--p", p])
    assert code == 1
    err = capsys.readouterr().err
    assert "--method mc" in err and f"--p {p}" in err
    assert not (tmp_path / "runs").exists()


def test_norms_overflow_is_computation_error(tmp_path, capsys):
    code, _ = run_in(
        tmp_path, "norms", "--lacunary", "8,30", "--method", "quad", capsys=capsys
    )
    assert code == 2


def test_norms_mc_sample_cap_fails_fast(tmp_path, capsys):
    start = time.perf_counter()
    code = run(["--runs-dir", str(tmp_path / "runs"), "norms", "--lacunary", "8,4",
                "--method", "mc", "--samples", "100000000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "MAX_MC_SAMPLES" in capsys.readouterr().err


def test_clt_kept_sample_cap_fails_fast(tmp_path, capsys):
    from lacsum.cltlab import _MAX_KEPT_SAMPLES

    start = time.perf_counter()
    code = run(["--runs-dir", str(tmp_path / "runs"), "clt", "--lacunary", "8,4",
                "--samples", str(_MAX_KEPT_SAMPLES + 1)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert str(_MAX_KEPT_SAMPLES) in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", [
    ["norms", "--lacunary", "8,4", "--method", "mc"], ["clt", "--lacunary", "8,4"], ["study", "--n-list", "2,4"],
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    code = run(["--runs-dir", str(tmp_path / "runs"), *command, "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err == "lacsum: error: seed must be in [0, 2^64), got -1\n"
    assert not (tmp_path / "runs").exists()


def test_norms_p4_is_exact_beyond_the_quadrature_budget(tmp_path, capsys):
    code, out = run_in(tmp_path, "norms", "--p", "4", "--lacunary", "8,21", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    energy = count_quadruple_solutions(lacunary_set(8, 21))
    assert energy == 861
    assert payload["method"] == "exact"
    assert payload["value"] == energy ** 0.25


def test_energy_payload(tmp_path, capsys):
    code, out = run_in(tmp_path, "energy", "--freqs", "1,2,4", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["energy"] == 15
    assert payload["is_sidon"] is True
    assert abs(payload["normalized_lower_bound"] - 3 / math.sqrt(15)) < 1e-12


def test_sidon_output_parses_as_freqs_file(tmp_path, capsys):
    from lacsum import parse_freqs_file

    code, out = run_in(tmp_path, "sidon", "--n", "6", capsys=capsys)
    assert code == 0
    path = tmp_path / "sidon.txt"
    path.write_text(out)
    assert parse_freqs_file(path).freqs == (1, 2, 4, 8, 13, 21)


def test_clt_report_and_csv(tmp_path, capsys):
    report = tmp_path / "report.json"
    csv = tmp_path / "phi.csv"
    code, out = run_in(
        tmp_path,
        "clt",
        "--lacunary",
        "8,4",
        "--samples",
        "50000",
        "--seed",
        "5",
        "--chain-audit",
        "--report",
        str(report),
        "--csv",
        str(csv),
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.8 < payload["radial_mean"] < 1.0
    assert json.loads(report.read_text()) == payload
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("s,t,")
    assert len(lines) > 1


def test_search_exhaustive(tmp_path, capsys):
    code, out = run_in(
        tmp_path, "search", "--n", "2", "--max-freq", "10", capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["best_set"] == [1, 2]
    assert abs(payload["best_value"] - 4 / (math.pi * math.sqrt(2))) < 1e-8


def test_study_payload_and_csv(tmp_path, capsys):
    csv = tmp_path / "study.csv"
    code, out = run_in(
        tmp_path,
        "study",
        "--q",
        "8",
        "--n-list",
        "1,2",
        "--samples",
        "5e4",
        "--seed",
        "7",
        "--csv",
        str(csv),
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["n"] for r in payload["rows"]] == [1, 2]
    assert payload["samples"] == 50000 and "rate_fit" not in payload
    assert abs(payload["limit"] - math.sqrt(math.pi) / 2) < 1e-15
    header = csv.read_text().splitlines()[0]
    assert header == "n,normalized_l1,std_error,gap_to_limit"


@pytest.mark.parametrize("n_list", ["", ",", " , "])
def test_study_rejects_empty_n_list(tmp_path, capsys, n_list):
    code = run(["--runs-dir", str(tmp_path / "runs"), "study", "--q", "8", "--n-list", n_list])
    assert code == 1
    assert "--n-list" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("samples", ["1.5", "1e400", "nan"])
def test_study_rejects_non_integral_samples(tmp_path, capsys, samples):
    code = run(["--runs-dir", str(tmp_path / "runs"), "study", "--n-list", "2", "--samples", samples])
    assert code == 1
    assert "--samples" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", [["norms", "--method", "mc"], ["clt"]])
def test_monte_carlo_commands_take_samples_as_whole_numbers(tmp_path, capsys, command):
    args = [*command, "--lacunary", "8,4", "--seed", "1", "--samples"]
    code, out = run_in(tmp_path, *args, "1e5", capsys=capsys)
    assert code == 0
    assert json.loads(out)["samples"] == 100_000
    assert run(["--no-record", *args, "1.5"]) == 1
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("lacunary", ["8", "8,2,3", "a,b"])
def test_malformed_lacunary_names_the_flag(tmp_path, capsys, lacunary):
    code = run(["--runs-dir", str(tmp_path / "runs"), "norms", "--lacunary", lacunary])
    assert code == 1
    err = capsys.readouterr().err
    assert "--lacunary" in err and "q,n" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "flag, args, text",
    [
        ("--freqs", ["eval", "--freqs", "1,x", "--theta", "0"], None),
        ("--freqs", ["energy", "--freqs", ","], None),
        ("--n-list", ["study", "--n-list", "4,x"], None),
        ("--freqs-file", ["energy", "--freqs-file", "{file}"], "1\nx\n"),
        ("--freqs-file", ["energy", "--freqs-file", "{file}"], "# comments only\n"),
    ],
)
def test_bad_integer_lists_are_usage_errors_naming_the_flag(tmp_path, capsys, flag, args, text):
    path = tmp_path / "freqs.txt"
    if text is not None:
        path.write_text(text)
    code = run(["--runs-dir", str(tmp_path / "runs"), *(a.format(file=path) for a in args)])
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_utc_stamp_reads_the_clock_once(monkeypatch):
    # one nanosecond before a second boundary: seconds and fraction agree
    monkeypatch.setattr(records.time, "time_ns", lambda: 1_700_000_000_999_999_999)
    assert records.utc_stamp() == "20231114T221320.999999999"


@pytest.mark.parametrize(
    "flag, args",
    [
        ("--freqs-file", ["norms", "--freqs-file", "{missing}"]),
        ("--csv", ["study", "--n-list", "2", "--samples", "1000", "--seed", "1", "--csv", "{missing}"]),
        ("--csv", ["clt", "--lacunary", "8,2", "--samples", "1000", "--seed", "1", "--csv", "{missing}"]),
        ("--report", ["clt", "--lacunary", "8,2", "--samples", "1000", "--seed", "1", "--report", "{missing}"]),
    ],
)
def test_file_flag_errors_are_one_line(tmp_path, capsys, flag, args):
    missing = str(tmp_path / "no-such-dir" / "file")
    code = run(["--runs-dir", str(tmp_path / "runs"), *(a.format(missing=missing) for a in args)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"lacsum: error: {flag}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("runs_dir", ["afile", "afile/runs"])
def test_unusable_runs_dir_is_a_usage_error_before_the_run(tmp_path, capsys, runs_dir):
    (tmp_path / "afile").write_text("")
    code = run(["--runs-dir", str(tmp_path / runs_dir), "eval", "--freqs", "1,2", "--theta", "0.1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == f"lacsum: error: --runs-dir: {tmp_path / 'afile'} is not a directory\n"
    assert out == ""  # refused before the executor ran


def test_runs_dir_under_an_unsearchable_directory_is_a_usage_error(tmp_path, capsys):
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0)
    try:
        if os.access(locked, os.X_OK):
            pytest.skip("this process may search any directory (root)")
        code = run(["--runs-dir", str(locked / "a" / "runs"), "eval", "--freqs", "1,2", "--theta", "0.1"])
    finally:
        locked.chmod(0o700)
    out, err = capsys.readouterr()
    assert code == 1
    assert err == f"lacsum: error: --runs-dir: {locked} is not writable\n"
    assert out == ""


def test_failed_record_write_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def write_record(runs_dir, record):
        raise PermissionError(13, "Permission denied", str(runs_dir))

    monkeypatch.setattr(records, "write_record", write_record)
    code = run(["--runs-dir", str(tmp_path / "runs"), "eval", "--freqs", "1,2", "--theta", "0.1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["n"] == 2  # the payload went out before the write
    assert err == f"lacsum: error: --runs-dir: [Errno 13] Permission denied: '{tmp_path / 'runs'}'\n"


def test_replay_matches(tmp_path, capsys):
    code, _ = run_in(
        tmp_path,
        "norms",
        "--lacunary",
        "8,4",
        "--method",
        "mc",
        "--samples",
        "20000",
        "--seed",
        "3",
        capsys=capsys,
    )
    assert code == 0
    run_dir = only_record_dir(tmp_path)
    code, out = run_in(tmp_path, "--no-record", "replay", str(run_dir), capsys=capsys)
    assert code == 0
    assert "match" in out


def test_replay_detects_tampering(tmp_path, capsys):
    code, _ = run_in(
        tmp_path,
        "norms",
        "--freqs",
        "1,2",
        "--method",
        "quad",
        capsys=capsys,
    )
    assert code == 0
    run_dir = only_record_dir(tmp_path)
    rec_path = run_dir / "record.json"
    data = json.loads(rec_path.read_text())
    data["payload"]["value"] = 999.0
    rec_path.write_text(json.dumps(data))
    code, out = run_in(tmp_path, "--no-record", "replay", str(run_dir), capsys=capsys)
    assert code == 3
    assert "mismatch" in out


def test_replay_rejects_other_schema(tmp_path, capsys):
    code, _ = run_in(tmp_path, "energy", "--freqs", "1,2,5", capsys=capsys)
    assert code == 0
    rec_path = only_record_dir(tmp_path) / "record.json"
    data = json.loads(rec_path.read_text())
    current = data["schema"]
    data["schema"] = current - 1
    rec_path.write_text(json.dumps(data))
    code = run(["--no-record", "replay", str(rec_path.parent)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"schema {current - 1}" in err and f"schema {current}" in err


def test_replay_maps_rerun_errors_to_exit_codes(tmp_path, capsys):
    # a re-run that raises ends like `run` does: one `lacsum:` line, no traceback
    code, _ = run_in(
        tmp_path, "norms", "--freqs", "1,2", "--method", "mc", "--samples", "100", capsys=capsys
    )
    assert code == 0
    rec_path = only_record_dir(tmp_path) / "record.json"
    original = json.loads(rec_path.read_text())
    for key, value, expected in (("freqs", [1, 1], 2), ("samples", 0, 1)):
        data = json.loads(json.dumps(original))
        data["config"][key] = value
        rec_path.write_text(json.dumps(data))
        code = run(["--no-record", "replay", str(rec_path.parent)])
        err = capsys.readouterr().err
        assert code == expected, key
        assert err.startswith("lacsum: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_no_record_writes_nothing(tmp_path, capsys):
    code, _ = run_in(
        tmp_path, "--no-record", "energy", "--freqs", "1,2", capsys=capsys
    )
    assert code == 0
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "2", "--max-freq", "6"],
        ["norms", "--p", "4", "--lacunary", "8,5"],
        ["norms", "--freqs", "1,2,5"],  # --method auto takes quadrature here
        ["norms", "--freqs", "1,2,5", "--samples", "{n}"],  # and reads no samples
    ],
)
def test_unread_flags_stay_out_of_the_record(tmp_path, capsys, argv):
    # no run reads a seed, so two runs without --seed record the same config;
    # an {n} placeholder takes a different --samples in each run
    hashes = []
    for run_dir, n in (("a", "1000"), ("b", "2000")):
        assert run(["--runs-dir", str(tmp_path / run_dir), *(x.format(n=n) for x in argv)]) == 0
        hashes.append(load_record(next((tmp_path / run_dir).iterdir())).input_hash)
    assert hashes[0] == hashes[1]


def _lacunary(q, n):
    return [q**k for k in range(1, n + 1)]


# The README CLI examples, each with an explicit --seed where the subcommand
# takes one, and the config and input_hash of their records: the flags the
# executor read, with the frequencies resolved.
README_RECORDS = [
    (["eval", "--freqs", "1,2,5", "--theta", "0.25"],
     {"freqs": [1, 2, 5], "theta": 0.25},
     "75d30b9b8236e4e3107f4ab1bbf56d1dfce4d1f2736d805b603f788867722659"),
    (["norms", "--lacunary", "8,12", "--method", "mc", "--samples", "1000000", "--seed", "7"],
     {"freqs": _lacunary(8, 12), "p": 1, "method": "mc", "samples": 1000000, "seed": 7},
     "c65e81991c3b6f84f21e07c5ce7473a918d31dcb2761292aef1c9a347dbcfd0b"),
    (["norms", "--lacunary", "8,21", "--p", "4", "--seed", "11"],
     {"freqs": _lacunary(8, 21), "p": 4, "method": "auto"},
     "1f3c06879467adeaa550c65fbf74e44c23bf1aaa3cc2345370b266cfcad853ed"),
    (["energy", "--freqs", "1,2,4,8,13"],
     {"freqs": [1, 2, 4, 8, 13]},
     "a64bd23eff1f963e4c1c075d69330407e01ada0830acecf90821411f932c7512"),
    (["sidon", "--n", "20"],
     {"n": 20},
     "494ee598bfd761306736aa2d7c8f85b4473700f3f3b94b866a4ccfe1b7ca42ef"),
    (["clt", "--lacunary", "8,16", "--samples", "1000000", "--seed", "3", "--chain-audit",
      "--csv", "phi.csv", "--report", "report.json"],
     {"freqs": _lacunary(8, 16), "samples": 1000000, "seed": 3, "chain_audit": True},
     "0447f396a5d174049926ed739b7da2b0ad473a44014126c0663f961cb6b7b219"),
    (["search", "--n", "3", "--max-freq", "12", "--seed", "1"],
     {"n": 3, "max_freq": 12, "mode": "exhaustive"},
     "34d67e6eea77664b8e3190a313d762c7948564d7173ae950758a2a7d23ba3038"),
    (["study", "--q", "8", "--n-list", "4,8,16", "--samples", "10000000", "--seed", "7",
      "--csv", "study.csv"],
     {"q": 8, "n_list": [4, 8, 16], "samples": 10000000, "seed": 7},
     "cfd780391cd16c2b2c57a6cca85043dc2866922cd74455649fda3ae396cf7b1d"),
]


@pytest.mark.parametrize(
    "argv, config, input_hash", README_RECORDS, ids=[f"{r[0][0]}{i}" for i, r in enumerate(README_RECORDS)]
)
def test_readme_example_records_pinned_config(
    tmp_path, monkeypatch, capsys, argv, config, input_hash
):
    monkeypatch.chdir(tmp_path)  # the --csv and --report paths are relative
    code, _ = run_in(tmp_path, *argv, capsys=capsys)
    assert code == 0
    rec = load_record(only_record_dir(tmp_path))
    assert rec.command == ["lacsum", "--runs-dir", str(tmp_path / "runs"), *argv]
    assert list(rec.config.items()) == list(config.items())
    assert rec.input_hash == input_hash
    # where output goes is not part of what a replay re-runs
    assert not {"csv", "report", "runs_dir", "no_record"} & set(rec.config)
