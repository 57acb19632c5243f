import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # importing the package and its CLI loads no installed package but numpy
    code = (
        "import site, sys, sysconfig\n"
        "dirs = (*site.getsitepackages(), site.getusersitepackages(),"
        " *(sysconfig.get_paths()[k] for k in ('purelib', 'platlib')))\n"
        "before = set(sys.modules)\n"
        "import lacsum, lacsum.cli\n"
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


def test_norms_overflow_is_computation_error(tmp_path, capsys):
    code, _ = run_in(
        tmp_path, "norms", "--lacunary", "8,30", "--method", "quad", capsys=capsys
    )
    assert code == 2


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
        "50000",
        "--seed",
        "7",
        "--csv",
        str(csv),
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["n"] for r in payload["rows"]] == [1, 2]
    assert abs(payload["limit"] - math.sqrt(math.pi) / 2) < 1e-15
    header = csv.read_text().splitlines()[0]
    assert header == "n,normalized_l1,std_error,gap_to_limit"


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


def test_no_record_writes_nothing(tmp_path, capsys):
    code, _ = run_in(
        tmp_path, "--no-record", "energy", "--freqs", "1,2", capsys=capsys
    )
    assert code == 0
    assert not (tmp_path / "runs").exists()
