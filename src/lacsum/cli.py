"""The lacsum command line: eval, norms, energy, sidon, clt, search, study, replay.

Every subcommand emits JSON to stdout (sidon emits the frequency-set file
format, clt and study can write CSV) and persists a replayable RunRecord
under runs/ unless --no-record is given. The record's config is the parsed
flags that the subcommand's executor read, with the frequencies resolved and
the seed drawn; output paths are not part of it. Exit codes: 0 success, 1
usage error (including an unreadable or unwritable file flag), 2
computation error, 3 replay mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import secrets
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import records
from .errors import FrequencyTooLarge, LacsumError
from .frequency import lacunary_set, make_frequency_set, parse_freqs_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        raise SystemExit_Usage(message)


class SystemExit_Usage(Exception):
    pass


def _int_list(text: str) -> list[int]:
    """At least one comma-separated integer; empty entries are skipped."""
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, e.g. 4,8,16; got {text!r}")
    return values


def _q_n(text: str) -> list[int]:
    """Exactly two comma-separated integers q,n."""
    try:
        q, n = _int_list(text)
    except (argparse.ArgumentTypeError, ValueError):
        raise argparse.ArgumentTypeError(f"takes q,n, e.g. 8,16; got {text!r}") from None
    return [q, n]


def _add_freq_flags(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--freqs", type=_int_list, help="comma-separated frequencies, e.g. 1,2,5")
    g.add_argument("--freqs-file", help="file with one frequency per line (# comments)")
    g.add_argument("--lacunary", type=_q_n, help="q,n for the geometric set {q,...,q^n}")


def _resolve_freqs(args) -> list[int]:
    if args.freqs_file:
        try:
            return list(parse_freqs_file(args.freqs_file).freqs)
        except (OSError, ValueError) as exc:  # an unreadable file, a bad line or an invalid set
            raise ValueError(f"--freqs-file: {exc}") from None
    return args.freqs or list(lacunary_set(*args.lacunary).freqs)


def _whole_number(text: str) -> int:
    """A whole number in integer or float notation (1000000, 1e6); not 1.5, inf or nan."""
    try:
        value = float(text)
        if value.is_integer():
            return int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")


def _resolve_seed(value) -> int:
    return int(value) if value is not None else secrets.randbits(63)


def build_parser() -> _Parser:
    parser = _Parser(prog="lacsum")
    parser.add_argument("--no-record", action="store_true", help="do not write a run record")
    parser.add_argument("--runs-dir", default="runs", help="directory for run records")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="evaluate S(theta)")
    _add_freq_flags(p)
    p.add_argument("--theta", type=float, required=True)

    p = sub.add_parser("norms", help="L^p norm estimate")
    _add_freq_flags(p)
    p.add_argument("--p", type=int, default=1, choices=(1, 2, 4))
    p.add_argument("--method", default="auto", choices=("auto", "quad", "mc"))
    p.add_argument("--samples", type=_whole_number, default=10**6)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("energy", help="additive energy and the Hoelder certificate")
    _add_freq_flags(p)

    p = sub.add_parser("sidon", help="emit a Mian-Chowla prefix")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("clt", help="empirical CLT report")
    _add_freq_flags(p)
    p.add_argument("--samples", type=_whole_number, default=10**6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chain-audit", action="store_true")
    p.add_argument("--report", help="also write the report JSON to this path")
    p.add_argument("--csv", help="write the phi grid as CSV to this path")

    p = sub.add_parser("search", help="search for the best normalized L1 set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-freq", type=int, required=True)
    p.add_argument("--mode", default="exhaustive", choices=("exhaustive", "anneal"))
    p.add_argument("--budget", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("study", help="q-lacunary convergence study")
    p.add_argument("--q", type=int, default=8)
    p.add_argument("--n-list", type=_int_list, required=True, help="comma-separated, e.g. 4,8,16")
    p.add_argument("--samples", type=_whole_number, default=10**6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", help="write rows as CSV to this path")

    p = sub.add_parser("replay", help="re-run a recorded run and verify the payload")
    p.add_argument("run_dir")

    return parser


# ---------------------------------------------------------------------------
# Pure executors: resolved config dict -> JSON payload (used by run and replay)
#
# Each executor imports the layer it calls, so a process loads only the
# layers of its own subcommand.
# ---------------------------------------------------------------------------

def _exec_eval(config: dict):
    from .frequency import evaluate_sum

    fs = make_frequency_set(config["freqs"])
    s = evaluate_sum(fs, float(config["theta"]))
    return {"schema": 1, "re": s.real, "im": s.imag, "abs": abs(s), "n": fs.n}


def _exec_norms(config: dict):
    """--method quad and auto measure with lp_norm_quadrature; mc, and auto
    above the quadrature limit, sample with l1_monte_carlo. So only a run
    that samples reads --samples and --seed."""
    from . import norms

    fs = make_frequency_set(config["freqs"])
    method, p = config["method"], config["p"]
    if method == "mc" and p != 1:
        raise ValueError(f"--method mc estimates the L1 norm only; use --p 1, not --p {p}")
    if method != "mc":
        try:
            return {"schema": 1, **asdict(norms.lp_norm_quadrature(fs, p))}
        except FrequencyTooLarge:
            if method == "quad":
                raise
    est = norms.l1_monte_carlo(fs, norms.McConfig(samples=config["samples"], seed=config["seed"]))
    return {"schema": 1, **asdict(est)}


def _exec_energy(config: dict):
    from . import energy

    fs = make_frequency_set(config["freqs"])
    cert = energy.holder_lower_bound(fs)
    return {"schema": 1, **asdict(cert)}


def _exec_sidon(config: dict):
    from . import energy

    fs = energy.mian_chowla(config["n"])
    return {"schema": 1, "n": fs.n, "freqs": list(fs.freqs)}


def _phi_point_dict(pt) -> dict:
    return {
        "s": pt.s,
        "t": pt.t,
        "phi_re": pt.phi.real,
        "phi_im": pt.phi.imag,
        "std_error": pt.std_error,
        "gaussian": pt.gaussian,
    }


def _exec_clt(config: dict):
    from . import cltlab
    from .norms import McConfig

    fs = make_frequency_set(config["freqs"])
    report = cltlab.clt_report(
        fs,
        McConfig(samples=config["samples"], seed=config["seed"]),
        with_chain_audit=config["chain_audit"],
    )
    payload = {"schema": 1, **asdict(report), "phi_grid": [_phi_point_dict(pt) for pt in report.phi_grid]}
    audit = payload.pop("chain_audit")
    if audit is not None:
        payload["chain_audit"] = {**audit, "inequalities": report.chain_audit.inequalities()}
    return payload


def _exec_search(config: dict):
    from . import search

    if config["mode"] == "exhaustive":
        result = search.exhaustive_sigma(config["n"], config["max_freq"])
    else:
        result = search.anneal_sigma(
            config["n"], config["max_freq"], config["budget"], config["seed"]
        )
    return {"schema": 1, **asdict(result), "best_set": list(result.best_set.freqs)}


def _exec_study(config: dict):
    from . import search
    from .norms import McConfig

    rows = search.convergence_study(
        config["q"],
        config["n_list"],
        McConfig(samples=config["samples"], seed=config["seed"]),
    )
    payload_rows = [asdict(r) for r in rows]
    return {
        "schema": 1,
        "q": config["q"],
        "seed": config["seed"],
        "samples": config["samples"],
        "limit": search.SQRT_PI_OVER_2,
        "rows": payload_rows,
        "sup_normalized_l1": max(r.normalized_l1 for r in rows),
    }


_EXECUTORS = {
    "eval": _exec_eval,
    "norms": _exec_norms,
    "energy": _exec_energy,
    "sidon": _exec_sidon,
    "clt": _exec_clt,
    "search": _exec_search,
    "study": _exec_study,
}


class _ReadKeys(dict):
    """A config that notes each key its executor reads by indexing; the record keeps only those."""

    def __init__(self, config: dict):
        super().__init__(config)
        self.read: set = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _config_from_args(args) -> _ReadKeys:
    """The parsed flags, in declaration order, with freqs resolved and seed drawn."""
    config = _ReadKeys(vars(args))
    if "freqs" in config:
        config["freqs"] = _resolve_freqs(args)
    if "seed" in config:
        config["seed"] = _resolve_seed(args.seed)
    return config


def _check_runs_dir(path: str) -> None:
    """Refuse a --runs-dir that cannot be made, before the run: its nearest
    existing ancestor (or itself) must be a directory this process may write."""
    target = Path(path).absolute()
    # os.path.exists, not Path.exists, which raises where an ancestor cannot
    # be searched; the walk then stops at that ancestor, which fails below
    nearest = next(p for p in (target, *target.parents) if os.path.exists(p))
    if not nearest.is_dir():
        raise ValueError(f"--runs-dir: {nearest} is not a directory")
    if not os.access(nearest, os.W_OK | os.X_OK):
        raise ValueError(f"--runs-dir: {nearest} is not writable")


@contextmanager
def _output(flag: str, path: str):
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _write_csv(path: str, columns: list, rows: list[dict]) -> None:
    with _output("--csv", path) as fh:
        writer = csv.DictWriter(fh, columns)
        writer.writeheader()
        writer.writerows(rows)


def _emit(args, payload) -> None:
    if args.subcommand == "sidon":
        for k in payload["freqs"]:
            print(k)
        return
    if getattr(args, "report", None):
        with _output("--report", args.report) as fh:
            json.dump(payload, fh, indent=2)
    if getattr(args, "csv", None):
        rows = payload["rows" if args.subcommand == "study" else "phi_grid"]
        _write_csv(args.csv, list(rows[0]), rows)
    print(json.dumps(payload))


def _replay(args) -> int:
    record = records.load_record(args.run_dir)
    if record.schema != records.SCHEMA_VERSION:
        print(
            f"lacsum: run record has schema {record.schema}; this lacsum replays "
            f"schema {records.SCHEMA_VERSION} only",
            file=sys.stderr,
        )
        return EXIT_USAGE
    fresh = _EXECUTORS[record.subcommand](record.config)
    # normalize through JSON so replay compares what was actually stored
    if json.loads(json.dumps(fresh)) == record.payload:
        print(json.dumps({"schema": 1, "replay": "match", "run_dir": args.run_dir}))
        return EXIT_OK
    print(json.dumps({"schema": 1, "replay": "mismatch", "run_dir": args.run_dir}))
    return EXIT_MISMATCH


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit_Usage as exc:
        print(f"lacsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.subcommand == "replay":
            try:
                return _replay(args)
            except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
                print(f"lacsum: invalid run record: {exc}", file=sys.stderr)
                return EXIT_USAGE
        config = _config_from_args(args)
        if not args.no_record:
            _check_runs_dir(args.runs_dir)
        started = records.utc_stamp()
        payload = _EXECUTORS[args.subcommand](config)
        finished = records.utc_stamp()
        _emit(args, payload)
    except LacsumError as exc:
        print(f"lacsum: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"lacsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if not args.no_record:
        recorded = {k: v for k, v in config.items() if k in config.read}
        record = records.RunRecord(
            schema=records.SCHEMA_VERSION,
            command=["lacsum"] + argv,
            subcommand=args.subcommand,
            config=recorded,
            input_hash=records.config_hash(recorded),
            started=started,
            finished=finished,
            payload=json.loads(json.dumps(payload)),
        )
        try:
            records.write_record(args.runs_dir, record)
        except OSError as exc:  # the directory changed since the check, or the disk is full
            print(f"lacsum: error: --runs-dir: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
