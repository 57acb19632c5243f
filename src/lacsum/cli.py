"""The lacsum command line: eval, norms, energy, sidon, clt, search, study, replay.

Every subcommand emits JSON to stdout (sidon emits the frequency-set file
format, study can emit CSV) and persists a replayable RunRecord under
runs/ unless --no-record is given. Exit codes: 0 success, 1 usage error,
2 computation error, 3 replay mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import secrets
import sys
from dataclasses import asdict

from . import cltlab, energy, norms, records, search
from .errors import LacsumError
from .frequency import lacunary_set, make_frequency_set, parse_freqs_file
from .norms import McConfig

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


def _add_freq_flags(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--freqs", help="comma-separated frequencies, e.g. 1,2,5")
    g.add_argument("--freqs-file", help="file with one frequency per line (# comments)")
    g.add_argument("--lacunary", help="q,n for the geometric set {q,...,q^n}")


def _resolve_freqs(args) -> list[int]:
    if args.freqs:
        return [int(v) for v in args.freqs.split(",") if v.strip()]
    if args.freqs_file:
        return list(parse_freqs_file(args.freqs_file).freqs)
    q, n = (int(v) for v in args.lacunary.split(","))
    return list(lacunary_set(q, n).freqs)


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
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-3)

    p = sub.add_parser("energy", help="additive energy and the Hoelder certificate")
    _add_freq_flags(p)

    p = sub.add_parser("sidon", help="emit a Mian-Chowla prefix")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("clt", help="empirical CLT report")
    _add_freq_flags(p)
    p.add_argument("--samples", type=int, default=10**6)
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
    p.add_argument("--n-list", required=True, help="comma-separated, e.g. 4,8,16")
    p.add_argument("--samples", type=float, default=10**6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", help="write rows as CSV to this path")

    p = sub.add_parser("replay", help="re-run a recorded run and verify the payload")
    p.add_argument("run_dir")

    return parser


# ---------------------------------------------------------------------------
# Pure executors: resolved config dict -> JSON payload (used by run and replay)
# ---------------------------------------------------------------------------

def _exec_eval(config: dict):
    from .frequency import evaluate_sum

    fs = make_frequency_set(config["freqs"])
    s = evaluate_sum(fs, float(config["theta"]))
    return {"schema": 1, "re": s.real, "im": s.imag, "abs": abs(s), "n": fs.n}


def _estimate_payload(est: norms.NormEstimate) -> dict:
    return {"schema": 1, **asdict(est)}


def _exec_norms(config: dict):
    fs = make_frequency_set(config["freqs"])
    method = config["method"]
    if method == "quad":
        est = norms.lp_norm_quadrature(fs, config["p"])
    elif method == "mc":
        if config["p"] != 1:
            raise LacsumError("monte-carlo estimation is implemented for p = 1")
        est = norms.l1_monte_carlo(fs, McConfig(samples=config["samples"], seed=config["seed"]))
    else:
        if config["p"] == 1:
            est = norms.l1_auto(fs, config["tol"], seed=config["seed"])
        else:
            est = norms.lp_norm_quadrature(fs, config["p"])
    return _estimate_payload(est)


def _exec_energy(config: dict):
    fs = make_frequency_set(config["freqs"])
    cert = energy.holder_lower_bound(fs)
    return {"schema": 1, **asdict(cert)}


def _exec_sidon(config: dict):
    fs = energy.mian_chowla(config["n"])
    return {"schema": 1, "n": fs.n, "freqs": list(fs.freqs)}


def _phi_point_dict(pt: cltlab.CharFnPoint) -> dict:
    return {
        "s": pt.s,
        "t": pt.t,
        "phi_re": pt.phi.real,
        "phi_im": pt.phi.imag,
        "std_error": pt.std_error,
        "gaussian": pt.gaussian,
    }


def _exec_clt(config: dict):
    fs = make_frequency_set(config["freqs"])
    report = cltlab.clt_report(
        fs,
        McConfig(samples=config["samples"], seed=config["seed"]),
        with_chain_audit=config.get("chain_audit", False),
    )
    payload = {
        "schema": 1,
        "n": report.n,
        "samples": report.samples,
        "seed": report.seed,
        "radial_mean": report.radial_mean,
        "radial_std_error": report.radial_std_error,
        "ks_mu": report.ks_mu,
        "ks_nu": report.ks_nu,
        "cov_hat": report.cov_hat,
        "phi_grid": [_phi_point_dict(pt) for pt in report.phi_grid],
    }
    if report.chain_audit is not None:
        payload["chain_audit"] = {
            **asdict(report.chain_audit),
            "inequalities": report.chain_audit.inequalities(),
        }
    return payload


def _exec_search(config: dict):
    if config["mode"] == "exhaustive":
        result = search.exhaustive_sigma(config["n"], config["max_freq"])
    else:
        result = search.anneal_sigma(
            config["n"], config["max_freq"], config["budget"], config["seed"]
        )
    return {
        "schema": 1,
        "n": result.n,
        "best_set": list(result.best_set.freqs),
        "best_value": result.best_value,
        "method": result.method,
        "evaluations": result.evaluations,
        "value_error": result.value_error,
        "seed": result.seed,
    }


def _exec_study(config: dict):
    rows = search.convergence_study(
        config["q"],
        config["n_list"],
        McConfig(samples=config["samples"], seed=config["seed"]),
    )
    payload_rows = [asdict(r) for r in rows]
    payload = {
        "schema": 1,
        "q": config["q"],
        "seed": config["seed"],
        "samples": config["samples"],
        "limit": search.SQRT_PI_OVER_2,
        "rows": payload_rows,
        "sup_normalized_l1": max(r.normalized_l1 for r in rows),
    }
    try:
        c2, resid = search.fit_rate_constant(rows)
        payload["rate_fit"] = {"c2": c2, "rms_residual": resid}
    except LacsumError:
        pass
    return payload


_EXECUTORS = {
    "eval": _exec_eval,
    "norms": _exec_norms,
    "energy": _exec_energy,
    "sidon": _exec_sidon,
    "clt": _exec_clt,
    "search": _exec_search,
    "study": _exec_study,
}


def _config_from_args(args) -> dict:
    sc = args.subcommand
    if sc == "eval":
        return {"freqs": _resolve_freqs(args), "theta": args.theta}
    if sc == "norms":
        return {
            "freqs": _resolve_freqs(args),
            "p": args.p,
            "method": args.method,
            "samples": args.samples,
            "seed": _resolve_seed(args.seed),
            "tol": args.tol,
        }
    if sc == "energy":
        return {"freqs": _resolve_freqs(args)}
    if sc == "sidon":
        return {"n": args.n}
    if sc == "clt":
        return {
            "freqs": _resolve_freqs(args),
            "samples": args.samples,
            "seed": _resolve_seed(args.seed),
            "chain_audit": args.chain_audit,
        }
    if sc == "search":
        return {
            "n": args.n,
            "max_freq": args.max_freq,
            "mode": args.mode,
            "budget": args.budget,
            "seed": _resolve_seed(args.seed),
        }
    if sc == "study":
        return {
            "q": args.q,
            "n_list": [int(v) for v in args.n_list.split(",") if v.strip()],
            "samples": int(args.samples),
            "seed": _resolve_seed(args.seed),
        }
    raise AssertionError(sc)


def _study_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "normalized_l1", "std_error", "gap_to_limit"])
    for row in payload["rows"]:
        writer.writerow(
            [row["n"], repr(row["normalized_l1"]), repr(row["std_error"]), repr(row["gap_to_limit"])]
        )
    return buf.getvalue()


def _phi_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["s", "t", "phi_re", "phi_im", "std_error", "gaussian"])
    for pt in payload["phi_grid"]:
        writer.writerow([repr(pt[c]) for c in ("s", "t", "phi_re", "phi_im", "std_error", "gaussian")])
    return buf.getvalue()


def _emit(args, payload) -> None:
    if args.subcommand == "sidon":
        for k in payload["freqs"]:
            print(k)
        return
    if args.subcommand == "study" and args.csv:
        with open(args.csv, "w") as fh:
            fh.write(_study_csv(payload))
    if args.subcommand == "clt":
        if args.report:
            with open(args.report, "w") as fh:
                json.dump(payload, fh, indent=2)
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(_phi_csv(payload))
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
    if args.subcommand == "replay":
        try:
            return _replay(args)
        except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
            print(f"lacsum: invalid run record: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        config = _config_from_args(args)
        started = records.utc_stamp()
        payload = _EXECUTORS[args.subcommand](config)
        finished = records.utc_stamp()
    except LacsumError as exc:
        print(f"lacsum: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"lacsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    _emit(args, payload)
    if not args.no_record:
        record = records.RunRecord(
            schema=records.SCHEMA_VERSION,
            command=["lacsum"] + argv,
            subcommand=args.subcommand,
            config=config,
            input_hash=records.config_hash(config),
            started=started,
            finished=finished,
            payload=json.loads(json.dumps(payload)),
        )
        records.write_record(args.runs_dir, record)
    return EXIT_OK


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
