"""Command-line interface.

    hardy verify  [--claims PATTERN] [--config FILE] [--out FILE --format json|csv]
    hardy cont    eval | report | sweep ...
    hardy disc    report | hardy-ratio | sweep ...
    hardy sweep   --family NAME ...        (dispatches on the family name)

Every command computes at one fixed precision, which a verify report records
under meta.config; a verify config file sets only ``claims`` and ``seed``.
A sweep row is a view of the report of its point.

Exit codes: 0 all claims pass, 1 any failure or unexpected inconclusive
verdict, 2 configuration errors and bad input, reported before any check
runs: an unknown name or parameter, a non-finite or non-integral value, an
unreadable --seq-file, an --out that is not a file in an existing
directory.  A member that its family or its decay bound refuses also exits
2; in a sweep it is an error cell of its row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import cont_ops, funcspace, harness, seq_ops
from .envelopes import EnvelopeError

# config file keys and the JSON value types each accepts
_CONFIG_TYPES = {"claims": str, "seed": int}


def _load_config(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise harness.ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise harness.ConfigError("config file must hold a JSON object")
    unknown = set(data) - set(_CONFIG_TYPES)
    if unknown:
        raise harness.ConfigError(f"unknown config keys: {sorted(unknown)}")
    mistyped = sorted(k for k, v in data.items()
                      if isinstance(v, bool) or not isinstance(v, _CONFIG_TYPES[k]))
    if mistyped:
        raise harness.ConfigError(f"config values of the wrong type: {mistyped}")
    return data


def _suite_config(args) -> harness.SuiteConfig:
    cfg = harness.SuiteConfig()
    if args.config:
        cfg = replace(cfg, **_load_config(args.config))
    flags = {"claims": args.claims, "seed": args.seed, "out": args.out,
             "fmt": args.format}
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _write_or_print(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    cfg = _suite_config(args)
    records = harness.run_suite(cfg)
    for rec in records:
        print(f"{rec.verdict:22s} {rec.claim_id}")
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    report = harness.render_report(records, cfg, timestamp)
    if cfg.out:
        Path(cfg.out).write_text(report)
        print(f"report written to {cfg.out}")
    elif cfg.fmt == "csv":
        sys.stdout.write(report)
    code = harness.exit_code(records)
    summary = harness.report_dict(records, cfg, timestamp)["summary"]
    print(f"{summary['pass']} pass, {summary['divergent_as_expected']} "
          f"divergent-as-expected, {summary['fail']} fail, "
          f"{summary['inconclusive']} inconclusive")
    return code


def _cmd_cont_eval(args) -> int:
    f = funcspace.parse_function(args.fn)
    print(repr(f.eval(args.x)))
    return 0


def _print_report(rep, out: str | None) -> int:
    payload = {"schema_version": harness.SCHEMA_VERSION, **rep.to_dict()}
    _write_or_print(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)
    return 0


def _cmd_cont_report(args) -> int:
    return _print_report(cont_ops.build_report(funcspace.parse_function(args.fn)), args.out)


def _resolve_sequence(args):
    if getattr(args, "seq_file", None):
        return seq_ops.load_rational_file(args.seq_file)
    if args.seq is None:
        raise harness.ConfigError("provide --seq or --seq-file")
    return seq_ops.parse_sequence(args.seq)


def _cmd_disc_report(args) -> int:
    return _print_report(seq_ops.build_report(_resolve_sequence(args)), args.out)


def _cmd_disc_ratio(args) -> int:
    seq = _resolve_sequence(args)
    ratio = seq_ops.hardy_ratio(seq, args.p, args.n)
    bound = (args.p / (args.p - 1.0)) ** args.p
    print(json.dumps({"sequence": seq.name, "p": args.p, "n": args.n,
                      "ratio": ratio, "bound": bound, "under_bound": ratio <= bound},
                     indent=2, sort_keys=True))
    return 0


def _parse_param(text: str) -> tuple[str, list]:
    if "=" not in text:
        raise harness.ConfigError("--param expects name=lo:hi[:step]")
    name, grid = text.split("=", 1)
    return name.strip(), harness.parse_grid(grid)


def _parse_fix(text: str) -> tuple[str, float]:
    key, _, val = text.partition("=")
    try:
        value = float(val)  # a missing "=" leaves val empty, which raises too
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise harness.ConfigError(f"--fix expects name=finite number, got {text!r}")
    return key.strip(), value


def _run_sweep(args, domain: str) -> int:
    fixed = dict(_parse_fix(item) for item in args.fix or [])
    if args.m is not None:
        param, values = "m", harness.parse_grid(args.m)
    elif args.param is not None:
        param, values = _parse_param(args.param)
    else:
        raise harness.ConfigError("a sweep needs --param or --m")
    if domain == "auto":
        domain = "cont" if args.family in funcspace.FAMILIES else "disc"
    sweep = harness.sweep_cont if domain == "cont" else harness.sweep_disc
    rows, footer = sweep(args.family, param, values, harness.SuiteConfig(), fixed)
    if args.emit == "csv":
        _write_or_print(harness.sweep_to_csv(rows, footer), args.out)
    else:
        _write_or_print(json.dumps({"rows": rows, "footer": footer},
                                   indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _add_sweep_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", required=True)
    p.add_argument("--param", default=None, help="name=lo:hi:step")
    p.add_argument("--m", default=None, help="lo:hi[:step] over impulse positions")
    p.add_argument("--fix", action="append", default=None,
                   help="extra fixed parameter name=value (repeatable)")
    p.add_argument("--emit", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardy",
        description="verification suite for the averaging operator, its "
                    "mean-zero correction, and the log-weighted norms that "
                    "govern integrability of the corrected image")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the claim suite")
    p.add_argument("--claims", default=None, help="fnmatch filter on claim ids")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON config file: claims, seed")
    p.set_defaults(handler=_cmd_verify)

    cont = sub.add_parser("cont", help="continuous-side operations")
    cont_sub = cont.add_subparsers(dest="subcommand", required=True)
    p = cont_sub.add_parser("eval", help="evaluate a catalog function")
    p.add_argument("--fn", required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(handler=_cmd_cont_eval)
    p = cont_sub.add_parser("report", help="functionals of one function as JSON")
    p.add_argument("--fn", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_cont_report)
    p = cont_sub.add_parser("sweep", help="sweep a parametric family")
    _add_sweep_flags(p)
    p.set_defaults(handler=lambda a: _run_sweep(a, "cont"))

    disc = sub.add_parser("disc", help="discrete-side operations")
    disc_sub = disc.add_subparsers(dest="subcommand", required=True)
    p = disc_sub.add_parser("report", help="functionals of one sequence as JSON")
    p.add_argument("--seq", default=None)
    p.add_argument("--seq-file", dest="seq_file", default=None,
                   help="finite sequence file: one integer or p/q per line")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_disc_report)
    p = disc_sub.add_parser("hardy-ratio", help="truncated p-power ratio")
    p.add_argument("--seq", default=None)
    p.add_argument("--seq-file", dest="seq_file", default=None,
                   help="finite sequence file: one integer or p/q per line")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, default=10 ** 6)
    p.set_defaults(handler=_cmd_disc_ratio)
    p = disc_sub.add_parser("sweep", help="sweep a sequence family")
    _add_sweep_flags(p)
    p.set_defaults(handler=lambda a: _run_sweep(a, "disc"))

    p = sub.add_parser("sweep", help="sweep either kind of family")
    _add_sweep_flags(p)
    p.set_defaults(handler=lambda a: _run_sweep(a, "auto"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        out = getattr(args, "out", None)
        if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
            raise harness.ConfigError(f"--out {out} is not a file in an existing directory")
        return args.handler(args)
    except harness.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (funcspace.CatalogError, funcspace.ParameterError,
            seq_ops.SequenceError, funcspace.DomainError, EnvelopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
