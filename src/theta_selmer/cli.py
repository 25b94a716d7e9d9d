"""Command-line front door.

Exit codes: 0 success, 2 verification failure (parity or oracle mismatch),
3 Undecided/NotFound escalations, 64 usage errors.  Diagnostics go to
stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import cassels, descent, selfcheck, survey
from .arith import ArithError
from .monsky import THETA_2PI3, THETA_PI3

EX_OK = 0
EX_VERIFY = 2
EX_UNDECIDED = 3
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EX_USAGE)


def _theta(value: str) -> str:
    if value in (THETA_PI3, "pi/3"):
        return THETA_PI3
    if value in (THETA_2PI3, "2pi/3"):
        return THETA_2PI3
    raise argparse.ArgumentTypeError(f"theta must be pi3 or 2pi3, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="theta-selmer",
                description="2-Selmer ranks and non-congruence certificates "
                            "for the tiling-number curves")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="Selmer data for one n")
    a.add_argument("n", type=int)
    a.add_argument("--theta", type=_theta, required=True)
    a.add_argument("--format", choices=("json", "csv", "text"), default="text")

    c = sub.add_parser("certify", help="non-congruence certificate for one n")
    c.add_argument("n", type=int)
    c.add_argument("--theta", type=_theta, required=True)
    c.add_argument("--seed", type=int, default=None)

    s = sub.add_parser("survey", help="range scan producing SurveyRows")
    s.add_argument("--max", type=int, required=True)
    s.add_argument("--theta", type=_theta, default=None,
                   help="restrict to one theta (default: both)")
    s.add_argument("--format", choices=("json", "csv"), default="csv")
    s.add_argument("--jobs", type=int, default=None)
    s.add_argument("--certificates", action="store_true",
                   help="include certificate kinds (slower)")
    s.add_argument("--oracle-max", type=int, default=0,
                   help="cross-check the descent oracle up to this bound")

    vp = sub.add_parser("verify-parity", help="check the parity law over a range")
    vp.add_argument("--max", type=int, default=2000)
    vp.add_argument("--jobs", type=int, default=None)

    vo = sub.add_parser("verify-oracle", help="descent oracle vs Monsky rank")
    vo.add_argument("--max", type=int, default=50)
    vo.add_argument("--jobs", type=int, default=None)

    d = sub.add_parser("density", help="r4 density over fundamental discriminants")
    d.add_argument("--max", type=int, default=100000)
    d.add_argument("--format", choices=("json", "text"), default="text")

    cr = sub.add_parser("certify-rate", help="certified fractions of the four family scans")
    cr.add_argument("--max", type=int, default=20000)
    cr.add_argument("--jobs", type=int, default=None)

    sc = sub.add_parser("selfcheck", help="erratum probes (informational)")
    sc.add_argument("--max", type=int, default=3000,
                    help="bound on m for the F19, pq and r8 probes")
    return p


def cmd_analyze(args) -> int:
    row = survey.analyze(args.n, args.theta, with_certificate=True)
    if args.format == "json":
        print(json.dumps(row.__dict__, sort_keys=True))
    elif args.format == "csv":
        print(survey.rows_to_csv([row]), end="")
    else:
        for k in survey.CSV_FIELDS:
            print(f"{k}: {getattr(row, k)}")
    return EX_OK


def cmd_certify(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    cert = cassels.certify(args.n, args.theta, rng=rng)
    print(cert.to_json())
    return EX_OK


def cmd_survey(args) -> int:
    thetas = (args.theta,) if args.theta else (THETA_PI3, THETA_2PI3)
    rows = survey.survey_range(
        args.max, thetas=thetas, jobs=args.jobs,
        with_certificates=args.certificates, oracle_max=args.oracle_max,
    )
    if args.format == "json":
        print(survey.rows_to_json(rows))
    else:
        print(survey.rows_to_csv(rows), end="")
    bad = [r for r in rows if not r.parity_ok]
    if bad:
        print(f"{len(bad)} parity mismatches", file=sys.stderr)
        return EX_VERIFY
    return EX_OK


def cmd_verify_parity(args) -> int:
    report, failures, _ = survey.scan_parity(args.max, jobs=args.jobs)
    print(json.dumps(report.as_dict(), sort_keys=True))
    if failures:
        for r in failures:
            print(f"FAIL n={r.n} theta={r.theta} s2={r.s2} "
                  f"predicted={r.parity_predicted}", file=sys.stderr)
        return EX_VERIFY
    return EX_OK


def cmd_verify_oracle(args) -> int:
    failures, triples = survey.scan_oracle(args.max, jobs=args.jobs)
    print(json.dumps({"schema": survey.SCHEMA_VERSION,
                      "checked": len(triples),
                      "failures": failures}, sort_keys=True, default=str))
    return EX_VERIFY if failures else EX_OK


def cmd_density(args) -> int:
    reports = survey.scan_r4_density(args.max)
    if args.format == "json":
        print(json.dumps([r.as_dict() for r in reports], sort_keys=True))
    else:
        for r in reports:
            frac = "n/a" if r.fraction is None else f"{100 * r.fraction:.2f}%"
            tgt = f"{100 * r.target:.2f}%"
            print(f"{r.population}: {frac} (target {tgt} +- 1.5) "
                  f"[{'empty' if r.empty else 'pass' if r.passed else 'FAIL'}]")
    return EX_OK


def cmd_certify_rate(args) -> int:
    for family in ("f5", "f11", "cor15", "cor16"):
        rep = survey.scan_certification(family, args.max, jobs=args.jobs)
        print(json.dumps(rep.as_dict(), sort_keys=True))
    return EX_OK


def cmd_selfcheck(args) -> int:
    findings = selfcheck.run_all(max_n=args.max)
    print(json.dumps(findings, sort_keys=True, indent=2, default=str))
    return EX_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", 1) < 1:
        parser.error(f"n must be a positive integer, got {args.n}")
    if getattr(args, "max", 0) < 0:
        parser.error(f"--max must be non-negative, got {args.max}")
    jobs = getattr(args, "jobs", 1)
    if jobs is None:
        try:
            args.jobs = survey.default_jobs()
        except ValueError as exc:
            parser.error(f"THETA_SELMER_JOBS: {exc}")
    elif jobs < 1:
        parser.error(f"--jobs must be at least 1, got {jobs}")
    handlers = {
        "analyze": cmd_analyze,
        "certify": cmd_certify,
        "survey": cmd_survey,
        "verify-parity": cmd_verify_parity,
        "verify-oracle": cmd_verify_oracle,
        "density": cmd_density,
        "certify-rate": cmd_certify_rate,
        "selfcheck": cmd_selfcheck,
    }
    try:
        return handlers[args.command](args)
    except (ArithError, cassels.ExcludedSmallN) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (cassels.NotFound, descent.Undecided) as exc:
        print(f"escalation: {exc}", file=sys.stderr)
        return EX_UNDECIDED
    except survey.OracleMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_VERIFY


if __name__ == "__main__":
    sys.exit(main())
