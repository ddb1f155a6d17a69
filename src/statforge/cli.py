"""Command-line entry point.

Subcommands: ``run`` executes one experiment from a flat key=value config
file, ``list-experiments`` prints the registry, ``dist`` evaluates a
distribution function at a point. Exit codes: 0 all tolerances met,
2 a tolerance failed, 1 error (a malformed command line included).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import secrets
import sys
import typing

from .distributions import (Bernoulli, Beta, Binomial, ChiSquared, Exponential,
                            FisherF, Gamma, Geometric, LogNormal, Normal,
                            Poisson, StudentT, Uniform01, dist_cdf, dist_pdf,
                            dist_quantile)
from .errors import StatforgeError
from .experiments import (experiment_tags, parse_config_file, parse_scalar,
                          run_experiment)

# a ``dist`` tag is the family's class name in lower case, its parameters
# the class's fields in order
_DISTRIBUTIONS = {cls.__name__.lower(): cls for cls in (
    Normal, LogNormal, Gamma, ChiSquared, StudentT, FisherF, Beta, Exponential,
    Bernoulli, Binomial, Poisson, Geometric, Uniform01)}


class _Parser(argparse.ArgumentParser):
    """A bad flag is an error like any other: one ``error:`` line and exit 1
    (argparse would print its usage and exit 2, the tolerance-failure code).
    Subparsers are built from this class too."""

    def error(self, message):
        raise StatforgeError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="statforge")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config", help="path to a key = value config file")
    seed = run.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    seed.add_argument("--fresh-seed", action="store_true",
                      help="draw a new seed from the OS and record it")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--out", default=None, help="directory for report files")
    run.add_argument("--format", choices=["json", "csv"], default="json")
    run.add_argument("--set", dest="assignments", action="append", default=[],
                     metavar="KEY=VALUE", help="override any config key")

    sub.add_parser("list-experiments", help="print the experiment registry")

    dist = sub.add_parser("dist", help="evaluate a distribution function")
    dist.add_argument("tag", help="family:params, e.g. normal:0,1 or chisquared:4")
    group = dist.add_mutually_exclusive_group(required=True)
    group.add_argument("--pdf", type=float, default=None, metavar="X")
    group.add_argument("--cdf", type=float, default=None, metavar="X")
    group.add_argument("--quantile", type=float, default=None, metavar="U")
    return parser


def _parse_dist_tag(tag: str):
    name, _, raw = tag.partition(":")
    if name not in _DISTRIBUTIONS:
        raise StatforgeError(
            f"unknown distribution {name!r}; choose from {sorted(_DISTRIBUTIONS)}")
    family = _DISTRIBUTIONS[name]
    fields = [field.name for field in dataclasses.fields(family)]
    types = typing.get_type_hints(family)
    pieces = [p for p in raw.split(",") if p != ""]
    if len(pieces) != len(fields):
        raise StatforgeError(
            f"{name} expects {len(fields)} parameters ({', '.join(fields)})")
    kwargs = {}
    for field, piece in zip(fields, pieces):
        kind = int if types[field] is int else float
        try:
            kwargs[field] = kind(piece)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise StatforgeError(
                f"{name} parameter {field!r} must be {noun}, got {piece!r}") from None
    return family(**kwargs)


def _cmd_dist(args) -> int:
    spec = _parse_dist_tag(args.tag)
    if args.pdf is not None:
        value = dist_pdf(spec, args.pdf)
    elif args.cdf is not None:
        value = dist_cdf(spec, args.cdf)
    else:
        value = dist_quantile(spec, args.quantile)
    print(f"{value:.17g}")
    return 0


def _parse_assignment(text: str):
    if "=" not in text:
        raise StatforgeError(f"--set expects KEY=VALUE, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), parse_scalar(value)


def _write_metrics(envelope, fh) -> None:
    """The metrics table as CSV, a missing value as an empty field."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["name", "value", "target", "tolerance", "se", "passed", "method"])
    writer.writerows([m.name, m.value, m.target, m.tolerance, m.se, m.passed, m.method]
                     for m in envelope.metrics)


def _write_outputs(envelope, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(envelope.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8",
              newline="") as fh:
        _write_metrics(envelope, fh)


def _cmd_run(args) -> int:
    overrides = dict(_parse_assignment(a) for a in args.assignments)
    if args.fresh_seed:
        overrides["seed"] = secrets.randbits(63)
    elif args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers < 1:
        raise StatforgeError(f"--workers must be at least 1, got {args.workers}")
    config = parse_config_file(args.config, overrides)
    envelope = run_experiment(config, workers=args.workers)
    if args.out:
        _write_outputs(envelope, args.out)
    if args.format == "json":
        print(json.dumps(envelope.to_dict(), indent=2, sort_keys=True))
    else:
        _write_metrics(envelope, sys.stdout)
    return 0 if envelope.passed else 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-experiments":
            for tag in experiment_tags():
                print(tag)
            return 0
        if args.command == "dist":
            return _cmd_dist(args)
        raise AssertionError(args.command)
    except (StatforgeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
