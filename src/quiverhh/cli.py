"""Command-line front end.

Subcommands::

    quiverhh report --family torus-s --q 1 --field rational
    quiverhh report --file presentation.dsl --out json
    quiverhh table psi-examples
    quiverhh table torus-sweep --field fp:7 --qs 1,2,3,4,5,6
    quiverhh table feasibility --samples 200 --seed 1
    quiverhh checks fast

Exit codes: 0 ok, 2 parse error, 3 non-confluent / completion failure,
4 infinite-dimensional quotient, 5 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys

from . import __version__, families
from .checks import FEASIBLE_PAIRS, run_checks
from .dsl import parse_presentation
from .errors import (
    CompletionError,
    ConsistencyError,
    EngineError,
    FieldError,
    InfiniteDimensionalError,
    ParseError,
)
from .fields import field_parse
from .hochschild import HochschildCohomology
from .hochschild import d_squared_zero as _d_squared_zero
from .sl2 import PsiTensor, format_psi, jj_dim, kernel_model_dims, parse_psi, stab_dim

EXIT_PARSE = 2
EXIT_NONCONFLUENT = 3
EXIT_INFINITE = 4
EXIT_INTERNAL = 5


def build_report(pres, nmax, field, family=None, file=None, params=None, seed=None, trace=None):
    eng = HochschildCohomology(pres, nmax=nmax, trace=trace)
    report = eng.report()
    cup_rank, cup_nonzero = eng.cup_rank()
    doc = {
        "family": family,
        "file": file,
        "field": str(field),
        "params": params or {},
        "small_complex_dims": list(report.small_dims) if report.small_dims else None,
        "bar_complex_dims": list(report.bar_dims),
        "hh": list(report.dims),
        "euler": report.euler,
        "cup": {"rank": cup_rank, "nonzero": cup_nonzero},
        "bracket": {"hh1_bracket_rank": eng.bracket_rank()},
        "checks": {
            "d_squared_zero": _d_squared_zero(eng.bar),
            "small_bar_agree": (
                None if report.small_hh is None else list(report.small_hh) == list(report.dims[:3])
            ),
            "euler_consistent": (
                None
                if report.euler is None
                else report.euler == sum((-1) ** n * d for n, d in enumerate(report.dims))
            ),
            "complex_complete": report.complete,
        },
        "version": __version__,
        "seed": seed,
    }
    if not doc["checks"]["d_squared_zero"]:
        raise ConsistencyError("differential does not square to zero")
    return doc


def _emit(doc, out, stream):
    if out == "json":
        stream.write(json.dumps(doc, indent=2) + "\n")
    elif out == "text":
        for k, v in doc.items():
            stream.write(f"{k}: {v}\n")
    else:
        raise EngineError(f"unsupported output format {out!r} for a report")


def _emit_table(rows, header, out, stream):
    if out == "json":
        stream.write(json.dumps(rows, indent=2) + "\n")
        return
    if out == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[k] for k in header])
        return
    widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) if rows else len(k) for k in header}
    stream.write("  ".join(k.ljust(widths[k]) for k in header) + "\n")
    for row in rows:
        stream.write("  ".join(str(row[k]).ljust(widths[k]) for k in header) + "\n")


def cmd_report(args, stream):
    field = field_parse(args.field)
    params = {}
    qval = None
    psi = None
    if args.q is not None:
        qval = field.parse_scalar(args.q)
        params["q"] = field.format_scalar(qval)
    if args.psi is not None:
        psi = parse_psi(args.psi, field)
        params["psi"] = format_psi(psi)
    trace = (lambda msg: print(msg, file=sys.stderr)) if args.trace else None
    if args.family:
        pres = families.family_presentation(args.family, field, q=qval, psi=psi)
        src = {"family": args.family}
    else:
        with open(args.file, encoding="utf-8") as fh:
            pres = parse_presentation(fh.read())
        if pres.field != field and args.field != "rational":
            raise ParseError("--field disagrees with the field line of the file")
        field = pres.field
        src = {"file": args.file}
    doc = build_report(pres, args.nmax, field, params=params, seed=args.seed, trace=trace, **src)
    _emit(doc, args.out, stream)
    return 0


PSI_EXAMPLE_ROWS = (
    "ee:2,ff:2,hh:1",
    "ee:1",
    "ee:1,eh:1,he:1,hh:1",
    "ee:1,hh:1,ef:2,fe:2",
    "ee:1,eh:1,ef:1,he:1,hh:1,hf:1,fe:1,fh:1,ff:1",
    "ee:1,ff:1,hh:1",
    "ee:1,ff:1",
    "ee:1,hh:1,ff:1,ef:2,fe:2",
    "ee:1,hh:2,ef:1,fe:1",
)


def cmd_table(args, stream):
    field = field_parse(args.field)
    rows = []
    if args.name == "psi-examples":
        header = ["psi", "stab", "jj", "hh0", "hh1", "hh2", "cup_rank", "cup_nonzero"]
        for text in PSI_EXAMPLE_ROWS:
            psi = parse_psi(text, field)
            eng = HochschildCohomology(families.p1p1_presentation(field, psi), nmax=args.nmax)
            report = eng.report()
            km = kernel_model_dims(psi)
            if report.dims[1] != km.total:
                raise ConsistencyError("cocycle model disagrees with the complex")
            cup_rank, cup_nonzero = eng.cup_rank()
            rows.append(
                {
                    "psi": text,
                    "stab": km.stab,
                    "jj": km.jj,
                    "hh0": report.dims[0],
                    "hh1": report.dims[1],
                    "hh2": report.dims[2],
                    "cup_rank": cup_rank,
                    "cup_nonzero": cup_nonzero,
                }
            )
    elif args.name == "torus-sweep":
        header = ["family", "q", "hh0", "hh1", "hh2", "small_bar_agree"]
        if args.qs:
            qvals = [field.parse_scalar(t) for t in args.qs.split(",")]
        elif field.kind == "prime_field":
            qvals = list(range(1, field.p))
        else:
            qvals = [field.from_int(v) for v in (1, -1, 2)]
        for name, cell in (
            ("torus-s", families.torus_simplicial_complex()),
            ("torus-c", families.torus_cubical_complex()),
        ):
            for qv in qvals:
                pres = families.incidence_presentation(cell, field, qv)
                report = HochschildCohomology(pres, nmax=args.nmax).report()
                rows.append(
                    {
                        "family": name,
                        "q": field.format_scalar(qv),
                        "hh0": report.dims[0],
                        "hh1": report.dims[1],
                        "hh2": report.dims[2],
                        "small_bar_agree": list(report.small_hh) == list(report.dims[:3]),
                    }
                )
    elif args.name == "feasibility":
        header = ["stab", "jj", "count", "feasible"]
        rng = random.Random(args.seed)
        counts = {}
        for _ in range(args.samples):
            psi = PsiTensor.from_int_array(
                field, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            )
            pair = (stab_dim(psi), jj_dim(psi))
            counts[pair] = counts.get(pair, 0) + 1
        for (s, j), count in sorted(counts.items()):
            rows.append({"stab": s, "jj": j, "count": count, "feasible": (s, j) in FEASIBLE_PAIRS})
    else:
        raise EngineError(f"unknown table {args.name!r}")
    _emit_table(rows, header, args.out, stream)
    return 0


def cmd_checks(args, stream):
    summary = run_checks(args.scope, seed=args.seed)
    stream.write(json.dumps(summary, indent=2) + "\n")
    return 0 if summary["ok"] else EXIT_INTERNAL


def make_parser():
    parser = argparse.ArgumentParser(prog="quiverhh", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="cohomology report for a family or DSL file")
    src = rep.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", choices=families.FAMILY_NAMES)
    src.add_argument("--file")
    rep.add_argument("--field", default="rational")
    rep.add_argument("--q")
    rep.add_argument("--psi")
    rep.add_argument("--nmax", type=int, default=3)
    rep.add_argument("--out", choices=("json", "text"), default="json")
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--trace", action="store_true")

    tab = sub.add_parser("table", help="reproduce a built-in table")
    tab.add_argument("name", choices=("psi-examples", "torus-sweep", "feasibility"))
    tab.add_argument("--field", default="rational")
    tab.add_argument("--qs", help="comma-separated q values for torus-sweep")
    tab.add_argument("--samples", type=int, default=200)
    tab.add_argument("--seed", type=int, default=0)
    tab.add_argument("--nmax", type=int, default=3)
    tab.add_argument("--out", choices=("json", "csv", "text"), default="text")

    chk = sub.add_parser("checks", help="run the engine invariant suites")
    chk.add_argument("scope", choices=("fast", "full"))
    chk.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None, stream=None):
    stream = stream if stream is not None else sys.stdout
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args, stream)
        if args.command == "table":
            return cmd_table(args, stream)
        return cmd_checks(args, stream)
    except (ParseError, FieldError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CompletionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONFLUENT
    except InfiniteDimensionalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFINITE
    except (ConsistencyError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
