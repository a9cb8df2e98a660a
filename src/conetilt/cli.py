"""Command line front end.

Subcommands:

* ``cohomology``   twist cohomology tables for O(d) or OZ(e)
* ``hom``          graded Hom between two objects, with rule provenance
* ``verify-sod``   check an ordered collection from a config file or a
                   built-in instance
* ``paper-report`` the full reference report for a built-in instance

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 engine refusal (a query outside the validity domains or a rank the
diagrams do not determine).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cone import cone_cohomology_dim, regime_notes, section_cohomology_dim
from .linalg import EngineError
from .objects import hom_objects_detailed
from .report import (  # parse_config is re-exported for callers of this module
    ConfigError,
    InstanceConfig,
    build_report,
    get_instance,
    load_config,
    parse_config,
    parse_object_expr,
    parse_space,
)
from .tilting import check_sod

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_table(headers, rows, fmt):
    if fmt == "markdown":
        out = ["| " + " | ".join(headers) + " |"]
        out.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            # a | inside a cell would start a new cell
            out.append("| " + " | ".join(str(c).replace("|", "\\|") for c in row) + " |")
        return "\n".join(out)
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def emit_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _parse_space_flag(value):
    return parse_space(value, "bad --space")


def cmd_cohomology(args):
    space = _parse_space_flag(args.space)
    lo, hi = args.twist_min, args.twist_max
    if hi < lo:
        raise ConfigError("empty twist range %d..%d" % (lo, hi))
    if args.sheaf == "O":
        top = space.n
        dim_of = lambda d, i: cone_cohomology_dim(space, d, i)
    else:
        top = space.n - 1
        dim_of = lambda d, i: section_cohomology_dim(space, d, i)
    degrees = [args.i] if args.i is not None else list(range(top + 1))
    for i in degrees:
        if not 0 <= i <= top:
            raise ConfigError("cohomological degree %d outside [0, %d]" % (i, top))
    rows = []
    payload_rows = []
    for d in range(lo, hi + 1):
        dims = [dim_of(d, i) for i in degrees]
        rows.append(["%s(%d)" % (args.sheaf, d)] + dims)
        payload_rows.append({"twist": d, "h": dims})
    payload = {
        "command": "cohomology",
        "space": str(space),
        "sheaf": args.sheaf,
        "degrees": degrees,
        "rows": payload_rows,
        "notes": regime_notes(space),
    }
    if args.format == "json":
        print(emit_json(payload))
    else:
        headers = ["twist"] + ["h^%d" % i for i in degrees]
        print(render_table(headers, rows, args.format))
        for note in payload["notes"]:
            print("note: %s" % note)
    return EXIT_OK


# source option -> the instance it names
_SOURCES = {
    "config": load_config,
    "instance": get_instance,
    "space": lambda text: InstanceConfig("inline", _parse_space_flag(text), {}, {}),
}


def _resolve_source(args, options):
    """The instance named by the one source option of `options` given."""
    given = [o for o in options if getattr(args, o) is not None]
    if len(given) != 1:
        raise ConfigError(
            "%s needs exactly one of %s"
            % (args.command, ", ".join("--" + o for o in options))
        )
    return _SOURCES[given[0]](getattr(args, given[0]))


def _resolve_pair(args):
    cfg = _resolve_source(args, ("config", "instance", "space"))
    objs = []
    for name in (args.A, args.B):
        if name in cfg.objects:
            objs.append(cfg.objects[name])
        else:
            objs.append(parse_object_expr(name, cfg.space, cfg.objects))
    return cfg, objs


def cmd_hom(args):
    cfg, (A, B) = _resolve_pair(args)
    query = "Hom*(%s, %s) on %s" % (args.A, args.B, cfg.space)
    try:
        comp = hom_objects_detailed(cfg.space, A, B)
    except EngineError as exc:
        # the engine names the pair it refused, maybe one the chase reached
        raise type(exc)("%s: %s" % (query, exc)) from exc
    payload = {
        "command": "hom",
        "space": str(cfg.space),
        "source": args.A,
        "target": args.B,
        "dims": list(comp.dims),
        "provenance": list(comp.notes),
        "notes": regime_notes(cfg.space),
    }
    if args.format == "json":
        print(emit_json(payload))
    else:
        print(
            "%s: %s"
            % (query, "  ".join("deg%d: %d" % (i, d) for i, d in enumerate(comp.dims)))
        )
        for note in comp.notes:
            print("  via %s" % note)
        for note in payload["notes"]:
            print("note: %s" % note)
    return EXIT_OK


def _sod_payload(report):
    return {
        "command": "verify-sod",
        "space": str(report.space),
        "collection": list(report.names),
        "pass": report.ok,
        "first_violation": report.first_violation,
        "end_dims": list(report.blocks),
        "ranks": list(report.ranks),
        "pairwise": [
            {
                "source": report.names[i],
                "target": report.names[j],
                "dims": list(report.pairwise[i][j]),
            }
            for i in range(len(report.names))
            for j in range(len(report.names))
        ],
        "blocks": [
            None
            if bd is None
            else {
                "names": bd.names,
                "ranks": bd.ranks,
                "matrix": bd.matrix,
                "total": bd.total,
            }
            for bd in report.block_detail
        ],
        "generation": report.generation_note,
        "notes": list(report.notes),
    }


def cmd_verify_sod(args):
    cfg = _resolve_source(args, ("config", "instance"))
    # the first collection in declaration order; the dict keeps that order
    name = args.collection or next(iter(cfg.collections), None)
    if name is None:
        raise ConfigError("no collections defined")
    try:
        collection = cfg.collection(name)
    except KeyError as exc:
        raise ConfigError(exc.args[0])  # str(KeyError) would quote it
    report = check_sod(cfg.space, collection)
    payload = _sod_payload(report)
    if args.format == "json":
        print(emit_json(payload))
    else:
        print(report.summary())
        print("  generation: %s" % report.generation_note)
        rows = [
            [report.names[i], report.names[j], report.pairwise[i][j]]
            for i in range(len(report.names))
            for j in range(len(report.names))
        ]
        print(render_table(["source", "target", "Hom* dims"], rows, args.format))
        for bd in report.block_detail:
            if bd is not None:
                print(
                    "  block %s: matrix %s, total %d"
                    % ("+".join(bd.names), bd.matrix, bd.total)
                )
        for note in report.notes:
            print("note: %s" % note)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_paper_report(args):
    report = build_report(args.instance)
    if args.format == "json":
        print(emit_json(report.to_jsonable()))
    else:
        print("reference report for %s on %s" % (report.instance, report.space))
        rows = []
        for r in report.rows:
            rows.append(
                [r.section, r.label, r.expected, r.computed, "PASS" if r.ok else "FAIL"]
            )
        print(
            render_table(
                ["section", "entry", "expected", "computed", "flag"],
                rows,
                args.format,
            )
        )
        vrows = [
            [label, expected, got, "PASS" if ok else "FAIL"]
            for label, expected, got, ok in report.verdicts
        ]
        print(render_table(["verdict", "expected", "got", "flag"], vrows, args.format))
        for note in report.notes:
            print("note: %s" % note)
        print("overall: %s" % ("PASS" if report.ok else "FAIL"))
    return EXIT_OK if report.ok else EXIT_FAIL


_FORMAT = (("--format",), {"choices": ["text", "json", "markdown"], "default": "text"})
_CONFIG = (("--config",), {"help": "instance config file"})
_INSTANCE = (("--instance",), {"help": "built-in instance name"})

# name -> (help, handler, arguments as (flags, options) pairs)
COMMANDS = {
    "cohomology": ("twist cohomology table", cmd_cohomology, [
        (("--space",), {"required": True, "help": "n,m for P(1^n, m)"}),
        (("--sheaf",), {"choices": ["O", "OZ"], "default": "O"}),
        (("--twist-min",), {"type": int, "required": True}),
        (("--twist-max",), {"type": int, "required": True}),
        (("--i",), {"type": int, "default": None, "help": "single cohomological degree"}),
        _FORMAT,
    ]),
    "hom": ("graded Hom between two objects", cmd_hom, [
        (("A",), {"help": "object name or expression, e.g. O(3), OZ(1), ker(2)"}),
        (("B",), {}),
        _CONFIG,
        _INSTANCE,
        (("--space",), {"help": "n,m for inline expressions"}),
        _FORMAT,
    ]),
    "verify-sod": ("check an ordered collection", cmd_verify_sod, [
        (("collection",), {"nargs": "?", "help": "collection name (default: first)"}),
        _CONFIG,
        _INSTANCE,
        _FORMAT,
    ]),
    "paper-report": ("full reference report", cmd_paper_report, [
        (("instance",), {"help": "built-in instance name (P1113 or P112)"}),
        _FORMAT,
    ]),
}


def _add_arguments(parser, name):
    for flags, options in COMMANDS[name][2]:
        parser.add_argument(*flags, **options)
    parser.set_defaults(func=COMMANDS[name][1])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conetilt",
        description="exact Hom/Ext dimensions and tilting checks on weighted "
        "projective cones P(1,...,1,m)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv=None):
    """Parse a command line as build_parser() does, building one parser.

    A known subcommand is parsed by a parser of its own, with the prog
    `conetilt <name>` that build_parser() gives it, so its help and its
    errors read the same.  The full parser takes over for anything
    else: no or an unknown subcommand, a top-level option, or an
    argument the subcommand leaves over, which the full parser reports.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog="conetilt %s" % argv[0])
        _add_arguments(parser, argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except EngineError as exc:
        print("engine refusal: %s" % exc, file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
