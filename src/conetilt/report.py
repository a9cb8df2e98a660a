"""Built-in instances and the reference report.

The two built-in instances are the threefold cone P(1,1,1,3) and the
surface cone P(1,1,2).  The reference report reproduces every
computation backing their decompositions as a golden table: each row
carries the computed graded dimensions next to the expected ones with a
PASS/FAIL flag, followed by the decomposition, stack-window and
rank-identity verdicts.
"""

from __future__ import annotations

import re

from .cone import Record, make_space
from .objects import SumObject, as_object, hom_objects, kernel_bundle
from .rules import OX, OZ
from .tilting import (
    check_sod,
    end_blocks,
    rank_square_identity,
    stack_exceptional_check,
)


class InstanceConfig(Record):
    """A named geometry with named objects and ordered collections."""

    _fields = ("name", "space", "objects", "collections")

    def __init__(self, name, space, objects, collections):
        self.name = name
        self.space = space
        self.objects = objects  # name -> SheafObject
        self.collections = collections  # name -> list of object names

    def object(self, name):
        if name not in self.objects:
            raise KeyError("unknown object %r" % name)
        return self.objects[name]

    def collection(self, name):
        if name not in self.collections:
            raise KeyError("unknown collection %r" % name)
        return [(n, self.objects[n]) for n in self.collections[name]]


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(r"^(O|OZ|ker)\((-?\d+)\)$")


def _parse_term(term, space, objects):
    term = term.strip()
    base, mult = term, 1
    if "*" in term:
        head, _, base = term.partition("*")
        try:
            mult = int(head.strip())
        except ValueError:
            raise ConfigError("bad multiplicity in %r" % term)
        if mult < 1:
            raise ConfigError("multiplicity must be positive in %r" % term)
        base = base.strip()
    m = _ATOM_RE.match(base)
    if m:
        kind, arg = m.group(1), int(m.group(2))
        if kind == "O":
            obj = as_object(OX(arg))
        elif kind == "OZ":
            obj = as_object(OZ(arg))
        else:
            try:
                obj = kernel_bundle(space, arg)
            except ValueError as exc:
                raise ConfigError(str(exc))
        return obj, mult
    if base in objects:
        return objects[base], mult
    raise ConfigError("unknown object term %r" % base)


def parse_object_expr(expr, space, objects):
    """An object expression: terms joined by '+', each 'k*base' or 'base'."""
    parts = []
    for term in expr.split("+"):
        obj, mult = _parse_term(term, space, objects)
        parts.append((obj, mult))
    if len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0]
    return SumObject(tuple(parts))


def parse_space(text, what):
    """The cone P(1^n, m) written as "n,m"; ConfigError, led by `what`, if not."""
    try:
        n, m = map(int, text.split(","))
    except ValueError:
        raise ConfigError("%s %r: expected two integers n,m" % (what, text)) from None
    try:
        return make_space(n, m)
    except ValueError as exc:
        raise ConfigError("%s %r: %s" % (what, text, exc)) from None


def parse_config(text, name="config"):
    """Parse the plain hierarchical instance format.

    Keys: ``space: n,m``, declared once and first, and the indented
    blocks ``objects:`` and ``collections:`` with ``name = expression``
    lines.
    """
    space = None
    objects = {}
    collections = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("space:"):
            if space is not None:  # objects already parsed belong to the first cone
                raise ConfigError("line %d: space is declared twice" % lineno)
            val = stripped[len("space:"):].strip()
            space = parse_space(val, "line %d: bad space" % lineno)
            section = None
            continue
        if stripped == "objects:":
            section = "objects"
            continue
        if stripped == "collections:":
            section = "collections"
            continue
        if "=" not in stripped or section is None:
            raise ConfigError("line %d: cannot parse %r" % (lineno, stripped))
        if space is None:
            raise ConfigError("line %d: space must be declared first" % lineno)
        key, _, expr = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("line %d: empty name" % lineno)
        if section == "objects":
            if key in objects:
                raise ConfigError("line %d: duplicate object %r" % (lineno, key))
            objects[key] = parse_object_expr(expr, space, objects)
        else:
            if key in collections:
                raise ConfigError("line %d: duplicate collection %r" % (lineno, key))
            names = [t.strip() for t in expr.split(",") if t.strip()]
            if not names:
                raise ConfigError("line %d: collection %r is empty" % (lineno, key))
            for n_ in names:
                if n_ not in objects:
                    raise ConfigError(
                        "line %d: collection %r references unknown object %r"
                        % (lineno, key, n_)
                    )
            collections[key] = names
    if space is None:
        raise ConfigError("config declares no space")
    return InstanceConfig(name, space, objects, collections)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc))
    return parse_config(text, name=path)


# the built-in instances, in the config file format
P1113 = """\
# the threefold cone P(1,1,1,3) with its tilting summands
space: 3,3

objects:
  F   = ker(1)
  G   = ker(2)
  FG  = F + G
  O   = O(0)
  O3  = O(3)
  OZ1 = OZ(1)
  OZ2 = OZ(2)

collections:
  main = FG, O, O3
"""

P112 = """\
# the surface cone P(1,1,2) with its rank-2 tilting bundle
space: 2,2

objects:
  FS  = ker(1)
  O   = O(0)
  Om2 = O(-2)
  OC1 = OZ(1)

collections:
  main = Om2, FS, O
"""

BUILTIN_INSTANCES = {"P1113": P1113, "P112": P112}


def get_instance(name):
    if name not in BUILTIN_INSTANCES:
        raise ConfigError(
            "unknown instance %r (available: %s)"
            % (name, ", ".join(sorted(BUILTIN_INSTANCES)))
        )
    return parse_config(BUILTIN_INSTANCES[name], name=name)


class ReportRow(Record):
    _fields = ("section", "label", "expected", "computed")

    def __init__(self, section, label, expected, computed):
        self.section = section
        self.label = label
        self.expected = expected
        self.computed = computed

    @property
    def ok(self):
        return self.expected == self.computed


class Report(Record):
    _fields = ("instance", "space", "rows", "verdicts", "notes")

    def __init__(self, instance, space, rows=None, verdicts=None, notes=None):
        self.instance = instance
        self.space = space
        self.rows = [] if rows is None else rows
        # verdicts are (label, expected, got, ok)
        self.verdicts = [] if verdicts is None else verdicts
        self.notes = [] if notes is None else notes

    def add(self, section, label, expected, computed):
        self.rows.append(ReportRow(section, label, tuple(expected), tuple(computed)))

    def add_verdict(self, label, expected, got):
        self.verdicts.append((label, expected, got, expected == got))

    @property
    def ok(self):
        return all(r.ok for r in self.rows) and all(v[3] for v in self.verdicts)

    def to_jsonable(self):
        return {
            "instance": self.instance,
            "space": self.space,
            "rows": [
                {
                    "section": r.section,
                    "label": r.label,
                    "expected": list(r.expected),
                    "computed": list(r.computed),
                    "pass": r.ok,
                }
                for r in self.rows
            ],
            "verdicts": [
                {"label": v[0], "expected": v[1], "got": v[2], "pass": v[3]}
                for v in self.verdicts
            ],
            "notes": list(self.notes),
            "pass": self.ok,
        }


# golden tables for the built-in instances: every expected vector was
# cross-checked against the independent enumeration oracles in the tests
_P1113_ATOM_ROWS = [
    ("O", "O", (1, 0, 0, 0)),
    ("O", "OZ1", (3, 0, 0, 0)),
    ("O", "OZ2", (6, 0, 0, 0)),
    ("OZ1", "O", (0, 6, 0, 0)),
    ("OZ2", "O", (0, 3, 0, 0)),
    ("OZ1", "OZ1", (1, 10, 0, 0)),
    ("OZ1", "OZ2", (3, 15, 0, 0)),
    ("OZ2", "OZ1", (0, 6, 0, 0)),
]

_P1113_VANISHING_ROWS = [
    ("O", "F", (0, 0, 0, 0)),
    ("O", "G", (0, 0, 0, 0)),
    ("O3", "F", (0, 0, 0, 0)),
    ("O3", "G", (0, 0, 0, 0)),
]

_P1113_BUNDLE_ATOM_ROWS = [
    ("F", "O", (9, 0, 0, 0)),
    ("F", "OZ1", (18, 0, 0, 0)),
    ("F", "OZ2", (30, 0, 0, 0)),
    ("G", "O", (9, 0, 0, 0)),
    ("G", "OZ1", (24, 0, 0, 0)),
    ("G", "OZ2", (45, 0, 0, 0)),
]

_P1113_BUNDLE_PAIR_ROWS = [
    ("F", "F", (9, 0, 0, 0)),
    ("G", "G", (9, 0, 0, 0)),
    ("F", "G", (24, 0, 0, 0)),
    ("G", "F", (3, 0, 0, 0)),
]

_P112_ROWS = [
    ("atom pairs", "O", "O", (1, 0, 0)),
    ("atom pairs", "O", "OC1", (2, 0, 0)),
    ("atom pairs", "OC1", "O", (0, 2, 0)),
    ("orthogonality", "O", "FS", (0, 0, 0)),
    ("orthogonality", "FS", "Om2", (0, 0, 0)),
    ("orthogonality", "O", "Om2", (0, 0, 0)),
    ("bundle to atom", "FS", "O", (4, 0, 0)),
    ("bundle to atom", "FS", "OC1", (6, 0, 0)),
    ("bundle pairs", "FS", "FS", (2, 0, 0)),
]


def _hom_row(report, cfg, section, a, b, expected):
    computed = hom_objects(cfg.space, cfg.object(a), cfg.object(b))
    report.add(section, "Hom*(%s, %s)" % (a, b), expected, computed)


def _identity_string(ident, blocks):
    if ident.holds:
        return "%d = %s" % (
            ident.total,
            " + ".join("%d^2" % r for r in blocks.ranks),
        )
    return "not applicable (%d != %d)" % (ident.total, ident.sum_of_squares)


def build_report(instance_name):
    """The full reference report for a built-in instance."""
    cfg = get_instance(instance_name)
    report = Report(cfg.name, str(cfg.space))
    if instance_name == "P1113":
        for a, b, exp in _P1113_ATOM_ROWS:
            _hom_row(report, cfg, "atom pairs", a, b, exp)
        for a, b, exp in _P1113_VANISHING_ROWS:
            _hom_row(report, cfg, "orthogonality", a, b, exp)
        for a, b, exp in _P1113_BUNDLE_ATOM_ROWS:
            _hom_row(report, cfg, "bundle to atom", a, b, exp)
        for a, b, exp in _P1113_BUNDLE_PAIR_ROWS:
            _hom_row(report, cfg, "bundle pairs", a, b, exp)

        sod = check_sod(cfg.space, cfg.collection("main"))
        report.add_verdict(
            "decomposition <FG, O, O3>",
            "pass with End dims (45, 1, 1)",
            "%s with End dims %s"
            % ("pass" if sod.ok else "fail", tuple(sod.blocks)),
        )
        report.notes.append(sod.generation_note)

        stack_ok = stack_exceptional_check(cfg.space, 0, 5)
        stack_fail = stack_exceptional_check(cfg.space, 0, 6)
        report.add_verdict(
            "stack twist window 0..5 exceptional, 0..6 not",
            "pass / fail",
            "%s / %s"
            % (
                "pass" if stack_ok.ok else "fail",
                "pass" if stack_fail.ok else "fail",
            ),
        )

        blocks = end_blocks(cfg.space, [cfg.object("F"), cfg.object("G")], ["F", "G"])
        ident = rank_square_identity(blocks)
        report.add_verdict(
            "total End dimension vs sum of squared ranks",
            "45 = 3^2 + 6^2",
            _identity_string(ident, blocks),
        )
    elif instance_name == "P112":
        for section, a, b, exp in _P112_ROWS:
            _hom_row(report, cfg, section, a, b, exp)
        sod = check_sod(cfg.space, cfg.collection("main"))
        report.add_verdict(
            "decomposition <Om2, FS, O>",
            "pass with End dims (1, 2, 1)",
            "%s with End dims %s"
            % ("pass" if sod.ok else "fail", tuple(sod.blocks)),
        )
        report.notes.append(sod.generation_note)
        stack_ok = stack_exceptional_check(cfg.space, 0, 3)
        report.add_verdict("stack twist window 0..3 exceptional", "pass",
                           "pass" if stack_ok.ok else "fail")
        blocks = end_blocks(cfg.space, [cfg.object("FS")], ["FS"])
        ident = rank_square_identity(blocks)
        report.add_verdict(
            "total End dimension vs sum of squared ranks",
            "not applicable (2 != 4)",
            _identity_string(ident, blocks),
        )
    else:  # pragma: no cover - guarded by get_instance
        raise KeyError(instance_name)
    return report
