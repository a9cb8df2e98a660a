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
from .objects import SumObject, hom_objects, kernel_bundle
from .rules import OX, OZ
from .tilting import check_sod, end_blocks, stack_exceptional_check


class InstanceConfig(Record):
    """A named geometry with named objects and ordered collections.

    `objects` maps a name to its sheaf object, `collections` a name to a
    list of object names.
    """

    _fields = ("name", "space", "objects", "collections")

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


def _parse_term(term, expr, space, objects):
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
    if not base:  # a dangling or doubled '+', or 'k*' with no base
        raise ConfigError("empty term in %r" % expr.strip())
    m = _ATOM_RE.match(base)
    if m:
        kind, arg = m.group(1), int(m.group(2))
        if kind == "O":
            obj = OX(arg)
        elif kind == "OZ":
            obj = OZ(arg)
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
        obj, mult = _parse_term(term, expr, space, objects)
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
    lines.  An object name must not read as an expression: it is no
    atom ``O(k)``, ``OZ(k)`` or ``ker(e)`` and holds no ``+``, ``*``,
    ``,`` or whitespace.
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
            if _ATOM_RE.match(key) or any(c in "+*," or c.isspace() for c in key):
                raise ConfigError(
                    "line %d: object name %r reads as an expression: a name is "
                    "no atom O(k), OZ(k) or ker(e) and holds no '+', '*', ',' "
                    "or whitespace" % (lineno, key)
                )
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


class ReportRow(Record):
    _fields = ("section", "label", "expected", "computed")

    @property
    def ok(self):
        return self.expected == self.computed


class Report(Record):
    # verdicts are (label, expected, got, ok)
    _fields = ("instance", "space", "rows", "verdicts", "notes")
    _defaults = {"rows": [], "verdicts": [], "notes": []}

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


# The built-in instances, one entry each: the config text, the golden
# rows (section, source, target, expected Hom* dims) and the verdicts
# (kind, argument, expected), kind one of _VERDICTS.  Every expected
# vector was cross-checked against the independent enumeration oracles
# in the tests.
BUILTIN_INSTANCES = {
    "P1113": (
        """\
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
""",
        [
            ("atom pairs", "O", "O", (1, 0, 0, 0)),
            ("atom pairs", "O", "OZ1", (3, 0, 0, 0)),
            ("atom pairs", "O", "OZ2", (6, 0, 0, 0)),
            ("atom pairs", "OZ1", "O", (0, 6, 0, 0)),
            ("atom pairs", "OZ2", "O", (0, 3, 0, 0)),
            ("atom pairs", "OZ1", "OZ1", (1, 10, 0, 0)),
            ("atom pairs", "OZ1", "OZ2", (3, 15, 0, 0)),
            ("atom pairs", "OZ2", "OZ1", (0, 6, 0, 0)),
            ("orthogonality", "O", "F", (0, 0, 0, 0)),
            ("orthogonality", "O", "G", (0, 0, 0, 0)),
            ("orthogonality", "O3", "F", (0, 0, 0, 0)),
            ("orthogonality", "O3", "G", (0, 0, 0, 0)),
            ("bundle to atom", "F", "O", (9, 0, 0, 0)),
            ("bundle to atom", "F", "OZ1", (18, 0, 0, 0)),
            ("bundle to atom", "F", "OZ2", (30, 0, 0, 0)),
            ("bundle to atom", "G", "O", (9, 0, 0, 0)),
            ("bundle to atom", "G", "OZ1", (24, 0, 0, 0)),
            ("bundle to atom", "G", "OZ2", (45, 0, 0, 0)),
            ("bundle pairs", "F", "F", (9, 0, 0, 0)),
            ("bundle pairs", "G", "G", (9, 0, 0, 0)),
            ("bundle pairs", "F", "G", (24, 0, 0, 0)),
            ("bundle pairs", "G", "F", (3, 0, 0, 0)),
        ],
        [
            ("sod", "main", (45, 1, 1)),
            ("stack", ((0, 5), (0, 6)), (True, False)),
            ("rank square", ("F", "G"), (45, (3, 6))),
        ],
    ),
    "P112": (
        """\
# the surface cone P(1,1,2) with its rank-2 tilting bundle
space: 2,2

objects:
  FS  = ker(1)
  O   = O(0)
  Om2 = O(-2)
  OC1 = OZ(1)

collections:
  main = Om2, FS, O
""",
        [
            ("atom pairs", "O", "O", (1, 0, 0)),
            ("atom pairs", "O", "OC1", (2, 0, 0)),
            ("atom pairs", "OC1", "O", (0, 2, 0)),
            ("orthogonality", "O", "FS", (0, 0, 0)),
            ("orthogonality", "FS", "Om2", (0, 0, 0)),
            ("orthogonality", "O", "Om2", (0, 0, 0)),
            ("bundle to atom", "FS", "O", (4, 0, 0)),
            ("bundle to atom", "FS", "OC1", (6, 0, 0)),
            ("bundle pairs", "FS", "FS", (2, 0, 0)),
        ],
        [
            ("sod", "main", (1, 2, 1)),
            ("stack", ((0, 3),), (True,)),
            ("rank square", ("FS",), (2, (2,))),
        ],
    ),
}


def get_instance(name):
    if name not in BUILTIN_INSTANCES:
        raise ConfigError(
            "unknown instance %r (available: %s)"
            % (name, ", ".join(sorted(BUILTIN_INSTANCES)))
        )
    return parse_config(BUILTIN_INSTANCES[name][0], name=name)


# Each verdict kind gives (label, expected, got) for its argument and
# expected value; "pass"/"fail" stand for a check's outcome.

def _flag(ok):
    return "pass" if ok else "fail"


def _sod_verdict(report, cfg, collection, end_dims):
    """The collection is an SOD whose slots have these End dims."""
    sod = check_sod(cfg.space, cfg.collection(collection))
    report.notes.append(sod.generation_note)
    return (
        "decomposition <%s>" % ", ".join(cfg.collections[collection]),
        "pass with End dims %s" % (end_dims,),
        "%s with End dims %s" % (_flag(sod.ok), tuple(sod.blocks)),
    )


def _stack_verdict(report, cfg, windows, exceptional):
    """Each twist window lo..hi is exceptional on the stack, or not."""
    return (
        "stack twist window "
        + ", ".join(
            "%d..%d %s" % (lo, hi, "exceptional" if ok else "not")
            for (lo, hi), ok in zip(windows, exceptional)
        ),
        " / ".join(map(_flag, exceptional)),
        " / ".join(_flag(stack_exceptional_check(cfg.space, lo, hi).ok) for lo, hi in windows),
    )


def _squares_string(total, ranks):
    squares = sum(r * r for r in ranks)
    if total == squares:
        return "%d = %s" % (total, " + ".join("%d^2" % r for r in ranks))
    return "not applicable (%d != %d)" % (total, squares)


def _rank_square_verdict(report, cfg, names, expected):
    """The End dimension of the sum of the named objects against the
    sum of their squared ranks, given as (total, ranks)."""
    blocks = end_blocks(cfg.space, [cfg.objects[n] for n in names], names)
    return (
        "total End dimension vs sum of squared ranks",
        _squares_string(*expected),
        _squares_string(blocks.total, blocks.ranks),
    )


_VERDICTS = {
    "sod": _sod_verdict,
    "stack": _stack_verdict,
    "rank square": _rank_square_verdict,
}


def build_report(instance_name):
    """The full reference report for a built-in instance: its golden
    rows, then its verdicts, in the order of its table entry."""
    cfg = get_instance(instance_name)
    _, rows, verdicts = BUILTIN_INSTANCES[instance_name]
    report = Report(cfg.name, str(cfg.space))
    for section, a, b, expected in rows:
        computed = hom_objects(cfg.space, cfg.objects[a], cfg.objects[b])
        report.add(section, "Hom*(%s, %s)" % (a, b), expected, computed)
    for kind, argument, expected in verdicts:
        report.add_verdict(*_VERDICTS[kind](report, cfg, argument, expected))
    return report
