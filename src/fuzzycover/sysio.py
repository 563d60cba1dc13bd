"""System file format: ingestion, canonical serialization, result emission.

A system file is UTF-8 JSON.  Degrees are written as decimal *strings* (at
most 6 fractional digits) so that values round-trip exactly; bare JSON
numbers are rejected.  Shape:

    {
      "universe": ["x1", "x2", ...],
      "coverings": [
        {"name": "price", "gamma": "0.9",
         "members": [{"name": "high", "degrees": ["1", "0.7", ...]}, ...]}
      ],
      "experts": [                                  # optional
        {"name": "price2", "gamma": "0.9",
         "reports": [
           {"expert": "A", "sets": [{"name": "high", "degrees": [...]}, ...]},
           {"expert": "B", "sets": [...]}
         ]}
      ],
      "targets": {"X": ["0.6", "0.5", ...]}
    }

Expert blocks are unioned (pointwise max across experts, per set name) into
one covering each at load time, appended after the plain coverings.  A key
repeated inside any object, a top-level key outside the four above, or an
optional block of the wrong type (even an empty one), is a parse error
rather than silently last-wins or ignored.  This module checks only the
shape; each rule on the values (decimal strings, gamma in (0, 1], a member or
expert set in every list, at least one covering, object names that are
non-empty strings) is checked once, by `exact` or `model`, and the error is
reported at the path of the block it came from.  Emitted
files are canonical: universe order everywhere, minimal decimal strings,
two-space indentation, sorted result keys.

Degrees are read while the JSON is parsed: the object hook turns each
`degrees` list of canonical degree strings into micro-units as the parser
closes its object, parsing each distinct spelling once, so a file's degree
strings never all exist at once.  A list is read whole or not at all: its
new spellings enter the file's spelling table only when the hook reads it,
so the table holds canonical spellings only until the parser is done, and
what the hook does with one list never depends on the order of a set.  Any
other list (another spelling, a bad item, a target) is read afterwards,
where its errors are reported at their paths.  `load` frees the file's text
before the model is built.  Every vector is written back through
`exact.format_each`, one `format_scaled` call per distinct value.

A result file is one document: `result_document` builds it from the result
(`operator`, `params`, `lower`, `upper`) and each field the command gives
(`covering` or `coverings`, `target`, `residual_mode`, `regions`,
`diagnostics`), and `render_json` or `render_result_csv` writes that
document as it is.

Byte contract: `render_json(doc)` is exactly `json.dumps(doc, indent=2,
sort_keys=True, ensure_ascii=False) + "\n"`, and `dumps` is the same without
`sort_keys`; one writer (`_json_text`) produces both without json's
pure-Python encoder, which `indent` would select.  A `single.Diagnostics`
value in the document (per-row diagnostics, which json.dumps refuses) is
written as json.dumps writes `list(value)`, and `render_result_csv` writes it
as it writes that list; neither writer builds the list.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import re
from dataclasses import dataclass

from .exact import CANONICAL_DEGREE_RE, DecimalFormatError, format_each, format_scaled, parse_degree
from .model import (
    FuzzyCovering,
    FuzzySet,
    MultiGranulationSystem,
    StructuralError,
    Universe,
    ValidationError,
    build_covering_from_reports,
)
from .single import Diagnostics


class ParseError(ValueError):
    """Malformed system file (JSON, shape, degree strings or lengths)."""


def _fail(path: str, msg: str) -> "ParseError":
    return ParseError(f"{path}: {msg}")


TOP_LEVEL_KEYS = ("universe", "coverings", "experts", "targets")


class _Read:
    """A `degrees` list the object hook read: `values`, its items in micro-units.

    The hook reads only canonical spellings, so the list can be written back:
    the repr, which an error about an enclosing value prints, is the list's own.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        self.values = values

    def __repr__(self) -> str:
        return repr(format_each(self.values))


def _unique_keys(origin: str, scaled: dict[str, int]):
    """json object hook that refuses a key repeated inside one object, and reads
    a `degrees` list of canonical degree strings as a `_Read` of micro-units.

    A list is read whole or not at all: its new spellings enter `scaled` only
    when every one is canonical, so while the parser runs `scaled` holds
    canonical spellings only and each list the hook reads prints as the file
    writes it.  A member's degree strings are freed as the parser closes it,
    so a file's strings never all exist at once.  Any other `degrees` value is
    left as it is, for `_parse_degrees` to read or to report at its path.
    """

    def build(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise _fail(origin, f"duplicate key {key!r}")
            doc[key] = value
        raw = doc.get("degrees")
        if type(raw) is list:
            try:  # every spelling already in the table: one pass
                doc["degrees"] = _Read(tuple(map(scaled.__getitem__, raw)))
            except (KeyError, TypeError):
                # an unhashable item, or one that is not a string, leaves the list
                with contextlib.suppress(TypeError):
                    new = set(raw).difference(scaled)
                    if all(map(CANONICAL_DEGREE_RE.fullmatch, new)):
                        doc["degrees"] = _Read(_parse_new(raw, new, scaled))
        return doc

    return build


def _parse_new(raw: list, new: set, scaled: dict[str, int]) -> tuple[int, ...]:
    """`raw` in micro-units, after each spelling of `new` (those `scaled` lacks)
    is parsed into `scaled`; DecimalFormatError when one fails."""
    scaled.update(zip(new, map(parse_degree, new)))
    return tuple(map(scaled.__getitem__, raw))


def _writable(name: str, where: str) -> str:
    """A name that can be written out as UTF-8; a JSON escape can make a lone
    surrogate, which loads but fails when the name is emitted."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise _fail(where, f"name {name!r} holds a lone surrogate, not text") from None
    return name


def _need(obj, key, kind, where):
    """obj[key] of type `kind`; a string read this way is a name, so it must be writable."""
    if not isinstance(obj, dict) or key not in obj:
        raise _fail(where, f"missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise _fail(f"{where}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    if kind is str:
        _writable(value, f"{where}.{key}")
    return value


def _optional(obj: dict, key, kind, where):
    """obj[key] checked like `_need`, or an empty `kind` when the key is absent."""
    return _need(obj, key, kind, where) if key in obj else kind()


def _degree(raw, where: str) -> int:
    """`parse_degree(raw)`, with its error reported at `where`."""
    try:
        return parse_degree(raw)
    except DecimalFormatError as e:
        raise _fail(where, str(e)) from None


def _parse_degrees(raw, universe: Universe, where: str, scaled: dict[str, int]) -> FuzzySet:
    """`raw` as a FuzzySet: a vector the object hook read, or a list read here."""
    if type(raw) is _Read:
        raw = raw.values
    elif not isinstance(raw, list):
        raise _fail(where, "expected a list of degree strings")
    if len(raw) != universe.size:
        raise _fail(where, f"vector length {len(raw)} != universe size {universe.size}")
    if type(raw) is list:  # a target, a list with other spellings, or one with a bad item
        try:
            raw = tuple(map(scaled.__getitem__, raw))
        except (KeyError, TypeError):
            try:
                raw = _parse_new(raw, set(raw).difference(scaled), scaled)
            except (TypeError, DecimalFormatError):  # the scan reports the first bad position
                raw = tuple(_degree(item, f"{where}[{j}]") for j, item in enumerate(raw))
    return FuzzySet(universe, raw)


def _parse_named_sets(
    raw, universe: Universe, where: str, scaled: dict[str, int]
) -> list[tuple[str, FuzzySet]]:
    if not isinstance(raw, list):
        raise _fail(where, "expected a list of named membership vectors")
    out = []
    for i, entry in enumerate(raw):
        name = _need(entry, "name", str, f"{where}[{i}]")
        degrees = _parse_degrees(
            entry.get("degrees"), universe, f"{where}[{i}].degrees", scaled
        )
        out.append((name, degrees))
    return out


@dataclass(frozen=True)
class SystemFile:
    """A loaded system: coverings (expert blocks already unioned) and targets."""

    system: MultiGranulationSystem
    targets: dict[str, FuzzySet]

    @property
    def universe(self) -> Universe:
        return self.system.universe

    def target(self, name: str) -> FuzzySet:
        try:
            return self.targets[name]
        except KeyError:
            raise StructuralError(
                f"no target named {name!r} (available: {', '.join(self.targets) or 'none'})"
            ) from None


def loads(text: str, origin: str = "<string>") -> SystemFile:
    return _system(*_decode(text, origin), origin)


def load(path: str) -> SystemFile:
    # the text is only an argument of `_decode`, so it is freed before the model is built
    return _system(*_decode(_read(path), path), path)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise _fail(path, f"not UTF-8: {e.reason} at byte {e.start}") from None


def _decode(text: str, origin: str) -> tuple[object, dict[str, int]]:
    """The JSON document of `text`, its degree lists read by the object hook,
    and the table of the spellings parsed so far."""
    # a file repeats a few degree spellings many times: each is parsed once
    scaled: dict[str, int] = {}
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys(origin, scaled))
    except ParseError:
        raise
    except json.JSONDecodeError as e:
        raise ParseError(f"{origin}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:
        # an integer past the interpreter's digit limit, or nesting past its recursion limit
        raise _fail(origin, f"invalid JSON: {e}") from None
    return doc, scaled


def _system(doc, scaled: dict[str, int], origin: str) -> SystemFile:
    """The system a decoded document describes, each shape rule checked at its path."""
    if not isinstance(doc, dict):
        raise _fail(origin, "top level must be an object")
    unknown = [key for key in doc if key not in TOP_LEVEL_KEYS]
    if unknown:
        raise _fail(
            origin,
            f"unknown top-level key {unknown[0]!r} (expected {', '.join(TOP_LEVEL_KEYS)})",
        )

    try:
        universe = Universe(tuple(_need(doc, "universe", list, origin)))
    except StructuralError as e:
        raise _fail(f"{origin}.universe", str(e)) from None
    try:  # one encode; the scan names the first name that fails
        "\n".join(universe.objects).encode("utf-8")
    except UnicodeEncodeError:
        for i, n in enumerate(universe.objects):
            _writable(n, f"{origin}.universe[{i}]")

    coverings: list[FuzzyCovering] = []
    for i, block in enumerate(_optional(doc, "coverings", list, origin)):
        where = f"{origin}.coverings[{i}]"
        name = _need(block, "name", str, where)
        gamma = _degree(block.get("gamma"), f"{where}.gamma")
        members = _parse_named_sets(block.get("members"), universe, f"{where}.members", scaled)
        try:
            coverings.append(FuzzyCovering(name, universe, tuple(members), gamma))
        except StructuralError as e:
            raise _fail(where, str(e)) from None

    for i, block in enumerate(_optional(doc, "experts", list, origin)):
        where = f"{origin}.experts[{i}]"
        name = _need(block, "name", str, where)
        gamma = _degree(block.get("gamma"), f"{where}.gamma")
        reports = []
        raw_reports = _need(block, "reports", list, where)
        for j, rep in enumerate(raw_reports):
            expert = _need(rep, "expert", str, f"{where}.reports[{j}]")
            sets = _parse_named_sets(
                rep.get("sets"), universe, f"{where}.reports[{j}].sets", scaled
            )
            reports.append((expert, sets))
        try:
            coverings.append(build_covering_from_reports(name, reports, gamma))
        except StructuralError as e:
            raise _fail(where, str(e)) from None

    targets = {
        _writable(tname, f"{origin}.targets"): _parse_degrees(
            raw, universe, f"{origin}.targets.{tname}", scaled
        )
        for tname, raw in _optional(doc, "targets", dict, origin).items()
    }
    try:
        system = MultiGranulationSystem(universe, tuple(coverings))
    except StructuralError as e:
        raise _fail(origin, str(e)) from None
    return SystemFile(system, targets)


def dumps(sf: SystemFile) -> str:
    """Canonical serialization; stable bytes for equal systems."""
    doc = {
        "universe": list(sf.universe.objects),
        "coverings": [
            {
                "name": c.name,
                "gamma": format_scaled(c.gamma),
                "members": [
                    {"name": n, "degrees": list(s.degree_strings())}
                    for n, s in c.members
                ],
            }
            for c in sf.system.coverings
        ],
        "targets": {
            name: list(s.degree_strings()) for name, s in sf.targets.items()
        },
    }
    return _json_text(doc, sort=False)


def dump(sf: SystemFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(sf))


def result_document(result, covering=None, coverings=None, target=None,
                    residual_mode=None, regions=None, diagnostics=None) -> dict:
    """The document of a result file: the result's operator, parameter echo
    and lower/upper sets, plus each field that is given."""
    if regions is not None:
        regions = {label: list(names) for label, names in regions.as_dict().items()}
    fields = dict(covering=covering, coverings=coverings, target=target,
                  residual_mode=residual_mode, regions=regions, diagnostics=diagnostics)
    return {
        "operator": result.operator,
        "params": dict(result.params),
        "lower": list(result.lower),
        "upper": list(result.upper),
        **{key: value for key, value in fields.items() if value is not None},
    }


def render_json(doc: dict) -> str:
    return _json_text(doc, sort=True)


# the C escaper that json.dumps itself calls with ensure_ascii=False
_escape = json.encoder.encode_basestring


def _json_text(doc, sort: bool) -> str:
    """`json.dumps(doc, indent=2, sort_keys=sort, ensure_ascii=False) + "\n"`, byte
    for byte, for a document of str, list and dict with str keys, where a
    `Diagnostics` value stands for the list of its entries; any other type
    raises TypeError.

    json.dumps takes its C encoder only without `indent`, so this writer joins
    chunks itself, with C calls where it can:
    - a list of strings, or a dict whose values are all strings, is one join;
    - a `Diagnostics` value renders each distinct row once, as the text of its
      entry before and after the name, and splices the escaped names in
      between with one `chain` over the objects;
    - a list met again at the same depth (`neigh` shares one degree list among
      the objects of a row) repeats the chunks of its first rendering.
    Every chunk goes into one list, joined once at the end.
    """
    out: list[str] = []
    shown: dict = {}  # (id(list), depth) -> (start, stop) of its chunks in out

    def pad(depth: int) -> str:
        return "\n" + "  " * depth

    def put(o, depth: int) -> None:
        if isinstance(o, str):
            out.append(_escape(o))
        elif isinstance(o, list):
            put_list(o, depth)
        elif isinstance(o, dict):
            put_dict(o, depth)
        elif type(o) is Diagnostics:
            put_rows(o, depth)
        else:
            raise TypeError(f"a JSON document holds str, list and dict, not {type(o).__name__}")

    def put_list(o: list, depth: int) -> None:
        if not o:
            out.append("[]")
            return
        key = (id(o), depth)  # the document holds o, so its id is not reused during the call
        if key in shown:
            start, stop = shown[key]
            out.extend(out[start:stop])
            return
        start, inner = len(out), pad(depth + 1)
        sep = "," + inner
        try:
            out.extend(("[", inner, sep.join(map(_escape, o)), pad(depth), "]"))
        except TypeError:  # not all strings
            out.append("[")
            lead = inner
            for item in o:
                out.append(lead)
                lead = sep
                put(item, depth + 1)
            out.extend((pad(depth), "]"))
        shown[key] = (start, len(out))

    def put_rows(o: Diagnostics, depth: int) -> None:
        if not o.names:
            out.append("[]")
            return
        # each row's entry as "," + the text before the name, and the text after it
        inner, sep = pad(depth + 2), "," + pad(depth + 2)
        heads, tails = [], []
        for row in o.rows:
            keys = sorted(["object", *row]) if sort else ["object", *row]
            cut = keys.index("object")
            pairs = [_escape(k) + ": " + _escape(row[k]) for k in keys if k != "object"]
            heads.append("," + pad(depth + 1) + "{" + inner + "".join(p + sep for p in pairs[:cut])
                         + '"object": ')
            tails.append("".join(sep + p for p in pairs[cut:]) + pad(depth + 1) + "}")
        start = len(out)
        out.extend(itertools.chain.from_iterable(zip(
            map(heads.__getitem__, o.index), map(_escape, o.names), map(tails.__getitem__, o.index)
        )))
        out[start] = "[" + out[start][1:]  # no comma before the first entry
        out.extend((pad(depth), "]"))

    def put_dict(o: dict, depth: int) -> None:
        if not o:
            out.append("{}")
            return
        keys = sorted(o) if sort else list(o)
        values = list(map(o.__getitem__, keys))
        inner = pad(depth + 1)
        sep = "," + inner
        try:
            pairs = map(": ".join, zip(map(_escape, keys), map(_escape, values)))
            out.extend(("{", inner, sep.join(pairs), pad(depth), "}"))
        except TypeError:  # not all strings
            out.append("{")
            lead = inner
            for k, v in zip(keys, values):
                out.extend((lead, _escape(k), ": "))
                lead = sep
                put(v, depth + 1)
            out.extend((pad(depth), "}"))

    put(doc, 0)
    out.append("\n")
    return "".join(out)


def render_result_csv(doc: dict, universe: Universe) -> str:
    """Flat per-object view of a result document, one row per object in universe order.

    The diagnostics entries are listed in universe order too (a `Diagnostics`
    value, or a plain list read as one row per object); their columns are the
    keys of the first entry, every key but `object`.  An object's line is its
    name and the cells of its key: its lower and upper flags, its regions and
    its diagnostics values, so `render_csv` writes each distinct key once.
    """
    objects = universe.objects
    entries = doc.get("diagnostics", [])
    rows, index = ((entries.rows, entries.index) if type(entries) is Diagnostics
                   else (entries, range(len(objects))))
    columns = [key for key in rows[index[0]] if key != "object"] if entries else []
    values = [tuple(map(row.__getitem__, columns)) for row in rows]
    regions = doc.get("regions", {})
    labels: dict[str, str] = {}  # name -> its labels in region order, "|"-joined
    for label, names in regions.items():
        for name in set(names):
            labels[name] = labels[name] + "|" + label if name in labels else label
    keys = list(zip(
        map(set(doc["lower"]).__contains__, objects),
        map(set(doc["upper"]).__contains__, objects),
        *([map(labels.get, objects, itertools.repeat(""))] if regions else []),
        map(values.__getitem__, index) if entries else itertools.repeat(()),
    ))
    bit = ("0", "1").__getitem__
    header = ["object", "in_lower", "in_upper", *(["regions"] if regions else []), *columns]
    return render_csv(header, [objects], keys,
                      lambda key: (bit(key[0]), bit(key[1]), *key[2:-1], *key[-1]))


# a cell the csv writer may quote (or, before Python 3.11, refuse); any other is written as it is
_CSV_SPECIAL = re.compile('[,"\r\n\0]')


def render_csv(header: list, leads: list, keys: list, tail=tuple) -> str:
    """CSV text: the header line, then one line per key.

    A line is its lead cells, one from each column of `leads`, then the tail
    cells of its key, `tail(key)` (at least two; by default the key's own
    cells).  Cells holding ',', '"' or a line break are quoted; other
    cells are written as they are, so plain names give the same bytes as a
    ','-join.  A bare carriage return anywhere quotes every cell.
    """
    text = _csv_text(header, leads, keys, tail, csv.QUOTE_MINIMAL)
    if "\r" in text:
        # the csv module leaves a bare "\r" unquoted when the line end is "\n"
        text = _csv_text(header, leads, keys, tail, csv.QUOTE_ALL)
    return text


def _csv_text(header: list, leads: list, keys: list, tail, quoting: int) -> str:
    """Each distinct key's tail, and each lead cell the writer may quote, written
    once; then the lead cells and tail text of every line, joined once."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=quoting)

    def line(cells) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(cells)
        return buf.getvalue()

    tails = {key: "," + line(tail(key)) for key in set(keys)}
    special = itertools.chain.from_iterable(leads)
    if quoting != csv.QUOTE_ALL:
        special = filter(_CSV_SPECIAL.search, special)
    cells = {cell: line([cell])[:-1] for cell in set(special)}
    if cells:
        leads = [map(cells.get, column, column) for column in leads]
    parts = leads[:1]  # the lead columns with a comma between each two; a tail brings its own
    for column in leads[1:]:
        parts += (itertools.repeat(","), column)
    return "".join((line(header), *itertools.chain.from_iterable(
        zip(*parts, map(tails.__getitem__, keys))
    )))


__all__ = [
    "ParseError",
    "SystemFile",
    "ValidationError",
    "load",
    "loads",
    "dump",
    "dumps",
    "result_document",
    "render_json",
    "render_result_csv",
    "render_csv",
]
