"""Trace files and the other documents the command line writes.

`--trace-json` is written record by record through one renderer per engine
(TRACE_JSON_RECORDS), each filling one template with the record's fields;
the bytes are those of json.dump(doc, indent=2, default=str).  `--trace-csv`
has one row per (round, economy) from TRACE_CSV_ROWS.  Every file is
replaced atomically, once completely written.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
import tempfile
from fractions import Fraction

from . import auction
from .model import ZERO_BUNDLE, format_rational, parse_rational
from .pricing import EnvelopePriceState, state_to_dict


@contextlib.contextmanager
def atomic_open(path: str):
    """A text file that replaces `path` only once it is completely written
    (temp file + rename in the target directory)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


_quote = json.encoder.encode_basestring_ascii


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, int) and not isinstance(key, bool):
        return int.__repr__(key)
    raise TypeError("JSON object keys must be str or int, not %s" % type(key).__name__)


def json_text(o, indent: str) -> str:
    """The text json.dumps(o, indent=2, default=str) gives o when o starts
    on a line indented by `indent`.  It covers dicts with str or int keys,
    lists, tuples, str, int, float, bool and None; any other value is
    written as the string str() gives it."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):  # NaN and the infinities as json writes them
        return json.dumps(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        body = ",\n".join([inner + json_text(v, inner) for v in o])
        return "[\n" + body + "\n" + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        body = ",\n".join([
            inner + _quote(_json_key(k)) + ": " + json_text(v, inner) for k, v in o.items()
        ])
        return "{\n" + body + "\n" + indent + "}"
    return _quote(str(o))


def write_json(path: str, doc) -> None:
    """Write doc as json.dump(doc, fh, indent=2, default=str) does."""
    with atomic_open(path) as fh:
        fh.write(json_text(doc, ""))
        fh.write("\n")


TRACE_CSV_HEADER = (
    "round", "economy", "p", "sum_kappa_min", "sum_kappa_max", "diagnosis", "action",
)


def write_csv(path: str, header, rows) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _uce_csv_rows(trace):
    for record in trace.records:
        updated = {u["economy"]: u["direction"] for u in record["updates"]}
        for j, (low, high) in record["kappa_sums"].items():
            yield (record["round"], j, record["p"][j], low, high, record["diagnosis"][j],
                   updated.get(j, ""))


def _clock_csv_row(round_, economy, row):
    """A uniform-price clock's row; its step after the round is its
    diagnosis, unless the clock settled there.  Only whether the price is
    zero matters to that rule, and zero is always written "0"."""
    diag = row["diagnosis"]
    action = "" if auction.settled(diag, 0 if row["p"] == "0" else None) else diag
    return (round_, economy, row["p"], row["sum_kappa_min"], row["sum_kappa_max"], diag, action)


def _linear_csv_rows(trace):
    for row in trace.records:
        yield _clock_csv_row(row["round"], row["economy"], row)


def _parallel_csv_rows(trace):
    for record in trace.records:
        for j in sorted(record["economies"]):
            yield _clock_csv_row(record["round"], j, record["economies"][j])


TRACE_CSV_ROWS = {"uce": _uce_csv_rows, "linear": _linear_csv_rows, "parallel": _parallel_csv_rows}


def write_trace_csv(path: str, engine: str, trace) -> None:
    """One row per (round, economy); a trace the round cap stopped, which has
    no outcome, ends with the round-cap marker row."""
    rows = TRACE_CSV_ROWS[engine](trace)
    if trace.outcome is None:
        marker = (len(trace.records), "", "", "", "", "", "round_cap")
        rows = itertools.chain(rows, [marker])
    write_csv(path, TRACE_CSV_HEADER, rows)


# --trace-json records.  Each engine's records have one shape, and its
# renderer fills one template with the record's fields, laid out as
# json.dumps(doc, indent=2, default=str) lays out an item of doc["records"]:
# the record's braces on lines indented by four spaces, its fields by six.
# tests/test_cli.py compares whole trace files with json.dumps on every
# record variant, so a field a template does not know fails there.


def _block(brackets: str, entries, indent: str) -> str:
    """A JSON list ("[]") or object ("{}") of entries already written as
    JSON (`"key": value` for an object), its brackets on lines indented by
    `indent` and its entries two spaces further in."""
    inner = "\n" + indent + "  "
    body = ("," + inner).join(entries)
    return brackets[0] + inner + body + "\n" + indent + brackets[1] if body else brackets


_UCE_RECORD = """{
      "round": %d,
      "p": %s,
      "alpha": %s,
      "reports": %s,
      "kappa_sums": %s,
      "diagnosis": %s,
      "dual_objective": %s,
      "updates": %s%s
    }"""
_UCE_REPORT = """"%d": {
          "kappa_min": %d,
          "kappa_max": %d,
          "max_utility": %s,
          "maximizer_extremes": [
            [
              %d,
              %d
            ],
            [
              %d,
              %d
            ]
          ]
        }"""
_UCE_KAPPA_SUMS = """"%d": [
          %d,
          %d
        ]"""
_UCE_UPDATE = """{
          "economy": %d,
          "direction": %s
        }"""
_FIELD = " " * 6  # a record field's line; its value's brackets close there


def _uce_json_record(record) -> str:
    alpha = record["alpha"]
    diagnosis = record["diagnosis"]
    reports = []
    for i, r in record["reports"].items():
        # A report's extremes are its first and last maximizer, two (weak,
        # strong) bundles.
        first, last = r["maximizer_extremes"]
        reports.append(_UCE_REPORT % (
            i, r["kappa_min"], r["kappa_max"], _quote(r["max_utility"]), *first, *last,
        ))
    witness = record.get("witness")
    return _UCE_RECORD % (
        record["round"],
        _block("[]", map(_quote, record["p"]), _FIELD),
        _block("{}", map("%s: %s".__mod__, zip(map(_quote, alpha), map(_quote, alpha.values()))),
               _FIELD),
        _block("{}", reports, _FIELD),
        _block("{}", [_UCE_KAPPA_SUMS % (j, low, high)
                      for j, (low, high) in record["kappa_sums"].items()], _FIELD),
        _block("{}", map('"%d": %s'.__mod__, zip(diagnosis, map(_quote, diagnosis.values()))),
               _FIELD),
        _quote(record["dual_objective"]),
        _block("[]", [_UCE_UPDATE % (u["economy"], _quote(u["direction"]))
                      for u in record["updates"]], _FIELD),
        "" if witness is None else ',\n%s"witness": %s' % (_FIELD, json_text(witness, _FIELD)),
    )


_LINEAR_RECORD = """{
      "round": %d,
      "p": %s,
      "sum_kappa_min": %d,
      "sum_kappa_max": %d,
      "diagnosis": %s,
      "economy": %d
    }"""


def _linear_json_record(row) -> str:
    return _LINEAR_RECORD % (
        row["round"], _quote(row["p"]), row["sum_kappa_min"], row["sum_kappa_max"],
        _quote(row["diagnosis"]), row["economy"],
    )


_PARALLEL_RECORD = """{
      "round": %d,
      "economies": %s
    }"""
_PARALLEL_ROW = """"%d": {
          "round": %d,
          "p": %s,
          "sum_kappa_min": %d,
          "sum_kappa_max": %d,
          "diagnosis": %s
        }"""


def _parallel_json_record(record) -> str:
    rows = [
        _PARALLEL_ROW % (
            j, row["round"], _quote(row["p"]), row["sum_kappa_min"], row["sum_kappa_max"],
            _quote(row["diagnosis"]),
        )
        for j, row in record["economies"].items()
    ]
    return _PARALLEL_RECORD % (record["round"], _block("{}", rows, _FIELD))


TRACE_JSON_RECORDS = {
    "uce": _uce_json_record, "linear": _linear_json_record, "parallel": _parallel_json_record,
}


def write_trace_json(path: str, engine: str, digest: str, trace, n: int) -> None:
    """The trace document as json.dump(doc, fh, indent=2, default=str) writes
    it, record by record, so a long trace's text is never held whole."""
    render = TRACE_JSON_RECORDS[engine]
    with atomic_open(path) as fh:
        fh.write('{\n  "instance_digest": %s,\n  "engine": %s,\n  "records": '
                 % (_quote(digest), _quote(engine)))
        separator = "[\n    "
        for record in trace.records:
            fh.write(separator + render(record))
            separator = ",\n    "
        fh.write("\n  ]" if trace.records else "[]")
        if trace.outcome is None:
            fh.write(',\n  "outcome": null,\n  "round_cap_reached": true\n}\n')
        else:
            fh.write(',\n  "outcome": %s\n}\n'
                     % json_text(outcome_to_dict(trace.outcome, n), "  "))


def outcome_to_dict(outcome, n: int) -> dict:
    doc = {
        "allocation": {
            str(i): list(outcome.allocation.get(i, ZERO_BUNDLE)) for i in range(1, n + 1)
        },
        "rounds": outcome.rounds,
        "queries": outcome.queries,
        "cleared_round": {str(j): r for j, r in sorted(outcome.cleared_round.items())},
        "details": outcome.details,
    }
    if outcome.payments is not None:
        doc["payments"] = {
            str(i): format_rational(outcome.payments[i]) for i in range(1, n + 1)
        }
    if outcome.final_state is not None:
        doc["final_state"] = state_to_dict(outcome.final_state)
    return doc


def state_from_record(record: dict, n: int, delta: Fraction) -> EnvelopePriceState:
    p = tuple(parse_rational(x) for x in record["p"])
    alpha = {}
    for key, val in record["alpha"].items():
        i, j = key.split(",")
        alpha[(int(i), int(j))] = parse_rational(val)
    return EnvelopePriceState(n=n, p=p, alpha=alpha, delta=delta)
