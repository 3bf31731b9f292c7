"""Command-line front end: analyze | influence | switching.

Every run is one pipeline: parse and check the settings, load the CSV, run
the command, emit the report (the shared header plus the command's body).
Exit codes: 0 on success, 2 for configuration errors, 1 for data or I/O
errors.  Warnings go to stderr; results go to --out (or stdout).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    CORRELATION,
    COVARIANCE,
    DataMatrix,
    DIVISOR_N,
    DIVISOR_N_MINUS_1,
    EstimatorSpec,
    estimate,
    load_csv,
)
from .eigen import eigh, pc_scores
from .errors import (
    DataError,
    DegenerateEigenvaluesError,
    EigenSensError,
    UnsupportedEstimatorError,
)
from .influence import LooEngine, eigen_influence
from .subspace_diag import influence_records
from .switching import (
    DEFAULT_NEAR_DELTA,
    EventTable,
    build_switch_report,
    hybrid_influence,
    scan_events,
    verify_exact,
)

__all__ = ["main"]

MODE_APPROX = "approx"
MODE_EXACT = "exact"
MODE_HYBRID = "hybrid"

# event records formatted and written per write call
EVENT_CHUNK = 1024


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            j, k = chunk.split(":")
            pair = (int(j), int(k))
        except ValueError:
            raise ValueError(f"cannot parse pair {chunk!r}; expected j:k") from None
        if pair[1] != pair[0] + 1 or pair[0] < 1:
            raise ValueError(f"pair {chunk!r} is not a consecutive 1-based pair")
        pairs.append(pair)
    return sorted(set(pairs))


def _rounded(x: float, digits: int) -> str:
    """``x`` to ``digits`` significant digits, the one rounding rule of both
    writers.  A finite ``x`` that would round past the largest float, and so
    read back as inf, is written in full instead."""
    text = f"{x:.{digits}g}"
    if 1e308 <= abs(x) < math.inf and math.isinf(float(text)):
        return repr(x)
    return text


def _as_repr(text: str) -> str:
    """``repr(float(text))`` for a finite ``%g`` text of at most 15
    significant digits.  Such a decimal round-trips, so only the layout
    changes: an integer gains ``.0`` and exponents up to 15 are written out."""
    if "e" not in text:
        return text if "." in text else text + ".0"
    mantissa, exponent = text.split("e")
    if exponent[0] == "-" or int(exponent) > 15:
        return text
    sign = "-" if mantissa[0] == "-" else ""
    digits = mantissa.lstrip("-").replace(".", "")
    return sign + digits.ljust(int(exponent) + 1, "0") + ".0"


def _float_row(values: list, digits: int, sep: str) -> str | None:
    """The items of an all-float list as :func:`_json_text` writes them,
    joined by ``sep`` and formatted with one ``%`` call; None when an item
    needs the per-cell walk: a non-float, a non-finite or subnormal value, a
    value of 1e308 or more, or more than 15 digits."""
    if digits > 15 or set(map(type, values)) != {float}:
        return None
    body = sep.join([f"%.{digits}g"] * len(values)) % tuple(values)
    if "n" in body:  # nan, inf
        return None
    # every value past 1e308 prints "e+308", every subnormal an exponent "e-3.."
    if ("e+308" in body or "e-3" in body) and not (
            max(map(abs, values)) < 1e308
            and min(map(abs, filter(None, values))) >= sys.float_info.min):
        return None
    # a text with a "." and no "e+" is already laid out as repr lays it out
    if "e+" in body or body.count(".") < len(values):
        body = sep.join(map(_as_repr, body.split(sep)))
    return body


def _json_text(obj, digits: int, indent: str = "") -> str:
    """``obj`` as stdlib ``indent=2`` JSON, floats rounded by :func:`_rounded`."""
    kind = type(obj)
    if kind is float:
        # _rounded, inlined for the common case: one call per float is a
        # measurable share of a large report
        rounded = float(f"{obj:.{digits}g}")
        if not math.isfinite(rounded):
            rounded = float(_rounded(obj, digits))
        return repr(rounded) if math.isfinite(rounded) else json.dumps(rounded)
    if kind is str or kind is int:
        return encode_basestring_ascii(obj) if kind is str else int.__repr__(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    if kind is np.ndarray:
        # a table row stays an array in the document until it is written
        obj, kind = obj.tolist(), list
    inner = indent + "  "
    if kind is list:
        row = _float_row(obj, digits, f",\n{inner}")
        if row is not None:
            return f"[\n{inner}{row}\n{indent}]"
    items = ([f"{encode_basestring_ascii(k)}: {_json_text(v, digits, inner)}"
              for k, v in obj.items()] if kind is dict
             else [_json_text(v, digits, inner) for v in obj])
    opener, closer = ("{", "}") if kind is dict else ("[", "]")
    if not items:
        return opener + closer
    # one join: a report's largest text is not copied again to bracket it
    parts = [f",\n{inner}"] * (2 * len(items) - 1)
    parts[::2] = items
    return "".join([f"{opener}\n{inner}", *parts, f"\n{indent}{closer}"])


def _float_texts(values: list, digits: int) -> list[str]:
    """Each float of ``values`` as :func:`_json_text` writes it: the whole
    column in one :func:`_float_row` call, or cell by cell when it refuses."""
    row = _float_row(values, digits, ",")
    if row is None:
        return [_json_text(x, digits) for x in values]
    return row.split(",")


def _write_events(out, events: EventTable, digits: int, indent: str) -> None:
    """Write ``events`` as :func:`_json_text` writes the list of their records
    (obs, label, pair, approx_lo, approx_hi, kind, verified_exact).

    Each column is formatted once: floats through :func:`_float_texts`, and
    each distinct label, kind and verdict once.  Records are then laid out
    by one ``%`` template each and written ``EVENT_CHUNK`` at a time."""
    if not len(events):
        out.write("[]")
        return
    obs, labels, low, high, lo, hi, kinds, verdicts = events.columns()
    codes = {v: _json_text(v, digits) for v in {*labels, *kinds, *verdicts}}
    rows = list(zip(obs, [codes[v] for v in labels], low, high,
                    _float_texts(lo, digits), _float_texts(hi, digits),
                    [codes[v] for v in kinds], [codes[v] for v in verdicts]))
    inner, f = indent + "  ", indent + "    "
    record = (f'{{\n{f}"obs": %d,\n{f}"label": %s,\n{f}"pair": [\n{f}  %d,\n{f}  %d\n'
              f'{f}],\n{f}"approx_lo": %s,\n{f}"approx_hi": %s,\n{f}"kind": %s,\n'
              f'{f}"verified_exact": %s\n{inner}}}')
    sep = f",\n{inner}"
    out.write(f"[\n{inner}")
    for start in range(0, len(rows), EVENT_CHUNK):
        chunk = sep.join([record % row for row in rows[start:start + EVENT_CHUNK]])
        out.write(sep + chunk if start else chunk)
    out.write(f"\n{indent}]")


def _write_json(out, obj, digits: int, indent: str = "") -> None:
    """Write ``_json_text(obj, digits, indent)`` to ``out`` an item at a
    time: a dict value by value and a list of records record by record, so
    no more than one record's text is held at once.  An
    :class:`EventTable` is written as the list of its records."""
    kind = type(obj)
    if kind is EventTable:
        _write_events(out, obj, digits, indent)
        return
    records = kind is list and obj and all(type(v) is dict for v in obj)
    if not (records or kind is dict and obj):
        out.write(_json_text(obj, digits, indent))
        return
    inner = indent + "  "
    out.write("{" if kind is dict else "[")
    for idx, item in enumerate(obj.items() if kind is dict else obj):
        out.write(f",\n{inner}" if idx else f"\n{inner}")
        if kind is dict:
            key, value = item
            out.write(f"{encode_basestring_ascii(key)}: ")
            _write_json(out, value, digits, inner)
        else:
            out.write(_json_text(item, digits, inner))
    out.write(f"\n{indent}" + ("}" if kind is dict else "]"))


def _fmt_cell(x, digits: int) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return _rounded(x, digits)
    return str(x)


def _cells(record: dict, blanks: dict | None = None) -> list:
    """One CSV row from a document record: its values in key order, each list
    spread over its own columns.  A None under a key of ``blanks`` becomes
    that key's blank cells."""
    cells = []
    for key, value in record.items():
        if value is None and blanks:
            value = blanks.get(key)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        cells.extend(value if isinstance(value, list) else [value])
    return cells


def _write_csv(out, digits: int, header: list[str], rows,
               comments: tuple[str, ...] = ()) -> None:
    for line in comments:
        out.write(f"# {line}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(cell, digits) for cell in row])


def _emit(args: argparse.Namespace, doc: dict, tables) -> None:
    """Write ``doc`` as JSON, or the CSV tables of ``tables()``, into each
    destination a record or a row at a time.

    Each table is ``(name, header, rows[, comments])``.  The first one owns
    --out and each other one its sibling ``<stem>_<name><suffix>``; without
    --out they follow each other on stdout, each after a ``# table:`` line.
    """
    def write(out, table) -> None:
        if table is None:
            _write_json(out, doc, args.precision)
            out.write("\n")
        else:
            _write_csv(out, args.precision, *table)

    parts = ([("", None)] if args.fmt == "json"
             else ((name, table) for name, *table in tables()))
    for idx, (name, table) in enumerate(parts):
        if args.out is None:
            if idx:
                sys.stdout.write(f"\n# table: {name}\n")
            try:
                write(sys.stdout, table)
            except UnicodeEncodeError as exc:
                # a ValueError by type, but an I/O failure: exit 1, not 2
                raise OSError(f"cannot write the report to stdout: {exc}") from None
            continue
        path = Path(args.out)
        if name:
            path = path.with_name(f"{path.stem}_{name}{path.suffix}")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            write(fh, table)


def _analyze(args: argparse.Namespace, X: DataMatrix, spec: EstimatorSpec):
    """Eigen-analysis: eigenvalues, explained variance, scree table, scores."""
    E = eigh(estimate(X, spec))
    if args.L > E.p:
        raise ValueError(f"--L {args.L} exceeds the {E.p} available components")
    for j, k in E.gap_warnings:
        warnings.warn(
            f"eigenvalues {j} and {k} are nearly tied; component order is "
            "not well determined",
            RuntimeWarning,
            stacklevel=2,
        )
    total = float(np.sum(E.values))
    proportion = E.values / total if total > 0 else np.zeros_like(E.values)
    cumulative = np.cumsum(proportion)
    scores = pc_scores(X, E.vectors[:, :args.L])

    body = {
        "L": args.L,
        "eigenvalues": E.values.tolist(),
        "proportion_explained": proportion.tolist(),
        "cumulative_proportion": cumulative.tolist(),
        "gap_warnings": [list(pair) for pair in E.gap_warnings],
        "scree": [
            {"component": j + 1, "eigenvalue": float(E.values[j]),
             "proportion": float(proportion[j]),
             "cumulative": float(cumulative[j])}
            for j in range(E.p)
        ],
        "scores": [
            {"obs": i + 1, "label": X.row_labels[i],
             "values": scores[i]}
            for i in range(X.n)
        ],
    }
    return body, lambda: [
        ("", ["component", "eigenvalue", "proportion", "cumulative"],
         map(_cells, body["scree"])),
        ("scores", ["obs", "label", *(f"PC{j + 1}" for j in range(args.L))],
         map(_cells, body["scores"])),
    ]


def _require_pair(X: DataMatrix, what: str) -> None:
    """Refuse one-column data, on which no --L gives ``what`` a pair to read."""
    if X.p < 2:
        raise DataError(f"the input has one column; {what} needs two for an "
                        "adjacent pair of eigenvalues")


def _influence(args: argparse.Namespace, X: DataMatrix, spec: EstimatorSpec):
    """Per-observation influence sweep over all diagnostics for this mode."""
    if args.mode == MODE_HYBRID:
        _require_pair(X, "hybrid mode")
    engine = LooEngine(X, spec)
    E = engine.eigen
    if args.L > E.p:
        raise ValueError(f"--L {args.L} out of range 1..{E.p}")

    kinds: dict[int, str] = {}
    exact = range(1, X.n + 1) if args.mode == MODE_EXACT else ()
    if args.mode == MODE_HYBRID:
        if args.L >= E.p:
            raise ValueError("hybrid mode needs L < p to have a boundary pair")
        # the rows made exact are those of the boundary (L, L+1), one event each
        boundary = scan_events(engine, [(args.L, args.L + 1)], delta=args.delta)
        obs, *_, kind, _ = boundary.columns()
        kinds = dict(zip(obs, kind))
        exact = kinds.keys()
    records = influence_records(engine, args.L, exact=exact)
    eif, hif = eigen_influence(engine)

    rows = []
    for record in records:
        i = record.obs_index
        row = {
            "obs": i,
            "label": record.obs_label,
            "eif_b": record.eif_b,
            "scia": record.scia,
            "sif_b": record.sif_b,
            "sci": record.sci,
            "hybrid_b": None,
            "hybrid_c": None,
            "replaced": None,
            "flag": kinds.get(i),
            "eif_eigen": None if eif is None else eif[i - 1],
            "hif_eigen": hif[i - 1],
            "sif_eigen": record.sif_eigen if args.mode == MODE_EXACT else None,
            "note": record.note,
        }
        if args.mode == MODE_HYBRID:
            replaced = i in kinds
            row["replaced"] = replaced
            row["hybrid_b"] = record.sif_b if replaced else record.eif_b
            row["hybrid_c"] = record.sci if replaced else record.scia
        rows.append(row)

    body = {
        "L": args.L,
        "mode": args.mode,
        "eigenvalues": E.values.tolist(),
        "observations": rows,
    }
    header = (
        ["obs", "label", "eif_b", "scia", "sif_b", "sci", "hybrid_b",
         "hybrid_c", "replaced", "flag"]
        + [f"{v}_l{j + 1}" for v in ("eif", "hif", "sif") for j in range(X.p)]
        + ["note"]
    )
    blanks = dict.fromkeys(("eif_eigen", "hif_eigen", "sif_eigen"), [None] * X.p)
    return body, lambda: [("", header, (_cells(row, blanks) for row in rows))]


def _switching(args: argparse.Namespace, X: DataMatrix, spec: EstimatorSpec):
    """Switching detection report with retention advice, plus the exact
    verdicts (exact mode) or the measure-B hybrid series (hybrid mode)."""
    _require_pair(X, "switching")
    engine = LooEngine(X, spec)
    E = engine.eigen
    if args.L >= E.p:
        raise ValueError(
            f"--L {args.L} out of range 1..{E.p - 1} for retention advice"
        )
    report = build_switch_report(engine, candidate_L=args.L, delta=args.delta,
                                 pairs=args.pairs)
    advice = report.recommendation
    events = report.events
    if args.mode == MODE_EXACT:
        events = verify_exact(events, engine)
    # the rows the report flags: its events' and, in hybrid mode, the boundary's
    listed = set(events.obs.tolist())
    hybrid = None
    if args.mode == MODE_HYBRID:
        hybrid = {"measure": "B", "L": args.L}
        # the boundary's rows, whatever pairs the report itself scans
        boundary = set(scan_events(engine, [(args.L, args.L + 1)],
                                   delta=args.delta).obs.tolist())
        listed |= boundary
        try:
            series = hybrid_influence(engine, args.L, boundary).tolist()
            hybrid["series"] = [
                {"obs": i, "label": label, "value": value, "replaced": i in boundary}
                for i, (label, value) in enumerate(zip(X.row_labels, series), start=1)
            ]
        except (UnsupportedEstimatorError, DegenerateEigenvaluesError) as exc:
            hybrid["note"] = str(exc)
    flagged = sorted(listed)

    body = {
        "mode": args.mode,
        "delta": args.delta,
        "pairs": None if args.pairs is None
        else [list(pair) for pair in args.pairs],
        "candidate_L": args.L,
        "recommended_L": {"L": advice.L, "rationale": advice.rationale},
        "eigenvalues": E.values.tolist(),
        "events": events,
        "loo_eigenvalues": {str(i): row
                            for i, row in zip(flagged, engine.table_rows(flagged))},
        "hybrid": hybrid,
    }

    def tables():
        comments = (
            f"delta={_rounded(args.delta, args.precision)}",
            f"candidate_L={args.L}",
            f"recommended_L={advice.L}",
            f"rationale={advice.rationale}",
        )
        if hybrid and "note" in hybrid:
            comments += (f"hybrid_note={hybrid['note']}",)
        yield ("", ["obs", "label", "pair_low", "pair_high", "approx_lo",
                    "approx_hi", "kind", "verified_exact"],
               zip(*events.columns()), comments)
        yield ("loo", ["obs", "label", *(f"lambda{j + 1}" for j in range(X.p))],
               ([i, X.row_labels[i - 1], *body["loo_eigenvalues"][str(i)].tolist()]
                for i in flagged))
        if hybrid and "series" in hybrid:
            yield ("hybrid", ["obs", "label", "value", "replaced"],
                   map(_cells, hybrid["series"]))

    return body, tables


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigensens",
        description="Leave-one-out influence and eigenvalue-switching "
                    "diagnostics for PCA-style estimators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each command registers only the options its body reads
    for name, summary, reads in (
        ("analyze", "eigenvalues, explained variance and PC scores", ()),
        ("influence", "per-observation influence diagnostics", ("delta", "mode")),
        ("switching", "eigenvalue switching detection and retention advice",
         ("delta", "pairs", "mode")),
    ):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--input", required=True, help="input CSV path")
        cmd.add_argument("--label-col", default=None,
                         help="name of a non-numeric label column")
        cmd.add_argument("--no-header", action="store_true",
                         help="the CSV has no header row")
        cmd.add_argument("--estimator", choices=["cov", "cor"], default="cov")
        cmd.add_argument("--divisor", choices=["n", "n-1"], default="n")
        cmd.add_argument("--L", type=int, default=2,
                         help="retained component count (candidate for "
                              "switching reports)")
        if "delta" in reads:
            cmd.add_argument("--delta", type=float, default=DEFAULT_NEAR_DELTA,
                             help="near-switch threshold")
        if "pairs" in reads:
            cmd.add_argument("--pairs", default=None,
                             help="restrict to pairs, e.g. 2:3,3:4")
        if "mode" in reads:
            cmd.add_argument("--mode", default=MODE_APPROX,
                             choices=[MODE_APPROX, MODE_EXACT, MODE_HYBRID])
        cmd.add_argument("--format", choices=["json", "csv"], default="json",
                         dest="fmt")
        cmd.add_argument("--out", default=None, help="output path")
        cmd.add_argument("--precision", type=int, default=6,
                         help="significant digits in output")
    return parser


_COMMANDS = {
    "analyze": _analyze,
    "influence": _influence,
    "switching": _switching,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.L < 1:
            raise ValueError(f"--L must be at least 1, got {args.L}")
        if "delta" in args and not args.delta > 0.0:
            raise ValueError(f"--delta must be positive, got {args.delta}")
        if args.precision < 1:
            raise ValueError(f"--precision must be at least 1, got {args.precision}")
        if args.no_header and args.label_col is not None:
            raise ValueError("--label-col needs a header row to resolve the name; "
                             "drop --no-header")
        if getattr(args, "pairs", None) is not None:
            args.pairs = _parse_pairs(args.pairs)
        X = load_csv(args.input, header=not args.no_header,
                     label_col=args.label_col)
        spec = EstimatorSpec(
            COVARIANCE if args.estimator == "cov" else CORRELATION,
            DIVISOR_N if args.divisor == "n" else DIVISOR_N_MINUS_1,
        )
        body, tables = _COMMANDS[args.command](args, X, spec)
        header = {"command": args.command, "version": __version__,
                  "estimator": {"kind": spec.kind, "divisor": spec.divisor},
                  "n": X.n, "p": X.p}
        _emit(args, header | body, tables)
    # a LinAlgError is a ValueError by type, but a numerical failure: exit 1
    except (EigenSensError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
