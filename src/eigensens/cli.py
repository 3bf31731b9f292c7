"""Command-line front end: analyze | influence | switching.

Every run is one pipeline: parse and check the settings, load the CSV, run
the command, emit the report (the shared header plus the command's body).
Exit codes: 0 on success, 2 for configuration errors, 1 for data or I/O
errors.  Warnings go to stderr; results go to --out (or stdout).
"""

from __future__ import annotations

import argparse
import csv
import io
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
from .eigen import eigh, pc_scores, subspace
from .errors import EigenSensError, UnsupportedEstimatorError
from .influence import LooEngine, eigen_influence
from .subspace_diag import influence_records
from .switching import (
    DEFAULT_NEAR_DELTA,
    build_switch_report,
    hybrid_influence,
    verify_exact,
)

__all__ = ["main"]

MODE_APPROX = "approx"
MODE_EXACT = "exact"
MODE_HYBRID = "hybrid"


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
    return pairs


def _rounded(x: float, digits: int) -> str:
    """``x`` to ``digits`` significant digits, the one rounding rule of both
    writers.  A finite ``x`` that would round past the largest float, and so
    read back as inf, is written in full instead."""
    text = f"{x:.{digits}g}"
    if 1e308 <= abs(x) < math.inf and math.isinf(float(text)):
        return repr(x)
    return text


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
    inner = indent + "  "
    items = ([f"{encode_basestring_ascii(k)}: {_json_text(v, digits, inner)}"
              for k, v in obj.items()] if kind is dict
             else [_json_text(v, digits, inner) for v in obj])
    body = f"\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}" if items else ""
    return f"{{{body}}}" if kind is dict else f"[{body}]"


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
        cells.extend(value if isinstance(value, list) else [value])
    return cells


def _csv_text(digits: int, header: list[str], rows: list[list],
              comments: tuple[str, ...] = ()) -> str:
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(cell, digits) for cell in row])
    return buf.getvalue()


def _emit(args: argparse.Namespace, doc: dict, tables) -> None:
    """Write ``doc`` as JSON, or the CSV tables of ``tables()``.

    Each table is ``(name, header, rows[, comments])``.  The first one owns
    --out and each other one its sibling ``<stem>_<name><suffix>``; without
    --out they follow each other on stdout, each after a ``# table:`` line.
    """
    if args.fmt == "json":
        texts = [("", _json_text(doc, args.precision) + "\n")]
    else:
        texts = [(name, _csv_text(args.precision, *table))
                 for name, *table in tables()]
    for idx, (name, text) in enumerate(texts):
        if args.out is None:
            if idx:
                sys.stdout.write(f"\n# table: {name}\n")
            sys.stdout.write(text)
            continue
        path = Path(args.out)
        if name:
            path = path.with_name(f"{path.stem}_{name}{path.suffix}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


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
    scores = pc_scores(X, subspace(E, args.L))

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
             "values": scores[i].tolist()}
            for i in range(X.n)
        ],
    }
    return body, lambda: [
        ("", ["component", "eigenvalue", "proportion", "cumulative"],
         [_cells(r) for r in body["scree"]]),
        ("scores", ["obs", "label", *(f"PC{j + 1}" for j in range(args.L))],
         [_cells(r) for r in body["scores"]]),
    ]


def _influence(args: argparse.Namespace, X: DataMatrix, spec: EstimatorSpec):
    """Per-observation influence sweep over all diagnostics for this mode."""
    engine = LooEngine(X, spec)
    E = engine.eigen
    if args.L > E.p:
        raise ValueError(f"--L {args.L} out of range 1..{E.p}")

    kinds: dict[int, str] = {}
    exact = range(1, X.n + 1) if args.mode == MODE_EXACT else ()
    if args.mode == MODE_HYBRID:
        if args.L >= E.p:
            raise ValueError("hybrid mode needs L < p to have a boundary pair")
        report = build_switch_report(
            engine, candidate_L=args.L, delta=args.delta,
            pairs=[(args.L, args.L + 1)],
        )
        kinds = {ev.obs_index: ev.kind for ev in report.events}
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
            "eif_eigen": None if eif is None else eif[i - 1].tolist(),
            "hif_eigen": hif[i - 1].tolist(),
            "sif_eigen": record.sif_eigen.tolist()
            if args.mode == MODE_EXACT else None,
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
    return body, lambda: [("", header, [_cells(row, blanks) for row in rows])]


def _switching(args: argparse.Namespace, X: DataMatrix, spec: EstimatorSpec):
    """Switching detection report with retention advice, plus the exact
    verdicts (exact mode) or the measure-B hybrid series (hybrid mode)."""
    engine = LooEngine(X, spec)
    E = engine.eigen
    if args.L >= E.p:
        raise ValueError(
            f"--L {args.L} out of range 1..{E.p - 1} for retention advice"
        )
    report = build_switch_report(engine, candidate_L=args.L, delta=args.delta,
                                 pairs=args.pairs)
    advice = report.recommendation
    if args.mode == MODE_EXACT:
        report.events = verify_exact(report.events, engine, delta=args.delta)
    flagged = sorted({ev.obs_index for ev in report.events})
    hybrid = None
    if args.mode == MODE_HYBRID:
        hybrid = {"measure": "B", "L": args.L}
        boundary = {ev.obs_index for ev in report.events
                    if ev.pair == (args.L, args.L + 1)}
        try:
            hybrid["series"] = [
                {"obs": hv.obs_index, "label": hv.obs_label,
                 "value": hv.value, "replaced": hv.replaced}
                for hv in hybrid_influence(engine, args.L, boundary)
            ]
        except UnsupportedEstimatorError as exc:
            hybrid["note"] = str(exc)

    body = {
        "mode": args.mode,
        "delta": report.delta,
        "pairs": None if args.pairs is None
        else [list(pair) for pair in args.pairs],
        "candidate_L": args.L,
        "recommended_L": {"L": advice.L, "rationale": advice.rationale},
        "eigenvalues": E.values.tolist(),
        "events": [
            {"obs": ev.obs_index, "label": ev.obs_label,
             "pair": list(ev.pair), "approx_lo": ev.approx_lo,
             "approx_hi": ev.approx_hi, "kind": ev.kind,
             "verified_exact": ev.verified_exact}
            for ev in report.events
        ],
        "loo_eigenvalues": {str(i): row.tolist()
                            for i, row in zip(flagged, engine.table_rows(flagged))},
        "hybrid": hybrid,
    }

    def tables():
        comments = (
            f"delta={report.delta:.{args.precision}g}",
            f"candidate_L={args.L}",
            f"recommended_L={advice.L}",
            f"rationale={advice.rationale}",
        )
        if hybrid and "note" in hybrid:
            comments += (f"hybrid_note={hybrid['note']}",)
        yield ("", ["obs", "label", "pair_low", "pair_high", "approx_lo",
                    "approx_hi", "kind", "verified_exact"],
               [_cells(ev) for ev in body["events"]], comments)
        yield ("loo", ["obs", "label", *(f"lambda{j + 1}" for j in range(X.p))],
               [[i, X.row_labels[i - 1], *body["loo_eigenvalues"][str(i)]]
                for i in flagged])
        if hybrid and "series" in hybrid:
            yield ("hybrid", ["obs", "label", "value", "replaced"],
                   [_cells(hv) for hv in hybrid["series"]])

    return body, tables


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigensens",
        description="Leave-one-out influence and eigenvalue-switching "
                    "diagnostics for PCA-style estimators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("analyze", "eigenvalues, explained variance and PC scores"),
        ("influence", "per-observation influence diagnostics"),
        ("switching", "eigenvalue switching detection and retention advice"),
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
        cmd.add_argument("--delta", type=float, default=DEFAULT_NEAR_DELTA,
                         help="near-switch threshold")
        cmd.add_argument("--pairs", default=None,
                         help="restrict to pairs, e.g. 2:3,3:4")
        cmd.add_argument("--mode", choices=[MODE_APPROX, MODE_EXACT, MODE_HYBRID],
                         default=MODE_APPROX)
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
        if not args.delta > 0.0:
            raise ValueError(f"--delta must be positive, got {args.delta}")
        if args.precision < 1:
            raise ValueError(f"--precision must be at least 1, got {args.precision}")
        if args.no_header and args.label_col is not None:
            raise ValueError("--label-col needs a header row to resolve the name; "
                             "drop --no-header")
        if args.pairs is not None:
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EigenSensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
