"""Command-line front end.

Commands: validate, metrics, rank, correlate, yearly. Exit codes: 0 on
success, 1 on validation failure, 2 on usage errors (bad flags, missing
files, unknown columns). Output is deterministic: identical inputs and
flags produce byte-identical output.
"""

import argparse
import csv
import io
import sys
from decimal import Context, Decimal, ROUND_HALF_UP

from .analytics import (
    RANK_KEYS,
    UndefinedCorrelationError,
    linear_trend,
    pearson,
    rank_authors,
    yearly_summary,
)
from .filtering import FilterConfig
from .indices import (
    AuthorMetrics, EmptyPortfolioError, NonFiniteIndexError, compute_author_metrics,
    metrics_from_summary,
)
from .ingest import (
    Config,
    ConfigError,
    MAX_PRECISION,
    ParseError,
    VALUE_COLUMNS,
    _gc_paused,
    load_config,
    parse_author_summaries,
    parse_publications,
)

FORMATS = ("table", "csv", "plotdata")

_METRIC_COLUMNS = (
    "author", "name", "doc", "cit", "cit_per_doc", "h_index", "k_r",
    "fwci_total", "k_exact", "k_display", "k_p", "k_c", "k_integrated",
)


class _Fail(Exception):
    def __init__(self, exit_code: int, messages: list[str]):
        self.exit_code = exit_code
        self.messages = messages
        super().__init__("; ".join(messages))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _Fail(2, [f"cannot read {path}: {exc.strerror or exc}"]) from None
    except UnicodeDecodeError as exc:
        raise _Fail(2, [f"cannot read {path}: {exc}"]) from None


# Enough significant digits to quantize any finite float (at most 309
# integer digits) at any allowed precision without InvalidOperation.
_QUANTIZE = Context(prec=sys.float_info.max_10_exp + 1 + MAX_PRECISION)


def fmt_value(value, precision: int) -> str:
    """Render one cell: '-' for absent, plain integers, and floats rounded
    half-away-from-zero at the given number of decimal places.

    What is rounded is ``repr(value)``, the shortest decimal that reads back
    as the float. It lies within half a float spacing of the value, at most
    ``scaled * 2**-53`` once scaled by ``10**precision``, and the scaling
    errs by no more: a value farther than ``scaled * 1e-15`` from every
    half-integer (rounding boundary) rounds like its ``repr``, so ``format``
    rounds it. Near-ties (such as 0.125), scaled magnitudes from 5e14 up,
    nan and inf take Decimal, printed fixed-point like ``format``.
    """
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    scaled = abs(value) * 10 ** precision
    if abs(scaled % 1 - 0.5) > scaled * 1e-15:
        return f"{value:.{precision}f}"
    quantum = Decimal(1).scaleb(-precision)
    rounded = Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP, context=_QUANTIZE)
    return f"{rounded:f}"


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines = ["  ".join(map(str.ljust, row, widths)).rstrip() for row in (header, *rows)]
    return "\n".join(lines) + "\n"


def _render_csv(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _render_plotdata(series: list[tuple[str, str, str]]) -> str:
    lines = ["series\tx\ty"]
    lines.extend(f"{name}\t{x}\t{y}" for name, x, y in series)
    return "\n".join(lines) + "\n"


def _render(kind: str, header: list[str], rows: list[list[str]]) -> str:
    return _render_csv(header, rows) if kind == "csv" else _render_table(header, rows)


def _load_settings(args) -> tuple[Config, int]:
    config = Config()
    if args.config:
        try:
            config = load_config(_read(args.config))
        except ConfigError as exc:
            raise _Fail(1, [str(exc)]) from None
    precision = args.precision if args.precision is not None else config.precision
    if not 0 <= precision <= MAX_PRECISION:
        raise _Fail(2, [f"--precision must be in 0..{MAX_PRECISION}, got {precision}"])
    return config, precision


def _parse(parse, path: str):
    """The file read by ``parse``; a ParseError fails the command with exit 1."""
    try:
        return parse(_read(path))
    except ParseError as exc:
        raise _Fail(1, [str(issue) for issue in exc.issues]) from None


def _collect_metrics(args, filters: FilterConfig) -> list[AuthorMetrics]:
    author = getattr(args, "author", None)
    try:
        if args.summary:
            rows = _parse(parse_author_summaries, args.summary)
            if author is not None:
                rows = [row for row in rows if row.author == author]
            metrics = [metrics_from_summary(row) for row in rows]
        else:
            bundle = _parse(parse_publications, args.corpus)
            if author is not None:
                authors = [author] if author in bundle.publications_by_author else []
            else:
                authors = sorted(bundle.publications_by_author)
            metrics = [compute_author_metrics(a, bundle, filters) for a in authors]
    except (EmptyPortfolioError, NonFiniteIndexError) as exc:
        raise _Fail(1, [str(exc)]) from None
    if author is not None and not metrics:
        raise _Fail(1, [f"unknown author {author!r}"])
    return metrics


def _metric_row(m: AuthorMetrics, precision: int) -> list[str]:
    """One output row; after author and name, each column is the
    AuthorMetrics field of the same name."""
    return [m.author, m.display_name,
            *(fmt_value(getattr(m, column), precision) for column in _METRIC_COLUMNS[2:])]


def cmd_validate(args) -> str:
    bundle = _parse(parse_publications, args.corpus)
    return (
        f"ok: {len(bundle.publications)} publications, "
        f"{len(bundle.citations)} citations\n"
    )


def cmd_metrics(args) -> str:
    config, precision = _load_settings(args)
    if args.format == "plotdata":
        raise _Fail(2, ["metrics does not support --format plotdata"])
    metrics = _collect_metrics(args, config.filters)
    rows = [_metric_row(m, precision) for m in metrics]
    return _render(args.format, list(_METRIC_COLUMNS), rows)


def cmd_rank(args) -> str:
    config, precision = _load_settings(args)
    metrics = _collect_metrics(args, config.filters)
    table = rank_authors(metrics, args.key)
    if args.format == "plotdata":
        series = [
            (args.key, str(rank), fmt_value(getattr(m, args.key), precision))
            for rank, m in table.rows
        ]
        return _render_plotdata(series)
    keys = [args.key] if args.key == "cit_per_doc" else [args.key, "cit_per_doc"]
    rows = [
        [str(rank), m.author, m.display_name,
         *(fmt_value(getattr(m, key), precision) for key in keys)]
        for rank, m in table.rows
    ]
    return _render(args.format, ["rank", "author", "name", *keys], rows)


def cmd_correlate(args) -> str:
    _, precision = _load_settings(args)
    rows = _parse(parse_author_summaries, args.summary)
    extractors = {}
    for axis, name in (("x", args.x), ("y", args.y)):
        key = name.strip().lower()
        if key not in VALUE_COLUMNS:
            raise _Fail(2, [f"unknown column {name!r} for --{axis}"])
        extractors[axis] = VALUE_COLUMNS[key]
    pairs = []
    for row in rows:
        x_val = extractors["x"](row)
        y_val = extractors["y"](row)
        if x_val is not None and y_val is not None:
            pairs.append((float(x_val), float(y_val)))
    if len(pairs) < 2:
        raise _Fail(1, ["undefined correlation: fewer than two complete pairs"])
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    try:
        r = pearson(xs, ys)
        if args.format == "plotdata":
            slope, intercept = linear_trend(pairs)
    except UndefinedCorrelationError as exc:
        raise _Fail(1, [f"undefined correlation: {exc}"]) from None

    if args.format == "plotdata":
        series = [
            ("points", fmt_value(x, precision), fmt_value(y, precision))
            for x, y in pairs
        ]
        series.extend(
            ("trend", fmt_value(x, precision),
             fmt_value(slope * x + intercept, precision))
            for x in sorted(set(xs))
        )
        return _render_plotdata(series)
    header = ["x", "y", "n", "r"]
    row = [args.x, args.y, str(len(pairs)), fmt_value(r, max(precision, 4))]
    return _render(args.format, header, [row])


def cmd_yearly(args) -> str:
    _, precision = _load_settings(args)
    bundle = _parse(parse_publications, args.corpus)
    try:
        summary = yearly_summary(bundle)
    except NonFiniteIndexError as exc:
        raise _Fail(1, [str(exc)]) from None
    header = ["year", "doc", "cited_doc", "cit", "self_cit", "cit_per_doc"]
    if args.format == "plotdata":
        series = [
            (column, str(row.year), fmt_value(getattr(row, column), precision))
            for column in header[1:] for row in summary
        ]
        return _render_plotdata(series)
    rows = [[fmt_value(getattr(row, column), precision) for column in header] for row in summary]
    return _render(args.format, header, rows)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument(
        "--precision", type=int, default=None,
        help="decimal places for table values (default from config, else 2)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="table",
        help="output format (default: table)",
    )


def _add_input_group(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus", help="corpus file of pub/cite records")
    group.add_argument("--summary", help="author summary table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kindex",
        description="Scientometric indicators for publication corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and integrity-check a corpus")
    p_validate.add_argument("corpus", help="corpus file")
    _add_common_flags(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_metrics = sub.add_parser("metrics", help="per-author indicator rows")
    _add_input_group(p_metrics)
    p_metrics.add_argument("--author", help="only this author id")
    _add_common_flags(p_metrics)
    p_metrics.set_defaults(func=cmd_metrics)

    p_rank = sub.add_parser("rank", help="rank authors by one metric")
    _add_input_group(p_rank)
    p_rank.add_argument("--key", choices=RANK_KEYS, default="k_display")
    _add_common_flags(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_corr = sub.add_parser("correlate", help="correlation between summary columns")
    p_corr.add_argument("summary", help="author summary table")
    p_corr.add_argument("--x", required=True, help="first column name")
    p_corr.add_argument("--y", required=True, help="second column name")
    _add_common_flags(p_corr)
    p_corr.set_defaults(func=cmd_correlate)

    p_yearly = sub.add_parser("yearly", help="per-year corpus activity")
    p_yearly.add_argument("corpus", help="corpus file")
    _add_common_flags(p_yearly)
    p_yearly.set_defaults(func=cmd_yearly)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        with _gc_paused():
            output = args.func(args)
    except _Fail as exc:
        for message in exc.messages:
            print(message, file=sys.stderr)
        return exc.exit_code
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(output)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
