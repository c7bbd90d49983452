"""Command-line front end.

Commands: validate, metrics, rank, correlate, yearly. Exit codes: 0 on
success, 1 on validation failure, 2 on usage errors (bad flags, missing
files, unknown columns). ``main`` is the one place that turns the library's
errors into exit code 1. Output is deterministic: identical inputs and
flags produce byte-identical output.
"""

import argparse
import csv
import io
import sys
from collections.abc import Callable, Iterable
from decimal import Context, Decimal, ROUND_HALF_UP
from itertools import repeat
from operator import attrgetter
from typing import Any

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
    _parse_int,
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
    """A diagnostic the CLI itself decides, with its exit code."""

    def __init__(self, exit_code: int, messages: list[str]):
        self.exit_code = exit_code
        self.messages = messages
        super().__init__("; ".join(messages))


def _read(path: str, parse: Callable[[io.TextIOWrapper], Any] = io.TextIOWrapper.read) -> Any:
    """``parse`` applied to an input or config file opened as text, by
    default its whole text; a leading UTF-8 byte-order mark is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            try:
                return parse(handle)
            finally:  # a byte past where parse stopped still exits 2, not 1
                handle.read()
    except OSError as exc:
        raise _Fail(2, [f"cannot read {path}: {exc.strerror or exc}"]) from None
    except UnicodeDecodeError as exc:
        if parse is not io.TextIOWrapper.read:
            # Read by lines, a decode error gives its offset within an 8 KB
            # chunk; reading the whole text reports it at its file offset.
            _read(path)
        raise _Fail(2, [f"cannot read {path}: {exc}"]) from None


# Enough significant digits to quantize any finite float (at most 309
# integer digits) at any allowed precision without InvalidOperation.
_QUANTIZE = Context(prec=sys.float_info.max_10_exp + 1 + MAX_PRECISION)


def _fmt_column(values: Iterable[int | float | None], precision: int) -> list[str]:
    """Render one column of cells: '-' for absent, plain integers, and
    floats rounded half-away-from-zero at the given number of decimal places.

    What is rounded is ``repr(value)``, the shortest decimal that reads back
    as the float. It lies within half a float spacing of the value, at most
    ``scaled * 2**-53`` once scaled by ``10**precision``, and the scaling
    errs by no more: a value farther than ``scaled * 1e-15`` from every
    half-integer (rounding boundary) rounds like its ``repr``, so ``format``
    rounds it. Near-ties (such as 0.125), scaled magnitudes from 5e14 up,
    nan and inf take Decimal, printed fixed-point like ``format``.
    """
    spec = f".{precision}f"
    scale = 10 ** precision
    quantum = Decimal(1).scaleb(-precision)
    cells = []
    append = cells.append
    for value in values:
        if value is None:
            append("-")
        elif isinstance(value, int):
            append(str(value))
        elif abs((scaled := abs(value) * scale) % 1 - 0.5) > scaled * 1e-15:
            append(format(value, spec))
        else:
            rounded = Decimal(repr(value)).quantize(quantum, ROUND_HALF_UP, _QUANTIZE)
            append(f"{rounded:f}")
    return cells


def fmt_value(value, precision: int) -> str:
    """Render one cell as ``_fmt_column`` does."""
    return _fmt_column((value,), precision)[0]


def _render_table(header: list[str], columns: list[list[str]]) -> str:
    widths = [max(len(name), max(map(len, column), default=0))
              for name, column in zip(header, columns)]
    lines = ["  ".join(map(str.ljust, row, widths)).rstrip() for row in (header, *zip(*columns))]
    return "\n".join(lines) + "\n"


def _render_csv(header: list[str], columns: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buffer.getvalue()


def _render_plotdata(series: Iterable[tuple[str, str, str]]) -> str:
    lines = ["series\tx\ty"]
    lines.extend(f"{name}\t{x}\t{y}" for name, x, y in series)
    return "\n".join(lines) + "\n"


def _render(kind: str, header: list[str], columns: list[list[str]]) -> str:
    return _render_csv(header, columns) if kind == "csv" else _render_table(header, columns)


def _load_settings(args) -> tuple[Config, int]:
    config = _read(args.config, load_config) if args.config else Config()
    precision = args.precision if args.precision is not None else config.precision
    if not 0 <= precision <= MAX_PRECISION:
        raise _Fail(2, [f"--precision must be in 0..{MAX_PRECISION}, got {precision}"])
    return config, precision


def _collect_metrics(args, filters: FilterConfig) -> list[AuthorMetrics]:
    author = getattr(args, "author", None)
    if args.summary:
        rows = _read(args.summary, parse_author_summaries)
        if author is not None:
            rows = [row for row in rows if row.author == author]
        metrics = [metrics_from_summary(row) for row in rows]
    else:
        bundle = _read(args.corpus, parse_publications)
        if author is not None:
            authors = [author] if author in bundle.publications_by_author else []
        else:
            authors = sorted(bundle.publications_by_author)
        metrics = [compute_author_metrics(a, bundle, filters) for a in authors]
    if author is not None and not metrics:
        raise _Fail(1, [f"unknown author {author!r}"])
    return metrics


def _metric_columns(
    metrics: list[AuthorMetrics], keys: Iterable[str], precision: int,
) -> list[list[str]]:
    """The author and name columns, then the AuthorMetrics field named by
    each key, formatted."""
    return [[m.author for m in metrics], [m.display_name for m in metrics],
            *(_fmt_column(map(attrgetter(key), metrics), precision) for key in keys)]


def cmd_validate(args) -> str:
    bundle = _read(args.corpus, parse_publications)
    return (
        f"ok: {len(bundle.publications)} publications, "
        f"{len(bundle.citations)} citations\n"
    )


def cmd_metrics(args) -> str:
    config, precision = _load_settings(args)
    if args.format == "plotdata":
        raise _Fail(2, ["metrics does not support --format plotdata"])
    metrics = _collect_metrics(args, config.filters)
    columns = _metric_columns(metrics, _METRIC_COLUMNS[2:], precision)
    return _render(args.format, list(_METRIC_COLUMNS), columns)


def cmd_rank(args) -> str:
    config, precision = _load_settings(args)
    metrics = _collect_metrics(args, config.filters)
    ranked = rank_authors(metrics, args.key)
    ranks = [str(rank) for rank in range(1, len(ranked) + 1)]
    if args.format == "plotdata":
        values = _fmt_column(map(attrgetter(args.key), ranked), precision)
        return _render_plotdata(zip(repeat(args.key), ranks, values))
    keys = [args.key] if args.key == "cit_per_doc" else [args.key, "cit_per_doc"]
    columns = [ranks, *_metric_columns(ranked, keys, precision)]
    return _render(args.format, ["rank", "author", "name", *keys], columns)


def cmd_correlate(args) -> str:
    _, precision = _load_settings(args)
    rows = _read(args.summary, parse_author_summaries)
    extractors = []
    for axis, name in (("x", args.x), ("y", args.y)):
        key = name.strip().lower()
        if key not in VALUE_COLUMNS:
            raise _Fail(2, [f"unknown column {name!r} for --{axis}"])
        extractors.append(VALUE_COLUMNS[key])
    x_of, y_of = extractors
    xs, ys = [], []
    for row in rows:
        x_val, y_val = x_of(row), y_of(row)
        if x_val is not None and y_val is not None:
            xs.append(float(x_val))
            ys.append(float(y_val))
    if len(xs) < 2:
        raise UndefinedCorrelationError("fewer than two complete pairs")
    r = pearson(xs, ys)  # run for plotdata too: it rejects a constant column
    if args.format == "plotdata":
        slope, intercept = linear_trend(xs, ys)
        series = list(zip(repeat("points"), _fmt_column(xs, precision), _fmt_column(ys, precision)))
        # One trend point per distinct x, so few cells: each goes through
        # fmt_value, which keeps perfbench's cli.fmt tally counting calls.
        series.extend(
            ("trend", fmt_value(x, precision), fmt_value(slope * x + intercept, precision))
            for x in sorted(set(xs))
        )
        return _render_plotdata(series)
    header = ["x", "y", "n", "r"]
    columns = [[args.x], [args.y], [str(len(xs))], [fmt_value(r, max(precision, 4))]]
    return _render(args.format, header, columns)


def cmd_yearly(args) -> str:
    _, precision = _load_settings(args)
    summary = yearly_summary(_read(args.corpus, parse_publications))
    header = ["year", "doc", "cited_doc", "cit", "self_cit", "cit_per_doc"]
    columns = [_fmt_column(map(attrgetter(column), summary), precision) for column in header]
    if args.format == "plotdata":
        years = columns[0]
        return _render_plotdata(
            (name, year, cell)
            for name, column in zip(header[1:], columns[1:])
            for year, cell in zip(years, column)
        )
    return _render(args.format, header, columns)


def _precision_flag(text: str) -> int:
    """``--precision`` spelled as the config key ``precision`` must be."""
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument(
        "--precision", type=_precision_flag, default=None,
        help="decimal places for table values (default from config, else 2)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="table",
        help="output format (default: table)",
    )
    # main rejects ``--flag=--`` (argparse reads it as []) with this usage.
    parser.set_defaults(usage_error=parser.error)


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
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse reads ``--flag=--`` as []
                args.usage_error(f"argument --{name}: expected one argument")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        with _gc_paused():
            output = args.func(args)
    except _Fail as exc:
        exit_code, messages = exc.exit_code, exc.messages
    except ParseError as exc:
        exit_code, messages = 1, [str(issue) for issue in exc.issues]
    except UndefinedCorrelationError as exc:
        exit_code, messages = 1, [f"undefined correlation: {exc}"]
    except (ConfigError, EmptyPortfolioError, NonFiniteIndexError) as exc:
        exit_code, messages = 1, [str(exc)]
    else:
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
    print(*messages, sep="\n", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
