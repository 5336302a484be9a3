"""Command-line surface: freq | select | mine | synth | verify.

Reports go to stdout (or ``--output``); diagnostics go to stderr only.
Exit codes: 0 success, 1 data error, 2 usage error.

``oracle``, ``synth`` and ``json`` are imported inside the command or
branch that uses them, so ``mine``'s start-up loads none of them.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain

from .apriori import MiningConfig, mine_frequent
from .core import ItemCatalog, canonical_itemset
from .errors import ConfigError, RuleMineError, UndefinedMetricError
from .features import item_frequencies, project, select_features, union_features
from .ingest import (
    _COHORTS,
    RESERVED_COLUMNS,
    CohortSelector,
    DerivationConfig,
    build_catalog,
    cohort_rows,
    csv_text,
    derive_items,
    drop_sparse_patients,
    parse_patient_csv,
)
from .rules import MetricSet, RuleSet, generate_rules, metric_values

# the json names of the six metric columns, in report order
METRIC_KEYS = MetricSet._fields
# the csv and md header: the rule's two sides, then each metric as words
REPORT_COLUMNS = ("Antecedents", "Consequents",
                  *(key.replace("_", " ").capitalize() for key in METRIC_KEYS))


# ---------------------------------------------------------------- reporting


def _names(itemset, catalog: ItemCatalog) -> str:
    return ", ".join(catalog.name_of(i) for i in itemset)


def _md_cell(text: str) -> str:
    """``text`` as one md table cell: a "|" escaped and each line break
    (CRLF, CR or LF) written as <br>, so an item name cannot split its row."""
    text = text.replace("|", r"\|").replace("\r\n", "<br>")
    return text.replace("\r", "<br>").replace("\n", "<br>")


def emit_report(rs: RuleSet, catalog: ItemCatalog, fmt: str) -> str:
    """Render a RuleSet as csv, markdown, or json (full precision + counts).

    Every metric is ``metric_values`` of the rule's integer counts: int / int
    is correctly rounded, so each float is that of the exact Fraction.
    """
    n = rs.n_transactions
    if fmt == "json":
        import json

        out = [{
            "antecedent": [catalog.name_of(i) for i in r.antecedent],
            "consequent": [catalog.name_of(i) for i in r.consequent],
            **dict(zip(METRIC_KEYS, metric_values(
                r.count, r.antecedent_count, r.consequent_count, n))),
            "n_transactions": n,
            "support_count": r.count,
            "antecedent_count": r.antecedent_count,
            "consequent_count": r.consequent_count,
        } for r in rs.rules]
        return json.dumps(out, indent=2) + "\n"

    def row_cells(r):
        values = metric_values(r.count, r.antecedent_count, r.consequent_count, n)
        # str.format rounds half-even on the underlying binary value
        return [_names(r.antecedent, catalog), _names(r.consequent, catalog),
                *(f"{v:.4f}" for v in values)]

    if fmt == "csv":
        return csv_text(chain([REPORT_COLUMNS], map(row_cells, rs.rules)))

    if fmt == "md":
        lines = ["| " + " | ".join(REPORT_COLUMNS) + " |"]
        lines.append("|" + "|".join([" --- "] * len(REPORT_COLUMNS)) + "|")
        for r in rs.rules:
            lines.append("| " + " | ".join(map(_md_cell, row_cells(r))) + " |")
        return "\n".join(lines) + "\n"

    raise RuleMineError(f"unknown report format: {fmt}")


# ---------------------------------------------------------------- arg types


def _decimal(s: str) -> Fraction:
    """The exact value of a finite decimal such as 0.001 or 1e-3.

    A ratio such as 1/3 is not a decimal. An exponent beyond 1000 is
    refused, as its exact value would take Fraction minutes to build.
    """
    if "/" in s:
        raise ValueError(s)
    exponent = s.lower().partition("e")[2]
    if exponent and abs(int(exponent)) > 1000:
        raise argparse.ArgumentTypeError(f"exponent out of range: {s!r}")
    return Fraction(s)


def _number_arg(convert, lo, hi=math.inf):
    """The argparse type of numbers ``convert(s)`` in [lo, hi]."""
    kind = "an integer" if convert is int else "a number"
    bound = f">= {lo}" if hi == math.inf else f"in [{lo},{hi}]"

    def parse(s: str):
        try:
            v = convert(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {kind}: {s!r}") from None
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError(f"must be {bound}: {s}")
        return v

    return parse


_threshold_arg = _number_arg(_decimal, 0, 1)
_float01_arg = _number_arg(float, 0, 1)


def _fields_arg(sep: str, metavar: str, last):
    """The argparse type of ``metavar``: fields split at ``sep``, the last
    one parsed by ``last``."""
    count = metavar.count(sep) + 1

    def parse(s: str) -> tuple:
        parts = s.split(sep)
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {metavar}, got {s!r}")
        try:
            return (*parts[:-1], last(parts[-1]))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"{s!r}: {exc}") from None

    return parse


def _marginal_arg(s: str) -> tuple[str, float]:
    """A synth column's ``NAME=FRACTION``; NAME is neither empty nor a
    reserved column, which the CSV would then hold twice or not as a symptom,
    and has no surrounding whitespace or comma, which ``mine`` refuses."""
    name, p = _fields_arg("=", "NAME=FRACTION", _float01_arg)(s)
    if not name or name in RESERVED_COLUMNS:
        raise argparse.ArgumentTypeError(f"NAME must be non-empty and not reserved: {s!r}")
    if name != name.strip() or "," in name:
        raise argparse.ArgumentTypeError(f"NAME has a comma or outer whitespace: {s!r}")
    return name, p


def _age_weights_arg(s: str) -> list[tuple[str, float]]:
    return list(map(_fields_arg("=", "BUCKET=W", _number_arg(float, 0)), s.split(",")))


def _names_arg(s: str) -> str:
    """Comma-separated item names, each stripped and non-empty, joined back
    with commas: the text ``perfbench/tracing.py`` splits as well."""
    names = [name.strip() for name in s.split(",")]
    if not all(names):
        raise argparse.ArgumentTypeError(f"an item name is empty: {s!r}")
    return ",".join(names)


# the --cohort words: all, the outcome cohorts sorted, then an age range
_COHORT_WORDS = ["all", *sorted(set(_COHORTS) - {"all", "age_range"}), "LO-HI"]


def _cohort_arg(s: str) -> CohortSelector:
    """A ``LO-HI`` age range, or the cohort ``CohortSelector`` names ``s``."""
    lo, dash, hi = s.partition("-")
    try:
        return CohortSelector("age_range", lo=int(lo), hi=int(hi)) if dash else CohortSelector(s)
    except (ValueError, ConfigError):
        *words, last = _COHORT_WORDS
        raise argparse.ArgumentTypeError(
            f"cohort must be {', '.join(words)}, or {last}: {s!r}"
        ) from None


def _read(path: str, what: str, use):
    """``use(fh)`` of the UTF-8 file ``path`` (a leading BOM skipped, line
    ends kept); a file that cannot be read or is not UTF-8 is a data error
    naming the ``what`` file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return use(fh)
    except OSError as exc:
        raise RuleMineError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise RuleMineError(f"cannot read {what} file {path}: not UTF-8 ({exc.reason})") from None


def _config_tokens(path: str, sub: argparse.ArgumentParser) -> list[str]:
    """The ``key=value`` lines of a config file as flag tokens for ``sub``.

    A key is one of ``sub``'s long flags, spelt with ``-`` or ``_``; a
    store_true key is bare or ``=1``/``=true``. Each value goes through the
    flag's own type and choices here, so a bad line is a usage error that
    names ``path:line``.
    """
    lines = _read(path, "config", lambda fh: fh.read().splitlines())
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(flag)
        where = f"{path}:{lineno}"
        if action is None or action.dest in ("help", "config"):
            sub.error(f"{where}: unknown config key {key!r}")
        if action.nargs == 0:  # a store_true flag
            if eq and raw.lower() not in ("1", "true"):
                sub.error(f"{where}: {key} is a switch: give it bare or as {key}=1")
            tokens.append(flag)
            continue
        if not eq:
            sub.error(f"{where}: expected {key}=value")
        try:
            value = action.type(raw) if action.type else raw
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"choose from {', '.join(action.choices)}")
        except (argparse.ArgumentTypeError, ValueError) as exc:
            sub.error(f"{where}: invalid {flag} value {raw!r}: {exc}")
        tokens.append(f"{flag}={raw}")
    return tokens


# ---------------------------------------------------------------- commands


def _load_items(args):
    """The front half every analysis command shares: load the input, find
    the cohort's rows, derive items over them. Returns (table, derivation
    config, catalog, transactions restricted to the cohort's rows)."""
    table = _read(args.input, "input", parse_patient_csv)
    cohort = cohort_rows(table, args.cohort)
    if not cohort:
        sel = args.cohort
        name = sel.kind if sel.lo is None else f"{sel.lo}-{sel.hi}"
        where = "" if sel.kind == "all" else f" with --cohort {name}"
        raise RuleMineError(f"no patient rows in input file {args.input}{where}")
    cfg = DerivationConfig(
        age_buckets_enabled=args.derive_age,
        include_sex=args.derive_sex,
        include_outcome=args.derive_outcome,
        include_lab=args.derive_lab,
    )
    catalog = build_catalog(table, cfg)
    return table, cfg, catalog, derive_items(table, cfg, catalog, cohort)


def _write_output(args, blocks: Iterable[str]) -> None:
    """Write the text ``blocks``, each as it comes, to ``--output`` or stdout."""
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(blocks)
        except OSError as exc:
            raise RuleMineError(f"cannot write output file {args.output}: {exc.strerror}") from None
    elif sys.stdout is None:  # the process started with fd 1 closed
        raise RuleMineError(f"cannot write to stdout: {os.strerror(errno.EBADF)}")
    else:
        try:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        except OSError as exc:
            # fd 1 to devnull, as Python's signal docs advise after a broken
            # pipe: the interpreter's final flush of what the buffer still
            # holds then neither fails again nor turns the exit code to 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise RuleMineError(f"cannot write to stdout: {exc.strerror}") from None


def _cmd_freq(args) -> int:
    _, _, catalog, ts = _load_items(args)
    freq = item_frequencies(ts)
    n, counts = freq.n_transactions, freq.counts
    # int / int is correctly rounded: the float of the exact fraction
    rows = [(catalog.name_of(i), counts[i], repr(counts[i] / n)) for i in freq.ranked()]
    _write_output(args, [csv_text([("item", "count", "fraction"), *rows])])
    return 0


def _cmd_select(args) -> int:
    table, _, catalog, ts = _load_items(args)
    symptom_ids = [catalog.id_of(c) for c in table.symptom_columns]
    freq = item_frequencies(project(ts, symptom_ids))
    selected = select_features(freq, args.threshold)
    _write_output(args, [catalog.name_of(i) + "\n" for i in selected])
    return 0


def _select_pipeline(table, ts, symptom_ids, args):
    """Dual-threshold feature selection over the all/deceased cohorts."""
    symptoms = project(ts, symptom_ids)
    selected = select_features(item_frequencies(symptoms), args.feature_threshold)
    # the deceased leg counts the cohort's rows whose outcome is deceased; a blank is not
    deceased = table.outcome["deceased"] & symptoms.rows
    if deceased:
        freq_dec = item_frequencies(symptoms.restrict(deceased))
        selected = union_features(
            selected, select_features(freq_dec, args.feature_threshold_deceased)
        )
    return selected


def _run_pipeline(args):
    """Everything ``mine`` and ``verify`` run before the miner: load, cohort,
    derive, select and project, sparse drop, target and max_len. Returns
    (catalog, transactions, mining config)."""
    table, cfg, catalog, ts = _load_items(args)
    symptom_ids = [catalog.id_of(c) for c in table.symptom_columns]

    if args.no_select:
        clinical = canonical_itemset(symptom_ids)
    else:
        selected = _select_pipeline(table, ts, symptom_ids, args)
        derived_ids = [catalog.id_of(name) for name in cfg.derived_names()]
        ts = project(ts, selected + derived_ids)
        clinical = canonical_itemset(selected)

    if args.min_symptoms is not None:
        ts = drop_sparse_patients(ts, clinical, args.min_symptoms)
        if not ts.n_transactions:
            raise RuleMineError(f"no patient rows in input file {args.input}"
                                f" with --min-symptoms {args.min_symptoms}")

    target = None
    if args.target_consequent:
        target = canonical_itemset(map(catalog.id_of, args.target_consequent.split(",")))
    return catalog, ts, MiningConfig(
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        min_lift=args.min_lift,
        max_len=args.max_len,
        target_consequent=target,
    )


def _rules(fi, mcfg: MiningConfig, catalog: ItemCatalog) -> RuleSet:
    """``generate_rules``; its zero-count error names the items of (X, Y)."""
    try:
        return generate_rules(fi, mcfg)
    except UndefinedMetricError as exc:
        x, y = (_names(s, catalog) for s in exc.pair)
        raise RuleMineError(f"metrics undefined for zero count: {x} => {y}") from None


def _cmd_mine(args) -> int:
    catalog, ts, mcfg = _run_pipeline(args)
    rs = _rules(mine_frequent(ts, mcfg), mcfg, catalog)
    _write_output(args, [emit_report(rs, catalog, args.format)])
    return 0


def _cmd_synth(args) -> int:
    from .synth import CohortSpec, generate_cohort, patient_csv_blocks

    marginals = {}
    for name, p in args.marginal:
        if name in marginals:
            raise ConfigError(f"--marginal {name} given twice")
        marginals[name] = p
    spec = CohortSpec(
        n=args.n,
        marginals=marginals,
        mortality=args.mortality,
        male_fraction=args.male_fraction,
        age_weights=args.age_weights,
        planted_pairs=args.planted,
        seed=args.seed,
    )
    _write_output(args, patient_csv_blocks(generate_cohort(spec)))
    return 0


def _cmd_verify(args) -> int:
    from . import oracle

    catalog, ts, mcfg = _run_pipeline(args)
    # the oracle first, as it refuses too many subsets before any mining; then the
    # whole lattice against the oracle's, and the rules from the target's family
    lattice = oracle.brute_frequent(ts, mcfg.min_support, mcfg.max_len)
    fi = mine_frequent(ts, MiningConfig(**(vars(mcfg) | {"target_consequent": None})))
    if fi.counts != lattice.counts:
        print("MISMATCH: frequent itemsets differ from brute-force oracle", file=sys.stderr)
        return 1
    family = mine_frequent(ts, mcfg) if mcfg.target_consequent else fi
    if not family.counts.items() <= fi.counts.items():
        print("MISMATCH: targeted itemsets differ from the whole lattice", file=sys.stderr)
        return 1
    rs = _rules(family, mcfg, catalog)
    if rs.rules != oracle.brute_rules(lattice, mcfg).rules:
        print("MISMATCH: rule sets differ from brute-force oracle", file=sys.stderr)
        return 1
    _write_output(
        args,
        [f"OK: {len(fi.counts)} frequent itemsets, {len(rs.rules)} rules "
         "match the brute-force oracle\n"],
    )
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # the flags freq, select, mine and verify share, then those of
    # _run_pipeline, each declared once as a parent parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="patient CSV file")
    common.add_argument(
        "--cohort", type=_cohort_arg, default=CohortSelector("all"),
        help=" | ".join(_COHORT_WORDS) + " age range",
    )
    common.add_argument("--derive-age", action="store_true", help="add age-bucket items")
    common.add_argument("--derive-sex", action="store_true", help="add Male/Female items")
    common.add_argument("--derive-outcome", action="store_true", help="add Recovery/Death items")
    common.add_argument("--derive-lab", action="store_true", help="add lab-result items")
    common.add_argument("--output", help="write the report to a file instead of stdout")
    common.add_argument("--config", help="key=value config file; flags override it")

    pipeline = argparse.ArgumentParser(add_help=False, parents=[common])
    pipeline.add_argument("--feature-threshold", type=_threshold_arg, default="0.15",
                          help="all-patients selection threshold")
    pipeline.add_argument("--feature-threshold-deceased", type=_threshold_arg, default="0.25",
                          help="deceased-cohort selection threshold")
    pipeline.add_argument("--no-select", action="store_true", help="skip feature selection")
    pipeline.add_argument("--min-symptoms", type=_number_arg(int, 1), default=None,
                          help="drop patients with fewer selected symptoms than this")
    pipeline.add_argument("--min-support", type=_threshold_arg, default="0.001")
    pipeline.add_argument("--min-confidence", type=_threshold_arg, default="0.0")
    pipeline.add_argument("--min-lift", type=_number_arg(_decimal, 0), default="1.0")
    pipeline.add_argument("--max-len", type=_number_arg(int, 1), default=None)
    pipeline.add_argument("--target-consequent", type=_names_arg, default=None,
                          metavar="NAME,...", help="item names the consequent must equal")

    parser = argparse.ArgumentParser(
        prog="rulemine",
        description="Frequent-itemset and association-rule mining over binary patient data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("freq", parents=[common], help="per-item frequency table (CSV)")
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("select", parents=[common], help="threshold-based feature selection")
    p.add_argument("--threshold", type=_threshold_arg, default="0.15")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("mine", parents=[pipeline], help="full pipeline: select, mine, rank rules")
    p.add_argument("--format", choices=("csv", "json", "md"), default="csv")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("synth", help="generate a synthetic cohort CSV")
    p.add_argument("--n", type=_number_arg(int, 0), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--marginal", type=_marginal_arg,
                   action="append", default=[], metavar="NAME=FRACTION")
    p.add_argument("--planted", type=_fields_arg(",", "A,B,JOINT", _float01_arg),
                   action="append", default=[], metavar="A,B,JOINT")
    p.add_argument("--mortality", type=_float01_arg, default=0.24)
    p.add_argument("--male-fraction", type=_float01_arg, default=0.59)
    p.add_argument("--age-weights", type=_age_weights_arg, metavar="BUCKET=W,...")
    p.add_argument("--output", help="write the CSV to a file instead of stdout")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", parents=[pipeline],
                       help="cross-check mine's pipeline against the brute-force oracle")
    p.set_defaults(func=_cmd_verify)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    sub = subparsers.get(argv[0]) if argv else None
    path = None
    try:
        if sub is not None:
            pre = argparse.ArgumentParser(prog=sub.prog, add_help=False, allow_abbrev=False)
            pre.add_argument("--config")
            path = pre.parse_known_args(argv[1:])[0].config
            if path:
                # config lines go ahead of the explicit flags, so the explicit ones win
                argv[1:1] = _config_tokens(path, sub)
        args = parser.parse_args(argv)
        if args.config != path:
            sub.error("--config must be spelt out in full")
        return args.func(args)
    except RuleMineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The process entry: ``main()``'s exit code, with the heap frozen after it.

    ``gc.freeze()`` moves every tracked object to the permanent generation,
    so the collections of interpreter shutdown visit nothing; module
    teardown, the stdio flush and ``atexit`` run as before. ``main()`` does
    not freeze, as in-process callers would then keep every uncollected
    cycle for the life of their process. Stdout is re-encoded as UTF-8 first,
    so a report there is the ``--output`` bytes whatever the locale.
    """
    try:
        if sys.stdout is not None:  # None when the process starts with fd 1 closed
            sys.stdout.reconfigure(encoding="utf-8")
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
