"""Command-line surface: freq | select | mine | synth | verify.

Reports go to stdout (or ``--output``); diagnostics go to stderr only.
Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import oracle
from .apriori import MiningConfig, mine_frequent
from .core import ItemCatalog, canonical_itemset
from .errors import RuleMineError
from .features import item_frequencies, project, select_features, union_features
from .ingest import (
    CohortSelector,
    DerivationConfig,
    build_catalog,
    derive_items,
    drop_sparse_patients,
    filter_cohort,
    parse_patient_csv,
    serialize_patient_csv,
)
from .rules import RuleSet, generate_rules
from .synth import CohortSpec, generate_cohort

REPORT_COLUMNS = (
    "Antecedents",
    "Consequents",
    "Antecedent support",
    "Consequent support",
    "Support",
    "Confidence",
    "Lift",
    "Leverage",
)


# ---------------------------------------------------------------- reporting


def _names(itemset, catalog: ItemCatalog) -> str:
    return ", ".join(catalog.name_of(i) for i in itemset)


def _round4(v) -> str:
    # str.format rounds half-even on the underlying binary value
    return f"{float(v):.4f}"


def emit_report(rs: RuleSet, catalog: ItemCatalog, fmt: str) -> str:
    """Render a RuleSet as csv, markdown, or json (full precision + counts)."""
    if fmt == "json":
        out = []
        for r in rs.rules:
            obj = {
                "antecedent": [catalog.name_of(i) for i in r.antecedent],
                "consequent": [catalog.name_of(i) for i in r.consequent],
                "antecedent_support": float(r.metrics.antecedent_support),
                "consequent_support": float(r.metrics.consequent_support),
                "support": float(r.metrics.support),
                "confidence": float(r.metrics.confidence),
                "lift": float(r.metrics.lift),
                "leverage": float(r.metrics.leverage),
            }
            if rs.n_transactions is not None:
                n = rs.n_transactions
                obj["n_transactions"] = n
                obj["support_count"] = int(r.metrics.support * n)
                obj["antecedent_count"] = int(r.metrics.antecedent_support * n)
                obj["consequent_count"] = int(r.metrics.consequent_support * n)
            out.append(obj)
        return json.dumps(out, indent=2) + "\n"

    def row_cells(r):
        m = r.metrics
        return [
            _names(r.antecedent, catalog),
            _names(r.consequent, catalog),
            _round4(m.antecedent_support),
            _round4(m.consequent_support),
            _round4(m.support),
            _round4(m.confidence),
            _round4(m.lift),
            _round4(m.leverage),
        ]

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in rs.rules:
            writer.writerow(row_cells(r))
        return buf.getvalue()

    if fmt == "md":
        lines = ["| " + " | ".join(REPORT_COLUMNS) + " |"]
        lines.append("|" + "|".join([" --- "] * len(REPORT_COLUMNS)) + "|")
        for r in rs.rules:
            lines.append("| " + " | ".join(row_cells(r)) + " |")
        return "\n".join(lines) + "\n"

    raise RuleMineError(f"unknown report format: {fmt}")


# ---------------------------------------------------------------- arg types


def _fraction_arg(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {s!r}") from None
    if not 0 <= v <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0,1]: {s}")
    return v


def _nonneg_arg(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {s!r}") from None
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {s}")
    return v


def _posint_arg(s: str) -> int:
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {s!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {s}")
    return v


def _cohort_arg(s: str) -> CohortSelector:
    if s in ("all", "deceased", "recovered"):
        return CohortSelector(s)
    if "-" in s:
        lo_s, _, hi_s = s.partition("-")
        try:
            return CohortSelector("age_range", lo=int(lo_s), hi=int(hi_s))
        except (ValueError, RuleMineError):
            pass
    raise argparse.ArgumentTypeError(
        f"cohort must be all, deceased, recovered, or LO-HI: {s!r}"
    )


_CONFIG_TYPES = {
    "cohort": _cohort_arg,
    "feature_threshold": _fraction_arg,
    "feature_threshold_deceased": _fraction_arg,
    "min_support": _fraction_arg,
    "min_confidence": _fraction_arg,
    "min_lift": _nonneg_arg,
    "max_len": _posint_arg,
    "min_symptoms": _posint_arg,
    "target_consequent": str,
    "format": str,
    "n": int,
    "seed": int,
    "mortality": _fraction_arg,
    "male_fraction": _fraction_arg,
    "threshold": _fraction_arg,
}


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise RuleMineError(f"{path}:{lineno}: expected key=value")
                key, _, raw = line.partition("=")
                key = key.strip().replace("-", "_")
                conv = _CONFIG_TYPES.get(key)
                if conv is None:
                    raise RuleMineError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    values[key] = conv(raw.strip())
                except argparse.ArgumentTypeError as exc:
                    raise RuleMineError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise RuleMineError(f"cannot read config file {path}: {exc.strerror}") from None
    return values


# ---------------------------------------------------------------- commands


def _load_table(path: str):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise RuleMineError(f"cannot read input file {path}: {exc.strerror}") from None
    return parse_patient_csv(text)


def _derivation_config(args) -> DerivationConfig:
    return DerivationConfig(
        age_buckets_enabled=args.derive_age,
        include_sex=args.derive_sex,
        include_outcome=args.derive_outcome,
        include_lab=args.derive_lab,
    )


def _write_output(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_freq(args) -> int:
    table = filter_cohort(_load_table(args.input), args.cohort)
    cfg = _derivation_config(args)
    catalog = build_catalog(table, cfg)
    ts = derive_items(table, cfg, catalog)
    freq = item_frequencies(ts)
    order = sorted(freq.entries, key=lambda i: (-freq.entries[i][1], i))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["item", "count", "fraction"])
    for i in order:
        count, frac = freq.entries[i]
        writer.writerow([catalog.name_of(i), count, repr(float(frac))])
    _write_output(args, buf.getvalue())
    return 0


def _cmd_select(args) -> int:
    table = filter_cohort(_load_table(args.input), args.cohort)
    cfg = _derivation_config(args)
    catalog = build_catalog(table, cfg)
    ts = derive_items(table, cfg, catalog)
    symptom_ids = [catalog.id_of(c) for c in table.symptom_columns]
    freq = item_frequencies(project(ts, symptom_ids))
    selected = select_features(freq, args.threshold)
    _write_output(args, "".join(catalog.name_of(i) + "\n" for i in selected))
    return 0


def _select_pipeline(table, ts, catalog, args):
    """Dual-threshold feature selection over the all/deceased cohorts."""
    cfg = _derivation_config(args)
    symptom_ids = [catalog.id_of(c) for c in table.symptom_columns]
    freq_all = item_frequencies(project(ts, symptom_ids))
    selected = select_features(freq_all, args.feature_threshold)
    # deceased leg only when the table carries outcomes
    if any(r.outcome is not None for r in table.rows):
        deceased = filter_cohort(table, CohortSelector("deceased"))
        if deceased.rows:
            ts_dec = derive_items(deceased, cfg, catalog)
            freq_dec = item_frequencies(project(ts_dec, symptom_ids))
            selected = union_features(
                selected, select_features(freq_dec, args.feature_threshold_deceased)
            )
    return selected


def _cmd_mine(args) -> int:
    table = filter_cohort(_load_table(args.input), args.cohort)
    cfg = _derivation_config(args)
    catalog = build_catalog(table, cfg)
    ts = derive_items(table, cfg, catalog)
    symptom_ids = [catalog.id_of(c) for c in table.symptom_columns]

    if args.no_select:
        clinical = canonical_itemset(symptom_ids)
    else:
        selected = _select_pipeline(table, ts, catalog, args)
        derived_ids = [
            catalog.id_of(name) for name in cfg.derived_names() if name in catalog
        ]
        ts = project(ts, selected + derived_ids)
        clinical = canonical_itemset(selected)

    if args.min_symptoms is not None:
        ts = drop_sparse_patients(ts, clinical, args.min_symptoms)

    target = None
    if args.target_consequent:
        target = canonical_itemset(
            catalog.id_of(name.strip()) for name in args.target_consequent.split(",")
        )
    mcfg = MiningConfig(
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        min_lift=args.min_lift,
        max_len=args.max_len,
        target_consequent=target,
    )
    fi = mine_frequent(ts, mcfg)
    rs = generate_rules(fi, mcfg)
    _write_output(args, emit_report(rs, catalog, args.format))
    return 0


def _parse_marginals(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        name, eq, raw = pair.partition("=")
        if not eq:
            raise RuleMineError(f"--marginal expects name=fraction, got {pair!r}")
        try:
            out[name] = float(raw)
        except ValueError:
            raise RuleMineError(f"bad marginal fraction in {pair!r}") from None
    return out


def _parse_planted(specs: list[str]) -> list[tuple[str, str, float]]:
    out = []
    for s in specs:
        parts = s.split(",")
        if len(parts) != 3:
            raise RuleMineError(f"--planted expects a,b,joint, got {s!r}")
        try:
            out.append((parts[0], parts[1], float(parts[2])))
        except ValueError:
            raise RuleMineError(f"bad joint fraction in {s!r}") from None
    return out


def _parse_age_weights(s: str) -> list[tuple[str, float]]:
    out = []
    for part in s.split(","):
        bucket, eq, raw = part.partition("=")
        if not eq:
            raise RuleMineError(f"--age-weights expects bucket=weight pairs, got {part!r}")
        try:
            out.append((bucket, float(raw)))
        except ValueError:
            raise RuleMineError(f"bad age weight in {part!r}") from None
    return out


def _cmd_synth(args) -> int:
    spec = CohortSpec(
        n=args.n,
        marginals=_parse_marginals(args.marginal or []),
        mortality=args.mortality,
        male_fraction=args.male_fraction,
        planted_pairs=_parse_planted(args.planted or []),
        seed=args.seed,
    )
    if args.age_weights:
        spec.age_weights = _parse_age_weights(args.age_weights)
    table = generate_cohort(spec)
    _write_output(args, serialize_patient_csv(table))
    return 0


def _cmd_verify(args) -> int:
    table = filter_cohort(_load_table(args.input), args.cohort)
    cfg = _derivation_config(args)
    catalog = build_catalog(table, cfg)
    ts = derive_items(table, cfg, catalog)
    mcfg = MiningConfig(
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        min_lift=args.min_lift,
    )
    fi_fast = mine_frequent(ts, mcfg)
    fi_slow = oracle.brute_frequent(ts, mcfg.min_support)
    rules_fast = generate_rules(fi_fast, mcfg)
    rules_slow = oracle.brute_rules(ts, mcfg)
    if fi_fast.counts != fi_slow.counts:
        print("MISMATCH: frequent itemsets differ from brute-force oracle", file=sys.stderr)
        return 1
    if rules_fast.rules != rules_slow.rules:
        print("MISMATCH: rule sets differ from brute-force oracle", file=sys.stderr)
        return 1
    sys.stdout.write(
        f"OK: {len(fi_fast.counts)} frequent itemsets, {len(rules_fast.rules)} rules "
        "match the brute-force oracle\n"
    )
    return 0


# ---------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="patient CSV file")
    p.add_argument(
        "--cohort", type=_cohort_arg, default=CohortSelector("all"),
        help="all | deceased | recovered | LO-HI age range",
    )
    p.add_argument("--derive-age", action="store_true", help="add age-bucket items")
    p.add_argument("--derive-sex", action="store_true", help="add Male/Female items")
    p.add_argument("--derive-outcome", action="store_true", help="add Recovery/Death items")
    p.add_argument("--derive-lab", action="store_true", help="add lab-result items")
    p.add_argument("--output", help="write the report to a file instead of stdout")
    p.add_argument("--config", help="key=value config file; flags override it")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="rulemine",
        description="Frequent-itemset and association-rule mining over binary patient data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = sub.add_parser("freq", help="per-item frequency table (CSV)")
    _add_common(p)
    p.set_defaults(func=_cmd_freq)
    subparsers["freq"] = p

    p = sub.add_parser("select", help="threshold-based feature selection")
    _add_common(p)
    p.add_argument("--threshold", type=_fraction_arg, default=0.15)
    p.set_defaults(func=_cmd_select)
    subparsers["select"] = p

    p = sub.add_parser("mine", help="full pipeline: select, mine, rank rules")
    _add_common(p)
    p.add_argument("--feature-threshold", type=_fraction_arg, default=0.15,
                   help="all-patients selection threshold")
    p.add_argument("--feature-threshold-deceased", type=_fraction_arg, default=0.25,
                   help="deceased-cohort selection threshold")
    p.add_argument("--no-select", action="store_true", help="skip feature selection")
    p.add_argument("--min-symptoms", type=_posint_arg, default=None,
                   help="drop patients with fewer selected symptoms than this")
    p.add_argument("--min-support", type=_fraction_arg, default=0.001)
    p.add_argument("--min-confidence", type=_fraction_arg, default=0.0)
    p.add_argument("--min-lift", type=_nonneg_arg, default=1.0)
    p.add_argument("--max-len", type=_posint_arg, default=None)
    p.add_argument("--target-consequent", default=None,
                   help="comma-separated item names the consequent must equal")
    p.add_argument("--format", choices=("csv", "json", "md"), default="csv")
    p.set_defaults(func=_cmd_mine)
    subparsers["mine"] = p

    p = sub.add_parser("synth", help="generate a synthetic cohort CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--marginal", action="append", metavar="NAME=FRACTION")
    p.add_argument("--planted", action="append", metavar="A,B,JOINT")
    p.add_argument("--mortality", type=_fraction_arg, default=0.24)
    p.add_argument("--male-fraction", type=_fraction_arg, default=0.59)
    p.add_argument("--age-weights", default=None, metavar="BUCKET=W,...")
    p.add_argument("--output", help="write the CSV to a file instead of stdout")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.set_defaults(func=_cmd_synth)
    subparsers["synth"] = p

    p = sub.add_parser("verify", help="cross-check mining against the brute-force oracle")
    _add_common(p)
    p.add_argument("--min-support", type=_fraction_arg, default=0.001)
    p.add_argument("--min-confidence", type=_fraction_arg, default=0.0)
    p.add_argument("--min-lift", type=_nonneg_arg, default=0.0)
    p.set_defaults(func=_cmd_verify)
    subparsers["verify"] = p

    return parser, subparsers


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()

    # config file values become defaults; explicit flags keep precedence
    if "--config" in argv:
        try:
            cfg_path = argv[argv.index("--config") + 1]
        except IndexError:
            parser.error("--config expects a path")
        try:
            values = _load_config_file(cfg_path)
        except RuleMineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for p in subparsers.values():
            p.set_defaults(**values)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RuleMineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
