"""Independent check of a ``rulemine mine`` csv report.

Nothing here imports rulemine. The cohort CSV is read into column bitsets
(bit t set when patient t has the item), feature selection and the sparse
drop are redone from those columns, and the frequent itemsets and rules
the report should hold are enumerated afresh with integer counts. Each
report row must then match its recomputed counts in all eight columns
within the report's 4-decimal rounding, keep lift above the threshold,
follow the ranking order, and appear exactly once.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

REPORT_COLUMNS = [
    "Antecedents", "Consequents", "Antecedent support", "Consequent support",
    "Support", "Confidence", "Lift", "Leverage",
]
RESERVED = ("id", "age", "sex", "outcome", "lab_result")
AGE_ITEMS = ("<20", "20-40", "40-60", ">60")
SEX_ITEMS = {"M": "Male", "F": "Female"}
OUTCOME_ITEMS = {"recovered": "Recovery", "deceased": "Death"}
CELL = re.compile(r"-?\d+\.\d{4}")


@dataclass(frozen=True)
class Thresholds:
    """The mine flags the expected report depends on, as typed decimals."""

    min_support: str
    min_lift: str = "1.0"
    feature_threshold: str = "0.15"
    feature_threshold_deceased: str = "0.25"
    target: str | None = None
    min_symptoms: int | None = None


@dataclass
class Cohort:
    """Item names in report id order and their covers over kept patients."""

    names: list[str]
    covers: list[int]
    rows: int  # bitset of the patients kept by the sparse drop

    @property
    def n(self) -> int:
        return self.rows.bit_count()


def _age_item(age: int) -> str:
    return AGE_ITEMS[0 if age < 20 else 1 if age < 40 else 2 if age < 60 else 3]


def load_cohort(csv_text: str, th: Thresholds) -> Cohort:
    """Column bitsets of the selected symptoms and derived items.

    Item order is symptom columns in header order, then age buckets, sex
    and outcome items, which is the order the report ranks ties by.
    """
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader)
    symptoms = [c for c in header if c not in RESERVED]
    sym_idx = [header.index(c) for c in symptoms]
    age_k, sex_k, out_k = header.index("age"), header.index("sex"), header.index("outcome")
    sym_cols: list[list[str]] = [[] for _ in symptoms]
    derived: dict[str, int] = {
        name: 0 for name in (*AGE_ITEMS, *SEX_ITEMS.values(), *OUTCOME_ITEMS.values())
    }
    n = 0
    for t, cells in enumerate(reader):
        for col, k in zip(sym_cols, sym_idx):
            col.append(cells[k])
        for name in (_age_item(int(cells[age_k])), SEX_ITEMS[cells[sex_k]],
                     OUTCOME_ITEMS[cells[out_k]]):
            derived[name] |= 1 << t
        n = t + 1
    # "0"/"1" cells, patient 0 in the lowest bit
    sym_covers = [int("".join(reversed(col)), 2) if col else 0 for col in sym_cols]

    # dual-threshold selection: frequency strictly above each typed decimal
    dead = derived["Death"]
    n_dead = dead.bit_count()
    cut_all = Fraction(th.feature_threshold)
    cut_dead = Fraction(th.feature_threshold_deceased)
    keep_items = [
        k for k, c in enumerate(sym_covers)
        if Fraction(c.bit_count(), n) > cut_all
        or (n_dead and Fraction((c & dead).bit_count(), n_dead) > cut_dead)
    ]

    rows = (1 << n) - 1
    if th.min_symptoms is not None:
        # at_least[j]: patients with at least j of the selected symptoms
        at_least = [rows] + [0] * th.min_symptoms
        for k in keep_items:
            for j in range(th.min_symptoms, 0, -1):
                at_least[j] |= at_least[j - 1] & sym_covers[k]
        rows = at_least[th.min_symptoms]

    names = [symptoms[k] for k in keep_items] + list(derived)
    covers = [sym_covers[k] & rows for k in keep_items] + [c & rows for c in derived.values()]
    return Cohort(names, covers, rows)


def frequent_itemsets(cohort: Cohort, min_support: str) -> dict[tuple[int, ...], int]:
    """Every itemset (tuple of increasing item ids) with support >= min_support."""
    ms = Fraction(min_support)
    need = -(-ms.numerator * cohort.n // ms.denominator)
    out: dict[tuple[int, ...], int] = {}

    def extend(prefix: tuple[int, ...], bits: int, start: int) -> None:
        for i in range(start, len(cohort.covers)):
            b = bits & cohort.covers[i]
            c = b.bit_count()
            if c >= need:
                s = prefix + (i,)
                out[s] = c
                extend(s, b, i + 1)

    extend((), cohort.rows, 0)
    return out


def expected_rules(
    freq: dict[tuple[int, ...], int], n: int, min_lift: str, target: tuple[int, ...] | None
) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(antecedent, consequent) pairs of every partition with lift > min_lift."""
    lift = Fraction(min_lift)
    out = set()
    for z, c_z in freq.items():
        if len(z) < 2:
            continue
        for r in range(1, len(z)):
            for x in combinations(z, r):
                y = tuple(i for i in z if i not in x)
                if target is not None and y != target:
                    continue
                if c_z * n * lift.denominator > lift.numerator * freq[x] * freq[y]:
                    out.add((x, y))
    return out


def check_report(
    csv_text: str, report_text: str, th: Thresholds, expected_rows: int | None = None
) -> list[str]:
    """Problems found in the report; an empty list means it is correct."""
    cohort = load_cohort(csv_text, th)
    n = cohort.n
    ids = {name: i for i, name in enumerate(cohort.names)}
    freq = frequent_itemsets(cohort, th.min_support)
    target = None
    if th.target is not None:
        target = tuple(sorted(ids[t.strip()] for t in th.target.split(",")))
    expected = expected_rules(freq, n, th.min_lift, target)
    lift_cut = Fraction(th.min_lift)

    problems: list[str] = []
    reader = csv.reader(io.StringIO(report_text))
    header = next(reader, None)
    if header != REPORT_COLUMNS:
        return [f"report header is {header!r}"]

    def itemset(cell: str, line: int) -> tuple[int, ...] | None:
        try:
            s = tuple(ids[name] for name in cell.split(", "))
        except KeyError as exc:
            problems.append(f"line {line}: item {exc.args[0]!r} is not a selected item")
            return None
        if list(s) != sorted(set(s)):
            problems.append(f"line {line}: items of {cell!r} are not in canonical order")
        return s

    seen = set()
    prev_key = None
    n_rows = 0
    for line, row in enumerate(reader, start=2):
        n_rows += 1
        if len(row) != len(REPORT_COLUMNS):
            problems.append(f"line {line}: {len(row)} cells")
            continue
        x, y = itemset(row[0], line), itemset(row[1], line)
        if x is None or y is None:
            continue
        if (x, y) in seen:
            problems.append(f"line {line}: duplicate rule {row[0]} => {row[1]}")
        seen.add((x, y))
        if (x, y) not in expected:
            problems.append(f"line {line}: {row[0]} => {row[1]} is not an expected rule")
            continue
        c_x, c_y, c_xy = freq[x], freq[y], freq[tuple(sorted(x + y))]
        exact = (  # (numerator, denominator) of each metric
            (c_x, n),
            (c_y, n),
            (c_xy, n),
            (c_xy, c_x),
            (c_xy * n, c_x * c_y),
            (c_xy * n - c_x * c_y, n * n),
        )
        for name, cell, (p, q) in zip(REPORT_COLUMNS[2:], row[2:], exact):
            # |cell - p/q| <= 0.00005, in integers: the cell is v / 10**4
            if not CELL.fullmatch(cell) or 2 * abs(int(cell.replace(".", "")) * q - 10**4 * p) > q:
                problems.append(f"line {line}: {name} is {cell}, expected {p / q:.6f}")
        if not c_xy * n * lift_cut.denominator > lift_cut.numerator * c_x * c_y:
            problems.append(f"line {line}: lift {row[6]} is not above {th.min_lift}")
        # descending support, then descending confidence (ascending antecedent
        # count at equal support), then item ids ascending
        key = (-c_xy, c_x, x, y)
        if prev_key is not None and not prev_key < key:
            problems.append(f"line {line}: out of ranking order")
        prev_key = key

    if len(seen) != len(expected):
        problems.append(f"report has {len(seen)} distinct rules, expected {len(expected)}")
    if expected_rows is not None and n_rows != expected_rows:
        problems.append(f"report has {n_rows} rows, {expected_rows} recorded for this workload")
    return problems
