"""Deterministic synthetic patient cohorts.

Column values are drawn from per-column substreams of Python's Mersenne
Twister (``random.Random`` seeded with ``"<seed>/<column>"``), so adding
or removing one column never perturbs the others and identical specs give
byte-identical CSV output on every platform. Draws use only ``random()``
and ``getrandbits()`` of each substream: Python promises to keep the
sequence of ``random()`` across versions, ``getrandbits(k)`` for k <= 32
is the generator's next 32-bit word shifted right, and ``choices`` and
``randint``, which carry no such promise, are not called.

A symptom, sex or outcome column takes one ``random()`` per row: row t
has the value when its uniform is below the column's fraction. A planted
pair cuts two columns from the same uniforms. The uniforms are not drawn
one call at a time: one ``getrandbits(64 * B)`` returns the 2B words that
B calls of ``random()`` would read, and ``_draw`` decides the rows from
those words; its docstring shows why every row gets the flag that
comparing its ``random()`` would give.

``patient_csv_blocks`` writes a table as the CSV ``parse_patient_csv`` reads.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, repeat

from .core import Record, bits_to_flags, flags_to_bits, row_codes
from .errors import ConfigError
from .ingest import AGE_BUCKETS, CODED, RESERVED_COLUMNS, PatientTable, csv_text

BLOCK_ROWS = 1 << 13  # rows drawn per getrandbits call, 8 bytes of words each
_UNIT = 1 << 53  # random() is m / _UNIT for an integer m in [0, _UNIT)
_TOP = 45  # m >> _TOP is the top byte of the row's first word
_TIE = ord("?")  # a row whose top byte does not decide it
WRITE_ROWS = 1 << 13  # rows of CSV text patient_csv_blocks writes at a time; a multiple of 8


class CohortSpec(Record):
    """The distributions of a synthetic cohort; ``generate_cohort`` checks them.

    ``age_weights`` defaults to 10/25/30/35% over the four age buckets.
    """

    def __init__(
        self,
        n: int,
        marginals: dict[str, float],
        mortality: float = 0.24,
        male_fraction: float = 0.59,
        age_weights: list[tuple[str, float]] | None = None,
        planted_pairs: list[tuple[str, str, float]] | None = None,
        seed: int = 0,
    ):
        self.n = n
        self.marginals = marginals
        self.mortality = mortality
        self.male_fraction = male_fraction
        if age_weights is None:
            age_weights = [("<20", 0.1), ("20-40", 0.25), ("40-60", 0.3), (">60", 0.35)]
        self.age_weights = age_weights
        self.planted_pairs = [] if planted_pairs is None else planted_pairs
        self.seed = seed


def _validate(spec: CohortSpec) -> None:
    if spec.n < 0:
        raise ConfigError("n must be >= 0")
    for name, p in spec.marginals.items():
        if not name or name in RESERVED_COLUMNS:
            raise ConfigError(f"marginal name must be non-empty and not reserved, got {name!r}")
        if name != name.strip() or "," in name:  # parse_patient_csv refuses such a header
            raise ConfigError(f"marginal name has a comma or outer whitespace: {name!r}")
        if not 0 <= p <= 1:
            raise ConfigError(f"marginal for {name} must be in [0,1], got {p}")
    for label, frac in (("mortality", spec.mortality), ("male_fraction", spec.male_fraction)):
        if not 0 <= frac <= 1:
            raise ConfigError(f"{label} must be in [0,1], got {frac}")
    total = 0.0
    for bucket, w in spec.age_weights:
        if bucket not in AGE_BUCKETS:
            raise ConfigError(f"unknown age bucket {bucket!r}")
        if w < 0:
            raise ConfigError(f"negative age weight for {bucket}")
        total += w
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"age weights must sum to 1, got {total}")

    used = set()
    for a, b, joint in spec.planted_pairs:
        if a == b:
            raise ConfigError(f"planted pair uses the same item twice: {a}")
        for name in (a, b):
            if name not in spec.marginals:
                raise ConfigError(f"planted pair item {name!r} has no marginal")
            if name in used:
                raise ConfigError(f"item {name!r} appears in two planted pairs")
            used.add(name)
        p_a, p_b = spec.marginals[a], spec.marginals[b]
        lower = max(0.0, p_a + p_b - 1.0)
        upper = min(p_a, p_b)
        if joint < lower - 1e-12:
            raise ConfigError(
                f"planted joint {joint} for ({a},{b}) below Frechet lower bound "
                f"max(0, {p_a} + {p_b} - 1) = {lower}"
            )
        if joint > upper + 1e-12:
            raise ConfigError(
                f"planted joint {joint} for ({a},{b}) above Frechet upper bound "
                f"min({p_a}, {p_b}) = {upper}"
            )


def _stream(spec: CohortSpec, column: str) -> random.Random:
    return random.Random(f"{spec.seed}/{column}")


def _cut(x: float) -> int:
    """ceil(x * 2**53) held to [0, 2**53]: for an integer m in that range,
    m / 2**53 < x exactly when m < _cut(x). (x * 2**53 is exact.)"""
    return min(max(math.ceil(x * _UNIT), 0), _UNIT)


def _below(x: float) -> tuple[int, int]:
    """The interval of m where ``random() < x``."""
    return (0, _cut(x))


def _decisions(intervals: list[tuple[int, int]]) -> bytes:
    """The ``bytes.translate`` table of a column: each top byte t of m to
    '1' when [t << 45, (t + 1) << 45) lies in one of ``intervals``, else
    to ``_TIE`` when it meets one of them, else to '0'."""
    table = bytearray(b"0" * 256)
    for lo, hi in intervals:  # the top bytes whose range meets [lo, hi)
        if lo < hi:
            first, end = lo >> _TOP, -(-hi >> _TOP)
            table[first:end] = bytes([_TIE]) * (end - first)
    for lo, hi in intervals:  # the top bytes whose range lies in [lo, hi)
        first, end = -(-lo >> _TOP), hi >> _TOP
        table[first:end] = b"1" * max(end - first, 0)
    return bytes(table)


def _draw(rng: random.Random, n: int, columns: list[list[tuple[int, int]]]) -> list[int]:
    """The row bitset of each column over the next n ``random()`` calls of
    ``rng``: row t is in a column when the t-th call's m lies in one of
    the column's half-open intervals [lo, hi) of integers.

    ``random()`` reads two 32-bit words w0, w1 and returns m / 2**53 with
    m = (w0 >> 5) * 2**26 + (w1 >> 6), a float that is exact since
    m < 2**53. So ``random() < x`` holds exactly when m < ``_cut(x)``,
    and ``x <= random()`` exactly when m >= ``_cut(x)``.

    ``getrandbits(64 * B)`` reads the same 2B words as B calls of
    ``random()``, the first word least significant, and leaves the
    generator where those calls would; one call per block of BLOCK_ROWS
    rows reads the same words as one call for all of them. In its
    little-endian bytes, row r's w0 is bytes 8r..8r+3, so byte 8r + 3
    (``words[3::8]``) is w0 >> 24, which is m >> 45: the row's m lies in
    [t << 45, (t + 1) << 45) for that top byte t. One ``bytes.translate``
    (``_decisions``) decides each row whose top byte's range lies inside
    one interval or outside all of them. An interval end falls in at most
    one top byte's range, so about 1 row in 256 per end is left tied, and
    only those rows compute m from their two words.
    """
    tables = [_decisions(intervals) for intervals in columns]
    flags: list[list[bytes]] = [[] for _ in columns]  # each column's blocks, row 0 first
    for start in range(0, n, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, n - start)
        words = rng.getrandbits(64 * rows).to_bytes(8 * rows, "little")
        top = words[3::8]
        for intervals, table, blocks in zip(columns, tables, flags):
            block = bytearray(top.translate(table))
            r = block.find(_TIE)
            while r >= 0:
                w = int.from_bytes(words[8 * r : 8 * r + 8], "little")  # w1 << 32 | w0
                m = (w & 0xFFFFFFFF) >> 5 << 26 | w >> 38
                block[r] = 0x31 if any(lo <= m < hi for lo, hi in intervals) else 0x30
                r = block.find(_TIE, r + 1)
            blocks.append(block)
    return [flags_to_bits(b"".join(blocks)) for blocks in flags]


def _ages(rng: random.Random, age_weights: list[tuple[str, float]], n: int) -> list[int]:
    """n ages: a bucket drawn by weight, then an age uniform in it (>60 stops at 100).

    This is ``rng.choices(buckets, cum_weights)[0]`` followed by
    ``rng.randint(lo, hi)``, as CPython 3.10-3.13 computes them: a bisect
    of one ``random()`` scaled by the total weight, then ``getrandbits``
    of the width's bit length until a draw falls below the width.
    """
    random_, getrandbits = rng.random, rng.getrandbits
    cum_weights = list(accumulate(w for _, w in age_weights))
    total = cum_weights[-1] + 0.0
    last = len(cum_weights) - 1
    draws = []  # (lo, width, bits) of each bucket: lo + r for the first r < width
    for bucket, _ in age_weights:
        lo, hi = AGE_BUCKETS[bucket]
        width = min(hi, 101) - lo  # >60 draws stop at 100
        draws.append((lo, width, width.bit_length()))
    ages = []
    for _ in range(n):
        lo, width, k = draws[bisect(cum_weights, random_() * total, 0, last)]
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        ages.append(lo + r)
    return ages


def generate_cohort(spec: CohortSpec) -> PatientTable:
    """Draw a PatientTable of n rows matching the spec's distributions."""
    _validate(spec)
    n = spec.n
    symptom_columns = list(spec.marginals)

    covers: dict[str, int] = {}  # each symptom's row bitset
    for a, b, joint in spec.planted_pairs:
        p_a, p_b = spec.marginals[a], spec.marginals[b]
        # 2x2 joint from one uniform u per row: P(11)=joint, P(10)=p_a-joint,
        # P(01)=p_b-joint; a is u < joint or u < p_a, b is u < joint or
        # p_a <= u < p_a + p_b - joint
        covers[a], covers[b] = _draw(_stream(spec, f"pair:{a}+{b}"), n, [
            [_below(max(joint, p_a))],
            [_below(joint), (_cut(p_a), _cut(p_a + p_b - joint))],
        ])
    for name in symptom_columns:
        if name not in covers:
            stream = _stream(spec, f"symptom:{name}")
            [covers[name]] = _draw(stream, n, [[_below(spec.marginals[name])]])

    every = (1 << n) - 1
    [male] = _draw(_stream(spec, "sex"), n, [[_below(spec.male_fraction)]])
    [deceased] = _draw(_stream(spec, "outcome"), n, [[_below(spec.mortality)]])

    return PatientTable(
        symptom_columns,
        covers=[covers[name] for name in symptom_columns],
        age=_ages(_stream(spec, "age"), spec.age_weights, n),
        sex={"M": male, "F": every ^ male},
        outcome={"recovered": every ^ deceased, "deceased": deceased},
        lab_result={"pos": 0, "neg": 0},
    )


def serialize_patient_csv(table: PatientTable) -> str:
    """Inverse of parse_patient_csv for the columns the table carries: the
    text of ``patient_csv_blocks``, joined."""
    return "".join(patient_csv_blocks(table))


def patient_csv_blocks(table: PatientTable) -> Iterator[str]:
    """The CSV of ``table`` in pieces: the header line, then the lines of
    WRITE_ROWS rows at a time, so the whole text is never held.

    Each row is the text of its reserved cells, then its symptom flags.
    A block's flags are written into one buffer of equal-width row tails
    by strided slices, one per symptom column, and each row's reserved
    cells, the commas between them and its tail are joined in one call.
    """
    n = len(table)
    header: list[str] = []
    columns: list[tuple[dict, Sequence]] = []  # each reserved column's (cell text, values)
    if table.age.count(None) < n:
        header.append("age")
        columns.append(({a: "" if a is None else str(a) for a in set(table.age)}, table.age))
    for name, by_code in CODED.items():
        rows = getattr(table, name)
        if any(rows.values()):
            header.append(name)
            columns.append((dict(enumerate(["", *by_code[1:]])), row_codes(rows.values(), n)))
    width = len(header) + len(table.covers)  # cells per row
    header.extend(table.symptom_columns)
    yield csv_text([header])
    if not width:
        return
    if width == 1 and columns:  # csv writes a row of one empty field as ""
        text, values = columns[0]
        columns = [({v: cell or '""' for v, cell in text.items()}, values)]

    lead = 1 if columns else 0  # the comma after the reserved cells
    step = lead + 2 * len(table.covers)  # one row's tail: its flags and line end
    covers = [bits.to_bytes(-(-n // 8), "little") for bits in table.covers]  # row t: bit t
    for start in range(0, n, WRITE_ROWS):
        size = min(WRITE_ROWS, n - start)
        tails = bytearray(b",") * (step * size)
        tails[step - 1 :: step] = b"\n" * size
        for j, cover in enumerate(covers):
            block = int.from_bytes(cover[start // 8 : (start + size + 7) // 8], "little")
            tails[lead + 2 * j :: step] = bits_to_flags(block, size).encode()
        if not columns:
            yield tails.decode()
            continue
        cells = [map(text.__getitem__, values[start : start + size]) for text, values in columns]
        # each row: its first reserved cell, then a comma and a cell per column, then its tail
        row_parts = [cells[0], *chain.from_iterable((repeat(","), c) for c in cells[1:])]
        yield "".join(chain.from_iterable(zip(*row_parts, tails.decode().splitlines(True))))
