"""Deterministic synthetic patient cohorts.

Column values are drawn from per-column substreams of Python's Mersenne
Twister (``random.Random`` seeded with ``"<seed>/<column>"``), so adding
or removing one column never perturbs the others and identical specs give
byte-identical CSV output on every platform. Draws use only ``random()``
and ``getrandbits()`` of each substream: Python promises to keep the
sequence of ``random()`` across versions, ``getrandbits(k)`` for k <= 32
is the generator's next 32-bit word shifted right, and ``choices`` and
``randint``, which carry no such promise, are not called.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate

from .core import Record, flags_to_bits
from .errors import ConfigError
from .ingest import AGE_BUCKETS, PatientTable


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


def _flags(rng: random.Random, p: float, n: int) -> str:
    """n rows, row 0 first: '1' where the row's uniform is below p, else '0'."""
    random_ = rng.random
    return "".join(["1" if random_() < p else "0" for _ in range(n)])


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

    columns: dict[str, str] = {}  # '0'/'1' flags per symptom, row 0 first
    for a, b, joint in spec.planted_pairs:
        p_a, p_b = spec.marginals[a], spec.marginals[b]
        # 2x2 joint from one uniform per row: P(11)=joint, P(10)=p_a-joint, P(01)=p_b-joint
        random_ = _stream(spec, f"pair:{a}+{b}").random
        us = [random_() for _ in range(n)]
        columns[a] = "".join(["1" if u < joint or u < p_a else "0" for u in us])
        columns[b] = "".join(
            ["1" if u < joint or p_a <= u < p_a + p_b - joint else "0" for u in us]
        )
    for name in symptom_columns:
        if name not in columns:
            columns[name] = _flags(_stream(spec, f"symptom:{name}"), spec.marginals[name], n)

    every = (1 << n) - 1
    male = flags_to_bits(_flags(_stream(spec, "sex"), spec.male_fraction, n))
    deceased = flags_to_bits(_flags(_stream(spec, "outcome"), spec.mortality, n))

    return PatientTable(
        symptom_columns,
        covers=[flags_to_bits(columns[name]) for name in symptom_columns],
        age=_ages(_stream(spec, "age"), spec.age_weights, n),
        sex={"M": male, "F": every ^ male},
        outcome={"recovered": every ^ deceased, "deceased": deceased},
        lab_result={"pos": 0, "neg": 0},
    )
