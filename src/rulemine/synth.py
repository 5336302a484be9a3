"""Deterministic synthetic patient cohorts.

Column values are drawn from per-column substreams of Python's Mersenne
Twister (``random.Random`` seeded with ``"<seed>/<column>"``), so adding
or removing one column never perturbs the others and identical specs give
byte-identical CSV output on every platform.
"""

from __future__ import annotations

import random
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


def generate_cohort(spec: CohortSpec) -> PatientTable:
    """Draw a PatientTable of n rows matching the spec's distributions."""
    _validate(spec)
    n = spec.n
    symptom_columns = list(spec.marginals)

    columns: dict[str, str] = {}  # '0'/'1' flags per symptom, row 0 first
    for a, b, joint in spec.planted_pairs:
        p_a, p_b = spec.marginals[a], spec.marginals[b]
        # 2x2 joint from one uniform per row: P(11)=joint, P(10)=p_a-joint, P(01)=p_b-joint
        rng = _stream(spec, f"pair:{a}+{b}")
        us = [rng.random() for _ in range(n)]
        columns[a] = "".join(["1" if u < joint or u < p_a else "0" for u in us])
        columns[b] = "".join(
            ["1" if u < joint or p_a <= u < p_a + p_b - joint else "0" for u in us]
        )
    for name in symptom_columns:
        if name not in columns:
            p = spec.marginals[name]
            rng = _stream(spec, f"symptom:{name}")
            columns[name] = "".join(["1" if rng.random() < p else "0" for _ in range(n)])

    age_rng = _stream(spec, "age")
    buckets = [b for b, _ in spec.age_weights]
    cum_weights = list(accumulate(w for _, w in spec.age_weights))
    ages = []
    for _ in range(n):
        bucket = age_rng.choices(buckets, cum_weights=cum_weights)[0]
        lo, hi = AGE_BUCKETS[bucket]
        ages.append(age_rng.randint(lo, min(hi - 1, 100)))  # >60 draws stop at 100

    sex_rng = _stream(spec, "sex")
    sexes = ["M" if sex_rng.random() < spec.male_fraction else "F" for _ in range(n)]
    out_rng = _stream(spec, "outcome")
    outcomes = [
        "deceased" if out_rng.random() < spec.mortality else "recovered" for _ in range(n)
    ]

    return PatientTable(
        symptom_columns,
        covers=[flags_to_bits(columns[name]) for name in symptom_columns],
        age=ages,
        sex=sexes,
        outcome=outcomes,
        lab_result=[None] * n,
    )
