import hashlib
import math
import random
from itertools import accumulate

from unittest.mock import patch

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from rulemine import synth
from rulemine.cli import main
from rulemine.core import flags_to_bits
from rulemine.errors import ConfigError
from rulemine.ingest import AGE_BUCKETS, parse_patient_csv
from rulemine.synth import CohortSpec, generate_cohort, serialize_patient_csv
from test_report_bytes import SYNTH_ARGV, WIDE_ARGV


def _fraction(table, name):
    return sum(r.symptoms[name] for r in table.rows) / len(table)


class TestGenerateCohort:
    def test_empty(self):
        table = generate_cohort(CohortSpec(n=0, marginals={"fever": 0.5}))
        assert len(table) == 0

    def test_degenerate_marginal(self):
        table = generate_cohort(CohortSpec(n=50, marginals={"fever": 1.0}, seed=3))
        assert all(r.symptoms["fever"] == 1 for r in table.rows)

    def test_marginal_within_binomial_bound(self):
        spec = CohortSpec(n=10_000, marginals={"apnea": 0.72}, seed=42)
        observed = _fraction(generate_cohort(spec), "apnea")
        sigma = math.sqrt(0.72 * 0.28 / 10_000)
        assert abs(observed - 0.72) <= 4 * sigma

    def test_planted_joint_within_bound(self):
        spec = CohortSpec(
            n=10_000,
            marginals={"fever": 0.59, "cough": 0.64},
            planted_pairs=[("fever", "cough", 0.4024)],
            seed=9,
        )
        table = generate_cohort(spec)
        joint = sum(
            r.symptoms["fever"] and r.symptoms["cough"] for r in table.rows
        ) / len(table)
        sigma = math.sqrt(0.4024 * (1 - 0.4024) / 10_000)
        assert abs(joint - 0.4024) <= 4 * sigma
        # marginals of the planted columns also hold
        assert abs(_fraction(table, "fever") - 0.59) <= 4 * math.sqrt(0.59 * 0.41 / 10_000)

    def test_determinism_byte_identical(self):
        spec = CohortSpec(
            n=500,
            marginals={"a": 0.3, "b": 0.6},
            planted_pairs=[("a", "b", 0.25)],
            seed=77,
        )
        csv1 = serialize_patient_csv(generate_cohort(spec))
        csv2 = serialize_patient_csv(generate_cohort(spec))
        assert csv1 == csv2

    def test_roundtrips_through_parser(self):
        spec = CohortSpec(n=120, marginals={"fever": 0.4, "cough": 0.5}, seed=5)
        table = generate_cohort(spec)
        again = parse_patient_csv(serialize_patient_csv(table))
        assert again == table

    def test_age_draws_fill_each_bucket_up_to_100(self):
        # every age of a bucket's range is drawn, and >60 stops at 100
        for bucket, ages in (("<20", range(0, 20)), ("20-40", range(20, 40)),
                             ("40-60", range(40, 60)), (">60", range(60, 101))):
            weights = [(b, float(b == bucket)) for b in AGE_BUCKETS]
            spec = CohortSpec(n=1000, marginals={"a": 0.5}, age_weights=weights, seed=2)
            assert set(generate_cohort(spec).age) == set(ages)

    def test_ages_respect_buckets(self):
        spec = CohortSpec(
            n=400,
            marginals={"fever": 0.5},
            age_weights=[("<20", 0.0), ("20-40", 1.0), ("40-60", 0.0), (">60", 0.0)],
            seed=1,
        )
        table = generate_cohort(spec)
        assert all(20 <= r.age <= 39 for r in table.rows)


class TestValidation:
    def test_frechet_upper_violation_named(self):
        spec = CohortSpec(
            n=10, marginals={"a": 0.2, "b": 0.3}, planted_pairs=[("a", "b", 0.25)]
        )
        with pytest.raises(ConfigError, match="upper bound"):
            generate_cohort(spec)

    def test_frechet_lower_violation_named(self):
        spec = CohortSpec(
            n=10, marginals={"a": 0.9, "b": 0.8}, planted_pairs=[("a", "b", 0.5)]
        )
        with pytest.raises(ConfigError, match="lower bound"):
            generate_cohort(spec)

    def test_overlapping_pairs_rejected(self):
        spec = CohortSpec(
            n=10,
            marginals={"a": 0.5, "b": 0.5, "c": 0.5},
            planted_pairs=[("a", "b", 0.25), ("b", "c", 0.25)],
        )
        with pytest.raises(ConfigError, match="two planted pairs"):
            generate_cohort(spec)

    def test_weights_must_sum_to_one(self):
        spec = CohortSpec(
            n=10,
            marginals={"a": 0.5},
            age_weights=[("<20", 0.5), ("20-40", 0.4)],
        )
        with pytest.raises(ConfigError, match="sum to 1"):
            generate_cohort(spec)

    def test_bad_marginal(self):
        with pytest.raises(ConfigError):
            generate_cohort(CohortSpec(n=10, marginals={"a": 1.5}))

    @pytest.mark.parametrize("fields,message", [
        ({"n": -1}, "n must be >= 0"),
        ({"mortality": 1.5}, "mortality must be in"),
        ({"age_weights": [("<20", 1.5), (">60", -0.5)]}, "negative age weight for >60"),
        ({"marginals": {"age": 0.5}}, "marginal name must be non-empty and not reserved"),
        ({"marginals": {"id": 0.5}}, "not reserved, got 'id'"),
        ({"marginals": {"": 0.5}}, "not reserved, got ''"),
        ({"marginals": {" X": 0.5}}, "has a comma or outer whitespace: ' X'"),
        ({"marginals": {"Sore, throat": 0.5}}, "has a comma or outer whitespace: 'Sore, throat'"),
    ])
    def test_bad_spec_value(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            generate_cohort(CohortSpec(**({"n": 10, "marginals": {"a": 0.5}} | fields)))


# Draws use only random() and getrandbits() of each substream, so these
# bytes hold on every supported Python; CI checks the paper and 50k cohorts'
# digests on 3.10 and 3.13.
@pytest.mark.parametrize("extra, digest", [
    ([], "e48ada23bc4898be43d64606ad101dfde81c89a4fa85f1bddd4692ef1dc66d1e"),
    (["--age-weights", "<20=0,20-40=0.5,40-60=0,>60=0.5"],
     "a63fa0d111b8bf56e942d34ff301787347ca4e4d1a38c63a2b26756e3ac049a2"),
    (["--n", "0"], "33000b815767dd26144d90fd8f9c2ed9ae046354750f8aba4a5f402ac82bcede"),
    (["--n", "1"], "110c01690e5d78c01b0283423ddeb337be77c0ca8c60d8df2b36c574f2d5f28d"),
    (["--n", "50000", *WIDE_ARGV],
     "077ea70733ef652732f4d6235c8f22c3e84be3bcfe2d8982e24d8fd7404973ac"),
    (["--n", "300", "--marginal", "never=0", "--marginal", "always=1",
      "--mortality", "0", "--male-fraction", "1"],
     "1675305f36d839212bbcc856f41690ca8c3e5ad69088798c6f64e8f47af8735d"),
], ids=["paper", "zero_age_weights", "n0", "n1", "cohort_50k", "fractions_0_and_1"])
def test_synth_bytes_are_pinned(tmp_path, extra, digest):
    out = tmp_path / "cohort.csv"
    assert main([*SYNTH_ARGV, *extra, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_synth_unwritable_output(capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "cohort.csv"
    assert main([*SYNTH_ARGV, "--output", str(target)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: cannot write output file {target}:")


# ---------------------------------------------------------------- bulk draws
# synth._draw reads the words of getrandbits(); one random() call per row,
# as rowwise_flags makes them, is the reference.


def rowwise_flags(uniforms, keep):
    """The row bitset of the rows whose uniform u has keep(u)."""
    return flags_to_bits("".join("1" if keep(u) else "0" for u in uniforms))


@st.composite
def fractions(draw, seed, n):
    """A fraction p to cut n rows of the seed's stream at: any in [0, 1],
    0 or 1, a little outside [0, 1], k/256 (the top byte's boundaries,
    with their neighbours), or a row's own uniform and its neighbours."""
    kind = draw(st.sampled_from(["any", "ends", "outside", "k/256", "own"]))
    if kind == "any":
        return draw(st.floats(0, 1))
    if kind == "ends":
        return draw(st.sampled_from([0.0, 1.0]))
    if kind == "outside":
        return draw(st.sampled_from([-1e-12, math.nextafter(0, -1), math.nextafter(1, 2),
                                     1 + 1e-12]))
    if kind == "k/256" or not n:
        p = draw(st.integers(0, 256)) / 256
    else:
        rng = random.Random(seed)
        p = [rng.random() for _ in range(draw(st.integers(1, n)))][-1]
    return math.nextafter(p, draw(st.sampled_from([-1, p, 2])))


@st.composite
def draws(draw):
    seed = draw(st.integers(0, 2**64))
    n = draw(st.integers(0, 300))
    block = draw(st.sampled_from([1, 2, 5, 64, synth.BLOCK_ROWS]))
    return seed, n, draw(fractions(seed, n)), block


@given(draws())
@example((0, 0, 0.5, synth.BLOCK_ROWS))  # no rows
@example((0, 1, 0.5, synth.BLOCK_ROWS))
def test_draw_is_one_random_call_per_row(case):
    seed, n, p, block = case
    rng, reference = random.Random(seed), random.Random(seed)
    with patch.object(synth, "BLOCK_ROWS", block):
        got = synth._draw(rng, n, [[synth._below(p)]])
    uniforms = [reference.random() for _ in range(n)]
    assert got == [rowwise_flags(uniforms, lambda u: u < p)]
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9])
def test_draw_across_block_boundaries(monkeypatch, n):
    monkeypatch.setattr(synth, "BLOCK_ROWS", 4)
    rng, reference = random.Random("boundary"), random.Random("boundary")
    ps = [0.1, 0.5, 0.9]
    got = synth._draw(rng, n, [[synth._below(p)] for p in ps])
    uniforms = [reference.random() for _ in range(n)]
    assert got == [rowwise_flags(uniforms, lambda u, p=p: u < p) for p in ps]
    assert rng.getstate() == reference.getstate()


@st.composite
def planted_pairs(draw):
    """Two marginals and a joint anywhere the Frechet bounds, with their
    1e-12 slack, allow: p_a + p_b - joint may pass 1, joint may pass p_a."""
    p_a, p_b = draw(st.floats(0, 1)), draw(st.floats(0, 1))
    lower, upper = max(0.0, p_a + p_b - 1.0), min(p_a, p_b)
    joint = draw(st.one_of(st.floats(min(lower, upper), max(lower, upper)),
                           st.sampled_from([lower, upper, lower - 1e-12, upper + 1e-12])))
    return p_a, p_b, joint


@given(st.integers(0, 2**64), st.integers(0, 300), planted_pairs())
@example(0, 50, (0.7, 0.3, 0.0))  # p_a + p_b - joint is 1
@example(0, 50, (0.7, 0.3, -1e-12))  # joint below 0, p_a + p_b - joint above 1
@example(0, 50, (0.5, 0.5, 0.5 + 1e-12))  # joint above p_a
@example(0, 50, (1 / 256, 5 / 256, 1 / 512))
def test_planted_pair_is_the_rowwise_cut(seed, n, pair):
    p_a, p_b, joint = pair
    spec = CohortSpec(n=n, marginals={"a": p_a, "b": p_b}, planted_pairs=[("a", "b", joint)],
                      seed=seed)
    rng = random.Random(f"{seed}/pair:a+b")
    uniforms = [rng.random() for _ in range(n)]
    expected = [
        rowwise_flags(uniforms, lambda u: u < joint or u < p_a),
        rowwise_flags(uniforms, lambda u: u < joint or p_a <= u < p_a + p_b - joint),
    ]
    assert generate_cohort(spec).covers == expected


def stdlib_ages(rng, age_weights, n):
    """The age draws as ``random.choices`` and ``random.randint`` make them."""
    buckets = [bucket for bucket, _ in age_weights]
    cum_weights = list(accumulate(w for _, w in age_weights))
    ages = []
    for _ in range(n):
        lo, hi = AGE_BUCKETS[rng.choices(buckets, cum_weights=cum_weights)[0]]
        ages.append(rng.randint(lo, min(hi - 1, 100)))
    return ages


@st.composite
def age_weights(draw):
    """Some of the buckets in any order, weights summing to 1, zeros allowed."""
    buckets = draw(st.permutations(list(AGE_BUCKETS)))[: draw(st.integers(1, 4))]
    raw = draw(st.lists(st.floats(0, 1), min_size=len(buckets), max_size=len(buckets)))
    assume(sum(raw) > 0)
    weights = [(bucket, w / sum(raw)) for bucket, w in zip(buckets, raw)]
    assume(abs(sum(w for _, w in weights) - 1.0) <= 1e-9)
    return weights


@given(st.integers(0, 2**64), age_weights(), st.integers(0, 300))
def test_ages_are_the_stdlib_draws(seed, age_weights, n):
    spec = CohortSpec(n=n, marginals={}, age_weights=age_weights, seed=seed)
    expected = stdlib_ages(random.Random(f"{seed}/age"), age_weights, n)
    assert generate_cohort(spec).age == expected
