"""The miner's bound on the itemsets one search records (``MAX_ITEMSETS``):
at a zero support the lattice's size is known and a larger one is refused
before counting; otherwise ``grow`` stops once it has recorded more. The CLI
reports either as one ``error:`` line and exit code 1."""

import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulemine import apriori
from rulemine.apriori import MiningConfig, mine_frequent
from rulemine.core import TransactionSet
from rulemine.errors import CapacityError

from conftest import transaction_sets

ROOT = Path(__file__).resolve().parent.parent
MESSAGE = "(limit {}): raise --min-support, lower --max-len or select fewer features"


def _refusal(ts, cfg):
    """The CapacityError ``mine_frequent`` raises and the function that raised it."""
    with pytest.raises(CapacityError) as exc:
        mine_frequent(ts, cfg)
    return str(exc.value), traceback.extract_tb(exc.tb)[-1].name


@settings(max_examples=100, deadline=None)
@given(st.data(), transaction_sets(max_items=7), st.sampled_from([None, 1, 2, 3]))
def test_zero_support_lattice_is_sized_before_counting(data, ts, max_len):
    # ids up to n_items - 1, so every target item is in the set and the search runs
    target = data.draw(st.none() | st.sets(st.integers(0, ts.n_items - 1), min_size=1,
                                           max_size=2).map(sorted))
    cfg = MiningConfig(min_support=0, max_len=max_len, target_consequent=target)
    size = len(mine_frequent(ts, cfg).counts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(apriori, "MAX_ITEMSETS", size)
        assert len(mine_frequent(ts, cfg).counts) == size
        if size:
            mp.setattr(apriori, "MAX_ITEMSETS", size - 1)
            message, where = _refusal(ts, cfg)
            assert message == f"mining refuses {size} frequent itemsets " + MESSAGE.format(
                size - 1)
            assert where == "mine_frequent"


def test_a_search_over_the_bound_stops_in_grow(monkeypatch):
    # every one of 6 items in every row but the last: at support 0.5 all 63
    # itemsets pass, and the zero-support size is never worked out
    ts = TransactionSet.from_transactions([set(range(6))] * 3 + [set()], item_ids=range(6))
    cfg = MiningConfig(min_support=0.5)
    monkeypatch.setattr(apriori, "MAX_ITEMSETS", 63)
    assert len(mine_frequent(ts, cfg).counts) == 63
    monkeypatch.setattr(apriori, "MAX_ITEMSETS", 62)
    message, where = _refusal(ts, cfg)
    assert message.startswith("mining refuses at least ")
    assert message.endswith(MESSAGE.format(62))
    assert where == "grow"


@pytest.mark.skipif(os.name != "posix", reason="caps the child with resource.setrlimit")
def test_32_items_at_zero_support_exit_at_once(tmp_path):
    import resource

    # 30 symptoms and Male/Female: 2^32 - 1 itemsets at --min-support 0
    symptoms = [f"s{j:02d}" for j in range(30)]
    rows = [f"{30 + r},{'MF'[r % 2]},recovered," + ",".join(
        str((r >> (j % 5)) & 1) for j in range(30)) for r in range(40)]
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join(["age,sex,outcome," + ",".join(symptoms), *rows]) + "\n")

    def cap():
        # a regression then fails here instead of taking the machine's memory,
        # and a child that counts for a second of CPU is killed
        resource.setrlimit(resource.RLIMIT_AS, (700 << 20, 700 << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (1, 1))

    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "rulemine", "mine", "--input", str(path), "--no-select",
         "--derive-sex", "--min-support", "0", "--min-lift", "0"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        preexec_fn=cap, timeout=60)
    elapsed = time.perf_counter() - start
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == (f"error: mining refuses {2**32 - 1} frequent itemsets "
                            + MESSAGE.format(apriori.MAX_ITEMSETS) + "\n")
    assert elapsed < 5
