"""Unit tests for the compiled bitmap matching engine.

The differential state machine (``test_differential.py``) holds
:class:`CompiledMatchEngine` to the FilterTable oracle under random
mutation interleavings; the tests here pin down the engine-specific
machinery that a black-box differential can't see — dirty-attribute
recompile granularity, slot recycling, residual-tier classification,
the batch entry point, and the range tiers' awkward values across block
edges.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.filters.compiled import _BLOCK, CompiledMatchEngine
from repro.filters.constraints import AttributeConstraint
from repro.filters.engine import CachedMatchEngine
from repro.filters.filter import Filter
from repro.filters.index import CountingIndex
from repro.filters.operators import (
    ALL,
    CONTAINS,
    EQ,
    EXISTS,
    GE,
    GT,
    LE,
    LT,
    NE,
    PREFIX,
)
from repro.filters.table import FilterTable


def eq(attr, operand):
    return Filter([AttributeConstraint(attr, EQ, operand)])


def build(pairs):
    engine = CompiledMatchEngine()
    for filter_, destination in pairs:
        engine.insert(filter_, destination)
    return engine


class TestMatchingBasics:
    def test_equality_buckets(self):
        engine = build([(eq("symbol", "Foo"), "d1"), (eq("symbol", "Bar"), "d2")])
        assert engine.match({"symbol": "Foo"}) == [
            (eq("symbol", "Foo"), ("d1",))
        ]
        assert engine.match({"symbol": "Baz"}) == []
        assert engine.match({}) == []

    def test_bool_and_number_probes_are_distinct(self):
        # Note dataclass equality collapses eq(True) and eq(1) into ONE
        # stored filter (True == 1), identically to every other engine;
        # what must stay distinct is the *probe* side of the bucket.
        engine = build([(eq("flag", True), "d1"), (eq("flag", 2), "d2")])
        index = CountingIndex()
        index.insert(eq("flag", True), "d1")
        index.insert(eq("flag", 2), "d2")
        for probe in (True, False, 1, 1.0, 2, 2.0):
            assert engine.match({"flag": probe}) == index.match({"flag": probe})
        assert engine.match({"flag": True}) == [(eq("flag", True), ("d1",))]
        assert engine.match({"flag": 2.0}) == [(eq("flag", 2), ("d2",))]
        assert engine.match({"flag": 1}) == []

    def test_conjunction_requires_every_attribute(self):
        filter_ = Filter(
            [
                AttributeConstraint("class", EQ, "Stock"),
                AttributeConstraint("price", LT, 10.0),
            ]
        )
        engine = build([(filter_, "d1")])
        assert engine.match({"class": "Stock", "price": 5.0}) == [
            (filter_, ("d1",))
        ]
        assert engine.match({"class": "Stock", "price": 15.0}) == []
        assert engine.match({"class": "Stock"}) == []  # absence fails LT
        assert engine.match({"price": 5.0}) == []

    def test_wildcard_only_filters_always_match(self):
        top = Filter.top()
        wildcards = Filter([AttributeConstraint("a", ALL)])
        engine = build([(top, "d1"), (wildcards, "d2")])
        assert engine.match({}) == [(top, ("d1",)), (wildcards, ("d2",))]
        assert engine.match({"x": 3}) == [(top, ("d1",)), (wildcards, ("d2",))]

    def test_rejects_bottom(self):
        engine = CompiledMatchEngine()
        with pytest.raises(ValueError):
            engine.insert(Filter.bottom(), "d1")

    def test_insertion_order_preserved(self):
        filters = [eq("a", value) for value in range(5)]
        engine = build([(f, "d") for f in filters])
        exists = Filter([AttributeConstraint("a", EXISTS)])
        engine.insert(exists, "d")
        matched = [f for f, _ in engine.match({"a": 3})]
        assert matched == [eq("a", 3), exists]

    def test_residual_operators_evaluated_on_survivors(self):
        residual = Filter(
            [
                AttributeConstraint("class", EQ, "Stock"),
                AttributeConstraint("note", PREFIX, "ur"),
            ]
        )
        engine = build([(residual, "d1")])
        assert engine.residual_evaluations == 0
        assert engine.match({"class": "Stock", "note": "urgent"}) == [
            (residual, ("d1",))
        ]
        assert engine.residual_evaluations == 1
        # The indexed tier kills the candidate before the residual runs.
        assert engine.match({"class": "Bond", "note": "urgent"}) == []
        assert engine.residual_evaluations == 1

    def test_multi_constraint_group_goes_residual(self):
        interval = Filter(
            [
                AttributeConstraint("price", GT, 5.0),
                AttributeConstraint("price", LT, 10.0),
            ]
        )
        engine = build([(interval, "d1")])
        assert engine.match({"price": 7.0}) == [(interval, ("d1",))]
        assert engine.match({"price": 12.0}) == []
        assert engine.match({"price": 3.0}) == []
        assert engine.residual_evaluations > 0

    def test_ne_and_contains_go_residual(self):
        table = [
            (Filter([AttributeConstraint("a", NE, 3)]), "d1"),
            (Filter([AttributeConstraint("a", CONTAINS, "x")]), "d2"),
            (Filter([AttributeConstraint("a", EQ, (1, 2))]), "d3"),
        ]
        engine = build(table)
        assert engine.match({"a": 4}) == [(table[0][0], ("d1",))]
        assert engine.match({"a": "axe"}) == [
            (table[0][0], ("d1",)),
            (table[1][0], ("d2",)),
        ]
        # Unhashable probe values miss every equality bucket but still
        # reach the residual tier and the tuple-operand bucket is exact.
        assert engine.match({"a": [1, 2]}) == [(table[0][0], ("d1",))]
        assert engine.match({"a": (1, 2)}) == [
            (table[0][0], ("d1",)),
            (table[2][0], ("d3",)),
        ]

    def test_range_families_do_not_mix(self):
        num = Filter([AttributeConstraint("a", LT, 10)])
        text = Filter([AttributeConstraint("a", LT, "m")])
        engine = build([(num, "d1"), (text, "d2")])
        assert engine.match({"a": 5}) == [(num, ("d1",))]
        assert engine.match({"a": "k"}) == [(text, ("d2",))]
        assert engine.match({"a": True}) == []  # bools join neither family


class TestRangeTier:
    @pytest.mark.parametrize("op", [LT, LE, GT, GE])
    def test_boundary_semantics_match_counting_index(self, op):
        operands = [1, 2, 2, 3, 5.5, 8, 13, 21]
        table = [
            (Filter([AttributeConstraint("v", op, operand)]), f"d{position}")
            for position, operand in enumerate(operands)
        ]
        compiled = build(table)
        index = CountingIndex()
        for filter_, destination in table:
            index.insert(filter_, destination)
        probes = [0, 1, 2, 2.5, 3, 5.5, 8.0, 21, 22, -1, 2.0]
        for probe in probes:
            assert compiled.match({"v": probe}) == index.match({"v": probe})

    def test_block_cumulative_covers_partial_blocks(self):
        # Enough operands to span several blocks, probed at every rank so
        # each partial-block assembly path is exercised at least once.
        count = _BLOCK * 3 + 7
        table = [
            (Filter([AttributeConstraint("v", GE, position)]), f"d{position}")
            for position in range(count)
        ]
        compiled = build(table)
        index = CountingIndex()
        for filter_, destination in table:
            index.insert(filter_, destination)
        for probe in range(-1, count + 1):
            assert compiled.match({"v": probe}) == index.match({"v": probe})


class TestIncrementalRecompile:
    def test_rebuilds_only_dirty_attributes(self):
        engine = build(
            [(eq("a", value), "d") for value in range(10)]
            + [(eq("b", value), "d") for value in range(10)]
        )
        engine.match({"a": 1})
        baseline = engine.rebuilds
        assert baseline == 2  # one per attribute on first compile
        engine.insert(eq("a", 99), "d")
        engine.match({"a": 99})
        assert engine.rebuilds == baseline + 1  # only "a" recompiled
        engine.match({"b": 3})
        assert engine.rebuilds == baseline + 1  # "b" untouched, no rebuild

    def test_removal_marks_dirty(self):
        engine = build([(eq("a", 1), "d1"), (eq("a", 2), "d2")])
        assert engine.match({"a": 1}) == [(eq("a", 1), ("d1",))]
        before = engine.rebuilds
        assert engine.remove(eq("a", 1), "d1")
        assert engine.match({"a": 1}) == []
        assert engine.rebuilds == before + 1

    def test_slot_recycling_keeps_results_correct(self):
        engine = CompiledMatchEngine()
        rng = random.Random(5)
        index = CountingIndex()
        live = []
        for step in range(400):
            if rng.random() < 0.6 or not live:
                filter_ = eq("a", rng.randrange(8))
                destination = f"d{rng.randrange(4)}"
                engine.insert(filter_, destination)
                index.insert(filter_, destination)
                live.append((filter_, destination))
            else:
                filter_, destination = live.pop(rng.randrange(len(live)))
                assert engine.remove(filter_, destination) == index.remove(
                    filter_, destination
                )
            probe = {"a": rng.randrange(8)}
            assert engine.match(probe) == index.match(probe)
        assert len(engine) == len(index)

    def test_remove_destination_mirrors_counting_index(self):
        table = [
            (eq("a", 1), "d1"),
            (eq("a", 1), "d2"),
            (eq("b", 2), "d1"),
            (Filter([AttributeConstraint("c", PREFIX, "x")]), "d1"),
        ]
        engine = build(table)
        index = CountingIndex()
        for filter_, destination in table:
            index.insert(filter_, destination)
        assert engine.remove_destination("d1") == index.remove_destination("d1")
        assert engine.remove_destination("d1") == 0
        for probe in ({"a": 1}, {"b": 2}, {"c": "xy"}):
            assert engine.match(probe) == index.match(probe)


class TestBatch:
    def test_match_batch_equals_sequential(self):
        rng = random.Random(9)
        engine = build(
            [(eq("a", value % 7), f"d{value % 3}") for value in range(50)]
        )
        events = [{"a": rng.randrange(9)} for _ in range(30)]
        assert engine.match_batch(events) == [
            engine.match(event) for event in events
        ]

    def test_match_batch_on_empty_engine(self):
        engine = CompiledMatchEngine()
        assert engine.match_batch([{"a": 1}, {}]) == [[], []]

    def test_cached_wrapper_batch_preserves_memo_accounting(self):
        inner = CompiledMatchEngine()
        cached = CachedMatchEngine(inner)
        for value in range(20):
            cached.insert(eq("a", value), "d")
        events = [{"a": 1}, {"a": 2}, {"a": 1}, {"a": 3}, {"a": 1}]
        first = cached.match_batch(events)
        # Sequential semantics: 3 distinct fingerprints miss, repeats hit.
        assert cached.stats.misses == 3
        assert cached.stats.hits == 2
        second = cached.match_batch(events)
        assert second == first
        assert cached.stats.misses == 3
        assert cached.stats.hits == 7

    def test_batch_amortizes_recompile(self):
        engine = build([(eq("a", value), "d") for value in range(100)])
        events = [{"a": value % 100} for value in range(50)]
        engine.match_batch(events)
        assert engine.rebuilds == 1  # one compile for the whole run


class TestRangeTierEdges:
    """The values a sorted range tier finds awkward, across block edges.

    A tier of ``_BLOCK`` or more operands answers from its cumulative
    block bitmaps plus a partial block, so the table here spans eight
    blocks and the probes land in prefix and suffix blocks alike.
    """

    @staticmethod
    def engine_and_oracle(table):
        subjects = (CompiledMatchEngine(), FilterTable())
        for filter_, destination in table:
            for subject in subjects:
                subject.insert(filter_, destination)
        return subjects

    @staticmethod
    def assert_matches_oracle(engine, oracle, events):
        expected = [oracle.match(event) for event in events]
        assert engine.match_batch(events) == expected
        for event, matches in zip(events, expected):
            assert engine.match_batch([event]) == [matches]
            assert engine.match(event) == matches
        return expected

    def test_block_crossing_probes_match_the_oracle(self):
        rng = random.Random(21)
        operators = [LT, LE, GT, GE, EQ]
        table = []
        for position in range(8 * _BLOCK):
            op = operators[position % len(operators)]
            operand = rng.choice(
                [rng.randrange(100), round(rng.uniform(0, 100), 3)]
            )
            table.append(
                (Filter([AttributeConstraint("v", op, operand)]), f"d{position}")
            )
        engine, oracle = self.engine_and_oracle(table)
        assert all(
            len(tier.operands) > _BLOCK
            for tier in engine._attributes["v"].tiers.values()
        )
        events = [
            {"v": rng.choice([rng.randrange(110), round(rng.uniform(0, 110), 3)])}
            for _ in range(60)
        ] + [
            {"v": probe}
            for probe in (
                "str-probe", True, float("nan"), float("inf"), float("-inf"),
                -0.0, 2**63 + 1,
            )
        ] + [{}]  # fmt: skip
        expected = self.assert_matches_oracle(engine, oracle, events)
        assert any(expected) and not expected[62]  # the NaN probe

    def test_operands_past_float_precision_match_the_oracle(self):
        huge = 2**63 + 1  # not exactly representable as float64
        table = [
            (Filter([AttributeConstraint("v", GE, huge + offset)]), f"d{offset}")
            for offset in range(_BLOCK + 4)
        ]
        engine, oracle = self.engine_and_oracle(table)
        events = [{"v": huge + offset} for offset in range(-1, _BLOCK + 5)]
        expected = self.assert_matches_oracle(engine, oracle, events)
        # Each step of one past 2**63 adds exactly one matched filter.
        assert [len(matches) for matches in expected] == list(range(_BLOCK + 5)) + [
            _BLOCK + 4
        ]


def test_repro_does_not_import_numpy():
    """The engine and every runtime module load without numpy."""
    code = (
        "import sys\n"
        "import repro.core.engine, repro.runtime.multiprocess_backend\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_evaluations_counter_moves():
    engine = build([(eq("a", 1), "d")])
    before = engine.evaluations
    engine.match({"a": 1})
    assert engine.evaluations > before


def test_repr_mentions_population():
    engine = build([(eq("a", 1), "d")])
    assert "1 filters" in repr(engine)
