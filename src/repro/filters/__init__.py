"""Subscription language ``LF`` (Definitions 1-3 of the paper).

Filters are conjunctions of attribute constraints, the fragment the
paper's overlay nodes evaluate and weaken.  This package provides:

- :mod:`~repro.filters.operators` — the constraint operators (=, !=, <,
  <=, >, >=, exists, prefix, contains, and the ``ALL`` wildcard) together
  with a sound *implication* relation between constraints, the building
  block of filter covering (Definition 2), and the value rules every
  index keys and sorts operands by;
- :mod:`~repro.filters.constraints` — :class:`AttributeConstraint`;
- :mod:`~repro.filters.filter` — conjunctive :class:`Filter` with
  ``matches`` (Definition 1), ``covers`` (Definition 2) and the
  filter-relative event-covering check (Definition 3);
- :mod:`~repro.filters.standard` — the "standard subscription filter
  format" of Section 4.4 (wildcard completion, generality ordering);
- :mod:`~repro.filters.parser` — a small textual filter language;
- :mod:`~repro.filters.table` — the paper's naive Figure-6 filter table
  (the test oracle);
- :mod:`~repro.filters.index` — a counting-based matching index (an
  opt-in ablation);
- :mod:`~repro.filters.engine` — the shared :class:`MatchEngine`
  interface every engine implements (with the filter→destination table
  the indexed engines inherit), the engine name map and its default,
  plus :class:`CachedMatchEngine`, an opt-in fingerprint-keyed
  routing-decision cache;
- :mod:`~repro.filters.covering_index` — :class:`CoveringIndex`, a
  candidate-pruned subsumption structure the broker control plane uses
  to aggregate subscriptions along the covering relation;
- :mod:`~repro.filters.compiled` — :class:`CompiledMatchEngine`, the
  default engine: indexable conjunctive parts compiled into flat
  bitmap/bisect structures with residual predicates on survivors only.

Covering here is *sound but not complete*: ``f.covers(g)`` returning True
guarantees every event matching ``g`` matches ``f`` (what Proposition 1
needs); False may simply mean "could not prove it".
"""

from repro.filters.compiled import CompiledMatchEngine
from repro.filters.constraints import AttributeConstraint
from repro.filters.covering_index import CoveringIndex, filter_shape
from repro.filters.disjunction import Disjunction
from repro.filters.engine import CachedMatchEngine, MatchEngine, event_fingerprint
from repro.filters.filter import Filter, event_covers
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
    Operator,
    operator_by_symbol,
)
from repro.filters.parser import FilterParseError, parse_filter, render_filter
from repro.filters.standard import standardize
from repro.filters.table import FilterTable

__all__ = [
    "ALL",
    "AttributeConstraint",
    "CONTAINS",
    "CachedMatchEngine",
    "CompiledMatchEngine",
    "CountingIndex",
    "CoveringIndex",
    "filter_shape",
    "Disjunction",
    "EQ",
    "EXISTS",
    "Filter",
    "FilterParseError",
    "FilterTable",
    "GE",
    "MatchEngine",
    "event_fingerprint",
    "GT",
    "LE",
    "LT",
    "NE",
    "Operator",
    "PREFIX",
    "event_covers",
    "operator_by_symbol",
    "parse_filter",
    "render_filter",
    "standardize",
]
