"""The option surface is one object: ``BrokerConfig``.

Pinned here: the facade's keyword signature (sixteen names since
``trace`` went after ``reliable``), that its broker options are exactly
the config's fields, that nothing downstream keeps per-option copies or
builds its own reliable channel or a second recorder or a second match
path, and that the object crosses the spawn boundary.
"""

import dataclasses
import inspect
import pathlib
import pickle
import re

import pytest

import repro
import repro.runtime.multiprocess_backend as multiprocess_backend
from repro.baselines.centralized import CentralizedSystem, CentralServer
from repro.core.engine import MultiStageEventSystem
from repro.experiments.chaos import ChaosConfig
from repro.experiments.common import ScenarioConfig
from repro.filters.compiled import CompiledMatchEngine
from repro.filters.engine import (
    DEFAULT_ENGINE,
    CachedMatchEngine,
    engine_classes,
    make_engine,
)
from repro.filters.filter import Filter
from repro.filters.index import CountingIndex
from repro.filters.table import FilterTable
from repro.flow import FlowConfig
from repro.log.config import LogConfig
from repro.metrics.counters import CacheStats
from repro.overlay.config import BrokerConfig
from repro.overlay.hierarchy import build_hierarchy
from repro.overlay.node import BrokerNode
from repro.overlay.subscriber import SubscriberRuntime
from repro.runtime.asyncio_backend import AsyncioRuntime, TcpTransport
from repro.runtime.multiprocess_backend import SystemSpec
from repro.streams.registrar import FlowRegistrar

#: What shapes the deployment rather than a broker.
DEPLOYMENT = {"stage_sizes", "seed", "link_latency", "tracing", "runtime"}
#: Config fields the facade does not expose (constants of every caller).
INTERNAL = {"expiry_factor"}

CONFIG_FIELDS = {field.name for field in dataclasses.fields(BrokerConfig)}


def parameters(callable_):
    return [name for name in inspect.signature(callable_).parameters if name != "self"]


def test_facade_signature_is_fifteen_names():
    assert parameters(MultiStageEventSystem.__init__) == [
        "stage_sizes", "ttl", "seed", "engine", "link_latency",
        "wildcard_routing", "compact", "cache", "aggregate",
        "tracing", "flow", "service_rate", "service_batch", "log", "runtime",
    ]  # fmt: skip


def source_files():
    root = pathlib.Path(repro.__file__).parent
    return {
        str(path.relative_to(root)): path.read_text()
        for path in sorted(root.rglob("*.py"))
    }


def test_there_is_one_recorder():
    """``TraceRecorder``/``trace=`` retired into the ``EventTracer``."""
    sources = source_files()
    assert "sim/trace.py" not in sources
    assert [name for name, text in sources.items() if "TraceRecord" in text] == []
    for built in (MultiStageEventSystem, BrokerNode, SubscriberRuntime, build_hierarchy):
        assert "trace" not in parameters(built)


def test_a_broker_has_one_match_path():
    """``_process_batch`` calls ``match_batch`` and nothing else on the
    engine, so a traced run executes what an untraced run executes."""
    node_source = source_files()["overlay/node.py"]
    assert not re.search(r"\.match\(", node_source)
    assert node_source.count(".match_batch(") == 1
    for name in ("native_batch", "use_batch"):
        assert name not in node_source


def test_the_gap_grant_is_not_an_option():
    fields = [field.name for field in dataclasses.fields(FlowConfig)]
    assert "gap_grant" not in fields and len(fields) == 9


def test_options_nothing_set_are_constants():
    """``auto_recover``, ``recovery_delay``, ``overload_capacity_factor``
    and ``offline_buffer_limit`` had no caller: five log values, nine
    flow values, eleven broker values."""
    log = [field.name for field in dataclasses.fields(LogConfig)]
    flow = [field.name for field in dataclasses.fields(FlowConfig)]
    assert len(log) == 5 and len(flow) == 9 and len(CONFIG_FIELDS) == 11
    for name in ("auto_recover", "recovery_delay"):
        assert name not in log
    assert "overload_capacity_factor" not in flow
    assert "offline_buffer_limit" not in CONFIG_FIELDS


def test_facade_broker_options_are_the_config_fields():
    facade = set(parameters(MultiStageEventSystem.__init__))
    assert facade - DEPLOYMENT == CONFIG_FIELDS - INTERNAL
    assert len(CONFIG_FIELDS - INTERNAL) == 10
    assert "reliable" not in CONFIG_FIELDS and "batch" not in CONFIG_FIELDS


@pytest.mark.parametrize(
    "configurable",
    [MultiStageEventSystem, BrokerConfig, SubscriberRuntime, FlowRegistrar, ChaosConfig],
)
def test_the_control_channel_is_not_an_option(configurable):
    """``reliable=`` went with the raw twin of every control send."""
    assert "reliable" not in parameters(configurable.__init__)


def test_only_the_channel_module_builds_senders_and_receivers():
    """Every process reaches its links through ``PeerLinks``."""
    builders = [
        name
        for name, text in source_files().items()
        if re.search(r"Reliable(Sender|Receiver)\(", text)
    ]
    assert builders == ["overlay/channel.py"]


def test_facade_and_config_defaults_agree():
    signature = inspect.signature(MultiStageEventSystem.__init__)
    for field in dataclasses.fields(BrokerConfig):
        if field.name not in INTERNAL:
            assert signature.parameters[field.name].default == field.default


def test_scenario_and_baseline_defaults_agree_with_the_config():
    """The experiment runner forwards these to the facade and the
    comparison experiment hands ``engine`` to the centralized baseline:
    a default of their own would be a second opinion."""
    scenario = {field.name: field.default for field in dataclasses.fields(ScenarioConfig)}
    forwarded = (CONFIG_FIELDS - INTERNAL) & set(scenario)
    assert {"engine", "cache", "aggregate", "compact"} <= forwarded
    for name in forwarded:
        assert scenario[name] == getattr(BrokerConfig, name), name
    for baseline in (CentralServer, CentralizedSystem):
        default = inspect.signature(baseline.__init__).parameters["engine"].default
        assert default == BrokerConfig.engine == DEFAULT_ENGINE


def test_the_default_is_the_compiled_engine_without_the_cache():
    system = MultiStageEventSystem(stage_sizes=(2, 1))
    config = system.broker_config
    assert config.engine == "compiled" and config.cache is False
    assert config == BrokerConfig()
    for node in system.hierarchy.nodes():
        assert type(node.table) is CompiledMatchEngine
        assert node._match_engine() is node.table


def test_a_multiprocess_worker_builds_the_default_engine_bare(monkeypatch):
    """What the facade sends across the spawn boundary is all a worker
    builds its broker from: take the spec off a launch and build the
    worker's slice of the tree from it, as ``_BrokerWorker._main`` does."""
    launched = []

    def launch(runtime, network, spec):
        launched.append(pickle.loads(pickle.dumps(spec)))
        raise RuntimeError("spec taken")

    monkeypatch.setattr(multiprocess_backend.MultiprocessRuntime, "launch", launch)
    with pytest.raises(RuntimeError, match="spec taken"):
        MultiStageEventSystem(stage_sizes=(2, 1), runtime="multiprocess")
    (spec,) = launched
    worker = multiprocess_backend._BrokerWorker(
        multiprocess_backend.WorkerSpec("N1.2", 1, spec, control_port=0)
    )
    worker.runtime = AsyncioRuntime()
    try:
        worker.transport = TcpTransport(worker.runtime, host=spec.host)
        worker._build_tree()
        assert worker.node.config == BrokerConfig()
        assert type(worker.node.table) is CompiledMatchEngine
        assert worker.node._match_engine() is worker.node.table
    finally:
        if worker.transport is not None:
            worker.transport.close()
        worker.runtime.close()


def test_nothing_downstream_spells_the_options_out_again():
    spec_fields = {field.name for field in dataclasses.fields(SystemSpec)}
    assert spec_fields == {"stage_sizes", "seed", "broker", "link_latency", "host"}
    for builder in (build_hierarchy, BrokerNode.__init__):
        names = set(parameters(builder))
        assert "config" in names
        assert not names & CONFIG_FIELDS


def test_every_broker_of_a_system_shares_the_one_config_object():
    system = MultiStageEventSystem(stage_sizes=(2, 1), compact=True, ttl=5.0)
    assert system.broker_config == BrokerConfig(compact=True, ttl=5.0)
    assert all(n.config is system.broker_config for n in system.hierarchy.nodes())


def test_config_pickles_with_its_nested_configs():
    config = BrokerConfig(
        engine="compiled",
        flow=FlowConfig(link_window=5, policy="drop_oldest"),
        service_rate=100.0,
        log=LogConfig(directory="/tmp/segments", segment_size=8),
    )
    assert pickle.loads(pickle.dumps(config)) == config
    spec = SystemSpec(stage_sizes=(2, 1), seed=3, broker=config)
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        BrokerConfig().aggregate = False


@pytest.mark.parametrize(
    "options, message",
    [
        (dict(engine="trie"), "engine must be"),
        (dict(service_rate=0.0), "service_rate must be positive"),
        (dict(service_batch=0), "service_batch must be >= 1"),
        (dict(ttl=0.0), "TTL must be positive"),
        (dict(expiry_factor=0.5), "expiry factor must be >= 1"),
        # NaN fails ``<= 0`` and ``< 1`` alike: a bound written that way
        # let a NaN TTL fail only at start_maintenance, and a NaN service
        # rate run the broker infinitely fast.
        (dict(ttl=float("nan")), "TTL must be positive"),
        (dict(expiry_factor=float("nan")), "expiry factor must be >= 1"),
        (dict(service_rate=float("nan")), "service_rate must be positive"),
        (dict(service_batch=float("nan")), "service_batch must be >= 1"),
        (dict(service_batch=2.5), "service_batch must be >= 1"),
    ],
)
def test_config_validates_in_post_init(options, message):
    with pytest.raises(ValueError, match=message):
        BrokerConfig(**options)


@pytest.mark.parametrize(
    "options, message",
    [
        (dict(segment_size=0), "segment_size must be >= 1"),
        (dict(segment_size=float("nan")), "segment_size must be >= 1"),
        (dict(replay_rate=0.0), "replay_rate must be positive"),
        (dict(replay_rate=float("nan")), "replay_rate must be positive"),
        (dict(replay_batch=2.5), "replay_batch must be >= 1"),
        (dict(recovery_rewind=-1), "recovery_rewind must be >= 0"),
        (dict(recovery_rewind=float("nan")), "recovery_rewind must be >= 0"),
    ],
)
def test_log_config_validates_in_post_init(options, message):
    with pytest.raises(ValueError, match=message):
        LogConfig(**options)


def test_managed_means_flow_or_service_rate():
    assert not BrokerConfig().managed
    assert not BrokerConfig(log=LogConfig()).managed
    assert BrokerConfig(flow=FlowConfig()).managed
    assert BrokerConfig(service_rate=10.0).managed


# -- the engine map and the engine protocol ------------------------------


def test_one_engine_map_builds_every_engine():
    assert engine_classes() == {
        "index": CountingIndex,
        "table": FilterTable,
        "compiled": CompiledMatchEngine,
    }
    assert DEFAULT_ENGINE in engine_classes()
    # One message, built from the map, for every way in.
    message = "engine must be one of 'index', 'table', 'compiled', got 'trie'"
    for build in (make_engine, lambda name: BrokerConfig(engine=name)):
        with pytest.raises(ValueError, match=message):
            build("trie")
    for name, cls in engine_classes().items():
        assert type(make_engine(name)) is cls
        stats = CacheStats()
        cached = make_engine(name, cache=True, stats=stats)
        assert isinstance(cached, CachedMatchEngine)
        assert type(cached.inner) is cls and cached.stats is stats


@pytest.mark.parametrize("name", sorted(engine_classes()))
def test_engine_protocol_needs_no_probing(name):
    """Counters read the same through the cache wrapper as off the
    engine itself."""
    raw = make_engine(name)
    cached = make_engine(name, cache=True)
    assert raw.cached_decisions() == 0
    for engine in (raw, cached):
        engine.insert(Filter.top(), "d")
        engine.match_batch([{"x": 1}, {"x": 1}])
        assert engine.residual_evaluations == 0
        assert engine.rebuilds >= 0
    assert cached.rebuilds == cached.inner.rebuilds
    assert cached.cached_decisions() == 1
