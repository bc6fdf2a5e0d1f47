"""Observability layer: metrics registry, trace recorder, instrumentation.

Everything here is marked ``obs``.  The suite covers the registry and
recorder as plain data structures (also traced on several threads),
the posting-path instrumentation end-to-end (spans, mask evaluations,
firing order), the per-transaction metrics delta, the ``repro.tools
trace`` CLI, and the :class:`EventOccurrence` immutability regression
that motivated ``FrozenKwargs``.
"""

import dataclasses
import re
import sys
import threading

import pytest

from repro import obs, tools
from repro.core.declarations import trigger
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.core.posting import EMPTY_KWARGS, EventOccurrence, FrozenKwargs
from repro.objects.database import Database
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, describe
from repro.obs.trace import (
    TraceRecord,
    TraceRecorder,
    load_jsonl,
    records_from_jsonl,
    records_to_jsonl,
    render_record,
    render_trace,
    summarize_trace,
)
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.workloads.credit_card import CreditCardWorkload

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _tracing_off():
    """Never leak an enabled recorder between tests."""
    yield
    obs.disable()


class ObsGadget(Persistent):
    n = field(int, default=0)
    limit = field(int, default=2)

    __events__ = ["after bump", "after poke"]
    __masks__ = {
        "over": lambda self: self.n > self.limit,
        "small": lambda self: self.n <= self.limit,
    }
    __triggers__ = [
        trigger("WatchAll", "after bump", action=lambda s, c: None, perpetual=True),
        trigger("WatchOver", "after bump & over", action=lambda s, c: None, perpetual=True),
        # `*(e) & m` leaves a mask obligation on the FSM start state, so
        # activating this trigger evaluates `small` immediately.
        trigger("StarMask", "(*(after bump) & small, after poke)", action=lambda s, c: None),
    ]

    def bump(self):
        self.n += 1

    def poke(self):
        pass


# -- MetricsRegistry -----------------------------------------------------------


@dataclasses.dataclass
class _FakeStats:
    hits: int = 0
    misses: int = 0

    def snapshot(self):
        return dataclasses.asdict(self)

    def reset(self):
        self.hits = self.misses = 0


class TestMetricsRegistry:
    def test_counter_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.counter("a.b").inc(4)
        assert registry.snapshot() == {"a.b": 5}
        assert int(registry.counter("a.b")) == 5

    def test_histogram_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for v in (1, 2, 3, 10):
            hist.observe(v)
        snap = registry.snapshot()["lat"]
        assert snap["count"] == 4
        assert snap["min"] == 1
        assert snap["max"] == 10
        assert snap["mean"] == pytest.approx(4.0)

    def test_source_mounted_under_prefix(self):
        registry = MetricsRegistry()
        stats = _FakeStats()
        registry.register_source("cache", stats)
        stats.hits += 3
        assert registry.snapshot() == {"cache.hits": 3, "cache.misses": 0}

    def test_reregistering_prefix_replaces(self):
        registry = MetricsRegistry()
        old, new = _FakeStats(hits=7), _FakeStats()
        registry.register_source("cache", old)
        registry.register_source("cache", new)
        assert registry.snapshot()["cache.hits"] == 0

    def test_diff_and_delta_since(self):
        registry = MetricsRegistry()
        stats = _FakeStats()
        registry.register_source("cache", stats)
        registry.counter("ops")
        before = registry.snapshot()
        stats.hits += 2
        registry.counter("ops").inc(9)
        delta = registry.delta_since(before)
        assert delta["cache.hits"] == 2
        assert delta["ops"] == 9
        assert MetricsRegistry.diff(before, before) == {
            "cache.hits": 0,
            "cache.misses": 0,
            "ops": 0,
        }

    def test_diff_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(10)
        before = registry.snapshot()
        registry.histogram("h").observe(30)
        delta = registry.delta_since(before)["h"]
        assert delta["count"] == 1
        assert delta["mean"] == pytest.approx(30.0)

    def test_measure_context(self):
        registry = MetricsRegistry()
        with registry.measure() as delta:
            registry.counter("x").inc(2)
        assert delta["x"] == 2

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        stats = _FakeStats(hits=5)
        registry.register_source("cache", stats)
        registry.counter("c").inc()
        registry.histogram("h").observe(1)
        registry.reset()
        snap = registry.snapshot()
        assert snap["cache.hits"] == 0
        assert snap["c"] == 0
        assert snap["h"]["count"] == 0

    def test_describe_renders_sorted_lines(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.histogram("h").observe(4)
        lines = describe(registry.snapshot())
        assert lines[0] == "a = 1"
        assert lines[1] == "b = 2"
        assert lines[2].startswith("h = {count=1")


# -- TraceRecorder -------------------------------------------------------------


class TestTraceRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        recorder = TraceRecorder(capacity=3)
        for i in range(5):
            recorder.emit("tick", i=i)
        assert len(recorder) == 3
        assert [r.get("i") for r in recorder.records()] == [2, 3, 4]
        assert recorder.stats.records_dropped == 2
        assert recorder.stats.records_emitted == 5

    def test_seq_keeps_counting_past_drops(self):
        recorder = TraceRecorder(capacity=2)
        for _ in range(4):
            recorder.emit("tick")
        assert [r.seq for r in recorder.records()] == [3, 4]

    def test_threads_get_unique_seqs_and_spans_and_exact_counts(self):
        """Sessions trace on several threads: no ``seq`` or span id is
        handed out twice, and the recorder's own counts are exact."""
        threads, per_thread, capacity = 4, 20_000, 79_000
        recorder = TraceRecorder(capacity=capacity)
        spans: list[list[int]] = [[] for _ in range(threads)]

        def work(mine):
            for i in range(per_thread):
                if i % 8:
                    recorder.emit("x")
                else:
                    mine.append(recorder.begin_span("post"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as CPython can
        try:
            workers = [threading.Thread(target=work, args=(spans[t],)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = threads * per_thread
        seqs = [r.seq for r in recorder.records()]
        assert len(seqs) == len(set(seqs)) == capacity
        assert sorted(seqs) == list(range(total - capacity + 1, total + 1))
        opened = [span for mine in spans for span in mine]
        assert sorted(opened) == list(range(1, total // 8 + 1))
        assert recorder.stats.records_emitted == total
        assert recorder.stats.records_dropped == total - capacity
        assert recorder.stats.spans_opened == total // 8

    def test_jsonl_round_trip_is_identity(self):
        recorder = TraceRecorder()
        recorder.emit("a", x=1, y="s", z=[1, 2], w={"k": True}, n=None)
        span = recorder.begin_span("post", rid=7)
        recorder.emit("mask.eval", span=span, outcome=False)
        recorder.end_span(span, "post", firings=0)
        text = recorder.to_jsonl()
        assert records_from_jsonl(text) == recorder.records()

    def test_non_json_values_coerced_at_emit(self):
        recorder = TraceRecorder()

        class Opaque:
            def __repr__(self):
                return "<opaque>"

        recorder.emit("a", obj=Opaque(), t=(1, 2))
        record = recorder.records()[0]
        assert record.get("obj") == "<opaque>"
        assert record.get("t") == [1, 2]  # tuples normalize to lists
        assert records_from_jsonl(recorder.to_jsonl()) == recorder.records()

    def test_export(self, tmp_path):
        recorder = TraceRecorder()
        recorder.emit("a", x=1)
        path = str(tmp_path / "t.jsonl")
        assert recorder.export(path) == 1
        from repro.obs.trace import load_jsonl

        assert load_jsonl(path) == recorder.records()

    def test_render_trace_indents_spans_and_numbers_fires(self):
        recorder = TraceRecorder()
        span = recorder.begin_span("post", rid=1)
        recorder.emit("fire", span=span, trigger="A")
        recorder.emit("fire", span=span, trigger="B")
        recorder.end_span(span, "post", firings=2)
        recorder.emit("txn.commit", txid=9)
        lines = render_trace(recorder.records())
        assert lines[0].lstrip().startswith("[")
        assert "post span=1" in lines[0]
        assert lines[1].startswith("    ") and "fire #1" in lines[1]
        assert lines[2].startswith("    ") and "fire #2" in lines[2]
        assert "end post" in lines[3]
        assert lines[4].lstrip().startswith("[") and "txn.commit" in lines[4]

    def test_summarize_and_render_record(self):
        recorder = TraceRecorder()
        recorder.emit("a")
        recorder.emit("a")
        recorder.emit("b", k=1)
        assert summarize_trace(recorder.records()) == {"a": 2, "b": 1}
        assert "b k=1" in render_record(recorder.records()[-1])


# -- module-level gate ---------------------------------------------------------


class TestObsGate:
    def test_disabled_by_default_and_emit_is_noop(self):
        assert obs.ENABLED is False
        obs.emit("nothing", x=1)  # must not raise without a recorder
        assert obs.begin_span("post") == obs.NO_SPAN
        obs.end_span(obs.NO_SPAN, "post")

    def test_enable_disable_round_trip(self):
        recorder = obs.enable(capacity=16)
        assert obs.ENABLED and obs.recorder() is recorder
        obs.emit("x")
        returned = obs.disable()
        assert returned is recorder
        assert not obs.ENABLED and obs.recorder() is None
        assert len(recorder) == 1

    def test_enabled_context(self):
        with obs.enabled() as recorder:
            assert obs.ENABLED
            obs.emit("y")
        assert not obs.ENABLED
        assert [r.kind for r in recorder.records()] == ["y"]


# -- posting-path integration ---------------------------------------------------


class TestPostingInstrumentation:
    def test_posting_trace_spans_masks_and_firing_order(self, mm_db):
        with mm_db.transaction():
            handle = mm_db.pnew(ObsGadget)
            ptr = handle.ptr
            handle.WatchAll()
            handle.WatchOver()

        with obs.enabled() as recorder:
            with mm_db.transaction():
                gadget = mm_db.deref(ptr)
                gadget.bump()  # n=1: WatchAll fires, WatchOver masked out
                gadget.bump()
                gadget.bump()  # n=3 > limit: both fire

        records = recorder.records()
        begins = [r for r in records if r.kind == "post.begin"]
        assert len(begins) == 3
        assert {r.get("method") for r in begins} == {"bump"}

        # Every in-span record carries its posting's span id.
        span = begins[-1].span
        block = [r for r in records if r.span == span]
        kinds = [r.kind for r in block]
        assert kinds[0] == "post.begin" and kinds[-1] == "post.end"
        assert "index.lookup" in kinds and "fsm.advance" in kinds

        masks = [r for r in block if r.kind == "mask.eval"]
        assert [(m.get("mask"), m.get("outcome")) for m in masks] == [("over", True)]
        assert all(m.get("phase") == "posting" for m in masks)

        fires = [r for r in block if r.kind == "fire"]
        assert len(fires) == 2
        assert [f.get("order") for f in fires] == [0, 1]

        rendered = "\n".join(render_trace(records))
        assert "fire #1" in rendered and "fire #2" in rendered
        assert "mask.eval" in rendered

    def test_skipped_posting_recorded(self, mm_db):
        with mm_db.transaction():
            ptr = mm_db.pnew(ObsGadget).ptr  # events declared, nothing active

        with obs.enabled() as recorder:
            with mm_db.transaction():
                mm_db.deref(ptr).bump()

        ends = [r for r in recorder.records() if r.kind == "post.end"]
        assert ends and ends[0].get("skipped") == "no-active-triggers"

    def test_transaction_delta(self, mm_db):
        with mm_db.transaction():
            handle = mm_db.pnew(ObsGadget)
            ptr = handle.ptr
            handle.WatchAll()

        with obs.enabled():
            with mm_db.transaction() as txn:
                mm_db.deref(ptr).bump()
                delta = obs.transaction_delta(txn)
        assert delta["posting.events_posted"] == 1
        assert delta["posting.firings"] == 1

    def test_transaction_delta_empty_when_tracing_off(self, mm_db):
        with mm_db.transaction() as txn:
            assert obs.transaction_delta(txn) == {}

    def test_mask_counter_split(self, mm_db):
        """Activation-time quiescing and posting-time evaluation count apart."""
        stats = mm_db.trigger_system.stats
        with mm_db.transaction():
            handle = mm_db.pnew(ObsGadget)
            ptr = handle.ptr
            handle.StarMask()  # start-state obligation: quiesced at activation
        assert stats.masks_evaluated_activation == 1
        assert stats.masks_evaluated_posting == 0

        with mm_db.transaction():
            mm_db.deref(ptr).bump()
        assert stats.masks_evaluated_activation == 1
        assert stats.masks_evaluated_posting >= 1

    def test_activation_mask_eval_traced(self, mm_db):
        with obs.enabled() as recorder:
            with mm_db.transaction():
                mm_db.pnew(ObsGadget).StarMask()
        masks = [r for r in recorder.records() if r.kind == "mask.eval"]
        assert masks and all(m.get("phase") == "activation" for m in masks)
        assert any(r.kind == "trigger.activate" for r in recorder.records())

    def test_db_metrics_snapshot_has_all_prefixes(self, disk_db):
        snap = disk_db.metrics.snapshot()
        assert any(k.startswith("posting.") for k in snap)
        assert any(k.startswith("storage.") for k in snap)
        assert any(k.startswith("locks.") for k in snap)


# -- EventOccurrence immutability regression ------------------------------------


_LOCAL_FIRED: list = []


class ObsThermostat(Monitored):
    """A volatile object with two local rules (one mask-gated)."""

    __events__ = ["after set", "Reset"]
    __masks__ = {"hot": lambda self: self.t > 30}
    __triggers__ = [
        trigger("TooHot", "after set & hot",
                action=lambda s, c: _LOCAL_FIRED.append(("TooHot", s.t)), perpetual=True),
        trigger("SetThenReset", "after set, Reset",
                action=lambda s, c: _LOCAL_FIRED.append(("SetThenReset", s.t)),
                perpetual=True),
    ]

    def __init__(self):
        self.t = 0

    def set(self, t):
        self.t = t


def _card_run(path, engine, cc):
    """A seeded credit-card run: what it did, the cards, their stored
    trigger states and every ``posting.*`` counter."""
    db = Database.open(path, engine=engine, trigger_cc=cc)
    try:
        workload = CreditCardWorkload(seed=7)
        ptrs = workload.setup(db, 6, cred_lim=500.0, activate_deny=True,
                              activate_raise=True)
        result = workload.run(db, ptrs, 60, ops_per_txn=2)
        with db.transaction() as txn:
            cards = [
                (c.curr_bal, c.cred_lim, c.black_marks, c.purchases)
                for c in map(db.deref, ptrs)
            ]
            states = [
                [(m.serial, m.state.triggernum, m.state.statenum)
                 for m in db.trigger_system.index.lookup(txn, ptr.rid)]
                for ptr in ptrs
            ]
        return dataclasses.astuple(result), cards, states, db.trigger_system.stats.snapshot()
    finally:
        db.close()


def _local_run():
    """Seeded postings to one monitored object: the firings and counters."""
    _LOCAL_FIRED.clear()
    system = LocalTriggerSystem()
    handle = system.monitor(ObsThermostat())
    handle.TooHot()
    handle.SetThenReset()
    for t in (10, 35, 40, 20, 31, 5):
        handle.set(t)
        if t < 32:
            handle.post_event("Reset")
    return list(_LOCAL_FIRED), system.stats.snapshot()


class TestTracingChangesNothing:
    """Tracing watches the posting path; it must not change what it sees."""

    @pytest.mark.parametrize("cc", ["2pl", "mvcc"])
    @pytest.mark.parametrize("engine", ["mm", "disk"])
    def test_traced_run_fires_and_counts_as_untraced(self, tmp_path, engine, cc):
        plain = _card_run(str(tmp_path / "plain"), engine, cc)
        plain_local = _local_run()
        with obs.enabled() as recorder:
            traced = _card_run(str(tmp_path / "traced"), engine, cc)
            traced_local = _local_run()
            records = recorder.records()
            assert recorder.stats.records_dropped == 0
        assert traced == plain
        assert traced_local == plain_local
        assert plain[3]["firings"] > 0 and plain_local[0]  # the rules did fire
        # The tier served both runs: tracing did not switch it off.
        assert plain[3]["compiled_hits"] > 0 and plain_local[1]["compiled_hits"] > 0

        spans: dict[int, list] = {}
        for record in records:
            if record.span:
                spans.setdefault(record.span, []).append(record)
        posts = [block for block in spans.values() if block[0].kind == "post.begin"]
        assert len(posts) == len(spans) > 0
        written = "state.write" if cc == "2pl" else "state.buffer"
        moved_total = 0
        for block in posts:
            # One fsm.advance per active entry of the posting's group.
            active = sum(r.get("states") for r in block if r.kind == "index.lookup")
            advances = [r for r in block if r.kind == "fsm.advance"]
            assert len(advances) == active
            # One state record per moved entry, naming its trigger.
            moved = sorted(
                r.get("trigger") for r in advances
                if r.get("from_state") != r.get("to_state")
            )
            settled = [r for r in block if r.kind.startswith("state.")]
            assert {r.kind for r in settled} <= {written}
            assert sorted(r.get("trigger") for r in settled) == moved
            moved_total += len(moved)
        assert moved_total > 0
        # One mask.eval per counted posting-time mask evaluation, each
        # inside its posting's span; local rules post without spans.
        masks = [r.span for r in records if r.kind == "mask.eval" and r.get("phase") == "posting"]
        assert len([s for s in masks if s]) == traced[3]["masks_evaluated_posting"] > 0
        assert masks.count(0) == traced_local[1]["masks_evaluated_posting"] > 0


class TestTraceCli:
    def test_record_then_summary_then_show(self, tmp_path, capsys):
        """``repro.tools trace``: record a traced credit-card run, count
        its records by kind, pretty-print it; the compiled tier served."""
        out = str(tmp_path / "trace.jsonl")
        assert tools.main(["trace", "record", out, "--cards", "2", "--ops", "12"]) == 0
        posting = re.search(
            r"posting: (\d+) events, (\d+) firings, (\d+) masks, "
            r"(\d+) compiled_hits, (\d+) compiled_fallbacks",
            capsys.readouterr().out,
        )
        events, _firings, masks, hits, fallbacks = map(int, posting.groups())
        assert events > 0 and hits > 0
        records = load_jsonl(out)

        assert tools.main(["trace", "summary", out]) == 0
        counts = {
            kind: int(n) for kind, n in map(str.split, capsys.readouterr().out.splitlines())
        }
        assert counts["total"] == len(records)
        assert counts["post.begin"] == counts["post.end"] == events
        assert counts["fsm.advance"] == hits + fallbacks
        posting_masks = [r for r in records if r.kind == "mask.eval" and r.get("phase") == "posting"]
        assert len(posting_masks) == masks

        assert tools.main(["trace", "show", out]) == 0
        shown = capsys.readouterr().out.splitlines()
        assert len(shown) == len(records)  # one line per record
        assert sum(" post span=" in line for line in shown) == events
        assert sum("] fsm.advance " in line for line in shown) == hits + fallbacks


class TestEventOccurrenceImmutability:
    def test_kwargs_copied_not_aliased(self):
        caller_kwargs = {"dest": "x"}
        event = EventOccurrence(1, "m", (1,), caller_kwargs)
        caller_kwargs["dest"] = "mutated"
        assert event.kwargs["dest"] == "x"

    def test_kwargs_mapping_interface(self):
        event = EventOccurrence(1, "m", (), {"dest": "x", "n": 2})
        assert event.kwargs.get("dest") == "x"
        assert event.kwargs.get("missing", "d") == "d"
        assert "n" in event.kwargs and len(event.kwargs) == 2
        assert dict(event.kwargs) == {"dest": "x", "n": 2}

    def test_kwargs_not_mutable(self):
        event = EventOccurrence(1, "m")
        with pytest.raises(TypeError):
            event.kwargs["k"] = 1

    def test_hashable_and_equal(self):
        a = EventOccurrence(1, "m", (1, 2), {"k": "v"})
        b = EventOccurrence(1, "m", (1, 2), {"k": "v"})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_args_normalized_to_tuple(self):
        event = EventOccurrence(1, "m", [1, 2])
        assert event.args == (1, 2)
        assert type(event.args) is tuple

    def test_empty_kwargs_shared_sentinel(self):
        assert EventOccurrence(1).kwargs is EMPTY_KWARGS
        assert EventOccurrence(1, kwargs={}).kwargs is EMPTY_KWARGS

    def test_frozen_kwargs_equality_with_plain_dict(self):
        frozen = FrozenKwargs({"a": 1})
        assert frozen == {"a": 1}
        assert frozen != {"a": 2}
        assert hash(frozen) == hash(FrozenKwargs({"a": 1}))
