"""``decode_group`` decodes a group's write-once blocks once per content.

The names block and the params block of a trigger-group record never
change under an FSM advance, so :func:`repro.core.trigger_state.decode_group`
keeps what each decoded to, keyed by the block's bytes (DESIGN.md §17,
"Reading a group back").  What must hold: the memo is invisible — every
call returns what a cold decode returns, every corrupt record still
raises, each caller gets its own params dicts — and it stays bounded.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import example, given, settings

from repro.core import trigger_state
from repro.core.declarations import trigger
from repro.core.trigger_state import TriggerGroup, TriggerState, decode_group
from repro.errors import TriggerError
from repro.objects.database import Database
from repro.objects.oid import PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from tests.test_trigger_groups import _CANON, _groups

#: What ``Meddle``'s mask found in its params, one entry per evaluation.
SEEN: list[dict] = []


def _meddle(self, params) -> bool:
    """A mask that records, then scribbles on, its activation arguments."""
    SEEN.append(dict(params))
    params["scribbled"] = params.get("scribbled", 0) + 1
    params["floor"] = -1
    return False


class MemoGadget(Persistent):
    n = field(int, default=0)

    __events__ = ["Tick"]
    __masks__ = {"meddle": _meddle}
    __triggers__ = [
        trigger("Meddle", "Tick & meddle", action=lambda s, c: None, params=("floor",)),
    ]


@pytest.fixture(autouse=True)
def cold_memos():
    trigger_state._NAMES_MEMO.clear()
    trigger_state._PARAMS_MEMO.clear()
    yield


def _group(rid: int, params: dict, db_name: str = "db") -> bytes:
    anchor = PersistentPtr(db_name, rid)
    state = TriggerState(3, anchor, 1, "MemoGadget", params)
    return TriggerGroup(anchor, 1, [(0, state)]).encode()


def _params_block(raw: bytes) -> bytes:
    return decode_group(raw)[4][2]


def _cold(raw: bytes):
    """``TriggerGroup.decode(raw)`` with both memos empty, or the
    ``TriggerError`` it raises."""
    names, params = dict(trigger_state._NAMES_MEMO), dict(trigger_state._PARAMS_MEMO)
    trigger_state._NAMES_MEMO.clear()
    trigger_state._PARAMS_MEMO.clear()
    try:
        return TriggerGroup.decode(raw)
    except TriggerError as exc:
        return exc
    finally:
        trigger_state._NAMES_MEMO.update(names)
        trigger_state._PARAMS_MEMO.update(params)


def test_byte_identical_params_blocks_decode_to_distinct_dicts():
    first, second = _group(5, {"floor": 3}), _group(9, {"floor": 3})
    assert _params_block(first) == _params_block(second)
    (a,) = decode_group(first)[3]
    (b,) = decode_group(second)[3]  # a memo hit
    assert _params_block(second) in trigger_state._PARAMS_MEMO
    assert a.params == b.params == {"floor": 3}
    assert a.params is not b.params
    (memoized,) = trigger_state._PARAMS_MEMO[_params_block(second)]
    assert memoized is not a.params and memoized is not b.params
    a.params["floor"] = 99
    assert decode_group(second)[3][0].params == {"floor": 3}


@pytest.mark.parametrize(
    "params", [{"xs": [1, 2]}, {"nested": {"k": 1}}, {"pair": (1, 2)}]
)
def test_a_params_block_with_a_container_is_not_memoized(params):
    raw = _group(5, params)
    (first,) = decode_group(raw)[3]
    (second,) = decode_group(raw)[3]
    assert _params_block(raw) not in trigger_state._PARAMS_MEMO
    assert first.params == second.params == params
    for key in params:
        assert first.params[key] is not second.params[key]


def test_every_immutable_value_kind_is_memoized_and_round_trips():
    params = {
        "none": None, "flag": True, "int": -7, "float": 2.5, "str": "s",
        "bytes": b"\0x", "ptr": PersistentPtr("db", 4),
    }
    raw = _group(5, params)
    decode_group(raw)
    assert _params_block(raw) in trigger_state._PARAMS_MEMO
    assert decode_group(raw)[3][0].params == params


def test_each_memo_stays_within_its_bound():
    bound = trigger_state._MEMO_ENTRIES
    for i in range(bound + 1):
        decode_group(_group(i, {"i": i}, db_name=f"db{i}"))
        assert len(trigger_state._PARAMS_MEMO) <= bound
        assert len(trigger_state._NAMES_MEMO) <= bound
    assert len(trigger_state._PARAMS_MEMO) == 1  # emptied when full, then refilled


def test_threads_decoding_at_once_keep_the_bound_and_get_their_own_dicts():
    """Sessions decode groups on several threads: more decoding threads
    than cores, switching often, over more distinct blocks than the memo
    holds and a shared one each thread scribbles on."""
    bound = trigger_state._MEMO_ENTRIES
    shared = _group(1, {"floor": 3})
    problems: list[str] = []

    def work(worker: int) -> None:
        for i in range(bound):
            rid = worker * bound + i
            (state,) = decode_group(_group(rid, {"i": rid}, db_name=f"db{rid}"))[3]
            (mine,) = decode_group(shared)[3]
            if state.params != {"i": rid} or mine.params != {"floor": 3}:
                problems.append(f"worker {worker} decoded {state.params}, {mine.params}")
            mine.params["floor"] = worker
            if len(trigger_state._PARAMS_MEMO) > bound:
                problems.append(f"{len(trigger_state._PARAMS_MEMO)} params blocks")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert len(trigger_state._NAMES_MEMO) <= bound


def test_a_block_over_the_size_bound_is_not_memoized():
    raw = _group(5, {"s": "x" * trigger_state._MEMO_BLOCK_BYTES})
    assert decode_group(raw)[3][0].params["s"] == "x" * trigger_state._MEMO_BLOCK_BYTES
    assert not trigger_state._PARAMS_MEMO


@settings(max_examples=40, deadline=None)
@given(group=_groups())
@example(group=_CANON)
def test_with_the_memo_warm_every_prefix_and_flip_decodes_as_if_cold(group):
    raw = group.encode()
    assert TriggerGroup.decode(raw) == group  # warms both memos
    assert TriggerGroup.decode(raw) == group
    for end in range(len(raw)):
        with pytest.raises(TriggerError):
            TriggerGroup.decode(raw[:end])
    for pos in range(len(raw)):
        for flip in (0x01, 0x80, 0xFF):
            bad = bytearray(raw)
            bad[pos] ^= flip
            bad = bytes(bad)
            cold = _cold(bad)
            if isinstance(cold, TriggerError):
                with pytest.raises(TriggerError):
                    TriggerGroup.decode(bad)
            else:
                assert TriggerGroup.decode(bad) == cold


@pytest.mark.parametrize("engine", ["disk", "mm"])
def test_a_mask_mutating_its_params_does_not_reach_the_next_transaction(db_path, engine):
    """Under 2PL every transaction loads the group from its record, whose
    params bytes an advance never rewrites: a mask that scribbles on its
    ``params`` in one transaction leaves the next one's view as activated."""
    db = Database.open(db_path, engine=engine, trigger_cc="2pl")
    try:
        with db.transaction():
            handle = db.pnew(MemoGadget)
            handle.Meddle(3)
            ptr = handle.ptr
        SEEN.clear()
        for _ in range(3):
            with db.transaction():
                db.deref(ptr).post_event("Tick")
        assert SEEN == [{"floor": 3}] * 3
    finally:
        db.close()
