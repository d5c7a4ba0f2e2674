"""Listener utility tests."""

from repro.interp import NullListener, TeeListener

from ..reference import RecordingListener


def test_null_listener_ignores_everything():
    listener = NullListener()
    listener.on_block(1)
    listener.on_branch(1, True)  # no exception, no state


def test_recording_listener_accumulates():
    listener = RecordingListener()
    listener.on_block(3)
    listener.on_branch(3, True)
    listener.on_block(4)
    listener.on_branch(4, False)
    assert listener.blocks == [3, 4]
    assert listener.branches == [(3, True), (4, False)]


def test_tee_fans_out_in_order():
    first = RecordingListener()
    second = RecordingListener()
    tee = TeeListener(first, second)
    tee.on_block(9)
    tee.on_branch(9, True)
    assert first.blocks == second.blocks == [9]
    assert first.branches == second.branches == [(9, True)]
