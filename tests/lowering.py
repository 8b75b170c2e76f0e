"""Lower a single operator into ListSinks, for the tests of one GEMV or
one BlockLowering method."""

from cxlpim.compiler import BlockLowering, DeviceTrace, ListSink
from cxlpim.config import ArchConfig


def lower(emit, layout=None, block=0, position=0) -> DeviceTrace:
    """Run `emit` into fresh ListSinks and return one device's finished
    trace.

    Without a `layout`, `emit(sink)` gets one ListSink on device 0 of
    the default ArchConfig, for `emit_gemv`. With one, `emit(low)` gets
    a BlockLowering of `layout.blocks[block]` at `position` with a
    ListSink per device of the block's group, and the trace is the
    group master's.
    """
    if layout is None:
        arch, devices, master = ArchConfig(), (0,), 0
    else:
        bl = layout.blocks[block]
        arch, devices, master = layout.arch, bl.tp_group, bl.master
    sinks = {d: ListSink(d, arch) for d in devices}
    emit(sinks[0] if layout is None
         else BlockLowering(layout, bl, position, sinks))
    sink = sinks[master]
    return DeviceTrace(device=master, instructions=sink.instructions,
                       annotations=sink.annotations, summary=sink.finish(),
                       routines=sink.routines)
