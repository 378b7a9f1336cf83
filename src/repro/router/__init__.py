"""Router substrate: ports, buffers, connection matrix, router."""

from repro.router.buffers import BufferOverflowError, InputBuffer
from repro.router.connection_matrix import (
    DEFAULT_CONNECTION_MATRIX,
    ConnectionMatrix,
    default_connections,
)
from repro.router.ports import (
    LOCAL_INPUTS,
    LOCAL_OUTPUTS,
    NUM_INPUT_PORTS,
    NUM_OUTPUT_PORTS,
    NUM_ROWS,
    READ_PORTS_PER_INPUT,
    TORUS_OUTPUTS,
    InputPort,
    OutputPort,
    input_for_direction,
    network_rows,
    output_for_direction,
    port_of_row,
    row_of,
)
from repro.router.router import Dispatch, HopPlan, Launch, Router

__all__ = [
    "BufferOverflowError",
    "ConnectionMatrix",
    "DEFAULT_CONNECTION_MATRIX",
    "Dispatch",
    "HopPlan",
    "InputBuffer",
    "InputPort",
    "LOCAL_INPUTS",
    "LOCAL_OUTPUTS",
    "Launch",
    "NUM_INPUT_PORTS",
    "NUM_OUTPUT_PORTS",
    "NUM_ROWS",
    "OutputPort",
    "READ_PORTS_PER_INPUT",
    "Router",
    "TORUS_OUTPUTS",
    "default_connections",
    "input_for_direction",
    "network_rows",
    "output_for_direction",
    "port_of_row",
    "row_of",
]
