"""Simulated intra-data-center network: latency models, message fabric,
and a request/response RPC layer with retransmission and failure
injection."""

from .latency import (
    FixedLatency,
    JitteredLatency,
    LatencyModel,
)
from .faults import FaultStats, LinkFaults
from .network import Network, NetworkStats
from .rpc import (
    AppError,
    Request,
    Response,
    RpcError,
    RpcNode,
    RpcTimeout,
)

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "JitteredLatency",
    "Network",
    "NetworkStats",
    "LinkFaults",
    "FaultStats",
    "RpcNode",
    "Request",
    "Response",
    "RpcError",
    "RpcTimeout",
    "AppError",
]
