"""Discrete-event simulation kernel.

This package provides the deterministic simulation substrate the whole
reproduction runs on: an event heap with float seconds of virtual time,
generator-based processes, condition events, FIFO stores, resources
whose slots are held for a fixed time, and named seedable random
streams.
"""

from .core import Simulator
from .events import AllOf, AnyOf, Event, Interrupt, Timeout
from .process import Process
from .resources import Resource, Store
from .rng import SeededRng

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "Process",
    "Store",
    "Resource",
    "SeededRng",
]
