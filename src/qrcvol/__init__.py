"""Volatility regime detection with quantum-reservoir, echo-state and raw
embeddings over windowed stock returns.

The Python API is the modules; `import qrcvol` loads all but `cli`."""

__version__ = "0.1.0"

from . import embeddings, harness, pipeline, quantum, readout
