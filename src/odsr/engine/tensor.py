"""Dense float tensors and the reverse-mode gradient tape.

The engine is deliberately small: a :class:`Tensor` wraps a numpy array
(float32 by default, float64 for high-precision checks), operations in
:mod:`odsr.engine.ops` compute eagerly, and an active :class:`Tape` records
each op so :func:`backward` can replay the trace in reverse and accumulate
vector-Jacobian products.  Image tensors are NCHW; reductions produce 0-d
scalars.
"""
from __future__ import annotations

import threading
from typing import Callable

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense float array value.

    Tensors are treated as immutable: every op allocates a fresh output and
    the trainer replaces parameter tensors instead of mutating them.  Only
    float32/float64 payloads are allowed; anything else is cast to float32.
    """

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr

    # -- views ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"

    # Arithmetic dunders are attached by odsr.engine.ops at import time so
    # that recording goes through the single op layer.


class Node:
    """One recorded op: its input tensors and a VJP callback.

    ``vjp(g)`` receives the gradient w.r.t. the op output (an ndarray) and
    returns one ndarray (or None) per input.
    """

    __slots__ = ("inputs", "out", "vjp")

    def __init__(self, inputs: tuple[Tensor, ...], out: Tensor,
                 vjp: Callable[[np.ndarray], tuple]):
        self.inputs = inputs
        self.out = out
        self.vjp = vjp


_ACTIVE = threading.local()


class Tape:
    """Records ops executed under ``with Tape() as tape:`` for backward().

    A tape is single-owner: it must be used from the thread that opened it.
    Each thread records on at most one tape at a time, so entering a second
    tape on a thread raises RuntimeError rather than hiding the inner ops
    from the outer tape.  Tapes on different threads do not interact.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._entered = False

    def __enter__(self) -> "Tape":
        if self._entered:
            raise RuntimeError("Tape is single-use; create a new one")
        if active_tape() is not None:
            raise RuntimeError("another tape is recording on this thread")
        self._entered = True
        _ACTIVE.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.tape = None

    def record(self, inputs: tuple[Tensor, ...], out: Tensor,
               vjp: Callable[[np.ndarray], tuple]) -> None:
        self.nodes.append(Node(inputs, out, vjp))


def active_tape() -> Tape | None:
    return getattr(_ACTIVE, "tape", None)


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse-accumulate gradients of a scalar ``loss`` through ``tape``.

    Returns a mapping from every tensor that participated as an op input to
    its gradient (same shape and dtype).  Fan-out accumulates by summation.
    Raises ValueError if ``loss`` is not scalar or was not produced on the
    tape.
    """
    if loss.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    produced = {id(n.out) for n in tape.nodes}
    if id(loss) not in produced:
        raise ValueError("loss tensor was not produced on this tape")

    grads: dict[int, np.ndarray] = {
        id(loss): np.ones_like(loss.data)
    }
    holders: dict[int, Tensor] = {}
    for node in reversed(tape.nodes):
        g = grads.get(id(node.out))
        if g is None:
            continue
        in_grads = node.vjp(g)
        for tensor, ig in zip(node.inputs, in_grads):
            if ig is None:
                continue
            key = id(tensor)
            holders[key] = tensor
            if key in grads:
                grads[key] = grads[key] + ig
            else:
                grads[key] = ig
    return {
        t: Tensor(grads[key].astype(t.data.dtype, copy=False))
        for key, t in holders.items()
    }
