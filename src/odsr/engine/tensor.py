"""Dense float tensors and the reverse-mode gradient tape.

The engine is deliberately small: a :class:`Tensor` wraps a numpy array
(float32 by default, float64 for high-precision checks), operations in
:mod:`odsr.engine.ops` compute eagerly, and an active :class:`Tape` records
each op so :func:`backward` can replay the trace once, in reverse, and
accumulate vector-Jacobian products down to the leaves.  Image tensors are
NCHW; reductions produce 0-d scalars.
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

    __slots__ = ("data", "__weakref__")

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
    """Records ops executed under ``with Tape() as tape:`` for one backward().

    A tape is single-owner: it must be used from the thread that opened it.
    Each thread records on at most one tape at a time, so entering a second
    tape on a thread raises RuntimeError rather than hiding the inner ops
    from the outer tape.  Tapes on different threads do not interact.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._entered = False
        self._used = False

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


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-accumulate gradients of a scalar ``loss`` through ``tape``.

    Returns each leaf the loss reaches (an op input no node produced, such
    as a parameter) mapped to its gradient, an ndarray of the leaf's shape
    and dtype; fan-out accumulates by summation.  The walk consumes the
    tape, popping each node once its VJP has run and dropping each gradient
    once passed on, so forward arrays are freed as it goes.  Raises
    ValueError for a used tape, a non-scalar loss or one made off the tape.
    """
    if tape._used:
        raise ValueError("tape was already used by backward; record anew")
    if loss.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    produced = {id(n.out) for n in tape.nodes}
    if id(loss) not in produced:
        raise ValueError("loss tensor was not produced on this tape")
    tape._used = True

    # id() keys stay safe while nodes are freed: every tensor with a pending
    # gradient is held either by an unpopped node (its producer) or by
    # ``leaves``, so no new object can take its id while the key is pending;
    # ``produced`` was taken while every tensor on the tape was alive.
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        for tensor, ig in zip(node.inputs, node.vjp(g)):
            if ig is None:
                continue
            key = id(tensor)
            if key not in produced:
                leaves[key] = tensor
            prev = grads.get(key)
            grads[key] = ig if prev is None else prev + ig
    return {t: grads[key].astype(t.data.dtype, copy=False)
            for key, t in leaves.items()}
