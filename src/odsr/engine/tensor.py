"""Dense float tensors and the reverse-mode gradient tape.

The engine is deliberately small: a :class:`Tensor` wraps a numpy array
(float32 by default, float64 for high-precision checks), operations in
:mod:`odsr.engine.ops` compute eagerly, and an active :class:`Tape` records
each op so :func:`backward` can replay the trace once, in reverse, and
accumulate vector-Jacobian products down to the leaves.  A tape names the
leaves it differentiates, ``Tape(wrt=params)``, and records only the ops
that a requested leaf reaches, as in requires-grad propagation (Paszke et
al., NIPS-W 2017).  Image tensors are NCHW; reductions produce 0-d scalars.
"""
from __future__ import annotations

import threading
from typing import Callable, Iterable

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
    """Records ops run under ``with Tape(wrt=leaves)`` for one backward().

    ``wrt`` names the leaves the caller wants gradients for.  The tape
    tracks which tensors need a gradient: the requested leaves, plus every
    output of an op with at least one such input.  Ops whose inputs need
    none are not recorded, and an op may skip the VJP of an input that
    needs none (the convolutions skip their input gradient).  The tape
    holds each requested leaf, so the ids it tracks stay valid.

    A tape is single-owner: it must be used from the thread that opened it.
    Each thread records on at most one tape at a time, so entering a second
    tape on a thread raises RuntimeError rather than hiding the inner ops
    from the outer tape.  Tapes on different threads do not interact.
    """

    def __init__(self, wrt: Iterable[Tensor]):
        self.nodes: list[Node] = []
        self.wrt = tuple(wrt)
        self._needs = {id(t) for t in self.wrt}
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

    def needs_grad(self, tensor: Tensor) -> bool:
        """Whether a gradient of ``tensor`` is wanted on this tape."""
        return id(tensor) in self._needs

    def record(self, inputs: tuple[Tensor, ...], out: Tensor,
               vjp: Callable[[np.ndarray], tuple]) -> None:
        """Append one op; its output needs a gradient from now on.  Callers
        record only ops with an input that :meth:`needs_grad`."""
        self._needs.add(id(out))
        self.nodes.append(Node(inputs, out, vjp))


def active_tape() -> Tape | None:
    return getattr(_ACTIVE, "tape", None)


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-accumulate gradients of a scalar ``loss`` through ``tape``.

    Returns each requested leaf (``tape.wrt``) the loss reaches mapped to
    its gradient, an ndarray of the leaf's shape and dtype; fan-out
    accumulates by summation, and no gradient of a tensor that needs none
    is kept.  The walk consumes the tape, popping each node once its VJP
    has run and dropping each gradient once passed on, so forward arrays
    are freed as it goes.  Raises ValueError for a used tape, a non-scalar
    loss or one that needs no gradient on the tape (made off it, or
    reached by no requested leaf).
    """
    if tape._used:
        raise ValueError("tape was already used by backward; record anew")
    if loss.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if not tape.needs_grad(loss):
        raise ValueError("loss tensor was not produced on this tape")
    tape._used = True

    # id() keys stay safe while nodes are freed: every tensor with a pending
    # gradient is held by an unpopped node (its producer) or by ``tape.wrt``,
    # and the tape's "needs gradient" ids were taken while every tensor on
    # the tape was alive; the walk makes no new tensors.
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        for tensor, ig in zip(node.inputs, node.vjp(g)):
            if ig is None or not tape.needs_grad(tensor):
                continue
            key = id(tensor)
            prev = grads.get(key)
            grads[key] = ig if prev is None else prev + ig
    return {t: grads[id(t)].astype(t.data.dtype, copy=False)
            for t in tape.wrt if id(t) in grads}
