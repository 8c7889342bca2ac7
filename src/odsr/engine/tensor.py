"""Dense float tensors and the reverse-mode gradient tape.

The engine is deliberately small: a :class:`Tensor` wraps a numpy array
(float32 by default, float64 for high-precision checks), operations in
:mod:`odsr.engine.ops` compute eagerly, and an active :class:`Tape` records
each op so :func:`backward` can replay the trace once, in reverse, and
accumulate vector-Jacobian products down to the leaves.  A tape names the
leaves it differentiates, ``Tape(wrt=params)``, and records only the ops
that a requested leaf reaches, as in requires-grad propagation (Paszke et
al., NIPS-W 2017).  A recorded node names its inputs and output by integer
keys, not tensors, and each VJP closure holds only the arrays it reads
(GELU saves its derivative, not its input), so the tape keeps no
activation that backward does not read.  Image tensors are NCHW;
reductions produce 0-d scalars.
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

    # ``_key``/``_token``: the key a tape handed out when it recorded the op
    # that made this tensor, and that tape's token (None off any tape).
    __slots__ = ("data", "_key", "_token", "__weakref__")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self._token = None

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
    """One recorded op: the keys of its inputs and output, and a VJP.

    ``inputs`` holds one key per input (None for an input that needs no
    gradient) and ``out`` the output's key.  ``vjp(g)`` receives the
    gradient w.r.t. the op output (an ndarray) and returns one ndarray (or
    None) per input.
    """

    __slots__ = ("inputs", "out", "vjp")

    def __init__(self, inputs: tuple[int | None, ...], out: int,
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
    needs none (the convolutions skip their input gradient).

    Each such tensor has an integer key.  Leaf ``k`` of ``wrt`` has key k,
    found by id; the tape holds its leaves, so those ids stay valid.  A
    recorded output gets the next key, stored on the tensor beside this
    tape's token, so a tensor made off the tape, or a later one that reuses
    a freed output's id, never matches.  Nodes hold keys, never tensors,
    and each VJP closure only the arrays it reads (GELU's is its saved
    derivative), so an activation no VJP reads is freed when the caller
    drops it.

    A tape is single-owner: it must be used from the thread that opened it.
    Each thread records on at most one tape at a time, so entering a second
    tape on a thread raises RuntimeError rather than hiding the inner ops
    from the outer tape.  Tapes on different threads do not interact.
    """

    def __init__(self, wrt: Iterable[Tensor]):
        self.nodes: list[Node] = []
        self.wrt = tuple(wrt)
        self._leaves = {id(t): k for k, t in enumerate(self.wrt)}
        self._token = object()
        self._next_key = len(self.wrt)
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

    def _key_of(self, tensor: Tensor) -> int | None:
        """``tensor``'s key on this tape, or None if it needs no gradient."""
        if tensor._token is self._token:
            return tensor._key
        return self._leaves.get(id(tensor))

    def needs_grad(self, tensor: Tensor) -> bool:
        """Whether a gradient of ``tensor`` is wanted on this tape."""
        return self._key_of(tensor) is not None

    def record(self, inputs: tuple[Tensor, ...], out: Tensor,
               vjp: Callable[[np.ndarray], tuple]) -> None:
        """Append one op; its output needs a gradient from now on.  Callers
        record only ops with an input that :meth:`needs_grad`, and ``vjp``
        should hold only the arrays it reads: the node keeps no tensor."""
        out._key, out._token = self._next_key, self._token
        self._next_key += 1
        self.nodes.append(Node(tuple(map(self._key_of, inputs)), out._key,
                               vjp))


def active_tape() -> Tape | None:
    return getattr(_ACTIVE, "tape", None)


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-accumulate gradients of a scalar ``loss`` through ``tape``.

    Returns each requested leaf (``tape.wrt``) the loss reaches mapped to
    its gradient, an ndarray of the leaf's shape and dtype; fan-out
    accumulates by summation, and no gradient of a tensor that needs none
    is kept.  The walk runs on keys and consumes the tape, popping each
    node once its VJP has run and dropping each gradient once passed on,
    so the arrays VJP closures saved are freed as it goes.  Raises
    ValueError for a used tape, a non-scalar loss or one that needs no
    gradient on the tape (made off it, or reached by no requested leaf).
    """
    if tape._used:
        raise ValueError("tape was already used by backward; record anew")
    if loss.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if not tape.needs_grad(loss):
        raise ValueError("loss tensor was not produced on this tape")
    tape._used = True

    grads: dict[int, np.ndarray] = {
        tape._key_of(loss): np.ones_like(loss.data)}
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        g = grads.pop(node.out, None)
        if g is None:
            continue
        for key, ig in zip(node.inputs, node.vjp(g)):
            if ig is None or key is None:
                continue
            prev = grads.get(key)
            grads[key] = ig if prev is None else prev + ig
    leaves = tape._leaves
    return {t: grads[leaves[id(t)]].astype(t.data.dtype, copy=False)
            for t in tape.wrt if leaves[id(t)] in grads}
