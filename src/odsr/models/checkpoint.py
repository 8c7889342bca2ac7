"""Binary weight checkpoints.

Layout (all integers little-endian):

    magic   8 bytes  b"ODSRWGT1"
    name    u16 length + utf-8 bytes (network name)
    scale   u32
    count   u32 number of parameters
    table   per parameter: name (u16 + utf-8), ndim u8, dims u32 each,
            offset u64 into the payload (in bytes)
    payload concatenated float32 little-endian arrays, C order

Readers validate the magic, every table entry (names are unique, no dim is
zero), and payload size; truncation errors name the byte offset at which
data ran out.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..engine.tensor import Tensor

MAGIC = b"ODSRWGT1"


def dumps_params(name: str, scale: int, params: dict[str, Tensor]) -> bytes:
    head = [MAGIC]
    nb = name.encode("utf-8")
    head.append(struct.pack("<H", len(nb)))
    head.append(nb)
    head.append(struct.pack("<II", scale, len(params)))
    payload = bytearray()
    for pname, tensor in params.items():
        pb = pname.encode("utf-8")
        arr = np.ascontiguousarray(tensor.data, dtype="<f4")
        head.append(struct.pack("<H", len(pb)))
        head.append(pb)
        head.append(struct.pack("<B", arr.ndim))
        head.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        head.append(struct.pack("<Q", len(payload)))
        payload.extend(arr.tobytes())
    return b"".join(head) + bytes(payload)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise ValueError(
                f"truncated checkpoint: {what} needs {n} bytes at offset "
                f"{self.off}, only {len(self.blob) - self.off} remain")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def loads_params(blob: bytes) -> tuple[str, int, dict[str, np.ndarray]]:
    r = _Reader(blob)
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise ValueError("bad checkpoint magic (not an odsr weight file)")
    (nlen,) = r.unpack("<H", "name length")
    name = r.take(nlen, "name").decode("utf-8")
    scale, count = r.unpack("<II", "scale/count")
    table: list[tuple[str, tuple[int, ...], int]] = []
    seen: set[str] = set()
    for _ in range(count):
        (plen,) = r.unpack("<H", "param name length")
        pname = r.take(plen, "param name").decode("utf-8")
        (ndim,) = r.unpack("<B", f"ndim of {pname}")
        dims = r.unpack(f"<{ndim}I", f"shape of {pname}") if ndim else ()
        if 0 in dims:
            raise ValueError(
                f"parameter {pname!r} has a zero-size dim: shape {dims}")
        if pname in seen:
            raise ValueError(f"duplicate parameter name {pname!r}")
        seen.add(pname)
        (offset,) = r.unpack("<Q", f"offset of {pname}")
        table.append((pname, tuple(dims), offset))
    payload_start = r.off
    params: dict[str, np.ndarray] = {}
    for pname, dims, offset in table:
        n_bytes = 4 * math.prod(dims)  # a Python int: no overflow
        r.off = payload_start + offset
        raw = r.take(n_bytes, f"payload of {pname}")
        params[pname] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    return name, scale, params


def save_checkpoint(path, net) -> None:
    """Write a network's weights; ``net`` needs .spec and .params."""
    Path(path).write_bytes(
        dumps_params(net.spec.name, net.spec.scale, net.params))


def load_checkpoint(path, spec=None):
    """Load weights into a :class:`~odsr.models.networks.Network`.

    With ``spec=None`` the network spec is rebuilt from the stored name and
    scale via the standard builders; shapes are verified either way.
    """
    from .builders import build
    from .networks import Network

    name, scale, arrays = loads_params(Path(path).read_bytes())
    if spec is None:
        spec = build(name, scale)
    elif spec.name != name or spec.scale != scale:
        raise ValueError(
            f"checkpoint is {name} x{scale}, expected "
            f"{spec.name} x{spec.scale}")
    return Network(spec, {k: Tensor(v) for k, v in arrays.items()})
