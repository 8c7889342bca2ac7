"""Shared fixtures: finite-difference helpers and the acceptance printer."""
import numpy as np
import pytest

from odsr.engine import ops
from odsr.engine.tensor import Tape, Tensor, backward

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def recorded(monkeypatch):
    """Each op the tape records, in tape order, as ((shape, dtype) of each
    input, (shape, dtype) of the output).  Nodes hold keys, not tensors, so
    a test that checks an op's tensors reads them at record time."""
    seen = []
    record = Tape.record

    def spy(tape, inputs, out, vjp):
        seen.append(([(t.shape, t.dtype) for t in inputs],
                     (out.shape, out.dtype)))
        return record(tape, inputs, out, vjp)

    monkeypatch.setattr(Tape, "record", spy)
    return seen


def autograd_inputs(fn, arrays):
    """Gradients of scalar fn(*tensors) wrt each input array (float64)."""
    tensors = [Tensor(np.asarray(a, dtype=np.float64)) for a in arrays]
    with Tape(wrt=tensors) as tape:
        out = fn(*tensors)
        loss = ops.tsum(out) if out.size > 1 else out
    grads = backward(tape, loss)
    return [grads[t] if t in grads else np.zeros_like(t.data)
            for t in tensors]


def numeric_grad(fn, arrays, index, eps=1e-6):
    """Central finite differences of sum(fn(*arrays)) wrt arrays[index]."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    base = arrays[index]
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = base[idx]
        step = eps * max(1.0, abs(orig))
        base[idx] = orig + step
        hi = float(np.sum(fn(*[Tensor(a) for a in arrays]).data))
        base[idx] = orig - step
        lo = float(np.sum(fn(*[Tensor(a) for a in arrays]).data))
        base[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return grad


def rel_err(a, b):
    """Scale-invariant gradient disagreement measure."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm = max(float(np.abs(a).max(initial=0.0)),
               float(np.abs(b).max(initial=0.0)), 1e-12)
    return float(np.abs(a - b).max(initial=0.0)) / norm


def check_gradients(fn, arrays, tol=1e-6, eps=1e-6):
    """Assert autograd matches finite differences for every input."""
    auto = autograd_inputs(fn, arrays)
    worst = 0.0
    for i in range(len(arrays)):
        fd = numeric_grad(fn, arrays, i, eps)
        err = rel_err(auto[i], fd)
        worst = max(worst, err)
        assert err < tol, (
            f"gradient mismatch on input {i}: rel err {err:.3g} >= {tol}")
    return worst
