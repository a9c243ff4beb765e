"""Reverse-mode automatic differentiation over dense float64 tensors.

The engine is a recording tape: operations execute eagerly on numpy arrays and
append themselves to a :class:`GradientTape` in execution order (which is a
topological order by construction).  A finished tape can be replayed with new
leaf values (`forward`) and differentiated (`backward`) any number of times
without hidden accumulation state.

Shape discipline is deliberately strict: elementwise primitives require equal
dims.  The only broadcasting is in :func:`add`, whose second operand may take
a trailing suffix of the first's dims (a bias); its gradient sums the leading
axes.  This keeps every gradient rule auditable against central finite
differences, which :func:`finite_diff_check` automates.

Each node records whether it `requires` a gradient: leaves do, constants and
`stop_gradient` outputs do not, and any other node does when one of its
parents does.  Backward computes and accumulates gradients only for nodes that
require one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EXP_MAX = 709.0  # log(DBL_MAX) minus slack; larger inputs overflow float64


class EngineError(Exception):
    """Base class for differentiation-engine failures."""


class ShapeError(EngineError):
    """Operand dims incompatible with a primitive's contract."""


class DomainError(EngineError):
    """Input outside a primitive's numerical domain (exp/div)."""


class StateError(EngineError):
    """Tape used out of order (e.g. backward before any forward)."""


class UsageError(EngineError):
    """Caller broke an API precondition."""


class NamedParams:
    """Mapping from parameter name to a float64 array.

    Iteration is lexicographic by name, so reductions over parameters are
    deterministic regardless of insertion order.
    """

    __slots__ = ("_data",)

    def __init__(self, mapping=None):
        self._data: dict[str, np.ndarray] = {}
        if mapping is not None:
            items = mapping.items() if hasattr(mapping, "items") else mapping
            for name, values in items:
                self[name] = values

    def __setitem__(self, name: str, values) -> None:
        if not isinstance(name, str):
            raise UsageError("parameter names must be strings")
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = arr.copy(order="C")
        self._data[name] = arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self._data[name]

    def __contains__(self, name) -> bool:
        return name in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(sorted(self._data))

    def names(self) -> list[str]:
        return sorted(self._data)

    def items(self):
        for name in sorted(self._data):
            yield name, self._data[name]

    def copy(self) -> "NamedParams":
        return NamedParams((name, arr.copy()) for name, arr in self.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, NamedParams):
            return NotImplemented
        if self.names() != other.names():
            return False
        return all(
            a.shape == b.shape and np.array_equal(a, b)
            for (_, a), (_, b) in zip(self.items(), other.items())
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{tuple(v.shape)}" for k, v in self.items())
        return f"NamedParams({inner})"


class Tensor:
    """One node of the computation graph: a float64 array plus its provenance."""

    __slots__ = ("data", "op", "parents", "attrs", "grad", "grad_shared", "name", "tape", "requires")

    def __init__(self, tape, data, op=None, parents=(), attrs=None, name=None, requires=False):
        self.tape = tape
        self.data = data
        self.op = op
        self.parents = parents
        self.attrs = attrs
        self.grad = None
        self.grad_shared = False
        self.name = name
        self.requires = requires

    @property
    def dims(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = self.name or self.op or "const"
        return f"Tensor({tag}, dims={self.dims})"


class GradientTape:
    """Ordered record of primitive operations over leaf and constant tensors."""

    def __init__(self):
        self._ops: list[Tensor] = []
        self._leaves: dict[str, Tensor] = {}
        self.cache: dict = {}  # model-level node memoization, scoped to this tape

    def leaf(self, name: str, values) -> Tensor:
        """Register (or fetch) a named differentiable leaf."""
        if name in self._leaves:
            return self._leaves[name]
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = arr.copy(order="C")
        t = Tensor(self, arr, name=name, requires=True)
        self._leaves[name] = t
        return t

    def leaves(self, params: NamedParams, prefix: str = "") -> dict[str, Tensor]:
        return {name: self.leaf(prefix + name, arr) for name, arr in params.items()}

    def constant(self, values) -> Tensor:
        return Tensor(self, np.asarray(values, dtype=np.float64))

    @property
    def result(self) -> Tensor | None:
        """The tape's output: the most recently recorded operation."""
        return self._ops[-1] if self._ops else None

    def _record(self, tensor: Tensor) -> Tensor:
        self._ops.append(tensor)
        return tensor

    def __len__(self) -> int:
        return len(self._ops)


def _coerce(tape: GradientTape, x, like: Tensor) -> Tensor:
    """Wrap a python scalar as a constant tensor shaped like `like`."""
    if isinstance(x, Tensor):
        if x.tape is not tape:
            raise UsageError("operands belong to different tapes")
        return x
    arr = np.full(like.dims, float(x), dtype=np.float64)
    return tape.constant(arr)


def _binary_args(a, b):
    if isinstance(a, Tensor):
        tape = a.tape
        b = _coerce(tape, b, a)
    elif isinstance(b, Tensor):
        tape = b.tape
        a = _coerce(tape, a, b)
    else:
        raise UsageError("at least one operand must be a Tensor")
    return a.tape, a, b


def _require_same_dims(op: str, a: Tensor, b: Tensor) -> None:
    if a.dims != b.dims:
        raise ShapeError(f"{op}: dims {a.dims} and {b.dims} do not match")


# ---------------------------------------------------------------------------
# forward rules: recompute node.data from parents (used at build and replay)
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _check_exp_domain(op: str, x: np.ndarray) -> None:
    if x.size and float(np.max(x)) > _EXP_MAX:
        raise DomainError(f"{op}: input {float(np.max(x)):.3g} exceeds exp overflow bound")


def _fw_add(n):
    return n.parents[0].data + n.parents[1].data


def _fw_sub(n):
    return n.parents[0].data - n.parents[1].data


def _fw_mul(n):
    return n.parents[0].data * n.parents[1].data


def _fw_div(n):
    b = n.parents[1].data
    if b.size and float(np.min(np.abs(b))) == 0.0:
        raise DomainError("div: zero divisor")
    return n.parents[0].data / b


def _fw_neg(n):
    return -n.parents[0].data


def _fw_matmul(n):
    return n.parents[0].data @ n.parents[1].data


def _fw_rowwise_matmul(n):
    a, b = n.parents
    return np.matmul(a.data[:, None, :], b.data)[:, 0, :]


def _fw_sum(n):
    return np.asarray(n.parents[0].data.sum(), dtype=np.float64)


def _fw_exp(n):
    x = n.parents[0].data
    _check_exp_domain("exp", x)
    return np.exp(x)


def _fw_sigmoid(n):
    return _sigmoid(n.parents[0].data)


def _fw_relu(n):
    return np.maximum(n.parents[0].data, 0.0)


def _fw_log_softmax(n):
    return _log_softmax(n.parents[0].data)


def _fw_bce_with_logits(n):
    x = n.parents[0].data
    t = n.attrs["targets"]
    return np.asarray(np.mean(_softplus(x) - x * t), dtype=np.float64)


def _fw_gather(n):
    return n.parents[0].data[n.attrs["indices"]]


def _fw_maximum(n):
    return np.maximum(n.parents[0].data, n.parents[1].data)


def _fw_clamp(n):
    return np.clip(n.parents[0].data, n.attrs["lo"], n.attrs["hi"])


def _fw_reshape(n):
    return n.parents[0].data.reshape(n.attrs["dims"])


def _fw_stop_gradient(n):
    return n.parents[0].data


_FORWARD = {
    "add": _fw_add,
    "sub": _fw_sub,
    "mul": _fw_mul,
    "div": _fw_div,
    "neg": _fw_neg,
    "matmul": _fw_matmul,
    "rowwise_matmul": _fw_rowwise_matmul,
    "sum_reduce": _fw_sum,
    "exp": _fw_exp,
    "sigmoid": _fw_sigmoid,
    "relu": _fw_relu,
    "log_softmax": _fw_log_softmax,
    "bce_with_logits": _fw_bce_with_logits,
    "gather": _fw_gather,
    "maximum": _fw_maximum,
    "clamp": _fw_clamp,
    "reshape": _fw_reshape,
    "stop_gradient": _fw_stop_gradient,
}


# ---------------------------------------------------------------------------
# backward rules: accumulate output grad into parent grads
# ---------------------------------------------------------------------------


def _acc(parent: Tensor, grad: np.ndarray, own: bool = True) -> None:
    """Accumulate into parent.grad, unless the parent requires no gradient.

    `own` marks gradients freshly allocated by the caller; those are adopted
    without a copy.  Shared buffers (views or another node's grad) are never
    mutated in place.
    """
    if not parent.requires:
        return
    if parent.grad is None:
        parent.grad = grad
        parent.grad_shared = not own
    elif parent.grad_shared:
        parent.grad = parent.grad + grad
        parent.grad_shared = False
    else:
        parent.grad += grad


def _bw_add(n, g):
    a, b = n.parents
    _acc(a, g, own=False)
    lead = g.ndim - b.data.ndim
    if lead:
        _acc(b, g.sum(axis=tuple(range(lead))))  # a suffix operand takes the leading axes' sum
    else:
        _acc(b, g, own=False)


def _bw_sub(n, g):
    _acc(n.parents[0], g, own=False)
    _acc(n.parents[1], -g)


def _bw_mul(n, g):
    _acc(n.parents[0], g * n.parents[1].data)
    _acc(n.parents[1], g * n.parents[0].data)


def _bw_div(n, g):
    b = n.parents[1].data
    _acc(n.parents[0], g / b)
    _acc(n.parents[1], -g * n.parents[0].data / (b * b))


def _bw_neg(n, g):
    _acc(n.parents[0], -g)


def _bw_matmul(n, g):
    a, b = n.parents
    if a.requires:
        _acc(a, g @ b.data.T)
    if b.requires:
        _acc(b, a.data.T @ g)


def _bw_rowwise_matmul(n, g):
    a, b = n.parents
    if b.data.ndim == 2:
        _bw_matmul(n, g)  # a.T @ g sums the rows' outer products into the shared matrix
    else:
        if a.requires:
            _acc(a, np.matmul(g[:, None, :], b.data.transpose(0, 2, 1))[:, 0, :])
        if b.requires:
            _acc(b, a.data[:, :, None] * g[:, None, :])


def _bw_sum(n, g):
    _acc(n.parents[0], np.full(n.parents[0].data.shape, float(g), dtype=np.float64))


def _bw_exp(n, g):
    _acc(n.parents[0], g * n.data)


def _bw_sigmoid(n, g):
    _acc(n.parents[0], g * n.data * (1.0 - n.data))


def _bw_relu(n, g):
    _acc(n.parents[0], g * (n.parents[0].data > 0.0))


def _bw_log_softmax(n, g):
    soft = np.exp(n.data)
    _acc(n.parents[0], g - soft * np.sum(g, axis=-1, keepdims=True))


def _bw_bce_with_logits(n, g):
    x = n.parents[0].data
    t = n.attrs["targets"]
    _acc(n.parents[0], (float(g) / x.size) * (_sigmoid(x) - t))


def _bw_gather(n, g):
    p = n.parents[0]
    out = np.zeros(p.data.shape, dtype=np.float64)
    np.add.at(out, n.attrs["indices"], g)
    _acc(p, out)


def _bw_maximum(n, g):
    a, b = n.parents
    mask = a.data >= b.data  # ties route to the first operand
    _acc(a, g * mask)
    _acc(b, g * (~mask))


def _bw_clamp(n, g):
    x = n.parents[0].data
    inside = (x >= n.attrs["lo"]) & (x <= n.attrs["hi"])
    _acc(n.parents[0], g * inside)


def _bw_reshape(n, g):
    _acc(n.parents[0], g.reshape(n.parents[0].data.shape), own=False)


_BACKWARD = {
    "add": _bw_add,
    "sub": _bw_sub,
    "mul": _bw_mul,
    "div": _bw_div,
    "neg": _bw_neg,
    "matmul": _bw_matmul,
    "rowwise_matmul": _bw_rowwise_matmul,
    "sum_reduce": _bw_sum,
    "exp": _bw_exp,
    "sigmoid": _bw_sigmoid,
    "relu": _bw_relu,
    "log_softmax": _bw_log_softmax,
    "bce_with_logits": _bw_bce_with_logits,
    "gather": _bw_gather,
    "maximum": _bw_maximum,
    "clamp": _bw_clamp,
    "reshape": _bw_reshape,
    # stop_gradient absent: its output requires no gradient, so backward never reaches it
}


def _make(op: str, parents: tuple, attrs=None) -> Tensor:
    tape = parents[0].tape
    requires = parents[0].requires or parents[-1].requires  # one or two parents
    node = Tensor(tape, None, op=op, parents=parents, attrs=attrs, requires=requires)
    node.data = _FORWARD[op](node)
    return tape._record(node)


# ---------------------------------------------------------------------------
# public primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    """Elementwise sum; `b` may also take dims that are a trailing suffix of `a`'s."""
    _, a, b = _binary_args(a, b)
    if len(b.dims) > len(a.dims) or a.dims[len(a.dims) - len(b.dims):] != b.dims:
        raise ShapeError(f"add: dims {b.dims} are not a suffix of {a.dims}")
    return _make("add", (a, b))


def sub(a, b) -> Tensor:
    _, a, b = _binary_args(a, b)
    _require_same_dims("sub", a, b)
    return _make("sub", (a, b))


def mul(a, b) -> Tensor:
    _, a, b = _binary_args(a, b)
    _require_same_dims("mul", a, b)
    return _make("mul", (a, b))


def div(a, b) -> Tensor:
    _, a, b = _binary_args(a, b)
    _require_same_dims("div", a, b)
    return _make("div", (a, b))


def neg(a: Tensor) -> Tensor:
    return _make("neg", (a,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if isinstance(a, Tensor) and isinstance(b, Tensor) and a.tape is not b.tape:
        raise UsageError("operands belong to different tapes")
    if len(a.dims) != 2 or len(b.dims) != 2:
        raise ShapeError(f"matmul: requires 2-D operands, got {a.dims} and {b.dims}")
    if a.dims[1] != b.dims[0]:
        raise ShapeError(f"matmul: inner dims {a.dims} @ {b.dims} do not match")
    return _make("matmul", (a, b))


def rowwise_matmul(a: Tensor, b: Tensor) -> Tensor:
    """(M, n) product whose row i is the one-row product a[i:i+1] @ b, or @ b[i].

    `b` is one (k, n) matrix shared by every row of the (M, k) `a`, or a stack
    of M such matrices, one per row.  Each row is computed as its own one-row
    product, so it carries the same bits as `matmul` on that row alone for
    any M; a plain (M, k) @ (k, n) product may round rows differently.
    """
    if a.tape is not b.tape:
        raise UsageError("operands belong to different tapes")
    a_dims, b_dims = a.dims, b.dims
    if len(a_dims) != 2 or b_dims[:-1] not in (a_dims, a_dims[1:]):
        raise ShapeError(
            f"rowwise_matmul: requires (M, k) and (k, n) or (M, k, n), got {a_dims} and {b_dims}"
        )
    return _make("rowwise_matmul", (a, b))


def sum_reduce(a: Tensor) -> Tensor:
    return _make("sum_reduce", (a,))


def exp(a: Tensor) -> Tensor:
    return _make("exp", (a,))


def sigmoid(a: Tensor) -> Tensor:
    return _make("sigmoid", (a,))


def relu(a: Tensor) -> Tensor:
    return _make("relu", (a,))


def log_softmax(a: Tensor) -> Tensor:
    """Fused, overflow-safe log-softmax over the trailing axis."""
    if len(a.dims) not in (1, 2):
        raise ShapeError(f"log_softmax: requires 1-D or 2-D input, got {a.dims}")
    return _make("log_softmax", (a,))


def bce_with_logits(a: Tensor, targets) -> Tensor:
    """Fused, saturation-safe mean binary cross-entropy against fixed targets."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != a.dims:
        raise ShapeError(f"bce_with_logits: targets {t.shape} vs logits {a.dims}")
    return _make("bce_with_logits", (a,), {"targets": t.copy()})


def gather(a: Tensor, indices) -> Tensor:
    """Select entries (1-D input) or rows (2-D input) by integer index."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather: indices must be a 1-D sequence")
    if len(a.dims) not in (1, 2):
        raise ShapeError(f"gather: requires 1-D or 2-D input, got {a.dims}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.dims[0]):
        raise ShapeError(f"gather: index out of range for leading dim {a.dims[0]}")
    return _make("gather", (a,), {"indices": idx.copy()})


def maximum(a, b) -> Tensor:
    _, a, b = _binary_args(a, b)
    _require_same_dims("maximum", a, b)
    return _make("maximum", (a, b))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    if not lo <= hi:
        raise UsageError("clamp: lo must not exceed hi")
    return _make("clamp", (a,), {"lo": float(lo), "hi": float(hi)})


def reshape(a: Tensor, dims) -> Tensor:
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.dims} as {dims}")
    return _make("reshape", (a,), {"dims": dims})


def stop_gradient(a: Tensor) -> Tensor:
    """Identity on values; contributes zero gradient to all ancestors."""
    node = _make("stop_gradient", (a,))
    node.requires = False
    return node


# ---------------------------------------------------------------------------
# tape-level operations
# ---------------------------------------------------------------------------


def forward(tape: GradientTape, inputs: NamedParams | None = None) -> Tensor:
    """Replay the tape, optionally substituting leaf values, and return the result."""
    if tape.result is None:
        raise StateError("forward: tape has no recorded operations")
    if inputs is not None:
        for name, arr in inputs.items():
            if name not in tape._leaves:
                raise UsageError(f"forward: no leaf named {name!r} on this tape")
            leaf = tape._leaves[name]
            new = np.asarray(arr, dtype=np.float64)
            if new.shape != leaf.dims:
                raise ShapeError(f"forward: leaf {name!r} expects dims {leaf.dims}, got {new.shape}")
            leaf.data = new if new.flags["C_CONTIGUOUS"] else new.copy(order="C")
    for node in tape._ops:
        node.data = _FORWARD[node.op](node)
    return tape.result


def backward(tape: GradientTape, seed_output=None) -> NamedParams:
    """Differentiate the tape's result; returns per-leaf gradients.

    Leaves never touched by the tape get zero gradients of matching dims.
    Repeated calls are independent (grads are reset, not accumulated).
    """
    result = tape.result
    if result is None:
        raise StateError("backward before forward: tape has no recorded operations")
    if seed_output is None:
        seed = np.ones(result.dims, dtype=np.float64)
    else:
        seed = np.asarray(
            seed_output.data if isinstance(seed_output, Tensor) else seed_output,
            dtype=np.float64,
        )
        if seed.shape != result.dims:
            raise ShapeError(f"backward: seed dims {seed.shape} do not match result dims {result.dims}")
    for node in tape._ops:
        node.grad = None
        node.grad_shared = False
    for leaf in tape._leaves.values():
        leaf.grad = None
        leaf.grad_shared = False
    if result.requires:
        result.grad = seed.copy()
    for node in reversed(tape._ops):
        if node.grad is None:
            continue
        _BACKWARD[node.op](node, node.grad)
    grads = NamedParams()
    for name, leaf in tape._leaves.items():
        grads[name] = leaf.grad if leaf.grad is not None else np.zeros(leaf.dims, dtype=np.float64)
    return grads


@dataclass
class FiniteDiffReport:
    """Outcome of a central-difference audit of the tape's gradients."""

    max_rel_err: float
    worst_param: str
    worst_index: int
    checked: int
    passed: bool

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"finite-diff {status}: max rel err {self.max_rel_err:.3e} "
            f"at {self.worst_param}[{self.worst_index}] over {self.checked} coords"
        )


def finite_diff_check(
    tape: GradientTape,
    params: NamedParams,
    step: float = 1e-5,
    tolerance: float = 1e-5,
) -> FiniteDiffReport:
    """Compare backward() to central finite differences, coordinate by coordinate.

    Coordinates where both gradients are below 1e-6 in magnitude fall back to
    an absolute-error criterion of 1e-8 instead of the relative one.
    """
    result = tape.result
    if result is None or result.data.size != 1:
        raise UsageError("finite_diff_check: tape result must be a scalar objective")
    if not 0.0 < step <= 1e-2:
        raise UsageError("finite_diff_check: step must lie in (0, 1e-2]")
    grads = backward(tape)
    max_rel = 0.0
    worst = ("", -1)
    checked = 0
    abs_ok = True
    for name in params.names():
        if name not in tape._leaves:
            raise UsageError(f"finite_diff_check: {name!r} is not a leaf of this tape")
        leaf = tape._leaves[name]
        flat = leaf.data.reshape(-1)
        g_flat = grads[name].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            f_plus = forward(tape).item()
            flat[i] = saved - step
            f_minus = forward(tape).item()
            flat[i] = saved
            fd = (f_plus - f_minus) / (2.0 * step)
            ad = g_flat[i]
            checked += 1
            scale = max(abs(ad), abs(fd))
            if scale < 1e-6:
                if abs(ad - fd) > 1e-8:
                    abs_ok = False
                    if abs(ad - fd) > max_rel:  # surface the offender in the report
                        max_rel = abs(ad - fd)
                        worst = (name, i)
                continue
            rel = abs(ad - fd) / scale
            if rel > max_rel:
                max_rel = rel
                worst = (name, i)
    forward(tape)  # leave the tape consistent with the restored leaves
    return FiniteDiffReport(
        max_rel_err=max_rel,
        worst_param=worst[0],
        worst_index=worst[1],
        checked=checked,
        passed=abs_ok and max_rel <= tolerance,
    )
