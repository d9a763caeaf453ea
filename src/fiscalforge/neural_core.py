"""Small feed-forward networks with hand-written backprop.

Two network flavours share one flat float64 parameter layout (weights
then biases, layer by layer): an allocation actor whose output head is
a normalized-exponential map onto the simplex, and a scalar critic with
a linear head. The flat layout doubles as the genome the evolutionary
refiner crosses over and mutates; unflatten gives its per-layer views.
Hidden activations are tanh, and everything is float64.

One forward kernel, ``_forward_cached``, serves every caller. It reads
the unflatten views of a (..., P) parameter stack (one vector, the
(2, P) twin critics, the (N, 1, P) GA population); a caller that runs
many passes over one buffer, as training does, splits it once and
writes it only in place. Each network of a stack makes the BLAS calls
it would make alone, so its rows are bit-identical to separate passes.
The cache keeps each layer's weight view, input and output, so a
gradient never repeats the forward pass: ``_backward`` runs from it,
writing the parameter gradient into a caller's buffer and returning
the input gradient, each only when asked for; ``vjp_batch`` is the two
composed. ``forward_population`` (GA fitness, ``ActorPolicy.act``) and
``forward_actor`` (training's exploration) pass each state as a batch of
one: every action is a one-row ``forward_batch``'s, bit for bit.
"""

import struct
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .atomic import atomic_open, write_json
from .errors import ArtifactError, ContractError, NumericError

__all__ = [
    "MlpSpec",
    "ActorPolicy",
    "init_params",
    "forward_batch",
    "forward_actor",
    "forward_population",
    "vjp_batch",
    "unflatten",
    "save_checkpoint",
    "load_checkpoint",
    "export_json",
]

SIMPLEX = "simplex"
LINEAR = "linear"

_CKPT_MAGIC = b"FFPK"
_CKPT_VERSION = 1


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    output_head: str

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ContractError("input_dim and output_dim must be positive")
        if len(self.hidden_dims) < 1 or any(h < 1 for h in self.hidden_dims):
            raise ContractError("at least one positive hidden layer is required")
        if self.output_head not in (SIMPLEX, LINEAR):
            raise ContractError(f"unknown output head {self.output_head!r}")

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) per layer, input to output."""
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    def param_count(self) -> int:
        return self._layout[-1][1].stop

    @cached_property
    def _layout(self) -> tuple[tuple[slice, slice, tuple[int, int]], ...]:
        """(weight slice, bias slice, weight shape) per layer of the flat vector."""
        layout = []
        pos = 0
        for out, inp in self.layer_shapes():
            w = slice(pos, pos + out * inp)
            pos += out * inp
            layout.append((w, slice(pos, pos + out), (out, inp)))
            pos += out
        return tuple(layout)


def init_params(spec: MlpSpec, seed: int) -> np.ndarray:
    """Uniform fan-balanced weight init, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    chunks = []
    for out, inp in spec.layer_shapes():
        limit = np.sqrt(6.0 / (inp + out))
        chunks.append(rng.uniform(-limit, limit, size=out * inp))
        chunks.append(np.zeros(out))
    return np.concatenate(chunks)


def unflatten(params: np.ndarray, spec: MlpSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(..., P) stack -> [(W (..., out, in), b (..., out))] views, read-only by convention."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim < 1 or params.shape[-1] != spec.param_count():
        raise ContractError(f"parameter shape {params.shape} does not end in {spec.param_count()}")
    lead = params.shape[:-1]
    return [(params[..., w].reshape(*lead, *shape), params[..., b])
            for w, b, shape in spec._layout]


def _forward_cached(layers, spec, x):
    """Batched forward pass of a (..., P) stack's unflatten views; returns (output, cache).

    Each (..., n, input_dim) input row gives a (..., n, output_dim)
    output row per network of the stack, broadcasting leading axes. The
    cache holds (weight view, layer input, layer output) per layer,
    input to output: all that _backward needs.
    """
    cache = []
    a = x
    for w, b in layers[:-1]:
        h = a @ w.swapaxes(-1, -2)
        h += b[..., None, :]
        np.tanh(h, out=h)
        cache.append((w, a, h))
        a = h
    w, b = layers[-1]
    y = a @ w.swapaxes(-1, -2)
    y += b[..., None, :]
    if spec.output_head == SIMPLEX:
        # Row-wise normalized exponential, shifted by the row maximum.
        y -= np.maximum.reduce(y, axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= np.add.reduce(y, axis=-1, keepdims=True)
    cache.append((w, a, y))
    return y, cache


def _backward(spec, cache, upstream, grads, to_input):
    """Vector-Jacobian product from a _forward_cached cache.

    upstream is d(objective)/d(output), shape (..., batch, output_dim).
    Writes the parameter gradient into grads, the unflatten views of a
    buffer of the stack's shape, unless grads is None; returns the
    gradient w.r.t. the input rows if to_input, else None.
    """
    g = upstream
    for i in range(len(cache) - 1, -1, -1):
        w, a_in, out = cache[i]
        if i < len(cache) - 1:
            d = out * out  # through tanh: dz = g * (1 - h^2)
            np.subtract(1.0, d, out=d)
            g = np.multiply(g, d, out=d)
        elif spec.output_head == SIMPLEX:
            # Through the normalized-exponential head: dz = y * (u - <u, y>).
            g = out * (g - np.add.reduce(g * out, axis=-1, keepdims=True))
        if grads is not None:
            g_w, g_b = grads[i]
            np.matmul(g.swapaxes(-1, -2), a_in, out=g_w)
            np.add.reduce(g, axis=-2, out=g_b)
        if i or to_input:
            g = g @ w
    return g if to_input else None


def _as_batch(spec: MlpSpec, x) -> np.ndarray:
    """x as a float64 (n, input_dim) matrix, or ContractError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ContractError(f"expected input of shape (n, {spec.input_dim}), got {x.shape}")
    return x


def _as_vector(spec: MlpSpec, params) -> np.ndarray:
    """params as one float64 network of spec, not a stack, or ContractError."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.param_count(),):
        raise ContractError(
            f"expected parameter shape ({spec.param_count()},), got {params.shape}"
        )
    return params


def forward_batch(params: np.ndarray, spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    """Forward of a (..., P) stack, or its unflatten views, over a (batch, input_dim) matrix."""
    if not isinstance(params, list):
        params = unflatten(params, spec)
    return _forward_cached(params, spec, _as_batch(spec, x))[0]


def forward_actor(params: np.ndarray, spec: MlpSpec, state: np.ndarray) -> np.ndarray:
    """Greedy allocation of one actor, its (P,) vector or its unflatten views, on one state.

    A one-row pass under the caller's numpy error state; a non-finite
    allocation raises NumericError.
    """
    if spec.output_head != SIMPLEX:
        raise ContractError("forward_actor requires a simplex output head")
    if not isinstance(params, list):
        params = unflatten(_as_vector(spec, params), spec)
    y = _forward_cached(params, spec, state[None])[0][0]
    if not np.isfinite(y).all():
        raise NumericError("actor produced a non-finite allocation")
    return y


def forward_population(genomes: np.ndarray, spec: MlpSpec, states: np.ndarray) -> np.ndarray:
    """Simplex-head forward pass of every genome row on every state: (N, T, output_dim).

    The (N, 1, P) genome stack meets the states as (T, 1, input_dim)
    batches of one row, so every row makes the (1, d) @ (d, k) BLAS call
    of a one-row forward_batch, and action [i, t] equals a forward_actor
    call bit for bit.
    """
    if spec.output_head != SIMPLEX:
        raise ContractError("forward_population requires a simplex output head")
    genomes = np.asarray(genomes, dtype=np.float64)
    if genomes.ndim != 2 or genomes.shape[1] != spec.param_count():
        raise ContractError(
            f"expected genomes of shape (n, {spec.param_count()}), got {genomes.shape}"
        )
    layers = unflatten(genomes[:, None], spec)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        y = _forward_cached(layers, spec, _as_batch(spec, states)[:, None, :])[0]
    if not np.isfinite(y).all():
        raise NumericError("actor produced a non-finite allocation")
    return y[:, :, 0]


def vjp_batch(
    params: np.ndarray, spec: MlpSpec, x: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vector-Jacobian product of the forward map over a batch.

    upstream is d(objective)/d(output), shape (batch, output_dim).
    Returns (flat parameter gradient, gradient w.r.t. the input rows).
    """
    x = _as_batch(spec, x)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (x.shape[0], spec.output_dim):
        raise ContractError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"({x.shape[0]}, {spec.output_dim})"
        )
    _, cache = _forward_cached(unflatten(params, spec), spec, x)
    grad = np.empty(np.shape(params))
    return grad, _backward(spec, cache, upstream, unflatten(grad, spec), True)


@dataclass(frozen=True)
class ActorPolicy:
    """A deployable allocation policy: spec plus flat parameters."""

    spec: MlpSpec
    params: np.ndarray

    def act(self, states: np.ndarray) -> np.ndarray:
        """Greedy allocation of each row of a (T, input_dim) stack of states."""
        return forward_population(self.params[None], self.spec, states)[0]


# -- checkpoint persistence --------------------------------------------------

_HEAD_CODES = {LINEAR: 0, SIMPLEX: 1}
_HEAD_NAMES = {v: k for k, v in _HEAD_CODES.items()}


def save_checkpoint(path: str | Path, spec: MlpSpec, params: np.ndarray) -> None:
    """Binary little-endian checkpoint: dims header + flat float64 params."""
    params = _as_vector(spec, params)
    header = struct.pack(
        f"<4sIBII{len(spec.hidden_dims)}IIQ",
        _CKPT_MAGIC,
        _CKPT_VERSION,
        _HEAD_CODES[spec.output_head],
        spec.input_dim,
        len(spec.hidden_dims),
        *spec.hidden_dims,
        spec.output_dim,
        params.size,
    )
    with atomic_open(path, "wb") as fh:
        fh.write(header + params.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[MlpSpec, np.ndarray]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ArtifactError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        magic, version, head, input_dim, n_hidden = struct.unpack_from("<4sIBII", blob)
        if magic != _CKPT_MAGIC:
            raise ArtifactError(f"{path}: not a parameter checkpoint")
        if version != _CKPT_VERSION:
            raise ArtifactError(f"{path}: unsupported checkpoint version {version}")
        offset = struct.calcsize("<4sIBII")
        hidden = struct.unpack_from(f"<{n_hidden}I", blob, offset)
        offset += 4 * n_hidden
        output_dim, count = struct.unpack_from("<IQ", blob, offset)
        offset += struct.calcsize("<IQ")
        params = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).astype(
            np.float64
        )
        spec = MlpSpec(input_dim, hidden, output_dim, _HEAD_NAMES[head])
    except ArtifactError:
        raise
    except (struct.error, ValueError, OverflowError, KeyError) as exc:
        raise ArtifactError(f"{path}: corrupt checkpoint ({exc})") from exc
    if params.size != spec.param_count() or offset + 8 * count != len(blob):
        raise ArtifactError(f"{path}: checkpoint payload does not match its header")
    return spec, params


def export_json(path: str | Path, spec: MlpSpec, params: np.ndarray) -> None:
    """Human-inspectable mirror of the binary checkpoint: the spec's fields and the params."""
    write_json(path, asdict(spec) | {"params": _as_vector(spec, params).tolist()})
