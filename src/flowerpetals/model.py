"""HiGCN: learnable per-petal polynomial filters with exact gradients.

The forward pass realizes, per petal order p, a filtered sum
sum_k gamma[p,k] * (A_p^k X) pushed through a per-petal linear (or
linear-rectifier-linear) transform; petal outputs are concatenated and
mapped by one output matrix. Gradients are hand-derived reverse-mode
through a short tape; no autodiff framework is involved.

The passes take a stack (:func:`stack_params`) of parameter sets of one
shape that train on the same features, and read the feature tensor once
for every set; every result keeps the seed axis. A single set is the
stored form: what :func:`init_params`, :meth:`HigcnParams.unstack` and the
checkpoints give, and a pass runs it as ``stack_params([params])``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .complexes import DataError
from .linalg import _fields_equal
from .operators import PropagatedFeatures

__all__ = [
    "HigcnParams",
    "ForwardTape",
    "AdamState",
    "init_params",
    "stack_params",
    "forward",
    "forward_embedding",
    "nll",
    "nll_loss",
    "l1_loss",
    "pooled_nll_loss",
    "backprop",
    "loss_and_grad",
    "signal_forward",
    "readout_forward",
    "readout_loss_and_grad",
    "predict_graph_labels",
    "adam_step",
    "strength",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = "flowerpetals-checkpoint-v1"
# header keys in init_params argument order
_HEADER_KEYS = ("p_max", "k_max", "d", "h", "c", "alpha", "seed", "depth")


def _checked_size(p_max, k_max, d, h, c, alpha, seed, depth) -> int:
    """The number of parameters the header fields describe; ValueError when
    they describe no valid parameter set."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if min(p_max, k_max + 1, d, h, c) < 1:
        raise ValueError("all dimensions must be >= 1")
    if depth not in (1, 2):
        raise ValueError("depth must be 1 or 2")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return p_max * (k_max + 1 + d * h + (depth - 1) * h * h + h * c)


def _views(params: "HigcnParams", flat: np.ndarray):
    """``gamma``, ``theta`` and ``w`` as reshaped views of a vector in the
    layout of ``params``, or of a stack of such vectors (S, size), whose
    views then lead with the seed axis. Each petal stores its transforms in
    one block; ``theta[i]`` is the strided (P, rows, cols) view of the i-th
    transform across those blocks."""
    lead, p_max, d, h = flat.shape[:-1], params.p_max, params.d, params.h
    head = p_max * (params.k_max + 1)
    size = d * h + (params.depth - 1) * h * h
    blocks = flat[..., head : head + p_max * size].reshape(*lead, p_max, size)
    theta = (blocks[..., : d * h].reshape(*lead, p_max, d, h),)
    if params.depth == 2:
        theta += (blocks[..., d * h :].reshape(*lead, p_max, h, h),)
    w = flat[..., head + p_max * size :].reshape(*lead, p_max * h, params.c)
    return flat[..., :head].reshape(*lead, p_max, params.k_max + 1), theta, w


@dataclass(frozen=True, eq=False)
class HigcnParams:
    """Trainable parameter set, or a stack of S sets of one shape; the
    passes take only stacks, and a single set is the stored form.

    The checkpoint header fields, and one read-only float64 vector ``flat``
    that stores every parameter in the checkpoint's order: gamma, then one
    block of transforms per petal, then w. ``gamma`` (P x (K+1)), ``theta``
    and ``w`` (which maps the concatenated petal outputs, P*h, to C outputs)
    are reshaped views of ``flat``. ``theta`` holds one stack per transform,
    ``theta[0]`` of shape (P, d, h) and, at depth 2, ``theta[1]`` of shape
    (P, h, h); ``theta[i][p]`` is petal p+1's i-th transform. A gradient is
    a plain vector in the layout of ``flat``; ``replace(params, flat=grad)``
    names its parts.

    A stack (:func:`stack_params`) holds a tuple of S seeds, and ``flat``
    holds one row per seed, (S, size); every view then leads with the seed
    axis. :meth:`unstack` gives the sets back.
    """

    p_max: int
    k_max: int
    d: int
    h: int
    c: int
    alpha: float
    seed: int | tuple[int, ...]
    depth: int
    flat: np.ndarray
    gamma: np.ndarray = field(init=False, repr=False, compare=False)
    theta: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)

    __eq__ = _fields_equal

    def __post_init__(self):
        stacked = isinstance(self.seed, tuple)
        seeds = self.seed if stacked else (self.seed,)
        if not seeds:
            raise ValueError("a stack holds at least one seed")
        header = {key: getattr(self, key) for key in _HEADER_KEYS}
        size = max(_checked_size(**{**header, "seed": seed}) for seed in seeds)
        flat = np.array(self.flat, dtype=np.float64)  # never freeze the caller's array
        if flat.shape != ((len(seeds), size) if stacked else (size,)):
            each = f" for each of {len(seeds)} seeds" if stacked else ""
            raise ValueError(f"flat must hold {size} parameters{each}, got shape {flat.shape}")
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)
        for name, view in zip(("gamma", "theta", "w"), _views(self, flat)):
            object.__setattr__(self, name, view)

    def named_arrays(self):
        """Yield (name, array) pairs in storage order."""
        yield "gamma", self.gamma
        for p in range(self.p_max):
            for i, stack in enumerate(self.theta, start=1):
                yield f"theta{i}_p{p + 1}", stack[..., p, :, :]
        yield "w", self.w

    def unstack(self) -> list["HigcnParams"]:
        """The parameter sets of a stack, in seed order."""
        return [replace(self, seed=seed, flat=row) for seed, row in zip(self.seed, self.flat)]


def stack_params(sets) -> HigcnParams:
    """One stack of parameter sets that share every header field but the
    seed, in the order given."""
    sets = list(sets)
    header = [tuple(getattr(p, key) for key in _HEADER_KEYS if key != "seed") for p in sets]
    if len(set(header)) != 1:
        raise ValueError("a stack needs parameter sets that share every header field but the seed")
    seeds = tuple(p.seed for p in sets)
    return replace(sets[0], seed=seeds, flat=np.stack([p.flat for p in sets]))


@dataclass(frozen=True, eq=False)
class ForwardTape:
    """Intermediates of one forward pass of a stack of S seeds, kept for
    reverse mode. The petal axis leads ``filtered`` and ``act``, and the
    seed axis follows it; the seed axis leads ``z`` and ``logits``."""

    filtered: np.ndarray  # (P, S, n, d): filtered[p-1, s] = sum_k gamma[s,p,k] tensor[p-1, k]
    act: np.ndarray | None  # (P, S, n, h): max(filtered @ theta[0], 0) (depth-2 only)
    z: np.ndarray  # (S, n, P*h): the petal outputs side by side
    logits: np.ndarray  # (S, n, C)

    __eq__ = _fields_equal


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def init_params(
    p_max: int,
    k_max: int,
    d: int,
    h: int,
    c: int,
    alpha: float,
    seed: int,
    depth: int = 2,
) -> HigcnParams:
    """Seeded initialization.

    Filter rows start at the decayed profile alpha*(1-alpha)^k with the
    tail mass (1-alpha)^K on the last hop, so every row sums to exactly 1;
    transforms and the output map are Glorot-uniform, drawn in storage
    order.
    """
    _checked_size(p_max, k_max, d, h, c, alpha, seed, depth)
    row = np.empty(k_max + 1)
    decay = 1.0
    for k in range(k_max):
        row[k] = alpha * decay
        decay *= 1.0 - alpha
    # remaining geometric mass; equals (1-alpha)^K and keeps the row sum exact
    row[k_max] = 1.0 - row[:k_max].sum()
    rng = np.random.default_rng(seed)
    shapes = [(d, h), (h, h)][:depth] * p_max + [(p_max * h, c)]
    flat = np.concatenate([np.tile(row, p_max), *(_glorot(rng, *s).ravel() for s in shapes)])
    return HigcnParams(p_max, k_max, d, h, c, alpha, seed, depth, flat)


def _check_compat(params: HigcnParams, feats: PropagatedFeatures) -> None:
    if params.flat.ndim != 2:
        raise ValueError("the passes take a stack; run a single set as stack_params([params])")
    p_max, hops, _, d = feats.tensor.shape
    if p_max < params.p_max:
        raise ValueError(f"features cover petals up to {p_max}, params need {params.p_max}")
    if hops <= params.k_max:
        raise ValueError(f"features cover hops up to {hops - 1}, params need {params.k_max}")
    if d != params.d:
        raise ValueError(f"feature width {d} != transform input width {params.d}")


def forward_embedding(params: HigcnParams, feats: PropagatedFeatures) -> ForwardTape:
    """Run the petal filters and transforms of every seed of the stack
    ``params`` up to the concatenation Z and the logits."""
    _check_compat(params, feats)
    p_max, hops, n, d = params.p_max, params.k_max + 1, feats.n, feats.d
    gamma, theta, w = params.gamma, params.theta, params.w
    seeds = len(params.flat)
    # one BLAS product per petal for every seed, which reads the tensor once:
    # a GEMV for one seed, a GEMM for more (whose rows differ from the GEMV's
    # in the last bits). Each output entry adds its hops in an order that does
    # not depend on the thread count. The slice reshapes as a view, so the
    # tensor is never copied
    tensor = feats.tensor[:p_max, :hops].reshape(p_max, hops, n * d)
    filtered = (gamma.swapaxes(0, 1) @ tensor).reshape(p_max, seeds, n, d)
    theta = [t.swapaxes(0, 1) for t in theta]  # (P, S, rows, cols)
    # the petal outputs are written in place into their h columns of z
    z = np.empty((seeds, n, p_max * params.h))
    out = z.reshape(seeds, n, p_max, params.h).transpose(2, 0, 1, 3)
    act = None
    if params.depth == 2:
        act = filtered @ theta[0]  # one GEMM per petal and seed, as each product below
        np.matmul(np.maximum(act, 0.0, out=act), theta[1], out=out)
    else:
        np.matmul(filtered, theta[0], out=out)
    return ForwardTape(filtered, act, z, z @ w)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-probabilities (max-shifted softmax)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def forward(
    params: HigcnParams, feats: PropagatedFeatures
) -> tuple[ForwardTape, np.ndarray]:
    """Full forward pass to row-wise log-probabilities."""
    tape = forward_embedding(params, feats)
    return tape, _log_softmax(tape.logits)


def nll(log_probs: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Mean negative log-likelihood over the masked rows."""
    return -float(log_probs[mask, labels[mask]].mean())


def nll_loss(log_probs: np.ndarray, labels: np.ndarray, mask) -> tuple[float, np.ndarray]:
    """:func:`nll` over the masked rows, and its gradient at the logits
    (zero on the other rows)."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must select at least one row")
    labels = np.asarray(labels, dtype=np.int64)
    picked = labels[mask]
    c = log_probs.shape[1]
    if picked.min() < 0 or picked.max() >= c:
        raise ValueError(f"labels on the mask must lie in [0, {c})")
    m = len(mask)
    loss = nll(log_probs, labels, mask)
    softmax = np.exp(log_probs[mask])
    softmax[np.arange(m), picked] -= 1.0
    dlogits = np.zeros_like(log_probs)
    dlogits[mask] = softmax / m
    return loss, dlogits


def l1_loss(pred: np.ndarray, targets: np.ndarray, mask) -> tuple[float, np.ndarray]:
    """Mean absolute error of the identity-head output ``pred`` on the
    masked entries, and its gradient at the (n x 1) logits.

    Regression variant used for signal imputation: C = 1 and no softmax.
    """
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must select at least one node")
    targets = np.asarray(targets, dtype=np.float64)
    resid = pred[mask] - targets[mask]
    dlogits = np.zeros((len(pred), 1))
    dlogits[mask, 0] = np.sign(resid) / len(mask)
    return float(np.abs(resid).mean()), dlogits


def pooled_nll_loss(
    pooled: np.ndarray, sizes, labels: np.ndarray, mask: np.ndarray, readout: str
) -> tuple[float, np.ndarray]:
    """:func:`nll` of the pooled logits of :func:`readout_forward` over the
    masked graphs, and its gradient at the node logits."""
    sizes = np.asarray(sizes, dtype=np.int64)
    loss, dpooled = nll_loss(_log_softmax(pooled), labels, mask)
    if readout == "mean":
        dpooled /= sizes[:, None]
    return loss, np.repeat(dpooled, sizes, axis=0)


def backprop(
    params: HigcnParams, feats: PropagatedFeatures, tape: ForwardTape, loss,
    dlogits: np.ndarray, weight_decay: float = 0.0, decay_gamma: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse pass from each seed's task loss and its gradient at the
    logits, (S, n, C), for the ``tape`` of a forward at the stack
    ``params``: each seed's loss plus its L2 decay
    ``weight_decay / 2 * |params|^2``, as an array, and the gradient of
    that sum in the layout of ``params.flat``, (S, size).

    The decay skips gamma unless ``decay_gamma`` is set: filter magnitudes
    carry the interaction strength reading and are not shrunk by default.
    """
    _check_compat(params, feats)
    gamma, theta, w = params.gamma, params.theta, params.w
    grad = np.empty_like(params.flat)
    dgamma, dtheta, dw = _views(params, grad)
    dw[...] = tape.z.swapaxes(1, 2) @ dlogits + weight_decay * w
    p_max, hops, seeds = params.p_max, params.k_max + 1, len(grad)
    theta, dtheta = [t.swapaxes(0, 1) for t in theta], [t.swapaxes(0, 1) for t in dtheta]
    # each petal's h columns of dlogits @ w.T, as a (P, S, n, h) view
    dy = (dlogits @ w.swapaxes(1, 2)).reshape(seeds, -1, p_max, params.h).transpose(2, 0, 1, 3)
    if params.depth == 2:
        dtheta[1][...] = tape.act.swapaxes(2, 3) @ dy + weight_decay * theta[1]
        dy = dy @ theta[1].swapaxes(2, 3)
        # the rectifier's mask as an in-place product, several times faster
        # than a select; a masked entry is -0.0 where the product is negative
        dy *= tape.act > 0.0
    dtheta[0][...] = tape.filtered.swapaxes(2, 3) @ dy + weight_decay * theta[0]
    dfiltered = dy @ theta[0].swapaxes(2, 3)
    # one BLAS product per petal for every seed, which reads the tensor once:
    # a GEMV for one seed, a GEMM for more. Past some size the GEMV's bits
    # depend on the BLAS thread count, as the weight gradients' above already do
    tensor = feats.tensor[:p_max, :hops].reshape(p_max, hops, -1)
    dgamma.transpose(1, 2, 0)[...] = tensor @ dfiltered.reshape(p_max, seeds, -1).swapaxes(1, 2)
    # added in storage order, petal by petal, which fixes the loss's last bits
    squares = np.stack([np.sum(t * t, axis=(2, 3)) for t in theta], axis=2)
    reg = np.array([sum(squares[:, s].ravel().tolist()) for s in range(seeds)])
    reg += np.sum(w * w, axis=(1, 2))
    if decay_gamma:
        dgamma += weight_decay * gamma
        reg += np.sum(gamma * gamma, axis=(1, 2))
    return loss + 0.5 * weight_decay * reg, grad


def loss_and_grad(
    params: HigcnParams,
    feats: PropagatedFeatures,
    labels: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
    decay_gamma: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked mean negative log-likelihood plus L2 decay, and its exact
    gradient, for each seed of the stack ``params``: ``mask`` holds one
    mask per seed, and :func:`backprop` says what the results hold."""
    tape, log_probs = forward(params, feats)
    per_seed = (nll_loss(lp, labels, m) for lp, m in zip(log_probs, mask, strict=True))
    return backprop(params, feats, tape, *map(np.array, zip(*per_seed)), weight_decay, decay_gamma)


def signal_forward(
    params: HigcnParams, feats: PropagatedFeatures
) -> tuple[ForwardTape, np.ndarray]:
    """Forward pass to the identity-head output (one scalar per node)."""
    tape = forward_embedding(params, feats)
    return tape, tape.logits[..., 0]


def readout_forward(
    params: HigcnParams, feats: PropagatedFeatures, sizes, readout: str
) -> tuple[ForwardTape, np.ndarray]:
    """Forward pass over a disjoint union whose graphs hold ``sizes``
    consecutive rows, to each graph's pooled logits: the segment sum of its
    node logits, or their mean.

    Pooling the logits equals pooling Z first, since the output map is
    linear.
    """
    if readout not in ("mean", "sum"):
        raise ValueError("readout must be 'mean' or 'sum'")
    tape = forward_embedding(params, feats)
    n = tape.logits.shape[-2]
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or not len(sizes) or sizes.min() < 1 or sizes.sum() != n:
        raise ValueError(f"graph sizes must be positive and sum to {n} nodes")
    pooled = np.add.reduceat(tape.logits, np.cumsum(sizes) - sizes, axis=-2)
    return tape, (pooled / sizes[:, None] if readout == "mean" else pooled)


def readout_loss_and_grad(
    params: HigcnParams, feats: PropagatedFeatures, sizes, labels: np.ndarray, mask,
    readout: str, weight_decay: float = 0.0, decay_gamma: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Graph classification on a disjoint union of graphs with ``sizes``
    nodes each: pooled logits, mean NLL over the masked graphs, L2 decay,
    and the gradient, for each seed of the stack ``params``, as
    :func:`loss_and_grad` gives them; ``mask`` holds one mask per seed."""
    tape, pooled = readout_forward(params, feats, sizes, readout)
    per_seed = (pooled_nll_loss(p, sizes, labels, m, readout)
                for p, m in zip(pooled, mask, strict=True))
    return backprop(params, feats, tape, *map(np.array, zip(*per_seed)), weight_decay, decay_gamma)


def predict_graph_labels(
    params: HigcnParams, feats: PropagatedFeatures, sizes, readout: str
) -> np.ndarray:
    """Predicted class of every graph of a disjoint union, for each seed."""
    return np.argmax(readout_forward(params, feats, sizes, readout)[1], axis=-1)


@dataclass
class AdamState:
    """First and second moment vectors, in the layout of ``flat``, and the
    step counter."""

    t: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros_like(cls, params: HigcnParams) -> "AdamState":
        return cls(0, np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(
    params: HigcnParams,
    g: np.ndarray,
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> tuple[HigcnParams, AdamState]:
    """One bias-corrected Adam update over the whole parameter vector, from
    the gradient ``g`` in the layout of ``params.flat`` (as :func:`backprop`
    returns it); returns fresh params and state."""
    b1, b2 = betas
    t = state.t + 1
    m = b1 * state.m + (1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    flat = params.flat - lr * m_hat / (np.sqrt(v_hat) + eps)
    return replace(params, flat=flat), AdamState(t, m, v)


def strength(params: HigcnParams) -> np.ndarray:
    """Per-order interaction strength: row-wise absolute sum of the filters."""
    return np.abs(params.gamma).sum(axis=-1)


def save_checkpoint(params: HigcnParams, path) -> None:
    """JSON header line plus the flat little-endian float64 parameter block."""
    if params.flat.ndim != 1:
        raise ValueError("a checkpoint holds one parameter set; unstack a stack first")
    header = {key: getattr(params, key) for key in _HEADER_KEYS}
    header["magic"] = CHECKPOINT_MAGIC
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> HigcnParams:
    """The parameters of a :func:`save_checkpoint` file. The header is
    checked, and the block's length against it, before anything is read
    into arrays."""
    with open(path, "rb") as fh:
        line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError:
        raise DataError(f"{path}: checkpoint header is not UTF-8 JSON") from None
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a model checkpoint")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise DataError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    values = [header[key] for key in _HEADER_KEYS]
    for key, value in zip(_HEADER_KEYS, values):
        # by type, not isinstance: JSON true and false load as a subclass of int
        if type(value) not in ((int, float) if key == "alpha" else (int,)):
            kind = "a number" if key == "alpha" else "an integer"
            raise DataError(f"{path}: checkpoint header {key} must be {kind}, got {value!r}")
    try:
        size = _checked_size(*values)
    except ValueError as exc:
        raise DataError(f"{path}: bad checkpoint header ({exc})") from None
    if len(blob) != 8 * size:
        raise DataError(f"{path}: parameter block size mismatch")
    return HigcnParams(*values, np.frombuffer(blob, dtype="<f8"))
