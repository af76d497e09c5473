"""HiGCN: learnable per-petal polynomial filters with exact gradients.

The forward pass realizes, per petal order p, a filtered sum
sum_k gamma[p,k] * (A_p^k X) pushed through a per-petal linear (or
linear-rectifier-linear) transform; petal outputs are concatenated and
mapped by one output matrix. Gradients are hand-derived reverse-mode
through a short tape; no autodiff framework is involved.
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
    "forward",
    "forward_embedding",
    "nll",
    "nll_grad",
    "loss_and_grad",
    "signal_forward",
    "l1_grad",
    "l1_loss_and_grad",
    "readout_forward",
    "readout_grad",
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


@dataclass(frozen=True, eq=False)
class HigcnParams:
    """Trainable parameter set (also used as the gradient container).

    ``gamma`` is P x (K+1); ``theta`` holds per-petal transforms, each a
    tuple of one (d x h) or two (d x h, h x h) matrices; ``w`` maps the
    concatenated petal outputs (P*h) to C outputs.
    """

    p_max: int
    k_max: int
    alpha: float
    gamma: np.ndarray
    theta: tuple[tuple[np.ndarray, ...], ...]
    w: np.ndarray
    seed: int = 0

    __eq__ = _fields_equal

    def __post_init__(self):
        gamma = np.ascontiguousarray(self.gamma, dtype=np.float64)
        if gamma.shape != (self.p_max, self.k_max + 1):
            raise ValueError(f"gamma must be P x (K+1), got {gamma.shape}")
        if len(self.theta) != self.p_max:
            raise ValueError("one theta transform required per petal")
        depth = len(self.theta[0])
        if depth not in (1, 2) or any(len(t) != depth for t in self.theta):
            raise ValueError("theta transforms must all have depth 1 or 2")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(
            self,
            "theta",
            tuple(
                tuple(np.ascontiguousarray(m, dtype=np.float64) for m in t)
                for t in self.theta
            ),
        )
        object.__setattr__(self, "w", np.ascontiguousarray(self.w, dtype=np.float64))

    @property
    def depth(self) -> int:
        return len(self.theta[0])

    @property
    def dims(self) -> tuple[int, int, int]:
        """(input width d, petal output width h, output count C)."""
        d = self.theta[0][0].shape[0]
        h = self.theta[0][-1].shape[1]
        return d, h, self.w.shape[1]

    def named_arrays(self):
        """Yield (name, array) pairs in a fixed serialization order."""
        yield "gamma", self.gamma
        for p, mats in enumerate(self.theta, start=1):
            for i, m in enumerate(mats, start=1):
                yield f"theta{i}_p{p}", m
        yield "w", self.w

    def map_arrays(self, fn) -> "HigcnParams":
        """Structure-preserving map over every parameter array."""
        return replace(
            self,
            gamma=fn("gamma", self.gamma),
            theta=tuple(
                tuple(
                    fn(f"theta{i}_p{p}", m)
                    for i, m in enumerate(mats, start=1)
                )
                for p, mats in enumerate(self.theta, start=1)
            ),
            w=fn("w", self.w),
        )


@dataclass(frozen=True, eq=False)
class ForwardTape:
    """Intermediates of one forward pass, kept for reverse mode."""

    filtered: np.ndarray  # (P, n, d): filtered[p-1] = sum_k gamma[p,k] tensor[p-1, k]
    pre: tuple[np.ndarray, ...] | None  # per petal, pre-rectifier (depth-2 only)
    z: np.ndarray  # concatenated petal outputs
    logits: np.ndarray

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
    transforms and the output map are Glorot-uniform.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if min(p_max, k_max + 1, d, h, c) < 1:
        raise ValueError("all dimensions must be >= 1")
    if depth not in (1, 2):
        raise ValueError("depth must be 1 or 2")
    row = np.empty(k_max + 1)
    decay = 1.0
    for k in range(k_max):
        row[k] = alpha * decay
        decay *= 1.0 - alpha
    # remaining geometric mass; equals (1-alpha)^K and keeps the row sum exact
    row[k_max] = 1.0 - row[:k_max].sum()
    gamma = np.tile(row, (p_max, 1))

    rng = np.random.default_rng(seed)
    theta = []
    for _ in range(p_max):
        if depth == 1:
            theta.append((_glorot(rng, d, h),))
        else:
            theta.append((_glorot(rng, d, h), _glorot(rng, h, h)))
    w = _glorot(rng, p_max * h, c)
    return HigcnParams(p_max, k_max, alpha, gamma, tuple(theta), w, seed)


def _check_compat(params: HigcnParams, feats: PropagatedFeatures) -> None:
    p_max, hops, _, d = feats.tensor.shape
    if p_max < params.p_max:
        raise ValueError(f"features cover petals up to {p_max}, params need {params.p_max}")
    if hops <= params.k_max:
        raise ValueError(f"features cover hops up to {hops - 1}, params need {params.k_max}")
    if d != params.dims[0]:
        raise ValueError(f"feature width {d} != transform input width {params.dims[0]}")


def forward_embedding(params: HigcnParams, feats: PropagatedFeatures) -> ForwardTape:
    """Run the petal filters and transforms up to the concatenation Z and
    the logits."""
    _check_compat(params, feats)
    # the unoptimized einsum adds the hops in order, as a loop would; an
    # optimized path goes through BLAS and drifts in the last bits
    tensor = feats.tensor[: params.p_max, : params.k_max + 1]
    filtered = np.einsum("pk,pknd->pnd", params.gamma, tensor)
    if params.depth == 2:
        pre = tuple(s @ t[0] for s, t in zip(filtered, params.theta))
        outs = [np.maximum(a, 0.0) @ t[1] for a, t in zip(pre, params.theta)]
    else:
        pre = None
        outs = [s @ t[0] for s, t in zip(filtered, params.theta)]
    z = np.hstack(outs)
    return ForwardTape(filtered=filtered, pre=pre, z=z, logits=z @ params.w)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-probabilities (max-shifted softmax)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(
    params: HigcnParams, feats: PropagatedFeatures
) -> tuple[ForwardTape, np.ndarray]:
    """Full forward pass to row-wise log-probabilities."""
    tape = forward_embedding(params, feats)
    return tape, _log_softmax(tape.logits)


def nll(log_probs: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Mean negative log-likelihood over the masked rows."""
    return -float(log_probs[mask, labels[mask]].mean())


def _masked_nll(
    log_probs: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
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


def _backprop(
    params: HigcnParams,
    feats: PropagatedFeatures,
    tape: ForwardTape,
    dlogits: np.ndarray,
    weight_decay: float,
    decay_gamma: bool = False,
) -> HigcnParams:
    """Reverse pass from the loss gradient at the logits.

    Weight decay is applied to theta and w only unless ``decay_gamma`` is
    set: filter magnitudes carry the interaction strength reading and are
    not shrunk by default.
    """
    dw = tape.z.T @ dlogits + weight_decay * params.w
    _, h, _ = params.dims
    dgamma = np.zeros_like(params.gamma)
    dtheta = []
    for i, mats in enumerate(params.theta):
        # this petal's columns of dlogits @ w.T, without the full product
        dy = dlogits @ params.w[i * h : (i + 1) * h].T
        if params.depth == 2:
            pre = tape.pre[i]
            dt2 = np.maximum(pre, 0.0).T @ dy + weight_decay * mats[1]
            dact = dy @ mats[1].T
            dpre = np.where(pre > 0.0, dact, 0.0)
            dt1 = tape.filtered[i].T @ dpre + weight_decay * mats[0]
            dfiltered = dpre @ mats[0].T
            dtheta.append((dt1, dt2))
        else:
            dt1 = tape.filtered[i].T @ dy + weight_decay * mats[0]
            dfiltered = dy @ mats[0].T
            dtheta.append((dt1,))
        # one reduction per hop: an einsum or matrix product here drifts
        for k in range(params.k_max + 1):
            dgamma[i, k] = np.sum(feats.tensor[i, k] * dfiltered)
    if decay_gamma:
        dgamma += weight_decay * params.gamma
    return replace(params, gamma=dgamma, theta=tuple(dtheta), w=dw)


def _decay_term(params: HigcnParams, weight_decay: float, decay_gamma: bool) -> float:
    reg = sum(float(np.sum(m * m)) for t in params.theta for m in t)
    reg += float(np.sum(params.w * params.w))
    if decay_gamma:
        reg += float(np.sum(params.gamma * params.gamma))
    return 0.5 * weight_decay * reg


def nll_grad(
    params: HigcnParams, feats: PropagatedFeatures, tape: ForwardTape, log_probs: np.ndarray,
    labels: np.ndarray, mask: np.ndarray, weight_decay: float = 0.0, decay_gamma: bool = False,
) -> tuple[float, HigcnParams]:
    """:func:`loss_and_grad` from the tape and log-probabilities of an
    existing :func:`forward` at ``params``."""
    loss, dlogits = _masked_nll(log_probs, labels, mask)
    loss += _decay_term(params, weight_decay, decay_gamma)
    return loss, _backprop(params, feats, tape, dlogits, weight_decay, decay_gamma)


def loss_and_grad(
    params: HigcnParams,
    feats: PropagatedFeatures,
    labels: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
    decay_gamma: bool = False,
) -> tuple[float, HigcnParams]:
    """Masked mean negative log-likelihood plus L2 decay, with exact grads."""
    tape, log_probs = forward(params, feats)
    return nll_grad(params, feats, tape, log_probs, labels, mask, weight_decay, decay_gamma)


def signal_forward(
    params: HigcnParams, feats: PropagatedFeatures
) -> tuple[ForwardTape, np.ndarray]:
    """Forward pass to the identity-head output (one scalar per node)."""
    tape = forward_embedding(params, feats)
    return tape, tape.logits[:, 0]


def l1_grad(
    params: HigcnParams, feats: PropagatedFeatures, tape: ForwardTape, pred: np.ndarray,
    targets: np.ndarray, mask: np.ndarray, weight_decay: float = 0.0,
) -> tuple[float, HigcnParams]:
    """:func:`l1_loss_and_grad` from the tape and output of an existing
    :func:`signal_forward` at ``params``."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must select at least one node")
    targets = np.asarray(targets, dtype=np.float64)
    resid = pred[mask] - targets[mask]
    loss = float(np.abs(resid).mean()) + _decay_term(params, weight_decay, False)

    dlogits = np.zeros_like(tape.logits)
    dlogits[mask, 0] = np.sign(resid) / len(mask)
    return loss, _backprop(params, feats, tape, dlogits, weight_decay)


def l1_loss_and_grad(
    params: HigcnParams,
    feats: PropagatedFeatures,
    targets: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[float, HigcnParams]:
    """Mean absolute error of the identity-head output on masked entries.

    Regression variant used for signal imputation: C = 1 and no softmax.
    """
    tape, pred = signal_forward(params, feats)
    return l1_grad(params, feats, tape, pred, targets, mask, weight_decay)


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
    n = len(tape.logits)
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or not len(sizes) or sizes.min() < 1 or sizes.sum() != n:
        raise ValueError(f"graph sizes must be positive and sum to {n} nodes")
    pooled = np.add.reduceat(tape.logits, np.cumsum(sizes) - sizes, axis=0)
    return tape, (pooled / sizes[:, None] if readout == "mean" else pooled)


def readout_grad(
    params: HigcnParams, feats: PropagatedFeatures, tape: ForwardTape, pooled: np.ndarray,
    sizes, labels: np.ndarray, mask: np.ndarray, readout: str, weight_decay: float = 0.0,
) -> tuple[float, HigcnParams]:
    """:func:`readout_loss_and_grad` from the tape and pooled logits of an
    existing :func:`readout_forward` at ``params``."""
    sizes = np.asarray(sizes, dtype=np.int64)
    loss, dpooled = _masked_nll(_log_softmax(pooled), labels, mask)
    loss += _decay_term(params, weight_decay, False)
    if readout == "mean":
        dpooled /= sizes[:, None]
    dlogits = np.repeat(dpooled, sizes, axis=0)
    return loss, _backprop(params, feats, tape, dlogits, weight_decay)


def readout_loss_and_grad(
    params: HigcnParams,
    feats: PropagatedFeatures,
    sizes,
    labels: np.ndarray,
    mask: np.ndarray,
    readout: str,
    weight_decay: float = 0.0,
) -> tuple[float, HigcnParams]:
    """Graph classification on a disjoint union of graphs with ``sizes``
    nodes each: pooled logits, mean NLL over the masked graphs, L2 decay."""
    tape, pooled = readout_forward(params, feats, sizes, readout)
    return readout_grad(
        params, feats, tape, pooled, sizes, labels, mask, readout, weight_decay
    )


def predict_graph_labels(
    params: HigcnParams, feats: PropagatedFeatures, sizes, readout: str
) -> np.ndarray:
    """Predicted class of every graph of a disjoint union."""
    return np.argmax(readout_forward(params, feats, sizes, readout)[1], axis=1)


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    t: int
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def zeros_like(cls, params: HigcnParams) -> "AdamState":
        return cls(
            0,
            {name: np.zeros_like(a) for name, a in params.named_arrays()},
            {name: np.zeros_like(a) for name, a in params.named_arrays()},
        )


def adam_step(
    params: HigcnParams,
    grads: HigcnParams,
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> tuple[HigcnParams, AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    b1, b2 = betas
    t = state.t + 1
    grad_by_name = dict(grads.named_arrays())
    new_m, new_v = {}, {}

    def update(name, a):
        g = grad_by_name[name]
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * g * g
        new_m[name] = m
        new_v[name] = v
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        return a - lr * m_hat / (np.sqrt(v_hat) + eps)

    return params.map_arrays(update), AdamState(t, new_m, new_v)


def strength(params: HigcnParams) -> np.ndarray:
    """Per-order interaction strength: row-wise absolute sum of the filters."""
    return np.abs(params.gamma).sum(axis=1)


def save_checkpoint(params: HigcnParams, path) -> None:
    """JSON header line plus a flat little-endian float64 parameter block."""
    d, h, c = params.dims
    header = {
        "magic": CHECKPOINT_MAGIC,
        "p_max": params.p_max,
        "k_max": params.k_max,
        "alpha": params.alpha,
        "depth": params.depth,
        "d": d,
        "h": h,
        "c": c,
        "seed": params.seed,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in params.named_arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> HigcnParams:
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
    try:
        skeleton = init_params(*(header[key] for key in _HEADER_KEYS))
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad checkpoint header ({exc})") from None
    if len(blob) != 8 * sum(a.size for _, a in skeleton.named_arrays()):
        raise DataError(f"{path}: parameter block size mismatch")
    offset = 0

    def fill(name, a):
        nonlocal offset
        flat = np.frombuffer(blob, dtype="<f8", count=a.size, offset=offset)
        offset += a.size * 8
        return flat.reshape(a.shape).astype(np.float64)

    return skeleton.map_arrays(fill)
