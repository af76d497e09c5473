"""Reference training loops that run the model forward twice per epoch.

A direct transcription of node classification and graph classification as
they were before validation was fused into the next epoch's forward. Each
epoch takes the loss and gradients from ``loss_and_grad`` (or
``readout_loss_and_grad``), takes one Adam step, then runs a second forward
on the stepped parameters for the validation read. Node classification
runs its seeds as one stack through the model's stacked ``loss_and_grad``
and ``forward``, as the trainer does, with per-seed bookkeeping here; a
seed that stops leaves the stack. It also runs one more forward on each
seed's best parameters alone, as a stack of one, for the test accuracy.
Graph classification runs each fold's set as a stack of one.
``flowerpetals.tasks`` must give the same curves, best epochs, accuracies
and parameters bit for bit.

``layout`` reads the parameter arrays out of ``params.flat`` by a walk
over the checkpoint's storage order, gamma, then each petal's transforms,
then w; it is the reference for the views of ``HigcnParams``.

``forward_embedding`` and ``backprop`` are the model's forward and reverse
pass written petal by petal, on the matrices of ``layout``, never on the
model's own views: the filtered sums and the filter gradient
``dgamma`` as loops over the hops that start from hop 0, the rectified
activations kept, and the full ``dlogits @ w.T`` sliced per petal.
``flowerpetals.model`` adds the hops in BLAS products instead, in another
order, so its filtered sums and ``dgamma`` equal the loops' only within a
rounding tolerance (and its sums are +0.0 where every term is -0.0). Both
functions can start from given filtered sums; from the model's, every
other intermediate and gradient must match under ``np.array_equal``.

``adam_step`` is Adam per named parameter array, with its moments in
per-name dicts, as it ran before the parameters were one flat vector. The
loops here step with it, so the trainer's one-vector Adam must match it.
``map_arrays`` and ``with_arrays`` build parameter sets array by array.
"""

from dataclasses import replace

import numpy as np

from flowerpetals.complexes import clique_lift
from flowerpetals.model import (
    backprop as model_backprop,
    forward,
    init_params,
    l1_loss,
    loss_and_grad,
    predict_graph_labels,
    readout_loss_and_grad,
    signal_forward,
    stack_params,
)
from flowerpetals.operators import propagate_features
from flowerpetals.tasks import (
    MetricsReport,
    disjoint_union,
    make_splits,
    petal_features,
    petal_operators,
)


def layout(params):
    """``gamma``, per petal the tuple of its transforms, and ``w``, as views
    of ``params.flat`` taken one after another in storage order."""
    flat, offset = params.flat, 0

    def take(rows, cols):
        nonlocal offset
        offset += rows * cols
        return flat[offset - rows * cols : offset].reshape(rows, cols)

    d, h = params.d, params.h
    gamma = take(params.p_max, params.k_max + 1)
    shapes = ((d, h), (h, h))[: params.depth]
    theta = tuple(tuple(take(*s) for s in shapes) for _ in range(params.p_max))
    return gamma, theta, take(params.p_max * h, params.c)


def with_arrays(params, gamma, theta, w):
    """``params`` holding the given arrays, each of its own shape."""
    arrays = [gamma, *(m for mats in theta for m in mats), w]
    flat = np.concatenate([np.ravel(a) for a in arrays])
    out = replace(params, flat=flat)
    assert [a.shape for _, a in out.named_arrays()] == [np.shape(a) for a in arrays]
    return out


def map_arrays(params, fn):
    """``params`` with each named array replaced by ``fn(name, array)``."""
    new = {name: fn(name, a) for name, a in params.named_arrays()}
    theta = [[new[f"theta{i}_p{p}"] for i in range(1, params.depth + 1)]
             for p in range(1, params.p_max + 1)]
    return with_arrays(params, new["gamma"], theta, new["w"])


def adam_zeros(params):
    """The step counter and the zero moments of ``adam_step``."""
    zeros = {name: np.zeros_like(a) for name, a in params.named_arrays()}
    return 0, zeros, dict(zeros)


def adam_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8):
    """One bias-corrected Adam update, array by array; returns fresh params
    and state."""
    b1, b2 = betas
    t = state[0] + 1
    grad_by_name = dict(replace(params, flat=grads).named_arrays())
    new_m, new_v = {}, {}

    def update(name, a):
        g = grad_by_name[name]
        m = b1 * state[1][name] + (1.0 - b1) * g
        v = b2 * state[2][name] + (1.0 - b2) * g * g
        new_m[name] = m
        new_v[name] = v
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        return a - lr * m_hat / (np.sqrt(v_hat) + eps)

    return map_arrays(params, update), (t, new_m, new_v)


def l1_loss_and_grad(params, feats, targets, mask, weight_decay=0.0, decay_gamma=False):
    """Signal regression's L1 loss and gradient from a fresh forward, for
    each seed of the stack ``params`` on the one ``mask``."""
    tape, pred = signal_forward(params, feats)
    loss, dlogits = map(np.array, zip(*(l1_loss(p, targets, mask) for p in pred)))
    return model_backprop(params, feats, tape, loss, dlogits, weight_decay, decay_gamma)


def fit_node_params(g, cfg):
    """The report and best-epoch parameters of ``tasks.fit_node_params``."""
    complex_ = clique_lift(g, cfg.P)
    feats = petal_features(complex_, g.features, cfg.P, cfg.K)
    labels = g.labels
    splits = [make_splits(g.n, cfg.split_ratios, seed) for seed in cfg.seeds]
    params = [
        init_params(cfg.P, cfg.K, feats.d, cfg.hidden, int(labels.max()) + 1, cfg.alpha, seed,
                    cfg.theta_depth)
        for seed in cfg.seeds
    ]
    states = [adam_zeros(p) for p in params]
    best = [(np.inf, p, 0) for p in params]
    stale = [0] * len(params)
    train_curves, val_curves = [[] for _ in params], [[] for _ in params]
    live = list(range(len(params)))  # the seeds still training, in stack order
    for epoch in range(cfg.resolved_epochs):
        losses, grads = loss_and_grad(
            stack_params(params[i] for i in live), feats, labels,
            [splits[i].train for i in live], cfg.weight_decay, cfg.decay_gamma,
        )
        for row, i in enumerate(live):
            params[i], states[i] = adam_step(params[i], grads[row], states[i], cfg.lr)
        _, log_probs = forward(stack_params(params[i] for i in live), feats)
        for row, i in enumerate(list(live)):
            val = splits[i].val
            val_loss = -float(log_probs[row][val, labels[val]].mean())
            train_curves[i].append(float(losses[row]))
            val_curves[i].append(val_loss)
            if val_loss < best[i][0]:
                best[i] = (val_loss, params[i], epoch)
                stale[i] = 0
            else:
                stale[i] += 1
                if stale[i] > cfg.patience:
                    live.remove(i)
        if not live:
            break
    runs = []
    for i, seed in enumerate(cfg.seeds):
        test = splits[i].test
        pred = np.argmax(forward(stack_params([best[i][1]]), feats)[1][0][test], axis=1)
        acc = float(np.mean(pred == labels[test]))
        runs.append(
            {
                "seed": seed,
                "accuracy": acc,
                "micro_f1": acc,
                "best_epoch": best[i][2],
                "train_loss_curve": train_curves[i],
                "val_loss_curve": val_curves[i],
            }
        )
    report = MetricsReport.from_runs(
        "node", "accuracy", runs, extras={"n": g.n, "counts": complex_.counts()}
    )
    return report, [b[1] for b in best]


def graph_classify(graphs, labels, cfg):
    """The report of ``tasks.graph_classify``."""
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    seed0 = cfg.seeds[0]
    perm = np.random.default_rng(seed0).permutation(len(graphs))
    folds = np.array_split(perm, 10)
    union, sizes = disjoint_union(graphs)
    ops = petal_operators(clique_lift(union, cfg.P), cfg.P)
    graph_of = np.repeat(np.arange(len(graphs)), sizes)
    degrees = union.degrees()
    fold_curves = []
    for fold_idx, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(perm, val_idx)
        x = union.features
        if x is None:
            cap = int(degrees[np.isin(graph_of, train_idx)].max())
            x = np.zeros((union.n, cap + 1))
            x[np.arange(union.n), np.minimum(degrees, cap)] = 1.0
        feats = propagate_features(ops, x, cfg.K)
        params = init_params(
            cfg.P, cfg.K, feats.d, cfg.hidden, n_classes, cfg.alpha,
            seed0 * 1000 + fold_idx, cfg.theta_depth,
        )
        state = adam_zeros(params)
        curve = []
        for _ in range(cfg.resolved_epochs):
            _, grads = readout_loss_and_grad(
                stack_params([params]), feats, sizes, labels, [train_idx], cfg.readout,
                cfg.weight_decay,
            )
            params, state = adam_step(params, grads[0], state, cfg.lr)
            pred = predict_graph_labels(stack_params([params]), feats, sizes, cfg.readout)
            pred = pred[0][val_idx]
            curve.append(float(np.mean(pred == labels[val_idx])))
        fold_curves.append(curve)
    per_epoch = np.array(fold_curves).mean(axis=0)
    best_epoch = int(np.argmax(per_epoch))
    runs = [
        {
            "fold": i,
            "accuracy": curves[best_epoch],
            "micro_f1": curves[best_epoch],
            "val_curve": curves,
        }
        for i, curves in enumerate(fold_curves)
    ]
    return MetricsReport.from_runs(
        "graphclass",
        "accuracy",
        runs,
        extras={
            "best_epoch": best_epoch,
            "max_mean_val_accuracy": float(per_epoch[best_epoch]),
            "seed": seed0,
        },
    )


def filtered_sums(params, feats):
    """Per petal, sum_k gamma[p,k] A_p^k X, added hop by hop."""
    sums = []
    for p in range(params.p_max):
        acc = params.gamma[p, 0] * feats.tensor[p, 0]
        for k in range(1, params.k_max + 1):
            acc = acc + params.gamma[p, k] * feats.tensor[p, k]
        sums.append(acc)
    return sums


def forward_embedding(params, feats, filtered=None):
    """The filtered sums, pre- and post-rectifier activations (None at depth
    1), the concatenated petal outputs and the logits; from the given
    per-petal ``filtered`` sums instead of :func:`filtered_sums` when set."""
    if filtered is None:
        filtered = filtered_sums(params, feats)
    theta = layout(params)[1]
    if params.depth == 2:
        pre = [s @ t[0] for s, t in zip(filtered, theta)]
        act = [np.maximum(a, 0.0) for a in pre]
        outs = [a @ t[1] for a, t in zip(act, theta)]
    else:
        pre = act = None
        outs = [s @ t[0] for s, t in zip(filtered, theta)]
    z = np.hstack(outs)
    return filtered, pre, act, z, z @ params.w


def backprop(params, feats, dlogits, weight_decay, filtered=None):
    """Gradients of every parameter from the loss gradient at the logits, by
    a forward from ``filtered`` as in :func:`forward_embedding`."""
    filtered, pre, act, z, _ = forward_embedding(params, feats, filtered)
    dw = z.T @ dlogits + weight_decay * params.w
    dz = dlogits @ params.w.T
    h, theta = params.h, layout(params)[1]
    dgamma = np.zeros_like(params.gamma)
    dtheta = []
    for p in range(params.p_max):
        dy = dz[:, p * h : (p + 1) * h]
        mats = theta[p]
        if params.depth == 2:
            dt2 = act[p].T @ dy + weight_decay * mats[1]
            dpre = np.where(pre[p] > 0.0, dy @ mats[1].T, 0.0)
            dt1 = filtered[p].T @ dpre + weight_decay * mats[0]
            dfiltered = dpre @ mats[0].T
            dtheta.append((dt1, dt2))
        else:
            dt1 = filtered[p].T @ dy + weight_decay * mats[0]
            dfiltered = dy @ mats[0].T
            dtheta.append((dt1,))
        for k in range(params.k_max + 1):
            dgamma[p, k] = np.sum(feats.tensor[p, k] * dfiltered)
    return with_arrays(params, dgamma, dtheta, dw)
