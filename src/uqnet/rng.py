"""Deterministic random streams keyed by purpose.

Every source of randomness in the library draws from a numpy ``Generator``
derived from ``(base seed, namespace, *key)`` via ``SeedSequence`` spawn
keys. A stream's output depends only on its key, never on call order or
thread scheduling, which is what makes parallel Monte Carlo passes
bit-identical to a sequential run.

An evaluation call consumes each (pass, layer) dropout stream in
consecutive row blocks of its batch: it keeps one generator per stream
for the whole call (one :class:`PassRng` per pass), and a generator fills
its draws sequentially, so the masks of block b continue where those of
block b - 1 stopped and together equal one full-batch draw.
"""

from __future__ import annotations

import numpy as np

# Namespace tags. Each consumer of randomness gets its own namespace so
# streams drawn for different purposes can never collide.
NS_INIT = 0            # parameter initialization, keyed by parameterized-layer ordinal
NS_TRAIN_DROPOUT = 1   # dropout masks during training, keyed by (step, layer)
NS_TRAIN_SHUFFLE = 2   # minibatch order, keyed by epoch
NS_TRAIN_NOISE = 3     # reparameterization draws during training, keyed by step
NS_EVAL_DROPOUT = 4    # dropout masks during MC evaluation, keyed by (pass, layer)
NS_EVAL_NOISE = 5      # reparameterization draws at evaluation, keyed by draw index
NS_SPLIT = 6           # per-class shuffles in dataset splitting


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for ``(seed, *key)``.

    The same arguments always yield the same stream; distinct keys yield
    statistically independent streams.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


class PassRng:
    """Per-forward-pass provider of dropout mask streams.

    A forward pass draws dropout masks iff it is given one of these; it
    asks for one stream per dropout layer, keyed by ``(seed, namespace,
    pass_index, layer_index)``. Pass indices are training step numbers
    during training and Monte Carlo pass numbers at evaluation (separate
    namespaces).

    The first ``layer`` call creates the layer's generator and later calls
    return that same generator, so one object serves one pass: an
    evaluation call runs each pass over consecutive row blocks of its
    batch, and each block's masks continue the layer's stream where the
    previous block's stopped. A new pass needs a new object.
    """

    def __init__(self, seed: int, pass_index: int, namespace: int = NS_EVAL_DROPOUT):
        self.seed = int(seed)
        self.pass_index = int(pass_index)
        self.namespace = int(namespace)
        self._streams: dict[int, np.random.Generator] = {}

    def layer(self, layer_index: int) -> np.random.Generator:
        layer_index = int(layer_index)
        if layer_index not in self._streams:
            self._streams[layer_index] = stream(self.seed, self.namespace, self.pass_index,
                                                layer_index)
        return self._streams[layer_index]
