"""Reverse-mode gradients on the tensor layer, checked against finite
differences.

Everything downstream (graph convolutions, attention, the training loop)
runs on these few operations, so this is the layer worth convincing
yourself about first. Each model layer is one tape node with its own
hand-written backward: a dense layer is `affine`, the loss is `mse`, the
attention aggregation is `set_attention`.
"""

import numpy as np

from molsets import Tape, Tensor, backward, finite_diff_gradient
from molsets import autodiff as ad

rng = np.random.default_rng(0)

print("=== A scalar chain: y = mean(relu(x W + b) ** 2) ===")
w = Tensor(rng.uniform(-1, 1, (3, 4)))
b = Tensor(rng.uniform(-0.5, 0.5, 4))
x = Tensor(rng.uniform(-1, 1, (5, 3)))
zeros = Tensor(np.zeros((5, 4)))


def chain():
    return ad.mse(ad.affine(x, w, b, relu=True), zeros)


with Tape() as tape:
    tape.watch(w, b)
    y = chain()
grads = backward(tape, y)
print("y =", y.item())
print("dy/dW:")
print(grads[w])

print()
print("=== The same gradient by central differences ===")
fd = finite_diff_gradient(lambda: chain().item(), [w, b])
print("max |backward - finite difference| =", max(np.abs(grads[t] - fd[t]).max() for t in (w, b)))

print()
print("=== Softmax is stable and shift-invariant ===")
# One set of three one-hot rows with d_k = 1: row i's attention logit is
# wq[i] * wk[i] = wq[i], and with wv the identity the set's output is the
# softmax of the logits.
eye = Tensor(np.eye(3))
ones = Tensor(np.ones((3, 1)))


def attention_softmax(logits):
    wq = Tensor(np.reshape(logits, (3, 1)))
    return ad.set_attention(eye, wq, ones, eye, [1.0, 1.0, 1.0], [0, 0, 0], 1).data[0]


logits = np.array([1000.0, 1001.0, 999.0])
print("softmax(large logits):", attention_softmax(logits))
print("softmax(shifted):     ", attention_softmax(logits - 1000.0))

print()
print("=== Gradients accumulate through shared subexpressions ===")
v = Tensor([3.0])
with Tape() as tape:
    tape.watch(v)
    y = ad.mse(ad.concat([v, v]), Tensor(np.zeros(2)))  # mean(v^2, v^2): v appears twice
print("d(mean(v^2, v^2))/dv at v=3:", backward(tape, y)[v][0], "(expect 6)")
