"""Tour of the tensor core: tape-based gradients, the optimizer, checking.

Run from the repository root:  python3 demos/01_autodiff_and_optimizer.py
"""

import numpy as np

from syngcn import numerics as nm

print("== tensors and the tape ==")
w = nm.Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), np.float64, "w",
              trainable=True)
x = nm.Tensor(np.array([[1.0], [1.0]]), dtype=np.float64)
with nm.Tape() as tape:
    y = nm.relu(w @ x)              # [[0 hidden], ...]
    loss = nm.sum_all(y * y)
tape.gradients(loss)              # each trainable leaf now holds its grad
print("loss:", float(loss.data))
print("dL/dw:\n", w.grad)

print("\n== the optimizer walks a bowl ==")
# trainable tensors live in a ParamStore, laid out from (name, shape) pairs:
# views into one flat array. Given the store and a learning rate, the
# backward pass is also its Adam step, whose moments and step count live in
# the store too
store = nm.ParamStore([("w", (2,))], np.float64)
w = store["w"]
w.data[:] = [3.0, -2.0]
for step in range(200):
    with nm.Tape() as tape:
        loss = nm.sum_all(w * w)
    tape.gradients(loss, store, 0.05)
    if step % 50 == 0:
        print(f"step {step:3d}: w = {w.data.round(4)}")
print(f"after {store.step_count} steps: w = {w.data.round(6)}")

print("\n== gradient checking (finite differences vs the tape) ==")
rng = np.random.default_rng(0)
checked_store = nm.ParamStore([("a", (3, 3)), ("b", (3, 1))], np.float64)
a, b = checked_store["a"], checked_store["b"]
for t in (a, b):
    t.data[:] = rng.standard_normal(t.shape)


def objective():
    return nm.sum_all(nm.sigmoid(a @ nm.tanh(b)))


result = nm.grad_check(objective, checked_store)
print(f"max relative error {result.max_rel_err:.2e} over {result.checked} "
      f"entries ({result.skipped} skipped near ReLU kinks)")

print("\n== checkpoints round-trip bit for bit ==")
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory() as d:
    p1, p2 = Path(d) / "a.ckpt", Path(d) / "b.ckpt"
    nm.save_checkpoint({"a": a, "b": b}, p1)
    nm.save_checkpoint(nm.load_checkpoint(p1), p2)
    print("identical bytes:", p1.read_bytes() == p2.read_bytes())
