"""A tour of the tape-based autodiff engine behind the model.

Shows the Var/Tape API on a toy computation, verifies one gradient by
hand, and runs the finite-difference suite that cross-checks every
primitive op plus a full recurrence-step loss.
"""

import numpy as np

from cpmr import autodiff as ad
from cpmr.gradcheck import TOLERANCE, run_suite


def main():
    # a two-layer toy: loss = mean(sigmoid(X W1 + b1) W2 + b2)
    rng = np.random.default_rng(0)
    x = ad.constant(rng.normal(size=(4, 3)), name="x")
    w1 = ad.constant(rng.normal(size=(3, 5)), name="w1")
    b1 = ad.constant(rng.normal(size=(1, 5)), name="b1")
    w2 = ad.constant(rng.normal(size=(5, 2)), name="w2")
    b2 = ad.constant(rng.normal(size=(1, 2)), name="b2")
    with ad.Tape() as tape:
        loss = ad.mean_all(ad.linear(ad.sigmoid(ad.linear(x, w1, b1)), w2, b2))
    grads = ad.backward(loss, tape, params=[x, w1, b1, w2, b2])
    print(f"loss = {loss.value[0, 0]:.4f}")
    for var in (x, w1, b1, w2, b2):
        print(f"  d loss / d {var.name}: shape {grads[var].shape}, "
              f"norm {np.linalg.norm(grads[var]):.4f}")

    # the same gradient by central differences on one coordinate
    h = 1e-6

    def f():
        hidden = 1.0 / (1.0 + np.exp(-(x.value @ w1.value + b1.value)))
        return (hidden @ w2.value + b2.value).mean()

    x.value[0, 0] += h
    hi = f()
    x.value[0, 0] -= 2 * h
    lo = f()
    x.value[0, 0] += h
    print(f"\nfinite diff check on x[0,0]: analytic {grads[x][0, 0]:.8f} "
          f"numeric {(hi - lo) / (2 * h):.8f}")

    print("\nfull gradient-check suite:")
    lines, worst = run_suite(seed=0)
    for name, err in lines:
        print(f"  {name:28s} max rel err {err:.2e}")
    print(f"worst {worst:.2e} (tolerance {TOLERANCE:.0e}) -> "
          f"{'PASS' if worst <= TOLERANCE else 'FAIL'}")


if __name__ == "__main__":
    main()
