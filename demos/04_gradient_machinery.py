"""A tour of the tape-based autodiff engine behind the model.

Shows the Var/Tape API on a toy InfoNCE head built from the model's own
ops, verifies one gradient by hand, and runs the finite-difference suite
that cross-checks every op plus a full recurrence-step loss.
"""

import numpy as np

from cpmr import autodiff as ad
from cpmr.gradcheck import TOLERANCE, run_suite


def main():
    # a toy head over 6 nodes, users 0-2 and items 3-5: user 0 meets item 3 and
    # user 1 item 4, each with two negative users and two negative items;
    # a node's representation is [E Z][node] W + b, and the loss is InfoNCE
    rng = np.random.default_rng(0)
    e = ad.constant(rng.normal(size=(6, 3)), name="e")
    z = ad.constant(rng.normal(size=(6, 3)), name="z")
    w = ad.constant(rng.normal(size=(6, 4)), name="w")
    b = ad.constant(rng.normal(size=(1, 4)), name="b")
    users, items = np.array([0, 1]), np.array([3, 4])
    neg_u, neg_i = np.array([1, 2, 0, 2]), np.array([4, 5, 3, 5])

    def rows(idx):
        return ad.gathered_linear(e, z, idx, w, b)

    with ad.Tape() as tape:
        loss = ad.info_nce(rows(users), rows(items), rows(neg_u), rows(neg_i))
    grads = ad.backward(loss, tape, params=[e, z, w, b])
    print(f"loss = {loss.value[0, 0]:.4f}")
    for var in (e, z, w, b):
        print(f"  d loss / d {var.name}: shape {grads[var].shape}, "
              f"norm {np.linalg.norm(grads[var]):.4f}")

    # the same gradient by central differences on one coordinate, in plain numpy
    h = 1e-6

    def f():
        def reps(idx):
            return np.concatenate([e.value[idx], z.value[idx]], axis=1) @ w.value + b.value
        pp, qp, pn, qn = reps(users), reps(items), reps(neg_u), reps(neg_i)
        pn, qn = pn.reshape(len(users), -1, pn.shape[1]), qn.reshape(len(users), -1, qn.shape[1])
        logits = np.concatenate([np.sum(pp * qp, axis=1, keepdims=True),
                                 np.einsum("jkd,jd->jk", pn, qp),
                                 np.einsum("jkd,jd->jk", qn, pp)], axis=1)
        return np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[:, 0])

    w.value[0, 0] += h
    hi = f()
    w.value[0, 0] -= 2 * h
    lo = f()
    w.value[0, 0] += h
    print(f"\nfinite diff check on w[0,0]: analytic {grads[w][0, 0]:.8f} "
          f"numeric {(hi - lo) / (2 * h):.8f}")

    print("\nfull gradient-check suite:")
    lines, worst = run_suite(seed=0)
    for name, err in lines:
        print(f"  {name:28s} max rel err {err:.2e}")
    print(f"worst {worst:.2e} (tolerance {TOLERANCE:.0e}) -> "
          f"{'PASS' if worst <= TOLERANCE else 'FAIL'}")


if __name__ == "__main__":
    main()
