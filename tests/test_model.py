import numpy as np
import pytest
import scipy.sparse as sp

from cpmr import autodiff as ad
from cpmr.errors import ConfigError, SequencingError
from cpmr.graphs import EdgeStore, learnable_adjacency, normalize_adjacency
from cpmr.model import CpmrModel, ModelConfig, TemporalStates, evolve


def random_adjacency(rng, n):
    """Dense matrix with spectral norm strictly below 1."""
    a = rng.normal(size=(n, n))
    return a / (np.linalg.svd(a, compute_uv=False).max() * rng.uniform(1.05, 3.0))


def eig_oracle(x, e, a, dt):
    """Closed-form flow through eigendecomposition of M = A - I."""
    m = a - np.eye(a.shape[0])
    w, v = np.linalg.eig(m)
    q = np.exp(w * dt)
    p = np.where(np.abs(w) > 1e-12, (q - 1) / np.where(w == 0, 1, w), dt)
    vinv = np.linalg.inv(v)
    out = v @ np.diag(p) @ vinv @ e + v @ np.diag(q) @ vinv @ x
    return out.real


def test_evolve_matches_eigendecomposition_short_dt():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 50))
        a = random_adjacency(rng, n)
        x = rng.normal(size=(n, 3))
        e = rng.normal(size=(n, 3))
        dt = float(rng.uniform(0, 1))
        got = evolve(x, e, sp.csr_matrix(a), dt, order=6)
        want = eig_oracle(x, e, a, dt)
        worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    assert worst < 1e-6


def test_evolve_matches_eigendecomposition_long_dt():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 30))
        a = random_adjacency(rng, n)
        x = rng.normal(size=(n, 2))
        e = rng.normal(size=(n, 2))
        dt = float(rng.uniform(1, 50))
        got = evolve(x, e, sp.csr_matrix(a), dt, order=6)
        want = eig_oracle(x, e, a, dt)
        worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    assert worst < 1e-3


def test_evolve_dt_zero_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    out = evolve(x, rng.normal(size=(5, 3)), sp.eye(5, format="csr") * 0.5, 0.0, 6)
    np.testing.assert_array_equal(out, x)     # bit-exact, no series applied


def test_evolve_semigroup_property():
    # flowing dt then dt' equals flowing dt + dt'
    rng = np.random.default_rng(7)
    a = sp.csr_matrix(random_adjacency(rng, 12))
    x = rng.normal(size=(12, 4))
    e = rng.normal(size=(12, 4))
    mid = evolve(x, e, a, 0.3, order=8, tau_max=0.05)
    two_leg = evolve(mid, e, a, 0.5, order=8, tau_max=0.05)
    one_leg = evolve(x, e, a, 0.8, order=8, tau_max=0.05)
    np.testing.assert_allclose(two_leg, one_leg, atol=1e-9)


def test_evolve_fixed_point():
    # X* = (I - A)^-1 E is stationary for dX/dt = (A - I) X + E
    rng = np.random.default_rng(8)
    a = random_adjacency(rng, 10)
    e = rng.normal(size=(10, 3))
    x_star = np.linalg.solve(np.eye(10) - a, e)
    out = evolve(x_star, e, sp.csr_matrix(a), 2.5, order=8, tau_max=0.05)
    np.testing.assert_allclose(out, x_star, atol=1e-8)


def test_evolve_rejects_bad_args():
    x = np.zeros((2, 2))
    a = sp.eye(2, format="csr") * 0.5
    with pytest.raises(ConfigError):
        evolve(x, x, a, -1.0, 6)
    with pytest.raises(ConfigError):
        evolve(x, x, a, 1.0, 0)


def make_model(n_users=4, n_items=4, variant="full", d=6, seed=0, **kw):
    cfg = ModelConfig.variant(variant, d=d, s_days=3, taylor_order=5, **kw)
    return CpmrModel(n_users, n_items, day_unit=0.1, config=cfg,
                     rng=np.random.default_rng(seed))


def test_init_states_copy_embeddings():
    model = make_model()
    states = model.init_states()
    np.testing.assert_array_equal(states.x_his.value, model.params["embed"].value)
    np.testing.assert_array_equal(states.x_ctx.value, model.params["embed"].value)
    assert states.day == 0


def _np_linear(x, w, b=None):
    out = x @ w
    return out if b is None else out + b


def test_fuse_matches_hand_rolled_oracle():
    model = make_model(d=5)
    rng = np.random.default_rng(11)
    xh = ad.constant(rng.normal(size=(8, 5)))
    xc = ad.constant(rng.normal(size=(8, 5)))
    got_h, got_c, got_z = model.fuse(xh, xc)

    p = {k: v.value for k, v in model.params.items()}
    outs = {"his": [], "ctx": [], "final": []}
    for cls, rows in (("user", slice(0, 4)), ("item", slice(4, 8))):
        x_in = np.concatenate([xh.value[rows], xc.value[rows]], axis=1)
        shared = _np_linear(x_in, p[f"fusion.{cls}.expert_shared.w"],
                            p[f"fusion.{cls}.expert_shared.b"])
        for t in ("his", "ctx", "final"):
            logits = _np_linear(x_in, p[f"fusion.{cls}.gate_{t}.w"],
                                p[f"fusion.{cls}.gate_{t}.b"])
            ex = np.exp(logits - logits.max(axis=1, keepdims=True))
            w = ex / ex.sum(axis=1, keepdims=True)
            e = _np_linear(x_in, p[f"fusion.{cls}.expert_{t}.w"],
                           p[f"fusion.{cls}.expert_{t}.b"])
            outs[t].append(w[:, :1] * e + w[:, 1:] * shared)
    for got, t in ((got_h, "his"), (got_c, "ctx"), (got_z, "final")):
        np.testing.assert_allclose(got.value, np.concatenate(outs[t]), atol=1e-12)


def test_fuse_gate_rows_sum_to_one():
    model = make_model(d=4)
    rng = np.random.default_rng(12)
    x_in = ad.constant(rng.normal(size=(4, 8)))
    w = ad.softmax_rows(model._linear(x_in, "fusion.user.gate_final"))
    np.testing.assert_allclose(w.value.sum(axis=1), np.ones(4), atol=1e-12)


def test_update_instant_masked_oracle():
    model = make_model(n_users=3, n_items=3, d=4)
    rng = np.random.default_rng(13)
    x = ad.constant(rng.normal(size=(6, 4)))
    b = sp.csr_matrix(np.array([[1.0, 1.0, 0.0],
                                [0.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0]]))
    out = model.update_instant(x, b, "his").value
    p = {k: v.value for k, v in model.params.items()}
    xu, xi = x.value[:3], x.value[3:]
    db_u = np.array([[0.5, 0.5, 0.0], [0, 0, 0], [0, 1.0, 0]])
    db_i = np.array([[1.0, 0, 0], [0.5, 0, 0.5], [0, 0, 0]])
    du = np.maximum(db_u @ xi @ p["update.his.w_i2u"], 0)
    di = np.maximum(db_i @ xu @ p["update.his.w_u2i"], 0)
    want_u = xu.copy()
    want_i = xi.copy()
    for r in (0, 2):                       # involved users replaced
        want_u[r] = xu[r] @ p["update.his.w_u2u"] + du[r]
    for r in (0, 1):                       # involved items replaced
        want_i[r] = xi[r] @ p["update.his.w_i2i"] + di[r]
    np.testing.assert_allclose(out, np.concatenate([want_u, want_i]), atol=1e-12)


def test_update_instant_masked_uninvolved_untouched():
    model = make_model(n_users=3, n_items=3, d=4)
    rng = np.random.default_rng(15)
    x = ad.constant(rng.normal(size=(6, 4)))
    out = model.update_instant(x, sp.csr_matrix((3, 3)), "his").value
    np.testing.assert_array_equal(out, x.value)


def test_row_blocks_give_the_row_select_gradients(monkeypatch):
    """fuse and update_instant: the gradients through ``row_block`` equal,
    bit for bit, those through ``row_select`` over an ``arange``."""
    model = make_model(n_users=3, n_items=5, d=4)
    rng = np.random.default_rng(17)
    xh, xc = ad.Var(rng.normal(size=(8, 4))), ad.Var(rng.normal(size=(8, 4)))
    b = sp.csr_matrix(np.array([[1.0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 1, 0, 1, 0]]))
    weight = ad.constant(rng.normal(size=(8, 4)))
    inputs = [xh, xc, *model.params.values()]

    def gradients():
        with ad.Tape() as tape:
            h, c, z = model.fuse(xh, xc)
            out = ad.add(ad.add(model.update_instant(h, b, "his"),
                                model.update_instant(c, b, "ctx")), z)
            loss = ad.mean_all(ad.hadamard(out, weight))
        grads = ad.backward(loss, tape, params=inputs)
        return [grads[v] for v in inputs]

    got = gradients()
    monkeypatch.setattr(ad, "row_block",
                        lambda x, start, stop: ad.row_select(x, np.arange(start, stop)))
    want = gradients()
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
    assert np.abs(got[0]).max() > 0 and np.abs(got[1]).max() > 0


def toy_store():
    users = np.array([0, 1, 2, 0, 3, 1])
    items = np.array([0, 1, 2, 3, 0, 2])
    days = np.array([0, 0, 1, 2, 2, 4])
    return EdgeStore(users, items, days, 4, 4)


def test_step_scripted_oracle():
    """One recurrence step reproduced outside the model, piece by piece."""
    model = make_model()
    store = toy_store()
    states = model.init_states()
    z, new = model.step(states, store, 0, 2)

    dt = 2 * model.day_unit
    pre = {}
    for scen, x, biadj in (("his", states.x_his, store.history_biadjacency(2)),
                           ("ctx", states.x_ctx, store.context_biadjacency(2, 3))):
        nadj = normalize_adjacency(biadj)
        alpha = model.params[f"alpha_{scen}"].value.reshape(-1)
        a = learnable_adjacency(nadj, alpha).toarray()
        want = np.linalg.solve(
            np.eye(8) - a, (np.eye(8) - _expm(a, dt)) @ model.params["embed"].value
        ) + _expm(a, dt) @ model.params["embed"].value
        pre[scen] = model.evolve_states(x, nadj, scen, dt).value
        np.testing.assert_allclose(pre[scen], want, atol=1e-8)

    # the evolved states fuse into z, which feeds the post-update states
    # through the instant graph of day 2
    xh_k, xc_k, z2 = model.fuse(ad.constant(pre["his"]), ad.constant(pre["ctx"]))
    np.testing.assert_allclose(z.value, z2.value, atol=1e-12)
    iu, ii = store.instant_edges(2)
    b = sp.coo_matrix((np.ones(len(iu)), (iu, ii)), shape=(4, 4)).tocsr()
    np.testing.assert_allclose(new.x_his.value,
                               model.update_instant(xh_k, b, "his").value,
                               atol=1e-12)
    assert new.day == 2


def _expm(a, dt):
    from scipy.linalg import expm
    return expm((a - np.eye(a.shape[0])) * dt)


def test_step_clock_enforced():
    model = make_model()
    store = toy_store()
    states = model.init_states()
    with pytest.raises(SequencingError):
        model.step(states, store, 1, 2)      # clock says day 0, not 1
    _, states = model.step(states, store, 0, 2)
    with pytest.raises(SequencingError):
        model.step(states, store, 2, 1)      # backwards


def test_step_same_day_allowed():
    model = make_model()
    store = toy_store()
    _, states = model.step(model.init_states(), store, 0, 0)
    assert states.day == 0


def test_disable_flags_drop_states():
    for variant, has_his, has_ctx in (("wo_ctx", True, False),
                                      ("wo_his", False, True)):
        model = make_model(variant=variant)
        states = model.init_states()
        assert (states.x_his is not None) == has_his
        assert (states.x_ctx is not None) == has_ctx
        z, new = model.step(states, store := toy_store(), 0, 1)
        assert (new.x_his is not None) == has_his
        assert (new.x_ctx is not None) == has_ctx
        assert z.value.shape == (8, 6)


def test_both_scenarios_disabled_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(disable_ctx=True, disable_his=True)


def test_wo_fusion_sums_scenarios():
    model = make_model(variant="wo_fusion")
    store = toy_store()
    states = model.init_states()
    z, new = model.step(states, store, 0, 1)
    dt = model.day_unit
    want = (model.evolve_states(states.x_his, normalize_adjacency(
                store.history_biadjacency(1)), "his", dt).value
            + model.evolve_states(states.x_ctx, normalize_adjacency(
                store.context_biadjacency(1, 3)), "ctx", dt).value)
    np.testing.assert_allclose(z.value, want, atol=1e-12)
    assert not any("fusion" in k for k in model.params)


def test_parameter_inventory_shrinks_with_ablation():
    full = make_model()
    wo_ctx = make_model(variant="wo_ctx")
    assert "alpha_ctx" in full.params and "alpha_ctx" not in wo_ctx.params
    assert "update.ctx.w_i2u" not in wo_ctx.params
    # fusion input dim halves: d instead of 2d
    assert wo_ctx.params["fusion.user.expert_shared.w"].shape == (6, 6)
    assert full.params["fusion.user.expert_shared.w"].shape == (12, 6)


def test_long_rollout_stays_finite():
    """500 recurrence days with untrained weights must not blow up."""
    rng = np.random.default_rng(21)
    n = 400
    users = rng.integers(0, 6, size=n)
    items = rng.integers(0, 6, size=n)
    days = np.sort(rng.integers(0, 500, size=n))
    store = EdgeStore(users, items, days, 6, 6)
    model = CpmrModel(6, 6, day_unit=1.0 / 499, config=ModelConfig(
        d=4, s_days=5, taylor_order=4), rng=rng)
    states = model.init_states()
    prev = 0
    for day in np.unique(days):
        z, states = model.step(states, store, prev, int(day))
        prev = int(day)
    assert np.all(np.isfinite(states.x_his.value))
    assert np.all(np.isfinite(states.x_ctx.value))
    assert np.abs(states.x_his.value).max() < 1e6


def test_score_matches_standalone():
    from cpmr.model import score as score_fn
    model = make_model()
    rng = np.random.default_rng(22)
    z = ad.constant(rng.normal(size=(8, 6)))
    got = model.score(1, 2, z)
    p = {k: v.value for k, v in model.params.items()}
    want = score_fn(p["embed"][1], z.value[1], p["embed"][4 + 2], z.value[4 + 2],
                    p["predict.fc_user.w"], p["predict.fc_user.b"],
                    p["predict.fc_item.w"], p["predict.fc_item.b"])
    assert got == pytest.approx(want, abs=1e-12)
    scores = model.score_all_items(1, z)
    assert scores[2] == pytest.approx(want, abs=1e-12)


def test_load_params_validates():
    model = make_model()
    good = {k: v.value.copy() for k, v in model.params.items()}
    bad = dict(good)
    bad.pop("embed")
    with pytest.raises(ConfigError):
        model.load_params(bad)
    bad = dict(good)
    bad["embed"] = np.zeros((2, 2))
    with pytest.raises(ConfigError):
        model.load_params(bad)
    model.load_params(good)


def _gated_model(seed):
    model = make_model(seed=seed)
    rng = np.random.default_rng(seed)
    model.params["alpha_his"].value = rng.normal(scale=2.0, size=(8, 1))
    return model, ad.Var(rng.normal(size=(8, 6)))


@pytest.mark.parametrize("dt", [0.05, 0.4, 3.0])
def test_evolve_states_gated_matches_expm_multiply(dt):
    from scipy.sparse.linalg import expm_multiply
    model, x = _gated_model(31)
    nadj = normalize_adjacency(toy_store().history_biadjacency(3))
    got = model.evolve_states(x, nadj, "his", dt).value
    gate = 1.0 / (1.0 + np.exp(-model.params["alpha_his"].value[:, 0]))
    assert np.ptp(gate) > 0.5
    a = nadj @ sp.diags(gate)
    eye = sp.identity(8, format="csr")
    aug = sp.bmat([[a - eye, eye], [None, sp.csr_matrix((8, 8))]], format="csr")
    want = expm_multiply(dt * aug, np.vstack([x.value, model.params["embed"].value]))[:8]
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-6   # as criterion 2


def test_evolve_states_is_one_flow_node_on_the_tape():
    model, x = _gated_model(32)
    nadj = normalize_adjacency(toy_store().history_biadjacency(3))
    with ad.Tape() as tape:
        out = model.evolve_states(x, nadj, "his", 1.0)      # 8 sub-steps
    # the flow itself, plus the n x 1 sigmoid of the gates
    assert [o for o, _ in tape.nodes if o.shape == x.shape] == [out]
    assert len(tape.nodes) == 2


def test_evolve_states_without_tape_keeps_no_iterates():
    import tracemalloc
    model = CpmrModel(150, 150, day_unit=0.01, config=ModelConfig(d=16, taylor_order=6),
                      rng=np.random.default_rng(0))
    rng = np.random.default_rng(33)
    b = sp.csr_matrix((rng.random((150, 150)) < 0.05).astype(float))
    nadj = normalize_adjacency(b)
    x = ad.Var(rng.normal(size=(300, 16)))
    state_bytes = x.value.nbytes

    def traced_bytes(fn):
        tracemalloc.start()
        try:
            out = fn()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return out, kept

    _, kept = traced_bytes(lambda: model.evolve_states(x, nadj, "his", 5.0))
    assert kept < 3 * state_bytes             # the output, no iterates
    with ad.Tape() as tape:
        _, kept_taped = traced_bytes(lambda: model.evolve_states(x, nadj, "his", 5.0))
    assert len(tape.nodes) == 2
    assert kept_taped > 40 * 6 * state_bytes  # 40 sub-steps x 6 iterates
