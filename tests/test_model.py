import numpy as np
import pytest
import scipy.sparse as sp

from cpmr import autodiff as ad
from cpmr.errors import ConfigError, CpmrError, SequencingError
from cpmr.graphs import EdgeStore, averaging_operators, normalize_adjacency
from cpmr.model import CpmrModel, ModelConfig, TemporalStates, evolve
import test_autodiff
from test_autodiff import (gated_fusion_chain, hadamard, instant_update_chain, mean_all,
                           row_select)


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
    nan, inf = float("nan"), float("inf")
    for dt, tau_max in ((nan, 0.125), (inf, 0.125), (1.0, 0.0), (1.0, -0.5), (1.0, nan),
                        (1.0, inf), (0.0, 0.0), (1e9, 0.125), (1.0, 1e-320)):
        with pytest.raises(ConfigError):
            evolve(x, x, a, dt, 6, tau_max)
    v, gate = ad.constant(x), ad.constant(np.ones((2, 1)))
    # 1/171! is not a float: rejected before any factorial is computed
    for dt, order, tau_max in ((0.1, 0, 0.125), (-0.1, 6, 0.125), (0.1, 6, 0.0), (1e9, 6, 0.125),
                               (0.1, 171, 0.125), (0.1, 10**6, 0.125)):
        with pytest.raises(ConfigError):
            ad.graph_flow(v, v, gate, a, dt, order, tau_max)
    assert ad.graph_flow(v, v, gate, a, 0.1, 170, 0.125).shape == (2, 2)
    for other in (a.toarray(), a.todia(), a.tocoo()):     # scipy's kernel takes CSR or CSC
        with pytest.raises(ConfigError, match="CSR or CSC"):
            ad.graph_flow(v, v, gate, other, 0.1, 6, 0.125)


def make_model(n_users=4, n_items=4, variant="full", d=6, seed=0, **kw):
    cfg = ModelConfig(d=d, s_days=3, taylor_order=5, variant=variant, **kw)
    return CpmrModel(n_users, n_items, day_unit=0.1, config=cfg,
                     rng=np.random.default_rng(seed))


def test_init_states_copy_embeddings():
    model = make_model()
    states = model.init_states()
    assert list(states.x) == ["his", "ctx"]
    np.testing.assert_array_equal(states.x["his"].value, model.params["embed"].value)
    np.testing.assert_array_equal(states.x["ctx"].value, model.params["embed"].value)
    assert states.day == 0


def _np_linear(x, w, b=None):
    out = x @ w
    return out if b is None else out + b


def test_fuse_matches_hand_rolled_oracle():
    model = make_model(d=5)
    rng = np.random.default_rng(11)
    xh = ad.constant(rng.normal(size=(8, 5)))
    xc = ad.constant(rng.normal(size=(8, 5)))
    fused, got_z = model.fuse({"his": xh, "ctx": xc})
    assert list(fused) == ["his", "ctx"]
    assert all(fused[sc].shape == (8, 5) for sc in fused)
    got_h, got_c = (fused[sc].value for sc in ("his", "ctx"))

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
    for got, t in ((got_h, "his"), (got_c, "ctx"), (got_z.value, "final")):
        np.testing.assert_allclose(got, np.concatenate(outs[t]), atol=1e-12)


def test_fuse_gate_rows_sum_to_one():
    """A task whose expert is the shared one mixes that expert with itself, so
    its rows are the shared expert's times its gate rows' sums: those are one."""
    model = make_model(d=4)
    rng = np.random.default_rng(12)
    p = {k: v.value for k, v in model.params.items()}
    for k in ("w", "b"):
        p[f"fusion.user.expert_final.{k}"][:] = p[f"fusion.user.expert_shared.{k}"]
    parts = {sc: ad.constant(rng.normal(size=(8, 4))) for sc in ("his", "ctx")}
    _, z = model.fuse(parts)
    x_in = np.concatenate([parts["his"].value[:4], parts["ctx"].value[:4]], axis=1)
    shared = _np_linear(x_in, p["fusion.user.expert_shared.w"], p["fusion.user.expert_shared.b"])
    np.testing.assert_allclose(z.value[:4], shared, rtol=0, atol=1e-12)
    assert not np.allclose(z.value[4:], _np_linear(np.concatenate(
        [parts["his"].value[4:], parts["ctx"].value[4:]], axis=1),
        p["fusion.item.expert_shared.w"], p["fusion.item.expert_shared.b"]))


UPDATE_WEIGHTS = ("w_i2u", "w_u2i", "w_u2u", "w_i2i")


def dense_instant_oracle(model, xu, xi, b, scenario="his"):
    """The jump on dense arrays: involved rows x + ((x w_self - x) + relu(mean @ w)),
    every other row as it was."""
    w = {k: model.params[f"update.{scenario}.{k}"].value for k in UPDATE_WEIGHTS}
    out = []
    for x, other, adj, w_self, w_nb in ((xu, xi, b, w["w_u2u"], w["w_i2u"]),
                                        (xi, xu, b.T, w["w_i2i"], w["w_u2i"])):
        deg = adj.sum(axis=1, keepdims=True)
        mean = np.divide(adj, deg, out=np.zeros_like(adj), where=deg > 0) @ other
        jumped = x + ((x @ w_self - x) + np.maximum(mean @ w_nb, 0.0))
        out.append(np.where(deg > 0, jumped, x))
    return np.concatenate(out)


def instant_days():
    """(name, store, day): instant graphs from a 4-user x 5-item log."""
    users = [0, 2, 0,  1,  0, 1, 2, 3, 0, 1, 2, 3,  1, 3, 1]
    items = [0, 1, 1,  3,  0, 1, 2, 3, 4, 4, 4, 4,  2, 0, 2]
    days = [0, 0, 0,  1,  2, 2, 2, 2, 2, 2, 2, 2,  3, 3, 3]
    store = EdgeStore(np.array(users), np.array(items), np.array(days), 4, 5)
    return [("mixed", store, 0), ("one_user_one_item", store, 1),
            ("every_node", store, 2), ("duplicated_pair", store, 3), ("empty", store, 4)]


def test_update_instant_rows_oracle():
    """The row-sparse jump against the dense oracle and central differences on
    a mixed day, a day of one user and one item (single-row products), a day
    that involves every node, a day with a (u, i) pair twice (it counts once
    in the means) and an empty day."""
    model = make_model(n_users=4, n_items=5, d=4)
    rng = np.random.default_rng(13)
    weight = ad.constant(rng.normal(size=(9, 4)))
    for name, store, day in instant_days():
        b = store.instant_biadjacency(day)
        ops = averaging_operators(b)
        assert [len(ids) for ids, _ in ops] == \
            {"mixed": [2, 2], "one_user_one_item": [1, 1], "every_node": [4, 5],
             "duplicated_pair": [2, 2], "empty": [0, 0]}[name]
        x = ad.Var(rng.normal(size=(9, 4)))                     # 4 users, then 5 items
        out = model.update_instant(x, ops, "his").value
        np.testing.assert_allclose(out, dense_instant_oracle(model, x.value[:4], x.value[4:],
                                                             b.toarray()), atol=1e-12)
        params = [x, *(model.params[f"update.his.{k}"] for k in UPDATE_WEIGHTS)]
        err = ad.grad_check(lambda p: mean_all(hadamard(
            model.update_instant(p[0], ops, "his"), weight)), params)
        assert err < 1e-7, name


def test_update_instant_mixed_oracle_by_hand():
    model = make_model(n_users=3, n_items=3, d=4)
    rng = np.random.default_rng(13)
    x = ad.constant(rng.normal(size=(6, 4)))
    b = sp.csr_matrix(np.array([[1.0, 1.0, 0.0],
                                [0.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0]]))
    xu, xi = x.value[:3], x.value[3:]
    out = model.update_instant(x, averaging_operators(b), "his").value
    p = {k: v.value for k, v in model.params.items()}
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


def test_update_instant_keeps_uninvolved_rows_and_empty_days_byte_for_byte():
    """Rows the day does not involve keep their bytes, -0.0 included, and an
    empty day returns x's bytes."""
    model = make_model(n_users=3, n_items=3, d=4)
    rng = np.random.default_rng(15)
    x = rng.normal(size=(6, 4))
    x[1, 2] = x[5, 0] = -0.0                     # user 1 and item 2 are not involved
    out = model.update_instant(ad.constant(x), averaging_operators(sp.csr_matrix((3, 3))),
                               "his").value
    assert out.tobytes() == x.tobytes()
    b = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    out = model.update_instant(ad.constant(x), averaging_operators(b), "his").value
    for r in (1, 5):
        assert out[r].tobytes() == x[r].tobytes()
    assert np.signbit(out[[1, 5], [2, 0]]).all()


def test_taped_step_frees_the_fused_blocks_and_keeps_only_involved_rows():
    """A taped ``step`` is one checkpoint node. In its forward and in its
    replay, the his/ctx states that ``fuse`` hands to ``update_instant`` are
    freed while the replay's nodes still hold the day: the instant update
    keeps copies of the involved rows and their means, and every matrix its
    rule keeps, apart from the weights, has the day's involved user or item
    count of rows."""
    import weakref
    users = np.array([0, 3, 3, 5, 1, 2, 7, 4, 2, 6])
    items = np.array([0, 1, 4, 2, 3, 5, 6, 2, 5, 5])
    days = np.array([0, 0, 0, 1, 1, 1, 2, 3, 3, 3])
    store = EdgeStore(users, items, days, 8, 7)
    model = make_model(n_users=8, n_items=7)
    involved = (3, 2)                    # day 3: users 2, 4, 6 and items 2, 5
    _, states = model.step(model.init_states(), store, 1)
    update_instant, blocks, spans = model.update_instant, [], []

    def watched(x, ops, scenario):
        blocks.append(weakref.ref(x.value))
        nodes = ad._ACTIVE_TAPE.nodes if ad._ACTIVE_TAPE is not None else []
        start = len(nodes)
        out = update_instant(x, ops, scenario)
        spans.append((start, len(nodes)))
        return out

    model.update_instant = watched
    with ad.Tape() as tape:
        z, new = model.step(states, store, 3)
        assert len(blocks) == 2 and all(r() is None for r in blocks)
        loss = mean_all(hadamard(ad.add(new.x["his"], new.x["ctx"]), z))
    (_, (inputs, replay)) = tape.nodes[0]
    replayed = []
    again = replay(inputs, replayed)     # the day once more, recorded onto a list of its own
    assert len(blocks) == 4 and all(r() is None for r in blocks)
    params = {id(p.value) for p in model.params.values()}
    rows = set()
    for start, stop in spans:
        for _, (_, rule) in replayed[start:stop]:
            kept = list(rule.__defaults__ or ()) + [c.cell_contents
                                                    for c in rule.__closure__ or ()]
            for obj in kept:
                value = getattr(obj, "value", obj)
                if id(value) in params:
                    continue
                if sp.issparse(value) or getattr(value, "ndim", 0) == 2:
                    rows.add(value.shape[0])
    assert rows == set(involved)
    del again, replayed
    grads = ad.backward(loss, tape, params=model.params.values())
    assert all(np.isfinite(g).all() for g in grads.values())
    assert np.abs(grads[model.params["update.ctx.w_u2u"]]).max() > 0


def test_row_blocks_give_the_row_select_gradients(monkeypatch):
    """fuse and update_instant: the gradients of the fused ops, which take
    each class's rows as a block, equal bit for bit those of the generic
    chains they replaced with ``row_select`` over an ``arange`` in place of
    each ``row_block``."""
    model = make_model(n_users=3, n_items=5, d=4)
    rng = np.random.default_rng(17)
    xh, xc = ad.Var(rng.normal(size=(8, 4))), ad.Var(rng.normal(size=(8, 4)))
    b = sp.csr_matrix(np.array([[1.0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 1, 0, 1, 0]]))
    weight = ad.constant(rng.normal(size=(8, 4)))
    inputs = [xh, xc, *model.params.values()]

    def gradients():
        with ad.Tape() as tape:
            fused, z = model.fuse({"his": xh, "ctx": xc})
            ops = averaging_operators(b)
            out = ad.add(ad.add(model.update_instant(fused["his"], ops, "his"),
                                model.update_instant(fused["ctx"], ops, "ctx")), z)
            loss = mean_all(hadamard(out, weight))
        grads = ad.backward(loss, tape, params=inputs)
        return [grads[v] for v in inputs]

    got = gradients()
    monkeypatch.setattr(test_autodiff, "row_block",
                        lambda x, start, stop: row_select(x, np.arange(start, stop)))
    monkeypatch.setattr(ad, "gated_fusion", gated_fusion_chain)
    monkeypatch.setattr(ad, "instant_update", instant_update_chain)
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
    z, new = model.step(states, store, 2)

    dt = 2 * model.day_unit
    pre = {}
    for scen, x, biadj in (("his", states.x["his"], store.history_biadjacency(2)),
                           ("ctx", states.x["ctx"], store.context_biadjacency(2, 3))):
        nadj = normalize_adjacency(biadj)
        alpha = model.params[f"alpha_{scen}"].value.reshape(-1)
        a = nadj.toarray() / (1.0 + np.exp(-alpha))      # gate on each source column
        want = np.linalg.solve(
            np.eye(8) - a, (np.eye(8) - _expm(a, dt)) @ model.params["embed"].value
        ) + _expm(a, dt) @ model.params["embed"].value
        pre[scen] = model.evolve_states(x, nadj, scen, dt).value
        np.testing.assert_allclose(pre[scen], want, atol=1e-8)

    # the evolved states fuse into z, which feeds the post-update states
    # through the instant graph of day 2
    fused, z2 = model.fuse({sc: ad.constant(x) for sc, x in pre.items()})
    np.testing.assert_allclose(z.value, z2.value, atol=1e-12)
    iu, ii = store.instant_edges(2)
    b = sp.coo_matrix((np.ones(len(iu)), (iu, ii)), shape=(4, 4)).tocsr()
    np.testing.assert_allclose(new.x["his"].value,
                               model.update_instant(fused["his"], averaging_operators(b),
                                                    "his").value,
                               atol=1e-12)
    assert new.day == 2


def _expm(a, dt):
    from scipy.linalg import expm
    return expm((a - np.eye(a.shape[0])) * dt)


def test_step_splits_and_joins_each_scenario_once():
    """A taped step is one checkpoint node. Its replay splits each scenario's
    states into user and item rows once and joins each task's rows once, all
    inside its one ``gated_fusion`` node; each ``instant_update`` takes and
    gives a scenario's joined states. wo_fusion hands its summed states to
    both instant updates as they are. So a replayed step is the evolutions'
    flows, each with its gate's sigmoid inside, plus these nodes. Nodes are
    told apart by their backward rule, which is defined inside the op."""
    for variant, want, n_nodes in (("full", (1, 2), 5), ("wo_ctx", (1, 1), 3),
                                   ("wo_his", (1, 1), 3), ("wo_fusion", (0, 2), 5)):
        model = make_model(variant=variant)
        states = model.init_states()
        with ad.Tape() as tape:
            model.step(states, toy_store(), 2)
        (_, (inputs, replay)), = tape.nodes
        replayed = []
        replay(inputs, replayed)
        ops = [rule.__qualname__.split(".")[0] for _, (_, rule) in replayed]
        assert tuple(map(ops.count, ("gated_fusion", "instant_update"))) == want, variant
        assert len(ops) == n_nodes, variant


def test_step_clock_enforced():
    model = make_model()
    store = toy_store()
    _, states = model.step(model.init_states(), store, 2)
    assert states.day == 2
    with pytest.raises(SequencingError):
        model.step(states, store, 1)         # backwards


def test_step_same_day_allowed():
    model = make_model()
    store = toy_store()
    _, states = model.step(model.init_states(), store, 0)
    assert states.day == 0


def test_scenario_ablations_drop_states():
    for variant, has_his, has_ctx in (("wo_ctx", True, False),
                                      ("wo_his", False, True)):
        model = make_model(variant=variant)
        states = model.init_states()
        assert ("his" in states.x) == has_his
        assert ("ctx" in states.x) == has_ctx
        z, new = model.step(states, toy_store(), 1)
        assert ("his" in new.x) == has_his
        assert ("ctx" in new.x) == has_ctx
        assert z.value.shape == (8, 6)


def test_step_without_prediction_gives_the_same_states_byte_for_byte():
    for variant in ("full", "wo_ctx", "wo_fusion"):
        model = make_model(variant=variant)
        store = toy_store()
        scored = skipped = model.init_states()
        for day in (1, 2, 2, 4):
            z, scored = model.step(scored, store, day)
            z_skip, skipped = model.step(skipped, store, day, predict=False)
            assert scored.x.keys() == skipped.x.keys()
            for sc, a in scored.x.items():
                assert a.value.tobytes() == skipped.x[sc].value.tobytes()
            assert skipped.day == day
            if variant == "wo_fusion":      # z is the new state there; nothing to skip
                assert z_skip.value.tobytes() == z.value.tobytes()
            else:
                assert z_skip is None


def test_a_taped_step_without_prediction_raises_a_cpmr_error():
    """Under a tape, ``predict=False`` leaves z None, which could take no
    gradient: the day's checkpoint raises CpmrError naming that output and
    records nothing, where it used to fail inside the tape with a TypeError.
    Untaped, the same call runs; under wo_fusion z is a Var and the taped
    call runs too."""
    model, store = make_model(), toy_store()
    states = model.init_states()
    with ad.Tape() as tape:
        with pytest.raises(CpmrError, match="output 0 of 3 is NoneType, not a Var"):
            model.step(states, store, 2, predict=False)
    assert tape.nodes == []
    z, new = model.step(states, store, 2, predict=False)
    assert z is None and new.day == 2
    model = make_model(variant="wo_fusion")
    with ad.Tape() as tape:
        z, _ = model.step(model.init_states(), store, 2, predict=False)
    assert isinstance(z, ad.Var) and len(tape.nodes) == 1


def test_unknown_variant_rejected():
    for name in ("bogus", "wo_ctx_his", "", None):
        with pytest.raises(ConfigError, match="variant must be one of"):
            ModelConfig(variant=name)


def test_wo_fusion_sums_scenarios():
    model = make_model(variant="wo_fusion")
    store = toy_store()
    states = model.init_states()
    z, new = model.step(states, store, 1)
    dt = model.day_unit
    want = (model.evolve_states(states.x["his"], normalize_adjacency(
                store.history_biadjacency(1)), "his", dt).value
            + model.evolve_states(states.x["ctx"], normalize_adjacency(
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
    for day in np.unique(days):
        z, states = model.step(states, store, int(day))
    assert np.all(np.isfinite(states.x["his"].value))
    assert np.all(np.isfinite(states.x["ctx"].value))
    assert np.abs(states.x["his"].value).max() < 1e6


def test_score_matches_standalone():
    model = make_model()
    rng = np.random.default_rng(22)
    z = ad.constant(rng.normal(size=(8, 6)))
    p = {k: v.value for k, v in model.params.items()}
    # FC_U(E_u ++ Z_u) . FC_I(E_i ++ Z_i) for user 1 and item 2 (node 4 + 2)
    pu = np.concatenate([p["embed"][1], z.value[1]]) @ p["predict.fc_user.w"] \
        + p["predict.fc_user.b"][0]
    qi = np.concatenate([p["embed"][6], z.value[6]]) @ p["predict.fc_item.w"] \
        + p["predict.fc_item.b"][0]
    want = float(pu @ qi)
    # as the replay ranks: every item's representation against the user's
    scores = model.item_repr(z, np.arange(4)).value @ model.user_repr(z, [1]).value[0]
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
    # the flow itself, with the sigmoid of its gate logits inside
    (flow, _), = tape.nodes
    assert flow.value is out.value


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
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, kept, peak

    _, kept, peak = traced_bytes(lambda: model.evolve_states(x, nadj, "his", 5.0))
    assert kept < 3 * state_bytes             # the output, no iterates
    # the sub-step's input and output and the flow's two buffers (4.17); with
    # numpy's buffer for a broadcast gate product 5.19, and the iterate as one
    # expression peaked above 6
    assert peak < 5 * state_bytes
    flow = lambda: model.evolve_states(x, nadj, "his", 5.0)
    _, kept_plain, _ = traced_bytes(lambda: taped(flow))
    # a taped flow keeps the inputs of its 40 sub-steps, the first x's own
    # array, and the last sub-step's 5 Horner iterates y_5 ... y_1, not 240
    assert (39 + 5) * state_bytes < kept_plain < (39 + 5 + 3) * state_bytes

    def checkpointed():
        return ad.checkpoint(lambda v: (model.evolve_states(v, nadj, "his", 5.0),), x)[0]

    with ad.Tape() as tape:
        tracemalloc.start()
        try:
            out = checkpointed()
            kept_taped, peak_taped = tracemalloc.get_traced_memory()
            assert len(tape.nodes) == 1
            loss = mean_all(out)
            del out
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ad.backward(loss, tape, params=model.params.values())
            peak_backward = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # checkpointed, a segment keeps of the flow its output: its input is x's own array
    assert kept_taped < 2 * state_bytes
    assert peak_taped < 6 * state_bytes
    # what the replay keeps, as above, and in the adjoint its G, g_e, its four
    # buffers, the adjoints of two sub-step inputs and numpy's ufunc buffer
    assert peak_backward < before + (39 + 5 + 9) * state_bytes


def taped(fn):
    """``fn()`` under a tape, with the tape: what a taped op keeps stays alive."""
    with ad.Tape() as tape:
        return fn(), tape


def test_fuse_intermediates_no_rule_reads_die_under_a_tape():
    """Under a tape, fusion inside a ``checkpoint`` keeps none of its
    intermediates: the tape holds one node, which keeps the two input states'
    arrays. On a plain tape the one ``gated_fusion`` node's rule keeps what
    it reads, per class the input rows and the shared expert and per task
    the gate weights and the expert, and neither the gate logits nor the
    mixes, which are written into the outputs. The gradients are the same
    bytes either way."""
    model = make_model(n_users=5, n_items=4, d=6)
    rng = np.random.default_rng(41)
    xh, xc = ad.Var(rng.normal(size=(9, 6))), ad.Var(rng.normal(size=(9, 6)))
    weights = {id(p.value) for p in model.params.values()}

    def fuse(xh, xc):
        fused, z = model.fuse({"his": xh, "ctx": xc})
        return (*fused.values(), z)

    def run(wrap):
        with ad.Tape() as tape:
            h, c, z = wrap(fuse, xh, xc)
            (_, (_, rule)), = tape.nodes
            loss = mean_all(ad.add(ad.add(h, c), z))
        kept, stack = [], list(rule.__defaults__ or ()) + [c.cell_contents
                                                             for c in rule.__closure__ or ()]
        while stack:                     # the arrays the rule holds, the weights left out
            x = stack.pop()
            if isinstance(x, (list, tuple)):
                stack.extend(x)
            elif isinstance(x, np.ndarray) and id(x) not in weights:
                kept.append(x)
        grads = ad.backward(loss, tape, params=[xh, xc])
        return kept, [grads[xh], grads[xc]]

    kept, grads = run(ad.checkpoint)
    assert sorted(map(id, kept)) == sorted(map(id, (xh.value, xc.value)))
    kept, plain = run(lambda fn, *inputs: fn(*inputs))
    # per class (5 users, 4 items): its input rows, the shared expert, and per
    # task (his, ctx, final) the gate weights and the expert
    assert sorted(a.shape for a in kept) == sorted(
        [(n, 12) for n in (5, 4)] + [(n, 6) for n in (5, 4)] * 4 + [(n, 2) for n in (5, 4)] * 3)
    assert [g.tobytes() for g in grads] == [k.tobytes() for k in plain]
    assert np.abs(grads[0]).max() > 0 and np.abs(grads[1]).max() > 0
