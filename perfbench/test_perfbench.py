"""Self-tests of the benchmark: tracing changes no estimate, self time, live checks.

    python3 -m pytest perfbench/test_perfbench.py -q

The workloads run here at reduced budgets (subclasses below) so the tests
take well under a minute.
"""

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Expansion, Gibbs, Oracle, Recorder, round_seeds  # noqa: E402


class SmallGibbs(Gibbs):
    GAP_SAMPLES = 2_000
    ORDER_SAMPLES = 2_000
    CHAIN_STEPS = 500
    REWEIGHT_SAMPLES = 2_000


class SmallExpansion(Expansion):
    REFERENCE_SAMPLES = 20_000
    FIRST_STEP_SAMPLES = 10_000
    SECOND_STEP_SAMPLES = 1_000
    ORDER3_SAMPLES = 2_000
    COLUMN_FIRST = 10_000
    COLUMN_ORDER = 600


class SmallOracle(Oracle):
    GRID = 64
    LOG_Z_BUDGET = 1e-3
    SAMPLES = 2_000


SMALL = {"gibbs": SmallGibbs(), "expansion": SmallExpansion(), "oracle": SmallOracle()}
SEED = 5


def run(wl, n_rounds: int, tracer=None):
    rec = Recorder(tracer)
    state = wl.setup(SEED)
    wl.run_once(state, rec, SEED)
    rounds = [wl.run_round(state, rec, round_seeds(SEED, r)) for r in range(n_rounds)]
    return state, rounds, rec


@pytest.fixture(scope="module", params=sorted(SMALL))
def plain(request):
    wl = SMALL[request.param]
    state, rounds, rec = run(wl, 2)
    assert rec.failed == 0, rec.errors
    return wl, state, rounds, rec


def same(a, b, path="", rtol=0.0):
    """Recursive equality; exact unless rtol is given."""
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}", rtol)
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            same(a[k], b[k], f"{path}[{k!r}]", rtol)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            same(x, y, f"{path}[{i}]", rtol)
    elif isinstance(a, (np.ndarray, float, np.floating)):
        if rtol:
            np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0, err_msg=path)
        else:
            assert np.array_equal(a, b), path
    else:
        assert a == b, path


def test_traced_estimates_are_bit_identical(plain):
    wl, state, rounds, _ = plain
    tracer = Tracer()
    with tracer.patched():
        traced_state, traced, rec = run(wl, 1, tracer)
    assert rec.failed == 0, rec.errors
    if wl.name == "oracle":
        # ARPACK starts each two-site solve from its own random vector, so
        # repeated solves agree to round-off only; the sampler side is exact
        same(traced[0]["two"], rounds[0]["two"])
        same(traced[0]["one"], rounds[0]["one"])
        same(traced[0]["moments"], rounds[0]["moments"], rtol=1e-9)
    else:
        same(traced[0], rounds[0])
    if wl.name == "expansion":
        same(traced_state["r1_reference"], state["r1_reference"])
    names = {s.name for s in tracer.spans}
    layer = {"gibbs": "sampler.gap_estimate", "expansion": "cluster.contraction_value",
             "oracle": "oracle.solve"}[wl.name]
    assert layer in names and "sampler.sample" in names
    # the wrappers are gone once the block ends
    from anhcrystal import sampler
    assert not hasattr(sampler.two_point_table, "__wrapped__")


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.1", 1.5, 2.0, 1, 1),
        Span("a.2", 3.0, 3.5, 1, 1),
        Span("b", 5.0, 6.0, 0, 1),
        Span("b.1", 5.0, 6.0, 4, 1),
        Span("other", 20.0, 21.0, None, 2),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 0.5, 0.5, 0.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, None, 1),
             Span("x", 2.0, 6.0, 0, 1), Span("y", 4.0, 8.0, 0, 1),
             Span("z", 9.0, 12.0, 0, 1)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_divide_by_rounds_and_fields():
    spans = [
        Span("op.setup", 0.0, 1.0, None, 0),
        Span("covariance.grid_eigenvalues", 0.2, 0.7, 0, 0),
        Span("op.x", 1.0, 3.0, None, 1),
        Span("sampler.sample", 1.0, 2.0, 2, 1, {"fields": 1000, "periodic": True}),
        Span("op.x", 3.0, 5.0, None, 2),
        Span("sampler.sample", 3.0, 3.5, 4, 2, {"fields": 500, "periodic": True}),
    ]
    m = layer_metrics(spans, 2, {}, 2.0)
    assert m["covariance.spectrum_s"] == pytest.approx(0.5)
    assert m["sampler.fields"] == pytest.approx(750.0)
    assert m["sampler.draw_us_per_field"] == pytest.approx(1e6 * 1.5 / 1500)
    assert m["cluster.cholesky_s"] == 0.0
    # operation 1 run once per run counts whole, like the set-up
    once = layer_metrics(spans, 2, {}, 2.0, once_ops=1)
    assert once["sampler.fields"] == pytest.approx(1000 + 500 / 2)


def test_unperturbed_checks_pass(plain):
    wl, state, rounds, rec = plain
    checks, _, _, _ = wl.summarize(state, rounds, rec)
    assert all(ok for _, ok, _ in checks), checks


def _bump(rounds, fn):
    moved = copy.deepcopy(rounds)
    for r in moved:
        fn(r)
    return moved


def _gibbs_moves():
    def fit0(i):
        def move(r):
            values = r["fit0"].values.copy()
            values[i] += 20 * r["fit0"].errors[i]
            r["fit0"] = dataclasses.replace(r["fit0"], values=values)
        return move

    def steepen(r):
        d = r["fit0"].distances
        r["fit0"] = dataclasses.replace(r["fit0"], values=r["fit0"].values * np.exp(-0.2 * d),
                                        errors=r["fit0"].errors * np.exp(-0.2 * d))

    def row(h, key, n_err):
        def move(r):
            for x in r["order"]:
                if x["h"] == h:
                    x[key] += n_err * x["stderr"]
        return move

    def set_item(key, value):
        return lambda r: r.__setitem__(key, value)

    return {
        "harmonic shift": set_item("shift", 1e-9),
        "free K(1)": fit0(0), "free K(2)": fit0(1), "free K(3)": fit0(2),
        "free fitted rate": steepen,
        "interacting fitted rate": lambda r: r.__setitem__(
            "fit", dataclasses.replace(r["fit"], rate=-abs(r["fit"].rate))),
        "|gap| decreases": lambda r: r["gap"][2].__setitem__("gap", 1.0),
        "sigma(h=0)": row(0.0, "sigma", 20),
        "pCN and reweighting": lambda r: r.__setitem__(
            "chain", dataclasses.replace(r["chain"], mean=r["chain"].mean
                                         + 20 * r["chain"].stderr)),
    }


def _expansion_moves():
    def r2_up(r):
        r["r2"] = [(r1[0], r2[1]) for r1, r2 in zip(r["r1"], r["r2"])]

    def column_s3(r):
        rep = r["columns"]
        s3, err = rep.orders[2]
        r["columns"] = dataclasses.replace(rep, orders=rep.orders[:2] + [(s3 + 20 * err, err)])

    return {
        "R1 > R2 > R3": r2_up,
        "three-column box": column_s3,
        "symbolic and contraction": lambda r: r.__setitem__("evaluators", 1e-9),
    }


def _oracle_moves():
    def moment(key, shift):
        def move(r):
            m = r["moments"]
            if key == "harm_log_z":
                m[key] += shift
            else:
                m[key] = [(a + shift, b) for a, b in m[key]]
        return move

    def sampler(r):
        k, e = r["two"][1]
        k = k.copy()
        k[0] += 20 * np.hypot(e[0], 1e-4)
        r["two"][1] = (k, e)

    return {
        "log Z": moment("harm_log_z", 2e-3),
        "correlations = closed form": moment("harm_corr", 1e-3),
        "sampler correlations": sampler,
    }


MOVES = {"gibbs": _gibbs_moves, "expansion": _expansion_moves, "oracle": _oracle_moves}


def test_every_check_fails_when_its_value_is_moved(plain):
    wl, state, rounds, rec = plain
    names = [name for name, _, _ in wl.summarize(state, rounds, rec)[0]]
    moves = MOVES[wl.name]()
    covered = set()
    for label, move in moves.items():
        checks = wl.summarize(state, _bump(rounds, move), rec)[0]
        failed = [name for name, ok, _ in checks if not ok]
        hit = [name for name in names if label in name]
        assert len(hit) == 1, (label, names)
        assert hit[0] in failed, (label, checks)
        covered.add(hit[0])
    assert covered == set(names), set(names) - covered
