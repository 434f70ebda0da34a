"""Fast tests of the benchmark itself: every workload runs to its end at a
tiny size, and every check rejects a planted wrong answer.

    python3 -m pytest -q bench/test_bench.py
"""
import dataclasses
import json
import random
import shutil
import subprocess
import sys

import pytest

import run

workloads = run.import_workloads()

import checks  # noqa: E402
import devratio as dr  # noqa: E402
from checks import CheckFailed, Net  # noqa: E402

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def out_dir():
    path = run.OUT / "tests"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny_outputs(name, out_dir, seed=3):
    """(task name -> (task, output)) for one tiny round, untraced."""
    workload = workloads.WORKLOADS[name](workloads.Api(False), seed, out_dir,
                                         tiny=True)
    return workload, {t.name: (t, t.run()) for t in workload.tasks}


def rejects(task, output):
    with pytest.raises(CheckFailed):
        task.check(output)


# ---------------------------------------------------------------------------
# every workload runs to its end
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace):
    result, summary = run.measure(workloads, name, 5, 0.0, trace, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == summary["tasks_per_round"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if not trace)


@pytest.mark.parametrize("name", ["solve-ladder", "induce-crosscheck"])
def test_layer_counts_repeat_at_fixed_seed(name):
    counts = [{k: v["value"] for k, v in run.measure(
        workloads, name, 9, 0.0, True, tiny=True)[0]["metrics"].items()
        if v["unit"] == "count"} for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["equilibrium.wardrop_iterations"] > 0


def test_setup_in_a_bare_directory_fails(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "dominance", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# each check rejects a planted wrong answer
# ---------------------------------------------------------------------------
def moved_flow(flow_json, share):
    """Moves `share` of the first commodity's demand from its first path to
    its last path."""
    moved = json.loads(json.dumps(flow_json))
    paths = moved["commodities"][0]["paths"]
    amount = share * moved["commodities"][0]["demand"]
    paths[0]["value"] -= amount
    paths[-1]["value"] += amount
    return moved


def test_wardrop_check_rejects_flow_off_equilibrium():
    case = dr.braess(4, 1.0)
    net = Net(case.instance.to_json())
    flow = dr.wardrop(case.instance).flow.to_json()
    checks.check_wardrop(net, flow)
    with pytest.raises(CheckFailed, match="relative gap"):
        checks.check_wardrop(net, moved_flow(flow, 0.01))
    short = json.loads(json.dumps(flow))
    short["commodities"][0]["paths"][0]["value"] *= 0.99
    with pytest.raises(CheckFailed, match="flow routed"):
        checks.check_wardrop(net, short)


def test_solve_ladder_rejects_moved_flow(out_dir):
    _, outs = tiny_outputs("solve-ladder", out_dir)
    for name in ("braess m=3 beta=1.0 undeviated",
                 "grid 3x3 k=1 #0 undeviated"):
        task, result = outs[name]
        task.check(result)
        bad = dr.Flow.from_json(result.flow.instance,
                                moved_flow(result.flow.to_json(), 0.01))
        rejects(task, dataclasses.replace(result, flow=bad))


def test_paper_tables_rejects_wrong_rows(out_dir):
    workload, outs = tiny_outputs("paper-tables", out_dir)
    workload.check_round(list(outs.values()))
    task, printed = outs["cli ratio"]
    off = dict(outs, **{"cli ratio": (task, str(float(printed) * 1.01))})
    with pytest.raises(CheckFailed):
        workload.check_round(list(off.values()))
    task, (case, z, z_cost, x_cost, coarse) = outs["braess m=3 beta=1.0"]
    task.check((case, z, z_cost, x_cost, coarse))
    rejects(task, (case, z, z_cost, x_cost * 1.01, coarse))
    rejects(task, (case, z, z_cost, x_cost, coarse * 1.01))

    task, case = outs["fibonacci p=3"]
    task.check(case)
    rejects(task, dataclasses.replace(case,
                                      expected_ratio=case.expected_ratio * 1.01))

    task, (mu, bpoa, gap) = outs["smoothness beta=1.0"]
    task.check((mu, bpoa, gap))
    rejects(task, (mu + 2e-3, bpoa, gap))
    rejects(task, (mu, bpoa * 1.01, gap))

    task, (printed, grid) = outs["cli ratio --dump-grid"]
    task.check((printed, grid))
    rejects(task, (str(float(printed) * 1.01), grid))
    lines = grid.splitlines()
    worst = max(range(1, len(lines)), key=lambda i: float(lines[i].split(",")[1]))
    lambdas, cost = lines[worst].split(",")
    lines[worst] = f"{lambdas},{float(cost) * 0.99}"
    rejects(task, (printed, "\n".join(lines)))


def test_dominance_rejects_wrong_bounds_and_verdicts(out_dir):
    _, outs = tiny_outputs("dominance", out_dir)
    task, out = next(v for k, v in outs.items() if k.startswith("instance 0 "))
    task.check(out)
    report, z, x, ratio, tree, fine, coarse, verdict, recovered = out
    rejects(task, (report, z, x, ratio * 1.01, tree, fine, coarse, verdict,
                   recovered))
    rejects(task, (report, z, x, ratio, tree, ratio - 0.01, coarse, verdict,
                   recovered))
    rejects(task, (report, z, x, ratio, tree, fine, coarse * 1.01, verdict,
                   recovered))
    rejects(task, (report, z, x, ratio, tree, fine, coarse,
                   dataclasses.replace(verdict, inducible=False), recovered))
    # beta <= 1 in this workload, so 3 * l_a exceeds theta_max = beta * l_a
    too_big = dr.Deviation({a.id: a.latency.scale(3.0)
                            for a in x.flow.instance.arcs})
    rejects(task, (report, z, x, ratio, tree, fine, coarse, verdict, too_big))


def test_crosscheck_rejects_flipped_verdicts(out_dir):
    workload, outs = tiny_outputs("induce-crosscheck", out_dir, seed=11)
    done = list(outs.values())
    workload.check_round(done)
    for task, (verdict, oracle, recovered) in done:
        task.check((verdict, oracle, recovered))
        rejects(task, (dataclasses.replace(verdict,
                                           inducible=not verdict.inducible),
                       oracle, recovered))
        far = dataclasses.replace(oracle, inducible=not verdict.inducible,
                                  margin=3.0 * oracle.step + 1.0)
        rejects(task, (verdict, far, recovered))
    disagree = [(t, (v, dataclasses.replace(o, inducible=not o.inducible), r))
                for t, (v, o, r) in done]
    with pytest.raises(CheckFailed):
        workload.check_round(disagree)


def test_agreement_is_weighted_by_stratum_share(out_dir):
    workload, outs = tiny_outputs("induce-crosscheck", out_dir, seed=11)
    done = list(outs.values())
    assert all(t.weight >= 1.0 for t, _ in done)
    # one flow in the oracle's disagreement: it fails the check unless its
    # stratum stands for under 5% of the draws
    task, (v, o, r) = done[0]
    flipped = [(task, (v, dataclasses.replace(o, inducible=not o.inducible),
                       r))] + done[1:]
    with pytest.raises(CheckFailed):
        workload.check_round(flipped)
    rest = sum(t.weight for t, _ in done[1:])
    light = dataclasses.replace(task, weight=0.04 * rest)
    workload.check_round([(light, flipped[0][1])] + done[1:])


def test_constructed_crosscheck_flows():
    inst, flow = workloads.longest_path_flow(random.Random(1))
    net = Net(inst.to_json())
    assert checks.negative_cycle(
        net, checks.arc_flows(net, flow.to_json())) is not None
    # inducible by the benchmark's own search, and the oracle agrees
    inst, flow = workloads.peak_memory_flow()
    net = Net(inst.to_json())
    flow_json = flow.to_json()
    paths = flow_json["commodities"][0]["paths"]
    assert len(net.lat) == 5 and len(paths) == 2
    assert checks.negative_cycle(
        net, checks.arc_flows(net, flow_json)) is None
    assert dr.oracle_inducible(inst, flow).inducible


def test_malformed_output_fails_the_task_not_the_run(monkeypatch):
    real = workloads.paper_tables

    def broken(*args, **kwargs):
        workload = real(*args, **kwargs)
        task = next(t for t in workload.tasks if t.name.startswith("cli"))
        grid = task.run
        # a well-formed grid, but a printed ratio that is no number
        task.run = lambda: ("no number", grid()[1])
        return workload
    monkeypatch.setitem(workloads.WORKLOADS, "paper-tables", broken)
    result, _ = run.measure(workloads, "paper-tables", 5, 0.0, False,
                            tiny=True)
    assert result["failed"] == 1 and not result["correct"]


def test_witness_and_cycle_search():
    inst, flow = dr.remark_b1_counterexample()
    net = Net(inst.to_json())
    flows = checks.arc_flows(net, flow.to_json())
    cycle = checks.negative_cycle(net, flows)
    assert cycle is not None
    assert sum(checks.aux_cost(net, flows, a, r) for a, r in cycle) < -0.5
    by_key = {(a.arc_id, a.is_reversed): a
              for a in dr.build_aux_graph(inst, flow).arcs}
    witness = [by_key[k] for k in cycle]
    checks.check_witness(net, flows, witness)
    with pytest.raises(CheckFailed):
        checks.check_witness(net, flows, witness[::-1])
    positive = [by_key[("1>2", False)], by_key[("1>2", True)]]
    with pytest.raises(CheckFailed, match="not negative"):
        checks.check_witness(net, flows, positive)


def test_closed_forms():
    assert [checks.fibonacci_number(k) for k in range(1, 9)] == \
        [1, 1, 2, 3, 5, 8, 13, 21]
    assert checks.coarse_bound(0.0, 1.0, 6, 1.0) == 4.0
    assert checks.coarse_bound(-0.25, 0.5, 5, 2.0) == pytest.approx(
        1.0 + 1.0 * 2 * 2.0)
