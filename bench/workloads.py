"""The benchmark's four workloads, built on devratio's public API.

Each workload turns a seed into a list of tasks during set-up. A task is one
table row, one solve or one instance: its ``run`` makes the program calls
that are timed, and its ``check`` tests the answer with the independent
code in ``checks.py`` outside the timed interval.

Program calls go through :class:`Api`. In an untraced run its attributes
are devratio's functions themselves; in a traced run each is wrapped to add
its wall time to the metric of its layer.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import devratio as dr
from devratio import bounds, cli, search
from devratio.core import Arc, Commodity, Curve, Instance, ThresholdPair

import checks
from checks import Net, close, require

#: per-layer metrics of a traced run, in the order they are reported
PER_LAYER = [
    "equilibrium.worst_s", "equilibrium.wardrop_s",
    "equilibrium.wardrop_iterations", "core.validate_deviation_s",
    "generators.case_s", "search.sample_s", "alternating.tree_s",
    "alternating.bound_s", "inducibility.is_inducible_s",
    "inducibility.recover_s", "inducibility.oracle_s",
    "inducibility.oracle_agree", "bounds.mu_hat_s", "cli.ratio_s",
]


def run_cli(args: list[str]) -> str:
    """``devratio <args>`` in this process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main.main(args=args, prog_name="devratio", standalone_mode=False)
    return out.getvalue()


#: Api attribute -> (layer metric, devratio function)
LAYER_CALLS: dict[str, tuple[str, Callable]] = {
    "braess": ("generators.case_s", dr.braess),
    "fibonacci": ("generators.case_s", dr.fibonacci),
    "smoothness_tight": ("generators.case_s", dr.smoothness_tight),
    "hamiltonian_reduction": ("generators.case_s", dr.hamiltonian_reduction),
    "wardrop": ("equilibrium.wardrop_s", dr.wardrop),
    "worst_equilibrium_cost": ("equilibrium.worst_s",
                               dr.worst_equilibrium_cost),
    "validate_deviation": ("core.validate_deviation_s",
                           dr.validate_deviation),
    "random_common_source_instance": ("search.sample_s",
                                      search.random_common_source_instance),
    "random_feasible_deviation": ("search.sample_s",
                                  search.random_feasible_deviation),
    "random_flow": ("search.sample_s", search.random_flow),
    "build_alt_path_tree": ("alternating.tree_s", dr.build_alt_path_tree),
    "bound_alpha_beta": ("alternating.bound_s", dr.bound_alpha_beta),
    "is_inducible": ("inducibility.is_inducible_s", dr.is_inducible),
    "recover_deviation": ("inducibility.recover_s", dr.recover_deviation),
    "oracle_inducible": ("inducibility.oracle_s", dr.oracle_inducible),
    "mu_hat": ("bounds.mu_hat_s", bounds.mu_hat),
    "cli": ("cli.ratio_s", run_cli),
}


class Api:
    """devratio's functions as the workloads call them.

    With ``trace`` set, every call adds its wall time, and ``count`` its
    amount, to ``bucket``: a dict the runner replaces for each set-up and
    each round. Without it the attributes are the plain functions.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.bucket: dict[str, float] = {}
        for name, (metric, fn) in LAYER_CALLS.items():
            setattr(self, name, self._timed(metric, fn) if trace else fn)

    def _timed(self, metric: str, fn: Callable) -> Callable:
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.bucket[metric] += time.perf_counter() - start
        return call

    def count(self, metric: str, amount: float) -> None:
        if self.trace:
            self.bucket[metric] += amount

    def solve(self, instance, deviation=None):
        result = self.wardrop(instance, deviation)
        self.count("equilibrium.wardrop_iterations", result.iterations)
        return result


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    #: the task's weight in a round check
    weight: float = 1.0


@dataclass
class Workload:
    tasks: list[Task]
    #: optional check over one round's (task, output) pairs
    check_round: Callable[[list], None] | None = None


def warm_up(api: Api, out_dir: Path) -> None:
    """One call into every layer on the smallest inputs, so that first-call
    costs land in set-up and not in the first timed task."""
    case = api.braess(2, 1.0)
    api.solve(case.instance, case.deviation)
    api.worst_equilibrium_cost(case.instance, case.deviation)
    api.validate_deviation(case.instance, case.deviation)
    tree = api.build_alt_path_tree(case.instance, case.x, case.z)
    api.bound_alpha_beta(0.0, 1.0, list(tree.etas), [1.0], 4)
    api.is_inducible(case.instance, case.x)
    api.recover_deviation(case.instance, case.x)
    rng = random.Random(0)
    inst = api.random_common_source_instance(rng, max_nodes=3)
    api.random_feasible_deviation(rng, inst)
    api.random_flow(rng, inst)
    pair = api.smoothness_tight(Curve.poly([0.0, 1.0]), 1.0, 1.0, 0.5)
    api.oracle_inducible(pair.instance, pair.x)
    api.mu_hat(bounds.SmoothnessQuery(Curve.poly([0.0, 1.0]), 1.0, 10.0,
                                      grid=100))
    path = out_dir / "warm-up.json"
    path.write_text(json.dumps(api.hamiltonian_reduction(
        ["a", "b", "c"], [("a", "b"), ("b", "c")], "a", "c").to_json()))
    api.cli(["ratio", str(path), "--lambda-grid", "2", "--seed", "0",
             "--dump-grid", str(out_dir / "warm-up.csv")])


# ---------------------------------------------------------------------------
# paper-tables: the rows of `devratio reproduce` plus `devratio ratio`
# ---------------------------------------------------------------------------
def ham_gadget(rng: random.Random, n: int, extra: int):
    """A digraph on n nodes with a Hamiltonian source-sink path and `extra`
    forward skip arcs; the seed relabels the nodes and picks the skips."""
    order = [f"u{i}" for i in range(n)]
    rng.shuffle(order)
    pairs = [(order[i], order[i + 1]) for i in range(n - 1)]
    skips = [(i, j) for i in range(n) for j in range(i + 2, n)]
    pairs += [(order[i], order[j]) for i, j in rng.sample(skips, extra)]
    return sorted(order), pairs, order[0], order[-1]


def paper_tables(api: Api, seed: int, out_dir: Path,
                 tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    # m = 7 and 8 are left out: their rows take 2.4 s and 3.8 s each, and with
    # them one round would outlast a run
    ms = range(2, 4) if tiny else range(2, 7)
    betas = (1.0,) if tiny else (0.5, 1.0, 2.0)
    tasks = []

    for m in ms:
        for beta in betas:
            def run(m=m, beta=beta):
                case = api.braess(m, beta)
                z = api.solve(case.instance)
                z_cost = dr.social_cost(case.instance, z.flow)
                x_cost = api.worst_equilibrium_cost(
                    case.instance, case.deviation, dr.SolverConfig(), seed=0)
                _, coarse = api.bound_alpha_beta(0.0, beta, [0], [1.0],
                                                 case.instance.n_nodes)
                return case, z, z_cost, x_cost, coarse

            def check(out, m=m, beta=beta):
                case, z, z_cost, x_cost, coarse = out
                net = Net(case.instance.to_json())
                require(len(net.nodes) == 2 * m, "Braess graph size")
                own = checks.social_cost(
                    net, checks.check_wardrop(net, z.flow.to_json()))
                close(own, 1.0, 1e-6, "undeviated Braess cost")
                close(z_cost, own, 1e-9, "social_cost")
                expected = 1.0 + beta * m
                require(abs(x_cost / z_cost - expected) <= 1e-4 * expected,
                        f"Braess ratio {x_cost / z_cost!r}, paper: {expected}")
                close(coarse, 1.0 + beta * math.ceil((2 * m - 1) / 2), 1e-12,
                      "coarse bound")
            tasks.append(Task(f"braess m={m} beta={beta}", run, check))

    for p in ((3,) if tiny else (3, 5, 7)):
        def run(p=p):
            return api.fibonacci(p, 1.0)

        def check(case, p=p):
            net = Net(case.instance.to_json())
            z = checks.check_wardrop(net, case.z.to_json())
            x = checks.check_wardrop(net, case.x.to_json(),
                                     case.deviation.to_json())
            ratio = checks.social_cost(net, x) / checks.social_cost(net, z)
            close(ratio, case.expected_ratio, 1e-9, "Fibonacci ratio")
            floor = 1.0 + checks.fibonacci_number(p + 1)
            require(ratio >= floor - 1e-4,
                    f"Fibonacci ratio {ratio!r} below 1 + F_{p + 1} = {floor}")
        tasks.append(Task(f"fibonacci p={p}", run, check))

    affine = Curve.poly([0.0, 1.0])
    for beta in ((1.0,) if tiny else (0.0, 0.5, 1.0, 2.0, 5.0)):
        def run(beta=beta):
            mu = api.mu_hat(bounds.SmoothnessQuery(affine, beta, 10.0)).value
            return mu, bounds.bpoa_bound(mu, beta), bounds.bpoa_dr_gap(mu, beta)

        def check(out, beta=beta):
            mu, bpoa, gap = out
            require(abs(mu - 1.0 / (4.0 * (1.0 + beta))) <= 1e-3,
                    f"mu_hat {mu!r} for beta={beta}, paper: 1/(4(1+beta))")
            close(bpoa, (1.0 + beta) / (1.0 - mu), 1e-12, "bpoa bound")
            close(gap, (1.0 + beta) * mu / (1.0 - mu), 1e-12, "bpoa-dr gap")
        tasks.append(Task(f"smoothness beta={beta}", run, check))

    n, extra = (4, 1) if tiny else (5, 2)
    nodes, pairs, s, t = ham_gadget(rng, n, extra)
    gadget = out_dir / "gadget.json"
    gadget.write_text(json.dumps(
        api.hamiltonian_reduction(nodes, pairs, s, t).to_json()))
    grid_csv = out_dir / "gadget-grid.csv"

    def run():
        printed = api.cli(["ratio", str(gadget), "--lambda-grid", "2",
                           "--seed", str(seed), "--dump-grid", str(grid_csv)])
        return printed, grid_csv.read_text()

    def check(out):
        printed, text = out
        rows = list(csv.reader(io.StringIO(text)))
        require(rows[0] == ["lambdas", "cost"], "grid dump header")
        require(len(rows) == 1 + 2 ** len(pairs), "grid dump row count")
        costs = {tuple(r[0].split(";")): float(r[1]) for r in rows[1:]}
        worst = max(costs.values())
        close(worst, n - 1.0, 1e-6,
              "largest grid cost on a Hamiltonian gadget (paper: n - 1)")
        zero = ("0",) * len(pairs)
        require(zero in costs, "grid dump has no lambda = 0 row")
        close(float(printed), worst / costs[zero], 1e-6, "printed ratio")
    tasks.append(Task("cli ratio --dump-grid", run, check))

    # the same command without the dump, which skips the second grid pass;
    # the round check holds it to the ratio printed with the dump
    def run_plain():
        return api.cli(["ratio", str(gadget), "--lambda-grid", "2",
                        "--seed", str(seed)])

    def check_plain(printed):
        require(float(printed) >= 1.0, f"ratio {printed!r} below 1")
    tasks.append(Task("cli ratio", run_plain, check_plain))

    def check_round(done):
        printed = {task.name: out for task, out in done}
        close(float(printed["cli ratio"]),
              float(printed["cli ratio --dump-grid"][0]), 1e-9,
              "ratio printed without --dump-grid against the one with it")
    return Workload(tasks, check_round)


# ---------------------------------------------------------------------------
# solve-ladder: single solves at growing size
# ---------------------------------------------------------------------------
def grid_network(rng: random.Random, side: int, k: int):
    """side x side grid with right and down arcs and quadratic latencies;
    commodity i runs from column i of the top row to column side-k+i of
    the bottom row. Returns the instance and a deviation lambda_a * l_a."""
    def node(r, c):
        return f"g{r}_{c}"
    arcs = []
    for r in range(side):
        for c in range(side):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < side and c2 < side:
                    arcs.append(Arc(
                        f"{node(r, c)}>{node(r2, c2)}", node(r, c),
                        node(r2, c2),
                        Curve.poly([round(rng.uniform(1.0, 2.0), 3),
                                    round(rng.uniform(0.1, 1.0), 3),
                                    round(rng.uniform(0.0, 0.5), 3)])))
    commodities = [Commodity(node(0, i), node(side - 1, side - k + i),
                             round(rng.uniform(1.0, 2.0), 3))
                   for i in range(k)]
    instance = Instance([node(r, c) for r in range(side)
                         for c in range(side)], arcs, commodities,
                        ThresholdPair.alpha_beta(0.0, 1.0))
    deviation = dr.Deviation({a.id: a.latency.scale(rng.uniform(0.0, 1.0))
                              for a in instance.arcs})
    return instance, deviation


def solve_ladder(api: Api, seed: int, out_dir: Path,
                 tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    tasks = []
    # every size up to 12 at three betas, so that most tasks do not depend
    # on the seed and the median task falls among many solves of similar
    # size; then m = 13, where undeviated iterations blow up (4,762 against
    # 956 at m = 12). Larger m are left out: their undeviated solves take
    # 1.9 s (m = 14) to 6 s (m = 16), which would leave a run few rounds.
    sizes = [(m, beta) for m in range(2, 13) for beta in (0.5, 1.0, 2.0)]
    for m, beta in ([(2, 1.0), (3, 1.0)] if tiny else sizes + [(13, 1.0)]):
        case = api.braess(m, beta)
        for deviated in (False, True):
            deviation = case.deviation if deviated else None

            def run(case=case, deviation=deviation):
                return api.solve(case.instance, deviation)

            def check(result, case=case, deviation=deviation, m=m,
                      beta=beta):
                net = Net(case.instance.to_json())
                flows = checks.check_wardrop(
                    net, result.flow.to_json(),
                    deviation.to_json() if deviation else None)
                cost = checks.social_cost(net, flows)
                if deviation is None:
                    close(cost, 1.0, 1e-6, "undeviated Braess cost")
                else:
                    require(cost <= 1.0 + beta * m + 1e-6,
                            f"deviated Braess cost {cost!r} above 1 + beta*m")
            kind = "deviated" if deviated else "undeviated"
            tasks.append(Task(f"braess m={m} beta={beta} {kind}", run,
                              check))

    # (side, commodities, copies). The seed sets the latencies, and with them
    # the iteration counts, which vary threefold between grids; four copies of
    # each shape average that out. Four commodities on a 4x4 grid would each
    # have a single path, so that shape is 5x5.
    shapes = [(3, 1, 1), (3, 2, 1)] if tiny else [(4, 1, 4), (5, 4, 4)]
    for side, k, copies in shapes:
        for copy in range(copies):
            instance, dev = grid_network(rng, side, k)
            for deviation in (None, dev):
                def run(instance=instance, deviation=deviation):
                    return api.solve(instance, deviation)

                def check(result, instance=instance, deviation=deviation):
                    checks.check_wardrop(
                        Net(instance.to_json()), result.flow.to_json(),
                        deviation.to_json() if deviation else None)
                kind = "deviated" if deviation else "undeviated"
                tasks.append(Task(f"grid {side}x{side} k={k} #{copy} {kind}",
                                  run, check))
    return Workload(tasks)


# ---------------------------------------------------------------------------
# dominance and induce-crosscheck: many small seeded instances
# ---------------------------------------------------------------------------
def stratified(draw: Callable[[Callable], tuple], quotas: dict,
               max_draws: int = 100000) -> tuple[list, Counter]:
    """Calls ``draw(room) -> (stratum, item)`` until every stratum holds
    its quota of items; ``room(stratum)`` tells whether it still takes one.
    The seed then changes the values of the inputs but not their mix of
    sizes. Returns the (stratum, item) pairs kept and the number of draws
    that fell in each stratum, kept or not."""
    filled, seen, chosen = Counter(), Counter(), []

    def room(stratum) -> bool:
        return filled[stratum] < quotas.get(stratum, 0)

    for _ in range(max_draws):
        stratum, item = draw(room)
        seen[stratum] += 1
        if room(stratum):
            filled[stratum] += 1
            chosen.append((stratum, item))
            if filled == Counter(quotas):
                return chosen, seen
    raise RuntimeError(f"strata {quotas} not filled after {max_draws} draws")


def arc_count_quotas(sizes: range, per_size: int) -> dict:
    """Quotas for the strata (nodes, commodities, arcs) of
    ``random_common_source_instance``. On n nodes it keeps the n - 1 chain
    arcs and each of the other (n-1)(n-2)/2 forward arcs with probability
    0.4, so the arc count is binomial; each (nodes, commodities) pair gets
    ``per_size`` instances spread by that law. Arc counts that would get
    fewer than two are left out."""
    quotas = {}
    for n in sizes:
        optional = (n - 1) * (n - 2) // 2
        for extra in range(optional + 1):
            share = (math.comb(optional, extra) * 0.4 ** extra
                     * 0.6 ** (optional - extra))
            if round(per_size * share) >= 2:
                for k in (1, 2):
                    quotas[(n, k, n - 1 + extra)] = round(per_size * share)
    return quotas


def dominance(api: Api, seed: int, out_dir: Path,
              tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    sizes = range(3, 5) if tiny else range(3, 9)
    quotas = ({(n, k, n - 1): 1 for n in sizes for k in (1, 2)} if tiny
              else arc_count_quotas(sizes, 36))

    def draw(room):
        alpha = rng.choice([0.0, -0.25])
        beta = rng.choice([0.5, 1.0])
        instance = api.random_common_source_instance(
            rng, max_nodes=max(sizes), alpha=alpha, beta=beta)
        deviation = api.random_feasible_deviation(rng, instance)
        return ((instance.n_nodes, len(instance.commodities),
                 len(instance.arcs)), (alpha, beta, instance, deviation))

    chosen, _ = stratified(draw, quotas)
    tasks = []
    for index, (stratum, (alpha, beta, instance, deviation)) in enumerate(
            chosen):
        def run(alpha=alpha, beta=beta, instance=instance,
                deviation=deviation):
            report = api.validate_deviation(instance, deviation)
            z = api.solve(instance)
            x = api.solve(instance, deviation)
            ratio = (dr.social_cost(instance, x.flow)
                     / dr.social_cost(instance, z.flow))
            tree = api.build_alt_path_tree(instance, x.flow, z.flow)
            demands = [c.demand for c in instance.commodities]
            fine, coarse = api.bound_alpha_beta(alpha, beta, list(tree.etas),
                                                demands, instance.n_nodes)
            verdict = api.is_inducible(instance, x.flow)
            recovered = api.recover_deviation(instance, x.flow)
            return report, z, x, ratio, tree, fine, coarse, verdict, recovered

        def check(out, alpha=alpha, beta=beta, instance=instance,
                  deviation=deviation):
            report, z, x, ratio, tree, fine, coarse, verdict, recovered = out
            net = Net(instance.to_json())
            dev_json = deviation.to_json()
            require(report == [], f"validate_deviation reported {report[:2]}")
            zf = checks.check_wardrop(net, z.flow.to_json())
            xf = checks.check_wardrop(net, x.flow.to_json(), dev_json)
            checks.check_within_thresholds(net, dev_json, xf)
            own = checks.social_cost(net, xf) / checks.social_cost(net, zf)
            close(ratio, own, 1e-9, "deviation ratio")
            n, r = len(net.nodes), net.total_demand
            require(all(eta <= math.ceil((n - 1) / 2) for eta in tree.etas),
                    f"segment counts {tree.etas} above ceil((n-1)/2)")
            factor = (beta - alpha) / (1.0 + alpha)
            close(fine, 1.0 + factor * sum(
                d * eta for (_, _, d), eta in zip(net.commodities, tree.etas)),
                1e-12, "fine bound")
            close(coarse, checks.coarse_bound(alpha, beta, n, r), 1e-12,
                  "coarse bound")
            require(own <= fine + 1e-6 and fine <= coarse + 1e-6,
                    f"ratio {own!r} <= fine {fine!r} <= coarse {coarse!r} "
                    "fails")
            require(verdict.inducible, "deviated equilibrium not inducible")
            rec_json = recovered.to_json()
            checks.check_within_thresholds(net, rec_json, xf)
            checks.check_wardrop(net, x.flow.to_json(), rec_json)
        tasks.append(Task(f"instance {index} {stratum}", run, check))
    return Workload(tasks)


#: induce-crosscheck strata (nodes, arcs, commodities, inducible, several
#: carrying paths, and on 4 or more arcs the number of source-sink paths)
#: and their quotas per round. The grid oracle's cost is set by the arc and
#: path counts, and it zooms in (3 to 6 sweeps instead of one) on inducible
#: flows that split a commodity over several paths; fixing the mix fixes the
#: work. Kept: on 4 or 5 arcs, the most common path count of each kind of
#: flow. Left out: strata rarer than 1 in 250 draws, and 6 arcs but for the
#: longest-path flow below.
#:
#: The quotas also place the median task. Task times do not cluster on
#: their own: from 50 to 200 ms the strata lie 10-30% apart, and with one
#: flow each the median task changed with the seed. Ten flows of one
#: commodity on the 3-arc trees of 4 nodes (45-65 ms each: one path, one
#: oracle sweep) form a block; eighteen flows on 2 arcs (about 1 ms) below
#: it match the seventeen costlier flows above it, so the median task is
#: the middle of that block. (On 3 nodes and 3 arcs a one-path flow takes
#: 45 or 120 ms, by its sink, so those flows would not form a block.)
CROSSCHECK_QUOTAS = {
    (3, 2, 1, True, False): 9, (3, 2, 2, True, False): 9,
    (4, 3, 1, True, False): 10, (4, 3, 2, True, False): 1,
    **{(3, 3, k, inducible, several): 1 for k in (1, 2)
       for inducible, several in ((False, False), (True, False),
                                  (True, True))},
    (4, 4, 1, False, False, 2): 1, (4, 4, 1, True, False, 1): 1,
    (4, 4, 1, True, True, 2): 1, (4, 4, 2, False, False, 3): 1,
    (4, 4, 2, True, False, 2): 1, (4, 5, 1, False, False, 3): 1,
    (4, 5, 1, True, False, 1): 1, (4, 5, 1, True, True, 2): 1,
    (4, 5, 2, False, False, 4): 1, (4, 5, 2, True, False, 2): 1,
}
TINY_CROSSCHECK_QUOTAS = {(3, 2, 1, True, False): 1, (3, 3, 1, True, False): 1,
                          (3, 3, 2, False, False): 1}


def longest_path_flow(rng: random.Random):
    """The complete DAG on four nodes (criterion 3's largest instance) with
    one commodity routed entirely on the three-arc path while the direct
    arc is cheaper even at its largest deviation: clearly not inducible.
    Every round holds one, so every round reaches the oracle's largest grid
    (six arcs, four paths)."""
    nodes = [f"v{i}" for i in range(4)]
    arcs = []
    for i in range(4):
        for j in range(i + 1, 4):
            low = (1.0, 0.5) if j == i + 1 else (0.0, 0.1)
            arcs.append(Arc(f"a{i}{j}", nodes[i], nodes[j], Curve.poly(
                [round(rng.uniform(c, c + 0.2), 3) for c in low])))
    demand = round(rng.uniform(1.0, 2.0), 3)
    instance = Instance(nodes, arcs, [Commodity("v0", "v3", demand)],
                        ThresholdPair.alpha_beta(0.0, 1.0))
    return instance, dr.Flow(instance, [{("a01", "a12", "a23"): demand}])


def peak_memory_flow():
    """A fixed inducible flow split over two paths on 4 nodes and 5 arcs.
    The oracle zooms on it five times, and along the way it keeps two
    earlier grids alive besides the one it sweeps: the largest memory peak
    the mix reaches. Which random split flow does so depends on its values,
    so without this flow the peak moved by one grid (about 72 MB) from seed
    to seed. Every round holds it, whatever the seed."""
    nodes = [f"v{i}" for i in range(4)]
    arcs = [Arc(name, tail, head, Curve.poly(coefs)) for name, tail, head,
            coefs in (("a00", "v0", "v1", [0.151, 0.78]),
                      ("a01", "v0", "v2", [0.908, 0.174]),
                      ("a02", "v1", "v2", [0.332, 0.473]),
                      ("a03", "v1", "v3", [0.053, 0.725]),
                      ("a04", "v2", "v3", [0.437, 0.398]))]
    instance = Instance(nodes, arcs, [Commodity("v0", "v2", 1.144)],
                        ThresholdPair.alpha_beta(0.0, 1.0))
    # the split as a random draw made it; rounded to four digits, the
    # oracle's zoom ends 3e-9 short of its 1e-9 margin and says not inducible
    return instance, dr.Flow(instance, [{("a00", "a02"): 0.46373814042127753,
                                         ("a01",): 0.6802618595787224}])


def induce_crosscheck(api: Api, seed: int, out_dir: Path,
                      tiny: bool = False) -> Workload:
    rng = random.Random(seed)

    def draw(room):
        # at most 4 nodes, hence at most 6 arcs: criterion 3's instances
        instance = api.random_common_source_instance(rng, max_nodes=4)
        flow = api.random_flow(rng, instance)
        flow_json = flow.to_json()
        net = Net(instance.to_json())
        flows = checks.arc_flows(net, flow_json)
        inducible = checks.negative_cycle(net, flows) is None
        several = inducible and any(
            len(c["paths"]) > 1 for c in flow_json["commodities"])
        stratum = (instance.n_nodes, len(instance.arcs),
                   len(instance.commodities), inducible, several)
        if len(instance.arcs) >= 4:
            stratum += (sum(len(checks.simple_paths(net, s, t))
                            for s, t, _ in net.commodities),)
        if room(stratum) and not inducible:
            # the oracle also zooms on flows close to inducible, as many
            # times as their values ask; they are left out (about 1 in 30)
            widest = max(net.theta_max[a](x) - net.theta_min[a](x)
                         for a, x in flows.items())
            if checks.inducibility_margin(net, flow_json, flows) \
                    < 0.25 * widest:
                stratum += ("near inducible",)
        return stratum, (instance, flow)

    chosen, seen = stratified(draw, TINY_CROSSCHECK_QUOTAS if tiny
                              else CROSSCHECK_QUOTAS)
    # a flow's weight is the share of draws that its stratum's flows stand
    # for: the agreement check then weighs the kept strata as criterion 3's
    # random flows would
    weights = [seen[stratum] / sum(1 for s, _ in chosen if s == stratum)
               for stratum, _ in chosen]
    if not tiny:
        # constructed flows, not random ones: they do not count
        chosen += [("longest path", longest_path_flow(rng)),
                   ("peak memory", peak_memory_flow())]
        weights += [0.0, 0.0]
    tasks = []
    for index, (stratum, (instance, flow)) in enumerate(chosen):
        def run(instance=instance, flow=flow):
            verdict = api.is_inducible(instance, flow)
            oracle = api.oracle_inducible(instance, flow)
            api.count("inducibility.oracle_agree",
                      int(oracle.inducible == verdict.inducible))
            recovered = (api.recover_deviation(instance, flow)
                         if verdict.inducible else None)
            return verdict, oracle, recovered

        def check(out, instance=instance, flow=flow):
            verdict, oracle, recovered = out
            net = Net(instance.to_json())
            flow_json = flow.to_json()
            flows = checks.arc_flows(net, flow_json)
            cycle = checks.negative_cycle(net, flows)
            require(verdict.inducible == (cycle is None),
                    f"cycle test says inducible={verdict.inducible}, the "
                    f"benchmark's own search finds cycle {cycle}")
            margin = checks.inducibility_margin(net, flow_json, flows)
            require(verdict.inducible == (margin <= 1e-9),
                    f"cycle test says inducible={verdict.inducible}, the "
                    f"benchmark's margin LP gives {margin!r}")
            require(oracle.margin >= margin - 1e-9,
                    f"oracle margin {oracle.margin!r} below the least "
                    f"possible, {margin!r}")
            if verdict.inducible:
                rec_json = recovered.to_json()
                checks.check_within_thresholds(net, rec_json, flows)
                checks.check_wardrop(net, flow_json, rec_json)
            else:
                checks.check_witness(net, flows, list(verdict.witness))
            if oracle.inducible != verdict.inducible:
                require(0.0 < oracle.margin < 2.0 * oracle.step,
                        f"oracle disagrees with margin {oracle.margin!r} "
                        f"outside (0, 2 * step = {2 * oracle.step!r})")
        tasks.append(Task(f"flow {index} {stratum}", run, check,
                          weights[index]))

    def check_round(done):
        total = sum(task.weight for task, _ in done)
        agree = sum(task.weight for task, (verdict, oracle, _) in done
                    if oracle.inducible == verdict.inducible)
        require(agree >= 0.95 * total,
                f"oracle agrees on a weighted {agree / total:.1%} of the "
                "random flows, under 95%")
    return Workload(tasks, check_round)


WORKLOADS = {
    "paper-tables": paper_tables,
    "solve-ladder": solve_ladder,
    "dominance": dominance,
    "induce-crosscheck": induce_crosscheck,
}
