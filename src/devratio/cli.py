"""Command-line interface: generate instances, solve equilibria, check
inducibility, evaluate bounds, and reproduce result tables as CSV.

Exit codes: 0 success, 2 usage error (a bad option value included), 3
domain error, 4 solver did not converge.
"""
from __future__ import annotations

import csv
import json
import random
import sys
from pathlib import Path

import click

from . import bounds as bounds_mod
from . import generators, search
from .alternating import bound_alpha_beta, build_alt_path_tree
from .core import Curve, Deviation, Flow, Instance, social_cost
from .equilibrium import SolverConfig, wardrop, worst_equilibrium_cost
from .errors import (DevRatioError, InvalidConfig, InvalidInstance,
                     NotConverged)
from .generators import _fibonacci_numbers
from .inducibility import is_inducible, recover_deviation


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _load_json(path: str, what: str, build):
    """build(spec) on the JSON in path; malformed JSON, a missing key, a
    value of the wrong type (a list for an object) or a malformed value
    (such as an unknown curve spec) is a usage error that names it."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    except KeyError as exc:
        raise click.UsageError(f"{what} {path} lacks the key {exc.args[0]!r}")
    except (ValueError, TypeError, AttributeError) as exc:
        raise click.UsageError(f"{what} {path}: {exc}")


def _load_instance(path: str) -> Instance:
    return _load_json(path, "instance", Instance.from_json)


def _solver_config(tol: float) -> SolverConfig:
    try:
        return SolverConfig(relative_gap_tol=tol)
    except InvalidConfig as exc:
        raise click.UsageError(f"--tol: {exc}")


class _ListOf(click.ParamType):
    """Comma-separated values, each read by ``item``, all passed to
    ``build``; an empty item or a ValueError from either is a usage error
    naming the option."""
    name = "list"

    def __init__(self, item, build=list):
        self.item, self.build = item, build

    def convert(self, value, param, ctx):
        try:
            items = value.split(",")
            if "" in items:
                raise ValueError(f"empty item in {value!r}")
            return self.build([self.item(v) for v in items])
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


def _pair(sep: str, item=float):
    """Reader of one ``a<sep>b`` item as the tuple (item(a), item(b))."""
    def read(text: str) -> tuple:
        parts = text.split(sep)
        if len(parts) != 2:
            raise ValueError(f"{text!r} is not of the form a{sep}b")
        return tuple(map(item, parts))
    return read


_FLOATS, _POLY = _ListOf(float), _ListOf(float, Curve.poly)


class _Boundary(click.Group):
    """The CLI's one domain-error boundary: NotConverged exits 4 and any
    other DevRatioError 3, with ``error: <message>`` on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DevRatioError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4 if isinstance(exc, NotConverged) else 3)


@click.group(cls=_Boundary)
def main() -> None:
    """Selfish routing under bounded latency deviations."""


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------
@main.command()
@click.argument("family", type=click.Choice(
    ["braess", "braess-odd", "braess-even", "fibonacci", "smoothness-tight",
     "ham-reduction", "remark-b1"]))
@click.option("--m", type=int, default=3)
@click.option("--beta", type=float, default=1.0)
@click.option("--r", type=float, default=1.0)
@click.option("--p", type=int, default=3)
@click.option("--ramp-delta", type=float, default=0.01)
@click.option("--epsilon", type=float, default=0.25)
@click.option("--poly", type=_POLY, default="0,1",
              help="latency coefficients c0,c1,...")
@click.option("--nodes", type=_ListOf(str), help="comma-separated node ids")
@click.option("--arcs", type=_ListOf(_pair(">", str)),
              help="comma-separated tail>head pairs")
@click.option("--source", default="")
@click.option("--sink", default="")
@click.option("--out", type=click.Path(), required=True)
@click.option("--dot", type=click.Path(), default=None,
              help="also write a DOT rendering of the graph")
def generate(family, m, beta, r, p, ramp_delta, epsilon, poly, nodes, arcs,
             source, sink, out, dot) -> None:
    """Write an instance JSON plus a sidecar with flows and deviation."""
    sidecar: dict | None = None
    case = None
    try:
        if family == "braess":
            case = generators.braess(m, beta)
        elif family == "braess-odd":
            case = generators.braess_odd(m, beta, r)
        elif family == "braess-even":
            case = generators.braess_even(m, beta, r)
        elif family == "fibonacci":
            case = generators.fibonacci(p, beta, ramp_delta)
        elif family == "smoothness-tight":
            pair = generators.smoothness_tight(poly, beta, r, epsilon)
            instance = pair.instance
            sidecar = {
                "family": family,
                "ratio": pair.ratio,
                "deviation": pair.deviation.to_json(),
                "x": pair.x.to_json(),
                "z_star": pair.z_star.to_json(),
            }
        elif family == "ham-reduction":
            if not nodes or not arcs or not source or not sink:
                raise InvalidInstance(
                    "ham-reduction needs --nodes, --arcs, --source, --sink")
            instance = generators.hamiltonian_reduction(
                nodes, arcs, source, sink)
            sidecar = {"family": family}
        else:  # remark-b1
            instance, flow = generators.remark_b1_counterexample()
            sidecar = {"family": family, "flow": flow.to_json()}
    except InvalidInstance as exc:
        raise click.UsageError(str(exc))
    if case is not None:
        instance = case.instance
        sidecar = {
            "family": case.family,
            "expected_ratio": case.expected_ratio,
            "deviation": case.deviation.to_json(),
            "z": case.z.to_json(),
            "x": case.x.to_json(),
        }
        click.echo(f"expected_ratio={_fmt(case.expected_ratio)}")
    out_path = Path(out)
    out_path.write_text(json.dumps(instance.to_json(), indent=2) + "\n")
    out_path.with_suffix(out_path.suffix + ".case.json").write_text(
        json.dumps(sidecar, indent=2) + "\n")
    if dot is not None:
        Path(dot).write_text(instance.to_dot() + "\n")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------
@main.command()
@click.argument("instance_path", type=click.Path(exists=True))
@click.option("--deviation", "deviation_path", type=click.Path(exists=True))
@click.option("--tol", type=float, default=1e-8)
@click.option("--out", type=click.Path(), default=None)
def solve(instance_path, deviation_path, tol, out) -> None:
    """Compute an equilibrium flow and print its cost and gap."""
    config = _solver_config(tol)
    instance = _load_instance(instance_path)
    deviation = None
    if deviation_path is not None:
        deviation = _load_json(deviation_path, "deviation",
                               Deviation.from_json)
        unknown = sorted(set(deviation.curves) - set(instance.arcs_by_id))
        if unknown:
            raise click.UsageError(f"deviation {deviation_path} names arcs "
                                   f"not in the instance: {unknown}")
    result = wardrop(instance, deviation, config)
    cost = social_cost(instance, result.flow)
    click.echo(f"C={_fmt(cost)} gap={result.relative_gap:.3e} "
               f"iterations={result.iterations}")
    if out is not None:
        Path(out).write_text(json.dumps(result.flow.to_json(), indent=2)
                             + "\n")


# ---------------------------------------------------------------------------
# induce
# ---------------------------------------------------------------------------
@main.command()
@click.argument("instance_path", type=click.Path(exists=True))
@click.argument("flow_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None,
              help="write the recovered deviation JSON here")
def induce(instance_path, flow_path, out) -> None:
    """Decide inducibility; emit a deviation or a witness cycle."""
    instance = _load_instance(instance_path)
    flow = _load_json(flow_path, "flow",
                      lambda spec: Flow.from_json(instance, spec))
    verdict = is_inducible(instance, flow)
    if verdict.inducible:
        deviation = recover_deviation(instance, flow)
        click.echo("inducible")
        payload = json.dumps(deviation.to_json(), indent=2)
        if out is not None:
            Path(out).write_text(payload + "\n")
        else:
            click.echo(payload)
    else:
        cycle = [f"{'-' if a.is_reversed else '+'}{a.arc_id}"
                 for a in verdict.witness]
        click.echo("not inducible; negative cycle: " + " ".join(cycle))


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------
@main.group()
def bound() -> None:
    """Closed-form bound calculators."""


@bound.command("dr")
@click.option("--alpha", type=float, default=0.0)
@click.option("--beta", type=float, required=True)
@click.option("--n", type=int, required=True)
@click.option("--r", type=float, default=1.0)
def bound_dr(alpha, beta, n, r) -> None:
    _, coarse = bound_alpha_beta(alpha, beta, [0], [r], n)
    click.echo(_fmt(coarse))
    if n % 2 == 0:
        click.echo(
            "note: for two-commodity instances with an even node count the "
            "tight value is (1 + beta'*r*n/2) - beta'*(r-1), slightly below "
            "this bound", err=True)


@bound.command("pra")
@click.option("--gamma", type=float, required=True)
@click.option("--kappa", type=float, required=True)
@click.option("--n", type=int, required=True)
@click.option("--r", type=float, default=1.0)
def bound_pra(gamma, kappa, n, r) -> None:
    click.echo(_fmt(bounds_mod.pra_bound(gamma, kappa, n, r)))


@bound.command("pra-even")
@click.option("--gamma", type=float, required=True)
@click.option("--kappa", type=float, required=True)
@click.option("--n", type=int, required=True)
@click.option("--r", type=float, default=1.0)
def bound_pra_even(gamma, kappa, n, r) -> None:
    click.echo(_fmt(bounds_mod.pra_lower_even(gamma, kappa, n, r)))


@bound.command("stability")
@click.option("--epsilon", type=float, required=True)
@click.option("--n", type=int, required=True)
@click.option("--r", type=float, default=1.0)
def bound_stability(epsilon, n, r) -> None:
    click.echo(_fmt(bounds_mod.stability_bound(epsilon, n, r)))


@bound.command("mu-hat")
@click.option("--poly", type=_POLY, help="latency coefficients c0,c1,...")
@click.option("--pwl", type=_ListOf(_pair(":"), Curve.pwl),
              help="breakpoints x:y,x:y,...")
@click.option("--beta", type=float, default=0.0)
@click.option("--domain-max", type=float, default=10.0)
@click.option("--grid", type=int, default=512)
def bound_mu_hat(poly, pwl, beta, domain_max, grid) -> None:
    if (poly is None) == (pwl is None):
        raise click.UsageError("give exactly one of --poly or --pwl")
    result = bounds_mod.mu_hat(bounds_mod.SmoothnessQuery(
        poly or pwl, beta, domain_max, grid))
    click.echo(_fmt(result.value))
    if result.boundary:
        click.echo("note: maximum attained on the domain boundary; the "
                   "supremum may diverge beyond it", err=True)


@bound.command("bpoa")
@click.option("--mu", type=float, required=True)
@click.option("--beta", type=float, required=True)
def bound_bpoa(mu, beta) -> None:
    click.echo(_fmt(bounds_mod.bpoa_bound(mu, beta)))


@bound.command("path-dev")
@click.option("--mu0", type=float, required=True)
@click.option("--beta", type=float, required=True)
def bound_path_dev(mu0, beta) -> None:
    click.echo(_fmt(bounds_mod.path_deviation_bound(mu0, beta)))


@bound.command("gap")
@click.option("--mu", type=float, required=True)
@click.option("--beta", type=float, required=True)
def bound_gap(mu, beta) -> None:
    click.echo(_fmt(bounds_mod.bpoa_dr_gap(mu, beta)))


@bound.command("hetero")
@click.option("--taus", type=_FLOATS, required=True,
              help="comma-separated risk factors")
@click.option("--demands", type=_FLOATS, required=True,
              help="comma-separated demands")
@click.option("--beta", type=float, required=True)
def bound_hetero(taus, demands, beta) -> None:
    click.echo(_fmt(bounds_mod.heterogeneous_bound(taus, demands, beta)))


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------
@main.command()
@click.argument("instance_path", type=click.Path(exists=True))
@click.option("--lambda-grid", type=click.IntRange(min=1), default=4)
@click.option("--tol", type=float, default=1e-8)
@click.option("--seed", type=int, required=True,
              help="unused: the search is deterministic")
@click.option("--dump-grid", type=click.Path(), default=None)
def ratio(instance_path, lambda_grid, tol, seed, dump_grid) -> None:
    """Empirical deviation ratio from a lambda-grid search."""
    config = _solver_config(tol)
    instance = _load_instance(instance_path)
    # the same calls in the same order as search.empirical_dr, so the
    # printed ratio is bit-identical to it
    rows = search.deviation_grid_costs(instance, lambda_grid, config,
                                       seed=seed)
    base = social_cost(instance, wardrop(instance, None, config).flow)
    click.echo(_fmt(max(cost for _, cost in rows) / base))
    if dump_grid is not None:
        with open(dump_grid, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambdas", "cost"])
            for combo, cost in rows:
                writer.writerow([";".join(_fmt(v) for v in combo),
                                 _fmt(cost)])


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------
@main.command()
@click.argument("target", type=click.Choice(
    ["braess-sweep", "fibonacci-sweep", "smoothness-affine", "dominance"]))
@click.option("--out", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
@click.option("--count", type=int, default=100,
              help="instances in the dominance sweep")
def reproduce(target, out, seed, count) -> None:
    """Regenerate a result table as CSV."""
    rows: list[list] = []
    if target == "braess-sweep":
        header = ["m", "beta", "expected", "observed", "coarse_bound"]
        config = SolverConfig()
        for m in range(2, 9):
            for beta in (0.5, 1.0, 2.0):
                case = generators.braess(m, beta)
                z_cost = social_cost(
                    case.instance, wardrop(case.instance, None, config).flow)
                x_cost = worst_equilibrium_cost(
                    case.instance, case.deviation, config, seed=0)
                _, coarse = bound_alpha_beta(0.0, beta, [0], [1.0],
                                             case.instance.n_nodes)
                rows.append([m, _fmt(beta), _fmt(case.expected_ratio),
                             _fmt(x_cost / z_cost), _fmt(coarse)])
    elif target == "fibonacci-sweep":
        header = ["p", "beta", "ratio", "lower_threshold"]
        fib = _fibonacci_numbers(9)
        for p in (3, 5, 7):
            beta = 1.0
            case = generators.fibonacci(p, beta)
            rows.append([p, _fmt(beta), _fmt(case.expected_ratio),
                         _fmt(1.0 + beta * fib[p + 1])])
    elif target == "smoothness-affine":
        header = ["beta", "mu_hat", "closed_form", "bpoa_bound", "gap"]
        affine = Curve.poly([0.0, 1.0])
        for beta in (0.0, 0.5, 1.0, 2.0, 5.0):
            mu = bounds_mod.mu_hat(bounds_mod.SmoothnessQuery(
                affine, beta, 10.0)).value
            rows.append([_fmt(beta), _fmt(mu),
                         _fmt(1.0 / (4.0 * (1.0 + beta))),
                         _fmt(bounds_mod.bpoa_bound(mu, beta)),
                         _fmt(bounds_mod.bpoa_dr_gap(mu, beta))])
    else:  # dominance
        if seed is None:
            raise click.UsageError("dominance sweep needs --seed")
        header = ["seed", "index", "n", "alpha", "beta", "ratio", "fine",
                  "coarse", "ok"]
        rng = random.Random(seed)
        config = SolverConfig()
        for index in range(count):
            alpha = rng.choice([0.0, -0.25])
            beta = rng.choice([0.5, 1.0])
            instance = search.random_common_source_instance(
                rng, alpha=alpha, beta=beta)
            deviation = search.random_feasible_deviation(rng, instance)
            z = wardrop(instance, None, config).flow
            x = wardrop(instance, deviation, config).flow
            ratio_value = social_cost(instance, x) / social_cost(instance, z)
            tree = build_alt_path_tree(instance, x, z)
            demands = [c.demand for c in instance.commodities]
            fine, coarse = bound_alpha_beta(alpha, beta, list(tree.etas),
                                            demands, instance.n_nodes)
            ok = ratio_value <= fine + 1e-7 and fine <= coarse + 1e-7
            rows.append([seed, index, instance.n_nodes, _fmt(alpha),
                         _fmt(beta), _fmt(ratio_value), _fmt(fine),
                         _fmt(coarse), int(ok)])
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    click.echo(f"wrote {len(rows)} rows to {out}")


if __name__ == "__main__":
    main()
