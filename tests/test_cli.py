import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from devratio import cli
from devratio.cli import main
from devratio.errors import NotConverged


@pytest.fixture
def runner():
    return CliRunner()


def gen(runner, tmp_path, *args):
    out = tmp_path / "instance.json"
    result = runner.invoke(main, ["generate", *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


class TestGenerate:
    def test_braess_writes_instance_and_sidecar(self, runner, tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "3", "--beta", "1")
        spec = json.loads(out.read_text())
        assert len(spec["nodes"]) == 6
        sidecar = json.loads(
            (tmp_path / "instance.json.case.json").read_text())
        assert sidecar["expected_ratio"] == pytest.approx(4.0)
        assert "deviation" in sidecar and "x" in sidecar and "z" in sidecar

    def test_braess_prints_ratio(self, runner, tmp_path):
        out = tmp_path / "i.json"
        result = runner.invoke(main, ["generate", "braess", "--m", "2",
                                      "--beta", "2", "--out", str(out)])
        assert result.exit_code == 0
        assert "expected_ratio=5" in result.output

    def test_invalid_parameters_are_usage_errors(self, runner, tmp_path):
        out = tmp_path / "i.json"
        result = runner.invoke(main, ["generate", "braess", "--m", "1",
                                      "--out", str(out)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["braess", "--beta", "nan"], ["braess", "--beta", "inf"],
        ["braess-odd", "--r", "inf"], ["braess-even", "--beta", "nan"],
        ["fibonacci", "--ramp-delta", "inf"],
        ["smoothness-tight", "--beta", "inf"]],
        ids=["braess-nan", "braess-inf", "odd-r-inf", "even-nan",
             "fibonacci-delta-inf", "smoothness-inf"])
    def test_non_finite_parameter_is_usage_error(self, runner, tmp_path,
                                                 args):
        # braess with beta nan ended in a "curve numbers must be finite"
        # traceback and exit 1: nan passed the beta < 0 test
        out = tmp_path / "i.json"
        result = runner.invoke(main, ["generate", *args, "--out", str(out)])
        assert result.exit_code == 2
        assert "inf" in result.output or "finite" in result.output
        assert not out.exists()

    def test_unknown_family_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "nope", "--out", "x.json"])
        assert result.exit_code == 2

    def test_dot_output(self, runner, tmp_path):
        out = tmp_path / "i.json"
        dot = tmp_path / "i.dot"
        result = runner.invoke(main, ["generate", "braess", "--out", str(out),
                                      "--dot", str(dot)])
        assert result.exit_code == 0
        assert dot.read_text().startswith("digraph")

    def test_remark_b1(self, runner, tmp_path):
        out = gen(runner, tmp_path, "remark-b1")
        sidecar = json.loads(
            (tmp_path / "instance.json.case.json").read_text())
        assert "flow" in sidecar


class TestSolve:
    def test_base_equilibrium(self, runner, tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "3", "--beta", "1")
        result = runner.invoke(main, ["solve", str(out)])
        assert result.exit_code == 0
        assert result.output.startswith("C=1")
        assert "gap=" in result.output and "iterations=" in result.output

    def test_with_deviation_file(self, runner, tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "3", "--beta", "1")
        sidecar = json.loads(
            (tmp_path / "instance.json.case.json").read_text())
        dev_path = tmp_path / "dev.json"
        dev_path.write_text(json.dumps(sidecar["deviation"]))
        flow_out = tmp_path / "flow.json"
        result = runner.invoke(main, ["solve", str(out), "--deviation",
                                      str(dev_path), "--out", str(flow_out)])
        assert result.exit_code == 0
        cost = float(result.output.split()[0].split("=")[1])
        assert cost == pytest.approx(4.0, rel=1e-4)
        assert flow_out.exists()

    def test_subnormal_deviation_coefficient(self, runner, tmp_path):
        # a cubic coefficient of 1e-320 made numpy's root finder raise
        out = gen(runner, tmp_path, "braess", "--m", "2", "--beta", "1")
        dev_path = tmp_path / "dev.json"
        dev_path.write_text(json.dumps(
            {"arcs": {"v1>w1": {"poly": [0.0, 0.5, 0.0, 1e-320]}}}))
        result = runner.invoke(main, ["solve", str(out), "--deviation",
                                      str(dev_path)])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("C=")

    def test_missing_file_is_usage_error(self, runner):
        result = runner.invoke(main, ["solve", "no-such-file.json"])
        assert result.exit_code == 2

    def test_missing_key_is_usage_error(self, runner, tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "2")
        spec = json.loads(out.read_text())
        del spec["arcs"]
        out.write_text(json.dumps(spec))
        result = runner.invoke(main, ["solve", str(out)])
        assert result.exit_code == 2
        assert "'arcs'" in result.output

    def test_zero_tol_is_usage_error(self, runner, tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "2")
        result = runner.invoke(main, ["solve", str(out), "--tol", "0"])
        assert result.exit_code == 2
        assert "tolerance must be positive" in result.output

    def test_infinite_tol_is_usage_error(self, runner, tmp_path):
        # --tol inf was accepted and printed gap=8.000e+00 as a success
        out = gen(runner, tmp_path, "braess", "--m", "3")
        result = runner.invoke(main, ["solve", str(out), "--tol", "inf"])
        assert result.exit_code == 2
        assert "positive and finite, got inf" in result.output

    @pytest.mark.parametrize("latency, named", [
        ({"exp": 1}, "'exp'"),
        ({"pwl": [[1.0, 0.0], [0.5, 1.0]]}, "[[1.0, 0.0], [0.5, 1.0]]")])
    def test_bad_curve_spec_is_usage_error(self, runner, tmp_path, latency,
                                           named):
        out = gen(runner, tmp_path, "braess", "--m", "2")
        spec = json.loads(out.read_text())
        spec["arcs"][0]["latency"] = latency
        out.write_text(json.dumps(spec))
        result = runner.invoke(main, ["solve", str(out)])
        assert result.exit_code == 2
        assert named in result.output

    def test_not_converged_exits_4(self, runner, tmp_path, monkeypatch):
        def stalled(*args, **kwargs):
            raise NotConverged(2.5e-5, 1e-8, 200000)

        monkeypatch.setattr(cli, "wardrop", stalled)
        out = gen(runner, tmp_path, "braess", "--m", "2")
        result = runner.invoke(main, ["solve", str(out)])
        assert result.exit_code == 4
        assert ("relative gap 2.500e-05 above tolerance 1.0e-08 after "
                "200000 iterations") in result.output

    def test_unreachable_sink_is_domain_error(self, runner, tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "2")
        spec = json.loads(out.read_text())
        spec["arcs"] = [a for a in spec["arcs"] if a["head"] != "t"]
        out.write_text(json.dumps(spec))
        result = runner.invoke(main, ["solve", str(out)])
        assert result.exit_code == 3
        assert "unreachable" in result.output


class TestInduce:
    def test_inducible_flow_emits_deviation(self, runner, tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "2", "--beta", "1")
        sidecar = json.loads(
            (tmp_path / "instance.json.case.json").read_text())
        flow_path = tmp_path / "x.json"
        flow_path.write_text(json.dumps(sidecar["x"]))
        dev_out = tmp_path / "dev.json"
        result = runner.invoke(main, ["induce", str(out), str(flow_path),
                                      "--out", str(dev_out)])
        assert result.exit_code == 0
        assert "inducible" in result.output
        assert "arcs" in json.loads(dev_out.read_text())

    def test_witness_cycle_printed(self, runner, tmp_path):
        # same flow, but thresholds too tight: beta=0.5 cannot induce x
        out = gen(runner, tmp_path, "braess", "--m", "2", "--beta", "1")
        spec = json.loads(out.read_text())
        spec["thresholds"]["beta"] = 0.25
        tight = tmp_path / "tight.json"
        tight.write_text(json.dumps(spec))
        sidecar = json.loads(
            (tmp_path / "instance.json.case.json").read_text())
        flow_path = tmp_path / "x.json"
        flow_path.write_text(json.dumps(sidecar["x"]))
        result = runner.invoke(main, ["induce", str(tight), str(flow_path)])
        assert result.exit_code == 0
        assert result.output == ("not inducible; negative cycle: "
                                 "+s>w1 -v1>w1 -s>v1\n")

    def test_flow_without_commodities_is_usage_error(self, runner,
                                                     tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "2")
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(json.dumps({"x": 1}))
        result = runner.invoke(main, ["induce", str(out), str(flow_path)])
        assert result.exit_code == 2
        assert "'commodities'" in result.output

    def test_theta_min_beyond_latency_is_domain_error(self, runner,
                                                      tmp_path):
        spec = {"nodes": ["s", "t"],
                "arcs": [{"id": "a", "tail": "s", "head": "t",
                          "latency": {"poly": [1.0]}},
                         {"id": "b", "tail": "s", "head": "t",
                          "latency": {"poly": [1.0]}}],
                "commodities": [{"source": "s", "sink": "t", "demand": 1.0}],
                "thresholds": {"kind": "per_arc",
                               "theta_min": {"a": {"poly": [2.0]}}}}
        inst_path, flow_path = tmp_path / "i.json", tmp_path / "f.json"
        inst_path.write_text(json.dumps(spec))
        flow_path.write_text(json.dumps({"commodities": [
            {"paths": [{"arcs": ["a"], "value": 1.0}]}]}))
        result = runner.invoke(main, ["induce", str(inst_path),
                                      str(flow_path)])
        assert result.exit_code == 3
        assert "arc 'a'" in result.output and "x=1.0" in result.output

    def test_multi_source_domain_error(self, runner, tmp_path):
        out = gen(runner, tmp_path, "remark-b1")
        sidecar = json.loads(
            (tmp_path / "instance.json.case.json").read_text())
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(json.dumps(sidecar["flow"]))
        result = runner.invoke(main, ["induce", str(out), str(flow_path)])
        assert result.exit_code == 3
        assert "common source" in result.output


class TestBound:
    def test_dr(self, runner):
        result = runner.invoke(main, ["bound", "dr", "--beta", "1",
                                      "--n", "6"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "4"

    def test_dr_even_note(self, runner):
        result = runner.invoke(main, ["bound", "dr", "--beta", "1", "--n",
                                      "6", "--r", "2"])
        assert result.exit_code == 0
        assert "even node count" in result.stderr

    def test_pra(self, runner):
        result = runner.invoke(main, ["bound", "pra", "--gamma", "1",
                                      "--kappa", "1", "--n", "6"])
        assert result.output.strip() == "4"

    def test_pra_even(self, runner):
        result = runner.invoke(main, ["bound", "pra-even", "--gamma", "1",
                                      "--kappa", "1", "--n", "6", "--r", "2"])
        assert result.output.strip() == "6"

    def test_stability(self, runner):
        result = runner.invoke(main, ["bound", "stability", "--epsilon",
                                      "0.1", "--n", "4"])
        assert float(result.output) == pytest.approx(0.2 / 0.9 * 2)

    def test_mu_hat_affine(self, runner):
        result = runner.invoke(main, ["bound", "mu-hat", "--poly", "0,1",
                                      "--beta", "1"])
        assert result.exit_code == 0
        assert float(result.stdout) == pytest.approx(0.125, abs=1e-4)

    def test_mu_hat_needs_exactly_one_curve(self, runner):
        result = runner.invoke(main, ["bound", "mu-hat", "--beta", "1"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["bound", "mu-hat", "--poly", "0,1",
                                      "--pwl", "0:0,1:1"])
        assert result.exit_code == 2

    def test_bpoa_and_gap_are_consistent(self, runner):
        bpoa = runner.invoke(main, ["bound", "bpoa", "--mu", "0.25",
                                    "--beta", "0"])
        gap = runner.invoke(main, ["bound", "gap", "--mu", "0.25",
                                   "--beta", "0"])
        assert float(bpoa.output) - float(gap.output) == pytest.approx(1.0)

    def test_path_dev_domain_error(self, runner):
        result = runner.invoke(main, ["bound", "path-dev", "--mu0", "0.5",
                                      "--beta", "1"])
        assert result.exit_code == 3

    def test_hetero(self, runner):
        result = runner.invoke(main, ["bound", "hetero", "--taus", "1,0",
                                      "--demands", "0.25,0.75", "--beta",
                                      "2"])
        assert float(result.output) == pytest.approx(1.5)

    @pytest.mark.parametrize("args, named", [
        (["pra", "--gamma", "1", "--kappa", "0", "--n", "3"], "kappa > 0"),
        (["pra-even", "--gamma", "1", "--kappa", "1", "--n", "3"], "n=3"),
        (["stability", "--epsilon", "0.5", "--n", "1"], "n >= 2"),
        (["mu-hat", "--poly", "0,1", "--grid", "50"], "grid=50"),
        (["mu-hat", "--poly", "0,1", "--domain-max", "0"], "domain_max=0"),
        (["hetero", "--taus", "1,2", "--demands", "1", "--beta", "1"],
         "2 risk factors for 1 demands")])
    def test_out_of_range_input_is_domain_error(self, runner, args, named):
        result = runner.invoke(main, ["bound", *args])
        assert result.exit_code == 3
        assert named in result.output

    def test_hetero_unnormalized_domain_error(self, runner):
        result = runner.invoke(main, ["bound", "hetero", "--taus", "1",
                                      "--demands", "2", "--beta", "1"])
        assert result.exit_code == 3


class TestRatio:
    def test_braess_with_grid_dump(self, runner, tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "2", "--beta", "1")
        csv_path = tmp_path / "grid.csv"
        result = runner.invoke(main, ["ratio", str(out), "--lambda-grid",
                                      "2", "--seed", "0", "--dump-grid",
                                      str(csv_path)])
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(3.0, rel=1e-6)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "lambdas,cost"
        # every arc has deviation headroom under (0, beta) thresholds
        assert len(lines) == 1 + 2 ** 5

    def test_unknown_threshold_kind_is_usage_error(self, runner, tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "2", "--beta", "1")
        spec = json.loads(out.read_text())
        spec["thresholds"]["kind"] = "alphabeta"
        out.write_text(json.dumps(spec))
        result = runner.invoke(main, ["ratio", str(out), "--seed", "0",
                                      "--lambda-grid", "2"])
        assert result.exit_code == 2
        assert "'alphabeta'" in result.output

    def test_seed_required(self, runner, tmp_path):
        out = gen(runner, tmp_path, "braess", "--m", "2", "--beta", "1")
        result = runner.invoke(main, ["ratio", str(out)])
        assert result.exit_code == 2


class TestReproduce:
    def test_smoothness_affine_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            result = runner.invoke(main, ["reproduce", "smoothness-affine",
                                          "--out", str(path)])
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().splitlines()
        assert lines[0] == "beta,mu_hat,closed_form,bpoa_bound,gap"
        assert len(lines) == 6

    def test_fibonacci_sweep(self, runner, tmp_path):
        out = tmp_path / "fib.csv"
        result = runner.invoke(main, ["reproduce", "fibonacci-sweep",
                                      "--out", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            _, _, ratio, threshold = row.split(",")
            assert float(ratio) >= float(threshold) - 1e-9

    def test_braess_sweep(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["reproduce", "braess-sweep", "--out",
                                      str(out)])
        assert result.exit_code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [tuple(r.split(",")[:2]) for r in rows] == [
            (str(m), beta) for m in range(2, 9) for beta in ("0.5", "1", "2")]
        for row in rows:
            _, _, expected, observed, _ = map(float, row.split(","))
            assert abs(observed - expected) <= 1e-4 * expected

    def test_dominance_needs_seed(self, runner, tmp_path):
        result = runner.invoke(main, ["reproduce", "dominance", "--out",
                                      str(tmp_path / "d.csv")])
        assert result.exit_code == 2

    def test_dominance_all_ok(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        result = runner.invoke(main, ["reproduce", "dominance", "--seed",
                                      "42", "--count", "10", "--out",
                                      str(out)])
        assert result.exit_code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 10
        assert all(row.endswith(",1") for row in rows)


@pytest.mark.parametrize("args, code, named", [
    (["generate", "fibonacci", "--p", "3", "--ramp-delta", "0.5", "--out",
      "{out}"], 3, "error: no split saturates every rung"),
    (["generate", "smoothness-tight", "--poly", "a,b", "--out", "{out}"], 2,
     "'--poly'"),
    (["bound", "hetero", "--taus", "a", "--demands", "1", "--beta", "1"], 2,
     "'--taus'"),
    (["bound", "mu-hat", "--pwl", "1"], 2, "'--pwl'"),
    (["bound", "mu-hat", "--pwl", "2:1,1:2"], 2, "'--pwl'"),
    (["generate", "ham-reduction", "--nodes", "s,a,t", "--arcs", "s-a",
      "--source", "s", "--sink", "t", "--out", "{out}"], 2, "'--arcs'"),
    (["generate", "ham-reduction", "--nodes", "s,,t", "--arcs", "s>t",
      "--source", "s", "--sink", "t", "--out", "{out}"], 2, "'--nodes'"),
    (["ratio", "{instance}", "--seed", "0", "--lambda-grid", "0"], 2,
     "'--lambda-grid'"),
    (["ratio", "{instance}", "--seed", "0", "--lambda-grid", "-2"], 2,
     "'--lambda-grid'")], ids=["no-split", "poly", "taus", "pwl-point",
                               "pwl-order", "arcs", "nodes-empty", "grid-0",
                               "grid-neg"])
def test_bad_input_exits_with_a_message(runner, tmp_path, args, code, named):
    # all but nodes-empty ended in a traceback and exit 1, or in the ratio
    # of a one-point grid and exit 0; an empty node id was dropped
    instance = gen(runner, tmp_path, "braess", "--m", "2")
    args = [a.format(out=tmp_path / "out.json", instance=instance)
            for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == code
    assert named in result.output


@pytest.mark.parametrize("args", [
    ["bound", "mu-hat", "--pwl", "0:0,1:nan"],
    ["bound", "mu-hat", "--poly", "inf,1"],
    ["generate", "smoothness-tight", "--poly", "0,nan", "--out", "{out}"],
    ["solve", "{instance}"]], ids=["pwl", "poly", "generate", "solve-json"])
def test_non_finite_curve_numbers_exit_2(runner, tmp_path, args):
    # a non-finite curve number is bad input: exit 2, and no file written
    instance = gen(runner, tmp_path, "braess", "--m", "2")
    spec = json.loads(instance.read_text())
    spec["arcs"][0]["latency"] = {"poly": [float("nan"), 1.0]}
    instance.write_text(json.dumps(spec))
    args = [a.format(out=tmp_path / "out.json", instance=instance)
            for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "finite" in result.output
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("edit, keys, value, args, named", [
    ("instance", ["commodities", 0, "demand"], float("nan"),
     ["solve", "{instance}"], "demand must be finite"),
    ("instance", ["commodities", 0, "demand"], float("inf"),
     ["solve", "{instance}"], "demand must be finite"),
    ("instance", ["thresholds", "beta"], float("inf"),
     ["ratio", "{instance}", "--seed", "0"], "beta < inf"),
    ("flow", ["commodities", 0, "paths", 0, "value"], float("nan"),
     ["induce", "{instance}", "{flow}"], "path flow nan")],
    ids=["demand-nan", "demand-inf", "beta-inf", "path-nan"])
def test_non_finite_input_is_domain_error(runner, tmp_path, edit, keys,
                                          value, args, named):
    # each got past its check and ended in a traceback (exit 1), in
    # "potential increased" or in "sink 't' unreachable"
    instance = gen(runner, tmp_path, "braess", "--m", "2")
    flow = tmp_path / "x.json"
    flow.write_text(json.dumps(json.loads(
        (tmp_path / "instance.json.case.json").read_text())["x"]))
    target = instance if edit == "instance" else flow
    spec = json.loads(target.read_text())
    node = spec
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    target.write_text(json.dumps(spec))
    result = runner.invoke(main, [a.format(instance=instance, flow=flow)
                                  for a in args])
    assert result.exit_code == 3
    assert "error: " in result.output and named in result.output


@pytest.mark.parametrize("args", [
    ["dr", "--beta", "nan", "--n", "5"], ["dr", "--beta", "inf", "--n", "5"],
    ["bpoa", "--mu", "nan", "--beta", "1"],
    ["gap", "--mu", "0.2", "--beta", "inf"],
    ["mu-hat", "--poly", "0,1", "--domain-max", "inf"]],
    ids=["dr-nan", "dr-inf", "bpoa-nan", "gap-inf", "mu-hat-inf"])
def test_non_finite_bound_argument_is_domain_error(runner, args):
    # each printed nan or inf with exit 0, or (mu-hat) ended in scipy's
    # "bounds must be finite" traceback
    result = runner.invoke(main, ["bound", *args])
    assert result.exit_code == 3
    assert "error: " in result.output and "finite" in result.output


def test_import_loads_no_scipy():
    # every CLI call is a fresh process; scipy loads only when an LP or
    # mu_hat first needs it, so neither the import nor a deviated solve
    # loads it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import devratio, devratio.cli; "
            "case = devratio.braess(4, 1.0); "
            "devratio.wardrop(case.instance, case.deviation); "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
