import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qobdd import rectangles
from qobdd.cli import (
    EXIT_BUDGET,
    EXIT_CHECK,
    EXIT_EXPECT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from qobdd.families import gen_eqprime
from qobdd.graphs import random_dregular
from qobdd.pcnf import EXISTS, FORALL, Pcnf, clause, emit_qdimacs, parse_qdimacs
from qobdd.proof import check_trace
from qobdd.solver import prefix_order, solve
from qobdd.strategy import extract, to_rectangle_list, verify_winning

from .helpers import emit_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eqprime_files(tmp_path, capsys, n):
    """eqprime(n), its default refutation and its extracted strategy."""
    paths = [tmp_path / f"eq{n}.{ext}" for ext in ("qdimacs", "trace", "strategy")]
    qdimacs, trace, strat = map(str, paths)
    assert run(capsys, "gen", "eqprime", str(n), "-o", qdimacs)[0] == EXIT_OK
    assert run(capsys, "solve", qdimacs, "--proof", trace)[0] == EXIT_OK
    assert run(capsys, "extract", qdimacs, trace, "-o", strat)[0] == EXIT_OK
    return qdimacs, trace, strat


def test_gen_quparity_clause_count(tmp_path, capsys):
    out = tmp_path / "q4.qdimacs"
    code, _, _ = run(capsys, "gen", "quparity", "4", "-o", str(out))
    assert code == EXIT_OK
    f = parse_qdimacs(out.read_text())
    assert len(f.clauses) == 8 * 4 - 6 == 26


def test_gen_eqprime_clause_count(capsys):
    code, out, _ = run(capsys, "gen", "eqprime", "2")
    assert code == EXIT_OK
    assert len(parse_qdimacs(out).clauses) == 6


def test_gen_invalid_size_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "eqprime", "1")
    assert code == EXIT_USAGE
    code2, _, _ = run(capsys, "gen", "quparity", "four")
    assert code2 == EXIT_USAGE


def test_gen_ipg_from_edge_list(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text("1 2\n3 4\n")
    code, out, _ = run(capsys, "gen", "ipg", str(graph))
    assert code == EXIT_OK
    f = parse_qdimacs(out)
    assert len(f.universals) == 1


def test_full_pipeline_ends_winning(tmp_path, capsys):
    qdimacs = tmp_path / "eq4.qdimacs"
    trace = tmp_path / "eq4.qobddtrace"
    strat = tmp_path / "eq4.strategy"
    assert run(capsys, "gen", "eqprime", "4", "-o", str(qdimacs))[0] == EXIT_OK
    code, out, _ = run(
        capsys, "solve", str(qdimacs), "--proof", str(trace), "--expect", "false"
    )
    assert code == EXIT_OK
    assert out.strip() == "FALSE"
    code, out, _ = run(capsys, "check", str(qdimacs), str(trace))
    assert code == EXIT_OK and "ACCEPTED refutation" in out
    code, out, _ = run(capsys, "--json", "check", str(qdimacs), str(trace))
    assert (code, json.loads(out)) == (EXIT_OK, {"accepted": True, "refutation": True})
    assert run(capsys, "extract", str(qdimacs), str(trace), "-o", str(strat))[0] == EXIT_OK
    code, out, _ = run(capsys, "verify", str(qdimacs), str(strat))
    assert code == EXIT_OK
    assert out.strip() == "WINNING"


def test_check_tampered_trace_exits_2(tmp_path, capsys):
    qdimacs = tmp_path / "eq2.qdimacs"
    trace = tmp_path / "eq2.trace"
    run(capsys, "gen", "eqprime", "2", "-o", str(qdimacs))
    run(capsys, "solve", str(qdimacs), "--proof", str(trace))
    text = trace.read_text().splitlines()
    text[1] = "h " + "0" * 64
    trace.write_text("\n".join(text) + "\n")
    code, _, err = run(capsys, "check", str(qdimacs), str(trace))
    assert code == EXIT_CHECK
    assert "formula-hash-mismatch" in err


def test_check_truncated_trace_exits_2(tmp_path, capsys):
    qdimacs = tmp_path / "eq2.qdimacs"
    trace = tmp_path / "eq2.trace"
    run(capsys, "gen", "eqprime", "2", "-o", str(qdimacs))
    run(capsys, "solve", str(qdimacs), "--proof", str(trace))
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join(lines[: len(lines) - 3]) + "\n")
    code, _, err = run(capsys, "check", str(qdimacs), str(trace))
    assert code == EXIT_CHECK
    assert "truncated" in err


def test_solve_expect_mismatch_exits_3(tmp_path, capsys):
    qdimacs = tmp_path / "true.qdimacs"
    qdimacs.write_text("p cnf 1 1\ne 1 0\n1 0\n")
    code, out, _ = run(capsys, "solve", str(qdimacs), "--expect", "false")
    assert code == EXIT_EXPECT
    assert out.strip() == "TRUE"


def test_solve_budget_exits_4(tmp_path, capsys):
    qdimacs = tmp_path / "eq6.qdimacs"
    run(capsys, "gen", "eqprime", "6", "-o", str(qdimacs))
    code, _, _ = run(capsys, "--budget", "20", "solve", str(qdimacs))
    assert code == EXIT_BUDGET


def test_solve_stats_and_json(tmp_path, capsys):
    qdimacs = tmp_path / "eq3.qdimacs"
    stats = tmp_path / "stats.json"
    run(capsys, "gen", "eqprime", "3", "-o", str(qdimacs))
    code, out, _ = run(capsys, "--json", "solve", str(qdimacs), "--stats", str(stats))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] is False
    report = json.loads(stats.read_text())
    assert {"value", "max_width", "trace_nodes", "lines", "eliminations"} <= set(report)
    assert "wall_time_ms" not in report  # only with --timings


def test_outputs_reproducible(tmp_path, capsys):
    qdimacs = tmp_path / "eq3.qdimacs"
    run(capsys, "gen", "eqprime", "3", "-o", str(qdimacs))
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "--seed", "11", "solve", str(qdimacs))
        assert code == EXIT_OK
        outs.add(out)
    assert len(outs) == 1


def test_solve_given_order(tmp_path, capsys):
    qdimacs = tmp_path / "eq2.qdimacs"
    orderfile = tmp_path / "order.txt"
    run(capsys, "gen", "eqprime", "2", "-o", str(qdimacs))
    f = parse_qdimacs(qdimacs.read_text())
    orderfile.write_text(" ".join(str(v) for v in f.variables) + "\n")
    code, out, _ = run(capsys, "solve", str(qdimacs), "--order", f"given:{orderfile}")
    assert code == EXIT_OK and out.strip() == "FALSE"
    code, _, _ = run(capsys, "solve", str(qdimacs), "--order", "bogus")
    assert code == EXIT_USAGE


def test_translate_command(tmp_path, capsys):
    qdimacs = tmp_path / "pairs.qdimacs"
    qdimacs.write_text("p cnf 2 4\na 1 0\ne 2 0\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    proof = tmp_path / "proof.qures"
    proof.write_text("1 A 1 2 0\n2 A 1 -2 0\n3 R 1 2 2\n4 U 3 1\n")
    trace = tmp_path / "out.trace"
    code, _, _ = run(capsys, "translate", str(qdimacs), str(proof), "-o", str(trace))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "check", str(qdimacs), str(trace))
    assert code == EXIT_OK and "refutation" in out


def test_translate_and_verify_keep_the_node_budget(tmp_path, capsys):
    qdimacs = tmp_path / "pairs.qdimacs"
    qdimacs.write_text("p cnf 2 4\na 1 0\ne 2 0\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    proof = tmp_path / "proof.qures"
    proof.write_text("1 A 1 2 0\n2 A 1 -2 0\n3 R 1 2 2\n4 U 3 1\n")
    trace = tmp_path / "out.trace"
    code, out, err = run(
        capsys, "--budget", "0", "translate", str(qdimacs), str(proof), "-o", str(trace)
    )
    assert (code, out) == (EXIT_BUDGET, "") and not trace.exists()
    assert err == "BUDGET node budget 0 exceeded\n"
    qdimacs, _, strat = eqprime_files(tmp_path, capsys, 2)
    for flag in ([], ["--json"]):
        code, out, err = run(capsys, "--budget", "0", *flag, "verify", qdimacs, strat)
        assert (code, out, err) == (EXIT_BUDGET, "", "BUDGET node budget 0 exceeded\n")


def test_running_out_of_memory_is_a_budget_exit_without_a_traceback(tmp_path):
    # eqprime(400) under the default node budget needs more than the
    # 150,000 KiB of address space the child allows itself (`ulimit -v`)
    pytest.importorskip("resource")
    qdimacs = tmp_path / "eq400.qdimacs"
    qdimacs.write_text(emit_qdimacs(gen_eqprime(400)))
    child = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (150_000 * 1024, hard))\n"
        "from qobdd.cli import main\n"
        "sys.exit(main(['solve', sys.argv[1]]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", child, str(qdimacs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_BUDGET, "", "BUDGET memory\n")
    assert "Traceback" not in done.stderr


def test_verify_counterexample(tmp_path, capsys):
    qdimacs = tmp_path / "eq2.qdimacs"
    run(capsys, "gen", "eqprime", "2", "-o", str(qdimacs))
    strat = tmp_path / "const.strategy"
    strat.write_text(
        "p qobdd-strategy\n"
        "u 3 1\nentry 1\nobdd 1\n0 T1 - -\n"
        "u 4 1\nentry 1\nobdd 1\n0 T1 - -\n"
    )
    code, out, _ = run(capsys, "verify", str(qdimacs), str(strat))
    assert code == EXIT_CHECK
    assert out.startswith("COUNTEREXAMPLE")


def test_bench_table_schema_and_monotone_sizes(capsys):
    code, out, _ = run(capsys, "bench", "--family", "quparity", "--n", "2:6:2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == [
        "family", "n", "order", "value", "max_width", "trace_nodes", "eliminations",
    ]
    sizes = [int(row.split("\t")[5]) for row in lines[1:]]
    assert sizes == sorted(sizes)


def test_bench_eqprime_constant_width(capsys):
    code, out, _ = run(
        capsys, "--json", "bench", "--family", "eqprime", "--n", "4:8:2",
        "--orders", "pathwidth,prefix",
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [(r["n"], r["order"]) for r in rows] == [
        (n, order) for n in (4, 6, 8) for order in ("pathwidth", "prefix")
    ]
    widths = {r["max_width"] for r in rows if r["order"] == "pathwidth"}
    assert len(widths) == 1
    assert all(r["value"] is False for r in rows)


def test_bench_threads(capsys):
    code, out, _ = run(
        capsys, "--threads", "2", "--json", "bench",
        "--family", "eqprime", "--n", "2:4",
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [2, 3, 4]


def test_bench_workers_capped_at_job_count(monkeypatch, capsys):
    import concurrent.futures

    sizes = []

    class SerialPool:  # records max_workers, maps in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, out, _ = run(
        capsys, "--threads", "64", "--json", "bench", "--family", "eqprime", "--n", "2:4",
    )
    assert code == EXIT_OK
    assert [r["n"] for r in json.loads(out)] == [2, 3, 4]
    assert sizes == [3]
    code, out, _ = run(capsys, "--threads", "8", "bench", "--family", "eqprime", "--n", "4")
    assert code == EXIT_OK
    assert sizes == [3]  # one job runs serially, without a pool


def test_verify_json_mode(tmp_path, capsys):
    qdimacs, _, strat = eqprime_files(tmp_path, capsys, 2)
    code, out, _ = run(capsys, "--json", "verify", qdimacs, strat)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["winning"] is True and data["exhaustive"] is True


def test_verify_labels_a_sampled_verdict(tmp_path, capsys):
    # eqprime(20) has 59 existentials, past the exhaustive limit of 16
    qdimacs, _, strat = eqprime_files(tmp_path, capsys, 20)
    code, out, _ = run(capsys, "verify", qdimacs, strat, "--samples", "10")
    assert code == EXIT_OK
    assert out.strip() == "WINNING (sampled, 10 plays)"
    code, out, _ = run(capsys, "--json", "verify", qdimacs, strat, "--samples", "10")
    data = json.loads(out)
    assert data["winning"] is True and data["exhaustive"] is False and data["checked"] == 10
    # zero plays would print WINNING having checked nothing
    code, out, err = run(capsys, "verify", qdimacs, strat, "--samples", "0")
    assert code == EXIT_USAGE and "--samples" in err and out == ""


def test_extract_keeps_the_node_budget_of_check(tmp_path, capsys):
    # a budget hit names the line whose replay ran out: line 1 is the
    # first axiom, and 2000 nodes run out while building line 251
    qdimacs, trace, strat = eqprime_files(tmp_path, capsys, 30)
    for argv in (["check", qdimacs, trace], ["extract", qdimacs, trace, "-o", strat]):
        for budget, line in (("0", 1), ("2000", 251)):
            code, _, err = run(capsys, "--budget", budget, *argv)
            assert code == EXIT_BUDGET and err == f"BUDGET line {line}\n", argv


def test_clause_free_formula_derives_and_refutes_nothing(tmp_path, capsys):
    # solve writes a trace of no lines, a derivation of ONE: check accepts
    # it as a derivation and rejects it as a refutation, naming no line
    qdimacs, trace = tmp_path / "empty.qdimacs", str(tmp_path / "empty.trace")
    qdimacs.write_text("p cnf 2 0\ne 1 2 0\n")
    assert run(capsys, "solve", str(qdimacs), "--proof", trace) == (EXIT_OK, "TRUE\n", "")
    code, out, _ = run(capsys, "check", str(qdimacs), trace, "--allow-derivation")
    assert (code, out) == (EXIT_OK, "ACCEPTED derivation\n")
    code, out, err = run(capsys, "check", str(qdimacs), trace)
    assert (code, out, err) == (EXIT_CHECK, "", "check failed: not-a-refutation\n")


def test_whole_trace_rejections_name_no_line(tmp_path, capsys):
    qdimacs, trace, _ = eqprime_files(tmp_path, capsys, 3)
    other = str(tmp_path / "eq4.qdimacs")
    run(capsys, "gen", "eqprime", "4", "-o", other)
    code, out, err = run(capsys, "check", other, trace)
    assert (code, out, err) == (EXIT_CHECK, "", "check failed: formula-hash-mismatch\n")
    # drop the last variable from the order line and its count from the header
    lines = Path(trace).read_text().splitlines()
    head = lines[0].split()
    lines[0] = " ".join(head[:2] + [str(int(head[2]) - 1), head[3]])
    lines[2] = lines[2].rsplit(" ", 1)[0]
    short = tmp_path / "short-order.trace"
    short.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "check", qdimacs, str(short))
    assert (code, out, err) == (EXIT_CHECK, "", "check failed: order-mismatch\n")


def test_rect_analyze(tmp_path, capsys):
    graph = tmp_path / "m3.edges"
    graph.write_text("1 2\n3 4\n5 6\n")
    report = tmp_path / "rect.json"
    code, out, _ = run(
        capsys, "rect", "analyze", "--graph", str(graph),
        "--partition", "pairs", "--report", str(report),
    )
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    assert {"n", "m", "bound", "oracle_max", "witness"} <= set(data)
    assert data["n"] == 6 and data["m"] == 3 and data["ok"]


def test_rect_analyze_random_partition(tmp_path, capsys):
    graph = tmp_path / "c4.edges"
    graph.write_text("1 2\n2 3\n3 4\n1 4\n")
    code, out, _ = run(
        capsys, "rect", "analyze", "--graph", str(graph), "--partition", "random:3"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"]
    # `random` takes its seed from --seed
    argv = ("rect", "analyze", "--graph", str(graph), "--partition", "random")
    assert run(capsys, "--seed", "3", *argv) == (EXIT_OK, out, "")


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys, "bench", "--family", "eqprime", "--n", "x")[0] == EXIT_USAGE
    for spec in ("2:4:0", "2:4:-1", "4:2"):
        assert run(capsys, "bench", "--family", "eqprime", "--n", spec)[0] == EXIT_USAGE
    # a size the family refuses is a bad argument, as for gen, with or without workers
    assert run(capsys, "gen", "quparity", "1") == (EXIT_USAGE, "", "usage error: need n >= 2\n")
    for threads in ("1", "2"):
        argv = ("--threads", threads, "bench", "--family", "quparity", "--n", "0:3")
        assert run(capsys, *argv) == (EXIT_USAGE, "", "usage error: need n >= 2\n"), threads
    # option files: an order must list exactly the formula's variables
    qdimacs = tmp_path / "eq2.qdimacs"
    run(capsys, "gen", "eqprime", "2", "-o", str(qdimacs))
    variables = list(parse_qdimacs(qdimacs.read_text()).variables)
    orderfile = tmp_path / "order.txt"
    for ids in (variables[:-1], variables + [99], variables + variables[:1], ["x"]):
        orderfile.write_text(" ".join(map(str, ids)) + "\n")
        code, _, err = run(capsys, "solve", str(qdimacs), "--order", f"given:{orderfile}")
        assert code == EXIT_USAGE and "order file" in err, ids
    # a negative node budget is a bad argument, not an exhausted budget
    code, _, err = run(capsys, "--budget", "-1", "solve", str(qdimacs))
    assert code == EXIT_USAGE and "--budget" in err
    assert run(capsys, "--budget", "0", "solve", str(qdimacs))[0] == EXIT_BUDGET
    # so is a worker count below 1, which would otherwise run serially
    for threads in ("0", "-3"):
        code, out, err = run(capsys, "--threads", threads, "bench", "--family", "eqprime", "--n", "2")
        assert (code, out, err) == (EXIT_USAGE, "", "usage error: --threads must be at least 1\n")
    # an order list with no policy in it would run nothing and exit 0
    for orders in ("", ",", " , "):
        code, out, err = run(capsys, "bench", "--family", "eqprime", "--n", "2", "--orders", orders)
        assert (code, out, err) == (EXIT_USAGE, "", "usage error: --orders names no order policy\n")
    # a partition file must hold integer ids that split the graph, each once
    graph = tmp_path / "m2.edges"
    graph.write_text("1 2\n3 4\n")
    partition = tmp_path / "part.txt"
    for text in (
        "1 3\n2 x\n", "1 3\n2\n", "1 3\n2 4 5\n", "1 3\n3 2 4\n", "1 3 2 4\n",
        "1 1 3\n2 4\n",  # a vertex listed twice doubles every rectangle
    ):
        partition.write_text(text)
        code, _, err = run(
            capsys, "rect", "analyze", "--graph", str(graph), "--partition", str(partition)
        )
        assert code == EXIT_USAGE and "partition file" in err, text
    code, _, err = run(capsys, "rect", "analyze", "--graph", str(graph), "--partition", "random:x")
    assert (code, err) == (EXIT_USAGE, "usage error: bad partition spec 'random:x'\n")
    # an input path that cannot be read is a bad argument
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.qdimacs"))
    assert code == EXIT_USAGE and err.startswith("usage error: cannot read ")


def test_rect_analyze_refuses_an_oversized_split_at_once(tmp_path, capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("truth table built for a split the oracle refuses")

    monkeypatch.setattr(rectangles, "ip_truth_table", no_table)
    graph = tmp_path / "c24.edges"
    graph.write_text("".join(f"{v} {v % 24 + 1}\n" for v in range(1, 25)))
    code, out, err = run(
        capsys, "rect", "analyze", "--graph", str(graph), "--partition", "random:7"
    )
    assert (code, out) == (EXIT_CHECK, "")
    assert err == "check failed: oracle limited to 64 rows on the shorter side\n"


def test_rect_analyze_stops_the_oracle_at_the_budget(tmp_path, capsys):
    # a 6|14 split of a 20-vertex 3-regular graph: a 64 x 16384 table,
    # built from bit masks in milliseconds, then an oracle search that
    # scans rows far past the budget
    graph = tmp_path / "r20.edges"
    graph.write_text(emit_edge_list(random_dregular(20, 3, seed=1)))
    partition = tmp_path / "r20.part"
    partition.write_text("1 2 3 4 5 6\n" + " ".join(map(str, range(7, 21))) + "\n")
    start = time.perf_counter()
    code, out, err = run(
        capsys, "--budget", "1000", "rect", "analyze",
        "--graph", str(graph), "--partition", str(partition),
    )
    assert time.perf_counter() - start < 5
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == "BUDGET rectangle oracle budget of 1000 scanned rows exceeded\n"


def test_malformed_input_files_exit_2(tmp_path, capsys):
    graph = tmp_path / "bad.edges"
    graph.write_text("1 2\n3 four\n")
    code, _, err = run(capsys, "gen", "ipg", str(graph))
    assert code == EXIT_CHECK and "line 2" in err
    code, _, err = run(capsys, "rect", "analyze", "--graph", str(graph), "--partition", "pairs")
    assert code == EXIT_CHECK and "line 2" in err
    # an edge list without edges names no vertex: no report, but a formula
    graph.write_text("# no edges\n")
    code, out, err = run(capsys, "rect", "analyze", "--graph", str(graph), "--partition", "pairs")
    assert (code, out, err) == (EXIT_CHECK, "", "check failed: graph has no vertices\n")
    assert run(capsys, "gen", "ipg", str(graph))[0] == EXIT_OK
    qdimacs = tmp_path / "eq2.qdimacs"
    run(capsys, "gen", "eqprime", "2", "-o", str(qdimacs))
    strat = tmp_path / "bad.strategy"
    strat.write_text(
        "p qobdd-strategy\n"
        "u 3 1\nentry 1\nobdd 1\n0 T1 - -\n"
        "u 4 1\nentry 1\nobdd 2\n0 T1 - -\n1 T0 0 0\n"
    )
    code, _, err = run(capsys, "verify", str(qdimacs), str(strat))
    assert code == EXIT_CHECK and "sink with children" in err


def test_deep_order_solves_checks_and_extracts(tmp_path, capsys):
    # The kernels and the rectangle lab walk with explicit stacks or layer
    # sweeps: a 5000-variable order is no deeper for them than a
    # 5-variable one.  Run at the default recursion limit.
    n = 5000
    u = n + 1
    prefix = tuple((EXISTS, v) for v in range(1, n + 1)) + ((FORALL, u),)
    f = Pcnf(prefix, (clause(list(range(1, n + 2))), clause([-u])))
    res = solve(f, prefix_order(f))
    assert res.value is False
    assert check_trace(f, res.trace, require_refutation=True).accepted
    family = extract(f, res.trace)
    family.audit()
    dl = family.lists[u]
    rdl = to_rectangle_list(dl, n // 2)
    assert rdl.partition == (tuple(range(1, n // 2 + 1)), tuple(range(n // 2 + 1, n + 2)))
    assert len(rdl) <= dl.width_bound() * (len(dl) - 1) + 1
    for ones in ((), (1,), (n // 2,), (n // 2 + 1,), (n,)):
        a = {v: int(v in ones) for v in range(1, n + 2)}
        assert rdl.evaluate(a) == dl.evaluate(a)
    verdict = verify_winning(f, family, samples=64)
    assert verdict.winning and not verdict.exhaustive and verdict.checked == 64

    # the 1500-literal clause that used to exhaust the recursion depth
    m = 1500
    qdimacs = tmp_path / "wide.qdimacs"
    ids = " ".join(str(v) for v in range(1, m + 1))
    qdimacs.write_text(f"p cnf {m} 1\ne {ids} 0\n{ids} 0\n")
    code, out, _ = run(capsys, "solve", str(qdimacs), "--order", "prefix")
    assert code == EXIT_OK
    assert out.strip() == "TRUE"
