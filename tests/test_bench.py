import csv
import io

from fatsep.bench import CSV_COLUMNS, config_digest, run_bench, to_csv
from fatsep.instances import gen_instance
from fatsep.solver import SolveConfig


def test_empty_suite_header_only():
    text = to_csv(run_bench([]))
    assert text == ",".join(CSV_COLUMNS) + "\n"


def grid_suite(ks=(2, 3, 4, 5), solvers=("pack",)):
    return [
        {
            "family": "grid",
            "d": 2,
            "k": k,
            "seed": k,
            "label": f"grid-k{k}",
            "solvers": list(solvers),
        }
        for k in ks
    ]


def test_grid_suite_rows():
    records = run_bench(grid_suite())
    assert len(records) == 4
    for k, r in zip((2, 3, 4, 5), records):
        assert r.value == k * k  # disjoint by construction
        assert r.n == k * k
        assert not r.aborted
        assert r.node_law_ok
        assert r.nodes <= r.node_law_bound


def test_csv_parses_with_schema(tmp_path):
    out = tmp_path / "bench.csv"
    run_bench(grid_suite(ks=(2, 3)), str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == set(CSV_COLUMNS)
    assert rows[0]["solver"] == "pack"
    assert rows[0]["aborted"] == "0"


def test_rerun_identical_except_wall_time():
    a = to_csv(run_bench(grid_suite()))
    b = to_csv(run_bench(grid_suite()))
    wt = CSV_COLUMNS.index("wall_time")

    def strip(text):
        rows = list(csv.reader(io.StringIO(text)))
        for r in rows[1:]:
            r[wt] = ""
        return rows

    assert strip(a) == strip(b)


def test_rows_sorted_by_label_and_solver():
    suite = grid_suite(ks=(5, 2, 3), solvers=("pierce", "pack"))
    records = run_bench(suite)
    keys = [(r.label, r.solver) for r in records]
    assert keys == sorted(keys)


def test_config_digest_stable_and_sensitive():
    assert config_digest(SolveConfig()) == config_digest(SolveConfig())
    assert config_digest(SolveConfig()) != config_digest(SolveConfig(base_threshold=5))
    assert len(config_digest(SolveConfig())) == 12


def test_aborted_column_marks_node_cap_aborts_only():
    dense = gen_instance("cluster", 2, clusters=4, cluster_size=5, seed=1, label="dense")
    lossy = gen_instance("random", 2, n=80, seed=1, label="lossy")
    records = run_bench(
        [
            {"instance": dense, "solvers": ["ptas-pack"],
             "config": {"base_threshold": 1, "node_cap": 3}},
            {"instance": lossy, "solvers": ["ptas-pack"], "config": {"epsilon": 0.5}},
        ]
    )
    aborted = {r.label: r.aborted for r in records}
    assert aborted == {"dense": True, "lossy": False}
