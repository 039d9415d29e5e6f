import json

from bench import compare


def _records(values, failed=()):
    """One untraced serve-mixed record per value; seeds in ``failed``
    failed one check."""
    return [{"workload": "serve-mixed", "seed": seed, "trace": 0,
             "result": {"correct": seed not in failed,
                        "attempted": 100, "failed": int(seed in failed),
                        "metrics": {"throughput": {"value": value,
                                                   "unit": "1/s"}}}}
            for seed, value in enumerate(values)]


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_same_code_passes(tmp_path, capsys):
    values = [100.0 + i for i in range(10)]
    base = _write(tmp_path / "base.jsonl", _records(values))
    change = _write(tmp_path / "change.jsonl", _records(values))
    assert compare.main([base, change]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert any("throughput" in row and row.endswith("same") for row in rows)
    assert any("checks" in row and row.endswith("same") for row in rows)


def test_failed_checks_are_worse_even_when_faster(tmp_path, capsys):
    base = _write(tmp_path / "base.jsonl",
                  _records([100.0 + i for i in range(10)]))
    change = _write(tmp_path / "change.jsonl",
                    _records([200.0 + i for i in range(10)], failed={3}))
    assert compare.main([base, change]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert any("throughput" in row and row.endswith("better")
               for row in rows)
    checks = [row for row in rows if "checks" in row]
    assert len(checks) == 1 and checks[0].endswith("worse")
    assert "1 bad runs, 1/1000 failed" in checks[0]


def test_regression_within_the_bound_is_a_resolved_loss(tmp_path, capsys):
    values = [100.0 + i for i in range(10)]
    base = _write(tmp_path / "base.jsonl", _records(values))
    change = _write(tmp_path / "change.jsonl",
                    _records([0.85 * v for v in values]))
    assert compare.main([base, change]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert any("throughput" in row and row.endswith("loss") for row in rows)


def test_negligible_resolved_move_is_not_a_loss():
    # Near-constant values: every pair loses, by 0.2 %, far inside the
    # 25 % bound and below a tenth of it.
    base = [(seed, 249.0) for seed in range(10)]
    change = [(seed, 249.5) for seed in range(10)]
    assert compare.verdict(base, change, "lower", 0.25) == "same"
    assert compare.verdict(base, [(s, 270.0) for s in range(10)],
                           "lower", 0.25) == "loss"


def test_checks_verdict_compares_failure_shares():
    assert compare.checks_verdict([0, 0, 100], [0, 0, 50]) == "same"
    assert compare.checks_verdict([0, 2, 100], [0, 1, 100]) == "same"
    assert compare.checks_verdict([0, 1, 100], [0, 2, 100]) == "worse"
    assert compare.checks_verdict([1, 5, 100], [1, 0, 100]) == "worse"
