"""The benchmark's own test, on the N=4 smoke shapes of each workload.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, hamiltonian_text  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name,lines", [
    ("embed_onebody", 36), ("parity_twobody", 711), ("parity_wide", 78),
])
def test_inputs_are_seeded(name, lines):
    w = WORKLOADS[name]
    text = hamiltonian_text(w, 5)
    assert text == hamiltonian_text(w, 5) != hamiltonian_text(w, 6)
    assert len(text.splitlines()) == lines + 1  # plus the comment header


def bench(capsys, *args) -> dict:
    """Run the benchmark at the smoke sizes; return its last stdout line."""
    assert run.main(["--seed", "7", "--seconds", "0.05", "--smoke", *args]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_is_emitted(capsys, name, trace, section):
    result = bench(capsys, "--workload", name, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_corrupted_output_makes_fail_ratio_nonzero(capsys, monkeypatch):
    real = run.call_reduce

    def drop_a_term(fp, w, hamiltonian, output):
        code = real(fp, w, hamiltonian, output)
        doc = json.loads(output.read_text())
        doc["hamiltonian"]["terms"].pop()
        output.write_text(json.dumps(doc))
        return code

    monkeypatch.setattr(run, "call_reduce", drop_a_term)
    result = bench(capsys, "--workload", "embed_onebody", "--trace", "0")
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_output_not_written_counts_as_failed(capsys, monkeypatch):
    real = run.call_reduce
    calls = []

    def write_only_the_first(fp, w, hamiltonian, output):
        calls.append(output)
        return real(fp, w, hamiltonian, output) if len(calls) == 1 else 0

    monkeypatch.setattr(run, "call_reduce", write_only_the_first)
    result = bench(capsys, "--workload", "parity_wide", "--trace", "0")
    assert result["failed"] == len(calls) - 1 > 0


def test_without_sources_exits_nonzero_and_prints_no_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "parity_wide", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
