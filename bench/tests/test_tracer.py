"""The tracer wraps every binding, restores every binding, computes self
time from parent spans, and yields the same counts for the same seed."""

import json
import sys

import pytest

import gen
import gmsurf.cli  # noqa: F401  (loads every gmsurf module)
import tracer
import worker


def _bindings():
    return {
        (name, key): value
        for name, mod in sys.modules.items()
        if name == "gmsurf" or name.startswith("gmsurf.")
        for key, value in vars(mod).items()
        if callable(value)
    }


def test_install_replaces_every_binding_and_restore_puts_them_back():
    import gmsurf.covers
    import gmsurf.decision
    import gmsurf.exact_linalg
    import gmsurf.reduction

    before = _bindings()
    last_z = gmsurf.covers.CoverCertificate.__dict__["last_z"]
    inertia = gmsurf.exact_linalg.inertia
    with tracer.Tracer():
        for mod in (gmsurf, gmsurf.exact_linalg, gmsurf.decision, gmsurf.reduction):
            assert mod.inertia is not inertia
        assert gmsurf.covers.CoverCertificate.__dict__["last_z"] is not last_z
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert gmsurf.covers.CoverCertificate.__dict__["last_z"] is last_z


def test_self_time_subtracts_child_brackets():
    spans = [
        ["a", 0, -1, 0.0, 1.0, 10.0, 11.0],
        ["b", 0, 0, 2.0, 2.5, 4.0, 4.5],
        ["c", 0, 1, 3.0, 3.0, 3.5, 3.5],
        ["d", 0, 0, 6.0, 6.0, 7.0, 8.0],
    ]
    assert tracer.self_times(spans) == [9.0 - 2.5 - 2.0, 1.5 - 0.5, 0.5, 1.0]


COUNT_SUFFIXES = (".calls", "_per_op", "_per_certify", "_per_failed_certify", "covers.tries", "_bits_max")


def _traced_run(workload, tmp_path, name, seconds, capsys):
    """One traced worker run; returns its result and its span file's lines."""
    span_file = tmp_path / f"{name}.jsonl"
    argv = [
        "--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", "1",
        "--workdir", str(tmp_path / name), "--span-file", str(span_file),
    ]
    assert worker.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    return result, [json.loads(line) for line in span_file.read_text().splitlines()]


@pytest.fixture
def one_round(monkeypatch):
    for workload in gen.TRACE_ROUNDS:
        monkeypatch.setitem(gen.TRACE_ROUNDS, workload, 1)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_counts_repeat_for_one_seed_whatever_the_time_budget(tmp_path, capsys, one_round, workload):
    first, second = (
        _traced_run(workload, tmp_path, name, seconds, capsys)[0]["per_layer"]
        for name, seconds in (("a", 0.5), ("b", 20.0))
    )
    counted = [
        k for k in first
        if k.endswith(COUNT_SUFFIXES) or (k.endswith("_ratio") and not k.startswith("trace."))
    ]
    assert {"covers.tries", "reduction.full_support_ratio", "exact_linalg.arg_bits_max"} <= set(counted)
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def test_tracer_sees_calls_inside_the_package(tmp_path, capsys, one_round):
    result, lines = _traced_run("certify-mix", tmp_path, "a", 1.0, capsys)
    records = [line for line in lines if isinstance(line, dict)]
    inertia_by_pieces = {}
    for span in lines:
        if isinstance(span, list) and span[tracer.NAME] == "exact_linalg.inertia":
            r = records[span[tracer.OP]]
            if r["kind"] == "certify" and r["family"] == "path":
                inertia_by_pieces[r["pieces"]] = inertia_by_pieces.get(r["pieces"], 0) + 1
    sizes = sorted(inertia_by_pieces)
    assert sizes == list(range(4, 14))
    for n in sizes[1:]:
        assert 1.6 < inertia_by_pieces[n] / inertia_by_pieces[n - 1] < 2.5
    assert result["per_layer"]["reduction.calls_per_failed_certify"] == 40
