"""The golden CLI corpus: every recorded command, rerun in process, prints
the same bytes and exits with the same code, and every promise-ledger case
keeps its outcome.  regen.py writes the corpus and the ledger."""

import json
import warnings

import regen


def test_cli_output_matches_the_golden_corpus():
    recorded = json.loads((regen.HERE / "versions.json").read_text())
    cases = sorted((regen.HERE / "configs").glob("*.json"))
    assert {p.stem for p in cases} == set(regen.CASES)
    misses = []
    for path in cases:
        expected = json.loads(
            (regen.HERE / "expected" / path.name).read_text())
        config = json.loads(path.read_text())
        assert config == regen.CASES[path.stem]
        assert [r["argv"] for r in expected] == regen.commands(config)
        for want in expected:
            got = regen.run(want["argv"] + ["-c", str(path)])
            if got != (want["code"], want["stdout"], want["stderr"]):
                misses.append(f"{path.stem}: {' '.join(want['argv'])}")
    assert not misses, (f"recorded with {recorded}, run with "
                        f"{regen.versions()}; differing runs: {misses}")


def test_library_outputs_match_the_digest():
    recorded = json.loads((regen.HERE / "versions.json").read_text())
    want = json.loads((regen.HERE / "digest.json").read_text())
    items = regen.digest_items()
    assert set(want) == {name for name, *_ in items}
    misses = []
    for name, func, n, quad in items:
        expected = want[name]
        assert (expected["function"], expected["n"], expected["quad"]) \
            == (func, n, list(quad))
        got = regen.digest_item(func, n, quad)
        misses += [f"{name}: {field}" for field in sorted(got)
                   if got[field] != expected[field]]
    assert not misses, (f"recorded with {recorded}, run with "
                        f"{regen.versions()}; differing outputs: {misses}")


def test_every_ledger_case_keeps_its_outcome():
    want = json.loads((regen.HERE / "promise.json").read_text())
    cases = regen.promise_cases()
    assert set(want) == {name for name, _ in cases}
    # an untyped exception propagates, and a RuntimeWarning is one
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = {name: regen.promise_outcome(config) for name, config in cases}
    moved = [f"{name}: {want[name]} -> {got[name]}" for name in sorted(got)
             if got[name] != want[name]]
    assert not moved, f"{len(moved)} ledger cases moved: {moved}"


def test_recorded_json_is_strict():
    # no JSON output of the corpus holds an Infinity or NaN literal, which
    # strict readers refuse; the CLI writes a non-finite float as null
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    runs = [run for path in sorted((regen.HERE / "expected").glob("*.json"))
            for run in json.loads(path.read_text())
            if run["code"] == 0 and "json" in run["argv"]]
    assert runs
    for run in runs:
        json.loads(run["stdout"], parse_constant=refuse)
