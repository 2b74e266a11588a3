"""Tests of the benchmark itself, at the tiny input size (seconds).

    python3 perfbench/selfcheck.py

* every workload passes its own checks on the real program;
* every checker flags a planted wrong answer (an off-by-one Betti vector,
  a wrong class count, a failed exit code, ...);
* ``run.py`` prints the result line with exactly the metrics that
  ``BENCHMARK.json`` names, traced and untraced;
* ``run.py`` fails, printing no result, when the program is missing;
* the tracer wraps each layer where its callers resolve it, derives every
  per-layer metric and reports a missing function as absent.
"""

from __future__ import annotations

import contextlib
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import finito  # noqa: E402

import workloads  # noqa: E402

WORKDIR = ROOT / ".perfbench_work" / "selfcheck"
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def tiny(name: str):
    generate, run, check = workloads.WORKLOADS[name]
    inputs = generate(7, workloads.SIZES["tiny"][name], WORKDIR / name)
    outputs, item_ms = run(inputs)
    return inputs, outputs, item_ms, check


def flags(check, inputs, outputs, fragment: str) -> bool:
    """True when some failed check has ``fragment`` in its label."""
    return any(fragment in label for label, ok in check(inputs, outputs) if not ok)


def check_clean_runs() -> None:
    for name in workloads.WORKLOADS:
        inputs, outputs, item_ms, check = tiny(name)
        results = check(inputs, outputs)
        bad = [label for label, ok in results if not ok]
        expect(results and not bad, f"{name}: {len(results)} checks pass on the program {bad[:3]}")
        expect(all(t > 0 for t in item_ms), f"{name}: every item is timed")


def check_verify8_plants() -> None:
    inputs, outputs, _, check = tiny("verify8")
    max_k = 2 * inputs["max_height"]
    real = finito.enumerate_posets

    def one_extra(k, **kwargs):
        yield from real(k, **kwargs)
        if k == max_k:
            yield None

    finito.enumerate_posets = one_extra
    try:
        expect(flags(check, inputs, outputs, f"classes with {max_k} points"),
               "verify8: a wrong class count is flagged")
    finally:
        finito.enumerate_posets = real

    wrong = copy.deepcopy(outputs)
    n, count = wrong["rows"][-1]
    wrong["rows"][-1] = (n, count + 1)
    expect(flags(check, inputs, wrong, "wedge model counts"), "verify8: a wrong wedge count is flagged")

    wrong = copy.deepcopy(outputs)
    wrong["report"].lower_bound_violations.append(finito.FinitePoset.chain(3))
    expect(flags(check, inputs, wrong, "confirmed"), "verify8: an unconfirmed report is flagged")

    wrong = copy.deepcopy(outputs)
    wrong["report"].classes_scanned -= 1
    expect(flags(check, inputs, wrong, "scanned"), "verify8: a short scan is flagged")

    wrong = copy.deepcopy(outputs)
    wrong["report"] = RuntimeError("planted")
    expect(flags(check, inputs, wrong, "confirmed"), "verify8: a raised scan is flagged")


def check_homology_plants() -> None:
    items, outputs, _, check = tiny("homology")

    def planted(index, betti=None, torsion=None, chi=None):
        wrong = list(outputs)
        b, t, c = wrong[index]
        wrong[index] = (betti or b, torsion or t, c if chi is None else chi)
        return wrong

    sphere = next(i for i, item in enumerate(items) if item.name.startswith("S^"))
    b = outputs[sphere][0]
    expect(flags(check, items, planted(sphere, betti=b[:-1] + (b[-1] + 1,)), "Betti"),
           "homology: an off-by-one sphere Betti vector is flagged")

    rp2 = next(i for i, item in enumerate(items) if item.name.startswith("RP2"))
    expect(flags(check, items, planted(rp2, torsion=((),) * 3), "torsion"),
           "homology: lost RP2 torsion is flagged")

    graph = next(i for i, item in enumerate(items) if item.name.startswith("graph order"))
    _, _, chi = outputs[graph]
    expect(flags(check, items, planted(graph, chi=chi + 1), "euler = chain count"),
           "homology: a wrong Euler characteristic is flagged")

    b = outputs[graph][0]
    expect(flags(check, items, planted(graph, betti=(b[0] + 1,) + b[1:]), "b0 = components"),
           "homology: a wrong b0 is flagged")

    susp = next(i for i, item in enumerate(items) if item.suspends is not None)
    b = outputs[susp][0]
    expect(flags(check, items, planted(susp, betti=b[:1] + (b[1] + 1,) + b[2:]), "shifts by one"),
           "homology: a suspension that does not shift homology is flagged")


def check_spaces_plants() -> None:
    inputs, outputs, _, check = tiny("spaces")

    def planted(query, **changes):
        wrong = copy.deepcopy(outputs)
        answers, homeomorphic = wrong["spaces"][0]
        code, text = answers[query]
        data = json.loads(text)
        data.update(changes)
        answers[query] = (code, json.dumps(data))
        return wrong

    wrong = copy.deepcopy(outputs)
    wrong["spaces"][0][0][1] = (1, "")
    expect(flags(check, inputs, wrong, "core exit code"), "spaces: a failing exit code is flagged")

    expect(flags(check, inputs, planted(0, b0=2), "info.b0"), "spaces: b0 = 2 is flagged")

    free = next(i for i, (answers, _) in enumerate(outputs["spaces"])
                if json.loads(answers[2][1])["free_rank"] is not None)
    wrong = copy.deepcopy(outputs)
    answers = wrong["spaces"][free][0]
    data = json.loads(answers[2][1])
    data["free_rank"] += 1
    answers[2] = (answers[2][0], json.dumps(data))
    expect(flags(check, inputs, wrong, "free pi1 rank"), "spaces: a free rank other than b1 is flagged")

    wrong = copy.deepcopy(outputs)
    wrong["spaces"][0] = (wrong["spaces"][0][0], False)
    expect(flags(check, inputs, wrong, "homeomorphic"), "spaces: a non-homeomorphic copy is flagged")

    wrong = copy.deepcopy(outputs)
    wrong["big"][0] = (0, json.dumps({"core_points": 2}))
    expect(flags(check, inputs, wrong, "one point"), "spaces: a core of two points is flagged")


def check_command() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                   and result["correct"] and result["failed"] == 0,
                   f"run.py {w['name']} --trace {trace}: correct result line")
            expect(sorted(result.get("metrics", {})) == sorted(names[trace]),
                   f"run.py {w['name']} --trace {trace}: exactly the metrics of BENCHMARK.json")

    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py without the program exits non-zero and prints no result")


def check_tracing() -> None:
    """Installs the tracer in this process, so it runs last."""
    import tracing

    reduction = sys.modules["finito.reduction"]
    removed = reduction.osaki_closed_reduction
    del reduction.osaki_closed_reduction
    try:
        tracer = tracing.install()
    finally:
        reduction.osaki_closed_reduction = removed
    expect(tracer.absent() == ["reduction.osaki_closed_reduction"],
           "tracing: a function the program lacks is reported absent")
    snf = sys.modules["finito.snf"]
    bindings = (finito.cli.core, sys.modules["finito.order_complex"].smith_invariant_factors,
                finito.pi1.matrix_rank, finito.order_complex)
    expect(all(hasattr(f, "__wrapped__") for f in bindings)
           and bindings[0] is reduction.core and bindings[1] is snf.smith_invariant_factors,
           "tracing: functions are wrapped where their callers resolve them")

    spaces = tiny("spaces")[0]
    tiny("homology")
    metrics = tracer.metrics()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(sorted(metrics) + ["trace.overhead_s"] == sorted(m["name"] for m in spec["per_layer"]),
           "tracing: every per-layer metric of BENCHMARK.json is derived")
    queries = len(spaces["spaces"]) * len(workloads.SPACE_QUERIES) + len(spaces["big"])
    expect(metrics["fileio.parse_calls"] == queries, "tracing: one parse per CLI query")
    expect(all(metrics[name] > 0 for name in (
        "snf.calls", "snf.s.d1", "snf.rows.d2", "order_complex.faces", "poset.chains_s",
        "reduction.core_removed", "pi1.generators", "cli.self_s", "reduction.osaki_s")),
           "tracing: the homology and spaces layers are seen")


def main() -> int:
    try:
        check_clean_runs()
        check_verify8_plants()
        check_homology_plants()
        check_spaces_plants()
        check_command()
        check_tracing()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
