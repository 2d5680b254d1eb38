"""Per-subcommand benchmark of the priormap CLI.

    python3 bench/run.py --workload loss-warp-eval --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --all            # every workload, one after another
    python3 bench/run.py --smoke          # every workload once, tiny inputs

One run of one workload:

1. Set-up, repeated SETUP_REPEATS times: a fresh interpreter runs
   bench/inputs.py, which imports priormap and generates and writes the
   workload's inputs from the seed. setup_s is the median wall time.
2. One untimed warm-up start of the CLI, then timed rounds (at least
   MIN_ROUNDS). A round runs the six subcommands once each, every one a
   fresh `python -m priormap.cli` process with its default `--jobs 1`, the
   way a user starts it. `<subcommand>_s` is the mean wall time of that
   subcommand over the timed rounds; peak_rss_mb is the largest peak
   resident set of any process the run starts, set-up included.
   Every time metric is divided by a speed factor: before each process it
   starts, the benchmark times a fixed pure-Python calibration loop, and
   the factor is the mean loop time over NOMINAL_CALIBRATION_S, taken over
   the set-ups for setup_s and over the timed rounds for the rest. The
   driver and every child are pinned to one CPU, so the loop and the
   processes run where the same slowdowns reach them.
3. The outputs of the first round are checked against the benchmark's own
   computations (bench/checks.py), outside any timed span; the perturb
   output of every round must be byte-identical.

--seconds bounds the whole run: set-up, warm-up and checks count against
it, and no round starts that would not end within it at the rounds' mean
pace.

With --trace 1 the rounds run in-process under timing wrappers instead
(bench/tracing.py) and the per-layer metrics are printed. The last line of
standard output is one JSON object with correct, attempted, failed and
metrics; with --all or --smoke, one such object per workload, keyed by name.
"""
from __future__ import annotations

import os

# Child processes and the in-process traced run both compute with BLAS;
# pin it to one thread before numpy is first imported anywhere.
_PINNED = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(_PINNED)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

SUBCOMMANDS = ("perturb", "loss", "diff", "mine", "eval", "render")
WORKLOADS = ("loss-warp-eval", "map-change")
SETUP_REPEATS = 3
MIN_ROUNDS = 3
#: The calibration loop runs CALIBRATION_ITERS iterations; at the reference
#: machine's median speed that takes NOMINAL_CALIBRATION_S.
CALIBRATION_ITERS = 1_500_000
NOMINAL_CALIBRATION_S = 0.18
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", **{f"{c}_s": "s" for c in SUBCOMMANDS}}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **_PINNED)


def eval_pair(workload: str, inputs: Path, out: Path) -> tuple[Path, Path]:
    """The (prediction, ground truth) scene files eval reads: the mined pairs
    on map-change, the perturbed frames against the clean ones on
    loss-warp-eval."""
    if workload == "map-change":
        return out / "prior.jsonl", out / "gt.jsonl"
    return out / "perturbed.jsonl", inputs / "scenes.jsonl"


def perturbed_digest(out: Path) -> str:
    path = out / "perturbed.jsonl"
    return digest(path) if path.exists() else ""


def round_commands(workload: str, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The six subcommands of one round, in order, as CLI argument lists."""
    pred, gt = eval_pair(workload, inputs, out)
    maps = ["--old", str(inputs / "old.jsonl"), "--new", str(inputs / "new.jsonl")]
    return [
        ("perturb", ["perturb", "--scenes", str(inputs / "scenes.jsonl"),
                     "--recipe", str(inputs / "recipe.json"), "--out", str(out / "perturbed.jsonl")]),
        ("loss", ["loss", "--pred", str(inputs / "pred.jsonl"),
                  "--labels", str(inputs / "labels.jsonl"), "--out", str(out / "loss.json")]),
        ("diff", ["diff", *maps, "--out", str(out / "diff.json")]),
        ("mine", ["mine", *maps, "--trajectory", str(inputs / "trajectory.jsonl"),
                  "--out-prior", str(out / "prior.jsonl"), "--out-gt", str(out / "gt.jsonl"),
                  "--report", str(out / "windows.json")]),
        ("eval", ["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out / "eval.json")]),
        ("render", ["render", "--scenes", str(inputs / "render_scenes.jsonl"),
                    "--overlay", str(inputs / "render_overlay.jsonl"), "--out-dir", str(out / "svg")]),
    ]


def run_process(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop that never touches the program."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERS):
        x += i * i % 7
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def set_up(workload: str, seed: int, work: Path, smoke: bool,
           repeats: int) -> tuple[Path, list[float], list[float], list[float]]:
    """Generate the inputs `repeats` times in fresh interpreters; every copy
    must be byte-identical. Returns the first copy, the wall times and the
    peak RSS of each set-up process, and the calibration time before each."""
    times = []
    peaks = []
    calibrations = []
    copies = []
    for k in range(repeats):
        dest = work / f"inputs{k}"
        argv = [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(dest)] + (["--smoke"] if smoke else [])
        calibrations.append(calibrate())
        elapsed, rss, code = run_process(argv, work / "setup.log")
        if code != 0:
            raise SystemExit(f"set-up failed (exit {code}); see {work / 'setup.log'}")
        times.append(elapsed)
        peaks.append(rss)
        copies.append({p.name: digest(p) for p in sorted(dest.iterdir())})
    if any(c != copies[0] for c in copies):
        raise SystemExit("set-up is not deterministic: input copies differ")
    for k in range(1, repeats):
        shutil.rmtree(work / f"inputs{k}")
    return work / "inputs0", times, peaks, calibrations


def cli_round(workload: str, inputs: Path, out: Path,
              calibrations: list[float]) -> dict[str, tuple[float, float, int]]:
    """Run the six subcommands once, each after a calibration loop whose
    time is appended to `calibrations`."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    results = {}
    for name, args in round_commands(workload, inputs, out):
        argv = [sys.executable, "-m", "priormap.cli", *args]
        calibrations.append(calibrate())
        results[name] = run_process(argv, out.parent / "cli.log")
    return results


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    from checks import check_identical, check_outputs

    started = time.perf_counter()
    work = RUNS / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, setup_times, peaks, setup_calibrations = set_up(
            workload, seed, work, smoke, 1 if smoke else SETUP_REPEATS)
        if not smoke:
            # Every timed subcommand is a fresh process, so all a warm-up can
            # leave behind is the page cache. Set-up has just written the
            # inputs; one untimed start of the CLI loads every module any
            # subcommand imports. A full untimed round would add nothing but
            # a round's time.
            peaks.append(run_process([sys.executable, "-m", "priormap.cli", "--help"],
                                     work / "cli.log")[1])
        rounds: list[dict] = []
        calibrations: list[float] = []
        round_times: list[float] = []
        perturbed: list[str] = []
        out = work / "out"
        problems = None
        while True:
            round_start = time.perf_counter()
            rounds.append(cli_round(workload, inputs, out, calibrations))
            round_times.append(time.perf_counter() - round_start)
            perturbed.append(perturbed_digest(out))
            if problems is None:
                # Checked at once, so that the checks' time counts against
                # --seconds like the rest of the run.
                problems = check_outputs(inputs, out, *eval_pair(workload, inputs, out))
            elapsed = time.perf_counter() - started
            if smoke or (len(rounds) >= MIN_ROUNDS
                         and elapsed + statistics.fmean(round_times) > seconds):
                break
        problems += check_identical(perturbed)
        failed = sum(1 for r in rounds for _, _, code in r.values() if code != 0)
        if failed:
            log = (work / "cli.log").read_text(encoding="utf-8", errors="replace").splitlines()
            problems.insert(0, f"{failed} subcommand run(s) failed: {' | '.join(log[-3:])}")
        peaks += [rss for r in rounds for _, rss, _ in r.values()]
        # The reference machine's speed drifts by 10 to 20 % over tens of
        # seconds, and a 60 s run cannot average that out; the calibration
        # loop drifts with it, so dividing by the mean loop time of the same
        # stretch of the run takes the drift out of every time metric. The
        # loop runs no program code, so a change to the program moves the
        # metrics in full.
        setup_speed = statistics.fmean(setup_calibrations) / NOMINAL_CALIBRATION_S
        speed = statistics.fmean(calibrations) / NOMINAL_CALIBRATION_S
        metrics = {"setup_s": statistics.median(setup_times) / setup_speed,
                   "peak_rss_mb": max(peaks)}
        # The mean, not the median, of the rounds: with the drift divided
        # out, what is left is each process's own noise, which the mean of
        # three to seven rounds averages better; over ten map-change runs the
        # mean spread by 0.05 to 0.08 and the median by 0.06 to 0.13.
        for name in SUBCOMMANDS:
            metrics[f"{name}_s"] = statistics.fmean(r[name][0] for r in rounds) / speed
        return {"workload": workload, "seed": seed, "rounds": len(rounds),
                "attempted": len(rounds) * len(SUBCOMMANDS), "failed": failed,
                "problems": problems, "metrics": metrics,
                "speed": {"setup_s": setup_speed, "rounds": speed},
                "samples": {"calibration_s": setup_calibrations + calibrations,
                            "setup_s": setup_times,
                            **{f"{name}_s": [r[name][0] for r in rounds] for name in SUBCOMMANDS}}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: {result['rounds']} timed round(s), "
          f"{result['attempted']} subcommand run(s), {result['failed']} failed")
    if "speed" in result:
        speed = result["speed"]
        print(f"  speed factor {speed['setup_s']:.4f} over the set-ups, {speed['rounds']:.4f} over "
              f"the rounds (mean calibration loop over {NOMINAL_CALIBRATION_S} s); each time "
              f"below is the raw wall-time samples after it divided by its factor")
        loops = " ".join(f"{v:.3f}" for v in result["samples"]["calibration_s"])
        print(f"  {'calibration_s':<36} {'':12} {'s':<6} {loops}")
    units = result.get("units", UNITS)
    samples = result.get("samples", {})
    for name, value in result["metrics"].items():
        spread = " ".join(f"{v:.3f}" for v in samples.get(name, ()))
        print(f"  {name:<36} {value:12.4f} {units[name]:<6} {spread}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def result_line(result: dict) -> str:
    units = result.get("units", UNITS)
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description="Per-subcommand benchmark of the priormap CLI.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once on tiny inputs, with all output checks")
    args = parser.parse_args()
    if not (SRC / "priormap" / "cli.py").is_file():
        print(f"error: no priormap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    pin_to_one_cpu()
    if args.smoke or args.all:
        workloads = WORKLOADS
    elif args.workload:
        workloads = (args.workload,)
    else:
        parser.error("give --workload, --all or --smoke")
    results = []
    for workload in workloads:
        if args.trace:
            from tracing import traced_run

            result = traced_run(workload, args.seed, args.seconds, args.smoke)
        else:
            result = measure(workload, args.seed, args.seconds, args.smoke)
        report(result)
        results.append(result)
    if len(results) == 1:
        print(result_line(results[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(result_line(r)) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
