"""The benchmark's workloads: each is a session of nnscale CLI commands, built
from the workload seed. The seed feeds the commands' --seed flags and the scan
budget; the program sees only argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

# Paper budgets (MACs, params) for the report command, and the scan tolerance.
PAPER_BUDGETS = [(3_300_000_000, 21_000_000), (4_500_000_000, 28_000_000),
                 (8_500_000_000, 50_000_000)]
TOL = 0.025
LDI_TRIALS = 50          # the smallest count ldi accepts
REGION_LAYERS = [2, 3, 4]
REGION_TRIALS = 8
COLLAPSE_TRIALS = 200
AFRB_EPOCHS = 150
AFRB_LR = 0.05           # at the default 0.2, about 1 seed in 200 diverges
PARETO_GRID = ["--wsteps", "64", "--dsteps", "32"]  # 2048 candidates


@dataclass(frozen=True)
class Command:
    """One CLI invocation. check(stdout, read) returns problems, where read(name)
    gives the text of a file the session wrote so far."""

    name: str
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    check: Callable[[str, Callable[[str], str]], list[str]] = lambda stdout, read: []

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def scan(seed: int) -> list[Command]:
    rng = random.Random(seed)
    # MACs and params move together along the scaling grid; a shared factor
    # keeps the drawn budget on the grid's cost curve so it always admits rows.
    factor = 1 + rng.uniform(-0.03, 0.03)
    macs = round(4.5e9 * factor)
    params = round(28e6 * factor * (1 + rng.uniform(-0.01, 0.01)))
    budgets = [arg for m, p in PAPER_BUDGETS for arg in ("--budget", f"{m}:{p}")]
    return [
        Command("cost", ["cost", "--preset", "convnext-t"]),
        Command("mass", ["mass", "--preset", "convnext-t"]),
        Command("cost", ["cost", "--preset", "ran-i-t"]),
        Command("mass", ["mass", "--preset", "ran-i-t"]),
        Command("cost", ["cost", "--preset", "ran-e-supernet", "--per-block"]),
        Command("scale", ["scale", "--preset", "convnext-t", "--budget-macs", str(macs),
                          "--budget-params", str(params), "--tol", str(TOL),
                          "--out", "scan.csv"], ["scan.csv"],
                lambda out, read: checks.check_scale(read("scan.csv"), macs, params, TOL)),
        Command("report", ["report", "--scan", "scan.csv", *budgets, "--tol", str(TOL),
                           "--frontier-out", "frontier.csv"], ["frontier.csv"],
                lambda out, read: checks.check_report(
                    out, read("scan.csv"), read("frontier.csv"), PAPER_BUDGETS, TOL)),
        Command("pareto", ["pareto", "--preset", "ran-i-t", *PARETO_GRID,
                           "--out", "pareto.csv"], ["pareto.csv"],
                lambda out, read: checks.check_pareto(read("pareto.csv"))),
    ]


def theory(seed: int) -> list[Command]:
    rng = random.Random(seed)
    ldi_seed, region_seed = (str(rng.randrange(2**31)) for _ in range(2))
    layers = ",".join(map(str, REGION_LAYERS))
    return [
        Command("ldi", ["ldi", "--width", "32", "--depth", "16", "--skips", "32",
                        "--trials", str(LDI_TRIALS), "--seed", ldi_seed, "--out", "ldi.json"],
                ["ldi.json"], lambda out, read: checks.check_ldi(read("ldi.json"), LDI_TRIALS)),
        Command("regions", ["regions", "--n", "4", "--n0", "2", "--layers", layers,
                            "--grid", "256", "--trials", str(REGION_TRIALS),
                            "--seed", region_seed, "--out", "regions.json"],
                ["regions.json"],
                lambda out, read: checks.check_regions(read("regions.json"), 4, REGION_LAYERS)),
    ]


def restructure(seed: int) -> list[Command]:
    rng = random.Random(seed)
    collapse_seed, moons_seed, xor_seed = (str(rng.randrange(2**31)) for _ in range(3))

    def collapse(biased: bool) -> Command:
        out = "collapse_biased.json" if biased else "collapse.json"
        flags = ["--biased"] if biased else []
        return Command("collapse_verify",
                       ["collapse-verify", "--trials", str(COLLAPSE_TRIALS),
                        "--seed", collapse_seed, *flags, "--out", out], [out],
                       lambda stdout, read: checks.check_collapse(
                           read(out), COLLAPSE_TRIALS, biased))

    def afrb(dataset: str, seed_arg: str) -> Command:
        out = f"{dataset}.csv"
        return Command("afrb_search",
                       ["afrb-search", "--dataset", dataset, "--epochs", str(AFRB_EPOCHS),
                        "--lr", str(AFRB_LR),
                        "--seed", seed_arg, "--out", out], [out],
                       lambda stdout, read: checks.check_afrb(read(out), AFRB_EPOCHS))

    return [
        collapse(False),
        collapse(True),
        afrb("moons", moons_seed),
        afrb("xor", xor_seed),
        Command("restructure", ["restructure", "--preset", "convnext-t", "--fraction", "0.6",
                                "--activation", "exp", "--out", "model_c.json"],
                ["model_c.json"]),
        Command("cost", ["cost", "--preset", "convnext-t", "--format", "json",
                         "--out", "cost_base.json"], ["cost_base.json"]),
        Command("cost", ["cost", "--arch", "model_c.json", "--format", "json",
                         "--out", "cost_c.json"], ["cost_c.json"],
                lambda out, read: checks.check_fewer_macs(
                    read("cost_c.json"), read("cost_base.json"))),
    ]


WORKLOADS = {"scan": scan, "theory": theory, "restructure": restructure}


def reader(directory: Path) -> Callable[[str], str]:
    return lambda name: (directory / name).read_text(encoding="utf-8")
