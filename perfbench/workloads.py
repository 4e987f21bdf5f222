"""Benchmark workloads: which instances each one runs, and how they are made.

A workload is a fixed list of instance sizes.  The workload seed picks
the seed of each random Gram matrix and the order of the pass, and
nothing else, so every seed gives a pass of the same shape and nearly
the same cost; the classical families differ between seeds only in
order.  Why each workload exists, and which layer metrics it should
move, is written down in perfbench/README.md.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The seed whose dense_gram answers are recorded in expected_dense_gram.json.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Slot:
    """`count` instances with n evenly spaced over [lo, hi].

    Instance k gets family `families[k % len(families)]` and, for
    random_gram, density `densities[k % len(densities)]`.
    """

    families: tuple[str, ...]
    lo: int
    hi: int
    count: int
    command: tuple[str, ...]
    densities: tuple[str, ...] = ()


@dataclass(frozen=True)
class Instance:
    """One generated input and the CLI command run on it."""

    name: str
    family: str
    n: int
    command: tuple[str, ...]
    seed: int | None = None
    density: str | None = None


SVP = ("svp",)
WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "families_superbase": (
        Slot(("an",), 16, 160, 24, SVP),
        Slot(("zn",), 16, 160, 24, SVP),
        Slot(("anstar",), 8, 48, 24, SVP),
    ),
    "dense_gram": (
        Slot(("random_gram",), 12, 52, 20, SVP, ("1",)),
        Slot(("random_gram",), 12, 52, 20, SVP, ("1/2",)),
    ),
    "small_alt": (
        Slot(("random_gram",), 5, 10, 24, ("svp", "--algorithm", "karger"),
             ("1", "1/2")),
        Slot(("random_gram",), 6, 15, 24, ("svp", "--algorithm", "brute"),
             ("1", "1/2")),
        Slot(("an", "zn", "anstar"), 3, 10, 24, ("candidates",)),
    ),
}


def plan(workload: str, seed: int) -> list[Instance]:
    """The instances of one pass, in the order the closed loop sends them."""
    rng = random.Random(f"{workload}/{seed}")
    instances = []
    for slot in WORKLOADS[workload]:
        for k in range(slot.count):
            n = slot.lo + round(k * (slot.hi - slot.lo) / (slot.count - 1))
            family = slot.families[k % len(slot.families)]
            label = f"{slot.command[-1]}-{family}-n{n}"
            if family == "random_gram":
                density = slot.densities[k % len(slot.densities)]
                gen_seed = rng.getrandbits(64)
                instances.append(Instance(
                    f"{label}-d{density.replace('/', '_')}-s{gen_seed}",
                    family, n, slot.command, gen_seed, density,
                ))
            else:
                instances.append(Instance(label, family, n, slot.command))
    rng.shuffle(instances)
    return instances


def import_latcut():
    """Import the package afresh from this checkout's src/, never from elsewhere.

    Modules of an earlier import are dropped first, so every call pays
    the package's whole import cost again.
    """
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "latcut" or n.startswith("latcut.")]:
        del sys.modules[name]
    package = importlib.import_module("latcut")
    if Path(package.__file__).resolve().parent != src / "latcut":
        raise ImportError(f"latcut was imported from {package.__file__}, "
                          f"not from {src}")
    for module in ("cli", "generators", "lattice", "mincut", "pipeline"):
        importlib.import_module(f"latcut.{module}")
    return package


@dataclass(frozen=True)
class Materialized:
    """An instance written to disk, with the validated object it came from."""

    instance: Instance
    value: object  # latcut Superbase or GramMatrix
    argv: tuple[str, ...]
    input_bytes: int


def materialize_one(latcut, inst: Instance, path: Path) -> Materialized:
    """Generate one instance and write it to `path` as an input file.

    Calls go through the module attributes (`latcut.generators.generate`,
    `latcut.cli.format_*`) so that a traced run sees them.
    """
    generators, cli = latcut.generators, latcut.cli
    spec = generators.InstanceSpec(
        inst.family, inst.n, seed=inst.seed,
        density=None if inst.density is None else Fraction(inst.density),
    )
    value = generators.generate(spec)
    if isinstance(value, latcut.Superbase):
        text = cli.format_superbase(value, inst.name)
    else:
        text = cli.format_gram(value, inst.name)
    path.write_text(text, encoding="utf-8")
    argv = (inst.command[0], str(path), *inst.command[1:])
    return Materialized(inst, value, argv, len(text.encode()))


def materialize(latcut, instances: list[Instance], directory: Path):
    """Every instance, written to `directory`, in order."""
    directory.mkdir(parents=True, exist_ok=True)
    return [materialize_one(latcut, inst, directory / f"{index:03d}.txt")
            for index, inst in enumerate(instances)]
