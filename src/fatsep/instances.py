"""Instance container, deterministic generators, and the text file format.

Format (line oriented, diff-able):

    fatsep v1 d=<d> n=<n>
    # label: <label>
    # seed: <seed>
    ball <c_1> ... <c_d> <r>
    box <low_1> ... <low_d> <high_1> ... <high_d>

Coordinates are written with repr(), i.e. the shortest decimal that
round-trips, so write -> read -> write is byte stable.  Reading rejects any
value that is not finite or whose magnitude exceeds `MAX_MAGNITUDE`, naming
its line; an `Instance` built through the API rejects such values too.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .geometry import AxisBox, Ball, FatObject


# Two values within this bound differ by at most 2e150, so every squared
# offset or radius sum the intersection tests form is at most about 4e300,
# and a sum of them over the axes stays finite.
MAX_MAGNITUDE = 1e150


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Instance:
    dim: int
    objects: Tuple[FatObject, ...]
    label: str = ""
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        for o in self.objects:
            if o.dim != self.dim:
                raise ValueError("object dimension differs from instance dimension")
            values = o.center + (o.radius,) if isinstance(o, Ball) else o.low + o.high
            if not max(map(abs, values)) <= MAX_MAGNITUDE:
                raise ValueError(f"object value is not finite or exceeds {MAX_MAGNITUDE:g} in magnitude")

    @property
    def n(self) -> int:
        return len(self.objects)


def _box_around(rng: random.Random, center, base: float) -> AxisBox:
    # Per-axis half-sides in [base/2, base]; aspect ratio stays <= 2.
    halves = [base * rng.uniform(0.5, 1.0) for _ in center]
    return AxisBox(
        tuple(c - h for c, h in zip(center, halves)),
        tuple(c + h for c, h in zip(center, halves)),
    )


def gen_instance(
    family: str,
    d: int,
    *,
    shape: str = "ball",
    n: int = 0,
    k: int = 0,
    seed: int = 0,
    density: float = 1.0,
    clusters: int = 0,
    cluster_size: int = 0,
    label: str = "",
) -> Instance:
    """Deterministic instance generator.

    Families:
      grid:    k^d objects on a pitch-10 lattice with small jitter; objects
               are pairwise disjoint by construction, so Pack = Pierce = k^d.
      random:  n objects with centers uniform in a cube whose side scales
               with (n / density)^(1/d), density finite and > 0.
      cluster: `clusters` groups of `cluster_size` objects; groups sit on a
               widely spaced lattice so no two groups interact.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    rng = random.Random(seed)
    objs: List[FatObject] = []

    def make(center, scale):
        if shape == "ball":
            return Ball(tuple(center), scale)
        if shape == "box":
            return _box_around(rng, center, scale)
        raise ValueError(f"unknown shape {shape!r}")

    if family == "grid":
        if k < 1:
            raise ValueError("grid family needs k >= 1")
        pitch = 10.0
        # Axis 0 varies fastest.
        for idx in itertools.product(range(k), repeat=d):
            center = [pitch * i + rng.uniform(-1.0, 1.0) for i in reversed(idx)]
            objs.append(make(center, 1.0))
    elif family == "random":
        if n < 0:
            raise ValueError("random family needs n >= 0")
        if not (math.isfinite(density) and density > 0):
            raise ValueError(f"random family needs a finite density > 0, got {density}")
        side = 3.0 * max(n / density, 1.0) ** (1.0 / d)
        for _ in range(n):
            center = [rng.uniform(0.0, side) for _ in range(d)]
            objs.append(make(center, rng.uniform(0.5, 1.5)))
    elif family == "cluster":
        if clusters < 1 or cluster_size < 1:
            raise ValueError("cluster family needs clusters >= 1 and cluster_size >= 1")
        gap = 1000.0
        spread = 4.0
        for c in range(clusters):
            # Cluster anchors sit on a line along axis 0, staggered in axis 1.
            anchor = [0.0] * d
            anchor[0] = gap * c
            anchor[1] += gap * (c % 2) * 0.5
            for _ in range(cluster_size):
                center = [a + rng.uniform(-spread, spread) for a in anchor]
                objs.append(make(center, rng.uniform(0.2, 0.6)))
    else:
        raise ValueError(f"unknown family {family!r}")

    if not label:
        count = len(objs)
        label = f"{family}-{shape}-d{d}-n{count}-s{seed}"
    return Instance(dim=d, objects=tuple(objs), label=label, seed=seed)


def write_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_instance(inst))


def format_instance(inst: Instance) -> str:
    lines = [f"fatsep v1 d={inst.dim} n={inst.n}"]
    if inst.label:
        lines.append(f"# label: {inst.label}")
    lines.append(f"# seed: {inst.seed}")
    for o in inst.objects:
        if isinstance(o, Ball):
            coords = " ".join(repr(c) for c in o.center)
            lines.append(f"ball {coords} {o.radius!r}")
        else:
            coords = " ".join(repr(c) for c in o.low + o.high)
            lines.append(f"box {coords}")
    return "\n".join(lines) + "\n"


def read_instance(path: str) -> Instance:
    with open(path) as fh:
        return parse_instance(fh.read())


def _numbers(fields: Sequence[str], line_no: int) -> List[float]:
    vals = [float(x) for x in fields]
    for raw, v in zip(fields, vals):
        if not abs(v) <= MAX_MAGNITUDE:
            raise ParseError(
                f"value {raw} is not finite or exceeds {MAX_MAGNITUDE:g} in magnitude", line_no
            )
    return vals


def parse_instance(text: str) -> Instance:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", 1)
    head = lines[0].split()
    if (
        len(head) != 4
        or head[0] != "fatsep"
        or head[1] != "v1"
        or not head[2].startswith("d=")
        or not head[3].startswith("n=")
    ):
        raise ParseError("expected header 'fatsep v1 d=<d> n=<n>'", 1)
    try:
        d = int(head[2][2:])
        n = int(head[3][2:])
    except ValueError:
        raise ParseError("bad d= or n= value in header", 1) from None

    label = ""
    seed = 0
    objs: List[FatObject] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("label:"):
                label = body[len("label:") :].strip()
            elif body.startswith("seed:"):
                try:
                    seed = int(body[len("seed:") :].strip())
                except ValueError:
                    raise ParseError("bad seed comment", line_no) from None
            continue
        parts = line.split()
        try:
            if parts[0] == "ball":
                if len(parts) != d + 2:
                    raise ParseError(
                        f"ball needs {d} coordinates and a radius", line_no
                    )
                vals = _numbers(parts[1:], line_no)
                objs.append(Ball(tuple(vals[:d]), vals[d]))
            elif parts[0] == "box":
                if len(parts) != 2 * d + 1:
                    raise ParseError(f"box needs {2 * d} coordinates", line_no)
                vals = _numbers(parts[1:], line_no)
                objs.append(AxisBox(tuple(vals[:d]), tuple(vals[d:])))
            else:
                raise ParseError(f"unknown object kind {parts[0]!r}", line_no)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    if len(objs) != n:
        raise ParseError(f"header says n={n} but found {len(objs)} objects", len(lines))
    return Instance(dim=d, objects=tuple(objs), label=label, seed=seed)
