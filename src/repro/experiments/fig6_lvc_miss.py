"""Figure 6: LVC miss rates as the LVC size varies from 0.5 KB to 4 KB.

Measured on a direct-mapped LVC fed only the local references of each
trace (the paper measured with a 4-port direct-mapped LVC; miss rate is
port-independent).  Also reports the L2-traffic change from adding a 2 KB
LVC (the paper's Section 4.2.1 observation: ``130.li`` and ``147.vortex``
see large reductions).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    DEFAULT_SCALE,
    nm_config,
    run_sim,
    select_programs,
)
from repro.isa.opcodes import FuClass
from repro.mem.cache import Cache, CacheGeometry
from repro.stats.report import Table
from repro.experiments.common import trace_for
from repro.workloads.spec import ALL_PROGRAMS

LVC_SIZES = (512, 1024, 2048, 4096)

_LOAD = int(FuClass.LOAD)
_STORE = int(FuClass.STORE)


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None,
        sizes: Sequence[int] = LVC_SIZES) -> Dict[str, Dict[int, float]]:
    """LVC miss rate per program per size (cache simulation only)."""
    rows: Dict[str, Dict[int, float]] = {}
    for name in select_programs(programs, ALL_PROGRAMS):
        trace = trace_for(name, scale)
        caches = {size: Cache("lvc", CacheGeometry(size, 1, 32))
                  for size in sizes}
        stream = trace.insts
        for fu, addr, is_local in zip(stream.fu, stream.addr,
                                      stream.is_local):
            if is_local and (fu == _LOAD or fu == _STORE):
                for cache in caches.values():
                    cache.access(addr, fu == _STORE)
        rows[name] = {size: cache.miss_rate
                      for size, cache in caches.items()}
    return rows


def l2_traffic_change(scale: float = DEFAULT_SCALE,
                      programs: Optional[Sequence[str]] = None,
                      ports: int = 3) -> Dict[str, float]:
    """Relative L2 traffic of (N+2) vs (N+0): below 1.0 means reduction."""
    out: Dict[str, float] = {}
    for name in select_programs(programs, ALL_PROGRAMS):
        base = run_sim(name, nm_config(ports, 0), scale)
        with_lvc = run_sim(name, nm_config(ports, 2), scale)
        out[name] = (with_lvc.l2_traffic / base.l2_traffic
                     if base.l2_traffic else 1.0)
    return out


def render(rows: Dict[str, Dict[int, float]]) -> str:
    sizes = sorted(next(iter(rows.values())))
    table = Table(
        ["program"] + [f"{s / 1024:g}KB" for s in sizes],
        precision=4,
        title="Figure 6: LVC miss rate vs size (direct-mapped)",
    )
    for name, row in rows.items():
        table.add_row(name, *[row[s] for s in sizes])
    return table.render()


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
